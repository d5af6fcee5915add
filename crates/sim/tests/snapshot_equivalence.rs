//! Kill-and-resume equivalence: snapshotting a run at any slot boundary,
//! round-tripping the snapshot through its on-disk JSON image, restoring,
//! and running the remainder must be **bit-identical** to never having
//! stopped — per-slot `SlotReport`s, final `RunMetrics`, and the
//! watchdog's verdict alike — across fault scenarios and both S1
//! schedulers. Also covers the corrupt-file paths: torn writes, flipped
//! bytes, and future versions must surface as typed errors, never panics.

use greencell_core::{SchedulerKind, SlotReport};
use greencell_sim::{
    FaultSpec, GridModel, RunMetrics, Scenario, SimError, SimSnapshot, Simulator, WatchdogReport,
};
use proptest::prelude::*;

/// The four fault archetypes the resilience suite exercises.
fn fault_spec(pick: usize) -> FaultSpec {
    match pick {
        0 => FaultSpec::bs_outage(),
        1 => FaultSpec::band_loss(),
        2 => FaultSpec::renewable_drought(3, 9),
        _ => FaultSpec::price_spike(2, 8, 4.0),
    }
}

fn scenario(seed: u64, fault_pick: usize, scheduler: SchedulerKind) -> Scenario {
    let mut s = Scenario::tiny(seed);
    s.horizon = 14;
    s.scheduler = scheduler;
    s.faults = Some(fault_spec(fault_pick));
    s.track_lower_bound = true;
    // Markov connectivity exercises the per-node chain state in snapshots.
    s.grid_model = GridModel::Markov {
        stay_on: 0.9,
        stay_off: 0.7,
    };
    s
}

/// Steps `sim` to its horizon collecting every slot report, then
/// finalizes; returns the reports, final metrics, and watchdog verdict.
fn run_collecting(mut sim: Simulator) -> (Vec<SlotReport>, RunMetrics, WatchdogReport) {
    let horizon = sim.scenario().horizon;
    let mut reports = Vec::with_capacity(horizon);
    while sim.slots_run() < horizon {
        reports.push(sim.step_with_report().expect("slot steps"));
    }
    // `run` finds the horizon already reached and just finalizes.
    let metrics = sim.run().expect("finalize").clone();
    let verdict = sim.watchdog().report();
    (reports, metrics, verdict)
}

/// The core equivalence check: interrupt at `snap_at`, round-trip the
/// snapshot through its file image, restore, finish, compare everything.
fn assert_kill_resume_identical(scenario: &Scenario, snap_at: usize) {
    let (full_reports, full_metrics, full_verdict) =
        run_collecting(Simulator::new(scenario).expect("scenario builds"));

    let mut first = Simulator::new(scenario).expect("scenario builds");
    let mut head = Vec::with_capacity(snap_at);
    for _ in 0..snap_at {
        head.push(first.step_with_report().expect("head slot steps"));
    }
    let image = first.snapshot().to_file_string();
    drop(first); // the "crash"
    let snap = SimSnapshot::parse_str(&image, "<resume>").expect("image parses");
    assert_eq!(snap.slots_run(), snap_at);
    let resumed = Simulator::restore(scenario, &snap).expect("restore succeeds");
    let (tail, resumed_metrics, resumed_verdict) = run_collecting(resumed);

    head.extend(tail);
    assert_eq!(head, full_reports, "per-slot reports diverged");
    assert_eq!(resumed_metrics, full_metrics, "metrics diverged");
    assert_eq!(resumed_verdict, full_verdict, "watchdog verdict diverged");
}

#[test]
fn kill_and_resume_is_bit_identical_across_faults_and_schedulers() {
    for scheduler in [SchedulerKind::Greedy, SchedulerKind::SequentialFix] {
        for fault_pick in 0..4 {
            let s = scenario(41 + fault_pick as u64, fault_pick, scheduler);
            // Mid-run, immediately, and one-slot-left boundaries.
            for snap_at in [0, 7, s.horizon - 1] {
                assert_kill_resume_identical(&s, snap_at);
            }
        }
    }
}

/// A city scenario — hotspot placement, diurnal traffic, gain floor —
/// snapshots and resumes bit-identically on the dense path. The new
/// `Scenario` fields ride in the Debug-based scenario fingerprint, so a
/// restore against a tweaked city scenario is also rejected.
#[test]
fn city_scenario_snapshots_roundtrip_on_the_dense_path() {
    let mut s = Scenario::city(40, 2, Scenario::default_city_area(2), 77);
    s.gain_floor = 0.0; // dense path: the full n×n matrix must build
    s.horizon = 12;
    assert_kill_resume_identical(&s, 5);

    let mut sim = Simulator::new(&s).expect("city scenario builds densely");
    for _ in 0..3 {
        sim.step().expect("slot steps");
    }
    let snap = sim.snapshot();
    let mut other = s.clone();
    other.diurnal = None;
    match Simulator::restore(&other, &snap) {
        Err(SimError::CorruptSnapshot { detail, .. }) => {
            assert!(
                detail.contains("scenario fingerprint"),
                "diurnal profile must be part of the scenario fingerprint: {detail}"
            );
        }
        other => panic!("expected a scenario-fingerprint rejection, got {other:?}"),
    }
}

/// A pruned city — several interference clusters, so the controller and
/// the relaxed lower-bound controller are partitioned and the snapshot
/// carries each part's queues in part order — with BS sleeping, energy
/// cooperation, BS outages and the bound all live resumes bit-identically,
/// mid-run and mid-sleep-cycle alike.
#[test]
fn partitioned_city_with_sleep_coop_and_outages_resumes_bit_identically() {
    let mut s = Scenario::city(120, 3, Scenario::default_city_area(3), 61);
    s.horizon = 16;
    s.bs_sleep = Some(greencell_core::SleepPolicy {
        threshold_pkts: 1e12,
        w_slots: 2,
        wake_threshold_pkts: 1e12,
        ..s.default_sleep_policy()
    });
    s.energy_coop = Some(s.default_coop_policy());
    s.faults = Some(FaultSpec::bs_outage());
    s.track_lower_bound = true;
    let sim = Simulator::new(&s).expect("partitioned city builds");
    assert!(sim.controller().part_count() > 1, "want a partitioned run");
    for snap_at in [0, 5, 9, s.horizon - 1] {
        assert_kill_resume_identical(&s, snap_at);
    }
}

#[test]
fn restored_fault_plan_lands_on_the_same_schedule() {
    let s = scenario(97, 0, SchedulerKind::Greedy);
    let mut sim = Simulator::new(&s).expect("scenario builds");
    for _ in 0..5 {
        sim.step().expect("slot steps");
    }
    let snap = sim.snapshot();
    let restored = Simulator::restore(&s, &snap).expect("restore succeeds");
    // The regenerated plan must be the exact schedule the original run was
    // following — same pre-expanded slots, cursor carried by `slots_run`.
    assert_eq!(restored.fault_plan(), sim.fault_plan());
    assert_eq!(restored.slots_run(), sim.slots_run());
    let plan = restored.fault_plan().expect("scenario injects faults");
    for t in sim.slots_run()..s.horizon {
        assert_eq!(
            plan.slot(t),
            sim.fault_plan().expect("plan").slot(t),
            "fault schedule diverged at slot {t}"
        );
    }
}

#[test]
fn snapshot_file_survives_disk_and_quarantines_corruption() {
    let dir = std::env::temp_dir().join(format!("greencell-snap-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let s = scenario(53, 2, SchedulerKind::Greedy);
    let mut sim = Simulator::new(&s).expect("scenario builds");
    for _ in 0..6 {
        sim.step().expect("slot steps");
    }
    let snap = sim.snapshot();
    let path = dir.join("run.snap");
    snap.write(&path).expect("atomic write");
    let back = SimSnapshot::read(&path).expect("read back");
    let resumed = Simulator::restore(&s, &back).expect("restore succeeds");
    assert_eq!(resumed.slots_run(), 6);

    // Torn write: truncate the file mid-payload.
    let text = std::fs::read_to_string(&path).expect("read");
    let torn = dir.join("torn.snap");
    std::fs::write(&torn, &text[..text.len() * 2 / 3]).expect("write torn");
    assert!(matches!(
        SimSnapshot::read(&torn),
        Err(SimError::CorruptSnapshot { .. })
    ));

    // Bit rot: flip one payload byte (keep the line structure intact).
    let mut rotted = text.clone().into_bytes();
    let payload_start = text.find('\n').expect("two lines") + 1;
    rotted[payload_start + 40] ^= 0x01;
    let rot = dir.join("rot.snap");
    std::fs::write(&rot, rotted).expect("write rotted");
    match SimSnapshot::read(&rot) {
        Err(SimError::CorruptSnapshot { detail, .. }) => {
            assert!(
                detail.contains("checksum") || detail.contains("unparseable"),
                "{detail}"
            );
        }
        other => panic!("expected CorruptSnapshot, got {other:?}"),
    }

    // Future version: typed mismatch with both versions reported.
    let bumped = text.replace("\"version\":2", "\"version\":7");
    let vfile = dir.join("v7.snap");
    std::fs::write(&vfile, bumped).expect("write bumped");
    assert!(matches!(
        SimSnapshot::read(&vfile),
        Err(SimError::SnapshotVersionMismatch {
            expected: 2,
            found: 7,
            ..
        })
    ));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Version skew downward: a file claiming the previous format version
/// (v1, which predates the dynamic network state) is rejected with the
/// typed mismatch — never a panic, never silently restored with zeroed
/// sleep/association/transfer state. The checksum covers only the payload
/// line, so rewriting the header version is exactly what a genuine v1
/// file looks like to the parser.
#[test]
fn previous_version_snapshot_is_rejected_not_zeroed() {
    let s = scenario(59, 1, SchedulerKind::Greedy);
    let mut sim = Simulator::new(&s).expect("scenario builds");
    for _ in 0..4 {
        sim.step().expect("slot steps");
    }
    let text = sim.snapshot().to_file_string();
    assert!(
        text.contains("\"version\":2"),
        "this build writes snapshot format v2"
    );
    let v1 = text.replace("\"version\":2", "\"version\":1");
    match SimSnapshot::parse_str(&v1, "old.snap") {
        Err(SimError::SnapshotVersionMismatch {
            expected,
            found,
            path,
        }) => {
            assert_eq!((expected, found), (2, 1));
            assert_eq!(path, "old.snap");
        }
        other => panic!("expected SnapshotVersionMismatch, got {other:?}"),
    }
}

/// `text` with each `(from, to)` edit applied once to its payload line,
/// under a header carrying the edited payload's checksum.
fn reseal(text: &str, edits: &[(&str, &str)]) -> String {
    let mut payload = text.lines().nth(1).expect("payload line").to_string();
    for (from, to) in edits {
        assert!(payload.contains(from), "{from} not in the payload");
        payload = payload.replacen(from, to, 1);
    }
    format!(
        "{{\"format\":\"greencell-snapshot\",\"version\":2,\"checksum\":\"0x{:016x}\"}}\n{payload}\n",
        greencell_sim::fnv1a_64(payload.as_bytes())
    )
}

/// A well-formed, correctly checksummed snapshot whose controller state
/// does not fit the partition — sleep timers on a run with no dynamic
/// policy, or too few queues for the city's parts — is a typed rejection,
/// never a panic inside the restore.
#[test]
fn misfitting_controller_state_is_a_typed_rejection() {
    let expect_rejected = |s: &Scenario, text: String| {
        let snap = SimSnapshot::parse_str(&text, "crafted.snap").expect("image parses");
        match Simulator::restore(s, &snap) {
            Err(SimError::CorruptSnapshot { detail, .. }) => {
                assert!(detail.contains("dimensions"), "{detail}");
            }
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
    };
    let static_run = Scenario::tiny(67);
    let text = Simulator::new(&static_run)
        .expect("builds")
        .snapshot()
        .to_file_string();
    // One well-formed entry per node in all four network-state vectors.
    let zeros = format!("[{}]", ["\"0x0000000000000000\""; 5].join(","));
    let awake = format!("\"awake\":[{}]", ["true"; 5].join(","));
    let (idle, ramp, assoc) = (
        format!("\"idle\":{zeros}"),
        format!("\"ramp\":{zeros}"),
        format!("\"assoc\":{zeros}"),
    );
    let timers = [
        ("\"awake\":[]", awake.as_str()),
        ("\"idle\":[]", idle.as_str()),
        ("\"ramp\":[]", ramp.as_str()),
        ("\"assoc\":[]", assoc.as_str()),
    ];
    expect_rejected(&static_run, reseal(&text, &timers));

    let mut city = Scenario::city(80, 3, Scenario::default_city_area(3), 13);
    city.horizon = 4;
    let text = Simulator::new(&city)
        .expect("builds")
        .snapshot()
        .to_file_string();
    let zero = "\"0x0000000000000000\"";
    let first_link = format!("\"link_queues\":[[{zero},{zero},{zero},{zero}],");
    expect_rejected(&city, reseal(&text, &[(&first_link, "\"link_queues\":[")]));
}

/// A checksummed image that queues packets on a node's link to itself is a
/// typed rejection. It once restored, and the next slot panicked in S1:
/// nothing can serve a self-link, so the scheduler must never see one
/// backlogged.
#[test]
fn a_backlogged_self_link_is_a_typed_rejection() {
    let s = Scenario::tiny(67);
    let text = Simulator::new(&s)
        .expect("builds")
        .snapshot()
        .to_file_string();
    // Five nodes, one part: row 6 of the empty link bank is node 1's G_11.
    let zero = "\"0x0000000000000000\"";
    let empty = format!("[{zero},{zero},{zero},{zero}],");
    let prefix = format!("\"link_queues\":[{}[{zero},", empty.repeat(6));
    let backlogged = format!(
        "\"link_queues\":[{}[\"0x0000000000000064\",",
        empty.repeat(6)
    );
    let snap = SimSnapshot::parse_str(&reseal(&text, &[(&prefix, &backlogged)]), "crafted.snap")
        .expect("image parses");
    match Simulator::restore(&s, &snap) {
        Err(SimError::CorruptSnapshot { detail, .. }) => {
            assert!(detail.contains("node 1's link to itself"), "{detail}");
        }
        other => panic!("expected CorruptSnapshot, got {other:?}"),
    }
}

/// A checksummed image whose battery fields no battery can hold — a
/// charge efficiency of 2, a level above the capacity, a negative charge
/// limit — is a typed rejection when it is read, never a panic in the
/// battery's constructor.
#[test]
fn impossible_battery_fields_are_a_typed_rejection() {
    let text = Simulator::new(&Scenario::tiny(67))
        .expect("builds")
        .snapshot()
        .to_file_string();
    let start = text.find("\"batteries\":[[").expect("a battery") + "\"batteries\":[".len();
    let first = &text[start..=start + text[start..].find(']').expect("battery ends")];
    // [capacity, charge limit, discharge limit, efficiency, level, blocked]
    let fields: Vec<&str> = first[1..first.len() - 1].split(',').collect();
    assert_eq!(fields.len(), 6, "{first}");
    let capacity =
        f64::from_bits(u64::from_str_radix(&fields[0][3..19], 16).expect("hex capacity"));
    let with = |field: usize, value: f64| {
        let mut edited = fields.clone();
        let hex = format!("\"0x{:016x}\"", value.to_bits());
        edited[field] = &hex;
        format!("[{}]", edited.join(","))
    };
    for (field, value, expect) in [
        (3, 2.0, "outside (0, 1]"),
        (4, capacity * 2.0 + 1.0, "level outside"),
        (1, -1.0, "non-negative"),
    ] {
        let crafted = reseal(&text, &[(first, &with(field, value))]);
        match SimSnapshot::parse_str(&crafted, "crafted.snap") {
            Err(SimError::CorruptSnapshot { path, detail }) => {
                assert_eq!(path, "crafted.snap");
                assert!(detail.contains(expect), "field {field}: {detail}");
            }
            other => panic!("field {field} = {value}: expected CorruptSnapshot, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot/restore equivalence holds at *any* slot boundary, under
    /// any of the four fault archetypes, with either scheduler.
    #[test]
    fn resume_equivalence_holds_anywhere(
        seed in 0u64..1_000,
        snap_at in 0usize..14,
        fault_pick in 0usize..4,
        sequential in any::<bool>(),
    ) {
        let scheduler = if sequential {
            SchedulerKind::SequentialFix
        } else {
            SchedulerKind::Greedy
        };
        assert_kill_resume_identical(&scenario(seed, fault_pick, scheduler), snap_at);
    }
}

/// The recorded snapshot images under `golden/snapshot_v2/`. Each entry is
/// (file name, scenario, slots stepped before the snapshot).
///
/// * `tiny.snap`: BS sleep (idle timers and association; the one BS
///   never powers down), energy cooperation, Markov grid chains, BS
///   outages, the relaxed lower-bound state and a watchdog tail.
/// * `city.snap`: a city of 30 users that splits into three parts, with
///   the relaxed state in its part layout. Link queues grow with the
///   square of a part's size, so the image stays small only for a small
///   city: 120 users give the same three parts at half a megabyte.
fn golden_snapshots() -> Vec<(&'static str, Scenario, usize)> {
    let mut tiny = scenario(71, 0, SchedulerKind::Greedy);
    tiny.horizon = 12;
    tiny.bs_sleep = Some(greencell_core::SleepPolicy {
        threshold_pkts: 1e12,
        w_slots: 2,
        wake_threshold_pkts: 1e12,
        ..tiny.default_sleep_policy()
    });
    tiny.energy_coop = Some(tiny.default_coop_policy());

    let mut city = Scenario::city(30, 3, Scenario::default_city_area(3), 61);
    city.horizon = 6;
    city.track_lower_bound = true;
    assert!(
        Simulator::new(&city)
            .expect("city builds")
            .controller()
            .part_count()
            > 1,
        "want a partitioned city"
    );
    vec![("tiny.snap", tiny, 6), ("city.snap", city, 3)]
}

/// The byte offset where two images first differ (the shorter length when
/// one is a prefix of the other).
fn first_difference(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

/// The snapshot encoder's bytes are pinned: each golden image is
/// reproduced byte for byte by a fresh run, and again after a
/// parse → restore → snapshot round trip. Re-record after an intentional
/// format change (which also bumps `SNAPSHOT_VERSION`) with
///
/// ```text
/// GREENCELL_BLESS=1 cargo test -p greencell-sim --test snapshot_equivalence golden
/// ```
#[test]
fn golden_snapshot_images_are_reproduced_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_v2");
    for (name, s, steps) in golden_snapshots() {
        let mut sim = Simulator::new(&s).expect("scenario builds");
        for _ in 0..steps {
            sim.step().expect("slot steps");
        }
        let image = sim.snapshot().to_file_string();
        let path = dir.join(name);
        if std::env::var_os("GREENCELL_BLESS").is_some() {
            std::fs::create_dir_all(&dir).expect("mkdir golden");
            std::fs::write(&path, &image).expect("write golden");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden image {} ({e}); re-bless", path.display()));
        assert!(
            image == golden,
            "{name}: the encoder's image differs from the golden at byte {}",
            first_difference(&image, &golden)
        );

        let snap = SimSnapshot::parse_str(&golden, name).expect("golden parses");
        let restored = Simulator::restore(&s, &snap).expect("golden restores");
        let again = restored.snapshot().to_file_string();
        assert!(
            again == golden,
            "{name}: the restored run re-encodes differently at byte {}",
            first_difference(&again, &golden)
        );
    }
}
