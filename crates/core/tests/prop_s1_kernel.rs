//! Lockstep property tests for the S1 kernels: the exact-probe path, fed
//! by the per-link key merge through its transmitter-grouped frontier and
//! the per-slot head-band memo, against the fully sorted reference that
//! probes with the Foschini–Miljanic iteration, on the same input. Across
//! random topologies — small ones, crowded ones with at least 64
//! backlogged links, which drop keys whose receiver turned busy and
//! re-offer bands behind their group's minimum, and crowded ones with
//! 6–64 bands, whose link band masks overflow the 64-entry memo — with
//! per-node band subsets, repeated bandwidths and backlogs (weight ties
//! fall to the ids), tight energy budgets, and fault masks (down-node
//! candidates included):
//!
//! * the schedules are identical wherever no reference probe returned
//!   `NonConvergent`;
//! * where they are, every kernel power is within 1e-9 relative of the
//!   reference's;
//! * every kernel outcome satisfies constraint (24) and the power caps,
//!   and schedules only links the test's own pruning admits (backlogged,
//!   both endpoints up, both worst-case energies within budget).

use greencell_core::{
    first_sinr_violation, greedy_schedule_reference, greedy_schedule_with,
    sequential_fix_schedule_reference, sequential_fix_schedule_with, S1Inputs, S1Scratch,
    ScheduleOutcome,
};
use greencell_energy::NodeEnergyModel;
use greencell_net::{
    BandId, BandSet, Network, NetworkBuilder, NodeId, PathLossModel, Point, SessionId,
};
use greencell_phy::{
    min_power_assignment_reference, packets_per_slot, potential_capacity, PhyConfig,
    PowerControlError, Schedule, SpectrumState,
};
use greencell_queue::{FlowPlan, LinkQueueBank};
use greencell_stochastic::Rng;
use greencell_units::{Bandwidth, Energy, PacketSize, Packets, Power, TimeDelta};
use proptest::prelude::*;

struct Instance {
    net: Network,
    links: LinkQueueBank,
    spectrum: SpectrumState,
    max_powers: Vec<Power>,
    models: Vec<NodeEnergyModel>,
    budget: Vec<Energy>,
    available: Vec<bool>,
}

/// A random 5–8-node network (1–2 BS + users scattered on a disc), 2–5
/// bands drawn from four bandwidths, each node holding a random non-empty
/// subset of them, backlogs drawn from a short list (so equal weights are
/// common and the id tiebreak decides), occasionally-tight traffic
/// budgets, and a random availability mask (each node down with
/// probability ~1/8).
fn instance(seed: u64) -> Instance {
    instance_of(seed, false, false)
}

/// A crowded instance of the same family: 32–48 nodes (2–4 BS) on a
/// wider disc, and at least 64 backlogged links, so the greedy loop's
/// accepted links turn the receivers of many queued keys busy.
fn large_instance(seed: u64) -> Instance {
    instance_of(seed, true, false)
}

/// A crowded instance with 6–64 bands, every node holding a random subset
/// of them, and at least 160 backlogged links: its links' band masks are
/// so many that the 64-entry head-band memo evicts.
fn many_band_instance(seed: u64) -> Instance {
    instance_of(seed, true, true)
}

fn instance_of(seed: u64, large: bool, many_bands: bool) -> Instance {
    let mut rng = Rng::seed_from(seed);
    let (n, bs_count) = if large {
        (32 + rng.index(17), 2 + rng.index(3))
    } else {
        (5 + rng.index(4), 1 + rng.index(2))
    };
    let bands = if many_bands {
        6 + rng.index(59)
    } else {
        2 + rng.index(4)
    };
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
    for k in 0..n {
        let angle = k as f64 * std::f64::consts::TAU / n as f64 + rng.range_f64(0.0, 0.5);
        let radius = rng.range_f64(150.0, if large { 1500.0 } else { 900.0 });
        let p = Point::new(1000.0 + radius * angle.cos(), 1000.0 + radius * angle.sin());
        let node = if k < bs_count {
            b.add_base_station(p)
        } else {
            b.add_user(p)
        };
        if many_bands || rng.index(3) == 0 {
            let mut subset = BandSet::empty();
            subset.insert(BandId::from_index(rng.index(bands)));
            for m in 0..bands {
                if rng.index(2) == 0 {
                    subset.insert(BandId::from_index(m));
                }
            }
            b.set_bands(node, subset);
        }
    }
    let net = b.build().expect("valid network");
    let mut links = LinkQueueBank::new(n, 100.0);
    let mut plan = FlowPlan::new(n, 1);
    let mut backlogged = std::collections::BTreeSet::new();
    let mut draws = 0;
    while if large {
        backlogged.len() < if many_bands { 160 } else { 64 }
    } else {
        draws < n + 3
    } {
        draws += 1;
        let i = rng.index(n);
        let j = (i + 1 + rng.index(n - 1)) % n;
        let pkts = if large {
            [40, 40, 120, 250, 600][rng.index(5)]
        } else {
            [0, 40, 40, 120, 250][rng.index(5)]
        };
        if pkts > 0 {
            backlogged.insert((i, j));
        }
        plan.set(
            SessionId::from_index(0),
            NodeId::from_index(i),
            NodeId::from_index(j),
            Packets::new(pkts),
        );
    }
    links.advance(&plan, &[]);
    let spectrum = SpectrumState::new(
        (0..bands)
            .map(|_| Bandwidth::from_megahertz([0.5, 1.0, 1.0, 2.5][rng.index(4)]))
            .collect(),
    );
    let max_powers = net
        .topology()
        .nodes()
        .iter()
        .map(|node| {
            if node.kind().is_base_station() {
                Power::from_watts(20.0)
            } else {
                Power::from_watts(1.0)
            }
        })
        .collect();
    // Tight budgets on some nodes so the energy-admission memo has teeth:
    // a 1 W user transmitting for 60 s needs 60 J; 10 J blocks it.
    let budget = (0..n)
        .map(|_| {
            if rng.index(4) == 0 {
                Energy::from_joules(10.0)
            } else {
                Energy::from_kilowatt_hours(1.0)
            }
        })
        .collect();
    let available = (0..n).map(|_| rng.index(8) != 0).collect();
    Instance {
        net,
        links,
        spectrum,
        max_powers,
        models: vec![
            NodeEnergyModel::new(Energy::ZERO, Energy::ZERO, Power::from_milliwatts(100.0));
            n
        ],
        budget,
        available,
    }
}

fn inputs<'a>(inst: &'a Instance, phy: &'a PhyConfig) -> S1Inputs<'a> {
    S1Inputs {
        net: &inst.net,
        phy,
        spectrum: &inst.spectrum,
        links: &inst.links,
        max_powers: &inst.max_powers,
        energy_models: &inst.models,
        traffic_budget: &inst.budget,
        available: &inst.available,
        slot: TimeDelta::from_minutes(1.0),
        packet_size: PacketSize::from_bits(10_000),
    }
}

/// The band the full sort lists first for link `(tx, rx)`: the most
/// packets per slot, ties to the lowest band index.
fn best_band(inp: &S1Inputs<'_>, tx: NodeId, rx: NodeId) -> BandId {
    let pkts = |m: BandId| {
        let c = potential_capacity(inp.spectrum.bandwidth(m), inp.phy);
        packets_per_slot(c, inp.packet_size, inp.slot).count()
    };
    inp.net
        .link_bands(tx, rx)
        .iter()
        .min_by_key(|&m| (std::cmp::Reverse(pkts(m)), m.index()))
        .expect("a scheduled link shares a band")
}

/// The instances reach the merge's re-insert path: in some of them a
/// link runs on a band other than its best, so its best band's probe was
/// rejected and the link's next band took its place.
#[test]
fn some_links_run_on_a_band_other_than_their_best() {
    let phy = PhyConfig::new(1.0, 1e-20);
    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();
    let off_best = (0..200u64)
        .filter(|&seed| {
            let inst = instance(seed);
            let inp = inputs(&inst, &phy);
            greedy_schedule_with(&inp, &mut scratch, &mut out);
            out.schedule
                .transmissions()
                .iter()
                .any(|t| t.band() != best_band(&inp, t.tx(), t.rx()))
        })
        .count();
    assert!(
        off_best > 0,
        "no instance scheduled a link off its best band"
    );
}

/// The crowded instances drive the frontier's rarer paths: in at least
/// 10 of 100 each of them occurs — a key dropped because its receiver
/// turned busy, a rejected link's next band re-offered behind its group's
/// smallest key, and a group emptied by a link with no band left.
#[test]
fn large_instances_cover_the_frontier_paths() {
    let phy = PhyConfig::new(1.0, 1e-20);
    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();
    let cases = 100;
    let (mut dropped, mut behind, mut exhausted) = (0, 0, 0);
    for seed in 0..cases {
        let inst = large_instance(seed);
        let inp = inputs(&inst, &phy);
        greedy_schedule_with(&inp, &mut scratch, &mut out);
        let counts = scratch.frontier_counts();
        dropped += usize::from(counts.receiver_busy > 0);
        behind += usize::from(counts.reoffered_behind > 0);
        exhausted += usize::from(counts.exhausted > 0);
    }
    for (what, count) in [
        ("a key dropped for a busy receiver", dropped),
        ("a band re-offered behind its group's minimum", behind),
        ("a group emptied by a link with no band left", exhausted),
    ] {
        assert!(count >= 10, "only {count} of {cases} instances have {what}");
    }
}

/// Every link S1 may schedule this slot, as S1 prunes them: backlogged,
/// both endpoints up, and both worst-case energies within budget.
fn admissible(inp: &S1Inputs<'_>) -> Vec<(NodeId, NodeId)> {
    let up = |x: NodeId| inp.available.get(x.index()).copied().unwrap_or(true);
    let budget = |x: NodeId| inp.traffic_budget[x.index()].as_joules();
    let tx_ok = |x: NodeId| (inp.max_powers[x.index()] * inp.slot).as_joules() <= budget(x);
    let rx_ok =
        |x: NodeId| (inp.energy_models[x.index()].recv_power() * inp.slot).as_joules() <= budget(x);
    inp.links
        .backlogs()
        .map(|(i, j, _)| (i, j))
        .filter(|&(i, j)| up(i) && up(j) && tx_ok(i) && rx_ok(j))
        .collect()
}

/// The many-band instances overflow the head-band memo: in at least 10 of
/// 100, the admissible links share more than 64 distinct band masks, so
/// two of them land on one entry.
#[test]
fn many_band_instances_overflow_the_head_memo() {
    let phy = PhyConfig::new(1.0, 1e-20);
    let cases = 100;
    let overflowing = (0..cases)
        .filter(|&seed| {
            let inst = many_band_instance(seed);
            let inp = inputs(&inst, &phy);
            let masks: std::collections::HashSet<BandSet> = admissible(&inp)
                .into_iter()
                .map(|(i, j)| inp.net.link_bands(i, j))
                .collect();
            masks.len() > 64
        })
        .count();
    assert!(
        overflowing >= 10,
        "only {overflowing} of {cases} instances overflow the memo"
    );
}

/// The lockstep of one kernel outcome with its reference on the same
/// input, as the module docs state it. Both schedulers keep their
/// schedule in probe order, and their state before each probe is the
/// schedule so far, so where the schedules part the reference rejected a
/// candidate the kernel accepted; that rejection must be the iteration's
/// `NonConvergent` on the common prefix plus that candidate.
fn lockstep(
    inp: &S1Inputs<'_>,
    kernel: &ScheduleOutcome,
    reference: &ScheduleOutcome,
) -> Result<(), String> {
    if let Some(k) = first_sinr_violation(inp, kernel, &mut Vec::new()) {
        return Err(format!(
            "kernel link {k} violates (24) or its cap: {kernel:?}"
        ));
    }
    // Checked against the test's own pruning, not the kernel's memos,
    // which the reference shares.
    let allowed = admissible(inp);
    if let Some(t) = kernel
        .schedule
        .transmissions()
        .iter()
        .find(|t| !allowed.contains(&(t.tx(), t.rx())))
    {
        return Err(format!("kernel scheduled the inadmissible link {t:?}"));
    }
    let (ks, rs) = (
        kernel.schedule.transmissions(),
        reference.schedule.transmissions(),
    );
    if ks == rs {
        for (k, r) in kernel.powers.iter().zip(&reference.powers) {
            let (k, r) = (k.as_watts(), r.as_watts());
            if (k - r).abs() > 1e-9 * r {
                return Err(format!("kernel power {k} vs reference {r}"));
            }
        }
        return Ok(());
    }
    let split = ks.iter().zip(rs).take_while(|(a, b)| a == b).count();
    let Some(&accepted) = ks.get(split) else {
        return Err(format!(
            "the reference accepted {:?}, which the kernel rejected",
            rs[split]
        ));
    };
    let mut probe = Schedule::new();
    for &t in &ks[..=split] {
        probe.try_add(inp.net, t).map_err(|e| e.to_string())?;
    }
    match min_power_assignment_reference(inp.net, &probe, inp.spectrum, inp.phy, inp.max_powers) {
        Err(PowerControlError::NonConvergent) => Ok(()),
        other => Err(format!(
            "schedules part at #{split} ({accepted:?}) but the reference's probe gave {other:?}"
        )),
    }
}

proptest! {
    /// Greedy: kernel and reference in lockstep, with one scratch reused
    /// across every case (so cross-slot buffer reuse is exercised, not
    /// just the fresh path).
    #[test]
    fn greedy_kernel_matches_reference(seed in any::<u64>()) {
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        for case in 0..4u64 {
            let inst = instance(seed.wrapping_add(case));
            let phy = PhyConfig::new(1.0, 1e-20);
            let inp = inputs(&inst, &phy);
            greedy_schedule_with(&inp, &mut scratch, &mut out);
            let verdict = lockstep(&inp, &out, &greedy_schedule_reference(&inp));
            prop_assert!(verdict.is_ok(), "{verdict:?}");
        }
    }

    /// Sequential-fix: kernel and reference in lockstep.
    #[test]
    fn sequential_fix_kernel_matches_reference(seed in any::<u64>()) {
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        let inst = instance(seed);
        let phy = PhyConfig::new(1.0, 1e-20);
        let inp = inputs(&inst, &phy);
        sequential_fix_schedule_with(&inp, &mut scratch, &mut out);
        let verdict = lockstep(&inp, &out, &sequential_fix_schedule_reference(&inp));
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    /// A zero-noise environment disables the spectral-radius early reject
    /// (the bound is unsound there) and gives every link zero power; the
    /// kernels stay in lockstep with the references.
    #[test]
    fn kernels_match_references_at_zero_noise(seed in any::<u64>()) {
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        let inst = instance(seed);
        let phy = PhyConfig::new(1.0, 0.0);
        let inp = inputs(&inst, &phy);
        greedy_schedule_with(&inp, &mut scratch, &mut out);
        let verdict = lockstep(&inp, &out, &greedy_schedule_reference(&inp));
        prop_assert!(verdict.is_ok(), "greedy: {verdict:?}");
        sequential_fix_schedule_with(&inp, &mut scratch, &mut out);
        let verdict = lockstep(&inp, &out, &sequential_fix_schedule_reference(&inp));
        prop_assert!(verdict.is_ok(), "sequential fix: {verdict:?}");
    }
}

proptest! {
    // The crowded instances cost the reference far more per case.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy on the crowded instances, one scratch reused across them.
    #[test]
    fn greedy_kernel_matches_reference_on_large_instances(seed in any::<u64>()) {
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        for case in 0..2u64 {
            let inst = large_instance(seed.wrapping_add(case));
            let phy = PhyConfig::new(1.0, 1e-20);
            let inp = inputs(&inst, &phy);
            greedy_schedule_with(&inp, &mut scratch, &mut out);
            let verdict = lockstep(&inp, &out, &greedy_schedule_reference(&inp));
            prop_assert!(verdict.is_ok(), "{verdict:?}");
        }
    }

    /// Sequential-fix on a crowded instance: its 40-candidate pool takes
    /// several keys from one transmitter's group, and re-offered bands.
    #[test]
    fn sequential_fix_kernel_matches_reference_on_large_instances(seed in any::<u64>()) {
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        let inst = large_instance(seed);
        let phy = PhyConfig::new(1.0, 1e-20);
        let inp = inputs(&inst, &phy);
        sequential_fix_schedule_with(&inp, &mut scratch, &mut out);
        let verdict = lockstep(&inp, &out, &sequential_fix_schedule_reference(&inp));
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    /// Both kernels on the many-band instances, where the head-band memo
    /// evicts, one scratch reused across them.
    #[test]
    fn kernels_match_references_on_many_bands(seed in any::<u64>()) {
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        for case in 0..2u64 {
            let inst = many_band_instance(seed.wrapping_add(case));
            let phy = PhyConfig::new(1.0, 1e-20);
            let inp = inputs(&inst, &phy);
            greedy_schedule_with(&inp, &mut scratch, &mut out);
            let verdict = lockstep(&inp, &out, &greedy_schedule_reference(&inp));
            prop_assert!(verdict.is_ok(), "greedy: {verdict:?}");
        }
        let inst = many_band_instance(seed);
        let phy = PhyConfig::new(1.0, 1e-20);
        let inp = inputs(&inst, &phy);
        sequential_fix_schedule_with(&inp, &mut scratch, &mut out);
        let verdict = lockstep(&inp, &out, &sequential_fix_schedule_reference(&inp));
        prop_assert!(verdict.is_ok(), "sequential fix: {verdict:?}");
    }
}
