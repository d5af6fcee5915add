//! Resumable-sweep equivalence: a sweep run through a work dir that is
//! killed partway and restarted must produce final reports
//! **byte-identical** to a never-interrupted sweep — at any interruption
//! point and any worker count. A corrupt or stale result costs exactly its
//! own point: it is quarantined and recomputed, never trusted and never
//! fatal.

use greencell_core::DegradationPolicy;
use greencell_sim::{
    derive_point_seed, run_point, run_sweep, run_sweep_checkpointed, run_sweep_checkpointed_stats,
    Scenario, SweepOptions, SweepPoint,
};
use greencell_units::{Energy, Power};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greencell-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A small heterogeneous sweep: varying seeds, horizons, and V weights,
/// with per-point seeds derived the same way the structural sweeps do.
fn points() -> Vec<SweepPoint> {
    (0..5)
        .map(|i| {
            let mut s = Scenario::tiny(derive_point_seed(90, i as u64));
            s.horizon = 10 + 2 * (i % 3);
            s.v *= (i + 1) as f64;
            SweepPoint::new(format!("point-{i}"), s)
        })
        .collect()
}

/// Simulates a crash after `completed` points by running a prefix sweep
/// in the work dir, then "restarts" over the full list against it.
fn interrupt_then_resume(completed: usize, resume_threads: usize) {
    let dir = temp_dir(&format!("k{completed}-t{resume_threads}"));
    let all = points();

    let reference = run_sweep(&all, &SweepOptions::serial()).expect("reference sweep");

    // The "crashed" invocation: only the first `completed` points ever
    // ran, each landing in its own result file as it finished.
    run_sweep_checkpointed(&all[..completed], &SweepOptions::serial(), &dir)
        .expect("interrupted sweep");

    let (resumed, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::with_threads(resume_threads), &dir)
            .expect("resumed sweep");
    assert_eq!(stats.salvaged, completed, "salvage count");
    assert_eq!(stats.computed, all.len() - completed, "recompute count");
    assert_eq!(stats.requeued, 0);
    assert_eq!(stats.worker_failures, 0);

    // The deterministic artifact is byte-identical; the full outcome
    // set (metrics included) matches point-for-point.
    assert_eq!(
        resumed.stability_json(),
        reference.stability_json(),
        "stability report diverged (interrupted at {completed}, {resume_threads} threads)"
    );
    for (a, b) in resumed.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.metrics, b.metrics, "metrics diverged for {}", a.label);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resumed_sweep_is_byte_identical_at_every_interruption_point() {
    for completed in 0..=points().len() {
        interrupt_then_resume(completed, 1);
    }
}

#[test]
fn resumed_sweep_is_byte_identical_at_any_worker_count() {
    for threads in [1, 2, 4] {
        interrupt_then_resume(2, threads);
    }
}

#[test]
fn corrupt_result_is_quarantined_and_only_its_point_recomputes() {
    let dir = temp_dir("corrupt");
    let all = points();
    let reference = run_sweep(&all, &SweepOptions::serial()).expect("reference sweep");

    run_sweep_checkpointed(&all[..3], &SweepOptions::serial(), &dir).expect("interrupted sweep");
    // Flip one payload byte of p1's result: the checksum must catch it.
    let p1 = dir.join("results").join("p1.json");
    let text = std::fs::read_to_string(&p1).expect("read result");
    let payload_start = text.find('\n').expect("two lines") + 1;
    let mut bytes = text.into_bytes();
    bytes[payload_start + 60] ^= 0x01;
    std::fs::write(&p1, bytes).expect("corrupt result");

    let (resumed, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("resumed sweep");
    assert_eq!(stats.requeued, 1, "only the flipped result is requeued");
    assert_eq!(stats.salvaged, 2, "p0 and p2 are salvaged");
    assert_eq!(stats.computed, all.len() - 2);
    assert!(dir.join("results").join("p1.json.corrupt").exists());
    assert_eq!(resumed.stability_json(), reference.stability_json());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn edited_point_is_the_only_one_requeued() {
    let dir = temp_dir("edited");
    let mut all = points();
    run_sweep_checkpointed(&all, &SweepOptions::serial(), &dir).expect("first sweep");
    // Edit one point's scenario: its result is stale and must not be
    // salvaged; every other point is.
    all[1].scenario.horizon += 5;
    let reference = run_sweep(&all, &SweepOptions::serial()).expect("reference sweep");
    let (resumed, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("second sweep");
    assert_eq!(stats.salvaged, all.len() - 1);
    assert_eq!(stats.requeued, 1);
    assert_eq!(stats.computed, 1);
    assert_eq!(resumed.outcomes[1].metrics.cost_series().len(), 17);
    assert_eq!(resumed.stability_json(), reference.stability_json());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn finished_work_dir_resumes_to_identical_reports_without_rerunning() {
    let dir = temp_dir("finished");
    let all = points();
    let first =
        run_sweep_checkpointed(&all, &SweepOptions::with_threads(3), &dir).expect("first sweep");
    let (second, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("second sweep");
    assert_eq!(stats.computed, 0);
    assert_eq!(stats.salvaged, all.len());
    // Everything per-point — metrics *and* wall-clock telemetry — is the
    // persisted original, reproduced exactly. (The report-level wall time
    // and thread count describe *this* invocation and rightly differ.)
    assert_eq!(second.outcomes, first.outcomes);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Makes a point fail deterministically: with strict degradation and no
/// grid, a node whose idle draw dwarfs its supply is a typed
/// `IdleDeficit` — a base station (node 0) or a user (node 1).
fn starve(scenario: &mut Scenario, base_station: bool) {
    scenario.degradation = DegradationPolicy::Strict;
    scenario.grid_limit = Energy::from_joules(0.0);
    if base_station {
        scenario.bs_overhead_power = Power::from_watts(1e9);
    } else {
        scenario.user_overhead_power = Power::from_watts(1e9);
    }
}

#[test]
fn first_failing_point_by_submission_order_is_reported() {
    let mut all = points();
    starve(&mut all[1].scenario, true);
    starve(&mut all[3].scenario, false);
    let p1_error = run_point(&all[1].label, &all[1].scenario).expect_err("p1 is invalid");
    let p3_error = run_point(&all[3].label, &all[3].scenario).expect_err("p3 is invalid");
    assert_ne!(p1_error, p3_error, "the two failures must be told apart");
    let in_memory = run_sweep(&all, &SweepOptions::with_threads(4)).expect_err("sweep fails");
    assert_eq!(in_memory, p1_error);
    for threads in [1, 4] {
        let dir = temp_dir(&format!("failing-t{threads}"));
        let err = run_sweep_checkpointed(&all, &SweepOptions::with_threads(threads), &dir)
            .expect_err("checkpointed sweep fails");
        assert_eq!(err, p1_error, "{threads} threads");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
