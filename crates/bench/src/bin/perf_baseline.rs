//! Establishes the sweep-engine perf baseline: times the same point batch
//! serial and fanned out, checks the results stayed bit-identical, and
//! writes the numbers to `BENCH_sweep.json` for trajectory tracking.
//!
//! A `threads == 1` run cannot measure fan-out speedup at all — it only
//! compares the serial path against itself. Such a run is labelled
//! `"degenerate": true` in the JSON and warned about loudly so nobody
//! mistakes a 1.0x "speedup" for a parallelism regression (or a win).
//!
//! The record also carries the per-stage latency histogram (p50/p90/p99/
//! max in nanoseconds) from a traced run of the same batch, so the
//! baseline pins where the time goes, not just how much there is, plus
//! two kernel A/B sections: `s1_kernel` (pre-kernel cold-start S1
//! reference vs. the incremental workspace kernel) and `s4_kernel` (the
//! cold-bisection energy oracle vs. the warm-started threshold-replay
//! kernel), each on the paper setup and three synthetic sizes.
//!
//! ```text
//! cargo run --release -p greencell-bench --bin perf_baseline [points] [threads] [reps]
//! ```

use greencell_bench::{S1Fixture, S4Fixture};
use greencell_core::{
    greedy_schedule_reference, greedy_schedule_with, solve_energy_management_into,
    solve_energy_management_warm_into, EnergyOutcome, S1Scratch, S4Workspace, ScheduleOutcome,
};
use greencell_net::GridIndex;
use greencell_sim::{
    run_sweep, run_sweep_distributed_stats, trace_points, DistribOptions, Scenario, Simulator,
    SweepOptions, SweepPoint, SweepReport, WorkerCommand,
};
use greencell_trace::{RingSink, Stage};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn batch(n: usize) -> Vec<SweepPoint> {
    (0..n)
        .map(|i| SweepPoint::new(format!("p{i}"), Scenario::tiny(500 + i as u64)))
        .collect()
}

/// The determinism-relevant bytes of a report (everything but timing).
fn fingerprint(report: &SweepReport) -> String {
    report
        .outcomes
        .iter()
        .map(|o| format!("{}|{}|{:?}", o.label, o.seed, o.metrics))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Best-of-`reps` wall-clock for one worker count, plus the last report.
fn measure(points: &[SweepPoint], opts: &SweepOptions, reps: usize) -> (Duration, SweepReport) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let report = run_sweep(points, opts).expect("sweep runs");
        best = best.min(start.elapsed());
        last = Some(report);
    }
    (best, last.expect("at least one rep"))
}

/// Median wall-clock of `samples` calls to `f`, in nanoseconds.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    for _ in 0..samples / 10 + 1 {
        f();
    }
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    times[samples / 2] as f64
}

/// Cold-reference vs. incremental-kernel greedy S1 medians for one
/// fixture, as a JSON object row.
fn s1_kernel_row(label: &str, fixture: &S1Fixture, samples: usize) -> String {
    let inp = fixture.inputs();
    let cold = median_ns(samples, || {
        black_box(greedy_schedule_reference(&inp));
    });
    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();
    let kernel = median_ns(samples, || {
        greedy_schedule_with(&inp, &mut scratch, &mut out);
        black_box(out.schedule.len());
    });
    let speedup = cold / kernel.max(1.0);
    println!("s1_kernel {label}: cold {cold:.0} ns, kernel {kernel:.0} ns, {speedup:.2}x");
    format!(
        "    \"{label}\": {{ \"cold_ns\": {cold:.0}, \"kernel_ns\": {kernel:.0}, \
         \"speedup\": {speedup:.4} }}"
    )
}

/// Cold-bisection oracle vs. warm-started kernel S4 medians for one
/// fixture, as a JSON object row. The kernel workspace is reused across
/// samples, so every measured solve after the first takes the warm path —
/// exactly how the pipeline runs it.
fn s4_kernel_row(label: &str, fixture: &S4Fixture, samples: usize) -> String {
    let input = fixture.input();
    let mut ws = S4Workspace::new();
    let mut out = EnergyOutcome::empty();
    let cold = median_ns(samples, || {
        solve_energy_management_into(&input, &mut ws, &mut out).expect("feasible fixture");
        black_box(out.grid_draw);
    });
    let mut warm_ws = S4Workspace::new();
    let kernel = median_ns(samples, || {
        solve_energy_management_warm_into(&input, &mut warm_ws, &mut out)
            .expect("feasible fixture");
        black_box(out.grid_draw);
    });
    let speedup = cold / kernel.max(1.0);
    println!("s4_kernel {label}: cold {cold:.0} ns, kernel {kernel:.0} ns, {speedup:.2}x");
    format!(
        "    \"{label}\": {{ \"cold_ns\": {cold:.0}, \"kernel_ns\": {kernel:.0}, \
         \"speedup\": {speedup:.4} }}"
    )
}

/// One `city_scale` record: steady-state partitioned slot latency (p50/p99 in
/// nanoseconds over `samples` slots after warm-up) plus the structural
/// numbers the scaling claim rests on — cluster count, largest cluster,
/// and occupied grid cells (per-slot cost should track the latter,
/// near-linearly, not n²).
fn city_row(users: usize, workers: usize, samples: usize) -> String {
    let n_bs = (users / 50).max(2);
    let scenario = Scenario::city(users, n_bs, Scenario::default_city_area(n_bs), 4242);
    let layout = scenario.build_layout();
    let occupied = scenario.cutoff_radius_m().map_or(0, |d_cut| {
        let mut index = GridIndex::new(d_cut, scenario.area_m, scenario.area_m);
        for &p in &layout.positions {
            index.insert(p);
        }
        index.occupied_cells()
    });
    let mut sim = Simulator::with_workers(&scenario, workers).expect("city scenario builds");
    let clusters = sim.controller().decomposition().len();
    let largest = sim.controller().decomposition().largest();
    for _ in 0..samples / 10 + 1 {
        sim.step_with_report().expect("warm-up slot");
    }
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let obs = sim.next_observation();
            let start = Instant::now();
            black_box(sim.controller_mut().step(&obs).expect("steady-state slot"));
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    let p50 = times[samples / 2];
    let p99 = times[(samples * 99 / 100).min(samples - 1)];
    println!(
        "city_scale n{users}: {clusters} clusters (largest {largest}), {occupied} occupied \
         cells, slot p50 {p50} ns / p99 {p99} ns at {workers} worker(s)"
    );
    format!(
        "    \"n{users}\": {{ \"users\": {users}, \"nodes\": {}, \"clusters\": {clusters}, \
         \"largest_cluster\": {largest}, \"occupied_cells\": {occupied}, \
         \"slot_p50_ns\": {p50}, \"slot_p99_ns\": {p99}, \"workers\": {workers} }}",
        layout.len()
    )
}

/// Locate the `sweep_worker` binary for the distributed-driver A/B:
/// `GREENCELL_WORKER_BIN` wins if set, else a sibling of this binary
/// (cargo places workspace binaries in the same target directory).
fn worker_bin() -> Option<std::path::PathBuf> {
    if let Ok(p) = std::env::var("GREENCELL_WORKER_BIN") {
        let p = std::path::PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("sweep_worker");
    sibling.is_file().then_some(sibling)
}

/// Distributed-driver A/B rows: the same point batch through 1 and 3
/// worker *processes*, best of `reps` each on a fresh work directory (a
/// reused directory would salvage instead of compute). Reports wall
/// clock, points/sec, and the steal/requeue counters; byte-identity
/// against the in-process reference is asserted, not just recorded.
fn distrib_section(points: &[SweepPoint], reference_fp: &str, reps: usize) -> String {
    let Some(bin) = worker_bin() else {
        eprintln!(
            "distrib A/B skipped: sweep_worker binary not found \
             (build the workspace or set GREENCELL_WORKER_BIN)"
        );
        return "  \"distrib\": { \"available\": false }".to_string();
    };
    let rows: Vec<String> = [1usize, 3]
        .iter()
        .map(|&workers| {
            let mut best = Duration::MAX;
            let mut last = None;
            for rep in 0..reps.max(1) {
                let dir = std::env::temp_dir().join(format!(
                    "greencell-bench-distrib-w{workers}-r{rep}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let opts = DistribOptions::new(workers, WorkerCommand::new(&bin, vec![]));
                let start = Instant::now();
                let result = run_sweep_distributed_stats(points, &opts, &dir)
                    .expect("distributed sweep runs");
                best = best.min(start.elapsed());
                last = Some(result);
                let _ = std::fs::remove_dir_all(&dir);
            }
            let (report, stats) = last.expect("at least one rep");
            assert_eq!(
                fingerprint(&report),
                reference_fp,
                "distributed sweep diverged from the in-process baseline at {workers} worker(s)"
            );
            let wall_s = best.as_secs_f64();
            let pps = points.len() as f64 / wall_s.max(1e-12);
            println!(
                "distrib w{workers}: {wall_s:.4}s ({pps:.1} points/s), {} steals, \
                 {} requeued; byte-identical",
                stats.steals, stats.requeued
            );
            format!(
                "    \"w{workers}\": {{ \"workers\": {workers}, \"wall_s\": {wall_s:.6}, \
                 \"points_per_sec\": {pps:.2}, \"steals\": {}, \"requeued\": {}, \
                 \"worker_failures\": {} }}",
                stats.steals, stats.requeued, stats.worker_failures
            )
        })
        .collect();
    format!(
        "  \"distrib\": {{\n    \"available\": true,\n    \"bit_identical\": true,\n{}\n  }}",
        rows.join(",\n")
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_points: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    });
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    let points = batch(n_points);
    let slots: usize = points.iter().map(|p| p.scenario.horizon).sum();
    let degenerate = threads <= 1;
    if degenerate {
        eprintln!(
            "WARNING: perf_baseline invoked with threads == 1 — this measures the \
             serial path against itself and says NOTHING about fan-out speedup. \
             The record will be labelled \"degenerate\": true. Re-run with \
             threads > 1 (or no thread argument) for a meaningful baseline."
        );
    }

    eprintln!("perf_baseline: {n_points} points, best of {reps} reps, 1 vs {threads} worker(s)");
    let (serial_wall, serial_report) = measure(&points, &SweepOptions::serial(), reps);
    let (parallel_wall, parallel_report) =
        measure(&points, &SweepOptions::with_threads(threads), reps);

    assert_eq!(
        fingerprint(&serial_report),
        fingerprint(&parallel_report),
        "parallel sweep diverged from the serial baseline"
    );

    let serial_s = serial_wall.as_secs_f64();
    let parallel_s = parallel_wall.as_secs_f64();
    let speedup = serial_s / parallel_s.max(1e-12);
    println!(
        "serial:   {serial_s:.4}s ({:.0} slots/s)",
        slots as f64 / serial_s
    );
    println!(
        "parallel: {parallel_s:.4}s ({:.0} slots/s)",
        slots as f64 / parallel_s
    );
    println!("speedup:  {speedup:.2}x at {threads} worker(s); results bit-identical");
    if degenerate {
        println!("WARNING:  degenerate record (threads == 1): speedup is meaningless");
    }

    // Trace the same batch once to pin per-stage latency in the record.
    let traced = trace_points(
        &points,
        &SweepOptions::with_threads(threads),
        RingSink::DEFAULT_CAPACITY,
    )
    .expect("traced sweep runs");
    let summary = traced.bundle.summary();
    let stage_rows: Vec<String> = Stage::ALL
        .iter()
        .filter_map(|&stage| {
            summary.stage(stage).map(|h| {
                format!(
                    "    \"{}\": {{ \"count\": {}, \"p50_ns\": {:.0}, \"p90_ns\": {:.0}, \
                     \"p99_ns\": {:.0}, \"max_ns\": {:.0} }}",
                    stage.name(),
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max()
                )
            })
        })
        .collect();

    // A/B the S1 kernel against the frozen cold-start reference on the
    // paper setup and the synthetic fixture sizes.
    let fixtures = [
        ("paper", S1Fixture::paper(500)),
        ("n8", S1Fixture::new(8, 42)),
        ("n16", S1Fixture::new(16, 42)),
        ("n32", S1Fixture::new(32, 42)),
    ];
    let kernel_rows: Vec<String> = fixtures
        .iter()
        .map(|(label, fixture)| s1_kernel_row(label, fixture, 201))
        .collect();

    // Same A/B for the S4 energy kernel against its cold-bisection oracle.
    let s4_fixtures = [
        ("paper", S4Fixture::paper(500)),
        ("n8", S4Fixture::new(8, 42)),
        ("n16", S4Fixture::new(16, 42)),
        ("n32", S4Fixture::new(32, 42)),
    ];
    let s4_rows: Vec<String> = s4_fixtures
        .iter()
        .map(|(label, fixture)| s4_kernel_row(label, fixture, 201))
        .collect();

    // City-scale partitioned-slot latency sweep. Cluster solves only fan out
    // when threads > 1; at threads == 1 the global "degenerate" label
    // applies to these rows too.
    let city_workers = threads.max(1);
    let city_rows: Vec<String> = [100usize, 1_000, 10_000]
        .iter()
        .map(|&users| city_row(users, city_workers, 61))
        .collect();

    // Distributed-driver A/B: the same batch through 1 vs 3 worker
    // *processes*. On a 1-core box the processes time-slice, so the
    // global "degenerate" label covers these rows too — the counters
    // (steals, requeues, byte-identity) are meaningful regardless.
    let distrib = distrib_section(&points, &fingerprint(&serial_report), reps);

    let json = format!(
        "{{\n  \"benchmark\": \"sweep_throughput\",\n  \"points\": {n_points},\n  \
         \"slots_total\": {slots},\n  \"reps\": {reps},\n  \"threads\": {threads},\n  \
         \"degenerate\": {degenerate},\n  \
         \"serial_s\": {serial_s:.6},\n  \"parallel_s\": {parallel_s:.6},\n  \
         \"speedup\": {speedup:.4},\n  \
         \"serial_slots_per_sec\": {:.2},\n  \"parallel_slots_per_sec\": {:.2},\n  \
         \"bit_identical\": true,\n  \"stage_latency_ns\": {{\n{}\n  }},\n  \
         \"s1_kernel\": {{\n{}\n  }},\n  \"s4_kernel\": {{\n{}\n  }},\n  \
         \"city_scale\": {{\n{}\n  }},\n{}\n}}\n",
        slots as f64 / serial_s,
        slots as f64 / parallel_s,
        stage_rows.join(",\n"),
        kernel_rows.join(",\n"),
        s4_rows.join(",\n"),
        city_rows.join(",\n"),
        distrib,
    );
    match greencell_sim::write_text_atomic(std::path::Path::new("BENCH_sweep.json"), &json) {
        Ok(()) => eprintln!("wrote BENCH_sweep.json"),
        Err(e) => eprintln!("could not write BENCH_sweep.json: {e}"),
    }
}
