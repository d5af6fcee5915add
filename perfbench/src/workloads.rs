//! The four end-to-end workloads, each measured with tracing off.
//!
//! Every workload repeats a fixed *episode* (a run of slots, a serve
//! session, or a sweep) built from the seed until `--seconds` have passed.
//! Episodes are identical work: every one must reproduce the first one's
//! decision fingerprint, and the decision metrics come from the first.
//! Timings come from the least-slowed repeats (see [`best_profile`]); the
//! record also prints the timings over every episode.

use crate::heap;
use crate::report::{json_num, Report};
use crate::serve_client::{self, ServeInput};
use crate::stats::{Fnv, Samples};
use crate::Ctx;
use greencell_core::SlotReport;
use greencell_sim::{
    derive_point_seed, run_sweep, CitySim, RunMetrics, Scenario, Simulator, StabilityWatchdog,
    SweepOptions, SweepPoint, WatchdogReport,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A timed `paper` episode runs this many topologies for this many slots
/// each; one untimed decision run of the first topology gates stability.
pub const PAPER_TOPOLOGIES: u64 = 8;
pub const PAPER_EPISODE: usize = 1000;
pub const PAPER_DECISION_RUN: usize = 10_000;
/// `city` size: users, base stations, and slots per episode.
pub const CITY_USERS: usize = 10_000;
pub const CITY_BS: usize = 200;
pub const CITY_EPISODE: usize = 100;
/// Slots of the 1- versus 2-worker `city` fingerprint comparison.
pub const CITY_PREFIX: usize = 4;
/// A `serve` episode runs one session of `SERVE_LINES` lines per
/// topology; one untimed session of `SERVE_DECISION_LINES` gates stability.
pub const SERVE_TOPOLOGIES: u64 = 4;
pub const SERVE_LINES: usize = 1000;
pub const SERVE_DECISION_LINES: usize = 10_000;
/// `sweep_lb` grid: V values × seeds, each point this many slots.
pub const SWEEP_V: [f64; 4] = [1e5, 3e5, 6e5, 1e6];
pub const SWEEP_SEEDS: u64 = 26;
pub const SWEEP_HORIZON: usize = 25;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Folds every decision field of a slot report into `fp`.
pub fn hash_report(fp: &mut Fnv, r: &SlotReport) {
    fp.u64(r.slot);
    fp.f64(r.cost);
    fp.f64(r.grid_draw.as_kilowatt_hours());
    fp.u64(r.scheduled_links as u64);
    fp.u64(r.admitted.count());
    fp.u64(r.routed.count());
    for psi in [r.psi1, r.psi2, r.psi3, r.psi4] {
        fp.f64(psi);
    }
    fp.f64(r.lyapunov_before);
    fp.f64(r.lyapunov_after);
    fp.u64(r.shed_transmissions as u64);
    fp.u64(r.degradation.len() as u64);
}

/// Strong stability over the second half of a run: the program's own
/// watchdog and threshold, but with a window of half the run. The
/// watchdog's 16-slot window swings by several times its threshold in
/// steady state on the paper scenario (its final verdict flipped to
/// "divergent" on 11 of seeds 1–25), so the benchmark gates on this
/// verdict and records the 16-slot one beside it.
pub fn half_run_verdict(m: &RunMetrics, threshold: f64) -> WatchdogReport {
    let (bs, users) = (
        m.backlog_bs_series().values(),
        m.backlog_users_series().values(),
    );
    let mut w = StabilityWatchdog::new((bs.len() / 2).max(2), threshold);
    for (b, u) in bs.iter().zip(users) {
        w.record(b + u, 0.0);
    }
    w.report()
}

/// Records the watchdog verdicts of a run and gates on the half-run one.
pub fn check_stable(rep: &mut Report, name: &str, m: &RunMetrics, watchdog: &StabilityWatchdog) {
    let last = watchdog.report();
    let half = half_run_verdict(m, watchdog.slope_threshold());
    rep.check(
        &format!("{name}_backlog_bounded"),
        half.stable,
        format!(
            "half-run slope {} vs threshold {}; 16-slot watchdog: stable {}, slope {}",
            half.trailing_slope,
            watchdog.slope_threshold(),
            last.stable,
            last.trailing_slope
        ),
    );
}

/// One repetition of a workload's fixed work. Its times are kept in
/// *pieces*, each timed on its own at the same place in every episode.
/// Where slots run one after another (`paper`, `city`, `serve`), each slot
/// or line is a piece of the busy time, and each topology or session adds
/// one piece for its wall time outside its slots (set-up, the final
/// restore). `sweep_lb` runs its points in parallel, so a point's piece is
/// its wall time over the thread count, and the rest of the sweep's wall
/// time (thread start-up, the last points' imbalance) is one more.
#[derive(Default)]
struct Episode {
    /// The program's set-up time of each topology or session, s.
    setup_s: Vec<f64>,
    /// Per-slot latency in position order (per line on `serve`, per slot
    /// of each point on `sweep_lb`), ms.
    slot_ms: Samples,
    /// The pieces of the time inside the timed operations, s.
    busy_s: Vec<f64>,
    /// The pieces of the wall time outside them, s.
    outside_s: Vec<f64>,
    slots: u64,
    points: u64,
    fingerprint: String,
}

/// Runs episodes until `ctx.seconds` have passed (at least one), checking
/// that each reproduces the first. Returns `None` after a failure, which
/// is already recorded.
fn repeat(
    ctx: &Ctx,
    rep: &mut Report,
    name: &str,
    mut episode: impl FnMut(&mut Report, usize) -> Result<Episode, String>,
) -> Option<Vec<Episode>> {
    let mut episodes: Vec<Episode> = Vec::new();
    let deadline = Instant::now() + ctx.seconds;
    while episodes.is_empty() || Instant::now() < deadline {
        match episode(rep, episodes.len()) {
            Ok(e) => {
                rep.attempted += e.slots;
                if let Some(first) = episodes.first() {
                    rep.check(
                        &format!("{name}_episodes_repeat"),
                        e.fingerprint == first.fingerprint,
                        format!(
                            "episode {} fingerprint {} vs {}",
                            episodes.len() + 1,
                            e.fingerprint,
                            first.fingerprint
                        ),
                    );
                } else {
                    rep.note_str("fingerprint", &e.fingerprint);
                }
                episodes.push(e);
            }
            Err(e) => {
                rep.attempted += 1;
                rep.fail(&format!("{name}_episode"), e);
                return None;
            }
        }
    }
    Some(episodes)
}

/// Share of a piece's repeats that its timing comes from.
const KEEP_SHARE: f64 = 0.1;

/// Every episode is identical work, so its timings differ only by how
/// much the host slowed it. On a shared two-core host the same code runs
/// in a fast and a slow mode that switch every few seconds (per-slot
/// medians of 0.12 ms and 0.18 ms on `paper`), so timings are taken from
/// the least-slowed repeats: per position (slot, line or point), the
/// fastest time any episode took there, and per piece of an episode's
/// time, the median of the fastest tenth (see [`fastest_pieces`]).
fn best_profile(episodes: &[Episode]) -> Samples {
    let mut best = vec![f64::INFINITY; episodes[0].slot_ms.len()];
    for e in episodes {
        for (b, &v) in best.iter_mut().zip(e.slot_ms.values()) {
            *b = b.min(v);
        }
    }
    Samples::from(best)
}

/// The fastest times of `episodes`, piece by piece, summed over the
/// pieces: for each piece, the median of the fastest tenth of its repeats.
/// A whole episode spans several of the host's fast and slow spells and
/// several snapshot `fsync`s, so even its fastest repeats mix them; a
/// piece is short enough that its fastest repeats ran in a fast spell.
fn fastest_pieces(episodes: &[Episode], times: impl Fn(&Episode) -> &[f64]) -> f64 {
    (0..times(&episodes[0]).len())
        .map(|i| {
            let piece: Vec<f64> = episodes
                .iter()
                .filter_map(|e| times(e).get(i).copied())
                .collect();
            Samples::from(piece).fastest(KEEP_SHARE).median()
        })
        .sum()
}

/// Reports the end-to-end metrics of a finished workload; `decisions` is
/// its `(avg_cost, avg_backlog_pkts)`, and `need_mb` the heap each of its
/// parts needed (see [`heap_mark`]).
fn publish(
    rep: &mut Report,
    episodes: &[Episode],
    tail_q: f64,
    decisions: (f64, f64),
    need_mb: &Samples,
) {
    let (mut all, mut setup, mut busy, mut wall) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let parts = episodes[0].setup_s.len() as f64;
    for e in episodes {
        all.extend(&e.slot_ms);
        setup.push(e.setup_s.iter().sum::<f64>() / parts);
        let b: f64 = e.busy_s.iter().sum();
        busy.push(b);
        wall.push(b + e.outside_s.iter().sum::<f64>());
    }
    let profile = best_profile(episodes);
    let (slots, points) = (episodes[0].slots as f64, episodes[0].points as f64);
    let busy_fast = fastest_pieces(episodes, |e| &e.busy_s);
    let wall_fast = busy_fast + fastest_pieces(episodes, |e| &e.outside_s);
    rep.metric(
        "setup_s",
        fastest_pieces(episodes, |e| &e.setup_s) / parts,
        "s",
    );
    rep.metric("slots_per_s", slots / busy_fast, "1/s");
    rep.metric("slot_p50_ms", profile.median(), "ms");
    rep.tail_metric("slot_tail_ms", &profile, tail_q, "ms");
    rep.metric("points_per_s", points / wall_fast, "1/s");
    rep.metric("avg_cost", decisions.0, "cost");
    rep.metric("avg_backlog_pkts", decisions.1, "pkts");
    rep.metric("peak_heap_mb", need_mb.mean(), "MB");
    rep.note_timing("part_heap_mb", need_mb, "MB");
    rep.note("parts", parts.to_string());
    rep.note("busy_pieces", episodes[0].busy_s.len().to_string());
    rep.note_timing("setup_s_all", &setup, "s");
    rep.note_timing("episode_busy_s_all", &busy, "s");
    rep.note_timing("episode_wall_s_all", &wall, "s");
    rep.note_timing("slot_ms", &profile, "ms");
    rep.note_timing("slot_ms_all", &all, "ms");
    rep.note("slot_tail_quantile", json_num(tail_q));
    rep.note("episodes", episodes.len().to_string());
}

/// When `measure`, starts measuring the heap one part of a workload needs
/// (a topology, a session, the city episode or a sweep point): the most
/// heap bytes live during it above those live before it, which
/// [`heap_need`] records. The process-wide peak would also count the
/// benchmark's own samples, which grow with the number of episodes, and on
/// `sweep_lb` it is the largest simplex tableau among the topologies,
/// which swung from 15 to 27 MB over ten seeds. Marks are taken between
/// parts, when no other thread allocates.
fn heap_mark(measure: bool) -> Option<f64> {
    measure.then(heap::reset_peak)
}

/// Pushes onto `need_mb` the heap the part begun at `mark` needed, in MiB.
fn heap_need(mark: Option<f64>, need_mb: &mut Samples) {
    if let Some(base) = mark {
        need_mb.push(heap::peak_mb() - base);
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `paper` topologies of one episode: `Scenario::paper` at seeds
/// derived from `seed`, so one run's timings mix several user layouts.
fn paper_scenarios(seed: u64) -> Vec<Scenario> {
    (0..PAPER_TOPOLOGIES)
        .map(|k| {
            let mut s = Scenario::paper(derive_point_seed(seed, k));
            s.horizon = PAPER_DECISION_RUN;
            s
        })
        .collect()
}

/// `paper`: `Scenario::paper` stepped one slot at a time through the dense
/// `Simulator` on one thread.
pub fn paper(ctx: &Ctx, rep: &mut Report) {
    let scenarios = paper_scenarios(ctx.seed);
    // The decision run: the stability verdict needs the backlog to settle,
    // which takes longer than an episode. Its first slots must match the
    // episode's run of the same topology.
    let mut decision_run = || -> Result<String, String> {
        let mut sim = Simulator::new(&scenarios[0]).map_err(err)?;
        let mut fp = Fnv::default();
        for k in 0..PAPER_DECISION_RUN {
            let r = sim.step_with_report().map_err(err)?;
            if k < PAPER_EPISODE {
                hash_report(&mut fp, &r);
            }
        }
        check_stable(rep, "paper", sim.metrics(), sim.watchdog());
        Ok(fp.hex())
    };
    let prefix = match decision_run() {
        Ok(d) => d,
        Err(e) => return rep.fail("paper_decision_run", e),
    };
    rep.attempted += PAPER_DECISION_RUN as u64;

    let mut decisions = (0.0, 0.0);
    let mut need = Samples::new();
    let mut first_prefix = String::new();
    let Some(episodes) = repeat(ctx, rep, "paper", |_, index| {
        let mut e = Episode::default();
        let mut fp = Fnv::default();
        let (mut cost, mut backlog) = (0.0, 0.0);
        for (k, scenario) in scenarios.iter().enumerate() {
            let mark = heap_mark(index == 0);
            let t = Instant::now();
            let mut sim = Simulator::new(scenario).map_err(err)?;
            e.setup_s.push(t.elapsed().as_secs_f64());
            let mut busy = 0.0;
            let mut sub = Fnv::default();
            for _ in 0..PAPER_EPISODE {
                let t = Instant::now();
                let step = sim.step_with_report();
                let dt = t.elapsed();
                let r = step.map_err(err)?;
                hash_report(&mut fp, &r);
                if k == 0 {
                    hash_report(&mut sub, &r);
                }
                e.slot_ms.push(ms(dt));
                e.busy_s.push(dt.as_secs_f64());
                busy += dt.as_secs_f64();
            }
            e.outside_s.push(t.elapsed().as_secs_f64() - busy);
            heap_need(mark, &mut need);
            if index == 0 && k == 0 {
                first_prefix = sub.hex();
            }
            let m = sim.metrics();
            cost += m.average_cost();
            backlog += m.backlog_bs_series().mean() + m.backlog_users_series().mean();
        }
        e.slots = (PAPER_EPISODE * scenarios.len()) as u64;
        e.points = 1;
        e.fingerprint = fp.hex();
        if index == 0 {
            let n = scenarios.len() as f64;
            decisions = (cost / n, backlog / n);
        }
        Ok(e)
    }) else {
        return;
    };
    rep.note_str(
        "episode",
        &format!(
            "{PAPER_TOPOLOGIES} topologies x {PAPER_EPISODE} slots; \
             stability from one {PAPER_DECISION_RUN}-slot run"
        ),
    );
    rep.check(
        "paper_decision_run_matches",
        first_prefix == prefix,
        format!("first {PAPER_EPISODE} slots: {first_prefix} in the episode, {prefix} in the decision run"),
    );
    publish(rep, &episodes, 0.99, decisions, &need);
}

pub fn city_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::city(
        CITY_USERS,
        CITY_BS,
        Scenario::default_city_area(CITY_BS),
        seed,
    );
    s.horizon = CITY_EPISODE;
    s
}

/// Decision fingerprint of the first `slots` slots of `scenario` at
/// `workers` cluster-solve threads.
fn city_prefix(scenario: &Scenario, workers: usize, slots: usize) -> Result<String, String> {
    let mut city = CitySim::with_workers(scenario, workers).map_err(err)?;
    let mut fp = Fnv::default();
    for _ in 0..slots {
        hash_report(&mut fp, &city.step().map_err(err)?);
    }
    Ok(fp.hex())
}

/// `city`: `Scenario::city(10 000 users, 200 BSs)` driven through
/// `CitySim` with the cluster solves on `ctx.threads` workers.
pub fn city(ctx: &Ctx, rep: &mut Report) {
    let scenario = city_scenario(ctx.seed);
    let workers = ctx.threads;
    let demand = scenario.sessions as f64 * scenario.demand_packets_per_slot().count_f64();
    rep.note("workers", workers.to_string());
    rep.note_str("episode", &format!("{CITY_EPISODE} slots"));
    let serial_prefix = match city_prefix(&scenario, 1, CITY_PREFIX) {
        Ok(fp) => fp,
        Err(e) => return rep.fail("city_setup", e),
    };

    let mut decisions = (0.0, 0.0);
    let mut need = Samples::new();
    let Some(episodes) = repeat(ctx, rep, "city", |rep, index| {
        let mark = heap_mark(index == 0);
        let start = Instant::now();
        let mut city = CitySim::with_workers(&scenario, workers).map_err(err)?;
        let setup_s = start.elapsed().as_secs_f64();
        let mut e = Episode::default();
        let mut busy = 0.0;
        let mut watchdog = StabilityWatchdog::for_demand(demand);
        let mut fp = Fnv::default();
        let (mut cost, mut backlog) = (0.0, 0.0);
        for k in 0..CITY_EPISODE {
            let t = Instant::now();
            let step = city.step();
            let dt = t.elapsed();
            let r = step.map_err(err)?;
            e.slot_ms.push(ms(dt));
            e.busy_s.push(dt.as_secs_f64());
            busy += dt.as_secs_f64();
            hash_report(&mut fp, &r);
            if index == 0 && k + 1 == CITY_PREFIX {
                rep.check(
                    "city_workers_agree",
                    fp.hex() == serial_prefix,
                    format!(
                        "first {CITY_PREFIX} slots: {} at {workers} workers, {serial_prefix} at 1",
                        fp.hex()
                    ),
                );
            }
            let total_backlog = city.controller().total_data_backlog().count_f64();
            // The sharded controller exposes no battery fleet; the floor is
            // not part of the stability verdict.
            watchdog.record(total_backlog, 0.0);
            cost += r.cost;
            backlog += total_backlog;
        }
        e.setup_s.push(setup_s);
        e.outside_s.push(start.elapsed().as_secs_f64() - busy);
        heap_need(mark, &mut need);
        (e.slots, e.points) = (CITY_EPISODE as u64, 1);
        e.fingerprint = fp.hex();
        if index == 0 {
            let n = CITY_EPISODE as f64;
            decisions = (cost / n, backlog / n);
            // Recorded, not gated: from empty queues the city is still
            // filling them after any episode short enough to repeat (the
            // backlog still rises by ~5·10⁴ packets a slot at slot 400), so
            // its trailing slope stays above the divergence threshold.
            let w = watchdog.report();
            rep.note(
                "city_watchdog",
                format!(
                    "{{\"stable\":{},\"trailing_slope\":{},\"threshold\":{}}}",
                    w.stable,
                    json_num(w.trailing_slope),
                    json_num(watchdog.slope_threshold())
                ),
            );
            let d = city.controller().decomposition();
            rep.note("clusters", d.len().to_string());
            rep.note("largest_cluster", d.largest().to_string());
        }
        Ok(e)
    }) else {
        return;
    };
    publish(rep, &episodes, 0.9, decisions, &need);
}

/// `serve`: closed-loop serve sessions on `Scenario::paper` with BS
/// sleeping and energy cooperation on, one session per topology; see
/// [`serve_client`].
pub fn serve(ctx: &Ctx, rep: &mut Report) {
    let input = |k: u64, lines: usize| ServeInput::new(derive_point_seed(ctx.seed, k), lines);
    // The decision session: one untimed long session of the first
    // topology. The stability verdict needs the backlog to settle, and its
    // snapshots grow to megabytes, which shows the snapshot cost that grows
    // with session age.
    match input(0, SERVE_DECISION_LINES).and_then(|i| serve_client::run_session(&i)) {
        Ok(session) => {
            rep.attempted += SERVE_DECISION_LINES as u64;
            for (name, ok, detail) in session.checks() {
                rep.check(name, ok, detail);
            }
            let sim = &session.restored;
            check_stable(rep, "serve", sim.metrics(), sim.watchdog());
            let gaps = &session.snapshot_gap_ms;
            rep.note("snapshot_bytes_last", session.snapshot_bytes.to_string());
            rep.note("snapshot_restore_ms", json_num(session.restore_ms));
            rep.note(
                "snapshot_write_first_ms",
                json_num(gaps.first().copied().unwrap_or(0.0)),
            );
            rep.note(
                "snapshot_write_last_ms",
                json_num(gaps.last().copied().unwrap_or(0.0)),
            );
        }
        Err(e) => return rep.fail("serve_decision_session", e),
    }
    let inputs: Result<Vec<ServeInput>, String> = (0..SERVE_TOPOLOGIES)
        .map(|k| input(k, SERVE_LINES))
        .collect();
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => return rep.fail("serve_setup", e),
    };
    rep.note_str(
        "episode",
        &format!(
            "{SERVE_TOPOLOGIES} sessions (topologies) of {SERVE_LINES} lines; \
             stability and snapshot growth from one {SERVE_DECISION_LINES}-line session"
        ),
    );
    let mut decisions = (0.0, 0.0);
    let mut need = Samples::new();
    let Some(episodes) = repeat(ctx, rep, "serve", |rep, index| {
        let mut e = Episode {
            points: inputs.len() as u64,
            ..Episode::default()
        };
        let mut fp = Fnv::default();
        for input in &inputs {
            let mark = heap_mark(index == 0);
            let start = Instant::now();
            let session = serve_client::run_session(input)?;
            let wall_s = start.elapsed().as_secs_f64();
            heap_need(mark, &mut need);
            for (name, ok, detail) in session.checks() {
                rep.check(name, ok, detail);
            }
            // Set-up is the server's start-up, timed to its `start` event.
            e.setup_s.push(session.setup_s);
            e.busy_s
                .extend(session.line_ms.values().iter().map(|ms| ms / 1e3));
            e.outside_s.push(wall_s - session.line_ms.sum() / 1e3);
            e.slots += session.line_ms.len() as u64;
            e.slot_ms.extend(&session.line_ms);
            fp.bytes(session.fingerprint.as_bytes());
            if index == 0 {
                let n = inputs.len() as f64;
                decisions.0 += session.restored.metrics().average_cost() / n;
                decisions.1 += session.avg_backlog() / n;
            }
        }
        e.fingerprint = fp.hex();
        Ok(e)
    }) else {
        return;
    };
    publish(rep, &episodes, 0.99, decisions, &need);
}

/// The `sweep_lb` grid: `Scenario::paper` over V values and seeds, with the
/// relaxed lower-bound controller tracked.
pub fn sweep_points(seed: u64) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for s in 0..SWEEP_SEEDS {
        for &v in &SWEEP_V {
            let mut scenario = Scenario::paper(derive_point_seed(seed, s));
            scenario.v = v;
            scenario.horizon = SWEEP_HORIZON;
            scenario.track_lower_bound = true;
            points.push(SweepPoint::new(format!("v{v:e}_s{s}"), scenario));
        }
    }
    points
}

/// `sweep_lb`: a Fig. 2(a)-style V sweep with the lower bound on, run by
/// `run_sweep` on `ctx.threads` threads.
pub fn sweep_lb(ctx: &Ctx, rep: &mut Report) {
    let points = sweep_points(ctx.seed);
    let opts = SweepOptions::with_threads(ctx.threads);
    rep.note("sweep_threads", ctx.threads.to_string());
    rep.note_str(
        "episode",
        &format!(
            "{} points ({} V values x {SWEEP_SEEDS} seeds) of {SWEEP_HORIZON} slots",
            points.len(),
            SWEEP_V.len()
        ),
    );
    let mut decisions = (0.0, 0.0);
    let Some(episodes) = repeat(ctx, rep, "sweep", |rep, index| {
        // Set-up: one point's simulator with the relaxed controller.
        let t = Instant::now();
        black_box(Simulator::new(&points[0].scenario).map_err(err)?);
        let setup_s = t.elapsed().as_secs_f64();
        let start = Instant::now();
        let report = run_sweep(&points, &opts).map_err(err)?;
        let wall_s = start.elapsed().as_secs_f64();
        let mut e = Episode {
            setup_s: vec![setup_s],
            points: report.outcomes.len() as u64,
            ..Episode::default()
        };
        rep.check(
            "sweep_every_point_returns",
            report.outcomes.len() == points.len(),
            format!("{} of {} points", report.outcomes.len(), points.len()),
        );
        let mut fp = Fnv::default();
        let (mut cost_sum, mut backlog_sum, mut gap) = (0.0, 0.0, 0.0);
        let mut violations = Vec::new();
        for o in &report.outcomes {
            e.slot_ms
                .push(ms(o.telemetry.wall) / o.telemetry.slots as f64);
            e.busy_s
                .push(o.telemetry.wall.as_secs_f64() / ctx.threads as f64);
            e.slots += o.telemetry.slots as u64;
            let m = &o.metrics;
            for series in [
                m.cost_series(),
                m.grid_series(),
                m.backlog_bs_series(),
                m.backlog_users_series(),
                m.admitted_series(),
                m.routed_series(),
                m.relaxed_cost_series(),
            ] {
                series.values().iter().for_each(|&v| fp.f64(v));
            }
            let (cost, bound) = (m.average_cost(), m.lower_bound().unwrap_or(f64::INFINITY));
            if bound > cost {
                violations.push(format!("{}: bound {bound} > cost {cost}", o.label));
            }
            cost_sum += cost;
            backlog_sum += m.backlog_bs_series().mean() + m.backlog_users_series().mean();
            gap += cost - bound;
        }
        e.outside_s.push(wall_s - e.busy_s.iter().sum::<f64>());
        e.fingerprint = fp.hex();
        if index == 0 {
            let n = report.outcomes.len().max(1) as f64;
            decisions = (cost_sum / n, backlog_sum / n);
            rep.check(
                "sweep_theorem5_bound_below_cost",
                violations.is_empty(),
                if violations.is_empty() {
                    format!("{} points", report.outcomes.len())
                } else {
                    violations.join("; ")
                },
            );
            rep.note("cost_gap", json_num(gap / n));
        }
        Ok(e)
    }) else {
        return;
    };
    // Points run in parallel in the sweep, so the heap each needs is
    // measured with each point run alone, after the timed loop.
    let one = SweepOptions::with_threads(1);
    let mut need = Samples::new();
    for point in points.chunks(1) {
        let mark = heap_mark(true);
        if let Err(e) = run_sweep(point, &one) {
            return rep.fail("sweep_point_heap", e);
        }
        heap_need(mark, &mut need);
    }
    publish(rep, &episodes, 0.9, decisions, &need);
}
