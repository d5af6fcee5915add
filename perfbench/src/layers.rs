//! The traced layer pass (`--trace 1`).
//!
//! Each layer is measured in the setting where it carries the work: the
//! `core` stages and the engine on `paper`, `sim::scale` on `city`, the
//! snapshot, parse and dynamic-network layers on `serve`, and the lower
//! bound and sweep driver on `sweep_lb`. The pass does the same fixed work
//! whichever `--workload` is named, so its numbers compare across runs of
//! any workload.
//!
//! The pass times the benchmark's own calls into public functions, and
//! reads the stage spans the controller already emits into a `RingSink`
//! through `Simulator::step_with_observation_traced`. It adds no tracing
//! inside the program.

use crate::report::{json_num, Report, Value};
use crate::serve_client::{run_session, ServeInput};
use crate::stats::{Fnv, Samples};
use crate::workloads::{city_scenario, hash_report, ms, sweep_points, SERVE_DECISION_LINES};
use crate::Ctx;
use greencell_bench::{S1Fixture, S4Fixture};
use greencell_core::{
    greedy_schedule_with, solve_energy_management_warm_into, EnergyOutcome, RelaxedController,
    S1Scratch, S4Workspace, ScheduleOutcome, SlotObservation,
};
use greencell_net::GridIndex;
use greencell_phy::SpectrumState;
use greencell_sim::{derive_point_seed, run_sweep, CitySim, Scenario, Simulator, SweepOptions};
use greencell_trace::{json, RingSink, Stage, TraceEvent};
use greencell_units::{Bandwidth, Packets, Power};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Untraced/traced replay pairs of a `paper` run of `CORE_SLOTS` slots.
const CORE_REPLAYS: usize = 3;
const CORE_SLOTS: usize = 2000;
/// Ring capacity per slot; a slot emits well under this many events.
const RING_PER_SLOT: usize = 64;
/// `city` slots stepped at each worker count.
const SCALE_SLOTS: usize = 20;
const S4_PROBE_CALLS: usize = 30;
const S1_PROBE_CALLS: usize = 200;
/// Renders of the sweep report.
const REPORT_RENDERS: usize = 5;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One section of the pass: measures its layers and records them.
type Section = fn(&Ctx, &mut Report) -> Result<(), String>;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    rep.note_str(
        "pass",
        "layer pass: the same fixed work for every --workload",
    );
    let sections: [(&str, Section); 4] = [
        ("core", core),
        ("scale", scale),
        ("serve", serve),
        ("sweep", sweep),
    ];
    for (name, section) in sections {
        let t = Instant::now();
        if let Err(e) = section(ctx, rep) {
            rep.fail(&format!("{name}_layers"), e);
        }
        rep.note(
            &format!("{name}_section_s"),
            json_num(t.elapsed().as_secs_f64()),
        );
    }
}

/// `core` stages, the engine's own time, and the tracing overhead, from
/// replays of a `paper` run's observations.
fn core(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut scenario = Scenario::paper(ctx.seed);
    scenario.horizon = CORE_SLOTS;
    let (_, observations) = Simulator::new(&scenario)
        .and_then(|mut s| s.run_recording())
        .map_err(err)?;
    let n = observations.len();

    let mut stages: Vec<Samples> = vec![Samples::new(); Stage::ALL.len()];
    let mut engine_self = Samples::new();
    let (mut untraced_s, mut traced_s) = (Samples::new(), Samples::new());
    let mut dropped = 0u64;
    let mut fingerprints = Vec::new();
    let (mut scheduled, mut degradation, mut shed) = (0usize, 0usize, 0usize);
    for _ in 0..CORE_REPLAYS {
        // Untraced and traced replays time each step the same way, so the
        // ratio of their totals is the cost of the ring sink alone.
        let mut sim = Simulator::new(&scenario).map_err(err)?;
        let mut fp = Fnv::default();
        let mut total = Duration::ZERO;
        for obs in &observations {
            let t = Instant::now();
            let r = sim.step_with_observation(obs).map_err(err)?;
            total += t.elapsed();
            hash_report(&mut fp, &r);
        }
        untraced_s.push(total.as_secs_f64());
        fingerprints.push(fp.hex());

        let mut sim = Simulator::new(&scenario).map_err(err)?;
        let mut sink = RingSink::new(RING_PER_SLOT * n);
        let mut fp = Fnv::default();
        let mut step_us = Vec::with_capacity(n);
        let mut total = Duration::ZERO;
        (scheduled, degradation, shed) = (0, 0, 0);
        for obs in &observations {
            let t = Instant::now();
            let r = sim
                .step_with_observation_traced(obs, &mut sink)
                .map_err(err)?;
            let dt = t.elapsed();
            total += dt;
            step_us.push(us(dt));
            hash_report(&mut fp, &r);
            scheduled += r.scheduled_links;
            degradation += r.degradation.len();
            shed += r.shed_transmissions;
        }
        traced_s.push(total.as_secs_f64());
        fingerprints.push(fp.hex());
        dropped += sink.dropped();
        let mut slot_us = vec![f64::NAN; n];
        for ev in sink.events() {
            if let TraceEvent::Span {
                slot,
                stage,
                dur_nanos,
                ..
            } = ev
            {
                let d = dur_nanos as f64 / 1e3;
                stages[stage_index(stage)].push(d);
                if stage == Stage::Slot {
                    slot_us[slot as usize] = d;
                }
            }
        }
        for (step, slot) in step_us.iter().zip(&slot_us) {
            if slot.is_finite() {
                engine_self.push(step - slot);
            }
        }
    }
    rep.check(
        "trace_keeps_decisions",
        fingerprints.iter().all(|f| *f == fingerprints[0]),
        format!("replay fingerprints {}", fingerprints.join(" ")),
    );
    rep.check(
        "trace_no_dropped_events",
        dropped == 0,
        format!("{dropped} events dropped"),
    );
    rep.check(
        "trace_one_slot_span_per_step",
        engine_self.len() == CORE_REPLAYS * n,
        format!(
            "{} slot spans for {} steps",
            engine_self.len(),
            CORE_REPLAYS * n
        ),
    );

    let stage = |s: Stage| &stages[stage_index(s)];
    let slot_total = stage(Stage::Slot).sum();
    let share = |s: Stage| stage(s).sum() / slot_total;
    rep.metric("core.s1.p50_us", stage(Stage::S1).median(), "us");
    rep.tail_metric("core.s1.p99_us", stage(Stage::S1), 0.99, "us");
    rep.metric("core.s1.share", share(Stage::S1), "share");
    rep.metric("core.s2.p50_us", stage(Stage::S2).median(), "us");
    rep.metric("core.s2.share", share(Stage::S2), "share");
    rep.metric("core.s3.p50_us", stage(Stage::S3).median(), "us");
    rep.metric("core.s3.share", share(Stage::S3), "share");
    rep.metric("core.s4.p50_us", stage(Stage::S4).median(), "us");
    rep.metric("core.s4.share", share(Stage::S4), "share");
    rep.metric("core.advance.p50_us", stage(Stage::Advance).median(), "us");
    rep.metric("core.advance.share", share(Stage::Advance), "share");
    rep.metric("core.slot.p50_us", stage(Stage::Slot).median(), "us");
    rep.metric("engine.self.p50_us", engine_self.median(), "us");
    rep.metric(
        "core.scheduled_links_mean",
        scheduled as f64 / n as f64,
        "count",
    );
    rep.metric("core.degradation_events", degradation as f64, "count");
    rep.metric("core.shed_transmissions", shed as f64, "count");
    rep.metric(
        "trace.overhead",
        traced_s.median() / untraced_s.median(),
        "ratio",
    );
    rep.metric("trace.dropped", dropped as f64, "count");
    for s in Stage::ALL {
        rep.note_timing(&format!("span.{}_us", s.name()), stage(s), "us");
    }
    rep.note_timing("engine.self_us", &engine_self, "us");
    let accounted: f64 = [Stage::S1, Stage::S2, Stage::S3, Stage::S4, Stage::Advance]
        .into_iter()
        .map(share)
        .sum();
    rep.note("core.accounted_share", json_num(accounted));
    rep.attempted += (2 * CORE_REPLAYS * n) as u64;
    Ok(())
}

fn stage_index(s: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&x| x == s)
        .expect("every stage is listed")
}

/// `sim::scale` on the full `city` scenario, plus the two kernel probes
/// that stand in for the city slot's internals.
fn scale(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let scenario = city_scenario(ctx.seed);
    let (mut observe_us, mut w1_ms, mut w2_ms) = (Samples::new(), Samples::new(), Samples::new());
    let mut city = CitySim::with_workers(&scenario, 1).map_err(err)?;
    let mut fp1 = Fnv::default();
    for _ in 0..SCALE_SLOTS {
        let t = Instant::now();
        let obs = city.next_observation();
        observe_us.push(us(t.elapsed()));
        let t = Instant::now();
        let r = city.controller_mut().step(&obs).map_err(err)?;
        w1_ms.push(ms(t.elapsed()));
        hash_report(&mut fp1, &r);
    }
    let decomposition = city.controller().decomposition();
    let (clusters, largest) = (decomposition.len(), decomposition.largest());
    rep.attempted += SCALE_SLOTS as u64;

    let parallel = ctx.nproc >= 2;
    if parallel {
        let mut city = CitySim::with_workers(&scenario, 2).map_err(err)?;
        let mut fp2 = Fnv::default();
        for _ in 0..SCALE_SLOTS {
            let obs = city.next_observation();
            let t = Instant::now();
            let r = city.controller_mut().step(&obs).map_err(err)?;
            w2_ms.push(ms(t.elapsed()));
            hash_report(&mut fp2, &r);
        }
        rep.check(
            "scale_workers_agree",
            fp1.hex() == fp2.hex(),
            format!(
                "{SCALE_SLOTS} slots: {} at 1 worker, {} at 2",
                fp1.hex(),
                fp2.hex()
            ),
        );
        rep.attempted += SCALE_SLOTS as u64;
    }

    let layout = scenario.build_layout();
    let d_cut = scenario
        .cutoff_radius_m()
        .ok_or("the city scenario prunes interference")?;
    let mut grid = GridIndex::new(d_cut, scenario.area_m, scenario.area_m);
    for &p in &layout.positions {
        grid.insert(p);
    }

    // Probes: the scatter, per-cluster solve, global S4 and gather have no
    // public seam, so the kernels they run are timed on inputs of the same
    // size instead.
    let s4 = S4Fixture::new(layout.len(), ctx.seed);
    let input = s4.input();
    let (mut ws, mut out) = (S4Workspace::new(), EnergyOutcome::empty());
    let mut s4_ms = Samples::new();
    for _ in 0..S4_PROBE_CALLS {
        let t = Instant::now();
        solve_energy_management_warm_into(&input, &mut ws, &mut out).map_err(err)?;
        s4_ms.push(ms(t.elapsed()));
        black_box(out.grid_draw);
    }
    let s1 = S1Fixture::new(largest.max(2), ctx.seed);
    let inputs = s1.inputs();
    let (mut scratch, mut schedule) = (S1Scratch::new(), ScheduleOutcome::empty());
    let mut s1_us = Samples::new();
    for _ in 0..S1_PROBE_CALLS {
        let t = Instant::now();
        greedy_schedule_with(&inputs, &mut scratch, &mut schedule);
        s1_us.push(us(t.elapsed()));
        black_box(schedule.schedule.len());
    }

    rep.metric("scale.observe.p50_us", observe_us.median(), "us");
    rep.metric("scale.step_w1.p50_ms", w1_ms.median(), "ms");
    if parallel {
        let (t1, t2) = (w1_ms.median(), w2_ms.median());
        rep.metric("scale.step_w2.p50_ms", t2, "ms");
        // Amdahl on two workers: t2 = t1·(f + (1 − f)/2), so f = 2·t2/t1 − 1.
        rep.metric("scale.serial_share", 2.0 * t2 / t1 - 1.0, "share");
    } else {
        rep.metric_value("scale.step_w2.p50_ms", Value::NotMeasured, "ms");
        rep.metric_value("scale.serial_share", Value::NotMeasured, "share");
    }
    rep.metric("scale.clusters", clusters as f64, "count");
    rep.metric("scale.largest_cluster", largest as f64, "count");
    rep.metric(
        "scale.occupied_cells",
        grid.occupied_cells() as f64,
        "count",
    );
    rep.metric("probe.s4_city.p50_ms", s4_ms.median(), "ms");
    rep.metric("probe.s1_cluster.p50_us", s1_us.median(), "us");
    rep.note_timing("scale.step_w1_ms", &w1_ms, "ms");
    rep.note_timing("scale.step_w2_ms", &w2_ms, "ms");
    rep.note_str(
        "probes",
        &format!(
            "probe.* are kernel probes, not spans: probe.s4_city runs \
             solve_energy_management_warm_into on a synthetic {}-node input and \
             probe.s1_cluster runs greedy_schedule_with on a synthetic {}-node \
             network; they stand in for the city slot's scatter, cluster-solve, \
             global-S4 and gather internals, which have no public seam",
            layout.len(),
            largest.max(2)
        ),
    );
    Ok(())
}

/// One `serve` session for the snapshot layer, the parser timed on its
/// lines, and a replay of its observations for the dynamic network state.
fn serve(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let input = ServeInput::new(derive_point_seed(ctx.seed, 0), SERVE_DECISION_LINES)?;
    let session = run_session(&input)?;
    for (name, ok, detail) in session.checks() {
        rep.check(name, ok, detail);
    }
    rep.attempted += SERVE_DECISION_LINES as u64;

    let mut parse_us = Samples::new();
    let mut parsed = Vec::with_capacity(input.lines.len());
    for line in &input.lines {
        let t = Instant::now();
        let v = json::parse(line.trim_end());
        parse_us.push(us(t.elapsed()));
        parsed.push(v.map_err(err)?);
    }

    let mut sim = Simulator::new(&input.scenario).map_err(err)?;
    let mut asleep = 0.0;
    for (k, v) in parsed.iter().enumerate() {
        let obs = decode(&input.scenario, v, k)?;
        sim.step_with_observation(&obs).map_err(err)?;
        let state = sim
            .controller()
            .network_state()
            .ok_or("serve runs with the dynamic network state on")?;
        asleep += state.asleep_bs_count() as f64;
    }
    let state = sim
        .controller()
        .network_state()
        .ok_or("serve runs with the dynamic network state on")?;
    // S2 keeps each source BS near V·λ packets of backlog even at zero
    // demand, far above the default sleep threshold, so on the paper
    // scenario the live part of the dynamic layer is cooperation.
    rep.check(
        "serve_cooperation_live",
        state.transferred_kwh() > 0.0,
        format!("{} kWh transferred", state.transferred_kwh()),
    );
    rep.check(
        "serve_replay_matches_session",
        Some(sim.metrics().average_cost()) == session.final_avg_cost,
        format!(
            "replayed avg_cost {} vs served {:?}",
            sim.metrics().average_cost(),
            session.final_avg_cost
        ),
    );

    let gaps = &session.snapshot_gap_ms;
    rep.metric(
        "snapshot.write_first_ms",
        gaps.first().copied().unwrap_or(0.0),
        "ms",
    );
    rep.metric(
        "snapshot.write_last_ms",
        gaps.last().copied().unwrap_or(0.0),
        "ms",
    );
    rep.metric("snapshot.bytes_last", session.snapshot_bytes as f64, "B");
    rep.metric("snapshot.restore_ms", session.restore_ms, "ms");
    rep.metric("serve.parse.p50_us", parse_us.median(), "us");
    rep.metric(
        "netstate.asleep_bs_mean",
        asleep / parsed.len() as f64,
        "count",
    );
    rep.metric(
        "netstate.sleep_transitions",
        state.sleep_transitions() as f64,
        "count",
    );
    rep.metric("netstate.transfer_kwh", state.transferred_kwh(), "kWh");
    rep.note_timing("serve.line_ms", &session.line_ms, "ms");
    rep.note("snapshots", gaps.len().to_string());
    Ok(())
}

/// Decodes one generated observation line the way the serve protocol
/// defines it (see `greencell_sim::serve`).
fn decode(s: &Scenario, v: &json::Value, slot: usize) -> Result<SlotObservation, String> {
    let list = |key: &str| {
        v.get(key)
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("line {slot}: no {key}"))
    };
    let nums = |key: &str| -> Result<Vec<f64>, String> {
        list(key)?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("line {slot}: bad {key}")))
            .collect()
    };
    let bools = |key: &str| -> Result<Vec<bool>, String> {
        list(key)?
            .iter()
            .map(|x| x.as_bool().ok_or_else(|| format!("line {slot}: bad {key}")))
            .collect()
    };
    Ok(SlotObservation {
        spectrum: SpectrumState::new(
            nums("bands_mhz")?
                .into_iter()
                .map(Bandwidth::from_megahertz)
                .collect(),
        ),
        renewable: nums("renewable_w")?
            .into_iter()
            .map(|w| Power::from_watts(w) * s.slot)
            .collect(),
        grid_connected: bools("grid")?,
        session_demand: nums("demand")?
            .into_iter()
            .map(|d| Packets::new(d as u64))
            .collect(),
        price_multiplier: s.pricing.multiplier(slot),
        node_available: if v.get("available").is_some() {
            bools("available")?
        } else {
            Vec::new()
        },
    })
}

/// The sweep driver at 1 and 2 threads, and the relaxed lower-bound
/// controller on one point's observations.
fn sweep(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let points = sweep_points(ctx.seed);
    let t = Instant::now();
    let report = run_sweep(&points, &SweepOptions::with_threads(ctx.threads)).map_err(err)?;
    let t_par = t.elapsed().as_secs_f64();
    rep.attempted += points.len() as u64;
    rep.check(
        "sweep_every_point_returns",
        report.outcomes.len() == points.len(),
        format!("{} of {} points", report.outcomes.len(), points.len()),
    );
    if ctx.threads >= 2 {
        let t = Instant::now();
        let serial = run_sweep(&points, &SweepOptions::serial()).map_err(err)?;
        let t_ser = t.elapsed().as_secs_f64();
        rep.attempted += points.len() as u64;
        rep.check(
            "sweep_threads_agree",
            serial
                .outcomes
                .iter()
                .zip(&report.outcomes)
                .all(|(a, b)| a.metrics == b.metrics),
            "per-point metrics at 1 and 2 threads",
        );
        rep.metric(
            "sweep.parallel_efficiency",
            t_ser / (t_par * ctx.threads as f64),
            "share",
        );
    } else {
        rep.metric_value("sweep.parallel_efficiency", Value::NotMeasured, "share");
    }

    let mut point_ms = Samples::new();
    let mut gap = 0.0;
    let mut violations = 0;
    for o in &report.outcomes {
        point_ms.push(ms(o.telemetry.wall));
        let (cost, bound) = (
            o.metrics.average_cost(),
            o.metrics.lower_bound().unwrap_or(f64::INFINITY),
        );
        violations += usize::from(bound > cost);
        gap += cost - bound;
    }
    rep.check(
        "sweep_theorem5_bound_below_cost",
        violations == 0,
        format!("{violations} of {} points have bound > cost", points.len()),
    );
    let mut render_ms = Samples::new();
    for _ in 0..REPORT_RENDERS {
        let t = Instant::now();
        black_box(report.telemetry_json().len());
        render_ms.push(ms(t.elapsed()));
    }

    let mut scenario = points[0].scenario.clone();
    scenario.track_lower_bound = false;
    let (_, observations) = Simulator::new(&scenario)
        .and_then(|mut s| s.run_recording())
        .map_err(err)?;
    let net = scenario.build_network().map_err(err)?;
    let energy = scenario.energy_config(&net);
    let mut relaxed =
        RelaxedController::new(net, scenario.phy(), energy, scenario.controller_config());
    let mut bound_us = Samples::new();
    for obs in &observations {
        let t = Instant::now();
        black_box(relaxed.step(obs));
        bound_us.push(us(t.elapsed()));
    }
    let mut sim = Simulator::new(&scenario).map_err(err)?;
    let mut control_us = Samples::new();
    for obs in &observations {
        let t = Instant::now();
        sim.step_with_observation(obs).map_err(err)?;
        control_us.push(us(t.elapsed()));
    }

    rep.metric("lower_bound.step.p50_us", bound_us.median(), "us");
    rep.metric(
        "lower_bound.share",
        bound_us.sum() / (bound_us.sum() + control_us.sum()),
        "share",
    );
    rep.metric(
        "lower_bound.cost_gap",
        gap / report.outcomes.len() as f64,
        "cost",
    );
    rep.metric("sweep.point.p50_ms", point_ms.median(), "ms");
    rep.metric("sweep.point.max_ms", point_ms.max(), "ms");
    rep.metric("sweep.report_ms", render_ms.median(), "ms");
    rep.note_timing("sweep.point_ms", &point_ms, "ms");
    Ok(())
}
