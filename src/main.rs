//! The `greencell` command-line interface: one binary for running
//! scenarios, regenerating every paper figure, and sweeping the extension
//! knobs. Run `greencell help` for usage.

use greencell::cli::{parse, Action, Command, USAGE};
use greencell::sim::{
    experiments, report, run_sweep, sweep, FaultSpec, RunMetrics, Simulator, SweepOptions,
    SweepPoint, SweepReport,
};
use greencell_trace::RingSink;
use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Output::default();
    let done = dispatch(&command, &mut out).and_then(|()| Ok(out.flush()?));
    // A reader that went away (`| head`) ends the command, not as a failure.
    if let Err(e) = done {
        if !out.closed {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The CLI's standard output: every command writes its report through
/// this one writer. A write that fails because the reader closed the pipe
/// marks it closed, so `main` can end the command quietly.
#[derive(Default)]
struct Output {
    closed: bool,
}

impl Output {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = io::stdout().write(buf);
        self.note(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        let flushed = io::stdout().flush();
        self.note(flushed)
    }
}

type Out<'a> = &'a mut dyn Write;

fn dispatch(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    match cmd.action {
        Action::Help => Ok(write!(out, "{USAGE}")?),
        Action::Run => run_once(cmd, out),
        Action::Fig2a => fig2a(cmd, out),
        Action::Fig2bc => fig2bc(cmd, out),
        Action::Fig2de => fig2de(cmd, out),
        Action::Fig2f => fig2f(cmd, out),
        Action::Sweeps => sweeps(cmd, out),
        Action::Faults => faults(cmd, out),
        Action::Trace => trace(cmd, out),
        Action::Serve => serve(cmd, out),
        Action::Frontier => frontier(cmd, out),
    }
}

fn frontier(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let map = greencell_sim::run_frontier(&cmd.scenario, &cmd.frontier, &SweepOptions::from_env())?;
    writeln!(
        out,
        "# frontier — avg energy cost vs avg total backlog across V \
         ({} point(s), {} refinement round(s), {}, worst gap {:.4})",
        map.stats.sims_run,
        map.stats.rounds,
        if map.stats.converged {
            "converged"
        } else {
            "budget exhausted"
        },
        map.stats.worst_gap,
    )?;
    writeln!(
        out,
        "{:>14} {:>14} {:>16} {:>6}",
        "V", "avg cost", "avg backlog", "round"
    )?;
    for p in &map.points {
        writeln!(
            out,
            "{:>14.6e} {:>14.6} {:>16.2} {:>6}",
            p.v, p.avg_cost, p.avg_backlog, p.round
        )?;
    }
    write_artifacts(
        cmd,
        &[("frontier.json", &map.json()), ("frontier.csv", &map.csv())],
    )
}

fn serve(cmd: &Command, mut out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let stdin = io::stdin();
    let summary = greencell::sim::run_serve(&cmd.scenario, &cmd.serve, stdin.lock(), &mut out)?;
    eprintln!(
        "serve: {} slot(s) stepped ({} total), {} line(s) rejected, {} snapshot(s), stopped: {}",
        summary.slots_stepped,
        summary.total_slots,
        summary.rejected_lines,
        summary.snapshots_written,
        summary.stop_reason.as_str()
    );
    if summary.stop_reason == greencell::sim::StopReason::ErrorBudgetExhausted {
        return Err("serve stopped: malformed-input budget exhausted".into());
    }
    Ok(())
}

fn trace(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    // `--check` compares one worker against this many.
    const CHECK_WORKERS: usize = 4;
    let (preset, seed) = (cmd.preset, cmd.scenario.seed);
    // The seed+1 twin exercises the trace merge path even in a quick run.
    let mut twin = cmd.scenario.clone();
    twin.seed = seed.wrapping_add(1);
    let points = [
        SweepPoint::new(format!("{preset}_seed{seed}"), cmd.scenario.clone()),
        SweepPoint::new(format!("{preset}_seed{}", twin.seed), twin),
    ];
    let capacity = RingSink::DEFAULT_CAPACITY;
    let run = if cmd.check {
        let run = greencell_sim::check_trace_determinism(&points, CHECK_WORKERS, capacity)
            .map_err(|e| format!("determinism check FAILED: {e}"))?;
        eprintln!(
            "determinism check passed: deterministic section byte-identical \
             at 1 and {CHECK_WORKERS} workers; chrome trace JSON parses"
        );
        run
    } else {
        greencell_sim::trace_points(&points, &SweepOptions::from_env(), capacity)?
    };
    let dir = cmd.out_dir.clone().unwrap_or_else(|| "results".into());
    let paths = greencell_sim::write_trace_artifacts(&run, &dir, preset)?;
    for p in &paths {
        eprintln!("wrote {}", p.display());
    }
    writeln!(out, "{}", run.bundle.summary().render())?;
    for o in &run.report.outcomes {
        writeln!(
            out,
            "{}: avg cost {:.6}, delivered {}, {:.0} slots/s",
            o.label,
            o.metrics.average_cost(),
            o.metrics.delivered(),
            o.telemetry.slots_per_sec
        )?;
    }
    Ok(())
}

fn run_once(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = Simulator::new(&cmd.scenario)?;
    let metrics = sim.run()?.clone();
    writeln!(
        out,
        "scenario: {} nodes, {} sessions, {} slots, V={:.3e}, seed {}",
        sim.controller().node_count(),
        sim.controller().session_count(),
        cmd.scenario.horizon,
        cmd.scenario.v,
        cmd.scenario.seed,
    )?;
    writeln!(out, "avg energy cost f(P): {:.6}", metrics.average_cost())?;
    writeln!(
        out,
        "grid drawn total:     {:.4} kWh",
        metrics.grid_series().values().iter().sum::<f64>()
    )?;
    writeln!(
        out,
        "delivered:            {} packets (fairness {:.3})",
        metrics.delivered(),
        metrics.delivery_fairness()
    )?;
    writeln!(
        out,
        "peak backlogs:        BS {:.0}, users {:.0} packets",
        metrics.backlog_bs_series().max().unwrap_or(0.0),
        metrics.backlog_users_series().max().unwrap_or(0.0)
    )?;
    writeln!(
        out,
        "cost per slot:        {}",
        report::sparkline(metrics.cost_series())
    )?;
    writeln!(
        out,
        "BS backlog:           {}",
        report::sparkline(metrics.backlog_bs_series())
    )?;
    if let Some(bound) = metrics.lower_bound() {
        writeln!(out, "lower bound ψ̄ − B/V:  {bound:.3e}")?;
    }
    if metrics.shed() > 0 {
        writeln!(out, "WARNING: {} transmissions shed", metrics.shed())?;
    }
    Ok(())
}

/// The sweep engine for a figure action: `GREENCELL_THREADS` workers,
/// announced on stderr.
fn sweep_options(action: &str, cmd: &Command) -> SweepOptions {
    let opts = SweepOptions::from_env();
    eprintln!(
        "{action}: {} scenario, seed {}, horizon {}, {} worker(s)",
        cmd.preset, cmd.scenario.seed, cmd.scenario.horizon, opts.threads
    );
    opts
}

/// Writes a figure action's per-run telemetry to
/// `results/<stem>_telemetry.{json,csv}`.
fn telemetry(report: &SweepReport, stem: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (json, csv) = sweep::write_telemetry(report, stem)?;
    eprintln!(
        "telemetry: {} and {} ({:.2}s total)",
        json.display(),
        csv.display(),
        report.total_wall.as_secs_f64()
    );
    Ok(())
}

fn fig2a(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd
        .v_values
        .clone()
        .unwrap_or_else(|| (1..=10).map(|k| k as f64 * 1e5).collect());
    let opts = sweep_options("fig2a", cmd);
    let (rows, report) = experiments::fig2a(&cmd.scenario, &v_values, &opts)?;
    writeln!(
        out,
        "# Fig 2(a) — time-averaged expected energy cost bounds vs V"
    )?;
    write!(out, "{}", report::bounds_table(&rows))?;
    let tight = rows
        .windows(2)
        .all(|w| (w[1].upper - w[1].lower) <= (w[0].upper - w[0].lower) + 1e-9);
    writeln!(out, "# gap monotonically tightening with V: {tight}")?;
    let mut csv = String::from("v,upper_cost,lower_cost,relaxed_cost,gap,upper_psi,lower_psi\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.v, r.upper, r.lower, r.relaxed_cost, r.gap, r.upper_psi, r.lower_psi
        ));
    }
    write_artifacts(cmd, &[("fig2a.csv", &csv)])?;
    telemetry(&report, "fig2a")
}

fn fig2bc(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd
        .v_values
        .clone()
        .unwrap_or_else(|| (1..=5).map(|k| k as f64 * 1e5).collect());
    let opts = sweep_options("fig2bc", cmd);
    let report = experiments::v_sweep(&cmd.scenario, &v_values, &opts)?;
    let bs = report::series_csv(&v_values, &report.outcomes, RunMetrics::backlog_bs_series)?;
    let users = report::series_csv(
        &v_values,
        &report.outcomes,
        RunMetrics::backlog_users_series,
    )?;
    writeln!(
        out,
        "# Fig 2(b) — total data queue backlog of base stations (packets)"
    )?;
    write!(out, "{bs}")?;
    writeln!(
        out,
        "# Fig 2(c) — total data queue backlog of mobile users (packets)"
    )?;
    write!(out, "{users}")?;
    for (v, o) in v_values.iter().zip(&report.outcomes) {
        let (bs, users) = (
            o.metrics.backlog_bs_series(),
            o.metrics.backlog_users_series(),
        );
        writeln!(
            out,
            "# V={v:.0e}: BS final={:.0} peak={:.0}; users final={:.0} peak={:.0}",
            bs.last().unwrap_or(0.0),
            bs.max().unwrap_or(0.0),
            users.last().unwrap_or(0.0),
            users.max().unwrap_or(0.0),
        )?;
        writeln!(out, "#   BS    {}", report::sparkline(bs))?;
        writeln!(out, "#   users {}", report::sparkline(users))?;
    }
    write_artifacts(cmd, &[("fig2b.csv", &bs), ("fig2c.csv", &users)])?;
    telemetry(&report, "fig2bc")
}

fn fig2de(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd
        .v_values
        .clone()
        .unwrap_or_else(|| (1..=5).map(|k| k as f64 * 1e5).collect());
    // Start buffers empty so the fill-up dynamics of Fig. 2(d)/(e) show.
    let mut scenario = cmd.scenario.clone();
    scenario.initial_battery_fraction = 0.0;
    let opts = sweep_options("fig2de", cmd);
    let report = experiments::v_sweep(&scenario, &v_values, &opts)?;
    let bs = report::series_csv(&v_values, &report.outcomes, RunMetrics::buffer_bs_series)?;
    let users = report::series_csv(&v_values, &report.outcomes, RunMetrics::buffer_users_series)?;
    writeln!(
        out,
        "# Fig 2(d) — total energy buffer size of base stations (kWh)"
    )?;
    write!(out, "{bs}")?;
    writeln!(
        out,
        "# Fig 2(e) — total energy buffer size of mobile users (Wh)"
    )?;
    write!(out, "{users}")?;
    for (v, o) in v_values.iter().zip(&report.outcomes) {
        let (bs, users) = (
            o.metrics.buffer_bs_series(),
            o.metrics.buffer_users_series(),
        );
        writeln!(
            out,
            "# V={v:.0e}: BS final={:.3} kWh; users final={:.1} Wh",
            bs.last().unwrap_or(0.0),
            users.last().unwrap_or(0.0),
        )?;
        writeln!(out, "#   BS    {}", report::sparkline(bs))?;
        writeln!(out, "#   users {}", report::sparkline(users))?;
    }
    write_artifacts(cmd, &[("fig2d.csv", &bs), ("fig2e.csv", &users)])?;
    telemetry(&report, "fig2de")
}

fn fig2f(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd.v_values.clone().unwrap_or_else(|| vec![1e5, 3e5, 5e5]);
    // Apply the documented Fig 2(f) calibration unless the user changed
    // those fields themselves.
    let mut scenario = cmd.scenario.clone();
    let defaults = greencell::sim::Scenario::paper(scenario.seed);
    if scenario.noise_density == defaults.noise_density {
        let calibrated = greencell::sim::Scenario::fig2f_calibrated(scenario.seed);
        scenario.noise_density = calibrated.noise_density;
        scenario.recv_power = calibrated.recv_power;
        scenario.initial_battery_fraction = calibrated.initial_battery_fraction;
    }
    let opts = sweep_options("fig2f", cmd);
    let (rows, report) = experiments::fig2f(&scenario, &v_values, &opts)?;
    writeln!(
        out,
        "# Fig 2(f) — time-averaged expected energy cost by architecture"
    )?;
    write!(out, "{}", report::architecture_table(&rows, &v_values))?;
    let ours: f64 = rows[0].costs.iter().sum();
    let best_other = rows[1..]
        .iter()
        .map(|r| r.costs.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    writeln!(
        out,
        "# proposed beats best baseline: {} ({}).",
        ours <= best_other,
        if best_other > 0.0 {
            format!("ratio {:.3}", ours / best_other)
        } else {
            "baseline cost is zero".to_string()
        }
    )?;
    let csv = report::architecture_csv(&rows, &v_values);
    write_artifacts(cmd, &[("fig2f.csv", &csv)])?;
    telemetry(&report, "fig2f")
}

fn sweeps(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let base = &cmd.scenario;
    let opts = sweep_options("sweeps", cmd);
    let mut combined = SweepReport {
        outcomes: Vec::new(),
        threads: opts.threads,
        total_wall: std::time::Duration::ZERO,
    };
    for (title, xlabel, (points, report)) in [
        (
            "user-count sweep (relay density)",
            "users",
            experiments::sweep_users(base, &[5, 10, 20, 40], &opts)?,
        ),
        (
            "session-count sweep (offered load)",
            "sessions",
            experiments::sweep_sessions(base, &[2, 5, 10, 15], &opts)?,
        ),
        (
            "extra-band sweep (spectrum supply)",
            "bands",
            experiments::sweep_bands(base, &[0, 2, 4, 8], &opts)?,
        ),
    ] {
        writeln!(out, "# {title}")?;
        writeln!(
            out,
            "{xlabel:>10} {:>12} {:>12} {:>14} {:>10}",
            "avg cost", "delivered", "peak backlog", "links/slot"
        )?;
        for p in &points {
            writeln!(
                out,
                "{:>10} {:>12.6} {:>12} {:>14.0} {:>10.2}",
                p.x, p.avg_cost, p.delivered, p.peak_backlog, p.mean_scheduled
            )?;
        }
        writeln!(out)?;
        combined.outcomes.extend(report.outcomes);
        combined.total_wall += report.total_wall;
    }
    let (rep, report) = experiments::replicate(base, &[1, 7, 13, 42, 99], &opts)?;
    writeln!(out, "# replication across seeds {:?}", rep.seeds)?;
    writeln!(
        out,
        "cost {:.6} ± {:.6}; delivered {:.0}; peak backlog {:.0}",
        rep.mean_cost, rep.std_cost, rep.mean_delivered, rep.mean_peak_backlog
    )?;
    combined.outcomes.extend(report.outcomes);
    combined.total_wall += report.total_wall;
    telemetry(&combined, "sweeps")
}

/// The robustness sweep: the scenario fault-free and under four fault
/// presets, with each run's degradation counts and watchdog verdict. The
/// deterministic record goes to `results/fault_sweep_stability.json`;
/// a divergent run fails the command after everything is written.
fn faults(cmd: &Command, out: Out<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let horizon = cmd.scenario.horizon;
    let points: Vec<SweepPoint> = [
        ("baseline", None),
        ("bs_outage", Some(FaultSpec::bs_outage())),
        (
            "renewable_drought",
            Some(FaultSpec::renewable_drought(horizon / 4, horizon / 2)),
        ),
        (
            "price_spike",
            Some(FaultSpec::price_spike(horizon / 4, horizon / 2, 6.0)),
        ),
        ("band_loss", Some(FaultSpec::band_loss())),
    ]
    .into_iter()
    .map(|(label, faults)| {
        let mut scenario = cmd.scenario.clone();
        scenario.faults = faults;
        SweepPoint::new(label, scenario)
    })
    .collect();
    let report = run_sweep(&points, &sweep_options("faults", cmd))?;
    writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "scenario", "degraded", "events", "shed", "avg cost", "slope", "verdict"
    )?;
    for o in &report.outcomes {
        let t = &o.telemetry;
        writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>8} {:>12.6} {:>12.3} {:>10}",
            o.label,
            t.degraded_slots,
            t.degradation_events,
            o.metrics.shed(),
            o.metrics.average_cost(),
            t.watchdog.trailing_slope,
            if t.watchdog.stable {
                "stable"
            } else {
                "DIVERGENT"
            },
        )?;
    }
    telemetry(&report, "fault_sweep")?;
    let stability = std::path::Path::new("results").join("fault_sweep_stability.json");
    report.write_stability_json(&stability)?;
    eprintln!("stability record: {}", stability.display());
    if report.outcomes.iter().any(|o| !o.telemetry.watchdog.stable) {
        return Err("the stability watchdog flagged divergence".into());
    }
    Ok(())
}

fn write_artifacts(
    cmd: &Command,
    files: &[(&str, &str)],
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(dir) = &cmd.out_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        for (name, contents) in files {
            greencell_sim::write_text_atomic(&dir.join(name), contents)?;
        }
        eprintln!("wrote {} file(s) to {}", files.len(), dir.display());
    }
    Ok(())
}
