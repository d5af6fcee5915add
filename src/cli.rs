//! Hand-rolled argument parsing for the `greencell` CLI.
//!
//! No third-party parser: the grammar is one subcommand plus `--key value`
//! flags, small enough that explicit code is clearer than a dependency.

use greencell_core::SchedulerKind;
use greencell_sim::{
    Architecture, DemandModel, FaultSpec, FrontierOptions, GridModel, Scenario, ServeConfig,
    TouPricing,
};
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// What to run.
    pub action: Action,
    /// The fully-resolved scenario after applying every flag.
    pub scenario: Scenario,
    /// The base scenario the flags started from: `"paper"`, `"tiny"` or
    /// `"city"` (names trace points and artifacts).
    pub preset: &'static str,
    /// `--check` — verify the trace determinism contract (meaningful for
    /// [`Action::Trace`] only).
    pub check: bool,
    /// Lyapunov-weight sweep for the figure actions (defaults per figure).
    pub v_values: Option<Vec<f64>>,
    /// Output directory for CSV artifacts, if requested.
    pub out_dir: Option<String>,
    /// Service-mode tunables (meaningful for [`Action::Serve`] only):
    /// `--snapshot-every`, `--status-every`, `--error-budget` and
    /// `--state-dir`.
    pub serve: ServeConfig,
    /// Frontier-search tunables (meaningful for [`Action::Frontier`] only):
    /// `--v-min`, `--v-max`, `--max-gap`, `--budget` and `--init-points`.
    pub frontier: FrontierOptions,
}

/// The CLI's subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run one scenario and print a summary.
    Run,
    /// Fig. 2(a): cost bounds vs V.
    Fig2a,
    /// Fig. 2(b)/(c): backlogs over time.
    Fig2bc,
    /// Fig. 2(d)/(e): energy buffers over time.
    Fig2de,
    /// Fig. 2(f): architecture comparison.
    Fig2f,
    /// Structural sweeps + replication.
    Sweeps,
    /// Robustness sweep: the scenario fault-free and under four fault
    /// presets, with the stability watchdog's verdicts.
    Faults,
    /// Traced run: chrome-trace export + stage-latency histograms.
    Trace,
    /// Long-running service: observations on stdin, events on stdout,
    /// auto-snapshot/restore through a state directory.
    Serve,
    /// Adaptive V-frontier search: one-command Fig. 2(e)/(f)-style
    /// cost-vs-backlog frontier map (JSON + CSV).
    Frontier,
    /// Print usage.
    Help,
}

/// Error explaining what part of the invocation was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `greencell help`.
pub const USAGE: &str = "\
greencell — ICDCS 2014 green multi-hop cellular reproduction

USAGE:
    greencell <ACTION> [FLAGS]

ACTIONS:
    run      run one scenario and print a summary
    fig2a    cost bounds vs V            (paper Fig. 2(a))
    fig2bc   data-queue backlogs         (paper Fig. 2(b)/(c))
    fig2de   energy buffers              (paper Fig. 2(d)/(e))
    fig2f    architecture comparison     (paper Fig. 2(f))
    sweeps   structural sweeps + multi-seed replication
             (the figure actions and sweeps fan their points across
             GREENCELL_THREADS workers, default all cores, with
             bit-identical output, and write per-run telemetry to
             results/<action>_telemetry.{json,csv})
    faults   robustness sweep: the scenario fault-free and under the
             bs-outage, drought, price-spike and band-loss presets;
             prints each run's degradation and watchdog verdict, writes
             results/fault_sweep_{telemetry.{json,csv},stability.json},
             and exits non-zero if any run diverges (no --faults here)
    trace    traced run of the scenario and its seed+1 twin; writes a
             Perfetto-loadable chrome trace, a deterministic event dump,
             and a Fig. 2 time-series CSV (default under results/), then
             prints the stage-latency histogram summary
    serve    long-running service: JSON observation lines on stdin, JSON
             event lines (status gauges, watchdog verdicts, snapshot
             notices) on stdout; auto-snapshots to --state-dir and
             restores from the latest valid snapshot on startup
    frontier adaptive V-frontier search: bisects in log-V space wherever
             the cost-vs-backlog curve bends, and writes a Fig. 2(e)/(f)-
             style frontier map (frontier.json + frontier.csv via --out);
             each round's points fan across GREENCELL_THREADS workers,
             and the map is byte-identical at any worker count
    help     this text

FLAGS (all optional):
    --seed N            master seed                    [42]
    --horizon N         slots to simulate              [100]
    --v X               Lyapunov weight V              [1e5]
    --lambda X          admission reward λ             [0.02]
    --users N           mobile users                   [20]
    --sessions N        downlink sessions              [5]
    --scheduler S       greedy | sequential-fix        [greedy]
    --arch A            proposed | mh-no-re | oh-re | oh-no-re
    --demand M          constant | poisson             [constant]
    --grid M            iid | markov                   [iid]
    --tou PEAKX         periodic tariff with PEAKX multiplier (12-slot
                        period, 6 peak slots)          [flat]
    --tiny              use the small test scenario instead of the paper's
    --city N            synthetic city scenario with N users (Poisson-disk
                        BS placement, hotspots, diurnal traffic)
    --faults P          fault preset: bs-outage | drought | price-spike |
                        band-loss | chaos (windows scale to the horizon)
    --track-lower-bound co-run the relaxed lower-bound controller
    --bs-sleep          hysteresis BS sleeping: lightly-loaded base
                        stations power down, users re-associate   [off]
    --energy-coop       inter-BS energy cooperation: surplus renewable
                        offsets other BSs' grid draw (lossy)      [off]
    --out DIR           also write CSV artifacts to DIR

TRACE FLAGS:
    --check             also verify determinism: the chrome trace parses
                        and the deterministic section is byte-identical
                        at 1 and 4 workers; exits non-zero otherwise

SERVE FLAGS:
    --state-dir DIR     snapshot directory (enables crash recovery)
    --snapshot-every N  auto-snapshot period in slots, 0 = off  [50]
    --status-every N    status-event period in slots, 0 = off   [10]
    --error-budget N    malformed lines tolerated before stop   [10]

FRONTIER FLAGS:
    --v-min X           smallest Lyapunov weight        [1e5]
    --v-max X           largest Lyapunov weight         [1e6]
    --max-gap X         normalized refinement tolerance [0.25]
    --budget N          simulation-point ceiling        [32]
    --init-points N     initial log-spaced grid size    [5]
";

fn parse_flag_value<T: std::str::FromStr>(key: &str, value: Option<&str>) -> Result<T, ParseError> {
    let raw = value.ok_or_else(|| ParseError(format!("flag {key} needs a value")))?;
    raw.parse()
        .map_err(|_| ParseError(format!("invalid value for {key}: {raw}")))
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] with a human-readable message on unknown
/// actions, unknown flags, or malformed values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str).peekable();
    let action = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Action::Help,
        Some("run") => Action::Run,
        Some("fig2a") => Action::Fig2a,
        Some("fig2bc") => Action::Fig2bc,
        Some("fig2de") => Action::Fig2de,
        Some("fig2f") => Action::Fig2f,
        Some("sweeps") => Action::Sweeps,
        Some("faults") => Action::Faults,
        Some("trace") => Action::Trace,
        Some("serve") => Action::Serve,
        Some("frontier") => Action::Frontier,
        Some(other) => return Err(ParseError(format!("unknown action: {other}"))),
    };

    let mut seed = 42u64;
    let mut tiny = false;
    let mut city: Option<usize> = None;
    let mut fault_preset: Option<String> = None;
    let mut scenario_edits: Vec<(String, String)> = Vec::new();
    let mut track_lower = false;
    let mut bs_sleep = false;
    let mut energy_coop = false;
    let mut check = false;
    let mut out_dir = None;
    let mut v_values = None;
    let mut serve = ServeConfig::default();
    let mut frontier = FrontierOptions::new(1e5, 1e6);

    while let Some(flag) = it.next() {
        match flag {
            "--v-min" => frontier.v_min = parse_flag_value(flag, it.next())?,
            "--v-max" => frontier.v_max = parse_flag_value(flag, it.next())?,
            "--max-gap" => frontier.max_gap = parse_flag_value(flag, it.next())?,
            "--budget" => frontier.budget = parse_flag_value(flag, it.next())?,
            "--init-points" => frontier.init_points = parse_flag_value(flag, it.next())?,
            "--snapshot-every" => serve.snapshot_every = parse_flag_value(flag, it.next())?,
            "--status-every" => serve.status_every = parse_flag_value(flag, it.next())?,
            "--error-budget" => serve.error_budget = parse_flag_value(flag, it.next())?,
            "--state-dir" => {
                serve.state_dir = Some(
                    it.next()
                        .ok_or_else(|| ParseError("--state-dir needs a directory".into()))?
                        .into(),
                );
            }
            "--seed" => seed = parse_flag_value(flag, it.next())?,
            "--tiny" => tiny = true,
            "--city" => city = Some(parse_flag_value(flag, it.next())?),
            "--faults" => {
                fault_preset = Some(
                    it.next()
                        .ok_or_else(|| ParseError("--faults needs a preset name".into()))?
                        .to_string(),
                );
            }
            "--track-lower-bound" => track_lower = true,
            "--bs-sleep" => bs_sleep = true,
            "--energy-coop" => energy_coop = true,
            "--check" => check = true,
            "--out" => {
                out_dir = Some(
                    it.next()
                        .ok_or_else(|| ParseError("--out needs a directory".into()))?
                        .to_string(),
                );
            }
            "--v-values" => {
                let raw: String = parse_flag_value(flag, it.next())?;
                let parsed: Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
                v_values = Some(parsed.map_err(|_| ParseError(format!("invalid V list: {raw}")))?);
            }
            "--horizon" | "--v" | "--lambda" | "--users" | "--sessions" | "--scheduler"
            | "--arch" | "--demand" | "--grid" | "--tou" => {
                let value = it
                    .next()
                    .ok_or_else(|| ParseError(format!("flag {flag} needs a value")))?;
                scenario_edits.push((flag.to_string(), value.to_string()));
            }
            other => return Err(ParseError(format!("unknown flag: {other}"))),
        }
    }

    let (preset, mut scenario) = match city {
        Some(users) => {
            if tiny {
                return Err(ParseError(
                    "--tiny and --city are mutually exclusive".into(),
                ));
            }
            let n_bs = (users / 50).max(2);
            let city = Scenario::city(users, n_bs, Scenario::default_city_area(n_bs), seed);
            ("city", city)
        }
        None if tiny => ("tiny", Scenario::tiny(seed)),
        None => ("paper", Scenario::paper(seed)),
    };
    scenario.track_lower_bound = track_lower;
    for (key, value) in &scenario_edits {
        apply_edit(&mut scenario, key, value)?;
    }
    if action == Action::Faults && fault_preset.is_some() {
        return Err(ParseError(
            "faults sets each point's fault plan itself; drop --faults".into(),
        ));
    }
    if let Some(name) = &fault_preset {
        // Applied after the edits so preset windows scale to the final
        // horizon, not the base scenario's. The preset registry lives
        // with `FaultSpec` so the simulator and CLI agree on the names.
        scenario.faults = Some(
            FaultSpec::from_preset(name, scenario.horizon)
                .map_err(|e| ParseError(e.to_string()))?,
        );
    }
    if bs_sleep {
        scenario.bs_sleep = Some(scenario.default_sleep_policy());
    }
    if energy_coop {
        scenario.energy_coop = Some(scenario.default_coop_policy());
    }

    Ok(Command {
        action,
        scenario,
        preset,
        check,
        v_values,
        out_dir,
        serve,
        frontier,
    })
}

fn apply_edit(s: &mut Scenario, key: &str, value: &str) -> Result<(), ParseError> {
    match key {
        "--horizon" => s.horizon = parse_flag_value(key, Some(value))?,
        "--v" => s.v = parse_flag_value(key, Some(value))?,
        "--lambda" => s.lambda = parse_flag_value(key, Some(value))?,
        "--users" => s.users = parse_flag_value(key, Some(value))?,
        "--sessions" => s.sessions = parse_flag_value(key, Some(value))?,
        "--scheduler" => {
            s.scheduler = match value {
                "greedy" => SchedulerKind::Greedy,
                "sequential-fix" | "sf" => SchedulerKind::SequentialFix,
                other => return Err(ParseError(format!("unknown scheduler: {other}"))),
            }
        }
        "--arch" => {
            s.architecture = match value {
                "proposed" => Architecture::Proposed,
                "mh-no-re" => Architecture::MultiHopNoRenewable,
                "oh-re" => Architecture::OneHopRenewable,
                "oh-no-re" => Architecture::OneHopNoRenewable,
                other => return Err(ParseError(format!("unknown architecture: {other}"))),
            }
        }
        "--demand" => {
            s.demand_model = match value {
                "constant" => DemandModel::Constant,
                "poisson" => DemandModel::Poisson,
                other => return Err(ParseError(format!("unknown demand model: {other}"))),
            }
        }
        "--grid" => {
            s.grid_model = match value {
                "iid" => GridModel::Iid,
                "markov" => GridModel::Markov {
                    stay_on: 0.95,
                    stay_off: 0.9,
                },
                other => return Err(ParseError(format!("unknown grid model: {other}"))),
            }
        }
        "--tou" => {
            let peak: f64 = parse_flag_value(key, Some(value))?;
            s.pricing = TouPricing::Periodic {
                period_slots: 12,
                peak_slots: 6,
                peak_multiplier: peak,
            };
        }
        _ => return Err(ParseError(format!("unknown flag: {key}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap().action, Action::Help);
        assert_eq!(parse(&argv("help")).unwrap().action, Action::Help);
        assert_eq!(parse(&argv("--help")).unwrap().action, Action::Help);
    }

    #[test]
    fn run_with_flags() {
        let cmd = parse(&argv("run --seed 7 --horizon 50 --v 3e5 --users 10")).unwrap();
        assert_eq!(cmd.action, Action::Run);
        assert_eq!(cmd.scenario.seed, 7);
        assert_eq!(cmd.scenario.horizon, 50);
        assert_eq!(cmd.scenario.v, 3e5);
        assert_eq!(cmd.scenario.users, 10);
    }

    #[test]
    fn figure_actions_parse() {
        for (name, action) in [
            ("fig2a", Action::Fig2a),
            ("fig2bc", Action::Fig2bc),
            ("fig2de", Action::Fig2de),
            ("fig2f", Action::Fig2f),
            ("sweeps", Action::Sweeps),
            ("trace", Action::Trace),
        ] {
            assert_eq!(parse(&argv(name)).unwrap().action, action);
        }
    }

    #[test]
    fn faults_action() {
        let cmd = parse(&argv("faults --seed 7 --horizon 30")).unwrap();
        assert_eq!(cmd.action, Action::Faults);
        assert_eq!((cmd.scenario.seed, cmd.scenario.horizon), (7, 30));
        assert_eq!(cmd.scenario.faults, None);
        let defaults = parse(&argv("faults")).unwrap();
        assert_eq!(
            (defaults.scenario.seed, defaults.scenario.horizon),
            (42, 100)
        );
        // The action picks each point's fault plan; a preset is refused.
        let err = parse(&argv("faults --faults drought")).unwrap_err();
        assert!(err.0.contains("drop --faults"), "got {err}");
        assert!(USAGE.contains("faults   robustness sweep"));
    }

    #[test]
    fn scheduler_and_architecture() {
        let cmd = parse(&argv("run --scheduler sequential-fix --arch oh-no-re")).unwrap();
        assert_eq!(cmd.scenario.scheduler, SchedulerKind::SequentialFix);
        assert_eq!(cmd.scenario.architecture, Architecture::OneHopNoRenewable);
    }

    #[test]
    fn extension_knobs() {
        let cmd = parse(&argv("run --demand poisson --grid markov --tou 5.0")).unwrap();
        assert_eq!(cmd.scenario.demand_model, DemandModel::Poisson);
        assert!(matches!(cmd.scenario.grid_model, GridModel::Markov { .. }));
        assert!(matches!(
            cmd.scenario.pricing,
            TouPricing::Periodic {
                peak_multiplier,
                ..
            } if (peak_multiplier - 5.0).abs() < 1e-12
        ));
    }

    #[test]
    fn v_values_list() {
        let cmd = parse(&argv("fig2a --v-values 1e5,3e5,5e5")).unwrap();
        assert_eq!(cmd.v_values, Some(vec![1e5, 3e5, 5e5]));
    }

    #[test]
    fn tiny_and_lower_bound() {
        let cmd = parse(&argv("run --tiny --track-lower-bound")).unwrap();
        assert_eq!(cmd.scenario.users, 4);
        assert!(cmd.scenario.track_lower_bound);
    }

    #[test]
    fn city_and_fault_presets() {
        let cmd = parse(&argv("run --city 200 --horizon 40 --faults chaos")).unwrap();
        assert_eq!(cmd.scenario.users, 200);
        assert!(cmd.scenario.bs_positions.len() >= 2);
        let faults = cmd.scenario.faults.as_ref().expect("preset applied");
        // Preset windows scale to the *final* horizon (applied post-edit).
        assert_eq!(
            faults.droughts,
            vec![greencell_sim::faults::SlotWindow::new(10, 20)]
        );

        let err = parse(&argv("run --tiny --city 100")).unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "got {err}");
        let err = parse(&argv("run --faults nonsense")).unwrap_err();
        assert!(err.0.contains("unknown fault preset"), "got {err}");
    }

    #[test]
    fn dynamic_policy_flags() {
        // Both off by default — the paper-faithful static network.
        let cmd = parse(&argv("run --tiny")).unwrap();
        assert_eq!(cmd.scenario.bs_sleep, None);
        assert_eq!(cmd.scenario.energy_coop, None);

        let cmd = parse(&argv("run --tiny --bs-sleep --energy-coop")).unwrap();
        let sleep = cmd
            .scenario
            .bs_sleep
            .expect("--bs-sleep enables the policy");
        assert_eq!(sleep, cmd.scenario.default_sleep_policy());
        let coop = cmd
            .scenario
            .energy_coop
            .expect("--energy-coop enables the policy");
        assert!(coop.eta_x > 0.0 && coop.eta_x < 1.0, "lossy transfer");

        // Works on the sweep/frontier actions too — one parser serves all.
        let cmd = parse(&argv("frontier --city 100 --bs-sleep")).unwrap();
        assert!(cmd.scenario.bs_sleep.is_some());
        assert!(cmd.scenario.energy_coop.is_none());
    }

    #[test]
    fn serve_flags() {
        let cmd = parse(&argv(
            "serve --tiny --state-dir state --snapshot-every 25 --status-every 5 --error-budget 3",
        ))
        .unwrap();
        assert_eq!(cmd.action, Action::Serve);
        assert_eq!(cmd.serve.state_dir, Some("state".into()));
        assert_eq!(cmd.serve.snapshot_every, 25);
        assert_eq!(cmd.serve.status_every, 5);
        assert_eq!(cmd.serve.error_budget, 3);
        // Defaults hold when unspecified.
        assert_eq!(parse(&argv("serve")).unwrap().serve, ServeConfig::default());
    }

    #[test]
    fn frontier_flags() {
        let cmd = parse(&argv(
            "frontier --tiny --v-min 1e4 --v-max 1e6 --max-gap 0.1 --budget 16 \
             --init-points 4",
        ))
        .unwrap();
        assert_eq!(cmd.action, Action::Frontier);
        assert_eq!(cmd.frontier.v_min, 1e4);
        assert_eq!(cmd.frontier.v_max, 1e6);
        assert_eq!(cmd.frontier.max_gap, 0.1);
        assert_eq!(cmd.frontier.budget, 16);
        assert_eq!(cmd.frontier.init_points, 4);
        // Defaults hold when unspecified.
        assert_eq!(
            parse(&argv("frontier")).unwrap().frontier,
            FrontierOptions::new(1e5, 1e6)
        );
    }

    #[test]
    fn out_dir() {
        let cmd = parse(&argv("fig2bc --out results")).unwrap();
        assert_eq!(cmd.out_dir.as_deref(), Some("results"));
        let err = parse(&argv("fig2a --out")).unwrap_err();
        assert!(err.0.contains("--out needs a directory"), "got {err}");
    }

    #[test]
    fn trace_check() {
        let cmd = parse(&argv("trace --check")).unwrap();
        assert_eq!(cmd.action, Action::Trace);
        assert!(cmd.check);
        assert_eq!(cmd.preset, "paper");
        assert!(!parse(&argv("trace")).unwrap().check);
        assert_eq!(parse(&argv("trace --tiny")).unwrap().preset, "tiny");
        assert_eq!(parse(&argv("trace --city 100")).unwrap().preset, "city");
        // A bad value is a typed error, not a panic.
        let err = parse(&argv("trace --check --horizon x")).unwrap_err();
        assert!(err.0.contains("invalid value for --horizon"), "got {err}");
    }

    #[test]
    fn usage_documents_check_and_threads() {
        assert!(USAGE.contains("--check"));
        assert!(USAGE.contains("GREENCELL_THREADS"));
        assert!(USAGE.contains("_telemetry.{json,csv}"));
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&argv("explode"))
            .unwrap_err()
            .0
            .contains("unknown action"));
        assert!(parse(&argv("run --bogus 1"))
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse(&argv("run --v"))
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse(&argv("run --v abc"))
            .unwrap_err()
            .0
            .contains("invalid value"));
        assert!(parse(&argv("run --scheduler magic"))
            .unwrap_err()
            .0
            .contains("unknown scheduler"));
    }
}
