//! Robustness sweep: the paper scenario under injected faults.
//!
//! Runs a fault-free baseline plus four fault scenarios — bursty BS
//! outages, a renewable drought, a grid price spike, and spectrum band
//! loss — through the graceful-degradation controller, and reports how
//! much each disturbance costs and whether the queues stay strongly
//! stable (watchdog verdict).
//!
//! ```text
//! cargo run --release -p greencell-sim --bin fault_sweep [seed] [horizon]
//! ```
//!
//! Scenarios fan across `GREENCELL_THREADS` workers (default: all cores).
//! Wall-clock telemetry lands in `results/fault_sweep_telemetry.{json,csv}`
//! and the deterministic robustness record — byte-identical across worker
//! counts — in `results/fault_sweep_stability.json`.
//!
//! Exit codes: 0 when every scenario is stable, 1 when the sweep fails,
//! 2 when the watchdog flags divergence, and 64 for an unparseable or
//! surplus argument (nothing is run or written then).

use greencell_sim::faults::FaultSpec;
use greencell_sim::{run_sweep, sweep, Scenario, SweepOptions, SweepPoint};

/// Exit code for a bad command line (`EX_USAGE`).
const EXIT_USAGE: i32 = 64;

/// A command line `fault_sweep` cannot run.
#[derive(Debug)]
enum ArgError {
    /// A positional argument that does not parse as its type.
    Invalid { name: &'static str, value: String },
    /// Arguments after `[seed] [horizon]`.
    Surplus(Vec<String>),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid { name, value } => {
                write!(f, "{name} must be a non-negative integer, got {value:?}")
            }
            Self::Surplus(rest) => write!(f, "unexpected argument(s) {rest:?}"),
        }
    }
}

/// Parses `[seed] [horizon]`, defaulting to seed 42 and horizon 100.
fn parse_args(args: &[String]) -> Result<(u64, usize), ArgError> {
    fn positional<T: std::str::FromStr>(
        arg: Option<&String>,
        name: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        arg.map_or(Ok(default), |a| {
            a.parse().map_err(|_| ArgError::Invalid {
                name,
                value: a.clone(),
            })
        })
    }
    if args.len() > 2 {
        return Err(ArgError::Surplus(args[2..].to_vec()));
    }
    Ok((
        positional(args.first(), "seed", 42)?,
        positional(args.get(1), "horizon", 100)?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (seed, horizon) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\nusage: fault_sweep [seed] [horizon]");
            std::process::exit(EXIT_USAGE);
        }
    };

    let scenarios: Vec<(&str, Option<FaultSpec>)> = vec![
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
    ];
    let points: Vec<SweepPoint> = scenarios
        .into_iter()
        .map(|(label, faults)| {
            let mut s = Scenario::paper(seed);
            s.horizon = horizon;
            s.faults = faults;
            SweepPoint::new(label, s)
        })
        .collect();

    let opts = SweepOptions::from_env();
    eprintln!(
        "fault_sweep: paper scenario, seed {seed}, horizon {horizon}, {} worker(s)",
        opts.threads
    );
    let report = match run_sweep(&points, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fault_sweep failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "scenario", "degraded", "events", "shed", "avg cost", "slope", "verdict"
    );
    let mut all_stable = true;
    for o in &report.outcomes {
        let t = &o.telemetry;
        let w = &t.watchdog;
        all_stable &= w.stable;
        println!(
            "{:<20} {:>10} {:>10} {:>8} {:>12.6} {:>12.3} {:>10}",
            o.label,
            t.degraded_slots,
            t.degradation_events,
            o.metrics.shed(),
            o.metrics.average_cost(),
            w.trailing_slope,
            if w.stable { "stable" } else { "DIVERGENT" },
        );
    }

    match sweep::write_telemetry(&report, "fault_sweep") {
        Ok((json, csv)) => eprintln!("telemetry: {} and {}", json.display(), csv.display()),
        Err(e) => eprintln!("could not write telemetry: {e}"),
    }
    let stability = std::path::Path::new("results").join("fault_sweep_stability.json");
    match report.write_stability_json(&stability) {
        Ok(()) => eprintln!("stability record: {}", stability.display()),
        Err(e) => eprintln!("could not write stability record: {e}"),
    }
    if !all_stable {
        eprintln!("fault_sweep: watchdog flagged divergence");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn positionals_default_and_parse() {
        assert_eq!(parse_args(&[]).unwrap(), (42, 100));
        assert_eq!(parse_args(&args(&["7"])).unwrap(), (7, 100));
        assert_eq!(parse_args(&args(&["7", "5"])).unwrap(), (7, 5));
    }

    #[test]
    fn bad_or_surplus_arguments_are_typed_errors() {
        assert!(matches!(
            parse_args(&args(&["7x", "5"])),
            Err(ArgError::Invalid { name: "seed", .. })
        ));
        assert!(matches!(
            parse_args(&args(&["7", "-5"])),
            Err(ArgError::Invalid {
                name: "horizon",
                ..
            })
        ));
        let err = parse_args(&args(&["7", "5", "extra", "junk"])).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"unexpected argument(s) ["extra", "junk"]"#
        );
    }
}
