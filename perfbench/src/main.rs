//! The greencell benchmark: four workloads measured end to end, and a
//! traced layer pass. See `README.md` beside this package.
//!
//! ```text
//! perfbench --workload <paper|city|serve|sweep_lb> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a record line (machine stamp, sample counts, fingerprints and
//! output checks) and then, as the last line, the result object. Exits 1
//! when any output check fails, 2 on bad arguments.

mod heap;
mod layers;
mod report;
mod serve_client;
mod stats;
mod workloads;

use report::Report;
use std::time::Duration;

#[global_allocator]
static HEAP: heap::CountingHeap = heap::CountingHeap;

/// What every workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    /// Cores the process may use.
    pub nproc: usize,
    /// Worker threads for load: two, or fewer on a smaller machine.
    pub threads: usize,
}

pub const WORKLOADS: [&str; 4] = ["paper", "city", "serve", "sweep_lb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got '{}'",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        nproc,
        threads: nproc.min(2),
    };
    let mut rep = Report::default();
    rep.note_str("workload", &args.workload);
    rep.note("seed", args.seed.to_string());
    rep.note("seconds", args.seconds.to_string());
    rep.note("trace", u8::from(args.trace).to_string());
    rep.note("nproc", nproc.to_string());
    rep.note("threads", ctx.threads.to_string());
    rep.note_str("rustc", env!("PERFBENCH_RUSTC"));
    rep.note_str("commit", env!("PERFBENCH_COMMIT"));
    rep.note_str("source_digest", env!("PERFBENCH_SRC_DIGEST"));

    if args.trace {
        layers::run(&ctx, &mut rep);
    } else {
        match args.workload.as_str() {
            "paper" => workloads::paper(&ctx, &mut rep),
            "city" => workloads::city(&ctx, &mut rep),
            "serve" => workloads::serve(&ctx, &mut rep),
            _ => workloads::sweep_lb(&ctx, &mut rep),
        }
        rep.note("peak_rss_mb", report::json_num(peak_rss_mb()));
    }
    if !rep.print() {
        std::process::exit(1);
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
