//! Standalone distributed-sweep worker process.
//!
//! Claims points from an on-disk work queue (see [`greencell_sim::distrib`])
//! until every manifest point has a result, then exits. The `greencell`
//! CLI's hidden `sweep-worker` mode is the same loop; this binary exists so
//! the sim crate's integration tests can spawn workers without depending
//! on the CLI crate.
//!
//! ```text
//! sweep_worker --dir <work_dir> --id <worker_id> \
//!              [--stale-after-ms <ms>] [--poll-ms <ms>]
//! ```

use std::path::PathBuf;
use std::time::Duration;

struct Args {
    dir: PathBuf,
    id: String,
    stale_after: Duration,
    poll: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut id = None;
    let mut stale_after = Duration::from_secs(30);
    let mut poll = Duration::from_millis(25);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
            "--id" => id = Some(value("--id")?),
            "--stale-after-ms" => {
                let ms: u64 = value("--stale-after-ms")?
                    .parse()
                    .map_err(|e| format!("--stale-after-ms: {e}"))?;
                stale_after = Duration::from_millis(ms);
            }
            "--poll-ms" => {
                let ms: u64 = value("--poll-ms")?
                    .parse()
                    .map_err(|e| format!("--poll-ms: {e}"))?;
                poll = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        dir: dir.ok_or("--dir is required")?,
        id: id.ok_or("--id is required")?,
        stale_after,
        poll,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweep_worker: {e}");
            std::process::exit(2);
        }
    };
    match greencell_sim::run_worker(&args.dir, &args.id, args.stale_after, args.poll) {
        Ok(stats) => {
            eprintln!(
                "sweep_worker {}: claimed {} computed {} steals {} requeued {}",
                args.id, stats.claimed, stats.computed, stats.steals, stats.requeued
            );
        }
        Err(e) => {
            eprintln!("sweep_worker {}: {e}", args.id);
            std::process::exit(1);
        }
    }
}
