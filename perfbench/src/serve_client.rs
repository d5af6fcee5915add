//! The `serve` workload: benchmark-generated observation lines fed to an
//! in-process `run_serve` session by one closed-loop client.
//!
//! The client sends line k+1 the moment the reply to line k (its status
//! event) arrives, so a line's latency runs from the previous reply to its
//! own reply, and a snapshot written after a reply lands in the next
//! line's latency. Reader and writer share one thread with the server:
//! `run_serve` pulls lines from [`LineFeed`] and pushes events into
//! [`EventTap`], which timestamps each complete event line.

use crate::stats::{Fnv, Samples};
use greencell_sim::{run_serve, Scenario, ServeConfig, SimSnapshot, Simulator, SNAP_LATEST};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Auto-snapshot period of every session.
const SNAPSHOT_EVERY: usize = 50;
/// Each generated "day" of `DAY` lines ends in `NIGHT` lines of no demand.
const DAY: usize = 240;
const NIGHT: usize = 60;
/// Every `OUTAGE_EVERY` lines, `OUTAGE_USERS` users go down for
/// `OUTAGE_LEN` lines; the final `QUIET_TAIL` lines carry no outage.
const OUTAGE_EVERY: usize = 500;
const OUTAGE_LEN: usize = 12;
const OUTAGE_USERS: usize = 2;
const QUIET_TAIL: usize = 200;

/// State directories live under the working directory (the checkout).
const STATE_ROOT: &str = ".perfbench_state";

/// SplitMix64: the generator of the benchmark's own inputs, independent
/// of the program's random streams.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A serve session's scenario and its generated observation lines.
pub struct ServeInput {
    pub scenario: Scenario,
    pub lines: Vec<String>,
}

/// `Scenario::paper(seed)` with the default BS-sleep and cooperation
/// policies switched on.
fn serve_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::paper(seed);
    s.bs_sleep = Some(s.default_sleep_policy());
    s.energy_coop = Some(s.default_coop_policy());
    s
}

impl ServeInput {
    /// Generates `n` observation lines from `seed`: renewables, grid
    /// connectivity, demand with a daily quiet spell, harvested-band
    /// widths, and occasional user outage windows.
    pub fn new(seed: u64, n: usize) -> Result<Self, String> {
        let scenario = serve_scenario(seed);
        let sim = Simulator::new(&scenario).map_err(|e| e.to_string())?;
        let topo = sim.network().topology();
        let is_bs: Vec<bool> = topo
            .nodes()
            .iter()
            .map(|n| n.kind().is_base_station())
            .collect();
        let users: Vec<usize> = (0..is_bs.len()).filter(|&i| !is_bs[i]).collect();
        let sessions = sim.network().sessions().len();
        let nominal = scenario.demand_packets_per_slot().count_f64();
        let mut rng = Mix(seed ^ 0x7365_7276_655f_6c6e); // "serve_ln"
        let mut down = Vec::new();
        let mut lines = Vec::with_capacity(n);
        for t in 0..n {
            if t % OUTAGE_EVERY == OUTAGE_EVERY / 2 && t + QUIET_TAIL < n {
                down = (0..OUTAGE_USERS)
                    .map(|_| users[rng.next() as usize % users.len()])
                    .collect();
            } else if t % OUTAGE_EVERY == OUTAGE_EVERY / 2 + OUTAGE_LEN {
                down.clear();
            }
            let mut line = String::from("{\"renewable_w\":[");
            for (i, &bs) in is_bs.iter().enumerate() {
                let max = if bs {
                    scenario.bs_renewable_max
                } else {
                    scenario.user_renewable_max
                };
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(line, "{sep}{:.3}", rng.range(0.0, max.as_watts()));
            }
            line.push_str("],\"grid\":[");
            for (i, &bs) in is_bs.iter().enumerate() {
                let on = bs || rng.unit() < scenario.user_grid_probability;
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(line, "{sep}{on}");
            }
            line.push_str("],\"demand\":[");
            let night = t % DAY >= DAY - NIGHT;
            for s in 0..sessions {
                let packets = if night {
                    0.0
                } else {
                    (nominal * rng.range(0.5, 1.2)).round()
                };
                let sep = if s > 0 { "," } else { "" };
                let _ = write!(line, "{sep}{packets}");
            }
            line.push_str("],\"bands_mhz\":[");
            let _ = write!(line, "{}", scenario.cellular_band_mhz);
            for &(lo, hi) in &scenario.random_bands {
                let _ = write!(line, ",{:.3}", rng.range(lo, hi));
            }
            line.push(']');
            if !down.is_empty() {
                line.push_str(",\"available\":[");
                for i in 0..is_bs.len() {
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(line, "{sep}{}", !down.contains(&i));
                }
                line.push(']');
            }
            line.push_str("}\n");
            lines.push(line);
        }
        Ok(Self { scenario, lines })
    }
}

/// What the client saw while the server ran.
#[derive(Default)]
struct Tap {
    started: Option<Instant>,
    last_reply: Option<Instant>,
    setup_s: f64,
    eof: bool,
    partial: Vec<u8>,
    line_ms: Samples,
    replies: usize,
    out_of_order: usize,
    rejects: usize,
    snapshot_gap_ms: Vec<f64>,
    last_status: String,
    fingerprint: Fnv,
}

impl Tap {
    fn event(&mut self, line: &str, now: Instant) {
        if line.starts_with("{\"event\":\"status\"") {
            if !self.eof {
                let sent = self.last_reply.unwrap_or(now);
                self.line_ms.push((now - sent).as_secs_f64() * 1e3);
                self.last_reply = Some(now);
                self.replies += 1;
                if field(line, "slot") != Some(self.replies.to_string().as_str()) {
                    self.out_of_order += 1;
                }
                self.fingerprint.bytes(line.as_bytes());
            }
            self.last_status.clear();
            self.last_status.push_str(line);
        } else if line.starts_with("{\"event\":\"snapshot\"") {
            if !self.eof {
                let status_at = self.last_reply.unwrap_or(now);
                self.snapshot_gap_ms
                    .push((now - status_at).as_secs_f64() * 1e3);
            }
        } else if line.starts_with("{\"event\":\"start\"") {
            let started = self.started.expect("session clock set before run_serve");
            self.setup_s = (now - started).as_secs_f64();
            self.last_reply = Some(now);
        } else if line.starts_with("{\"event\":\"reject\"") {
            self.rejects += 1;
        }
    }
}

/// The value text of `"key":` in a flat JSON event line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let from = line.find(&pat)? + pat.len();
    let rest = &line[from..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The client's sending side: hands `run_serve` one line at a time.
struct LineFeed<'a> {
    lines: &'a [String],
    cur: usize,
    pos: usize,
    tap: Rc<RefCell<Tap>>,
}

impl Read for LineFeed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineFeed<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.cur < self.lines.len() && self.pos == self.lines[self.cur].len() {
            self.cur += 1;
            self.pos = 0;
        }
        if self.cur == self.lines.len() {
            self.tap.borrow_mut().eof = true;
            return Ok(&[]);
        }
        Ok(&self.lines[self.cur].as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// The client's receiving side: timestamps each complete event line.
struct EventTap(Rc<RefCell<Tap>>);

impl Write for EventTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut tap = self.0.borrow_mut();
        let mut rest = buf;
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            tap.partial.extend_from_slice(&rest[..i]);
            let line = String::from_utf8_lossy(&tap.partial).into_owned();
            tap.event(&line, now);
            tap.partial.clear();
            rest = &rest[i + 1..];
        }
        tap.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One finished session, with its final snapshot restored.
pub struct Session {
    pub setup_s: f64,
    pub line_ms: Samples,
    pub fingerprint: String,
    pub lines: usize,
    pub replies: usize,
    pub out_of_order: usize,
    pub rejects: usize,
    pub final_avg_cost: Option<f64>,
    pub snapshot_gap_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    pub restore_ms: f64,
    /// The simulator restored from the final `latest.snap`.
    pub restored: Simulator,
}

impl Session {
    /// The session's output checks.
    pub fn checks(&self) -> Vec<(&'static str, bool, String)> {
        let restored_cost = self.restored.metrics().average_cost();
        vec![
            (
                "serve_no_rejected_lines",
                self.rejects == 0,
                format!("{} rejected", self.rejects),
            ),
            (
                "serve_one_status_per_line",
                self.replies == self.lines && self.out_of_order == 0,
                format!(
                    "{} replies to {} lines, {} out of order",
                    self.replies, self.lines, self.out_of_order
                ),
            ),
            (
                "serve_snapshot_restores",
                self.restored.slots_run() == self.lines
                    && self.final_avg_cost == Some(restored_cost),
                format!(
                    "restored {} slots, avg_cost {restored_cost} vs served {:?}",
                    self.restored.slots_run(),
                    self.final_avg_cost
                ),
            ),
        ]
    }

    /// Time-average total data backlog of the restored run.
    pub fn avg_backlog(&self) -> f64 {
        let m = self.restored.metrics();
        m.backlog_bs_series().mean() + m.backlog_users_series().mean()
    }
}

static SESSIONS: AtomicU64 = AtomicU64::new(0);

/// Runs one session over every line of `input` in a fresh state directory,
/// restores its final snapshot, and removes the directory.
pub fn run_session(input: &ServeInput) -> Result<Session, String> {
    let dir = PathBuf::from(STATE_ROOT).join(format!(
        "serve-{}-{}",
        std::process::id(),
        SESSIONS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        snapshot_every: SNAPSHOT_EVERY,
        status_every: 1,
        error_budget: 0,
        state_dir: Some(dir.clone()),
    };
    let tap = Rc::new(RefCell::new(Tap::default()));
    let feed = LineFeed {
        lines: &input.lines,
        cur: 0,
        pos: 0,
        tap: Rc::clone(&tap),
    };
    let mut events = EventTap(Rc::clone(&tap));
    tap.borrow_mut().started = Some(Instant::now());
    let served = run_serve(&input.scenario, &config, feed, &mut events);
    let result = served
        .map_err(|e| e.to_string())
        .and_then(|_| finish(input, &tap.borrow(), &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(STATE_ROOT);
    result
}

fn finish(input: &ServeInput, tap: &Tap, dir: &Path) -> Result<Session, String> {
    let latest = dir.join(SNAP_LATEST);
    let snapshot_bytes = std::fs::metadata(&latest)
        .map_err(|e| format!("{}: {e}", latest.display()))?
        .len();
    let t = Instant::now();
    let restored = SimSnapshot::read(&latest)
        .and_then(|snap| Simulator::restore(&input.scenario, &snap))
        .map_err(|e| e.to_string())?;
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Session {
        setup_s: tap.setup_s,
        line_ms: tap.line_ms.clone(),
        fingerprint: tap.fingerprint.hex(),
        lines: input.lines.len(),
        replies: tap.replies,
        out_of_order: tap.out_of_order,
        rejects: tap.rejects,
        final_avg_cost: field(&tap.last_status, "avg_cost").and_then(|v| v.parse().ok()),
        snapshot_gap_ms: tap.snapshot_gap_ms.clone(),
        snapshot_bytes,
        restore_ms,
        restored,
    })
}
