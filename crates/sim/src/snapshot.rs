//! Crash-safe snapshot/restore of a running simulation.
//!
//! A [`SimSnapshot`] captures every piece of state that evolves across
//! slots — queue backlogs, battery levels, all four random-stream
//! positions, the per-node grid connectivity chains, the fault-plan
//! cursor, the stability watchdog's window, and the metrics collected so
//! far — such that [`Simulator::restore`] followed by running the
//! remaining horizon is **bit-identical** to never having stopped.
//!
//! What is deliberately *not* captured:
//!
//! * Construction facts (network, `β`, `γ_max`, `B`, the fault plan, the
//!   resolved pipeline stages): a restore rebuilds them from the same
//!   scenario, and fingerprints verify the rebuild landed on the same
//!   values (most importantly, the regenerated [`crate::FaultPlan`] must
//!   match the one the snapshotted run was following).
//! * The controller's per-slot scratch (the S1 power-control workspace,
//!   the S4 sweep's buffers): each S1 call clears its workspace before the
//!   first probe and the S4 sweep keeps nothing across slots, so a restore
//!   starts them empty without perturbing a single decision.
//! * Wall-clock ([`greencell_core::StageTimings`]): timings restart from
//!   zero by design — they are observability, not state.
//!
//! # File format
//!
//! The image is the workspace's one checksummed container (see
//! [`crate::fsio`]): exactly two lines of JSON, parsed with the
//! workspace's strict dependency-free parser,
//!
//! ```text
//! {"format":"greencell-snapshot","version":2,"checksum":"0x<fnv1a64>"}
//! {...payload...}
//! ```
//!
//! The payload encodes every `u64` (RNG words, counters) and every exact
//! `f64` (queue levels, series samples — as `f64::to_bits`) as
//! `"0x%016x"` hex strings, because the JSON parser reads plain numbers
//! as `f64` and would silently round anything above 2⁵³. Files are
//! written atomically (temp sibling + rename); validation failures
//! surface as typed [`SimError::CorruptSnapshot`] /
//! [`SimError::SnapshotVersionMismatch`] — never a panic — so callers can
//! quarantine the file and fall back.

use crate::faults::WatchdogState;
use crate::fsio::fnv1a_64;
use crate::{GridModel, RunMetrics, Scenario, SimError, Simulator};
use greencell_core::{ControllerState, RelaxedState};
use greencell_energy::Battery;
use greencell_queue::PacketQueue;
use greencell_stochastic::{MarkovOnOff, Rng, Series};
use greencell_trace::json::Value;
use greencell_units::{Energy, Packets};
use std::fmt::Debug;
use std::fmt::Write as _;
use std::path::Path;

/// The `format` tag every snapshot header carries.
pub const SNAPSHOT_FORMAT: &str = "greencell-snapshot";

/// The format version this build writes and reads. Version 2 added the
/// controller's dynamic network state (BS sleep timers, user↔BS
/// association, transfer totals); version-1 files are rejected with a
/// typed [`SimError::SnapshotVersionMismatch`], never silently zeroed.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Fingerprint of a value via its `Debug` form. Rust's `f64` Debug
/// formatting is shortest-roundtrip, so equal fingerprints mean equal
/// values for the plain-old-data types this is used on (scenarios, fault
/// plans).
pub(crate) fn fingerprint_debug<T: Debug>(value: &T) -> u64 {
    fnv1a_64(format!("{value:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Exact-value JSON encoding: u64 and f64 as "0x%016x" hex strings.
// ---------------------------------------------------------------------------

pub(crate) fn hex_u64(x: u64) -> String {
    format!("\"0x{x:016x}\"")
}

pub(crate) fn hex_f64(x: f64) -> String {
    hex_u64(x.to_bits())
}

pub(crate) fn hex_u64_list<I: IntoIterator<Item = u64>>(xs: I) -> String {
    let body: Vec<String> = xs.into_iter().map(hex_u64).collect();
    format!("[{}]", body.join(","))
}

pub(crate) fn hex_f64_list(xs: &[f64]) -> String {
    hex_u64_list(xs.iter().map(|x| x.to_bits()))
}

pub(crate) fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

pub(crate) fn arr(v: &Value) -> Result<&[Value], String> {
    v.as_array().ok_or_else(|| "expected an array".to_string())
}

pub(crate) fn u64_of(v: &Value) -> Result<u64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| "expected a \"0x…\" hex string".to_string())?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected a 0x prefix, got `{s}`"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
}

pub(crate) fn f64_of(v: &Value) -> Result<f64, String> {
    Ok(f64::from_bits(u64_of(v)?))
}

pub(crate) fn usize_of(v: &Value) -> Result<usize, String> {
    usize::try_from(u64_of(v)?).map_err(|e| format!("count overflows usize: {e}"))
}

pub(crate) fn bool_of(v: &Value) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| "expected a bool".to_string())
}

pub(crate) fn u64_list_of(v: &Value) -> Result<Vec<u64>, String> {
    arr(v)?.iter().map(u64_of).collect()
}

pub(crate) fn f64_list_of(v: &Value) -> Result<Vec<f64>, String> {
    arr(v)?.iter().map(f64_of).collect()
}

pub(crate) fn series_of(v: &Value) -> Result<Series, String> {
    Ok(f64_list_of(v)?.into_iter().collect())
}

fn rng_state_of(v: &Value) -> Result<[u64; 4], String> {
    let words = u64_list_of(v)?;
    <[u64; 4]>::try_from(words).map_err(|w| format!("RNG state has {} words, need 4", w.len()))
}

// ---------------------------------------------------------------------------
// Component codecs.
// ---------------------------------------------------------------------------

fn battery_json(b: &Battery) -> String {
    format!(
        "[{},{},{},{},{},{}]",
        hex_f64(b.capacity().as_joules()),
        hex_f64(b.charge_limit().as_joules()),
        hex_f64(b.discharge_limit().as_joules()),
        hex_f64(b.charge_efficiency()),
        hex_f64(b.level().as_joules()),
        b.charge_blocked(),
    )
}

fn battery_of(v: &Value) -> Result<Battery, String> {
    let a = arr(v)?;
    if a.len() != 6 {
        return Err(format!("battery has {} fields, need 6", a.len()));
    }
    let level = f64_of(&a[4])?;
    let capacity = f64_of(&a[0])?;
    if !(level.is_finite() && capacity.is_finite()) {
        return Err("battery level/capacity must be finite".to_string());
    }
    Ok(Battery::from_parts(
        Energy::from_joules(capacity),
        Energy::from_joules(f64_of(&a[1])?),
        Energy::from_joules(f64_of(&a[2])?),
        f64_of(&a[3])?,
        Energy::from_joules(level),
        bool_of(&a[5])?,
    ))
}

fn queue_json(q: &PacketQueue) -> String {
    format!(
        "[{},{},{},{}]",
        hex_u64(q.backlog().count()),
        hex_u64(q.total_arrivals()),
        hex_u64(q.total_offered()),
        hex_u64(q.total_wasted()),
    )
}

fn queue_of(v: &Value) -> Result<PacketQueue, String> {
    let a = arr(v)?;
    if a.len() != 4 {
        return Err(format!("queue has {} fields, need 4", a.len()));
    }
    let (offered, wasted) = (u64_of(&a[2])?, u64_of(&a[3])?);
    if wasted > offered {
        return Err(format!("queue wasted {wasted} exceeds offered {offered}"));
    }
    Ok(PacketQueue::from_parts(
        Packets::new(u64_of(&a[0])?),
        u64_of(&a[1])?,
        offered,
        wasted,
    ))
}

fn queues_json(qs: &[PacketQueue]) -> String {
    let body: Vec<String> = qs.iter().map(queue_json).collect();
    format!("[{}]", body.join(","))
}

fn queues_of(v: &Value) -> Result<Vec<PacketQueue>, String> {
    arr(v)?.iter().map(queue_of).collect()
}

fn bool_list_json(xs: &[bool]) -> String {
    let body: Vec<String> = xs.iter().map(bool::to_string).collect();
    format!("[{}]", body.join(","))
}

fn bool_list_of(v: &Value) -> Result<Vec<bool>, String> {
    arr(v)?.iter().map(bool_of).collect()
}

fn u32_list_of(v: &Value) -> Result<Vec<u32>, String> {
    u64_list_of(v)?
        .into_iter()
        .map(|x| u32::try_from(x).map_err(|e| format!("counter overflows u32: {e}")))
        .collect()
}

/// Associations use `u64::MAX` as the on-disk "no BS in range" sentinel
/// (the in-memory form is `usize::MAX`).
fn assoc_list_of(v: &Value) -> Result<Vec<usize>, String> {
    u64_list_of(v)?
        .into_iter()
        .map(|x| {
            if x == u64::MAX {
                Ok(usize::MAX)
            } else {
                usize::try_from(x).map_err(|e| format!("association overflows usize: {e}"))
            }
        })
        .collect()
}

fn controller_json(c: &ControllerState) -> String {
    let batteries: Vec<String> = c.batteries.iter().map(battery_json).collect();
    format!(
        "{{\"slot\":{},\"batteries\":[{}],\"data_queues\":{},\"delivered\":{},\"phantom\":{},\"link_queues\":{},\"awake\":{},\"idle\":{},\"ramp\":{},\"assoc\":{},\"sleep_tr\":{},\"wake_tr\":{},\"transferred\":{}}}",
        hex_u64(c.slot),
        batteries.join(","),
        queues_json(&c.data_queues),
        hex_u64_list(c.delivered.iter().map(|p| p.count())),
        hex_u64_list(c.phantom.iter().map(|p| p.count())),
        queues_json(&c.link_queues),
        bool_list_json(&c.awake),
        hex_u64_list(c.idle_slots.iter().map(|&x| u64::from(x))),
        hex_u64_list(c.ramp_remaining.iter().map(|&x| u64::from(x))),
        hex_u64_list(c.association.iter().map(|&a| {
            if a == usize::MAX {
                u64::MAX
            } else {
                a as u64
            }
        })),
        hex_u64(c.sleep_transitions),
        hex_u64(c.wake_transitions),
        hex_f64(c.transferred_kwh),
    )
}

fn controller_of(v: &Value) -> Result<ControllerState, String> {
    let batteries: Result<Vec<Battery>, String> =
        arr(get(v, "batteries")?)?.iter().map(battery_of).collect();
    let packets = |key: &str| -> Result<Vec<Packets>, String> {
        Ok(u64_list_of(get(v, key)?)?
            .into_iter()
            .map(Packets::new)
            .collect())
    };
    Ok(ControllerState {
        slot: u64_of(get(v, "slot")?)?,
        batteries: batteries?,
        data_queues: queues_of(get(v, "data_queues")?)?,
        delivered: packets("delivered")?,
        phantom: packets("phantom")?,
        link_queues: queues_of(get(v, "link_queues")?)?,
        awake: bool_list_of(get(v, "awake")?)?,
        idle_slots: u32_list_of(get(v, "idle")?)?,
        ramp_remaining: u32_list_of(get(v, "ramp")?)?,
        association: assoc_list_of(get(v, "assoc")?)?,
        sleep_transitions: u64_of(get(v, "sleep_tr")?)?,
        wake_transitions: u64_of(get(v, "wake_tr")?)?,
        transferred_kwh: f64_of(get(v, "transferred")?)?,
    })
}

fn relaxed_json(r: &RelaxedState) -> String {
    format!(
        "{{\"slot\":{},\"levels\":{},\"q\":{},\"g\":{},\"cost_sum\":{},\"cost_count\":{},\"admitted_sum\":{},\"admitted_count\":{}}}",
        hex_u64(r.slot),
        hex_f64_list(&r.levels),
        hex_f64_list(&r.q),
        hex_f64_list(&r.g),
        hex_f64(r.cost_sum),
        hex_u64(r.cost_count),
        hex_f64(r.admitted_sum),
        hex_u64(r.admitted_count),
    )
}

fn relaxed_of(v: &Value) -> Result<RelaxedState, String> {
    Ok(RelaxedState {
        slot: u64_of(get(v, "slot")?)?,
        levels: f64_list_of(get(v, "levels")?)?,
        q: f64_list_of(get(v, "q")?)?,
        g: f64_list_of(get(v, "g")?)?,
        cost_sum: f64_of(get(v, "cost_sum")?)?,
        cost_count: u64_of(get(v, "cost_count")?)?,
        admitted_sum: f64_of(get(v, "admitted_sum")?)?,
        admitted_count: u64_of(get(v, "admitted_count")?)?,
    })
}

fn watchdog_json(w: &WatchdogState) -> String {
    format!(
        "{{\"tail\":{},\"slots\":{},\"peak\":{},\"floor\":{},\"divergent\":{}}}",
        hex_f64_list(&w.tail),
        hex_u64(w.slots as u64),
        hex_f64(w.peak_backlog),
        hex_f64(w.battery_floor_kwh),
        hex_u64(w.divergent_slots as u64),
    )
}

fn watchdog_of(v: &Value) -> Result<WatchdogState, String> {
    Ok(WatchdogState {
        tail: f64_list_of(get(v, "tail")?)?,
        slots: usize_of(get(v, "slots")?)?,
        peak_backlog: f64_of(get(v, "peak")?)?,
        battery_floor_kwh: f64_of(get(v, "floor")?)?,
        divergent_slots: usize_of(get(v, "divergent")?)?,
    })
}

pub(crate) fn metrics_json(m: &RunMetrics) -> String {
    let series = [
        ("cost", &m.cost),
        ("grid_kwh", &m.grid_kwh),
        ("backlog_bs", &m.backlog_bs),
        ("backlog_users", &m.backlog_users),
        ("buffer_bs_kwh", &m.buffer_bs_kwh),
        ("buffer_users_wh", &m.buffer_users_wh),
        ("admitted", &m.admitted),
        ("routed", &m.routed),
        ("scheduled_links", &m.scheduled_links),
        ("relaxed_cost", &m.relaxed_cost),
        ("lyapunov", &m.lyapunov),
    ];
    let mut out = String::from("{");
    for (name, s) in series {
        let _ = write!(out, "\"{name}\":{},", hex_f64_list(s.values()));
    }
    let _ = write!(
        out,
        "\"delivered_total\":{},\"delivered_per_session\":{},\"shed\":{},\"degraded_slots\":{},\"degradation_events\":{},\"lower_bound\":{}}}",
        hex_u64(m.delivered_total),
        hex_u64_list(m.delivered_per_session.iter().copied()),
        hex_u64(m.shed_total),
        hex_u64(m.degraded_slots),
        hex_u64(m.degradation_events),
        m.lower_bound.map_or_else(|| "null".to_string(), hex_f64),
    );
    out
}

pub(crate) fn metrics_of(v: &Value) -> Result<RunMetrics, String> {
    let series = |key: &str| series_of(get(v, key)?);
    let count = |key: &str| u64_of(get(v, key)?);
    let lower_bound = match get(v, "lower_bound")? {
        Value::Null => None,
        other => Some(f64_of(other)?),
    };
    Ok(RunMetrics {
        cost: series("cost")?,
        grid_kwh: series("grid_kwh")?,
        backlog_bs: series("backlog_bs")?,
        backlog_users: series("backlog_users")?,
        buffer_bs_kwh: series("buffer_bs_kwh")?,
        buffer_users_wh: series("buffer_users_wh")?,
        admitted: series("admitted")?,
        routed: series("routed")?,
        scheduled_links: series("scheduled_links")?,
        relaxed_cost: series("relaxed_cost")?,
        lyapunov: series("lyapunov")?,
        delivered_total: count("delivered_total")?,
        delivered_per_session: u64_list_of(get(v, "delivered_per_session")?)?,
        shed_total: count("shed")?,
        degraded_slots: count("degraded_slots")?,
        degradation_events: count("degradation_events")?,
        lower_bound,
    })
}

// ---------------------------------------------------------------------------
// The snapshot itself.
// ---------------------------------------------------------------------------

/// The full evolving state of a [`Simulator`] at a slot boundary —
/// everything [`Simulator::restore`] needs to continue the run
/// bit-identically. Build one with [`Simulator::snapshot`]; persist and
/// recover with [`SimSnapshot::write`] / [`SimSnapshot::read`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Where this snapshot was decoded from (`"<memory>"` if built
    /// in-process) — error context, not serialized.
    pub(crate) origin: String,
    /// Fingerprint of the scenario the run was built from.
    pub(crate) scenario_fp: u64,
    /// Fingerprint of the expanded fault plan (None for fault-free runs):
    /// proves a restore's regenerated plan follows the same schedule.
    pub(crate) fault_plan_fp: Option<u64>,
    /// The fault-plan cursor / next slot index to run.
    pub(crate) slots_run: usize,
    /// xoshiro256** positions of the four observation streams.
    pub(crate) band_rng: [u64; 4],
    pub(crate) renewable_rng: [u64; 4],
    pub(crate) grid_rng: [u64; 4],
    pub(crate) demand_rng: [u64; 4],
    /// Per-node Markov connectivity chains: (current state, RNG position).
    pub(crate) grid_chains: Vec<(bool, [u64; 4])>,
    /// The controller's queues, batteries, and slot counter.
    pub(crate) controller: ControllerState,
    /// The relaxed lower-bound controller's state, when tracked.
    pub(crate) relaxed: Option<RelaxedState>,
    /// The stability watchdog's bounded window and running aggregates.
    pub(crate) watchdog: WatchdogState,
    /// Everything recorded so far.
    pub(crate) metrics: RunMetrics,
}

impl SimSnapshot {
    /// The slot index the restored run will continue from.
    #[must_use]
    pub fn slots_run(&self) -> usize {
        self.slots_run
    }

    /// The payload line (line 2 of the file format).
    fn payload_json(&self) -> String {
        let chains: Vec<String> = self
            .grid_chains
            .iter()
            .map(|(state, s)| {
                format!(
                    "[{state},{}]",
                    s.iter().map(|&w| hex_u64(w)).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        format!(
            "{{\"scenario_fp\":{},\"fault_plan_fp\":{},\"slots_run\":{},\"rngs\":{{\"band\":{},\"renewable\":{},\"grid\":{},\"demand\":{}}},\"grid_chains\":[{}],\"controller\":{},\"relaxed\":{},\"watchdog\":{},\"metrics\":{}}}",
            hex_u64(self.scenario_fp),
            self.fault_plan_fp
                .map_or_else(|| "null".to_string(), hex_u64),
            hex_u64(self.slots_run as u64),
            hex_u64_list(self.band_rng),
            hex_u64_list(self.renewable_rng),
            hex_u64_list(self.grid_rng),
            hex_u64_list(self.demand_rng),
            chains.join(","),
            controller_json(&self.controller),
            self.relaxed
                .as_ref()
                .map_or_else(|| "null".to_string(), relaxed_json),
            watchdog_json(&self.watchdog),
            metrics_json(&self.metrics),
        )
    }

    fn from_payload(v: &Value) -> Result<Self, String> {
        let fault_plan_fp = match get(v, "fault_plan_fp")? {
            Value::Null => None,
            other => Some(u64_of(other)?),
        };
        let rngs = get(v, "rngs")?;
        let chains: Result<Vec<(bool, [u64; 4])>, String> = arr(get(v, "grid_chains")?)?
            .iter()
            .map(|entry| {
                let a = arr(entry)?;
                if a.len() != 5 {
                    return Err(format!("grid chain has {} fields, need 5", a.len()));
                }
                let mut words = [0_u64; 4];
                for (w, src) in words.iter_mut().zip(&a[1..]) {
                    *w = u64_of(src)?;
                }
                Ok((bool_of(&a[0])?, words))
            })
            .collect();
        let relaxed = match get(v, "relaxed")? {
            Value::Null => None,
            other => Some(relaxed_of(other)?),
        };
        Ok(Self {
            origin: "<memory>".to_string(),
            scenario_fp: u64_of(get(v, "scenario_fp")?)?,
            fault_plan_fp,
            slots_run: usize_of(get(v, "slots_run")?)?,
            band_rng: rng_state_of(get(rngs, "band")?)?,
            renewable_rng: rng_state_of(get(rngs, "renewable")?)?,
            grid_rng: rng_state_of(get(rngs, "grid")?)?,
            demand_rng: rng_state_of(get(rngs, "demand")?)?,
            grid_chains: chains?,
            controller: controller_of(get(v, "controller")?)?,
            relaxed,
            watchdog: watchdog_of(get(v, "watchdog")?)?,
            metrics: metrics_of(get(v, "metrics")?)?,
        })
    }

    /// The complete two-line file image (header + checksummed payload).
    #[must_use]
    pub fn to_file_string(&self) -> String {
        crate::fsio::seal(SNAPSHOT_FORMAT, SNAPSHOT_VERSION, &self.payload_json())
    }

    /// Parses a snapshot file image, verifying format, version, and
    /// checksum. `path` is used only for error context.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotVersionMismatch`] when the header declares a
    /// version this build does not read; [`SimError::CorruptSnapshot`] for
    /// every other validation failure (torn file, bad checksum, malformed
    /// payload).
    pub fn parse_str(text: &str, path: &str) -> Result<Self, SimError> {
        let value = crate::fsio::open(text, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, path)?;
        let mut snap = Self::from_payload(&value).map_err(|detail| SimError::CorruptSnapshot {
            path: path.to_string(),
            detail,
        })?;
        snap.origin = path.to_string();
        Ok(snap)
    }

    /// Writes the snapshot atomically (temp sibling + rename): a crash
    /// mid-write leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path) -> Result<(), SimError> {
        crate::fsio::write_text_atomic(path, &self.to_file_string())
            .map_err(|e| SimError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] if the file cannot be read;
    /// [`SimError::CorruptSnapshot`] / [`SimError::SnapshotVersionMismatch`]
    /// if it fails validation.
    pub fn read(path: &Path) -> Result<Self, SimError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::Io(format!("{}: {e}", path.display())))?;
        Self::parse_str(&text, &path.display().to_string())
    }
}

impl Simulator {
    /// Captures the run's full evolving state at the current slot
    /// boundary. Restoring via [`Simulator::restore`] and running the
    /// remainder is bit-identical to never having stopped.
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            origin: "<memory>".to_string(),
            scenario_fp: fingerprint_debug(&self.scenario),
            fault_plan_fp: self.fault_plan.as_ref().map(fingerprint_debug),
            slots_run: self.slots_run,
            band_rng: self.band_rng.state(),
            renewable_rng: self.renewable_rng.state(),
            grid_rng: self.grid_rng.state(),
            demand_rng: self.demand_rng.state(),
            grid_chains: self
                .grid_chains
                .iter()
                .map(|c| (c.state(), c.rng().state()))
                .collect(),
            controller: self.controller.export_state(),
            relaxed: self.relaxed.as_ref().map(|r| r.export_state()),
            watchdog: self.watchdog.export_state(),
            metrics: self.metrics.clone(),
        }
    }

    /// Rebuilds a simulator from `scenario` and overlays a snapshot's
    /// state, verifying on the way that the snapshot actually belongs to
    /// this scenario: the scenario fingerprint must match, the regenerated
    /// fault plan must fingerprint to the schedule the snapshotted run was
    /// following, and every state vector must fit the rebuilt network's
    /// dimensions.
    ///
    /// # Errors
    ///
    /// [`SimError::CorruptSnapshot`] on any mismatch (never a panic);
    /// construction errors propagate as from [`Simulator::new`].
    pub fn restore(scenario: &Scenario, snap: &SimSnapshot) -> Result<Self, SimError> {
        let mut sim = Self::new(scenario)?;
        let corrupt = |detail: String| SimError::CorruptSnapshot {
            path: snap.origin.clone(),
            detail,
        };
        let scenario_fp = fingerprint_debug(scenario);
        if scenario_fp != snap.scenario_fp {
            return Err(corrupt(format!(
                "scenario fingerprint mismatch: snapshot 0x{:016x}, scenario 0x{scenario_fp:016x}",
                snap.scenario_fp
            )));
        }
        let plan_fp = sim.fault_plan.as_ref().map(fingerprint_debug);
        if plan_fp != snap.fault_plan_fp {
            return Err(corrupt(format!(
                "fault-plan fingerprint mismatch: snapshot {:?}, regenerated {plan_fp:?}",
                snap.fault_plan_fp
            )));
        }
        sim.controller
            .check_state(&snap.controller)
            .map_err(corrupt)?;
        if snap.grid_chains.len() != sim.grid_chains.len() {
            return Err(corrupt(format!(
                "snapshot has {} grid chains, scenario builds {}",
                snap.grid_chains.len(),
                sim.grid_chains.len()
            )));
        }
        match (&sim.relaxed, &snap.relaxed) {
            (Some(relaxed), Some(r)) => relaxed.check_state(r).map_err(corrupt)?,
            (None, None) => {}
            (have, snapshot) => {
                return Err(corrupt(format!(
                    "lower-bound tracking mismatch: scenario {}, snapshot {}",
                    if have.is_some() {
                        "tracks"
                    } else {
                        "does not track"
                    },
                    if snapshot.is_some() {
                        "has relaxed state"
                    } else {
                        "has none"
                    }
                )));
            }
        }
        let w = &snap.watchdog;
        if w.tail.len() > sim.watchdog.window()
            || w.tail.len() != w.slots.min(sim.watchdog.window())
        {
            return Err(corrupt(
                "watchdog tail is inconsistent with its window".to_string(),
            ));
        }

        sim.slots_run = snap.slots_run;
        sim.band_rng = Rng::from_state(snap.band_rng);
        sim.renewable_rng = Rng::from_state(snap.renewable_rng);
        sim.grid_rng = Rng::from_state(snap.grid_rng);
        sim.demand_rng = Rng::from_state(snap.demand_rng);
        if let GridModel::Markov { stay_on, stay_off } = scenario.grid_model {
            sim.grid_chains = snap
                .grid_chains
                .iter()
                .map(|&(state, rng)| {
                    MarkovOnOff::new(stay_on, stay_off, state, Rng::from_state(rng))
                        .expect("validated probabilities")
                })
                .collect();
        }
        sim.controller.import_state(&snap.controller);
        if let (Some(relaxed), Some(state)) = (&mut sim.relaxed, &snap.relaxed) {
            relaxed.import_state(state);
        }
        sim.watchdog.import_state(&snap.watchdog);
        sim.metrics = snap.metrics.clone();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip_is_exact() {
        use greencell_trace::json::parse;
        for x in [0.0_f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            let v = parse(&hex_f64(x)).unwrap();
            assert_eq!(f64_of(&v).unwrap().to_bits(), x.to_bits());
        }
        let v = parse(&hex_u64(u64::MAX)).unwrap();
        assert_eq!(u64_of(&v).unwrap(), u64::MAX);
    }

    #[test]
    fn snapshot_roundtrips_through_the_file_image() {
        let mut scenario = Scenario::tiny(23);
        scenario.horizon = 12;
        scenario.track_lower_bound = true;
        let mut sim = Simulator::new(&scenario).unwrap();
        for _ in 0..7 {
            sim.step().unwrap();
        }
        let snap = sim.snapshot();
        let text = snap.to_file_string();
        let back = SimSnapshot::parse_str(&text, "<test>").unwrap();
        // `origin` differs by design; everything else must be exact.
        let mut back_cmp = back.clone();
        back_cmp.origin = snap.origin.clone();
        assert_eq!(back_cmp, snap);
    }

    /// A relaxed state in the dense one-part layout (`n·S` data queues,
    /// `n²` link queues) does not fit a partitioned run, whose relaxed
    /// queues are its parts' blocks: the restore is a typed rejection.
    #[test]
    fn restore_rejects_a_dense_relaxed_state_on_a_partitioned_run() {
        let mut scenario = Scenario::city(120, 3, Scenario::default_city_area(3), 61);
        scenario.horizon = 6;
        scenario.track_lower_bound = true;
        let mut sim = Simulator::new(&scenario).unwrap();
        assert!(sim.controller().part_count() > 1, "want a partitioned run");
        for _ in 0..3 {
            sim.step().unwrap();
        }
        let mut snap = sim.snapshot();
        let (n, sessions) = (sim.controller().node_count(), scenario.sessions);
        let relaxed = snap.relaxed.as_mut().expect("bound tracked");
        relaxed.q = vec![0.0; sessions * n];
        relaxed.g = vec![0.0; n * n];
        match Simulator::restore(&scenario, &snap) {
            Err(SimError::CorruptSnapshot { detail, .. }) => {
                assert!(detail.contains("relaxed state"), "{detail}");
            }
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_the_wrong_scenario() {
        let a = Scenario::tiny(37);
        let b = Scenario::tiny(38);
        let sim = Simulator::new(&a).unwrap();
        let snap = sim.snapshot();
        match Simulator::restore(&b, &snap) {
            Err(SimError::CorruptSnapshot { detail, .. }) => {
                assert!(detail.contains("scenario fingerprint"), "{detail}");
            }
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
    }
}
