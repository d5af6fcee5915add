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
//! as `f64` and would silently round anything above 2⁵³. The encoder
//! writes the payload in one pass into one buffer reserved from the
//! state's dimensions (no per-value strings), and [`SimSnapshot::write`]
//! streams the header and that buffer into the file without joining
//! them, so a write costs the encode, one FNV-1a pass and the `fsync`.
//! Files are written atomically (temp sibling + `fsync` + rename);
//! validation failures — including battery fields no battery can hold —
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
// Exact-value JSON encoding: u64 and f64 as "0x%016x" hex strings, written
// in one pass into one `String`.
// ---------------------------------------------------------------------------

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Bytes of one encoded value and the comma after it: `"0x`, 16 digits,
/// `"`, `,`. Payload capacities are reserved in these units.
pub(crate) const HEX_SLOT: usize = 21;

/// Appends `x` as the JSON string `"0x%016x"`.
pub(crate) fn push_hex(out: &mut String, x: u64) {
    let mut buf = *b"\"0x0000000000000000\"";
    for (i, digit) in buf[3..19].iter_mut().enumerate() {
        *digit = HEX_DIGITS[((x >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Appends `x` as [`push_hex`] does, or `null`.
pub(crate) fn push_hex_or_null(out: &mut String, x: Option<u64>) {
    match x {
        Some(x) => push_hex(out, x),
        None => out.push_str("null"),
    }
}

/// Appends `[item,item,…]`, each item written by `item`.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Appends a JSON array of [`push_hex`] values.
pub(crate) fn push_hex_list(out: &mut String, xs: impl IntoIterator<Item = u64>) {
    push_list(out, xs, push_hex);
}

/// Appends a JSON array of exact `f64`s (their bits, as [`push_hex`]).
fn push_f64_list(out: &mut String, xs: &[f64]) {
    push_hex_list(out, xs.iter().map(|x| x.to_bits()));
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
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

fn battery_into(out: &mut String, b: &Battery) {
    out.push('[');
    for x in [
        b.capacity().as_joules(),
        b.charge_limit().as_joules(),
        b.discharge_limit().as_joules(),
        b.charge_efficiency(),
        b.level().as_joules(),
    ] {
        push_hex(out, x.to_bits());
        out.push(',');
    }
    push_bool(out, b.charge_blocked());
    out.push(']');
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
    Battery::try_from_parts(
        Energy::from_joules(capacity),
        Energy::from_joules(f64_of(&a[1])?),
        Energy::from_joules(f64_of(&a[2])?),
        f64_of(&a[3])?,
        Energy::from_joules(level),
        bool_of(&a[5])?,
    )
    .map_err(|e| format!("battery: {e}"))
}

fn queue_into(out: &mut String, q: &PacketQueue) {
    push_hex_list(
        out,
        [
            q.backlog().count(),
            q.total_arrivals(),
            q.total_offered(),
            q.total_wasted(),
        ],
    );
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

fn queues_into(out: &mut String, qs: &[PacketQueue]) {
    push_list(out, qs, queue_into);
}

fn queues_of(v: &Value) -> Result<Vec<PacketQueue>, String> {
    arr(v)?.iter().map(queue_of).collect()
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

fn controller_into(out: &mut String, c: &ControllerState) {
    out.push_str("{\"slot\":");
    push_hex(out, c.slot);
    out.push_str(",\"batteries\":");
    push_list(out, &c.batteries, battery_into);
    out.push_str(",\"data_queues\":");
    queues_into(out, &c.data_queues);
    out.push_str(",\"delivered\":");
    push_hex_list(out, c.delivered.iter().map(|p| p.count()));
    out.push_str(",\"phantom\":");
    push_hex_list(out, c.phantom.iter().map(|p| p.count()));
    out.push_str(",\"link_queues\":");
    queues_into(out, &c.link_queues);
    out.push_str(",\"awake\":");
    push_list(out, c.awake.iter().copied(), push_bool);
    out.push_str(",\"idle\":");
    push_hex_list(out, c.idle_slots.iter().map(|&x| u64::from(x)));
    out.push_str(",\"ramp\":");
    push_hex_list(out, c.ramp_remaining.iter().map(|&x| u64::from(x)));
    out.push_str(",\"assoc\":");
    push_hex_list(
        out,
        c.association
            .iter()
            .map(|&a| if a == usize::MAX { u64::MAX } else { a as u64 }),
    );
    out.push_str(",\"sleep_tr\":");
    push_hex(out, c.sleep_transitions);
    out.push_str(",\"wake_tr\":");
    push_hex(out, c.wake_transitions);
    out.push_str(",\"transferred\":");
    push_hex(out, c.transferred_kwh.to_bits());
    out.push('}');
}

/// Values a [`controller_into`] image holds, counting each `bool` as one.
fn controller_values(c: &ControllerState) -> usize {
    6 * c.batteries.len()
        + 4 * (c.data_queues.len() + c.link_queues.len())
        + c.delivered.len()
        + c.phantom.len()
        + c.awake.len()
        + c.idle_slots.len()
        + c.ramp_remaining.len()
        + c.association.len()
        + 4
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

fn relaxed_into(out: &mut String, r: &RelaxedState) {
    out.push_str("{\"slot\":");
    push_hex(out, r.slot);
    out.push_str(",\"levels\":");
    push_f64_list(out, &r.levels);
    out.push_str(",\"q\":");
    push_f64_list(out, &r.q);
    out.push_str(",\"g\":");
    push_f64_list(out, &r.g);
    out.push_str(",\"cost_sum\":");
    push_hex(out, r.cost_sum.to_bits());
    out.push_str(",\"cost_count\":");
    push_hex(out, r.cost_count);
    out.push_str(",\"admitted_sum\":");
    push_hex(out, r.admitted_sum.to_bits());
    out.push_str(",\"admitted_count\":");
    push_hex(out, r.admitted_count);
    out.push('}');
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

fn watchdog_into(out: &mut String, w: &WatchdogState) {
    out.push_str("{\"tail\":");
    push_f64_list(out, &w.tail);
    out.push_str(",\"slots\":");
    push_hex(out, w.slots as u64);
    out.push_str(",\"peak\":");
    push_hex(out, w.peak_backlog.to_bits());
    out.push_str(",\"floor\":");
    push_hex(out, w.battery_floor_kwh.to_bits());
    out.push_str(",\"divergent\":");
    push_hex(out, w.divergent_slots as u64);
    out.push('}');
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

/// The per-slot series of a [`RunMetrics`], in their on-disk order.
fn metric_series(m: &RunMetrics) -> [(&'static str, &Series); 11] {
    [
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
    ]
}

pub(crate) fn metrics_into(out: &mut String, m: &RunMetrics) {
    out.push('{');
    for (name, s) in metric_series(m) {
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        push_f64_list(out, s.values());
        out.push(',');
    }
    out.push_str("\"delivered_total\":");
    push_hex(out, m.delivered_total);
    out.push_str(",\"delivered_per_session\":");
    push_hex_list(out, m.delivered_per_session.iter().copied());
    out.push_str(",\"shed\":");
    push_hex(out, m.shed_total);
    out.push_str(",\"degraded_slots\":");
    push_hex(out, m.degraded_slots);
    out.push_str(",\"degradation_events\":");
    push_hex(out, m.degradation_events);
    out.push_str(",\"lower_bound\":");
    push_hex_or_null(out, m.lower_bound.map(f64::to_bits));
    out.push('}');
}

/// Values a [`metrics_into`] image holds.
pub(crate) fn metrics_values(m: &RunMetrics) -> usize {
    metric_series(m).iter().map(|(_, s)| s.len()).sum::<usize>() + m.delivered_per_session.len() + 5
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

    /// The bytes [`SimSnapshot::payload`] reserves: [`HEX_SLOT`] per
    /// value, from the state's dimensions, plus 1 KiB for the keys and
    /// brackets.
    fn payload_capacity(&self) -> usize {
        let values = 23
            + 5 * self.grid_chains.len()
            + controller_values(&self.controller)
            + self
                .relaxed
                .as_ref()
                .map_or(0, |r| r.levels.len() + r.q.len() + r.g.len() + 5)
            + self.watchdog.tail.len()
            + 4
            + metrics_values(&self.metrics);
        HEX_SLOT * values + 1024
    }

    /// The payload line (line 2 of the file format), encoded in one pass
    /// into one buffer.
    fn payload(&self) -> String {
        let mut out = String::with_capacity(self.payload_capacity());
        out.push_str("{\"scenario_fp\":");
        push_hex(&mut out, self.scenario_fp);
        out.push_str(",\"fault_plan_fp\":");
        push_hex_or_null(&mut out, self.fault_plan_fp);
        out.push_str(",\"slots_run\":");
        push_hex(&mut out, self.slots_run as u64);
        out.push_str(",\"rngs\":{\"band\":");
        push_hex_list(&mut out, self.band_rng);
        out.push_str(",\"renewable\":");
        push_hex_list(&mut out, self.renewable_rng);
        out.push_str(",\"grid\":");
        push_hex_list(&mut out, self.grid_rng);
        out.push_str(",\"demand\":");
        push_hex_list(&mut out, self.demand_rng);
        out.push_str("},\"grid_chains\":");
        push_list(&mut out, &self.grid_chains, |out, (state, words)| {
            out.push('[');
            push_bool(out, *state);
            for &w in words {
                out.push(',');
                push_hex(out, w);
            }
            out.push(']');
        });
        out.push_str(",\"controller\":");
        controller_into(&mut out, &self.controller);
        out.push_str(",\"relaxed\":");
        match &self.relaxed {
            Some(r) => relaxed_into(&mut out, r),
            None => out.push_str("null"),
        }
        out.push_str(",\"watchdog\":");
        watchdog_into(&mut out, &self.watchdog);
        out.push_str(",\"metrics\":");
        metrics_into(&mut out, &self.metrics);
        out.push('}');
        out
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
        crate::fsio::seal(SNAPSHOT_FORMAT, SNAPSHOT_VERSION, &self.payload())
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
        crate::fsio::write_sealed_atomic(path, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, &self.payload())
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
    /// The fingerprints of the scenario and of the expanded fault plan.
    /// Neither changes after construction, so each is hashed once, on
    /// first use: a long fault plan's `Debug` text costs milliseconds, and
    /// a run that never snapshots never pays for it.
    fn fingerprints(&self) -> (u64, Option<u64>) {
        *self.fingerprints.get_or_init(|| {
            (
                fingerprint_debug(&self.scenario),
                self.fault_plan.as_ref().map(fingerprint_debug),
            )
        })
    }

    /// Captures the run's full evolving state at the current slot
    /// boundary. Restoring via [`Simulator::restore`] and running the
    /// remainder is bit-identical to never having stopped.
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot {
        let (scenario_fp, fault_plan_fp) = self.fingerprints();
        SimSnapshot {
            origin: "<memory>".to_string(),
            scenario_fp,
            fault_plan_fp,
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
        let (scenario_fp, plan_fp) = sim.fingerprints();
        if scenario_fp != snap.scenario_fp {
            return Err(corrupt(format!(
                "scenario fingerprint mismatch: snapshot 0x{:016x}, scenario 0x{scenario_fp:016x}",
                snap.scenario_fp
            )));
        }
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
        let hex = |x: u64| {
            let mut out = String::new();
            push_hex(&mut out, x);
            assert_eq!(out, format!("\"0x{x:016x}\""));
            assert_eq!(out.len() + 1, HEX_SLOT);
            parse(&out).unwrap()
        };
        for x in [0.0_f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(f64_of(&hex(x.to_bits())).unwrap().to_bits(), x.to_bits());
        }
        for x in [0, 1, 0xdead_beef, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(u64_of(&hex(x)).unwrap(), x);
        }
    }

    /// The reserved capacity covers the whole payload (the encoder never
    /// grows its buffer) without reserving much more than it writes.
    #[test]
    fn payload_fits_its_reserved_capacity() {
        let mut scenario = Scenario::tiny(29);
        scenario.horizon = 40;
        scenario.track_lower_bound = true;
        scenario.grid_model = GridModel::Markov {
            stay_on: 0.9,
            stay_off: 0.7,
        };
        let mut sim = Simulator::new(&scenario).unwrap();
        for _ in 0..40 {
            sim.step().unwrap();
            let snap = sim.snapshot();
            let payload = snap.payload();
            assert!(payload.len() <= snap.payload_capacity(), "under-reserved");
            assert!(
                snap.payload_capacity() <= payload.len() * 5 / 4 + 1024,
                "over-reserved"
            );
        }
    }

    /// The fingerprints a simulator keeps after its first snapshot are the
    /// ones a snapshot gets by hashing the scenario and the expanded fault
    /// plan again: a faulted run's images are the same bytes, at the first
    /// snapshot and at later ones.
    #[test]
    fn stored_fingerprints_give_the_recomputed_image() {
        let mut scenario = Scenario::tiny(31);
        scenario.horizon = 30;
        scenario.faults = Some(crate::FaultSpec::chaos(30));
        let mut sim = Simulator::new(&scenario).unwrap();
        for _ in 0..3 {
            for _ in 0..5 {
                sim.step().unwrap();
            }
            let snap = sim.snapshot();
            assert!(snap.fault_plan_fp.is_some(), "want a faulted run");
            let mut recomputed = snap.clone();
            recomputed.scenario_fp = fingerprint_debug(sim.scenario());
            recomputed.fault_plan_fp = sim.fault_plan().map(fingerprint_debug);
            assert_eq!(snap.to_file_string(), recomputed.to_file_string());
        }
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
