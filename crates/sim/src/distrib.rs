//! The on-disk, resumable sweep driver: a work dir shared by workers
//! that are either processes or threads.
//!
//! A driver writes the point list to an on-disk **manifest**, runs
//! workers that claim points and write one result file per point, and
//! merges the result files into a [`SweepReport`] in manifest order. The
//! two entry points differ only in how workers are launched:
//!
//! * [`run_sweep_distributed`] spawns worker *processes* (the hidden
//!   `greencell sweep-worker` mode, or the `sweep_worker` test binary);
//! * [`run_sweep_checkpointed`] runs [`SweepOptions::threads`] scoped
//!   threads in this process — a resumable [`crate::sweep::run_sweep`].
//!
//! Because every point's randomness is sealed inside its own scenario
//! seed (SplitMix64-derived, placement independent), the merged
//! [`SweepReport::stability_json`] is **byte-identical** to the in-process
//! [`crate::sweep::run_sweep`] at any worker count — the
//! distributed-equivalence and sweep-resume CI gates pin this. A killed
//! run restarted on the same work dir salvages every valid result and
//! recomputes only what is missing.
//!
//! # Claim protocol
//!
//! The work queue is the filesystem, shared by all workers under one
//! `work_dir`:
//!
//! ```text
//! work_dir/
//!   manifest.json      # point list (label + exact scenario)
//!   claims/p<i>.claim  # exclusive-create claim files, one per point
//!   results/p<i>.json  # per-point outcomes, atomic writes
//!   stats/<worker>.json# per-worker claim/steal/requeue counters
//! ```
//!
//! * **Claim**: `O_CREAT|O_EXCL` on `claims/p<i>.claim` — the kernel
//!   guarantees exactly one winner no matter how many processes race.
//! * **Complete**: the winner runs the point and writes
//!   `results/p<i>.json` via [`crate::fsio::write_text_atomic`]; a result
//!   file, once present, is never half-written.
//! * **Steal**: a claim whose mtime is older than `stale_after` with no
//!   result next to it belongs to a dead (or wedged) worker. Stealing is
//!   `rename(2)` of the claim onto a per-stealer tombstone — again exactly
//!   one winner — after which the thief recomputes the point. A stolen
//!   point recomputes to the same deterministic outcome, so even the
//!   "dead" worker racing back to life and finishing its write is
//!   harmless: both result images decode to the same deterministic fields.
//! * **Quarantine**: a result file that fails validation (torn write,
//!   checksum mismatch, or a stale entry from an edited sweep) is renamed
//!   to `<name>.corrupt` and the point is **requeued**. Quarantined files
//!   are never re-read as results — only exact `p<i>.json` names are.
//!
//! The manifest and result files are [`crate::fsio`] containers. A worker
//! whose point fails releases its claim before returning the error, so
//! the other workers reach the same error at once instead of waiting for
//! the claim to go stale.
//!
//! The driver cleans `claims/` and `stats/` when it starts (one driver
//! owns a work dir at a time), salvages any valid `results/` left by a
//! previous interrupted run, and — after every worker has exited — runs
//! the same claim loop in-process, scanning in index order, to finish
//! anything the workers left behind. Completion is therefore guaranteed
//! whenever the points themselves are computable, and otherwise the
//! sweep fails with the first failing point's error by submission order.

use crate::faults::{
    FadeEvent, FaultSpec, MarkovFault, OutageScope, PriceSpike, SlotWindow, WatchdogReport,
};
use crate::fsio::{open, seal, write_text_atomic};
use crate::scenario::{DemandModel, DiurnalProfile, GridModel, Placement, TouPricing};
use crate::snapshot::{
    arr, bool_of, f64_of, fingerprint_debug, get, hex_f64, hex_u64, metrics_json, metrics_of,
    u64_of, usize_of,
};
use crate::sweep::{
    json_escape, run_point, PointOutcome, RunTelemetry, SweepOptions, SweepPoint, SweepReport,
};
use crate::{Architecture, Scenario, SimError};
use greencell_core::{DegradationPolicy, EnergyPolicy, SchedulerKind, StageTimings};
use greencell_trace::json::{parse, Value};
use greencell_units::{DataRate, Energy, PacketSize, Packets, Power, TimeDelta};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The `format` tag of the work-queue manifest.
pub const MANIFEST_FORMAT: &str = "greencell-distrib-manifest";

/// The `format` tag of a per-point result file.
pub const RESULT_FORMAT: &str = "greencell-distrib-result";

/// The distributed-sweep on-disk format version (manifest + results).
pub const DISTRIB_VERSION: u32 = 1;

/// A claim older than this with no result may be stolen.
const STALE_AFTER: Duration = Duration::from_secs(30);

/// How long an idle worker sleeps before rescanning the queue.
const POLL: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------------
// Options and stats.
// ---------------------------------------------------------------------------

/// How to launch one worker process: a program plus fixed leading
/// arguments (the driver appends `--dir/--id/--stale-after-ms/--poll-ms`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// The worker executable.
    pub program: PathBuf,
    /// Arguments placed before the driver-appended flags (e.g.
    /// `["sweep-worker"]` when the program is the `greencell` CLI).
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command for an explicit program path.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        Self {
            program: program.into(),
            args,
        }
    }

    /// The current executable re-invoked with `args` — how the `greencell`
    /// CLI reaches its own hidden `sweep-worker` mode.
    ///
    /// # Errors
    ///
    /// Propagates [`std::env::current_exe`] failures as [`SimError::Io`].
    pub fn current_exe(args: Vec<String>) -> Result<Self, SimError> {
        let program =
            std::env::current_exe().map_err(|e| SimError::Io(format!("current_exe: {e}")))?;
        Ok(Self { program, args })
    }
}

/// Distributed-driver knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistribOptions {
    /// Worker processes to spawn (≥ 1; zero is rejected, not clamped).
    pub workers: usize,
    /// How to launch each worker.
    pub worker: WorkerCommand,
    /// A claim older than this with no result is considered abandoned and
    /// may be stolen.
    pub stale_after: Duration,
    /// How long an idle worker sleeps before rescanning the queue.
    pub poll: Duration,
}

impl DistribOptions {
    /// Options with the default staleness (30 s) and poll (25 ms) knobs.
    #[must_use]
    pub fn new(workers: usize, worker: WorkerCommand) -> Self {
        Self {
            workers,
            worker,
            stale_after: STALE_AFTER,
            poll: POLL,
        }
    }
}

/// What one worker process did (persisted to `stats/<worker>.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Points this worker claimed fresh.
    pub claimed: usize,
    /// Points this worker actually computed (claims + steals).
    pub computed: usize,
    /// Stale claims this worker stole from dead workers.
    pub steals: usize,
    /// Corrupt or stale result files this worker quarantined and requeued.
    pub requeued: usize,
}

impl WorkerStats {
    fn json(&self) -> String {
        format!(
            "{{\"claimed\":{},\"computed\":{},\"steals\":{},\"requeued\":{}}}\n",
            self.claimed, self.computed, self.steals, self.requeued
        )
    }

    fn parse_str(text: &str) -> Result<Self, String> {
        let v = parse(text.trim()).map_err(|e| format!("unparseable worker stats: {e}"))?;
        let count = |key: &str| -> Result<usize, String> {
            let x = get(&v, key)?
                .as_f64()
                .ok_or_else(|| format!("{key} is not a number"))?;
            Ok(x as usize)
        };
        Ok(Self {
            claimed: count("claimed")?,
            computed: count("computed")?,
            steals: count("steals")?,
            requeued: count("requeued")?,
        })
    }
}

/// What a distributed sweep recovered, computed, stole, and quarantined,
/// summed over the driver and every worker process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistribStats {
    /// Valid results salvaged from a previous interrupted run.
    pub salvaged: usize,
    /// Points computed this run (across all workers + driver salvage).
    pub computed: usize,
    /// Stale-claim steals across all workers.
    pub steals: usize,
    /// Corrupt/stale result files quarantined and recomputed.
    pub requeued: usize,
    /// Worker processes that exited unsuccessfully (killed or errored).
    pub worker_failures: usize,
}

// ---------------------------------------------------------------------------
// Exact Scenario codec.
// ---------------------------------------------------------------------------
//
// Every numeric field is encoded as its *internal* representation's bit
// pattern (hex), so decode(encode(s)) == s bitwise. The worker re-derives
// the Debug fingerprint of the decoded scenario and refuses to run if it
// differs from the manifest's — a codec drift can therefore never produce
// silently-wrong results.

fn pairs_json(pairs: &[(f64, f64)]) -> String {
    let rows: Vec<String> = pairs
        .iter()
        .map(|&(a, b)| format!("[{},{}]", hex_f64(a), hex_f64(b)))
        .collect();
    format!("[{}]", rows.join(","))
}

fn windows_json(windows: &[SlotWindow]) -> String {
    let rows: Vec<String> = windows
        .iter()
        .map(|w| format!("[{},{}]", hex_u64(w.start as u64), hex_u64(w.end as u64)))
        .collect();
    format!("[{}]", rows.join(","))
}

fn markov_json(m: Option<MarkovFault>) -> String {
    m.map_or_else(
        || "null".to_string(),
        |m| format!("[{},{}]", hex_f64(m.stay_up), hex_f64(m.stay_down)),
    )
}

fn faults_json(spec: &FaultSpec) -> String {
    let spikes: Vec<String> = spec
        .price_spikes
        .iter()
        .map(|s| {
            format!(
                "[{},{},{}]",
                hex_u64(s.window.start as u64),
                hex_u64(s.window.end as u64),
                hex_f64(s.multiplier)
            )
        })
        .collect();
    let fades: Vec<String> = spec
        .battery_fade
        .iter()
        .map(|e| {
            format!(
                "[{},{},{}]",
                hex_u64(e.slot as u64),
                hex_u64(e.node as u64),
                hex_f64(e.factor)
            )
        })
        .collect();
    let scope = match spec.outage_scope {
        OutageScope::BaseStations => "bs",
        OutageScope::Users => "users",
        OutageScope::All => "all",
    };
    format!(
        "{{\"node_outage\":{},\"outage_scope\":\"{scope}\",\"band_loss\":{},\"droughts\":{},\"price_spikes\":[{}],\"charge_block\":{},\"battery_fade\":[{}],\"dropout_probability\":{}}}",
        markov_json(spec.node_outage),
        markov_json(spec.band_loss),
        windows_json(&spec.droughts),
        spikes.join(","),
        windows_json(&spec.charge_block),
        fades.join(","),
        hex_f64(spec.dropout_probability),
    )
}

/// Encodes a [`Scenario`] exactly (bit-for-bit round trip).
#[must_use]
pub fn scenario_json(s: &Scenario) -> String {
    let scheduler = match s.scheduler {
        SchedulerKind::Greedy => "greedy",
        SchedulerKind::SequentialFix => "sequential_fix",
    };
    let architecture = match s.architecture {
        Architecture::Proposed => "proposed",
        Architecture::MultiHopNoRenewable => "mh_no_re",
        Architecture::OneHopRenewable => "oh_re",
        Architecture::OneHopNoRenewable => "oh_no_re",
    };
    let demand_model = match s.demand_model {
        DemandModel::Constant => "constant",
        DemandModel::Poisson => "poisson",
    };
    let grid_model = match s.grid_model {
        GridModel::Iid => "\"iid\"".to_string(),
        GridModel::Markov { stay_on, stay_off } => {
            format!("[{},{}]", hex_f64(stay_on), hex_f64(stay_off))
        }
    };
    let placement = match s.placement {
        Placement::Uniform => "\"uniform\"".to_string(),
        Placement::Hotspots { sigma_m, fraction } => {
            format!("[{},{}]", hex_f64(sigma_m), hex_f64(fraction))
        }
    };
    let pricing = match s.pricing {
        TouPricing::Flat => "\"flat\"".to_string(),
        TouPricing::Periodic {
            period_slots,
            peak_slots,
            peak_multiplier,
        } => format!(
            "[{},{},{}]",
            hex_u64(period_slots as u64),
            hex_u64(peak_slots as u64),
            hex_f64(peak_multiplier)
        ),
    };
    let energy_policy = match s.energy_policy {
        EnergyPolicy::MarginalPrice => "marginal_price",
        EnergyPolicy::GridOnly => "grid_only",
    };
    let degradation = match s.degradation {
        DegradationPolicy::Graceful => "graceful",
        DegradationPolicy::Strict => "strict",
    };
    let diurnal = s.diurnal.map_or_else(
        || "null".to_string(),
        |d| {
            format!(
                "[{},{}]",
                hex_u64(d.period_slots as u64),
                hex_f64(d.min_fraction)
            )
        },
    );
    let demands = s.session_demands_kbps.as_ref().map_or_else(
        || "null".to_string(),
        |rates| {
            let rows: Vec<String> = rates.iter().map(|&r| hex_f64(r)).collect();
            format!("[{}]", rows.join(","))
        },
    );
    let faults = s
        .faults
        .as_ref()
        .map_or_else(|| "null".to_string(), faults_json);
    let bs_sleep = s.bs_sleep.map_or_else(
        || "null".to_string(),
        |p| {
            format!(
                "[{},{},{},{},{},{}]",
                hex_f64(p.threshold_pkts),
                hex_u64(u64::from(p.w_slots)),
                hex_f64(p.wake_threshold_pkts),
                hex_u64(u64::from(p.ramp_slots)),
                hex_f64(p.sleep_power.as_watts()),
                hex_f64(p.ramp_power.as_watts()),
            )
        },
    );
    let energy_coop = s
        .energy_coop
        .map_or_else(|| "null".to_string(), |c| hex_f64(c.eta_x));
    format!(
        "{{\"area_m\":{},\"bs_positions\":{},\"users\":{},\"cellular_band_mhz\":{},\"random_bands\":{},\"user_band_probability\":{},\"sessions\":{},\"session_demand_bps\":{},\"session_demands_kbps\":{},\"path_loss_c\":{},\"path_loss_gamma\":{},\"sinr_threshold\":{},\"noise_density\":{},\"user_max_power_w\":{},\"bs_max_power_w\":{},\"user_renewable_max_w\":{},\"bs_renewable_max_w\":{},\"user_charge_limit_j\":{},\"bs_charge_limit_j\":{},\"user_battery_capacity_j\":{},\"bs_battery_capacity_j\":{},\"initial_battery_fraction\":{},\"battery_efficiency\":{},\"grid_limit_j\":{},\"user_grid_probability\":{},\"recv_power_w\":{},\"bs_overhead_power_w\":{},\"user_overhead_power_w\":{},\"cost\":[{},{},{}],\"v\":{},\"lambda\":{},\"k_max\":{},\"packet_size_bits\":{},\"slot_s\":{},\"horizon\":{},\"scheduler\":\"{scheduler}\",\"architecture\":\"{architecture}\",\"track_lower_bound\":{},\"demand_model\":\"{demand_model}\",\"grid_model\":{grid_model},\"shadowing_sigma_db\":{},\"placement\":{placement},\"gain_floor\":{},\"diurnal\":{diurnal},\"pricing\":{pricing},\"energy_policy\":\"{energy_policy}\",\"faults\":{faults},\"degradation\":\"{degradation}\",\"bs_sleep\":{bs_sleep},\"energy_coop\":{energy_coop},\"seed\":{}}}",
        hex_f64(s.area_m),
        pairs_json(&s.bs_positions),
        hex_u64(s.users as u64),
        hex_f64(s.cellular_band_mhz),
        pairs_json(&s.random_bands),
        hex_f64(s.user_band_probability),
        hex_u64(s.sessions as u64),
        hex_f64(s.session_demand.as_bits_per_second()),
        demands,
        hex_f64(s.path_loss_c),
        hex_f64(s.path_loss_gamma),
        hex_f64(s.sinr_threshold),
        hex_f64(s.noise_density),
        hex_f64(s.user_max_power.as_watts()),
        hex_f64(s.bs_max_power.as_watts()),
        hex_f64(s.user_renewable_max.as_watts()),
        hex_f64(s.bs_renewable_max.as_watts()),
        hex_f64(s.user_charge_limit.as_joules()),
        hex_f64(s.bs_charge_limit.as_joules()),
        hex_f64(s.user_battery_capacity.as_joules()),
        hex_f64(s.bs_battery_capacity.as_joules()),
        hex_f64(s.initial_battery_fraction),
        hex_f64(s.battery_efficiency),
        hex_f64(s.grid_limit.as_joules()),
        hex_f64(s.user_grid_probability),
        hex_f64(s.recv_power.as_watts()),
        hex_f64(s.bs_overhead_power.as_watts()),
        hex_f64(s.user_overhead_power.as_watts()),
        hex_f64(s.cost.0),
        hex_f64(s.cost.1),
        hex_f64(s.cost.2),
        hex_f64(s.v),
        hex_f64(s.lambda),
        hex_u64(s.k_max.count()),
        hex_u64(s.packet_size.as_bits()),
        hex_f64(s.slot.as_seconds()),
        hex_u64(s.horizon as u64),
        s.track_lower_bound,
        hex_f64(s.shadowing_sigma_db),
        hex_f64(s.gain_floor),
        hex_u64(s.seed),
    )
}

fn str_of<'a>(v: &'a Value, what: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{what} must be a string"))
}

fn pairs_of(v: &Value) -> Result<Vec<(f64, f64)>, String> {
    arr(v)?
        .iter()
        .map(|row| {
            let a = arr(row)?;
            if a.len() != 2 {
                return Err(format!("pair has {} fields, need 2", a.len()));
            }
            Ok((f64_of(&a[0])?, f64_of(&a[1])?))
        })
        .collect()
}

fn windows_of(v: &Value) -> Result<Vec<SlotWindow>, String> {
    arr(v)?
        .iter()
        .map(|row| {
            let a = arr(row)?;
            if a.len() != 2 {
                return Err(format!("window has {} fields, need 2", a.len()));
            }
            Ok(SlotWindow {
                start: usize_of(&a[0])?,
                end: usize_of(&a[1])?,
            })
        })
        .collect()
}

fn markov_of(v: &Value) -> Result<Option<MarkovFault>, String> {
    match v {
        Value::Null => Ok(None),
        other => {
            let a = arr(other)?;
            if a.len() != 2 {
                return Err(format!("markov fault has {} fields, need 2", a.len()));
            }
            Ok(Some(MarkovFault {
                stay_up: f64_of(&a[0])?,
                stay_down: f64_of(&a[1])?,
            }))
        }
    }
}

fn faults_of(v: &Value) -> Result<FaultSpec, String> {
    let outage_scope = match str_of(get(v, "outage_scope")?, "outage_scope")? {
        "bs" => OutageScope::BaseStations,
        "users" => OutageScope::Users,
        "all" => OutageScope::All,
        other => return Err(format!("unknown outage scope `{other}`")),
    };
    let price_spikes = arr(get(v, "price_spikes")?)?
        .iter()
        .map(|row| {
            let a = arr(row)?;
            if a.len() != 3 {
                return Err(format!("price spike has {} fields, need 3", a.len()));
            }
            Ok(PriceSpike {
                window: SlotWindow {
                    start: usize_of(&a[0])?,
                    end: usize_of(&a[1])?,
                },
                multiplier: f64_of(&a[2])?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let battery_fade = arr(get(v, "battery_fade")?)?
        .iter()
        .map(|row| {
            let a = arr(row)?;
            if a.len() != 3 {
                return Err(format!("fade event has {} fields, need 3", a.len()));
            }
            Ok(FadeEvent {
                slot: usize_of(&a[0])?,
                node: usize_of(&a[1])?,
                factor: f64_of(&a[2])?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FaultSpec {
        node_outage: markov_of(get(v, "node_outage")?)?,
        outage_scope,
        band_loss: markov_of(get(v, "band_loss")?)?,
        droughts: windows_of(get(v, "droughts")?)?,
        price_spikes,
        charge_block: windows_of(get(v, "charge_block")?)?,
        battery_fade,
        dropout_probability: f64_of(get(v, "dropout_probability")?)?,
    })
}

/// Decodes a [`scenario_json`] image. The caller is expected to verify
/// the decoded scenario's fingerprint against the one recorded next to
/// it — that is what makes this codec safe to evolve.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn scenario_of(v: &Value) -> Result<Scenario, String> {
    let scheduler = match str_of(get(v, "scheduler")?, "scheduler")? {
        "greedy" => SchedulerKind::Greedy,
        "sequential_fix" => SchedulerKind::SequentialFix,
        other => return Err(format!("unknown scheduler `{other}`")),
    };
    let architecture = match str_of(get(v, "architecture")?, "architecture")? {
        "proposed" => Architecture::Proposed,
        "mh_no_re" => Architecture::MultiHopNoRenewable,
        "oh_re" => Architecture::OneHopRenewable,
        "oh_no_re" => Architecture::OneHopNoRenewable,
        other => return Err(format!("unknown architecture `{other}`")),
    };
    let demand_model = match str_of(get(v, "demand_model")?, "demand_model")? {
        "constant" => DemandModel::Constant,
        "poisson" => DemandModel::Poisson,
        other => return Err(format!("unknown demand model `{other}`")),
    };
    let grid_model = match get(v, "grid_model")? {
        Value::String(s) if s == "iid" => GridModel::Iid,
        Value::String(s) => return Err(format!("unknown grid model `{s}`")),
        other => {
            let a = arr(other)?;
            if a.len() != 2 {
                return Err(format!("markov grid model has {} fields, need 2", a.len()));
            }
            GridModel::Markov {
                stay_on: f64_of(&a[0])?,
                stay_off: f64_of(&a[1])?,
            }
        }
    };
    let placement = match get(v, "placement")? {
        Value::String(s) if s == "uniform" => Placement::Uniform,
        Value::String(s) => return Err(format!("unknown placement `{s}`")),
        other => {
            let a = arr(other)?;
            if a.len() != 2 {
                return Err(format!("hotspot placement has {} fields, need 2", a.len()));
            }
            Placement::Hotspots {
                sigma_m: f64_of(&a[0])?,
                fraction: f64_of(&a[1])?,
            }
        }
    };
    let pricing = match get(v, "pricing")? {
        Value::String(s) if s == "flat" => TouPricing::Flat,
        Value::String(s) => return Err(format!("unknown pricing `{s}`")),
        other => {
            let a = arr(other)?;
            if a.len() != 3 {
                return Err(format!("periodic pricing has {} fields, need 3", a.len()));
            }
            TouPricing::Periodic {
                period_slots: usize_of(&a[0])?,
                peak_slots: usize_of(&a[1])?,
                peak_multiplier: f64_of(&a[2])?,
            }
        }
    };
    let energy_policy = match str_of(get(v, "energy_policy")?, "energy_policy")? {
        "marginal_price" => EnergyPolicy::MarginalPrice,
        "grid_only" => EnergyPolicy::GridOnly,
        other => return Err(format!("unknown energy policy `{other}`")),
    };
    let degradation = match str_of(get(v, "degradation")?, "degradation")? {
        "graceful" => DegradationPolicy::Graceful,
        "strict" => DegradationPolicy::Strict,
        other => return Err(format!("unknown degradation policy `{other}`")),
    };
    let diurnal = match get(v, "diurnal")? {
        Value::Null => None,
        other => {
            let a = arr(other)?;
            if a.len() != 2 {
                return Err(format!("diurnal profile has {} fields, need 2", a.len()));
            }
            Some(DiurnalProfile {
                period_slots: usize_of(&a[0])?,
                min_fraction: f64_of(&a[1])?,
            })
        }
    };
    let session_demands_kbps = match get(v, "session_demands_kbps")? {
        Value::Null => None,
        other => Some(
            arr(other)?
                .iter()
                .map(f64_of)
                .collect::<Result<Vec<_>, String>>()?,
        ),
    };
    let faults = match get(v, "faults")? {
        Value::Null => None,
        other => Some(faults_of(other)?),
    };
    let bs_sleep = match get(v, "bs_sleep")? {
        Value::Null => None,
        other => {
            let a = arr(other)?;
            if a.len() != 6 {
                return Err(format!("bs_sleep policy has {} fields, need 6", a.len()));
            }
            let slots = |x: &Value| -> Result<u32, String> {
                u32::try_from(u64_of(x)?).map_err(|e| format!("slot count overflows u32: {e}"))
            };
            Some(greencell_core::SleepPolicy {
                threshold_pkts: f64_of(&a[0])?,
                w_slots: slots(&a[1])?,
                wake_threshold_pkts: f64_of(&a[2])?,
                ramp_slots: slots(&a[3])?,
                sleep_power: Power::from_watts(f64_of(&a[4])?),
                ramp_power: Power::from_watts(f64_of(&a[5])?),
            })
        }
    };
    let energy_coop = match get(v, "energy_coop")? {
        Value::Null => None,
        other => Some(greencell_core::CoopPolicy {
            eta_x: f64_of(other)?,
        }),
    };
    let cost = {
        let a = arr(get(v, "cost")?)?;
        if a.len() != 3 {
            return Err(format!("cost has {} fields, need 3", a.len()));
        }
        (f64_of(&a[0])?, f64_of(&a[1])?, f64_of(&a[2])?)
    };
    let track_lower_bound = match get(v, "track_lower_bound")? {
        Value::Bool(b) => *b,
        _ => return Err("track_lower_bound must be a bool".to_string()),
    };
    Ok(Scenario {
        area_m: f64_of(get(v, "area_m")?)?,
        bs_positions: pairs_of(get(v, "bs_positions")?)?,
        users: usize_of(get(v, "users")?)?,
        cellular_band_mhz: f64_of(get(v, "cellular_band_mhz")?)?,
        random_bands: pairs_of(get(v, "random_bands")?)?,
        user_band_probability: f64_of(get(v, "user_band_probability")?)?,
        sessions: usize_of(get(v, "sessions")?)?,
        session_demand: DataRate::from_bits_per_second(f64_of(get(v, "session_demand_bps")?)?),
        session_demands_kbps,
        path_loss_c: f64_of(get(v, "path_loss_c")?)?,
        path_loss_gamma: f64_of(get(v, "path_loss_gamma")?)?,
        sinr_threshold: f64_of(get(v, "sinr_threshold")?)?,
        noise_density: f64_of(get(v, "noise_density")?)?,
        user_max_power: Power::from_watts(f64_of(get(v, "user_max_power_w")?)?),
        bs_max_power: Power::from_watts(f64_of(get(v, "bs_max_power_w")?)?),
        user_renewable_max: Power::from_watts(f64_of(get(v, "user_renewable_max_w")?)?),
        bs_renewable_max: Power::from_watts(f64_of(get(v, "bs_renewable_max_w")?)?),
        user_charge_limit: Energy::from_joules(f64_of(get(v, "user_charge_limit_j")?)?),
        bs_charge_limit: Energy::from_joules(f64_of(get(v, "bs_charge_limit_j")?)?),
        user_battery_capacity: Energy::from_joules(f64_of(get(v, "user_battery_capacity_j")?)?),
        bs_battery_capacity: Energy::from_joules(f64_of(get(v, "bs_battery_capacity_j")?)?),
        initial_battery_fraction: f64_of(get(v, "initial_battery_fraction")?)?,
        battery_efficiency: f64_of(get(v, "battery_efficiency")?)?,
        grid_limit: Energy::from_joules(f64_of(get(v, "grid_limit_j")?)?),
        user_grid_probability: f64_of(get(v, "user_grid_probability")?)?,
        recv_power: Power::from_watts(f64_of(get(v, "recv_power_w")?)?),
        bs_overhead_power: Power::from_watts(f64_of(get(v, "bs_overhead_power_w")?)?),
        user_overhead_power: Power::from_watts(f64_of(get(v, "user_overhead_power_w")?)?),
        cost,
        v: f64_of(get(v, "v")?)?,
        lambda: f64_of(get(v, "lambda")?)?,
        k_max: Packets::new(u64_of(get(v, "k_max")?)?),
        packet_size: PacketSize::from_bits(u64_of(get(v, "packet_size_bits")?)?),
        slot: TimeDelta::from_seconds(f64_of(get(v, "slot_s")?)?),
        horizon: usize_of(get(v, "horizon")?)?,
        scheduler,
        architecture,
        track_lower_bound,
        demand_model,
        grid_model,
        shadowing_sigma_db: f64_of(get(v, "shadowing_sigma_db")?)?,
        placement,
        gain_floor: f64_of(get(v, "gain_floor")?)?,
        diurnal,
        pricing,
        energy_policy,
        faults,
        degradation,
        bs_sleep,
        energy_coop,
        seed: u64_of(get(v, "seed")?)?,
    })
}

// ---------------------------------------------------------------------------
// Outcome / telemetry codecs (exact: u64 nanos, f64 bits).
// ---------------------------------------------------------------------------

fn duration_json(d: Duration) -> String {
    hex_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn duration_of(v: &Value) -> Result<Duration, String> {
    Ok(Duration::from_nanos(u64_of(v)?))
}

fn watchdog_report_json(w: &WatchdogReport) -> String {
    format!(
        "[{},{},{},{},{},{},{}]",
        hex_u64(w.slots as u64),
        hex_f64(w.trailing_slope),
        hex_f64(w.peak_backlog),
        hex_f64(w.final_backlog),
        hex_f64(w.battery_floor_kwh),
        hex_u64(w.divergent_slots as u64),
        w.stable,
    )
}

fn watchdog_report_of(v: &Value) -> Result<WatchdogReport, String> {
    let a = arr(v)?;
    if a.len() != 7 {
        return Err(format!("watchdog report has {} fields, need 7", a.len()));
    }
    Ok(WatchdogReport {
        slots: usize_of(&a[0])?,
        trailing_slope: f64_of(&a[1])?,
        peak_backlog: f64_of(&a[2])?,
        final_backlog: f64_of(&a[3])?,
        battery_floor_kwh: f64_of(&a[4])?,
        divergent_slots: usize_of(&a[5])?,
        stable: bool_of(&a[6])?,
    })
}

fn telemetry_json(t: &RunTelemetry) -> String {
    let s = &t.stages;
    format!(
        "{{\"slots\":{},\"wall_ns\":{},\"slots_per_sec\":{},\"stages\":[{},{},{},{},{}],\"final_backlog_bs\":{},\"final_backlog_users\":{},\"final_buffer_bs_kwh\":{},\"final_buffer_users_wh\":{},\"degraded_slots\":{},\"degradation_events\":{},\"watchdog\":{}}}",
        hex_u64(t.slots as u64),
        duration_json(t.wall),
        hex_f64(t.slots_per_sec),
        duration_json(s.s1),
        duration_json(s.s2),
        duration_json(s.s3),
        duration_json(s.s4),
        hex_u64(s.slots),
        hex_f64(t.final_backlog_bs),
        hex_f64(t.final_backlog_users),
        hex_f64(t.final_buffer_bs_kwh),
        hex_f64(t.final_buffer_users_wh),
        hex_u64(t.degraded_slots),
        hex_u64(t.degradation_events),
        watchdog_report_json(&t.watchdog),
    )
}

fn telemetry_of(v: &Value) -> Result<RunTelemetry, String> {
    let stages = arr(get(v, "stages")?)?;
    if stages.len() != 5 {
        return Err(format!(
            "stage timings have {} fields, need 5",
            stages.len()
        ));
    }
    Ok(RunTelemetry {
        slots: usize_of(get(v, "slots")?)?,
        wall: duration_of(get(v, "wall_ns")?)?,
        slots_per_sec: f64_of(get(v, "slots_per_sec")?)?,
        stages: StageTimings {
            s1: duration_of(&stages[0])?,
            s2: duration_of(&stages[1])?,
            s3: duration_of(&stages[2])?,
            s4: duration_of(&stages[3])?,
            slots: u64_of(&stages[4])?,
        },
        final_backlog_bs: f64_of(get(v, "final_backlog_bs")?)?,
        final_backlog_users: f64_of(get(v, "final_backlog_users")?)?,
        final_buffer_bs_kwh: f64_of(get(v, "final_buffer_bs_kwh")?)?,
        final_buffer_users_wh: f64_of(get(v, "final_buffer_users_wh")?)?,
        degraded_slots: u64_of(get(v, "degraded_slots")?)?,
        degradation_events: u64_of(get(v, "degradation_events")?)?,
        watchdog: watchdog_report_of(get(v, "watchdog")?)?,
    })
}

fn outcome_json(fp: u64, o: &PointOutcome) -> String {
    format!(
        "{{\"label\":\"{}\",\"seed\":{},\"scenario_fp\":{},\"penalty_b\":{},\"relaxed_admitted\":{},\"telemetry\":{},\"metrics\":{}}}",
        json_escape(&o.label),
        hex_u64(o.seed),
        hex_u64(fp),
        hex_f64(o.penalty_b),
        o.relaxed_admitted
            .map_or_else(|| "null".to_string(), hex_f64),
        telemetry_json(&o.telemetry),
        metrics_json(&o.metrics),
    )
}

/// Decodes a result payload: the scenario fingerprint the outcome was
/// computed under, and the outcome.
fn entry_of(v: &Value) -> Result<(u64, PointOutcome), String> {
    let relaxed_admitted = match get(v, "relaxed_admitted")? {
        Value::Null => None,
        other => Some(f64_of(other)?),
    };
    let label = get(v, "label")?
        .as_str()
        .ok_or_else(|| "label must be a string".to_string())?
        .to_string();
    let outcome = PointOutcome {
        label,
        seed: u64_of(get(v, "seed")?)?,
        metrics: metrics_of(get(v, "metrics")?)?,
        telemetry: telemetry_of(get(v, "telemetry")?)?,
        penalty_b: f64_of(get(v, "penalty_b")?)?,
        relaxed_admitted,
    };
    Ok((u64_of(get(v, "scenario_fp")?)?, outcome))
}

// ---------------------------------------------------------------------------
// Work-dir layout.
// ---------------------------------------------------------------------------

fn manifest_path(work_dir: &Path) -> PathBuf {
    work_dir.join("manifest.json")
}

fn claims_dir(work_dir: &Path) -> PathBuf {
    work_dir.join("claims")
}

fn results_dir(work_dir: &Path) -> PathBuf {
    work_dir.join("results")
}

fn stats_dir(work_dir: &Path) -> PathBuf {
    work_dir.join("stats")
}

fn claim_path(work_dir: &Path, idx: usize) -> PathBuf {
    claims_dir(work_dir).join(format!("p{idx}.claim"))
}

fn result_path(work_dir: &Path, idx: usize) -> PathBuf {
    results_dir(work_dir).join(format!("p{idx}.json"))
}

fn io_err(path: &Path, e: &dyn std::fmt::Display) -> SimError {
    SimError::Io(format!("{}: {e}", path.display()))
}

/// One decoded manifest entry.
struct ManifestPoint {
    label: String,
    scenario: Scenario,
    scenario_fp: u64,
}

fn manifest_string(points: &[SweepPoint], fingerprints: &[u64]) -> String {
    let rows: Vec<String> = points
        .iter()
        .zip(fingerprints)
        .map(|(p, &fp)| {
            format!(
                "{{\"label\":\"{}\",\"scenario_fp\":{},\"scenario\":{}}}",
                json_escape(&p.label),
                hex_u64(fp),
                scenario_json(&p.scenario)
            )
        })
        .collect();
    seal(
        MANIFEST_FORMAT,
        DISTRIB_VERSION,
        &format!("{{\"points\":[{}]}}", rows.join(",")),
    )
}

/// Reads and fully validates the manifest, including the per-point
/// fingerprint check on every *decoded* scenario — a worker whose codec
/// disagrees with the driver's refuses to compute anything.
fn read_manifest(work_dir: &Path) -> Result<Vec<ManifestPoint>, SimError> {
    let path = manifest_path(work_dir);
    let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
    let path = path.display().to_string();
    let value = open(&text, MANIFEST_FORMAT, DISTRIB_VERSION, &path)?;
    let corrupt = |detail: String| SimError::CorruptSnapshot {
        path: path.clone(),
        detail,
    };
    let rows = arr(get(&value, "points").map_err(&corrupt)?).map_err(&corrupt)?;
    let mut points = Vec::with_capacity(rows.len());
    for (idx, row) in rows.iter().enumerate() {
        let label = get(row, "label")
            .and_then(|v| str_of(v, "label").map(str::to_string))
            .map_err(&corrupt)?;
        let scenario_fp = get(row, "scenario_fp").and_then(u64_of).map_err(&corrupt)?;
        let scenario = get(row, "scenario")
            .and_then(scenario_of)
            .map_err(&corrupt)?;
        let decoded_fp = fingerprint_debug(&scenario);
        if decoded_fp != scenario_fp {
            return Err(corrupt(format!(
                "point {idx} (`{label}`): decoded scenario fingerprint 0x{decoded_fp:016x} \
                 does not match manifest 0x{scenario_fp:016x} — scenario codec drift"
            )));
        }
        points.push(ManifestPoint {
            label,
            scenario,
            scenario_fp,
        });
    }
    Ok(points)
}

/// Parses `results/p<idx>.json` and validates it against the manifest
/// point. `Ok(None)` means the point has no result yet; `Err` means a
/// file is there but cannot be trusted.
fn read_result(
    work_dir: &Path,
    idx: usize,
    expect: &ManifestPoint,
) -> Result<Option<PointOutcome>, SimError> {
    let path = result_path(work_dir, idx);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, &e)),
    };
    let path = path.display().to_string();
    let value = open(&text, RESULT_FORMAT, DISTRIB_VERSION, &path)?;
    let corrupt = |detail: String| SimError::CorruptSnapshot {
        path: path.clone(),
        detail,
    };
    let (scenario_fp, outcome) = entry_of(&value).map_err(&corrupt)?;
    if outcome.label != expect.label
        || outcome.seed != expect.scenario.seed
        || scenario_fp != expect.scenario_fp
    {
        return Err(corrupt(format!(
            "result belongs to a different sweep: label `{}` seed {} fp 0x{:016x}, \
             expected `{}` seed {} fp 0x{:016x}",
            outcome.label,
            outcome.seed,
            scenario_fp,
            expect.label,
            expect.scenario.seed,
            expect.scenario_fp,
        )));
    }
    Ok(Some(outcome))
}

/// Quarantines a bad result file (never re-read as a result) and clears
/// any claim so the point can be re-claimed.
fn quarantine_result(work_dir: &Path, idx: usize, worker_id: &str, nonce: usize) {
    // Best-effort: a concurrent quarantine of the same file is fine —
    // exactly one rename wins, the loser sees NotFound.
    let _ = crate::fsio::quarantine(&result_path(work_dir, idx));
    // The claim (if any) belonged to whoever wrote the bad result; retire
    // it through the same single-winner rename the steal path uses.
    let claim = claim_path(work_dir, idx);
    let tomb = claim.with_file_name(format!("p{idx}.claim.requeue.{worker_id}.{nonce}"));
    let _ = std::fs::rename(&claim, tomb);
}

// ---------------------------------------------------------------------------
// Claim primitives.
// ---------------------------------------------------------------------------

/// Attempts to claim point `idx` via exclusive create. Exactly one racing
/// process wins; everyone else sees `AlreadyExists`.
fn try_claim(work_dir: &Path, idx: usize, worker_id: &str) -> Result<bool, SimError> {
    use std::io::Write;
    let path = claim_path(work_dir, idx);
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
    {
        Ok(mut f) => {
            // Owner identity is advisory (debugging); ownership itself was
            // decided by create_new.
            let _ = writeln!(f, "{worker_id}");
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(io_err(&path, &e)),
    }
}

/// Whether the claim for `idx` is stale: it exists, has no result, and its
/// mtime is older than `stale_after`. A vanished claim reports `false`
/// (someone else is mid-steal; rescan later).
fn claim_is_stale(work_dir: &Path, idx: usize, stale_after: Duration) -> bool {
    let Ok(meta) = std::fs::metadata(claim_path(work_dir, idx)) else {
        return false;
    };
    let Ok(modified) = meta.modified() else {
        return false;
    };
    modified
        .elapsed()
        .map(|age| age >= stale_after)
        .unwrap_or(false)
}

/// Attempts to steal the (stale) claim on `idx`: renames it onto a
/// per-stealer tombstone — `rename(2)` guarantees exactly one winner per
/// claim *instance* — then re-marks the claim with the thief's identity.
///
/// The captured tombstone's mtime is re-checked *after* the rename:
/// between this thief's staleness check and its rename, a faster thief
/// may have already stolen the stale instance and recreated a fresh
/// claim, in which case the rename captured a *live* claim, not a stale
/// one. That capture is undone (the claim is restored via hard link —
/// exclusive, so a concurrent fresh claimant keeps its own claim and the
/// duplicate ownership stays harmless) and reported as no steal. Only one
/// file ever carries the stale mtime, so exactly one thief wins.
fn try_steal(
    work_dir: &Path,
    idx: usize,
    worker_id: &str,
    nonce: usize,
    stale_after: Duration,
) -> bool {
    let claim = claim_path(work_dir, idx);
    let tomb = claim.with_file_name(format!("p{idx}.claim.stale.{worker_id}.{nonce}"));
    if std::fs::rename(&claim, &tomb).is_err() {
        return false; // someone else stole it first (or it vanished)
    }
    let captured_stale = std::fs::metadata(&tomb)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|m| m.elapsed().ok())
        .is_some_and(|age| age >= stale_after);
    if !captured_stale {
        let _ = std::fs::hard_link(&tomb, &claim);
        let _ = std::fs::remove_file(&tomb);
        return false;
    }
    // Fresh claim marks the new owner and restarts the staleness clock.
    let _ = write_text_atomic(&claim, &format!("{worker_id} (stolen)\n"));
    true
}

// ---------------------------------------------------------------------------
// Worker loop.
// ---------------------------------------------------------------------------

/// Runs one worker against `work_dir` until every manifest point has a
/// result: claim fresh points, steal stale ones, quarantine bad results,
/// compute, and atomically persist. Safe to run in any number of
/// concurrent processes; the hidden `greencell sweep-worker` mode and the
/// `sweep_worker` binary are thin wrappers over this.
///
/// # Errors
///
/// Returns the first simulation failure, a manifest validation error, or
/// an I/O error on the work-dir itself. A failing point's claim is
/// released first, so other workers reach the same error without waiting
/// for it to go stale. On success the worker's stats have also been
/// persisted to `stats/<worker_id>.json`.
pub fn run_worker(
    work_dir: &Path,
    worker_id: &str,
    stale_after: Duration,
    poll: Duration,
) -> Result<WorkerStats, SimError> {
    let points = read_manifest(work_dir)?;
    let mut stats = WorkerStats::default();
    let mut verified = vec![false; points.len()];
    let mut nonce = 0usize;

    loop {
        let mut progress = false;
        for (idx, point) in points.iter().enumerate() {
            if verified[idx] {
                continue;
            }
            // Result already there? Validate once; quarantine if bad.
            match read_result(work_dir, idx, point) {
                Ok(Some(_)) => {
                    verified[idx] = true;
                    continue;
                }
                Ok(None) => {}
                Err(_) => {
                    nonce += 1;
                    quarantine_result(work_dir, idx, worker_id, nonce);
                    stats.requeued += 1;
                    progress = true;
                }
            }
            // Claim it, or steal it if its owner died.
            let owned = if try_claim(work_dir, idx, worker_id)? {
                stats.claimed += 1;
                true
            } else if claim_is_stale(work_dir, idx, stale_after) {
                nonce += 1;
                let stolen = try_steal(work_dir, idx, worker_id, nonce, stale_after);
                if stolen {
                    stats.steals += 1;
                }
                stolen
            } else {
                false
            };
            if !owned {
                continue;
            }
            // A failing point releases its claim, so other workers reach the
            // same error now instead of after `stale_after`.
            let outcome = run_point(&point.label, &point.scenario).inspect_err(|_| {
                let _ = std::fs::remove_file(claim_path(work_dir, idx));
            })?;
            let payload = outcome_json(point.scenario_fp, &outcome);
            let path = result_path(work_dir, idx);
            write_text_atomic(&path, &seal(RESULT_FORMAT, DISTRIB_VERSION, &payload))
                .map_err(|e| io_err(&path, &e))?;
            stats.computed += 1;
            verified[idx] = true;
            progress = true;
        }
        if verified.iter().all(|&v| v) {
            break;
        }
        if !progress {
            // Someone else holds the remaining claims; wait for results
            // to land or claims to go stale.
            std::thread::sleep(poll);
        }
    }

    let path = stats_dir(work_dir).join(format!("{worker_id}.json"));
    write_text_atomic(&path, &stats.json()).map_err(|e| io_err(&path, &e))?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

fn validate(points: &[SweepPoint], opts: &DistribOptions) -> Result<(), SimError> {
    if opts.workers == 0 {
        return Err(SimError::InvalidConfig {
            detail: "distributed sweep needs at least one worker process (workers == 0)"
                .to_string(),
        });
    }
    if points.is_empty() {
        return Err(SimError::InvalidConfig {
            detail: "distributed sweep needs at least one point (empty point set)".to_string(),
        });
    }
    Ok(())
}

fn create_layout(work_dir: &Path) -> Result<(), SimError> {
    for dir in [
        work_dir.to_path_buf(),
        claims_dir(work_dir),
        results_dir(work_dir),
        stats_dir(work_dir),
    ] {
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
    }
    Ok(())
}

/// Removes every file in `dir` (claims, tombstones, stats from a previous
/// run). Results are deliberately *not* cleared — they are the resume
/// state.
fn clear_dir(dir: &Path) -> Result<(), SimError> {
    for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), &e))?;
    }
    Ok(())
}

/// Sets up `work_dir` as a work queue for `points`: creates the layout,
/// clears claims and stats from any previous run (results are kept — they
/// are the resume state), and atomically writes the manifest. The driver
/// calls this itself; it is public so tests and external orchestrators
/// can stage a queue and spawn [`run_worker`] processes directly.
///
/// # Errors
///
/// Returns [`SimError::Io`] on work-dir I/O failures.
pub fn prepare_work_dir(points: &[SweepPoint], work_dir: &Path) -> Result<(), SimError> {
    create_layout(work_dir)?;
    clear_dir(&claims_dir(work_dir))?;
    clear_dir(&stats_dir(work_dir))?;
    let fingerprints: Vec<u64> = points
        .iter()
        .map(|p| fingerprint_debug(&p.scenario))
        .collect();
    let manifest = manifest_string(points, &fingerprints);
    let path = manifest_path(work_dir);
    write_text_atomic(&path, &manifest).map_err(|e| io_err(&path, &e))
}

/// The one driver body: stages `work_dir`, takes the salvage census,
/// lets `launch` run workers `w0 … w{workers-1}` to completion (it returns
/// how many failed), finishes in-process, and merges in manifest order.
fn drive(
    points: &[SweepPoint],
    work_dir: &Path,
    workers: usize,
    poll: Duration,
    launch: impl FnOnce() -> Result<usize, SimError>,
) -> Result<(SweepReport, DistribStats), SimError> {
    let start = Instant::now();
    let mut stats = DistribStats::default();
    prepare_work_dir(points, work_dir)?;

    // Salvage census: validate pre-existing results now so the stats are
    // honest; bad files are quarantined before any worker sees them.
    let manifest_points = read_manifest(work_dir)?;
    for (idx, point) in manifest_points.iter().enumerate() {
        match read_result(work_dir, idx, point) {
            Ok(Some(_)) => stats.salvaged += 1,
            Ok(None) => {}
            Err(_) => {
                quarantine_result(work_dir, idx, "driver", idx);
                stats.requeued += 1;
            }
        }
    }

    stats.worker_failures = launch()?;

    // Salvage pass: with every worker gone, any leftover claim is dead by
    // definition — steal immediately (stale_after = 0) and finish the
    // sweep in-process. Scanning in index order also re-surfaces the
    // first failing point's error deterministically instead of reporting
    // a silent short merge.
    let salvage = run_worker(work_dir, "driver", Duration::ZERO, poll)?;
    stats.computed += salvage.computed;
    stats.steals += salvage.steals;
    stats.requeued += salvage.requeued;

    // Aggregate worker stats (the driver's own salvage pass wrote
    // `stats/driver.json` too; it is already counted above, so skip it).
    for w in 0..workers {
        let path = stats_dir(work_dir).join(format!("w{w}.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // failed before writing stats; its work was redone
        };
        let ws = WorkerStats::parse_str(&text).map_err(|e| SimError::CorruptSnapshot {
            path: path.display().to_string(),
            detail: e,
        })?;
        stats.computed += ws.computed;
        stats.steals += ws.steals;
        stats.requeued += ws.requeued;
    }

    // Merge in submission order — strict now: everything must be present
    // and valid after the salvage pass.
    let mut outcomes = Vec::with_capacity(points.len());
    for (idx, point) in manifest_points.iter().enumerate() {
        let missing = || {
            io_err(
                &result_path(work_dir, idx),
                &"missing after the salvage pass",
            )
        };
        outcomes.push(read_result(work_dir, idx, point)?.ok_or_else(missing)?);
    }
    Ok((
        SweepReport {
            outcomes,
            threads: workers,
            total_wall: start.elapsed(),
        },
        stats,
    ))
}

/// Like [`run_sweep_distributed`], but also reports salvage/steal/requeue
/// counters aggregated across the driver and every worker process.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for zero workers or an empty point
/// set, the first point failure (deterministically re-encountered by the
/// driver's salvage pass if a worker died on it), or an I/O error on the
/// work dir.
pub fn run_sweep_distributed_stats(
    points: &[SweepPoint],
    opts: &DistribOptions,
    work_dir: &Path,
) -> Result<(SweepReport, DistribStats), SimError> {
    validate(points, opts)?;
    drive(points, work_dir, opts.workers, opts.poll, || {
        let mut children = Vec::with_capacity(opts.workers);
        for w in 0..opts.workers {
            let child = Command::new(&opts.worker.program)
                .args(&opts.worker.args)
                .arg("--dir")
                .arg(work_dir)
                .arg("--id")
                .arg(format!("w{w}"))
                .arg("--stale-after-ms")
                .arg(opts.stale_after.as_millis().to_string())
                .arg("--poll-ms")
                .arg(opts.poll.as_millis().to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| io_err(&opts.worker.program, &e))?;
            children.push(child);
        }
        Ok(children
            .into_iter()
            .map(|mut child| child.wait())
            .filter(|status| !matches!(status, Ok(status) if status.success()))
            .count())
    })
}

/// [`crate::sweep::run_sweep`] across worker *processes*: points are
/// claimed from an on-disk queue with single-winner semantics, stale
/// claims of dead workers are stolen, and the merged report's
/// [`SweepReport::stability_json`] is byte-identical to the in-process
/// engine at any process count.
///
/// # Errors
///
/// See [`run_sweep_distributed_stats`].
pub fn run_sweep_distributed(
    points: &[SweepPoint],
    opts: &DistribOptions,
    work_dir: &Path,
) -> Result<SweepReport, SimError> {
    run_sweep_distributed_stats(points, opts, work_dir).map(|(report, _)| report)
}

/// Like [`run_sweep_checkpointed`], but also reports what was salvaged,
/// computed, and quarantined and requeued.
///
/// # Errors
///
/// Returns the first point failure by submission order, or an I/O error
/// on the work dir. A corrupt or stale result file is not an error: it is
/// quarantined to `<name>.corrupt` and its point recomputed.
pub fn run_sweep_checkpointed_stats(
    points: &[SweepPoint],
    opts: &SweepOptions,
    work_dir: &Path,
) -> Result<(SweepReport, DistribStats), SimError> {
    drive(points, work_dir, opts.threads, POLL, || {
        Ok(std::thread::scope(|scope| {
            let workers: Vec<_> = (0..opts.threads)
                .map(|w| {
                    scope.spawn(move || run_worker(work_dir, &format!("w{w}"), STALE_AFTER, POLL))
                })
                .collect();
            workers
                .into_iter()
                .map(std::thread::ScopedJoinHandle::join)
                .filter(|joined| !matches!(joined, Ok(Ok(_))))
                .count()
        }))
    })
}

/// [`crate::sweep::run_sweep`] with crash-safe resume: the sweep runs
/// through the work-dir protocol on [`SweepOptions::threads`] worker
/// threads, so every completed point persists to `work_dir` as it lands.
/// A restart salvages the valid results and runs only what is missing;
/// final reports are byte-identical to a never-interrupted sweep at any
/// worker count.
///
/// # Errors
///
/// See [`run_sweep_checkpointed_stats`].
pub fn run_sweep_checkpointed(
    points: &[SweepPoint],
    opts: &SweepOptions,
    work_dir: &Path,
) -> Result<SweepReport, SimError> {
    run_sweep_checkpointed_stats(points, opts, work_dir).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    /// A scenario with every extension knob lit, so the codec round-trip
    /// covers each enum arm and optional field.
    fn kitchen_sink() -> Scenario {
        let mut s = Scenario::paper(99);
        s.session_demands_kbps = Some(vec![50.0, 150.0]);
        s.scheduler = SchedulerKind::SequentialFix;
        s.architecture = Architecture::OneHopRenewable;
        s.track_lower_bound = true;
        s.demand_model = DemandModel::Poisson;
        s.grid_model = GridModel::Markov {
            stay_on: 0.95,
            stay_off: 0.9,
        };
        s.shadowing_sigma_db = 6.0;
        s.placement = Placement::Hotspots {
            sigma_m: 120.0,
            fraction: 0.8,
        };
        s.gain_floor = 1e-15;
        s.diurnal = Some(DiurnalProfile {
            period_slots: 48,
            min_fraction: 0.3,
        });
        s.pricing = TouPricing::Periodic {
            period_slots: 12,
            peak_slots: 6,
            peak_multiplier: 5.0,
        };
        s.energy_policy = EnergyPolicy::GridOnly;
        s.degradation = DegradationPolicy::Strict;
        s.faults = Some(FaultSpec {
            node_outage: Some(MarkovFault {
                stay_up: 0.9,
                stay_down: 0.6,
            }),
            outage_scope: OutageScope::All,
            band_loss: Some(MarkovFault {
                stay_up: 0.8,
                stay_down: 0.5,
            }),
            droughts: vec![SlotWindow { start: 3, end: 9 }],
            price_spikes: vec![PriceSpike {
                window: SlotWindow { start: 5, end: 7 },
                multiplier: 4.0,
            }],
            charge_block: vec![SlotWindow { start: 1, end: 2 }],
            battery_fade: vec![FadeEvent {
                slot: 4,
                node: 1,
                factor: 0.7,
            }],
            dropout_probability: 0.05,
        });
        s
    }

    #[test]
    fn scenario_codec_round_trips_exactly() {
        for scenario in [Scenario::paper(7), Scenario::tiny(13), kitchen_sink()] {
            let encoded = scenario_json(&scenario);
            let value = parse(&encoded).expect("codec output parses");
            let decoded = scenario_of(&value).expect("codec output decodes");
            assert_eq!(decoded, scenario);
            assert_eq!(
                fingerprint_debug(&decoded),
                fingerprint_debug(&scenario),
                "fingerprint must survive the round trip"
            );
        }
    }

    #[test]
    fn city_scenario_round_trips_exactly() {
        let scenario = Scenario::city(60, 3, Scenario::default_city_area(3), 4242);
        let value = parse(&scenario_json(&scenario)).expect("parses");
        assert_eq!(scenario_of(&value).expect("decodes"), scenario);
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let points = vec![SweepPoint::new("p0", Scenario::tiny(1))];
        let opts = DistribOptions::new(0, WorkerCommand::new("/bin/false", vec![]));
        let err = run_sweep_distributed(&points, &opts, Path::new("/tmp/unused"))
            .expect_err("workers == 0 must be rejected");
        assert!(
            matches!(err, SimError::InvalidConfig { ref detail } if detail.contains("workers")),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_point_set_is_a_typed_error() {
        let opts = DistribOptions::new(2, WorkerCommand::new("/bin/false", vec![]));
        let err = run_sweep_distributed(&[], &opts, Path::new("/tmp/unused"))
            .expect_err("empty point sets must be rejected");
        assert!(
            matches!(err, SimError::InvalidConfig { ref detail } if detail.contains("empty")),
            "got {err:?}"
        );
    }

    #[test]
    fn claim_is_single_winner_across_threads() {
        let dir = std::env::temp_dir().join(format!("greencell-claim-{}", std::process::id()));
        std::fs::create_dir_all(claims_dir(&dir)).expect("layout");
        let dir = &dir;
        let wins: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|w| scope.spawn(move || try_claim(dir, 0, &format!("t{w}")).expect("io")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| usize::from(h.join().expect("join")))
                .sum()
        });
        assert_eq!(wins, 1, "exactly one claimant may win");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn steal_is_single_winner_across_threads() {
        let dir = std::env::temp_dir().join(format!("greencell-steal-{}", std::process::id()));
        std::fs::create_dir_all(claims_dir(&dir)).expect("layout");
        assert!(try_claim(&dir, 0, "dead-worker").expect("io"));
        // Backdate the claim so it is genuinely stale: only the stale
        // instance may be stolen — a thief that captures the fresh claim
        // a faster thief recreated must undo and report no steal.
        let old = std::time::SystemTime::now() - Duration::from_secs(3600);
        let file = std::fs::File::options()
            .write(true)
            .open(claim_path(&dir, 0))
            .expect("open claim");
        file.set_times(std::fs::FileTimes::new().set_modified(old))
            .expect("backdate claim");
        drop(file);
        let dir = &dir;
        let wins: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|w| {
                    scope.spawn(move || {
                        try_steal(dir, 0, &format!("t{w}"), w, Duration::from_secs(60))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| usize::from(h.join().expect("join")))
                .sum()
        });
        assert_eq!(wins, 1, "exactly one thief may win");
        assert!(
            claim_path(dir, 0).exists(),
            "the stolen claim must be re-marked by the winner"
        );
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}
