//! Mutable per-slot network state: BS sleep/wake, user↔BS association,
//! and inter-BS renewable energy transfers.
//!
//! The paper freezes the topology: every base station is always powered
//! and S4 allocates energy per node independently. The two ROADMAP
//! extensions break both assumptions — dynamic BS operation (PAPERS.md:
//! Che/Duan/Zhang) powers lightly-loaded base stations down, and energy
//! cooperation (PAPERS.md: Xu/Duan/Zhang) lets surplus renewable at one
//! BS offset grid draw at another. [`NetworkState`] is the seam that
//! carries this per-slot mutable state: it lives in the controller's
//! [`crate::pipeline::SlotContext`] arena, the driver runs its sleep
//! machine once per slot before S1 (over the whole network, each user
//! scanning only its own part's base stations), S4's
//! [`crate::pipeline::EnergyStage`] receives it (the cooperation stage
//! records its transfers there), and the simulator's snapshot codec
//! serializes it.
//!
//! When both policies are disabled ([`NetworkState::dynamic`] is false)
//! the state is inert: no stage reads it, no driver branch fires, and the
//! controller is bit-identical to the paper pipeline — the standing
//! `networkstate_equivalence` gate holds that line.
//!
//! # Fault interplay
//!
//! * An outaged BS (fault injection) is never "asleep by choice": its
//!   sleep timers reset while the outage lasts, and it resumes as a
//!   normal awake BS when the outage lifts.
//! * A renewable drought zeroes harvests in the observation, so transfer
//!   surpluses collapse to zero naturally — cooperation cannot conjure
//!   energy a drought removed.

use crate::s4::EnergyManagementInput;
use greencell_units::{Energy, Power};

/// Hysteresis sleep policy for base stations.
///
/// A BS whose total data backlog sits below [`SleepPolicy::threshold_pkts`]
/// for [`SleepPolicy::w_slots`] consecutive slots powers down to
/// [`SleepPolicy::sleep_power`] and stops transmitting; its users
/// re-associate to the best awake BS through the existing gain tables.
/// Wake-up is backlog-triggered and pays a ramp window at
/// [`SleepPolicy::ramp_power`] before the BS serves again, so the policy
/// cannot chatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepPolicy {
    /// A slot counts as idle when the BS's total data backlog is strictly
    /// below this many packets.
    pub threshold_pkts: f64,
    /// Consecutive idle slots required before the BS powers down.
    pub w_slots: u32,
    /// A sleeping BS wakes when a user it would best serve accumulates at
    /// least this many packets of backlog.
    pub wake_threshold_pkts: f64,
    /// Slots a woken BS spends ramping back up — powered at
    /// [`SleepPolicy::ramp_power`] but not yet transmitting.
    pub ramp_slots: u32,
    /// Overhead power drawn while asleep (replaces the BS overhead).
    pub sleep_power: Power,
    /// Overhead power drawn while ramping (the wake-up cost).
    pub ramp_power: Power,
}

/// Inter-BS energy-cooperation policy (the `energy_coop` stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoopPolicy {
    /// Transfer efficiency `η_x ∈ [0, 1]`: one kWh exported delivers
    /// `η_x` kWh at the importing BS. `0` disables transfers exactly —
    /// the stage is then bit-identical to the per-node marginal-price
    /// solver, the standing equivalence reference.
    pub eta_x: f64,
}

/// The per-slot mutable network state owned by the controller's slot
/// context: which BSs are awake, who serves whom, and where renewable
/// surplus flows.
///
/// All buffers are sized once at construction and mutated in place, so a
/// steady-state slot with both policies enabled allocates nothing (audited
/// in `crates/core/tests/s1_zero_alloc.rs`).
#[derive(Debug, Clone)]
pub struct NetworkState {
    n: usize,
    is_bs: Vec<bool>,
    /// Every base station, in ascending node order: the sleep machine's
    /// global rules run over this list.
    bs: Vec<usize>,
    /// Each node's part (`usize::MAX` for a node no part covers).
    node_part: Vec<usize>,
    /// Each part's base stations, in ascending node order: the only ones
    /// a user of that part can hear.
    part_bs: Vec<Vec<usize>>,
    /// Per-BS awake flag (users are always "awake").
    awake: Vec<bool>,
    /// Consecutive idle slots counted toward the sleep threshold.
    idle_slots: Vec<u32>,
    /// Remaining ramp-up slots after a wake-up.
    ramp_remaining: Vec<u32>,
    /// Best awake BS per user (`usize::MAX` when no awake BS is in range).
    association: Vec<usize>,
    /// This slot's fault availability mask (all-true when fault-free).
    avail: Vec<bool>,
    /// Available AND (for BSs) awake with ramp complete — the mask the
    /// schedule/admission/routing stages see.
    active: Vec<bool>,
    /// Per-node data backlog in packets, written by the driver each slot.
    node_backlog: Vec<f64>,
    /// Transfer-adjusted renewable vector (the `energy_coop` stage's
    /// substitute for the observation's harvest).
    r_adj: Vec<Energy>,
    /// Exportable-surplus scratch for the transfer matching.
    surplus: Vec<f64>,
    slot_transferred_kwh: f64,
    transferred_kwh: f64,
    sleep_transitions: u64,
    wake_transitions: u64,
    slot_sleep_transitions: u64,
    slot_wake_transitions: u64,
    sleep: Option<SleepPolicy>,
    coop: Option<CoopPolicy>,
}

impl Default for NetworkState {
    /// The inert zero-node state: [`NetworkState::dynamic`] is false and
    /// nothing reads it.
    fn default() -> Self {
        Self::new(&[], &[], None, None)
    }
}

impl NetworkState {
    /// Builds the state for a network whose node kinds are `is_bs` and
    /// whose nodes sit in the parts `node_part` (`usize::MAX` for a node
    /// no part covers; a gain between two parts is zero), with every BS
    /// awake. Without either policy the state is inert, nothing reads it,
    /// and it tracks no nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_part` and `is_bs` differ in length.
    #[must_use]
    pub fn new(
        is_bs: &[bool],
        node_part: &[usize],
        sleep: Option<SleepPolicy>,
        coop: Option<CoopPolicy>,
    ) -> Self {
        let (is_bs, node_part) = if sleep.is_some() || coop.is_some() {
            (is_bs, node_part)
        } else {
            (&[][..], &[][..])
        };
        assert_eq!(is_bs.len(), node_part.len(), "one part per node");
        let n = is_bs.len();
        let bs: Vec<usize> = (0..n).filter(|&i| is_bs[i]).collect();
        let parts = node_part
            .iter()
            .filter(|&&k| k != usize::MAX)
            .max()
            .map_or(0, |&k| k + 1);
        let mut part_bs = vec![Vec::new(); parts];
        for &b in &bs {
            if let Some(list) = part_bs.get_mut(node_part[b]) {
                list.push(b);
            }
        }
        Self {
            n,
            is_bs: is_bs.to_vec(),
            bs,
            node_part: node_part.to_vec(),
            part_bs,
            awake: vec![true; n],
            idle_slots: vec![0; n],
            ramp_remaining: vec![0; n],
            association: vec![usize::MAX; n],
            avail: vec![true; n],
            active: vec![true; n],
            node_backlog: vec![0.0; n],
            r_adj: Vec::with_capacity(n),
            surplus: vec![0.0; n],
            slot_transferred_kwh: 0.0,
            transferred_kwh: 0.0,
            sleep_transitions: 0,
            wake_transitions: 0,
            slot_sleep_transitions: 0,
            slot_wake_transitions: 0,
            sleep,
            coop,
        }
    }

    /// Whether any dynamic-topology policy is enabled. When false the
    /// state is inert and the controller is bit-identical to the paper
    /// pipeline.
    #[must_use]
    pub fn dynamic(&self) -> bool {
        self.sleep.is_some() || self.coop.is_some()
    }

    /// Starts a slot: copies the fault availability mask (empty means all
    /// nodes up) and resets the per-slot transition/transfer counters.
    /// When sleeping is disabled the active mask is the availability mask
    /// verbatim, so cooperation-only runs see exactly the paper's node
    /// set.
    pub fn begin_slot(&mut self, node_available: &[bool]) {
        self.avail.clear();
        if node_available.is_empty() {
            self.avail.resize(self.n, true);
        } else {
            self.avail.extend_from_slice(node_available);
        }
        self.slot_sleep_transitions = 0;
        self.slot_wake_transitions = 0;
        self.slot_transferred_kwh = 0.0;
        if self.sleep.is_none() {
            self.active.clear();
            self.active.extend_from_slice(&self.avail);
        }
    }

    /// Records node `idx`'s total data backlog (packets) for this slot —
    /// the sleep machine's idle/wake signal.
    pub fn set_node_backlog(&mut self, idx: usize, packets: f64) {
        self.node_backlog[idx] = packets;
    }

    /// Runs one slot of the hysteresis sleep machine. `gain` is the
    /// channel gain lookup `(user, bs) → H` over global node ids used for
    /// wake triggers and re-association; it is asked only for a user and
    /// a base station of the same part (the controller reads that part's
    /// gain table). A gain between two parts is exactly zero, and a zero
    /// gain never wins the strict `>` that picks the best base station,
    /// so scanning only the user's own part is exact. Returns whether the
    /// awake set changed.
    ///
    /// Per-slot order: outage interplay, ramp countdown, hysteresis sleep
    /// entry (ascending node order, never the last awake BS), backlog-
    /// triggered wake-up, re-association + active-mask refresh. The ramp
    /// countdown precedes wake-up, so a freshly woken BS stays inactive
    /// for the full `ramp_slots` window. The global rules run serially
    /// over the base-station list.
    pub fn step_sleep(&mut self, gain: &dyn Fn(usize, usize) -> f64) -> bool {
        let Some(p) = self.sleep else {
            return false;
        };
        let mut changed = false;
        // 1. Fault interplay: an outaged BS is not asleep-by-choice — its
        //    timers reset and it re-enters service as a normal awake BS
        //    the moment the outage lifts.
        for &i in &self.bs {
            if !self.avail[i] {
                if !self.awake[i] {
                    self.awake[i] = true;
                    changed = true;
                }
                self.idle_slots[i] = 0;
                self.ramp_remaining[i] = 0;
            }
        }
        // 2. Ramp countdown.
        for r in &mut self.ramp_remaining {
            *r = r.saturating_sub(1);
        }
        // 3. Hysteresis sleep entry, ascending node order; the last awake
        //    available BS never sleeps.
        let mut awake_avail = self
            .bs
            .iter()
            .filter(|&&i| self.awake[i] && self.avail[i])
            .count();
        for &i in &self.bs {
            if !(self.avail[i] && self.awake[i]) {
                continue;
            }
            if self.ramp_remaining[i] > 0 {
                self.idle_slots[i] = 0;
                continue;
            }
            if self.node_backlog[i] < p.threshold_pkts {
                self.idle_slots[i] = self.idle_slots[i].saturating_add(1);
            } else {
                self.idle_slots[i] = 0;
            }
            if self.idle_slots[i] >= p.w_slots && awake_avail > 1 {
                self.awake[i] = false;
                self.idle_slots[i] = 0;
                awake_avail -= 1;
                self.sleep_transitions += 1;
                self.slot_sleep_transitions += 1;
                changed = true;
            }
        }
        // 4. Backlog-triggered wake-up: a user whose backlog crossed the
        //    wake threshold wakes the BS that would serve it best overall
        //    (awake or not), if that BS chose to sleep.
        for u in 0..self.n {
            if self.is_bs[u] || !self.avail[u] || self.node_backlog[u] < p.wake_threshold_pkts {
                continue;
            }
            let best = self.best_bs(u, gain, |b| self.avail[b]);
            if best != usize::MAX && !self.awake[best] {
                self.awake[best] = true;
                self.ramp_remaining[best] = p.ramp_slots;
                self.idle_slots[best] = 0;
                self.wake_transitions += 1;
                self.slot_wake_transitions += 1;
                changed = true;
            }
        }
        // Safety net: never leave the network without a serving BS.
        if !self.bs.iter().any(|&i| self.awake[i] && self.avail[i]) {
            for &i in &self.bs {
                if self.avail[i] && !self.awake[i] {
                    self.awake[i] = true;
                    self.ramp_remaining[i] = p.ramp_slots;
                    self.wake_transitions += 1;
                    self.slot_wake_transitions += 1;
                    changed = true;
                }
            }
        }
        // 5. Re-associate users to their best awake BS and refresh the
        //    active mask the scheduling/admission/routing stages read.
        for u in 0..self.n {
            self.association[u] = if self.is_bs[u] {
                usize::MAX
            } else {
                self.best_bs(u, gain, |b| self.avail[b] && self.awake[b])
            };
        }
        for i in 0..self.n {
            self.active[i] =
                self.avail[i] && (!self.is_bs[i] || (self.awake[i] && self.ramp_remaining[i] == 0));
        }
        changed
    }

    /// The base station of user `u`'s part with the strictly largest gain
    /// to `u` among those `eligible`, the lowest id on a tie;
    /// `usize::MAX` when none has a positive gain.
    fn best_bs(
        &self,
        u: usize,
        gain: &dyn Fn(usize, usize) -> f64,
        eligible: impl Fn(usize) -> bool,
    ) -> usize {
        let Some(list) = self.part_bs.get(self.node_part[u]) else {
            return usize::MAX;
        };
        let mut best = usize::MAX;
        let mut best_gain = 0.0;
        for &b in list {
            if !eligible(b) {
                continue;
            }
            let g = gain(u, b);
            if g > best_gain {
                best_gain = g;
                best = b;
            }
        }
        best
    }

    /// Computes this slot's inter-BS transfers: greedy lossy matching of
    /// renewable surplus (beyond demand and battery charge room) at
    /// exporting BSs against renewable deficits at importing BSs,
    /// importers and exporters both in ascending node order. `input` lists
    /// the base stations alone, in ascending node order (entry `k` is BS
    /// `k` of this state). Fills the adjusted renewable vector, one entry
    /// per entry of `input`, that the `energy_coop` stage hands to the
    /// marginal-price solver.
    ///
    /// With `η_x ≤ 0` the adjusted vector is a verbatim copy, so the
    /// downstream solve is bit-identical to the per-node solve.
    ///
    /// # Panics
    ///
    /// Panics if cooperation is on and `input` does not list every BS.
    pub(crate) fn compute_transfers(&mut self, input: &EnergyManagementInput<'_>) {
        self.r_adj.clear();
        self.r_adj.extend_from_slice(input.renewable);
        let Some(c) = self.coop else {
            return;
        };
        let eta = c.eta_x;
        if eta <= 0.0 {
            return;
        }
        let n = self.r_adj.len();
        assert_eq!(n, self.bs.len(), "one input entry per base station");
        let up = |k: usize| self.avail.get(self.bs[k]).copied().unwrap_or(true);
        self.surplus.clear();
        for k in 0..n {
            let s = if up(k) {
                let demand = input.demand[k].as_kilowatt_hours();
                let renewable = self.r_adj[k].as_kilowatt_hours();
                // Charge room mirrors S4's `NodeEnv` exactly: a BS
                // that can still bank its surplus in its own battery has
                // nothing to export.
                let c_room = input.batteries[k].max_charge_now().as_kilowatt_hours();
                (renewable - demand - c_room).max(0.0)
            } else {
                0.0
            };
            self.surplus.push(s);
        }
        for j in 0..n {
            if !up(j) {
                continue;
            }
            let mut deficit =
                (input.demand[j].as_kilowatt_hours() - self.r_adj[j].as_kilowatt_hours()).max(0.0);
            if deficit <= 0.0 {
                continue;
            }
            for e in 0..n {
                if e == j || self.surplus[e] <= 0.0 {
                    continue;
                }
                let sent = self.surplus[e].min(deficit / eta);
                let delivered = eta * sent;
                self.surplus[e] -= sent;
                deficit -= delivered;
                let re = self.r_adj[e].as_kilowatt_hours();
                self.r_adj[e] = Energy::from_kilowatt_hours((re - sent).max(0.0));
                let rj = self.r_adj[j].as_kilowatt_hours();
                self.r_adj[j] = Energy::from_kilowatt_hours(rj + delivered);
                self.slot_transferred_kwh += delivered;
                if deficit <= 0.0 {
                    break;
                }
            }
        }
        self.transferred_kwh += self.slot_transferred_kwh;
    }

    /// The transfer-adjusted renewable vector (valid after
    /// [`NetworkState::compute_transfers`]).
    pub(crate) fn adjusted_renewable(&self) -> &[Energy] {
        &self.r_adj
    }

    /// The active-node mask the schedule/admission/routing stages see:
    /// available AND (for BSs) awake with ramp complete.
    #[must_use]
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Per-user best awake BS (`usize::MAX` for BSs and uncovered users).
    #[must_use]
    pub fn association(&self) -> &[usize] {
        &self.association
    }

    /// Whether BS `idx` is currently asleep by choice.
    #[must_use]
    pub fn is_asleep(&self, idx: usize) -> bool {
        self.is_bs[idx] && !self.awake[idx]
    }

    /// Remaining ramp-up slots for node `idx`.
    #[must_use]
    pub fn ramp_remaining(&self, idx: usize) -> u32 {
        self.ramp_remaining[idx]
    }

    /// Number of base stations currently asleep.
    #[must_use]
    pub fn asleep_bs_count(&self) -> usize {
        self.bs.iter().filter(|&&i| !self.awake[i]).count()
    }

    /// Cumulative sleep transitions over the run.
    #[must_use]
    pub fn sleep_transitions(&self) -> u64 {
        self.sleep_transitions
    }

    /// Cumulative wake transitions over the run.
    #[must_use]
    pub fn wake_transitions(&self) -> u64 {
        self.wake_transitions
    }

    /// Sleep transitions in the current slot.
    #[must_use]
    pub fn slot_sleep_transitions(&self) -> u64 {
        self.slot_sleep_transitions
    }

    /// Wake transitions in the current slot.
    #[must_use]
    pub fn slot_wake_transitions(&self) -> u64 {
        self.slot_wake_transitions
    }

    /// kWh delivered by transfers in the current slot.
    #[must_use]
    pub fn slot_transferred_kwh(&self) -> f64 {
        self.slot_transferred_kwh
    }

    /// Cumulative kWh delivered by transfers over the run.
    #[must_use]
    pub fn transferred_kwh(&self) -> f64 {
        self.transferred_kwh
    }

    /// Per-node sleep timer state for the snapshot codec.
    #[must_use]
    pub fn export_timers(&self) -> (&[bool], &[u32], &[u32]) {
        (&self.awake, &self.idle_slots, &self.ramp_remaining)
    }

    /// Overlays persisted sleep/association/transfer state (snapshot
    /// restore). Vector arguments must match the node count; the caller
    /// (the snapshot codec) validates dimensions first.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length does not match the node count.
    // One parameter per persisted field: the snapshot codec reads them
    // as separate records, and bundling them into a struct would just
    // move the field list one file over.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &mut self,
        awake: &[bool],
        idle_slots: &[u32],
        ramp_remaining: &[u32],
        association: &[usize],
        sleep_transitions: u64,
        wake_transitions: u64,
        transferred_kwh: f64,
    ) {
        assert_eq!(awake.len(), self.n, "awake length mismatch");
        assert_eq!(idle_slots.len(), self.n, "idle_slots length mismatch");
        assert_eq!(
            ramp_remaining.len(),
            self.n,
            "ramp_remaining length mismatch"
        );
        assert_eq!(association.len(), self.n, "association length mismatch");
        self.awake.copy_from_slice(awake);
        self.idle_slots.copy_from_slice(idle_slots);
        self.ramp_remaining.copy_from_slice(ramp_remaining);
        self.association.copy_from_slice(association);
        self.sleep_transitions = sleep_transitions;
        self.wake_transitions = wake_transitions;
        self.transferred_kwh = transferred_kwh;
        for i in 0..self.n {
            self.active[i] =
                self.avail[i] && (!self.is_bs[i] || (self.awake[i] && self.ramp_remaining[i] == 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SleepPolicy {
        SleepPolicy {
            threshold_pkts: 2.0,
            w_slots: 2,
            wake_threshold_pkts: 8.0,
            ramp_slots: 1,
            sleep_power: Power::from_watts(0.5),
            ramp_power: Power::from_watts(5.0),
        }
    }

    /// 2 BSs (0, 1) + 2 users (2, 3); user 2 nearest BS 0, user 3 nearest
    /// BS 1.
    fn gain(u: usize, b: usize) -> f64 {
        match (u, b) {
            (2, 0) | (3, 1) => 1.0,
            (2, 1) | (3, 0) => 0.1,
            _ => 0.0,
        }
    }

    fn state(sleep: Option<SleepPolicy>) -> NetworkState {
        NetworkState::new(&[true, true, false, false], &[0; 4], sleep, None)
    }

    #[test]
    fn idle_bs_sleeps_after_hysteresis_and_users_reassociate() {
        let mut s = state(Some(policy()));
        for slot in 0..3 {
            s.begin_slot(&[]);
            // BS 1 idle, BS 0 loaded.
            s.set_node_backlog(0, 100.0);
            s.set_node_backlog(1, 0.0);
            let changed = s.step_sleep(&gain);
            if slot < 1 {
                assert!(!changed, "slot {slot}: no transition yet");
                assert!(!s.is_asleep(1));
            }
        }
        assert!(s.is_asleep(1), "BS 1 asleep after W idle slots");
        assert!(!s.is_asleep(0), "loaded BS stays awake");
        assert_eq!(s.sleep_transitions(), 1);
        // User 3's best awake BS is now BS 0.
        assert_eq!(s.association()[3], 0);
        assert!(!s.active()[1]);
        assert!(s.active()[0] && s.active()[2] && s.active()[3]);
    }

    #[test]
    fn backlog_wakes_the_sleeping_bs_with_a_ramp() {
        let mut s = state(Some(policy()));
        for _ in 0..3 {
            s.begin_slot(&[]);
            s.set_node_backlog(0, 100.0);
            s.set_node_backlog(1, 0.0);
            s.step_sleep(&gain);
        }
        assert!(s.is_asleep(1));
        // User 3 piles up backlog past the wake threshold.
        s.begin_slot(&[]);
        s.set_node_backlog(0, 100.0);
        s.set_node_backlog(3, 10.0);
        let changed = s.step_sleep(&gain);
        assert!(changed);
        assert!(!s.is_asleep(1), "woken by user 3's backlog");
        assert!(!s.active()[1], "still ramping");
        assert_eq!(s.wake_transitions(), 1);
        // Next slot the ramp completes.
        s.begin_slot(&[]);
        s.set_node_backlog(0, 100.0);
        s.set_node_backlog(1, 5.0);
        s.set_node_backlog(3, 10.0);
        s.step_sleep(&gain);
        assert!(s.active()[1], "ramp complete, back in service");
    }

    #[test]
    fn last_awake_bs_never_sleeps() {
        let mut s = state(Some(policy()));
        for _ in 0..10 {
            s.begin_slot(&[]);
            // Both BSs idle forever.
            s.step_sleep(&gain);
        }
        assert_eq!(s.asleep_bs_count(), 1, "exactly one BS asleep");
        // Sleep entry runs in ascending node order, so BS 0 powers down
        // first and BS 1 is the guaranteed survivor.
        assert!(s.is_asleep(0));
        assert!(!s.is_asleep(1), "the last awake BS never sleeps");
    }

    #[test]
    fn outaged_bs_is_not_asleep_by_choice() {
        let mut s = state(Some(policy()));
        for _ in 0..3 {
            s.begin_slot(&[]);
            s.set_node_backlog(0, 100.0);
            s.step_sleep(&gain);
        }
        assert!(s.is_asleep(1));
        // BS 1 is now outaged: it must be forced awake (but inactive).
        s.begin_slot(&[true, false, true, true]);
        s.set_node_backlog(0, 100.0);
        let changed = s.step_sleep(&gain);
        assert!(changed);
        assert!(!s.is_asleep(1), "outage overrides sleep");
        assert!(!s.active()[1], "but the outaged BS stays unavailable");
    }

    #[test]
    fn transfers_move_surplus_to_deficit_and_eta_zero_is_verbatim() {
        use greencell_energy::Battery;
        use greencell_energy::QuadraticCost;
        // Two BSs: node 0 has surplus (renewable 1 kWh, demand 0.2, full
        // battery = no charge room), node 1 has deficit (renewable 0,
        // demand 0.4).
        let full = Battery::with_level(
            Energy::from_kilowatt_hours(1.0),
            Energy::from_kilowatt_hours(0.5),
            Energy::from_kilowatt_hours(0.5),
            Energy::from_kilowatt_hours(1.0),
        );
        let batteries = vec![full, full];
        let z = [0.0, 0.0];
        let demand = [
            Energy::from_kilowatt_hours(0.2),
            Energy::from_kilowatt_hours(0.4),
        ];
        let renewable = [Energy::from_kilowatt_hours(1.0), Energy::ZERO];
        let grid = [true, true];
        let limits = [Energy::from_kilowatt_hours(0.2); 2];
        let is_bs = [true, true];
        let cost = QuadraticCost::new(0.8, 0.2, 0.0);
        let input = EnergyManagementInput {
            z: &z,
            demand: &demand,
            renewable: &renewable,
            batteries: &batteries,
            grid_connected: &grid,
            grid_limits: &limits,
            is_base_station: &is_bs,
            cost: &cost,
            v: 1e5,
        };
        let mut s = NetworkState::new(&is_bs, &[0, 0], None, Some(CoopPolicy { eta_x: 0.5 }));
        s.begin_slot(&[]);
        s.compute_transfers(&input);
        let adj = s.adjusted_renewable();
        // Deficit 0.4 kWh needs 0.8 kWh exported at η = 0.5.
        assert!((adj[0].as_kilowatt_hours() - 0.2).abs() < 1e-12, "{adj:?}");
        assert!((adj[1].as_kilowatt_hours() - 0.4).abs() < 1e-12, "{adj:?}");
        assert!((s.slot_transferred_kwh() - 0.4).abs() < 1e-12);

        let mut z0 = NetworkState::new(&is_bs, &[0, 0], None, Some(CoopPolicy { eta_x: 0.0 }));
        z0.begin_slot(&[]);
        z0.compute_transfers(&input);
        let adj0 = z0.adjusted_renewable();
        assert_eq!(
            adj0[0].as_joules().to_bits(),
            renewable[0].as_joules().to_bits()
        );
        assert_eq!(
            adj0[1].as_joules().to_bits(),
            renewable[1].as_joules().to_bits()
        );
        assert_eq!(z0.slot_transferred_kwh(), 0.0);
    }
}
