//! Controller configuration: the paper's tunables and per-node energy
//! hardware.

use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NodeId};
use greencell_units::{Bandwidth, Energy, PacketSize, Packets, Power, TimeDelta};

/// Which S1 link-scheduling algorithm the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The paper's sequential-fix heuristic (§IV-C1): repeatedly solve the
    /// LP relaxation of S1 (with the big-M linearized SINR constraint (24))
    /// and round the largest fractional activation to 1. Paper-faithful but
    /// solves a series of LPs per slot.
    SequentialFix,
    /// Weight-greedy: sort candidate link-band activations by
    /// `H_ij(t)·c^m_ij(t)` and admit each if the single-radio constraint
    /// (22) and the SINR feasibility check (24) still hold. Polynomial,
    /// no LPs; within a constant factor of sequential-fix in practice (see
    /// the `scheduler_ablation` test).
    Greedy,
}

impl SchedulerKind {
    /// This kind's one spelling, as manifests and golden labels write it.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::SequentialFix => "sequential_fix",
            Self::Greedy => "greedy",
        }
    }
}

/// Whether traffic may be relayed through intermediate nodes.
///
/// The paper's Fig. 2(f) compares the proposed multi-hop architecture
/// against one-hop baselines where base stations serve destinations
/// directly. Under [`RelayPolicy::OneHop`] only links whose transmitter is
/// a base station are eligible for routing and scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelayPolicy {
    /// Any node may relay (the paper's proposed architecture).
    #[default]
    MultiHop,
    /// Only base stations transmit (traditional cellular downlink).
    OneHop,
}

impl RelayPolicy {
    /// This policy's one spelling, as golden labels write it.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::MultiHop => "multi_hop",
            Self::OneHop => "one_hop",
        }
    }

    /// Whether `node` may transmit and carry routed flow under this
    /// policy: any node under multi-hop, only base stations under one-hop.
    #[must_use]
    pub fn may_relay(self, net: &Network, node: NodeId) -> bool {
        match self {
            Self::MultiHop => true,
            Self::OneHop => net.topology().node(node).kind().is_base_station(),
        }
    }
}

/// Which S4 energy-management policy the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnergyPolicy {
    /// The paper's S4: the exact marginal-price equilibrium over grid,
    /// renewable, and battery sourcing.
    #[default]
    MarginalPrice,
    /// Ablation baseline: a storage-oblivious policy — serve demand from
    /// renewables first, then the grid, then (only when forced) the
    /// battery; never charge. Quantifies how much of the cost saving comes
    /// from S4's Lyapunov-driven storage management.
    GridOnly,
}

impl EnergyPolicy {
    /// This policy's one spelling, as manifests and golden labels write
    /// it.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::MarginalPrice => "marginal_price",
            Self::GridOnly => "grid_only",
        }
    }
}

/// What the controller does when S4 cannot source a node's demand even
/// after shedding every transmission (the degradation ladder's last rungs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Degrade instead of aborting: shed transmissions, then fall back to
    /// grid-only sourcing, then enter a bounded safe mode that serves as
    /// much of each node's demand as physics allows and reports the
    /// shortfall as a [`crate::DegradationEvent`]. The run always
    /// continues.
    #[default]
    Graceful,
    /// The pre-fault behavior: return
    /// [`crate::ControllerError::IdleDeficit`] and abort the slot. Useful
    /// in tests that assert a configuration is inconsistent.
    Strict,
}

/// The Lyapunov controller's scalar knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The drift-plus-penalty weight `V ≥ 0`: larger values emphasize
    /// energy-cost minimization over queue-backlog reduction (§IV-B).
    pub v: f64,
    /// The admission reward coefficient `λ` in P2's objective; S2 admits
    /// `K_max` packets iff the chosen source BS backlog is below `λV`.
    pub lambda: f64,
    /// Per-session per-slot admission burst `K^max_s` (same for all
    /// sessions, as in the paper's evaluation).
    pub k_max: Packets,
    /// The packet size `δ`.
    pub packet_size: PacketSize,
    /// The slot duration `Δt`.
    pub slot: TimeDelta,
    /// Which S1 algorithm to run.
    pub scheduler: SchedulerKind,
    /// Whether intermediate nodes may relay (Fig. 2(f) ablation).
    pub relay: RelayPolicy,
    /// Which S4 energy policy to run (ablation knob).
    pub energy_policy: EnergyPolicy,
    /// A uniform upper bound on every band's bandwidth, used for the drift
    /// constants `β` and `B` (the paper's `c^max_ij`); the simulator must
    /// never observe a larger `W_m(t)`.
    pub w_max: Bandwidth,
    /// What to do when S4 stays infeasible after shedding (fault handling).
    pub degradation: DegradationPolicy,
    /// Dynamic BS sleeping (the sleep machine the driver runs before S1);
    /// `None` keeps every BS awake and the controller bit-identical to the
    /// paper.
    pub bs_sleep: Option<crate::netstate::SleepPolicy>,
    /// Inter-BS energy cooperation ([`crate::pipeline::EnergyCoopStage`]);
    /// `None` keeps S4 per-node-independent as in the paper.
    pub energy_coop: Option<crate::netstate::CoopPolicy>,
}

impl ControllerConfig {
    /// Validates the configuration's numeric sanity.
    ///
    /// # Panics
    ///
    /// Panics if `v < 0`, `lambda < 0`, the slot is non-positive, or
    /// `w_max` is non-positive.
    pub fn validate(&self) {
        assert!(self.v >= 0.0, "V must be non-negative, got {}", self.v);
        assert!(
            self.lambda >= 0.0,
            "λ must be non-negative, got {}",
            self.lambda
        );
        assert!(
            self.slot.as_seconds() > 0.0,
            "slot duration must be positive"
        );
        assert!(
            self.w_max > Bandwidth::ZERO,
            "bandwidth bound must be positive"
        );
    }
}

/// One node's energy hardware: battery, demand model, radio power cap, and
/// grid connection limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEnergyConfig {
    /// The storage unit (initial state included).
    pub battery: Battery,
    /// The demand side `E^const`, `E^idle`, `P^recv`.
    pub energy_model: NodeEnergyModel,
    /// The transmit power cap `P^i_max`.
    pub max_power: Power,
    /// The per-slot grid draw limit `p^max_i` (Eq. (14)).
    pub grid_limit: Energy,
}

/// Energy hardware for the whole network plus the provider's cost function.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyConfig {
    /// Per-node hardware, indexed by `NodeId`.
    pub nodes: Vec<NodeEnergyConfig>,
    /// The generation cost `f(P)`.
    pub cost: QuadraticCost,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ControllerConfig {
        ControllerConfig {
            v: 1e5,
            lambda: 0.2,
            k_max: Packets::new(1000),
            packet_size: PacketSize::from_bits(10_000),
            slot: TimeDelta::from_minutes(1.0),
            scheduler: SchedulerKind::Greedy,
            relay: RelayPolicy::MultiHop,
            energy_policy: EnergyPolicy::MarginalPrice,
            w_max: Bandwidth::from_megahertz(2.0),
            degradation: DegradationPolicy::Graceful,
            bs_sleep: None,
            energy_coop: None,
        }
    }

    #[test]
    fn valid_config_passes() {
        config().validate();
    }

    #[test]
    #[should_panic(expected = "V must be non-negative")]
    fn negative_v_rejected() {
        let mut c = config();
        c.v = -1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "slot duration")]
    fn zero_slot_rejected() {
        let mut c = config();
        c.slot = TimeDelta::ZERO;
        c.validate();
    }
}
