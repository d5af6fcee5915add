//! S2 — resource allocation: choose each session's source base station
//! `s_s(t)` and admission `k_s(t)` to minimize
//! `Ψ̂₂(t) = Σ_s Σ_{i∈ℬ} (Q^s_i(t) − λV)·k_s(t)·1{i = s_s(t)}` (§IV-C2).
//!
//! The paper's rule, reproduced exactly:
//!
//! 1. For each session, the BS with the *smallest* backlog `Q^s_i(t)`
//!    becomes the source (ties broken by lowest node id — the paper breaks
//!    them uniformly at random; a deterministic rule keeps experiments
//!    replayable and is one of the tie-break choices the random rule can
//!    make).
//! 2. Admit `k_s(t) = K^max_s` if `Q^s_{s_s}(t) − λV < 0`, else admit
//!    nothing. This threshold is the valve that keeps the data queues
//!    strongly stable: backlogs can never exceed `λV + K^max` at a source.

use greencell_net::{Network, NodeId, SessionId};
use greencell_queue::DataQueueBank;
use greencell_units::Packets;

/// One session's S2 outcome: chosen source BS and admitted packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The session.
    pub session: SessionId,
    /// The chosen source base station `s_s(t)`.
    pub source: NodeId,
    /// Admitted packets `k_s(t)` (either `K^max_s` or zero).
    pub packets: Packets,
}

/// Runs S2 for every session.
///
/// # Examples
///
/// ```
/// use greencell_core::resource_allocation;
/// use greencell_net::{NetworkBuilder, PathLossModel, Point};
/// use greencell_queue::DataQueueBank;
/// use greencell_units::{DataRate, Packets};
///
/// let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
/// let bs = b.add_base_station(Point::new(0.0, 0.0));
/// let u = b.add_user(Point::new(100.0, 0.0));
/// b.add_session(u, DataRate::from_kilobits_per_second(100.0));
/// let net = b.build()?;
/// let data = DataQueueBank::new(2, &[u]);
///
/// // Empty queue at the only BS ⇒ admit the full burst.
/// let admissions = resource_allocation(&net, &data, 0.02, 1e5, Packets::new(1000));
/// assert_eq!(admissions[0].source, bs);
/// assert_eq!(admissions[0].packets, Packets::new(1000));
/// # Ok::<(), greencell_net::NetworkError>(())
/// ```
///
/// # Panics
///
/// Panics if the network has no base stations (prevented by
/// `NetworkBuilder` validation).
#[must_use]
pub fn resource_allocation(
    net: &Network,
    data: &DataQueueBank,
    lambda: f64,
    v: f64,
    k_max: Packets,
) -> Vec<Admission> {
    let mut out = Vec::new();
    resource_allocation_masked_into(net, data, lambda, v, k_max, &|_| true, &mut out);
    out
}

/// The paper's admission valve: admit `K^max_s` iff `Q^s_{s_s}(t) − λV < 0`
/// (strict). Shared by the online S2 stage and the relaxed lower-bound
/// controller so the threshold can never drift between the two.
#[must_use]
pub fn admission_valve_open(q: f64, lambda: f64, v: f64) -> bool {
    q - lambda * v < 0.0
}

/// The paper's source rule: the base station with the smallest backlog,
/// lowest id on ties (`None` when there is no candidate). Shared by the
/// online S2 stage and the relaxed lower-bound controller; the online
/// stage's integer backlogs convert to `f64` exactly and monotonically
/// below 2⁵³, so both pick by the same keys.
pub(crate) fn min_backlog_source(
    candidates: impl Iterator<Item = NodeId>,
    backlog: impl Fn(NodeId) -> f64,
) -> Option<NodeId> {
    candidates.min_by(|&a, &b| backlog(a).total_cmp(&backlog(b)).then(a.cmp(&b)))
}

/// S2 into a caller-owned buffer (cleared first; allocation-free once it
/// has reached its steady-state capacity), restricted to an eligible
/// source set: the paper's rule over only the base stations for which
/// `source_eligible` returns true. With a dynamic policy live the driver
/// passes "awake and done ramping" here so sessions re-associate to a
/// serving BS instead of queueing behind one that chose to sleep, and an
/// always-true filter otherwise. Outaged BSs are *not* excluded — a down
/// source admits nothing and the session waits the fault out, exactly as
/// in the static controller.
///
/// If no BS is eligible (every BS mid-ramp after a mass wake-up) the
/// filter is ignored and the unrestricted rule applies; the caller's
/// active-mask retain then drops the admission for the slot.
///
/// # Panics
///
/// Panics if the network has no base stations (prevented by
/// `NetworkBuilder` validation).
pub fn resource_allocation_masked_into(
    net: &Network,
    data: &DataQueueBank,
    lambda: f64,
    v: f64,
    k_max: Packets,
    source_eligible: &dyn Fn(NodeId) -> bool,
    out: &mut Vec<Admission>,
) {
    out.clear();
    out.extend(net.sessions().iter().map(|session| {
        let s = session.id();
        let backlog = |b: NodeId| data.backlog(b, s).count_f64();
        let bss = || net.topology().base_stations();
        let source = min_backlog_source(bss().filter(|&b| source_eligible(b)), backlog)
            .or_else(|| min_backlog_source(bss(), backlog))
            .expect("network has at least one base station");
        let q = data.backlog(source, s).count_f64();
        let packets = if admission_valve_open(q, lambda, v) {
            k_max
        } else {
            Packets::ZERO
        };
        Admission {
            session: s,
            source,
            packets,
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::{NetworkBuilder, PathLossModel, Point};
    use greencell_queue::FlowPlan;
    use greencell_units::DataRate;

    /// Two BSs (nodes 0, 1), one user (node 2), two sessions to the user.
    fn fixture() -> (Network, DataQueueBank) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_base_station(Point::new(1000.0, 0.0));
        let u = b.add_user(Point::new(500.0, 0.0));
        b.add_session(u, DataRate::from_kilobits_per_second(100.0));
        b.add_session(u, DataRate::from_kilobits_per_second(100.0));
        let net = b.build().unwrap();
        let data = DataQueueBank::new(3, &[u, u]);
        (net, data)
    }

    fn admit(data: &mut DataQueueBank, s: usize, node: usize, pkts: u64) {
        data.advance(
            &FlowPlan::new(3, 2),
            &[(
                SessionId::from_index(s),
                NodeId::from_index(node),
                Packets::new(pkts),
            )],
        );
    }

    #[test]
    fn least_backlogged_bs_wins() {
        let (net, mut data) = fixture();
        admit(&mut data, 0, 0, 500); // BS 0 has 500 queued for session 0
        let adm = resource_allocation(&net, &data, 1.0, 1000.0, Packets::new(100));
        assert_eq!(adm[0].source, NodeId::from_index(1)); // emptier BS
        assert_eq!(adm[1].source, NodeId::from_index(0)); // tie → lowest id
    }

    #[test]
    fn admission_gated_by_lambda_v() {
        let (net, mut data) = fixture();
        // λV = 100; both BSs at 150 for session 0 ⇒ no admission.
        admit(&mut data, 0, 0, 150);
        admit(&mut data, 0, 1, 150);
        let adm = resource_allocation(&net, &data, 0.1, 1000.0, Packets::new(42));
        assert_eq!(adm[0].packets, Packets::ZERO);
        // Session 1 queues are empty ⇒ full admission.
        assert_eq!(adm[1].packets, Packets::new(42));
    }

    #[test]
    fn threshold_is_strict() {
        let (net, mut data) = fixture();
        // Q = λV exactly ⇒ Q − λV = 0, not < 0 ⇒ no admission.
        admit(&mut data, 0, 0, 100);
        admit(&mut data, 0, 1, 100);
        let adm = resource_allocation(&net, &data, 0.1, 1000.0, Packets::new(9));
        assert_eq!(adm[0].packets, Packets::ZERO);
    }

    #[test]
    fn masked_selection_skips_ineligible_sources_and_falls_back_when_empty() {
        let (net, mut data) = fixture();
        admit(&mut data, 0, 0, 500); // BS 0 has 500 queued for session 0
                                     // BS 1 is emptier but ineligible (asleep) ⇒ BS 0 wins despite its
                                     // backlog, and the valve is evaluated at BS 0's queue.
        let asleep_1 = |b: NodeId| b != NodeId::from_index(1);
        let mut adm = Vec::new();
        resource_allocation_masked_into(
            &net,
            &data,
            1.0,
            1000.0,
            Packets::new(100),
            &asleep_1,
            &mut adm,
        );
        assert_eq!(adm[0].source, NodeId::from_index(0));
        assert_eq!(adm[0].packets, Packets::new(100)); // 500 < λV = 1000
                                                       // No eligible BS at all ⇒ the filter is ignored, not a panic.
        resource_allocation_masked_into(
            &net,
            &data,
            1.0,
            1000.0,
            Packets::new(100),
            &|_| false,
            &mut adm,
        );
        assert_eq!(adm[0].source, NodeId::from_index(1)); // emptier BS again
    }

    #[test]
    fn backlog_never_exceeds_lambda_v_plus_kmax() {
        let (net, mut data) = fixture();
        let k_max = Packets::new(50);
        let cap = 0.1 * 1000.0 + 50.0;
        for _ in 0..20 {
            let adm = resource_allocation(&net, &data, 0.1, 1000.0, k_max);
            for a in adm {
                if a.packets > Packets::ZERO {
                    admit(
                        &mut data,
                        a.session.index(),
                        a.source.index(),
                        a.packets.count(),
                    );
                }
            }
        }
        for bs in net.topology().base_stations() {
            for sess in net.sessions() {
                assert!(data.backlog(bs, sess.id()).count_f64() <= cap);
            }
        }
    }
}
