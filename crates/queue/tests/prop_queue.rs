//! Property tests: the queueing laws' structural invariants hold for
//! arbitrary arrival/service sequences.

use greencell_net::{NodeId, SessionId};
use greencell_queue::{lyapunov_value, DataQueueBank, FlowPlan, LinkQueueBank, PacketQueue};
use greencell_units::Packets;
use proptest::prelude::*;

proptest! {
    /// `Q(t+1) = max{Q−b,0}+a`: backlog is exactly reproducible from the
    /// law, never negative, and changes by at most `max(a, b)` per slot.
    #[test]
    fn packet_queue_law_invariants(ops in prop::collection::vec((0u64..500, 0u64..500), 1..100)) {
        let mut q = PacketQueue::new();
        let mut model: u64 = 0;
        for &(a, b) in &ops {
            let before = q.backlog().count();
            let after = q.advance(Packets::new(a), Packets::new(b)).count();
            model = model.saturating_sub(b) + a;
            prop_assert_eq!(after, model, "law mismatch");
            let delta = after.abs_diff(before);
            prop_assert!(delta <= a.max(b), "one-slot change {delta} > max(a,b)");
        }
    }

    /// Conservation: arrivals = useful service (offered − wasted) + final
    /// backlog.
    #[test]
    fn packet_queue_conservation(ops in prop::collection::vec((0u64..500, 0u64..500), 1..100)) {
        let mut q = PacketQueue::new();
        for &(a, b) in &ops {
            q.advance(Packets::new(a), Packets::new(b));
        }
        prop_assert_eq!(
            q.total_arrivals(),
            q.total_offered() - q.total_wasted() + q.backlog().count(),
            "packets must be served or still queued"
        );
    }

    /// The data bank conserves packets globally: everything admitted is
    /// either delivered, still queued somewhere, or was a phantom forward
    /// (which only ever *adds* packets at the receiver).
    #[test]
    fn data_bank_conservation(
        admissions in prop::collection::vec(0u64..200, 1..30),
        hops in prop::collection::vec((0usize..3, 0usize..3, 0u64..300), 0..30),
    ) {
        // 4 nodes, 1 session destined to node 3; admissions at node 0.
        let dest = NodeId::from_index(3);
        let mut bank = DataQueueBank::new(4, &[dest]);
        let s = SessionId::from_index(0);
        for &k in &admissions {
            bank.advance(&FlowPlan::new(4, 1), &[(s, NodeId::from_index(0), Packets::new(k))]);
        }
        let admitted: u64 = admissions.iter().sum();
        // Random forwarding between nodes 0..=2 and into the destination.
        for &(i, j, pkts) in &hops {
            if i == j {
                continue;
            }
            let mut plan = FlowPlan::new(4, 1);
            // Map j == 2 onto the destination sometimes for delivery.
            let to = if pkts % 2 == 0 { NodeId::from_index(j) } else { dest };
            let from = NodeId::from_index(i);
            if from == to {
                continue;
            }
            plan.set(s, from, to, Packets::new(pkts));
            bank.advance(&plan, &[]);
        }
        let queued: u64 = (0..4)
            .map(|i| bank.backlog(NodeId::from_index(i), s).count())
            .sum();
        let delivered = bank.delivered(s).count();
        let phantom = bank.phantom_per_session()[s.index()].count();
        // Phantoms are minted at the max{·,0} truncation; every real packet
        // is accounted for.
        prop_assert_eq!(admitted + phantom, queued + delivered,
            "admitted {} + phantom {} != queued {} + delivered {}",
            admitted, phantom, queued, delivered);
    }

    /// H is always exactly β·G, under any flow/service interleaving.
    #[test]
    fn link_bank_h_is_scaled_g(
        beta in 1.0f64..100.0,
        events in prop::collection::vec((0u64..50, 0u64..50), 1..40),
    ) {
        let mut bank = LinkQueueBank::new(2, beta);
        let i = NodeId::from_index(0);
        let j = NodeId::from_index(1);
        for &(arrive, serve) in &events {
            let mut plan = FlowPlan::new(2, 1);
            if arrive > 0 {
                plan.set(SessionId::from_index(0), i, j, Packets::new(arrive));
            }
            bank.advance(&plan, &[(i, j, Packets::new(serve))]);
            let g = bank.g(i, j).count_f64();
            prop_assert!((bank.h(i, j) - beta * g).abs() < 1e-9);
        }
    }

    /// FlowPlan lookups, its non-zero listing and its total agree with a
    /// dense matrix.
    #[test]
    fn flow_plan_matches_a_dense_matrix(entries in prop::collection::vec((0usize..4, 0usize..4, 0u64..100), 0..20)) {
        let mut plan = FlowPlan::new(4, 1);
        let s = SessionId::from_index(0);
        let mut dense = [[0u64; 4]; 4];
        for &(i, j, p) in &entries {
            if i != j {
                dense[i][j] = p; // set overwrites, matching FlowPlan::set
                plan.set(s, NodeId::from_index(i), NodeId::from_index(j), Packets::new(p));
            }
        }
        let mut expected = Vec::new();
        for (i, row) in dense.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
                prop_assert_eq!(plan.get(s, a, b).count(), p);
                if p > 0 {
                    expected.push((s, a, b, Packets::new(p)));
                }
            }
        }
        prop_assert_eq!(plan.iter_nonzero().collect::<Vec<_>>(), expected);
        let total: u64 = dense.iter().flatten().sum();
        prop_assert_eq!(plan.total().count(), total);
    }
}

/// One random slot over 5 nodes and 2 sessions (destinations 3 and 4):
/// flows `(s, i, j, l)`, admissions `(s, source, k)` and link service
/// `(i, j, b)`, with zeros common so empty queues interleave with full
/// ones.
type Slot = (
    Vec<(usize, usize, usize, u64)>,
    Vec<(usize, usize, u64)>,
    Vec<(usize, usize, u64)>,
);

const NODES: usize = 5;
const DESTS: [usize; 2] = [3, 4];

fn slot_strategy() -> impl Strategy<Value = Slot> {
    (
        prop::collection::vec((0usize..2, 0usize..NODES, 0usize..NODES, 0u64..40), 0..8),
        prop::collection::vec((0usize..2, 0usize..3, 0u64..60), 0..3),
        prop::collection::vec((0usize..NODES, 0usize..NODES, 0u64..40), 0..4),
    )
}

/// A slot's flow plan, admissions and link service, as the banks take them.
type Decisions = (
    FlowPlan,
    Vec<(SessionId, NodeId, Packets)>,
    Vec<(NodeId, NodeId, Packets)>,
);

fn ids(slot: &Slot) -> Decisions {
    let node = NodeId::from_index;
    let mut plan = FlowPlan::new(NODES, 2);
    for &(s, i, j, l) in &slot.0 {
        if i != j {
            plan.set(SessionId::from_index(s), node(i), node(j), Packets::new(l));
        }
    }
    let admissions = slot
        .1
        .iter()
        .map(|&(s, i, k)| (SessionId::from_index(s), node(i), Packets::new(k)))
        .collect();
    let mut service: Vec<(NodeId, NodeId, Packets)> = Vec::new();
    for &(i, j, b) in &slot.2 {
        if i != j
            && !service
                .iter()
                .any(|&(a, c, _)| (a, c) == (node(i), node(j)))
        {
            service.push((node(i), node(j), Packets::new(b)));
        }
    }
    (plan, admissions, service)
}

/// `Σ` of the plan's non-zero `l^s_ij` whose `(s, i, j)` passes `keep`.
fn flow_sum(plan: &FlowPlan, keep: impl Fn(SessionId, NodeId, NodeId) -> bool) -> Packets {
    plan.iter_nonzero()
        .filter(|&(s, i, j, _)| keep(s, i, j))
        .map(|e| e.3)
        .sum()
}

/// Eq. (15) over every queue, as the bank applied it before it went sparse:
/// each queue advances once by its total inflow and outflow, then the
/// admissions join.
fn dense_data_advance(
    queues: &mut [PacketQueue],
    delivered: &mut [u64],
    plan: &FlowPlan,
    admissions: &[(SessionId, NodeId, Packets)],
) {
    for (s, &dest) in DESTS.iter().enumerate() {
        let s_id = SessionId::from_index(s);
        for i in 0..NODES {
            let node = NodeId::from_index(i);
            let arrivals = flow_sum(plan, |s, _, j| s == s_id && j == node);
            if i == dest {
                delivered[s] += arrivals.count();
                continue;
            }
            let departures = flow_sum(plan, |s, from, _| s == s_id && from == node);
            queues[s * NODES + i].advance(arrivals, departures);
        }
    }
    for &(s, i, k) in admissions {
        queues[s.index() * NODES + i.index()].advance(k, Packets::ZERO);
    }
}

/// Eq. (28) over every off-diagonal link.
fn dense_link_advance(
    queues: &mut [PacketQueue],
    plan: &FlowPlan,
    service: &[(NodeId, NodeId, Packets)],
) {
    for i in 0..NODES {
        for j in (0..NODES).filter(|&j| j != i) {
            let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
            let served = service
                .iter()
                .find(|&&(x, y, _)| (x, y) == (a, b))
                .map_or(Packets::ZERO, |&(_, _, p)| p);
            let arrivals = flow_sum(plan, |_, x, y| (x, y) == (a, b));
            queues[i * NODES + j].advance(arrivals, served);
        }
    }
}

/// The Lyapunov value summed over every queue in index order.
fn dense_lyapunov(data: &DataQueueBank, links: &LinkQueueBank, z: &[f64]) -> f64 {
    let mut total = 0.0;
    for q in data.queues() {
        let q = q.backlog().count_f64();
        total += q * q;
    }
    for (k, q) in links.queues().iter().enumerate() {
        if k / NODES != k % NODES {
            let h = links.beta() * q.backlog().count_f64();
            total += h * h;
        }
    }
    for &z in z {
        total += z * z;
    }
    0.5 * total
}

proptest! {
    /// The sparse advance touches only what the slot names and leaves the
    /// banks exactly where the dense laws put them; the sparse Lyapunov
    /// value is bit-identical to the dense sum; the non-empty iterators
    /// list exactly the non-empty queues, in index order.
    #[test]
    fn sparse_state_matches_the_dense_laws(
        slots in prop::collection::vec(slot_strategy(), 1..12),
        z in prop::collection::vec(-500.0f64..500.0, NODES),
        beta in 0.5f64..3.0,
    ) {
        let dests: Vec<NodeId> = DESTS.iter().map(|&d| NodeId::from_index(d)).collect();
        let mut data = DataQueueBank::new(NODES, &dests);
        let mut links = LinkQueueBank::new(NODES, beta);
        let mut dense_q = vec![PacketQueue::new(); 2 * NODES];
        let mut dense_g = vec![PacketQueue::new(); NODES * NODES];
        let mut delivered = [0u64; 2];
        for slot in &slots {
            let (plan, admissions, service) = ids(slot);
            data.advance(&plan, &admissions);
            links.advance(&plan, &service);
            dense_data_advance(&mut dense_q, &mut delivered, &plan, &admissions);
            dense_link_advance(&mut dense_g, &plan, &service);
            prop_assert_eq!(data.queues(), &dense_q[..]);
            prop_assert_eq!(links.queues(), &dense_g[..]);
            for (s, &d) in delivered.iter().enumerate() {
                prop_assert_eq!(data.delivered(SessionId::from_index(s)).count(), d);
            }
            let sparse = lyapunov_value(&data, &links, z.iter().copied());
            prop_assert_eq!(sparse.to_bits(), dense_lyapunov(&data, &links, &z).to_bits());
            let listed: Vec<_> = data.nonempty_backlogs().collect();
            let expected: Vec<_> = (0..2)
                .flat_map(|s| (0..NODES).map(move |i| (NodeId::from_index(i), SessionId::from_index(s))))
                .map(|(i, s)| (i, s, data.backlog(i, s)))
                .filter(|&(_, _, q)| q > Packets::ZERO)
                .collect();
            prop_assert_eq!(listed, expected);
            let listed: Vec<_> = links.backlogs().collect();
            let expected: Vec<_> = (0..NODES * NODES)
                .map(|k| (NodeId::from_index(k / NODES), NodeId::from_index(k % NODES)))
                .map(|(i, j)| (i, j, links.g(i, j)))
                .filter(|&(_, _, g)| g > Packets::ZERO)
                .collect();
            prop_assert_eq!(listed, expected);
            prop_assert_eq!(data.total_backlog().count(), dense_q.iter().map(|q| q.backlog().count()).sum::<u64>());
        }
    }

    /// A bank restored from a lived-in bank's state evolves exactly like
    /// the original: same queues, same non-empty index, same Lyapunov
    /// value, slot after slot.
    #[test]
    fn restore_then_advance_matches_the_original(
        before in prop::collection::vec(slot_strategy(), 1..6),
        after in prop::collection::vec(slot_strategy(), 1..6),
    ) {
        let dests: Vec<NodeId> = DESTS.iter().map(|&d| NodeId::from_index(d)).collect();
        let mut data = DataQueueBank::new(NODES, &dests);
        let mut links = LinkQueueBank::new(NODES, 2.0);
        for slot in &before {
            let (plan, admissions, service) = ids(slot);
            data.advance(&plan, &admissions);
            links.advance(&plan, &service);
        }
        let mut data2 = DataQueueBank::new(NODES, &dests);
        data2.restore(data.queues(), data.delivered_per_session(), data.phantom_per_session());
        let mut links2 = LinkQueueBank::new(NODES, 2.0);
        links2.restore(links.queues());
        for slot in &after {
            let (plan, admissions, service) = ids(slot);
            for (d, l) in [(&mut data, &mut links), (&mut data2, &mut links2)] {
                d.advance(&plan, &admissions);
                l.advance(&plan, &service);
            }
            prop_assert_eq!(&data2, &data);
            prop_assert_eq!(&links2, &links);
            let z = [1.0, -2.0, 3.0, 0.0, 5.0];
            prop_assert_eq!(
                lyapunov_value(&data2, &links2, z).to_bits(),
                lyapunov_value(&data, &links, z).to_bits()
            );
        }
    }
}
