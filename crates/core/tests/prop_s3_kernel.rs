//! Lockstep property tests for the S3 kernel: [`route_flows_into`], which
//! visits only the backlogged senders, looks up their links into the
//! destinations by binary search, and pops each sender's candidates from a
//! heap under a floor bound, against [`route_flows_reference`], which scans
//! every link and sorts every candidate of the slot in one list, on the
//! same input.
//!
//! Over random 4–9-node networks with 1–6 sessions (often two with the
//! same destination), per-node band subsets (so some pairs cannot route),
//! down nodes under both relay policies, backlogs, link queues and caps
//! drawn from short lists (so coefficients tie, caps bind and senders run
//! dry), the kernel's flow list must equal the reference's non-zero
//! entries exactly. The family must reach the cases the floor bound rests
//! on: floor candidates applied before a sender's scan ends, floor
//! candidates whose cap cannot take the backlog, equal floors at one
//! sender, drains that raise the bound, and backlogged senders with no
//! link into the destination. A second family sits at the edge of phase 2's exact
//! prune: `β` and the link queues are tuned so that `β·H_ij` lands on a
//! backlog the senders hold, one ulp either side of it, or at `+∞`.

use greencell_core::{
    route_flows_into, route_flows_reference, Admission, RelayPolicy, RoutingTable, S3Scratch,
};
use greencell_net::{
    BandId, BandSet, Network, NetworkBuilder, NodeId, PathLossModel, Point, SessionId,
};
use greencell_queue::{DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_stochastic::Rng;
use greencell_units::{DataRate, Packets};
use proptest::prelude::*;

struct Instance {
    net: Network,
    data: DataQueueBank,
    links: LinkQueueBank,
    relay: RelayPolicy,
    up: Vec<bool>,
    caps: Vec<(NodeId, NodeId, Packets)>,
    admissions: Vec<Admission>,
    demand: Vec<Packets>,
}

fn pick<T: Copy>(rng: &mut Rng, options: &[T]) -> T {
    options[rng.index(options.len())]
}

/// A `β` and a link-queue length `G` with `β·(β·G) = target` exactly (the
/// kernel's `β·H_ij`, where `H_ij = β·G_ij`), searched near
/// `√(target/G)`.
fn beta_hitting(target: f64) -> Option<(f64, u64)> {
    (1..=64u64).find_map(|g| {
        let mut beta = (target / g as f64).sqrt();
        for _ in 0..8 {
            beta = beta.next_down();
        }
        (0..17).find_map(|_| {
            let hit = beta * (beta * g as f64) == target;
            let found = hit.then_some((beta, g));
            beta = beta.next_up();
            found
        })
    })
}

/// One random S3 input, built the way a controller part builds it: caps
/// over the ordered pairs that share a band, with both ends up and a
/// sender the relay policy lets transmit.
fn instance(seed: u64) -> Instance {
    instance_with(seed, false)
}

/// [`instance`], or with `boundary` its prune-edge twin: `β·H_ij` on most
/// queued links equals one of the backlogs, or its neighbour one ulp
/// below or above, or is `+∞`.
fn instance_with(seed: u64, boundary: bool) -> Instance {
    let mut rng = Rng::seed_from(seed);
    let n = 4 + rng.index(6);
    let bs_count = 1 + rng.index(2);
    let bands = 1 + rng.index(2);
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
    for k in 0..n {
        let p = Point::new(rng.range_f64(0.0, 1500.0), rng.range_f64(0.0, 1500.0));
        let node = if k < bs_count {
            b.add_base_station(p)
        } else {
            b.add_user(p)
        };
        if bands > 1 && rng.index(3) == 0 {
            b.set_bands(
                node,
                BandSet::from_iter([BandId::from_index(rng.index(bands))]),
            );
        }
    }
    let sessions = 1 + rng.index(6);
    let mut destinations = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let dest = if s > 0 && rng.index(3) == 0 {
            destinations[rng.index(s)]
        } else {
            NodeId::from_index(bs_count + rng.index(n - bs_count))
        };
        destinations.push(dest);
        b.add_session(dest, DataRate::from_kilobits_per_second(100.0));
    }
    let net = b.build().expect("valid network");

    let mut data = DataQueueBank::new(n, &destinations);
    let mut fill = Vec::new();
    for (s, &dest) in destinations.iter().enumerate() {
        for i in (0..n).filter(|&i| i != dest.index()) {
            let k = pick(&mut rng, &[0, 0, 0, 5, 40, 40, 120, 300]);
            if k > 0 {
                fill.push((
                    SessionId::from_index(s),
                    NodeId::from_index(i),
                    Packets::new(k),
                ));
            }
        }
    }
    data.advance(&FlowPlan::new(n, sessions), &fill);

    let (beta, edge_g) = if boundary {
        let q = pick(&mut rng, &[5, 40, 120, 300]) as f64;
        let target = pick(&mut rng, &[q.next_down(), q, q.next_up(), f64::INFINITY]);
        if target.is_infinite() {
            (1e200, 1)
        } else {
            beta_hitting(target).expect("a β for every target")
        }
    } else {
        (pick(&mut rng, &[0.5, 1.0, 2.0]), 0)
    };
    let mut links = LinkQueueBank::new(n, beta);
    let mut plan = FlowPlan::new(n, 1);
    for _ in 0..if boundary { 2 * n } else { n } {
        let i = rng.index(n);
        let j = (i + 1 + rng.index(n - 1)) % n;
        let g = if boundary {
            pick(&mut rng, &[0, edge_g, edge_g, edge_g, 40])
        } else {
            pick(&mut rng, &[0, 1, 10, 40])
        };
        plan.set(
            SessionId::from_index(0),
            NodeId::from_index(i),
            NodeId::from_index(j),
            Packets::new(g),
        );
    }
    links.advance(&plan, &[]);

    let relay = pick(&mut rng, &[RelayPolicy::MultiHop, RelayPolicy::OneHop]);
    let up: Vec<bool> = (0..n).map(|_| rng.index(6) != 0).collect();
    let caps = net
        .topology()
        .ordered_pairs()
        .filter(|&(i, j)| !net.link_bands(i, j).is_empty())
        .filter(|&(i, j)| up[i.index()] && up[j.index()])
        .filter(|&(i, _)| relay.may_relay(&net, i))
        .map(|(i, j)| {
            (
                i,
                j,
                Packets::new(pick(&mut rng, &[0, 3, 30, 30, 100, 1000])),
            )
        })
        .collect();

    let mut admissions = Vec::new();
    for (s, &dest) in destinations.iter().enumerate() {
        if rng.index(4) == 0 {
            continue;
        }
        let source = if rng.index(4) == 0 {
            (0..n)
                .map(NodeId::from_index)
                .find(|&i| i != dest)
                .expect("n ≥ 4")
        } else {
            NodeId::from_index(rng.index(bs_count))
        };
        admissions.push(Admission {
            session: SessionId::from_index(s),
            source,
            packets: Packets::new(pick(&mut rng, &[0, 10])),
        });
    }
    let demand = (0..sessions)
        .map(|_| Packets::new(pick(&mut rng, &[0, 0, 5, 30, 200])))
        .collect();
    Instance {
        net,
        data,
        links,
        relay,
        up,
        caps,
        admissions,
        demand,
    }
}

type Flows = Vec<(SessionId, NodeId, NodeId, Packets)>;

fn reference_flows(inst: &Instance) -> Flows {
    route_flows_reference(
        &inst.net,
        &inst.data,
        &inst.links,
        &inst.caps,
        &inst.admissions,
        &inst.demand,
    )
    .iter_nonzero()
    .collect()
}

/// The kernel's flow list, through a table and scratch reused across
/// instances (so resets between calls and table rebuilds are exercised).
fn kernel_flows(
    inst: &Instance,
    table: &mut RoutingTable,
    scratch: &mut S3Scratch,
    plan: &mut FlowPlan,
) -> Flows {
    table.rebuild(inst.net.topology().len(), inst.caps.iter().copied());
    route_flows_into(
        &inst.net,
        &inst.data,
        &inst.links,
        table,
        &inst.admissions,
        &inst.demand,
        scratch,
        plan,
    );
    plan.iter_nonzero().collect()
}

/// The backpressure coefficient `−Q^s_i + Q^s_j + β·H_ij`.
fn coeff(inst: &Instance, s: SessionId, i: NodeId, j: NodeId) -> f64 {
    -inst.data.backlog(i, s).count_f64()
        + inst.data.backlog(j, s).count_f64()
        + inst.links.beta() * inst.links.h(i, j)
}

/// What one instance exercises, read off the input and the reference's
/// flows.
#[derive(Default)]
struct Coverage {
    shared_destination: usize,
    coefficient_ties: usize,
    spent_senders: usize,
    phase1_exhausts_a_cap: usize,
    down_nodes: usize,
    one_hop: usize,
    floor_applied_mid_scan: usize,
    floor_capped: usize,
    equal_floors: usize,
    drain_raises_bound: usize,
    no_delivery_link: usize,
}

fn coverage(inst: &Instance, flows: &Flows, cov: &mut Coverage) {
    let sessions = inst.net.sessions();
    let dest = |s: SessionId| sessions[s.index()].destination();
    let source = |s: SessionId| {
        inst.admissions
            .iter()
            .find(|a| a.session == s)
            .map(|a| a.source)
    };
    let routing = |s: SessionId| {
        inst.demand[s.index()] > Packets::ZERO && flows.iter().any(|f| f.0 == s && f.2 == dest(s))
    };
    let delivering: Vec<SessionId> = sessions
        .iter()
        .map(|x| x.id())
        .filter(|&s| routing(s))
        .collect();
    if delivering
        .iter()
        .enumerate()
        .any(|(a, &s)| delivering[..a].iter().any(|&t| dest(t) == dest(s)))
    {
        cov.shared_destination += 1;
    }
    // Negative phase-2 candidates per sender.
    let mut candidates = Vec::new();
    for &(i, j, c) in &inst.caps {
        for x in sessions {
            let s = x.id();
            if c > Packets::ZERO && Some(j) != source(s) && i != dest(s) && j != dest(s) {
                let w = coeff(inst, s, i, j);
                if w < 0.0 {
                    candidates.push((i, s, w));
                }
            }
        }
    }
    if candidates
        .iter()
        .enumerate()
        .any(|(a, x)| candidates[..a].iter().any(|y| y.0 == x.0 && y.2 == x.2))
    {
        cov.coefficient_ties += 1;
    }
    // A sender whose backlog ran out with negative candidates left over.
    let spent = candidates.iter().any(|&(i, s, _)| {
        let out: u64 = flows
            .iter()
            .filter(|f| f.0 == s && f.1 == i)
            .map(|f| f.3.count())
            .sum();
        let used = flows
            .iter()
            .filter(|f| f.0 == s && f.1 == i && f.2 != dest(s))
            .count();
        let offered = candidates.iter().filter(|y| y.0 == i && y.1 == s).count();
        out == inst.data.backlog(i, s).count() && used < offered
    });
    if spent {
        cov.spent_senders += 1;
    }
    let exhausts = flows.iter().any(|&(s, i, j, l)| {
        j == dest(s)
            && inst
                .caps
                .iter()
                .any(|&(a, b, c)| (a, b) == (i, j) && c == l)
    });
    if exhausts {
        cov.phase1_exhausts_a_cap += 1;
    }
    if inst.up.iter().any(|&u| !u) {
        cov.down_nodes += 1;
    }
    if inst.relay == RelayPolicy::OneHop {
        cov.one_hop += 1;
    }
    floor_coverage(inst, flows, cov);
}

/// The cases phase 2's floor bound rests on. A session's floor at sender
/// `i` is `L_s = −Q^s_i`; `B` is the least `(L_s, s)` over the sessions
/// with backlog left after phase 1.
fn floor_coverage(inst: &Instance, flows: &Flows, cov: &mut Coverage) {
    let sessions = inst.net.sessions();
    let dest = |s: SessionId| sessions[s.index()].destination();
    let source = |s: SessionId| {
        inst.admissions
            .iter()
            .find(|a| a.session == s)
            .map(|a| a.source)
    };
    let q = |i: NodeId, s: SessionId| inst.data.backlog(i, s);
    let floor = |i: NodeId, s: SessionId| -q(i, s).count_f64();
    // Backlog left after phase 1's delivery.
    let left = |i: NodeId, s: SessionId| {
        let delivered: u64 = flows
            .iter()
            .filter(|f| f.0 == s && f.1 == i && f.2 == dest(s))
            .map(|f| f.3.count())
            .sum();
        q(i, s).count() - delivered
    };
    let phase2 = |i: NodeId, s: SessionId| {
        flows
            .iter()
            .filter(move |f| f.0 == s && f.1 == i && f.2 != dest(s))
    };
    let at_floor = |f: &(SessionId, NodeId, NodeId, Packets)| {
        coeff(inst, f.0, f.1, f.2).to_bits() == floor(f.1, f.0).to_bits()
    };
    // A routable link out of `i` after receiver `j`: the scan goes on.
    let later_link = |i: NodeId, j: NodeId| {
        inst.caps
            .iter()
            .any(|&(a, b, c)| a == i && b > j && c > Packets::ZERO)
    };
    let negative = |i: NodeId, s: SessionId| {
        inst.caps.iter().any(|&(a, j, c)| {
            a == i
                && c > Packets::ZERO
                && Some(j) != source(s)
                && j != dest(s)
                && coeff(inst, s, a, j) < 0.0
        })
    };
    let nodes = inst.net.topology().len();
    let (mut mid_scan, mut capped, mut equal, mut raised) = (false, false, false, false);
    for i in (0..nodes).map(NodeId::from_index) {
        let live: Vec<SessionId> = sessions
            .iter()
            .map(|x| x.id())
            .filter(|&s| dest(s) != i && left(i, s) > 0)
            .collect();
        // The initial `B`: the largest backlog left, the lowest session
        // on a tie.
        let Some(&first) = live
            .iter()
            .min_by(|&&a, &&b| floor(i, a).total_cmp(&floor(i, b)).then(a.cmp(&b)))
        else {
            continue;
        };
        mid_scan |= phase2(i, first).any(|f| at_floor(f) && later_link(i, f.2));
        capped |= live
            .iter()
            .any(|&s| phase2(i, s).any(|f| at_floor(f) && f.3.count() < left(i, s)));
        equal |= live.iter().enumerate().any(|(a, &s)| {
            live[..a]
                .iter()
                .any(|&t| q(i, t) == q(i, s) && negative(i, s) && negative(i, t))
        });
        // `first` drains through floor candidates with a routable link
        // after its last one, and another session still routes.
        let moved: u64 = phase2(i, first).map(|f| f.3.count()).sum();
        let last = phase2(i, first).map(|f| f.2).max();
        raised |= moved == left(i, first)
            && phase2(i, first).all(at_floor)
            && last.is_some_and(|j| later_link(i, j))
            && live
                .iter()
                .any(|&s| s != first && phase2(i, s).next().is_some());
    }
    cov.floor_applied_mid_scan += usize::from(mid_scan);
    cov.floor_capped += usize::from(capped);
    cov.equal_floors += usize::from(equal);
    cov.drain_raises_bound += usize::from(raised);
    // A backlogged sender of a delivering session with no link into its
    // destination: phase 1's lookup comes back empty.
    let no_link = sessions.iter().any(|x| {
        let (s, d) = (x.id(), x.destination());
        inst.demand[s.index()] > Packets::ZERO
            && (0..nodes).map(NodeId::from_index).any(|i| {
                i != d
                    && q(i, s) > Packets::ZERO
                    && !inst.caps.iter().any(|&(a, b, _)| (a, b) == (i, d))
            })
    });
    cov.no_delivery_link += usize::from(no_link);
}

/// The instance family reaches every case the kernel's exactness argument
/// rests on, and routes something in most instances.
#[test]
fn instances_cover_ties_spent_senders_and_shared_destinations() {
    let mut cov = Coverage::default();
    let mut routed = 0;
    let cases = 300;
    for seed in 0..cases {
        let inst = instance(seed);
        let flows = reference_flows(&inst);
        routed += usize::from(!flows.is_empty());
        coverage(&inst, &flows, &mut cov);
    }
    for (what, count) in [
        (
            "two delivering sessions with one destination",
            cov.shared_destination,
        ),
        ("tied coefficients at one sender", cov.coefficient_ties),
        ("spent senders", cov.spent_senders),
        (
            "phase-1 deliveries that exhaust a cap",
            cov.phase1_exhausts_a_cap,
        ),
        ("down nodes", cov.down_nodes),
        ("one-hop relaying", cov.one_hop),
        (
            "floor candidates applied before the scan ends",
            cov.floor_applied_mid_scan,
        ),
        (
            "floor candidates whose cap cannot take the backlog",
            cov.floor_capped,
        ),
        (
            "two sessions with equal floors at one sender",
            cov.equal_floors,
        ),
        (
            "drains that raise the floor bound mid-scan",
            cov.drain_raises_bound,
        ),
        (
            "backlogged senders with no link into the destination",
            cov.no_delivery_link,
        ),
    ] {
        assert!(count >= 10, "only {count} of {cases} instances have {what}");
    }
    assert!(
        routed * 2 > cases as usize,
        "only {routed} of {cases} instances route"
    );
}

/// The prune-edge family reaches what the prune's exactness rests on: a
/// routable link of a sender holding several sessions of unequal backlog
/// whose `−q_max + β·H_ij` is one ulp below zero (kept), zero or one ulp
/// above (pruned), and links with `β·H_ij = +∞`.
#[test]
fn boundary_instances_reach_the_prune_edge() {
    let (mut below, mut at_or_above, mut infinite) = (0, 0, 0);
    let cases = 300;
    for seed in 0..cases {
        let inst = instance_with(seed, true);
        let sessions = inst.net.sessions();
        let mut seen = [false; 3];
        for &(i, j, c) in &inst.caps {
            let backlogs: Vec<f64> = sessions
                .iter()
                .filter(|x| x.destination() != i)
                .map(|x| inst.data.backlog(i, x.id()).count_f64())
                .filter(|&q| q > 0.0)
                .collect();
            let q_max = backlogs.iter().copied().fold(0.0, f64::max);
            let unequal = backlogs.iter().any(|&q| q != q_max);
            let bh = inst.links.beta() * inst.links.h(i, j);
            if c == Packets::ZERO || !unequal {
                continue;
            }
            let edge = -q_max + bh;
            seen[0] |= edge < 0.0 && bh == q_max.next_down();
            seen[1] |= edge >= 0.0 && (bh == q_max || bh == q_max.next_up());
            seen[2] |= bh == f64::INFINITY;
        }
        below += usize::from(seen[0]);
        at_or_above += usize::from(seen[1]);
        infinite += usize::from(seen[2]);
    }
    for (what, count) in [
        ("links one ulp below the prune", below),
        ("links at or one ulp above the prune", at_or_above),
        ("links with an infinite β·H", infinite),
    ] {
        assert!(count >= 10, "only {count} of {cases} instances have {what}");
    }
}

proptest! {
    /// The kernel's flows equal the reference's non-zero entries, with one
    /// table, scratch and plan reused across the cases.
    #[test]
    fn kernel_matches_reference_in_lockstep(seed in any::<u64>()) {
        let mut table = RoutingTable::default();
        let mut scratch = S3Scratch::default();
        let mut plan = FlowPlan::default();
        for case in 0..8u64 {
            let inst = instance(seed.wrapping_add(case));
            let kernel = kernel_flows(&inst, &mut table, &mut scratch, &mut plan);
            let reference = reference_flows(&inst);
            prop_assert_eq!(kernel, reference);
        }
    }

    /// The same lockstep on the prune-edge family.
    #[test]
    fn kernel_matches_reference_at_the_prune_boundary(seed in any::<u64>()) {
        let mut table = RoutingTable::default();
        let mut scratch = S3Scratch::default();
        let mut plan = FlowPlan::default();
        for case in 0..8u64 {
            let inst = instance_with(seed.wrapping_add(case), true);
            let kernel = kernel_flows(&inst, &mut table, &mut scratch, &mut plan);
            let reference = reference_flows(&inst);
            prop_assert_eq!(kernel, reference);
        }
    }
}
