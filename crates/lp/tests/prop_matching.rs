//! Property tests: the combinatorial fractional matching solver reaches
//! the simplex optimum of the same LP on random multigraphs, and its
//! solution is a feasible half-integral vertex.
//!
//! The multigraphs carry parallel and both-direction edges, zero weights,
//! exact ties and isolated nodes; positive weights spread over 1e3–1e14,
//! the range of the relaxed controller's `β·g·c` candidate weights. Small
//! instances (up to 11 nodes) cover the corner cases; paper-sized ones (22
//! nodes, 200–350 candidate edges, as in the relaxed controller's S1 on the
//! paper scenario) give one component of about 20 nodes, where a Hungarian
//! row's search chains through many columns.

use greencell_lp::{max_weight_fractional_matching, LinearProgram, Relation};
use proptest::prelude::*;

/// Largest node count drawn; edges pick endpoints modulo the drawn `n`.
const MAX_NODES: usize = 11;

/// One raw edge draw: endpoints, a weight mode, and magnitude parts.
type RawEdge = (usize, usize, u32, f64, f64);

fn raw_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    prop::collection::vec(
        (
            0..MAX_NODES,
            0..MAX_NODES,
            0u32..6,
            1.0..10.0f64,
            3.0..14.0f64,
        ),
        0..28,
    )
}

/// Node count of the paper scenario's network.
const PAPER_NODES: usize = 22;

/// One paper-sized edge draw: a tail, an offset to the head (never a
/// loop), a weight mode, and magnitude parts.
fn paper_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    prop::collection::vec(
        (
            0..PAPER_NODES,
            1..PAPER_NODES,
            0u32..6,
            1.0..10.0f64,
            3.0..14.0f64,
        ),
        200..=350,
    )
}

/// Maps paper-sized draws onto a loop-free multigraph on [`PAPER_NODES`]
/// nodes, with the weight modes of [`multigraph`].
fn paper_multigraph(raw: &[RawEdge]) -> Vec<(usize, usize, f64)> {
    let shifted: Vec<RawEdge> = raw
        .iter()
        .map(|&(u, d, mode, m, e)| (u, (u + d) % PAPER_NODES, mode, m, e))
        .collect();
    multigraph(PAPER_NODES, &shifted)
}

/// Maps raw draws onto a loop-free multigraph on `n` nodes. Mode 0 is a
/// zero weight, mode 1 a shared tie value, the rest `m·10^e`.
fn multigraph(n: usize, raw: &[RawEdge]) -> Vec<(usize, usize, f64)> {
    raw.iter()
        .filter_map(|&(u, v, mode, mantissa, exp)| {
            let (u, v) = (u % n, v % n);
            (u != v).then(|| {
                let w = match mode {
                    0 => 0.0,
                    1 => 2.5e9,
                    _ => mantissa * 10f64.powf(exp),
                };
                (u, v, w)
            })
        })
        .collect()
}

/// Today's LP, solved by the dense simplex: one `[0, 1]` variable per edge,
/// one `≤ 1` row per node it touches.
fn simplex_optimum(n: usize, edges: &[(usize, usize, f64)]) -> f64 {
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = edges
        .iter()
        .map(|&(_, _, w)| lp.add_variable(-w, 0.0, 1.0))
        .collect();
    for node in 0..n {
        let terms: Vec<_> = edges
            .iter()
            .zip(&vars)
            .filter(|((u, v, _), _)| *u == node || *v == node)
            .map(|(_, &var)| (var, 1.0))
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(&terms, Relation::Le, 1.0);
        }
    }
    -lp.solve()
        .expect("the origin is feasible and the box bounded")
        .objective()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn matches_the_simplex_optimum(n in 1usize..=MAX_NODES, raw in raw_edges()) {
        let edges = multigraph(n, &raw);
        let alpha = max_weight_fractional_matching(n, &edges);
        prop_assert_eq!(alpha.len(), edges.len());
        let ours: f64 = edges.iter().zip(&alpha).map(|(e, a)| e.2 * a).sum();
        let oracle = simplex_optimum(n, &edges);
        prop_assert!(close(ours, oracle), "objective {ours} vs simplex {oracle}");
    }

    #[test]
    fn solution_is_a_feasible_half_integral_vertex(
        n in 1usize..=MAX_NODES,
        raw in raw_edges(),
    ) {
        let edges = multigraph(n, &raw);
        let alpha = max_weight_fractional_matching(n, &edges);
        let mut load = vec![0.0; n];
        for (&(u, v, w), &a) in edges.iter().zip(&alpha) {
            prop_assert!(a == 0.0 || a == 0.5 || a == 1.0, "α = {a}");
            prop_assert!(a == 0.0 || w > 0.0, "zero-weight edge active");
            load[u] += a;
            load[v] += a;
        }
        prop_assert!(load.iter().all(|&l| l <= 1.0), "node load {load:?}");
        // At most one active edge per unordered pair.
        for (x, &(u, v, _)) in edges.iter().enumerate() {
            for (y, &(p, q, _)) in edges.iter().enumerate().skip(x + 1) {
                let same = (u.min(v), u.max(v)) == (p.min(q), p.max(q));
                prop_assert!(!(same && alpha[x] > 0.0 && alpha[y] > 0.0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paper_sized_instances_match_the_simplex_optimum(raw in paper_edges()) {
        let edges = paper_multigraph(&raw);
        prop_assert_eq!(edges.len(), raw.len());
        let alpha = max_weight_fractional_matching(PAPER_NODES, &edges);
        prop_assert!(alpha.iter().all(|&a| a == 0.0 || a == 0.5 || a == 1.0));
        let ours: f64 = edges.iter().zip(&alpha).map(|(e, a)| e.2 * a).sum();
        let oracle = simplex_optimum(PAPER_NODES, &edges);
        prop_assert!(close(ours, oracle), "objective {ours} vs simplex {oracle}");
    }
}

#[test]
fn equal_weight_triangle_beats_every_integral_matching() {
    // Any integral matching of a triangle holds one edge (objective w);
    // the fractional optimum is ½ on each edge (1.5w), which the simplex
    // confirms.
    let w = 3.0e12;
    let edges = [(0, 1, w), (1, 2, w), (2, 0, w)];
    let alpha = max_weight_fractional_matching(3, &edges);
    assert_eq!(alpha, vec![0.5, 0.5, 0.5]);
    let ours: f64 = edges.iter().zip(&alpha).map(|(e, a)| e.2 * a).sum();
    assert_eq!(ours, 1.5 * w);
    assert!(close(simplex_optimum(3, &edges), 1.5 * w));
}
