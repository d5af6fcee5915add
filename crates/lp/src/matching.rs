//! Exact maximum-weight *fractional* matching on a multigraph.
//!
//! The linear program
//!
//! ```text
//! max Σ_e w_e·α_e   s.t.  Σ_{e ∋ v} α_e ≤ 1  for every node v,  0 ≤ α_e ≤ 1
//! ```
//!
//! has no odd-set rows, so it is the fractional matching polytope, whose
//! vertices are half-integral (Balinski 1965). Its optimum is half the
//! maximum-weight matching of the bipartite *double cover* (left copy `u⁺`,
//! right copy `v⁻`, an edge `u⁺v⁻` and `v⁺u⁻` of weight `w_uv` for every
//! edge `uv`): symmetrising an LP solution gives a fractional bipartite
//! matching of twice its weight, the bipartite polytope is integral, and an
//! integral bipartite matching `y` maps back to the feasible
//! `α_uv = (y_uv + y_vu)/2 ∈ {0, ½, 1}` of half its weight.
//!
//! [`max_weight_fractional_matching_into`] therefore needs no simplex:
//!
//! 1. **Collapse.** Parallel edges (either direction) share both endpoint
//!    rows, so only one max-weight edge per unordered pair can ever help.
//!    Ties go to the earliest edge in input order.
//! 2. **Split.** The program separates over connected components of the
//!    collapsed graph; each is solved alone, so the cost is `Σ c_k³`.
//! 3. **Assign.** Each component's double cover is a symmetric `c × c`
//!    weight matrix (zero off the edges and on the diagonal, meaning
//!    "unmatched"); a deterministic shortest-augmenting-path Hungarian
//!    solver finds its maximum-weight assignment.
//! 4. **Read off** `α_uv = (y_uv + y_vu)/2`.
//!
//! The solver cannot fail: every input has a finite optimum, and each
//! Hungarian phase marks a new column, so it terminates after `O(c²)`
//! column scans per row.

/// Reusable buffers for [`max_weight_fractional_matching_into`]; after the
/// first call on a given problem shape, further calls allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct MatchingWorkspace {
    /// Positive edges bucketed by lower endpoint (offsets in
    /// `bucket_start`).
    bucketed: Vec<usize>,
    bucket_start: Vec<usize>,
    /// Within one bucket: where the kept edge to each upper endpoint sits
    /// in `order` (`NONE` outside the bucket being collapsed).
    kept_at: Vec<usize>,
    /// Kept edge indices, one per unordered pair.
    order: Vec<usize>,
    /// Union-find parents over nodes.
    parent: Vec<usize>,
    /// Component of each node (`NONE` until it touches a kept edge).
    comp: Vec<usize>,
    /// Index of each node within its component.
    local: Vec<usize>,
    /// Node count per component.
    comp_size: Vec<usize>,
    /// Kept edges grouped by component (offsets in `comp_start`).
    comp_edges: Vec<usize>,
    comp_start: Vec<usize>,
    /// One component's `c × c` assignment costs (negated weights) and the
    /// edge realising each entry.
    cost: Vec<f64>,
    edge_at: Vec<usize>,
    hungarian: Hungarian,
}

impl MatchingWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves every buffer for problems of up to `nodes` nodes and
    /// `edges` edges, so no later call on such a problem allocates. The
    /// assignment matrices of one component take `nodes²` entries each.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        for buf in [&mut self.bucketed, &mut self.order, &mut self.comp_edges] {
            buf.reserve(edges);
        }
        for buf in [
            &mut self.bucket_start,
            &mut self.kept_at,
            &mut self.parent,
            &mut self.comp,
            &mut self.local,
            &mut self.comp_size,
            &mut self.comp_start,
        ] {
            buf.reserve(nodes + 1);
        }
        self.cost.reserve(nodes * nodes);
        self.edge_at.reserve(nodes * nodes);
        self.hungarian.reserve(nodes);
    }
}

const NONE: usize = usize::MAX;

/// Solves the fractional matching program (see the module docs) on `n`
/// nodes and the multigraph `edges = [(u, v, w)]`; returns one
/// `α ∈ {0, ½, 1}` per edge, in input order. Allocating convenience over
/// [`max_weight_fractional_matching_into`].
///
/// # Panics
///
/// As [`max_weight_fractional_matching_into`].
#[must_use]
pub fn max_weight_fractional_matching(n: usize, edges: &[(usize, usize, f64)]) -> Vec<f64> {
    let mut alpha = Vec::new();
    max_weight_fractional_matching_into(n, edges, &mut MatchingWorkspace::new(), &mut alpha);
    alpha
}

/// [`max_weight_fractional_matching`] into a caller-owned workspace and
/// output (`alpha` is cleared and refilled, one entry per edge).
///
/// The result is an optimal vertex: `Σ w_e·α_e` equals the program's
/// optimum, every node's `Σ α` is at most 1, and at most one edge per
/// unordered node pair is active — the heaviest, the earliest on ties.
/// Edges whose weight is not a positive finite number are never active.
///
/// # Panics
///
/// Panics if an endpoint is `≥ n` or an edge is a self-loop.
pub fn max_weight_fractional_matching_into(
    n: usize,
    edges: &[(usize, usize, f64)],
    ws: &mut MatchingWorkspace,
    alpha: &mut Vec<f64>,
) {
    alpha.clear();
    alpha.resize(edges.len(), 0.0);
    for &(u, v, _) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not matchable");
    }
    let pair = |e: usize| {
        let (u, v, _) = edges[e];
        (u.min(v), u.max(v))
    };

    // 1. Collapse parallel edges to the heaviest per unordered pair, the
    // earliest on ties: bucket the positive edges by their lower endpoint,
    // then keep a best edge per upper endpoint within each bucket. O(E + n),
    // no comparison sort.
    let positive = |e: usize| edges[e].2 > 0.0 && edges[e].2.is_finite();
    group_by_key(
        (0..edges.len()).filter(|&e| positive(e)),
        n,
        |e| pair(e).0,
        &mut ws.bucket_start,
        &mut ws.bucketed,
    );
    ws.order.clear();
    ws.kept_at.clear();
    ws.kept_at.resize(n, NONE);
    for lo in 0..n {
        let first = ws.order.len();
        for &e in &ws.bucketed[ws.bucket_start[lo]..ws.bucket_start[lo + 1]] {
            let hi = pair(e).1;
            match ws.kept_at[hi] {
                NONE => {
                    ws.kept_at[hi] = ws.order.len();
                    ws.order.push(e);
                }
                at if edges[e].2 > edges[ws.order[at]].2 => ws.order[at] = e,
                _ => {}
            }
        }
        for &e in &ws.order[first..] {
            ws.kept_at[pair(e).1] = NONE;
        }
    }

    // 2. Connected components, numbered by their smallest node.
    ws.parent.clear();
    ws.parent.extend(0..n);
    for &e in &ws.order {
        let (u, v) = pair(e);
        let (ru, rv) = (find(&mut ws.parent, u), find(&mut ws.parent, v));
        if ru != rv {
            ws.parent[ru.max(rv)] = ru.min(rv);
        }
    }
    ws.comp.clear();
    ws.comp.resize(n, NONE);
    ws.local.clear();
    ws.local.resize(n, 0);
    ws.comp_size.clear();
    for &e in &ws.order {
        let (u, v) = pair(e);
        for node in [u, v] {
            ws.comp[node] = 0; // touched; numbered below
        }
    }
    for node in 0..n {
        if ws.comp[node] == NONE {
            continue;
        }
        let root = find(&mut ws.parent, node);
        let id = if root == node {
            ws.comp_size.push(0);
            ws.comp_size.len() - 1
        } else {
            ws.comp[root]
        };
        ws.comp[node] = id;
        ws.local[node] = ws.comp_size[id];
        ws.comp_size[id] += 1;
    }
    let comps = ws.comp_size.len();
    let comp = &ws.comp;
    group_by_key(
        ws.order.iter().copied(),
        comps,
        |e| comp[pair(e).0],
        &mut ws.comp_start,
        &mut ws.comp_edges,
    );

    // 3–4. Assign on each component's double cover, read off α.
    for k in 0..comps {
        let c = ws.comp_size[k];
        ws.cost.clear();
        ws.cost.resize(c * c, 0.0);
        ws.edge_at.clear();
        ws.edge_at.resize(c * c, NONE);
        for &e in &ws.comp_edges[ws.comp_start[k]..ws.comp_start[k + 1]] {
            let (u, v) = pair(e);
            let (a, b) = (ws.local[u], ws.local[v]);
            for (r, col) in [(a, b), (b, a)] {
                ws.cost[r * c + col] = -edges[e].2;
                ws.edge_at[r * c + col] = e;
            }
        }
        ws.hungarian.solve(c, &ws.cost);
        for (r, &col) in ws.hungarian.row_to_col().iter().enumerate() {
            let e = ws.edge_at[r * c + col];
            if e != NONE {
                alpha[e] += 0.5;
            }
        }
    }
}

/// Stable counting sort: groups `items` by `key(item) < buckets` into
/// `out`, bucket `b` at `out[start[b]..start[b + 1]]`.
fn group_by_key<I: Iterator<Item = usize> + Clone>(
    items: I,
    buckets: usize,
    key: impl Fn(usize) -> usize,
    start: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    start.clear();
    start.resize(buckets + 1, 0);
    for x in items.clone() {
        start[key(x) + 1] += 1;
    }
    for b in 0..buckets {
        start[b + 1] += start[b];
    }
    out.clear();
    out.resize(start[buckets], 0);
    for x in items {
        // `start[b]` doubles as bucket b's fill cursor, shifted back below.
        let b = key(x);
        out[start[b]] = x;
        start[b] += 1;
    }
    for b in (1..=buckets).rev() {
        start[b] = start[b - 1];
    }
    start[0] = 0;
}

/// Union-find root with path halving.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Minimum-cost assignment on a square matrix by shortest augmenting paths
/// with dual potentials (the Kuhn–Munkres method in its `O(c³)` form).
/// Rows are inserted in index order and ties go to the lowest column, so
/// the result is a deterministic function of the matrix.
#[derive(Debug, Clone, Default)]
struct Hungarian {
    /// Row potentials (1-based; entry 0 is the virtual row).
    u: Vec<f64>,
    /// Column potentials (1-based; entry 0 is the virtual column).
    v: Vec<f64>,
    /// `p[j]` = row assigned to column `j` (0 = free).
    p: Vec<usize>,
    /// Predecessor column on the current augmenting path.
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    /// The 0-based assignment, row → column.
    assignment: Vec<usize>,
}

impl Hungarian {
    fn reserve(&mut self, c: usize) {
        for buf in [&mut self.u, &mut self.v, &mut self.minv] {
            buf.reserve(c + 1);
        }
        for buf in [&mut self.p, &mut self.way] {
            buf.reserve(c + 1);
        }
        self.used.reserve(c + 1);
        self.assignment.reserve(c);
    }

    fn solve(&mut self, c: usize, cost: &[f64]) {
        let Self {
            u,
            v,
            p,
            way,
            minv,
            used,
            assignment,
        } = self;
        for buf in [&mut *u, &mut *v, &mut *minv] {
            buf.clear();
            buf.resize(c + 1, 0.0);
        }
        for buf in [&mut *p, &mut *way] {
            buf.clear();
            buf.resize(c + 1, 0);
        }
        used.clear();
        used.resize(c + 1, false);
        for i in 1..=c {
            p[0] = i;
            let mut j0 = 0;
            minv.fill(f64::INFINITY);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let (row, ui0) = (&cost[(i0 - 1) * c..i0 * c], u[i0]);
                let mut delta = f64::INFINITY;
                let mut j1 = 0;
                for j in 1..=c {
                    if used[j] {
                        continue;
                    }
                    let cur = row[j - 1] - ui0 - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=c {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the recorded path.
            while j0 != 0 {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
            }
        }
        assignment.clear();
        assignment.resize(c, 0);
        for j in 1..=c {
            assignment[p[j] - 1] = j - 1;
        }
    }

    fn row_to_col(&self) -> &[usize] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objective(edges: &[(usize, usize, f64)], alpha: &[f64]) -> f64 {
        edges.iter().zip(alpha).map(|(e, a)| e.2 * a).sum()
    }

    #[test]
    fn equal_weight_triangle_is_half_on_every_edge() {
        // An integral matching takes one edge (w); the fractional optimum
        // takes ½ of all three (1.5w), so an integral matcher fails here.
        let w = 7.0e9;
        let edges = [(0, 1, w), (1, 2, w), (2, 0, w)];
        let alpha = max_weight_fractional_matching(3, &edges);
        assert_eq!(alpha, vec![0.5; 3]);
        assert_eq!(objective(&edges, &alpha), 1.5 * w);
    }

    #[test]
    fn single_edge_and_path_are_integral() {
        assert_eq!(max_weight_fractional_matching(2, &[(1, 0, 3.0)]), vec![1.0]);
        // Path a–b–c–d: the two outer edges (1 + 1) beat the middle (1.5).
        let edges = [(0, 1, 1.0), (1, 2, 1.5), (2, 3, 1.0)];
        assert_eq!(
            max_weight_fractional_matching(4, &edges),
            vec![1.0, 0.0, 1.0]
        );
    }

    #[test]
    fn parallel_edges_collapse_to_the_heaviest_earliest() {
        // Both directions and two bands of one pair: only the heaviest is
        // active, and of two equal heaviest the earliest.
        let edges = [(0, 1, 2.0), (1, 0, 5.0), (0, 1, 5.0), (1, 0, 1.0)];
        assert_eq!(
            max_weight_fractional_matching(2, &edges),
            vec![0.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn non_positive_weights_and_isolated_nodes_stay_inactive() {
        let edges = [(0, 1, 0.0), (2, 3, -1.0), (4, 5, f64::NAN), (1, 2, 1.0)];
        assert_eq!(
            max_weight_fractional_matching(7, &edges),
            vec![0.0, 0.0, 0.0, 1.0]
        );
        assert!(max_weight_fractional_matching(3, &[]).is_empty());
    }

    #[test]
    fn components_are_solved_independently() {
        // A triangle and a disjoint heavy edge.
        let edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1e14)];
        let alpha = max_weight_fractional_matching(5, &edges);
        assert_eq!(alpha, vec![0.5, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        let mut ws = MatchingWorkspace::new();
        let mut alpha = Vec::new();
        let a = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)];
        let b = [(0, 1, 4.0), (2, 1, 1.0)];
        for edges in [&a[..], &b[..], &a[..]] {
            max_weight_fractional_matching_into(3, edges, &mut ws, &mut alpha);
            assert_eq!(alpha, max_weight_fractional_matching(3, edges));
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_are_rejected() {
        let _ = max_weight_fractional_matching(2, &[(1, 1, 1.0)]);
    }
}
