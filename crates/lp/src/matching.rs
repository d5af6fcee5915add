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
//!    Ties go to the earliest edge in input order. One pass over the edges
//!    keeps a slot per unordered pair; the order of the kept edges never
//!    reaches the result, because components are numbered by their
//!    smallest node and exactly one kept edge writes each cost entry.
//! 2. **Split.** The program separates over connected components of the
//!    collapsed graph; each is solved alone, so the cost is `Σ c_k³`.
//! 3. **Assign.** Each component's double cover is a symmetric `c × c`
//!    weight matrix (zero off the edges and on the diagonal, meaning
//!    "unmatched"); a deterministic shortest-augmenting-path Hungarian
//!    solver finds its maximum-weight assignment.
//! 4. **Read off** `α_uv = (y_uv + y_vu)/2`.
//!
//! The solver cannot fail: every input has a finite optimum, and each
//! Hungarian step moves one column onto the augmenting tree, so a row
//! takes at most `c` steps of one `O(c)` scan each.

/// Reusable buffers for [`max_weight_fractional_matching_into`]; after the
/// first call on a given problem shape, further calls allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct MatchingWorkspace {
    /// Kept edge indices, one per unordered pair, in order of first
    /// appearance.
    order: Vec<usize>,
    /// Where each unordered pair's kept edge sits in `order`, in the
    /// upper-triangle layout of [`pair_index`]; `NO_SLOT` outside a call.
    pair_slot: Vec<u32>,
    /// Union-find parents over nodes.
    parent: Vec<usize>,
    /// Component of each node (`NONE` until it touches a kept edge).
    comp: Vec<usize>,
    /// Index of each node within its component; in debug builds, reused
    /// afterwards for the per-node load of the result check.
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
    /// assignment matrices of one component take `nodes²` entries each,
    /// the collapse's pair table `nodes²/2` 4-byte entries.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        for buf in [&mut self.order, &mut self.comp_edges] {
            buf.reserve(edges);
        }
        self.pair_slot.reserve(nodes * nodes.saturating_sub(1) / 2);
        for buf in [
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
const NO_SLOT: u32 = u32::MAX;

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
    collapse(n, edges, ws);
    assign_components(n, edges, ws, alpha, Hungarian::solve);
    let vertex = !cfg!(debug_assertions) || is_half_integral_vertex(n, edges, alpha, ws);
    for &e in &ws.order {
        let (lo, hi) = pair(edges, e);
        ws.pair_slot[pair_index(n, lo, hi)] = NO_SLOT;
    }
    debug_assert!(
        vertex,
        "fractional matching violates the single-radio rows (22)"
    );
}

/// The unordered pair `(lo, hi)` of edge `e`.
fn pair(edges: &[(usize, usize, f64)], e: usize) -> (usize, usize) {
    let (u, v, _) = edges[e];
    (u.min(v), u.max(v))
}

/// Index of the unordered pair `lo < hi < n` in an upper-triangle table
/// of `n·(n − 1)/2` entries.
fn pair_index(n: usize, lo: usize, hi: usize) -> usize {
    lo * (2 * n - lo - 1) / 2 + hi - lo - 1
}

/// Step 1: keeps the heaviest positive finite edge per unordered pair in
/// `ws.order`, the earliest on ties (a strict `>` replaces a kept edge).
/// One pass; it leaves `ws.pair_slot` filled for the kept pairs, and the
/// caller resets those entries.
fn collapse(n: usize, edges: &[(usize, usize, f64)], ws: &mut MatchingWorkspace) {
    ws.order.clear();
    let pairs = n * n.saturating_sub(1) / 2;
    if ws.pair_slot.len() < pairs {
        ws.pair_slot.resize(pairs, NO_SLOT);
    }
    for (e, &(_, _, w)) in edges.iter().enumerate() {
        if !(w > 0.0 && w.is_finite()) {
            continue;
        }
        let (lo, hi) = pair(edges, e);
        let slot = &mut ws.pair_slot[pair_index(n, lo, hi)];
        if *slot == NO_SLOT {
            *slot = u32::try_from(ws.order.len()).expect("fewer than 2³² node pairs");
            ws.order.push(e);
        } else if w > edges[ws.order[*slot as usize]].2 {
            ws.order[*slot as usize] = e;
        }
    }
}

/// Steps 2–4: splits the kept edges of `ws.order` into connected
/// components, assigns each component's double cover with `solve` (the
/// unit tests pass the two-pass oracle here), and adds the halves to
/// `alpha`.
fn assign_components(
    n: usize,
    edges: &[(usize, usize, f64)],
    ws: &mut MatchingWorkspace,
    alpha: &mut [f64],
    solve: impl Fn(&mut Hungarian, usize, &[f64]),
) {
    // 2. Connected components, numbered by their smallest node.
    ws.parent.clear();
    ws.parent.extend(0..n);
    for &e in &ws.order {
        let (u, v) = pair(edges, e);
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
        let (u, v) = pair(edges, e);
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
        |e| comp[pair(edges, e).0],
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
            let (u, v) = pair(edges, e);
            let (a, b) = (ws.local[u], ws.local[v]);
            for (r, col) in [(a, b), (b, a)] {
                ws.cost[r * c + col] = -edges[e].2;
                ws.edge_at[r * c + col] = e;
            }
        }
        solve(&mut ws.hungarian, c, &ws.cost);
        for (r, &col) in ws.hungarian.row_to_col().iter().enumerate() {
            let e = ws.edge_at[r * c + col];
            if e != NONE {
                alpha[e] += 0.5;
            }
        }
    }
}

/// Constraint (22) on a result, plus its vertex shape: every `α` is 0, ½
/// or 1, every node's `Σ α` is at most 1, and at most one edge per
/// unordered pair is active. Allocation-free: the node loads (in halves)
/// reuse `ws.local`, and an active edge must be its pair's kept edge in
/// the collapse's (still filled) pair table.
fn is_half_integral_vertex(
    n: usize,
    edges: &[(usize, usize, f64)],
    alpha: &[f64],
    ws: &mut MatchingWorkspace,
) -> bool {
    let load = &mut ws.local;
    load.clear();
    load.resize(n, 0);
    for (e, &a) in alpha.iter().enumerate() {
        let halves = match a {
            0.0 => continue,
            0.5 => 1,
            1.0 => 2,
            _ => return false,
        };
        let (lo, hi) = pair(edges, e);
        load[lo] += halves;
        load[hi] += halves;
        if load[lo] > 2 || load[hi] > 2 {
            return false;
        }
        // The active edge must be its pair's kept edge: then no other edge
        // of the pair can be active too.
        let slot = ws.pair_slot[pair_index(n, lo, hi)];
        if slot == NO_SLOT || ws.order[slot as usize] != e {
            return false;
        }
    }
    true
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
///
/// Each step of a row's search makes one scan over the columns not yet on
/// its tree, kept as an ascending list, and one pass over the tree's
/// columns. The textbook form makes two passes over all `c + 1` columns:
/// a scan of the off-tree ones, then `u[p[j]] += δ; v[j] −= δ` on the tree
/// and `minv[j] −= δ` off it. Here the scan applies the previous step's
/// `minv[j] −= δ` just before it compares `cur < minv[j]`. The two forms
/// give bit-equal assignments and potentials:
/// - every off-tree column sees the same operations in the same order, and
///   the column that joins the tree never reads `minv` again;
/// - the list stays ascending, so `minv[j] < δ` still breaks ties at the
///   lowest column;
/// - the tree's rows `p[j]` are distinct, so the order of its `u`/`v`
///   updates does not matter.
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
    /// The current row's off-tree columns, ascending.
    off_tree: Vec<usize>,
    /// Its tree's columns, the virtual column 0 first.
    tree: Vec<usize>,
    /// The 0-based assignment, row → column.
    assignment: Vec<usize>,
}

impl Hungarian {
    fn reserve(&mut self, c: usize) {
        for buf in [&mut self.u, &mut self.v, &mut self.minv] {
            buf.reserve(c + 1);
        }
        for buf in [
            &mut self.p,
            &mut self.way,
            &mut self.off_tree,
            &mut self.tree,
        ] {
            buf.reserve(c + 1);
        }
        self.assignment.reserve(c);
    }

    fn solve(&mut self, c: usize, cost: &[f64]) {
        let Self {
            u,
            v,
            p,
            way,
            minv,
            off_tree,
            tree,
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
        for i in 1..=c {
            p[0] = i;
            let mut j0 = 0;
            minv.fill(f64::INFINITY);
            off_tree.clear();
            off_tree.extend(1..=c);
            tree.clear();
            tree.push(0);
            // The previous step's `minv[j] -= delta`, not yet applied to
            // the off-tree columns (x − 0 = x for every x).
            let mut pending = 0.0;
            loop {
                let i0 = p[j0];
                let (row, ui0) = (&cost[(i0 - 1) * c..i0 * c], u[i0]);
                let mut delta = f64::INFINITY;
                let mut k1 = 0;
                for (k, &j) in off_tree.iter().enumerate() {
                    let mut m = minv[j] - pending;
                    let cur = row[j - 1] - ui0 - v[j];
                    if cur < m {
                        m = cur;
                        way[j] = j0;
                    }
                    minv[j] = m;
                    if m < delta {
                        delta = m;
                        k1 = k;
                    }
                }
                for &j in tree.iter() {
                    u[p[j]] += delta;
                    v[j] -= delta;
                }
                pending = delta;
                j0 = off_tree.remove(k1);
                tree.push(j0);
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

    /// The two-pass forms this module replaced: the bucket-sort collapse
    /// and the textbook Hungarian step. Kept as the lockstep oracle.
    mod oracle {
        use super::super::{
            assign_components, group_by_key, pair, Hungarian, MatchingWorkspace, NONE,
        };

        /// The fractional matching with both oracle steps.
        pub fn matching(n: usize, edges: &[(usize, usize, f64)]) -> Vec<f64> {
            let mut ws = MatchingWorkspace::new();
            let mut alpha = vec![0.0; edges.len()];
            collapse(n, edges, &mut ws);
            assign_components(n, edges, &mut ws, &mut alpha, solve);
            alpha
        }

        /// Buckets the positive edges by lower endpoint, then keeps a best
        /// edge per upper endpoint within each bucket.
        pub fn collapse(n: usize, edges: &[(usize, usize, f64)], ws: &mut MatchingWorkspace) {
            let positive = |e: usize| edges[e].2 > 0.0 && edges[e].2.is_finite();
            let (mut bucket_start, mut bucketed) = (Vec::new(), Vec::new());
            group_by_key(
                (0..edges.len()).filter(|&e| positive(e)),
                n,
                |e| pair(edges, e).0,
                &mut bucket_start,
                &mut bucketed,
            );
            ws.order.clear();
            let mut kept_at = vec![NONE; n];
            for lo in 0..n {
                let first = ws.order.len();
                for &e in &bucketed[bucket_start[lo]..bucket_start[lo + 1]] {
                    let hi = pair(edges, e).1;
                    match kept_at[hi] {
                        NONE => {
                            kept_at[hi] = ws.order.len();
                            ws.order.push(e);
                        }
                        at if edges[e].2 > edges[ws.order[at]].2 => ws.order[at] = e,
                        _ => {}
                    }
                }
                for &e in &ws.order[first..] {
                    kept_at[pair(edges, e).1] = NONE;
                }
            }
        }

        /// The Hungarian step as two passes over all `c + 1` columns.
        pub fn solve(h: &mut Hungarian, c: usize, cost: &[f64]) {
            let Hungarian {
                u,
                v,
                p,
                way,
                minv,
                assignment,
                ..
            } = h;
            for buf in [&mut *u, &mut *v, &mut *minv] {
                buf.clear();
                buf.resize(c + 1, 0.0);
            }
            for buf in [&mut *p, &mut *way] {
                buf.clear();
                buf.resize(c + 1, 0);
            }
            let mut used = vec![false; c + 1];
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
    }

    /// SplitMix64: a dependency-free, seedable draw for the lockstep tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A weight in the candidate range 1e3–1e14, one of two shared
        /// tie values, or (with `degenerate` set) zero, negative or NaN.
        fn weight(&mut self, degenerate: bool) -> f64 {
            match self.below(if degenerate { 8 } else { 5 }) {
                0 => 2.5e9,
                1 => 4.0e11,
                5 => 0.0,
                6 => -1.0,
                7 => f64::NAN,
                _ => (1.0 + 9.0 * self.unit()) * 10f64.powf(3.0 + 11.0 * self.unit()),
            }
        }
    }

    #[test]
    fn hungarian_matches_the_two_pass_oracle_bit_for_bit() {
        let mut rng = Rng(0x5eed_0001);
        let (mut ours, mut oracle) = (Hungarian::default(), Hungarian::default());
        for case in 0..600 {
            let c = 1 + case % 48;
            let zero_row_odds = 2 + rng.below(6);
            let density = 0.2 + 0.8 * rng.unit();
            let mut cost = vec![0.0; c * c];
            let isolated: Vec<bool> = (0..c).map(|_| rng.below(zero_row_odds) == 0).collect();
            for a in 0..c {
                for b in a + 1..c {
                    if isolated[a] || isolated[b] || rng.unit() > density {
                        continue;
                    }
                    let w = rng.weight(false);
                    cost[a * c + b] = -w;
                    cost[b * c + a] = -w;
                }
            }
            ours.solve(c, &cost);
            oracle::solve(&mut oracle, c, &cost);
            assert_eq!(
                ours.row_to_col(),
                oracle.row_to_col(),
                "case {case}, c = {c}"
            );
            let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&ours.u),
                bits(&oracle.u),
                "row potentials, case {case}"
            );
            assert_eq!(
                bits(&ours.v),
                bits(&oracle.v),
                "column potentials, case {case}"
            );
        }
    }

    #[test]
    fn matching_matches_the_oracle_bit_for_bit() {
        let mut rng = Rng(0x5eed_0002);
        let mut ws = MatchingWorkspace::new();
        let mut alpha = Vec::new();
        for case in 0..400 {
            let n = 2 + rng.below(30);
            let m = rng.below(12 * n);
            // Few distinct pairs at times, so parallel edges abound.
            let pairs = 1 + rng.below(n * (n - 1) / 2);
            let pool: Vec<(usize, usize)> = (0..pairs)
                .map(|_| {
                    let u = rng.below(n);
                    (u, (u + 1 + rng.below(n - 1)) % n)
                })
                .collect();
            let edges: Vec<_> = (0..m)
                .map(|_| {
                    let (u, v) = pool[rng.below(pairs)];
                    let (u, v) = if rng.below(2) == 0 { (u, v) } else { (v, u) };
                    (u, v, rng.weight(true))
                })
                .collect();
            max_weight_fractional_matching_into(n, &edges, &mut ws, &mut alpha);
            let expected = oracle::matching(n, &edges);
            let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&alpha),
                bits(&expected),
                "case {case}: n = {n}, {m} edges"
            );
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_are_rejected() {
        let _ = max_weight_fractional_matching(2, &[(1, 1, 1.0)]);
    }
}
