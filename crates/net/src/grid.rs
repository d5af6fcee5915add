//! Uniform spatial grid index over node positions.
//!
//! City-scale scenarios need two geometric queries that would be Θ(n²)
//! against the flat node list: "which points lie within the interference
//! cutoff radius of `p`?" (cluster-edge discovery) and "is any already
//! accepted point closer than the Poisson-disk spacing?" (BS placement).
//! [`GridIndex`] buckets points into square cells of a caller-chosen side
//! so both become scans over a constant number of neighbouring cells.
//!
//! Iteration order is deterministic: cells are visited row-major and
//! points within a cell in insertion order, so every consumer of a
//! neighbourhood scan sees the same sequence on every run and at every
//! worker count.

use crate::Point;

/// A uniform bucket grid over the rectangle `[0, width] × [0, height]`.
///
/// Points outside the rectangle are clamped into the border cells, so the
/// index never rejects a query — it only degrades to larger buckets.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<usize>>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Creates an empty index over `[0, width] × [0, height]` with square
    /// cells of side `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell`, `width`, or `height` is not strictly positive and
    /// finite — a degenerate grid cannot bound a neighbourhood scan.
    #[must_use]
    pub fn new(cell: f64, width: f64, height: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "grid cell side must be positive and finite, got {cell}"
        );
        assert!(
            width > 0.0 && width.is_finite() && height > 0.0 && height.is_finite(),
            "grid extent must be positive and finite, got {width}×{height}"
        );
        let cols = (width / cell).ceil().max(1.0) as usize;
        let rows = (height / cell).ceil().max(1.0) as usize;
        Self {
            cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            points: Vec::new(),
        }
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let clamp = |v: f64, n: usize| {
            if v <= 0.0 {
                0
            } else {
                ((v / self.cell) as usize).min(n - 1)
            }
        };
        (clamp(p.x(), self.cols), clamp(p.y(), self.rows))
    }

    /// Inserts `p` and returns its dense index (insertion order).
    pub fn insert(&mut self, p: Point) -> usize {
        let idx = self.points.len();
        let (cx, cy) = self.cell_of(p);
        self.buckets[cy * self.cols + cx].push(idx);
        self.points.push(p);
        idx
    }

    /// Number of grid cells holding at least one point — the quantity
    /// per-slot city cost is expected to scale with.
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.buckets.iter().filter(|b| !b.is_empty()).count()
    }

    /// Calls `f(index, point)` for every inserted point within Euclidean
    /// distance `radius` of `p` (inclusive), in deterministic order:
    /// candidate cells row-major, points within a cell in insertion order.
    /// The query point itself is reported if it was inserted.
    pub fn for_neighbors_within(&self, p: Point, radius: f64, mut f: impl FnMut(usize, Point)) {
        let (cx, cy) = self.cell_of(p);
        // Cells overlapping the disc: the radius spans at most
        // ceil(radius/cell) cells in each direction.
        let span = (radius / self.cell).ceil().max(0.0) as usize;
        let x0 = cx.saturating_sub(span);
        let x1 = (cx + span).min(self.cols - 1);
        let y0 = cy.saturating_sub(span);
        let y1 = (cy + span).min(self.rows - 1);
        let r2 = radius * radius;
        for gy in y0..=y1 {
            for gx in x0..=x1 {
                for &idx in &self.buckets[gy * self.cols + gx] {
                    let q = self.points[idx];
                    let dx = q.x() - p.x();
                    let dy = q.y() - p.y();
                    if dx * dx + dy * dy <= r2 {
                        f(idx, q);
                    }
                }
            }
        }
    }

    /// `true` if some inserted point lies within `radius` of `p` —
    /// the Poisson-disk acceptance test.
    #[must_use]
    pub fn has_neighbor_within(&self, p: Point, radius: f64) -> bool {
        let mut found = false;
        self.for_neighbors_within(p, radius, |_, _| found = true);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exactly_the_points_in_radius() {
        let mut g = GridIndex::new(10.0, 100.0, 100.0);
        let pts = [
            Point::new(5.0, 5.0),
            Point::new(14.0, 5.0),
            Point::new(50.0, 50.0),
            Point::new(99.0, 99.0),
        ];
        for &p in &pts {
            g.insert(p);
        }
        let mut hits = Vec::new();
        g.for_neighbors_within(Point::new(6.0, 5.0), 10.0, |i, _| hits.push(i));
        assert_eq!(hits, vec![0, 1]);
        assert!(g.has_neighbor_within(Point::new(51.0, 50.0), 2.0));
        assert!(!g.has_neighbor_within(Point::new(80.0, 20.0), 5.0));
    }

    #[test]
    fn brute_force_agreement_on_a_lattice() {
        let mut g = GridIndex::new(7.0, 60.0, 40.0);
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..8 {
                let p = Point::new(i as f64 * 5.0 + 0.5, j as f64 * 5.0 + 0.25);
                g.insert(p);
                pts.push(p);
            }
        }
        for &(qx, qy, r) in &[(0.0, 0.0, 9.0), (30.0, 20.0, 12.5), (59.0, 39.0, 100.0)] {
            let q = Point::new(qx, qy);
            let mut via_grid = Vec::new();
            g.for_neighbors_within(q, r, |i, _| via_grid.push(i));
            via_grid.sort_unstable();
            let brute: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let dx = p.x() - qx;
                    let dy = p.y() - qy;
                    dx * dx + dy * dy <= r * r
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(via_grid, brute, "radius {r} around ({qx},{qy})");
        }
    }

    #[test]
    fn clamps_out_of_range_points_to_border_cells() {
        let mut g = GridIndex::new(10.0, 30.0, 30.0);
        g.insert(Point::new(-5.0, 35.0));
        assert!(g.has_neighbor_within(Point::new(0.0, 30.0), 8.0));
        assert_eq!(g.occupied_cells(), 1);
    }
}
