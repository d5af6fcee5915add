//! Dense two-phase primal simplex with bounded variables.

use std::error::Error;
use std::fmt;

/// Identifier of a decision variable within one [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// Error from [`LinearProgram::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective decreases without bound over the feasible set.
    Unbounded,
    /// Pivot budget exhausted — numerically stuck (should not happen with
    /// Bland's rule; kept as a hard backstop).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible => write!(f, "linear program is infeasible"),
            Self::Unbounded => write!(f, "linear program is unbounded"),
            Self::IterationLimit => write!(f, "simplex iteration limit reached"),
        }
    }
}

impl Error for LpError {}

/// An optimal solution returned by [`LinearProgram::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    objective: f64,
    values: Vec<f64>,
}

impl Solution {
    /// The minimized objective value.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The value of variable `v` at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `v` belongs to a different program.
    #[must_use]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

/// A constraint row: sparse `(column, coefficient)` terms, the relation,
/// and the right-hand side.
type ConstraintRow = (Vec<(usize, f64)>, Relation, f64);

/// A linear *minimization* program over box-bounded variables.
///
/// Build with [`LinearProgram::add_variable`] /
/// [`LinearProgram::add_constraint`], then call [`LinearProgram::solve`].
/// See the crate docs for an example.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    constraints: Vec<ConstraintRow>,
}

const TOL: f64 = 1e-9;
const MAX_PIVOTS: usize = 200_000;
/// Consecutive degenerate pivots before switching from Dantzig pricing to
/// Bland's anti-cycling rule.
const DEGENERATE_SWITCH: usize = 40;

impl LinearProgram {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with objective coefficient `cost` (minimization) and
    /// bounds `lower ≤ x ≤ upper`. `upper` may be `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not finite, `upper < lower`, or `cost` is not
    /// finite.
    pub fn add_variable(&mut self, cost: f64, lower: f64, upper: f64) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(upper >= lower, "upper bound below lower bound");
        assert!(cost.is_finite(), "objective coefficient must be finite");
        let id = VarId(self.objective.len());
        self.objective.push(cost);
        self.lower.push(lower);
        self.upper.push(upper);
        id
    }

    /// Adds the constraint `Σ coeff·var  rel  rhs`.
    ///
    /// Duplicate variables in `terms` are summed.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient or `rhs` is not finite, or a variable
    /// belongs to another program.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], rel: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, a) in terms {
            assert!(a.is_finite(), "constraint coefficient must be finite");
            assert!(v.0 < self.objective.len(), "unknown variable");
            if let Some(slot) = dense.iter_mut().find(|(i, _)| *i == v.0) {
                slot.1 += a;
            } else {
                dense.push((v.0, a));
            }
        }
        self.constraints.push((dense, rel, rhs));
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or (pathologically)
    /// [`LpError::IterationLimit`].
    pub fn solve(&self) -> Result<Solution, LpError> {
        Tableau::build(self).solve().map(|shifted| {
            // Undo the lower-bound shift x = lo + y.
            let values: Vec<f64> = shifted
                .iter()
                .zip(&self.lower)
                .map(|(y, lo)| y + lo)
                .collect();
            let objective = values.iter().zip(&self.objective).map(|(x, c)| x * c).sum();
            Solution { objective, values }
        })
    }
}

/// Internal dense tableau in standard form (all variables ≥ 0, all
/// constraints equalities with non-negative rhs).
struct Tableau {
    /// Structural variable count (the user's variables, shifted).
    n: usize,
    /// Total columns excluding rhs.
    cols: usize,
    rows: usize,
    /// Row-major `rows × (cols + 1)`; the last column is the rhs.
    a: Vec<f64>,
    /// Phase-2 cost row (length `cols + 1`, last entry = −objective).
    cost: Vec<f64>,
    /// Phase-1 cost row.
    art_cost: Vec<f64>,
    basis: Vec<usize>,
    first_artificial: usize,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Self {
        let n = lp.objective.len();
        // Rewrite x = lo + y, y ≥ 0. Finite upper bounds become rows
        // y ≤ hi − lo. Count row types first.
        let mut rows_le = 0usize;
        let mut rows_other = 0usize;
        for (_, rel, _) in &lp.constraints {
            match rel {
                Relation::Le | Relation::Ge => rows_le += 1, // slack or surplus
                Relation::Eq => rows_other += 1,
            }
        }
        let upper_rows = lp.upper.iter().filter(|u| u.is_finite()).count();
        let m = lp.constraints.len() + upper_rows;
        // Columns: n structural + one slack/surplus per Le/Ge/upper row +
        // artificials (added lazily, at most one per row).
        let slack_count = rows_le + upper_rows;
        let _ = rows_other;
        let max_cols = n + slack_count + m;
        let mut a = vec![0.0; m * (max_cols + 1)];
        let width = max_cols + 1;
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = n;

        // Emit one standard-form row; returns (row_filled).
        let mut row_idx = 0usize;
        let mut emit = |coeffs: &[(usize, f64)],
                        rel: Relation,
                        rhs: f64,
                        a: &mut Vec<f64>,
                        basis: &mut Vec<usize>| {
            let r = row_idx;
            for &(j, v) in coeffs {
                a[r * width + j] = v;
            }
            a[r * width + max_cols] = rhs;
            // Normalize to non-negative rhs.
            let (rel, flip) = if rhs < 0.0 {
                for j in 0..=max_cols {
                    a[r * width + j] = -a[r * width + j];
                }
                (
                    match rel {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    },
                    true,
                )
            } else {
                (rel, false)
            };
            let _ = flip;
            match rel {
                Relation::Le => {
                    a[r * width + next_slack] = 1.0;
                    basis[r] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    a[r * width + next_slack] = -1.0;
                    next_slack += 1;
                    // Artificial added later.
                }
                Relation::Eq => {}
            }
            row_idx += 1;
        };

        for (terms, rel, rhs) in &lp.constraints {
            // Shift: Σ a(lo + y) rel b  ⇒  Σ a·y rel b − Σ a·lo.
            let shift: f64 = terms.iter().map(|&(j, c)| c * lp.lower[j]).sum();
            emit(terms, *rel, rhs - shift, &mut a, &mut basis);
        }
        for j in 0..n {
            if lp.upper[j].is_finite() {
                emit(
                    &[(j, 1.0)],
                    Relation::Le,
                    lp.upper[j] - lp.lower[j],
                    &mut a,
                    &mut basis,
                );
            }
        }

        // Add artificials for rows without a basic variable.
        let first_artificial = next_slack;
        let mut next_art = next_slack;
        for r in 0..m {
            if basis[r] == usize::MAX {
                a[r * width + next_art] = 1.0;
                basis[r] = next_art;
                next_art += 1;
            }
        }
        let cols = next_art;

        // Phase-2 costs: user objective on structural columns.
        let mut cost = vec![0.0; width];
        for (j, c) in lp.objective.iter().enumerate() {
            cost[j] = *c;
        }
        // Phase-1 costs: 1 on artificials; reduce by basic artificial rows.
        let mut art_cost = vec![0.0; width];
        for slot in art_cost.iter_mut().take(cols).skip(first_artificial) {
            *slot = 1.0;
        }
        for r in 0..m {
            if basis[r] >= first_artificial {
                for j in 0..width {
                    art_cost[j] -= a[r * width + j];
                }
            }
        }
        // Reduce phase-2 costs for initially-basic slack columns: slacks
        // have zero cost, so nothing to do (cost row already reduced).

        Self {
            n,
            cols,
            rows: m,
            a,
            cost,
            art_cost,
            basis,
            first_artificial,
        }
    }

    fn width(&self) -> usize {
        // `a` was allocated with a fixed width at build time.
        self.a.len() / self.rows.max(1)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width();
        let piv = self.a[row * width + col];
        debug_assert!(piv.abs() > TOL);
        let inv = 1.0 / piv;
        for j in 0..width {
            self.a[row * width + j] *= inv;
        }
        for r in 0..self.rows {
            if r != row {
                let factor = self.a[r * width + col];
                if factor.abs() > 0.0 {
                    for j in 0..width {
                        self.a[r * width + j] -= factor * self.a[row * width + j];
                    }
                }
            }
        }
        for costs in [&mut self.cost, &mut self.art_cost] {
            let factor = costs[col];
            if factor.abs() > 0.0 {
                for (j, slot) in costs.iter_mut().enumerate().take(width) {
                    *slot -= factor * self.a[row * width + j];
                }
            }
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations against the given cost row selector.
    /// `phase1 == true` uses the artificial cost row and allows all
    /// columns; phase 2 excludes artificial columns.
    fn iterate(&mut self, phase1: bool) -> Result<(), LpError> {
        let width = self.width();
        let rhs_col = width - 1;
        let mut degenerate_run = 0usize;
        for _ in 0..MAX_PIVOTS {
            let limit = if phase1 {
                self.cols
            } else {
                self.first_artificial
            };
            let costs: &Vec<f64> = if phase1 { &self.art_cost } else { &self.cost };
            // Entering column: Dantzig, falling back to Bland when degenerate.
            let entering = if degenerate_run < DEGENERATE_SWITCH {
                let mut best = None;
                let mut best_val = -TOL;
                for (j, &cost_j) in costs.iter().enumerate().take(limit) {
                    if cost_j < best_val {
                        best_val = cost_j;
                        best = Some(j);
                    }
                }
                best
            } else {
                (0..limit).find(|&j| costs[j] < -TOL)
            };
            let Some(col) = entering else {
                return Ok(());
            };
            // Ratio test; ties by smallest basis index (lexicographic-ish).
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.rows {
                let coeff = self.a[r * width + col];
                if coeff > TOL {
                    let ratio = self.a[r * width + rhs_col] / coeff;
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((lr, lv)) => {
                            if ratio < lv - TOL
                                || (ratio < lv + TOL && self.basis[r] < self.basis[lr])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, ratio)) = leave else {
                return Err(if phase1 {
                    // Phase-1 objective is bounded below by 0; cannot happen.
                    LpError::IterationLimit
                } else {
                    LpError::Unbounded
                });
            };
            if ratio < TOL {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit)
    }

    fn solve(mut self) -> Result<Vec<f64>, LpError> {
        if self.rows == 0 {
            // No constraints: every variable sits at its (shifted) lower
            // bound unless a negative cost makes the program unbounded —
            // finite upper bounds always materialize as rows, so any
            // negative-cost column here is genuinely unbounded.
            if self.cost[..self.n].iter().any(|&c| c < -TOL) {
                return Err(LpError::Unbounded);
            }
            return Ok(vec![0.0; self.n]);
        }
        let width = self.width();
        let rhs_col = width - 1;
        // Phase 1.
        if self.basis.iter().any(|&b| b >= self.first_artificial) {
            self.iterate(true)?;
            // Phase-1 objective value = −art_cost[rhs].
            let p1 = -self.art_cost[rhs_col];
            if p1 > 1e-7 {
                return Err(LpError::Infeasible);
            }
            // Drive any remaining basic artificials out.
            for r in 0..self.rows {
                if self.basis[r] >= self.first_artificial {
                    let pivot_col =
                        (0..self.first_artificial).find(|&j| self.a[r * width + j].abs() > TOL);
                    if let Some(col) = pivot_col {
                        self.pivot(r, col);
                    }
                    // Otherwise the row is redundant (all-zero); leave it.
                }
            }
        }
        // Phase 2.
        self.iterate(false)?;
        let mut x = vec![0.0; self.n];
        for r in 0..self.rows {
            let b = self.basis[r];
            if b < self.n {
                x[b] = self.a[r * width + rhs_col].max(0.0);
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y st x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-3.0, 0.0, f64::INFINITY);
        let y = lp.add_variable(-5.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), -36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + y st x + 2y = 4, 3x + y = 7 → x = 2, y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY);
        let y = lp.add_variable(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], Relation::Eq, 7.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
        assert_close(s.objective(), 3.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y st x + y ≥ 10, x ≥ 2 → y = 8? cost 2·2+3·8=28 vs x=10 cost 20.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(2.0, 0.0, f64::INFINITY);
        let y = lp.add_variable(3.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 20.0);
        assert_close(s.value(x), 10.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, 0.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn box_bounds_respected() {
        // min −x with 1 ≤ x ≤ 5 → x = 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 1.0, 5.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), 5.0);
        assert_close(s.objective(), -5.0);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y st x + y ≥ 5, x ≥ 2 (bound), y ≥ 1 (bound) → obj 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 2.0, f64::INFINITY);
        let y = lp.add_variable(1.0, 1.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 5.0);
        assert!(s.value(x) >= 2.0 - 1e-9);
        assert!(s.value(y) >= 1.0 - 1e-9);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // min x st −x ≤ −3  (i.e. x ≥ 3).
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, -3.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn negative_lower_bounds_supported() {
        // min x with −4 ≤ x ≤ 4 and x ≥ −2.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, -4.0, 4.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, -2.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), -2.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // min −x st x/2 + x/2 ≤ 3 → x = 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 0.5), (x, 0.5)], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints through one vertex.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 0.0, f64::INFINITY);
        let y = lp.add_variable(-1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), -1.0);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY);
        let y = lp.add_variable(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 4.0); // redundant
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 2.0);
    }

    #[test]
    fn zero_variable_program() {
        let lp = LinearProgram::new();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(5.0, 2.0, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.objective(), 10.0);
    }

    #[test]
    #[should_panic(expected = "upper bound below lower")]
    fn inverted_bounds_rejected() {
        let mut lp = LinearProgram::new();
        let _ = lp.add_variable(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_rejected() {
        let mut a = LinearProgram::new();
        let mut b = LinearProgram::new();
        let x = a.add_variable(0.0, 0.0, 1.0);
        let _y = b.add_variable(0.0, 0.0, 1.0);
        let x2 = VarId(x.0 + 10);
        b.add_constraint(&[(x2, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            LpError::Infeasible.to_string(),
            "linear program is infeasible"
        );
    }

    #[test]
    fn beales_cycling_example_terminates() {
        // Beale (1955): the classic instance on which Dantzig pricing with
        // naive tie-breaking cycles forever. Optimum: z = −0.05 at
        // x = (1/25, 0, 1, 0).
        let mut lp = LinearProgram::new();
        let x1 = lp.add_variable(-0.75, 0.0, f64::INFINITY);
        let x2 = lp.add_variable(150.0, 0.0, f64::INFINITY);
        let x3 = lp.add_variable(-0.02, 0.0, f64::INFINITY);
        let x4 = lp.add_variable(6.0, 0.0, f64::INFINITY);
        lp.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0);
        let s = lp.solve().expect("anti-cycling must terminate");
        assert_close(s.objective(), -0.05);
        assert_close(s.value(x3), 1.0);
    }

    #[test]
    fn transportation_problem_known_optimum() {
        // 2 plants (supply 20, 30) → 3 markets (demand 10, 25, 15);
        // costs: [[2, 4, 5], [3, 1, 7]]. Optimum 125: plant1 sends 5 to
        // market1 (@2) and all 15 to market3 (@5); plant2 sends 5 to
        // market1 (@3) and all 25 to market2 (@1):
        // 5·2 + 15·5 + 5·3 + 25·1 = 125.
        let mut lp = LinearProgram::new();
        let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
        let mut x = Vec::new();
        for row in &costs {
            for &c in row {
                x.push(lp.add_variable(c, 0.0, f64::INFINITY));
            }
        }
        let supply = [20.0, 30.0];
        let demand = [10.0, 25.0, 15.0];
        for (p, &s_cap) in supply.iter().enumerate() {
            let terms: Vec<_> = (0..3).map(|m| (x[p * 3 + m], 1.0)).collect();
            lp.add_constraint(&terms, Relation::Le, s_cap);
        }
        for (m, &d_req) in demand.iter().enumerate() {
            let terms: Vec<_> = (0..2).map(|p| (x[p * 3 + m], 1.0)).collect();
            lp.add_constraint(&terms, Relation::Eq, d_req);
        }
        let s = lp.solve().expect("balanced transportation is feasible");
        assert_close(s.objective(), 125.0);
    }
}
