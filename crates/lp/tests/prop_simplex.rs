//! Property tests: simplex solutions are feasible and optimal against a
//! brute-force grid on random box-bounded programs.

use greencell_lp::{LinearProgram, LpError, Relation};
use proptest::prelude::*;

/// A small random LP over `k` variables in `[0, ub]` with `m` ≤-constraints
/// whose rhs is chosen so the origin is always feasible (rhs ≥ 0).
#[derive(Debug, Clone)]
struct RandomLp {
    costs: Vec<f64>,
    ubs: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

fn random_lp(vars: usize, rows: usize) -> impl Strategy<Value = RandomLp> {
    let coeff = -5.0..5.0f64;
    let cost = -5.0..5.0f64;
    let ub = 0.5..4.0f64;
    let rhs = 0.0..8.0f64;
    (
        prop::collection::vec(cost, vars),
        prop::collection::vec(ub, vars),
        prop::collection::vec((prop::collection::vec(coeff, vars), rhs), rows),
    )
        .prop_map(|(costs, ubs, rows)| RandomLp { costs, ubs, rows })
}

fn build(lp_def: &RandomLp) -> (LinearProgram, Vec<greencell_lp::VarId>) {
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = lp_def
        .costs
        .iter()
        .zip(&lp_def.ubs)
        .map(|(&c, &u)| lp.add_variable(c, 0.0, u))
        .collect();
    for (coeffs, rhs) in &lp_def.rows {
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        lp.add_constraint(&terms, Relation::Le, *rhs);
    }
    (lp, vars)
}

fn feasible(lp_def: &RandomLp, x: &[f64]) -> bool {
    for (xi, &u) in x.iter().zip(&lp_def.ubs) {
        if *xi < -1e-7 || *xi > u + 1e-7 {
            return false;
        }
    }
    lp_def
        .rows
        .iter()
        .all(|(coeffs, rhs)| coeffs.iter().zip(x).map(|(a, xi)| a * xi).sum::<f64>() <= rhs + 1e-6)
}

fn objective(lp_def: &RandomLp, x: &[f64]) -> f64 {
    lp_def.costs.iter().zip(x).map(|(c, xi)| c * xi).sum()
}

/// Brute-force grid minimum over the box, keeping only feasible points.
fn grid_min(lp_def: &RandomLp, steps: usize) -> f64 {
    let k = lp_def.costs.len();
    let mut best = f64::INFINITY;
    let mut idx = vec![0usize; k];
    loop {
        let x: Vec<f64> = idx
            .iter()
            .zip(&lp_def.ubs)
            .map(|(&i, &u)| u * i as f64 / (steps - 1) as f64)
            .collect();
        if feasible(lp_def, &x) {
            best = best.min(objective(lp_def, &x));
        }
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == k {
                return best;
            }
            idx[d] += 1;
            if idx[d] < steps {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solution_is_feasible_and_beats_grid(lp_def in random_lp(3, 3)) {
        let (lp, vars) = build(&lp_def);
        // Origin is feasible (rhs ≥ 0), bounds finite ⇒ never infeasible or
        // unbounded.
        let sol = lp.solve().expect("bounded feasible LP must solve");
        let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
        prop_assert!(feasible(&lp_def, &x), "solver returned infeasible point {x:?}");
        // Optimality: no grid point beats the simplex optimum.
        let grid = grid_min(&lp_def, 9);
        prop_assert!(
            sol.objective() <= grid + 1e-5,
            "simplex {} worse than grid {}",
            sol.objective(),
            grid
        );
        // Consistency of the reported objective.
        prop_assert!((objective(&lp_def, &x) - sol.objective()).abs() < 1e-6);
    }

    #[test]
    fn two_var_exact_against_fine_grid(lp_def in random_lp(2, 4)) {
        let (lp, _) = build(&lp_def);
        let sol = lp.solve().expect("bounded feasible LP must solve");
        let grid = grid_min(&lp_def, 161);
        // The grid hits vertices only approximately; allow grid resolution.
        prop_assert!(sol.objective() <= grid + 1e-5);
        prop_assert!(grid <= sol.objective() + 0.6, "grid {} far above simplex {}", grid, sol.objective());
    }

    #[test]
    fn infeasibility_is_symmetric(ub in 0.5..3.0f64, gap in 0.1..2.0f64) {
        // x ≤ ub (bound) but x ≥ ub + gap (constraint) is infeasible.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, ub);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, ub + gap);
        prop_assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mixed ≤/=/≥ programs: solutions satisfy every constraint type and a
    /// reference interior point proves feasibility was preservable.
    #[test]
    fn mixed_relations_stay_feasible(
        costs in prop::collection::vec(-3.0..3.0f64, 3),
        le_rows in prop::collection::vec((prop::collection::vec(-2.0..2.0f64, 3), 0.5..10.0f64), 0..3),
        anchor in prop::collection::vec(0.1..2.0f64, 3),
    ) {
        // Build a program guaranteed feasible at `anchor`: every row's rhs
        // is derived from the anchor point itself.
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = costs.iter().map(|&c| lp.add_variable(c, 0.0, 5.0)).collect();
        // One equality through the anchor.
        let eq_coeffs = [1.0, 2.0, -1.0];
        let eq_rhs: f64 = eq_coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum();
        let eq_terms: Vec<_> = vars.iter().copied().zip(eq_coeffs).collect();
        lp.add_constraint(&eq_terms, Relation::Eq, eq_rhs);
        // One ≥ row slack at the anchor.
        let ge_coeffs = [0.5, -1.0, 1.5];
        let ge_rhs: f64 = ge_coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum::<f64>() - 1.0;
        let ge_terms: Vec<_> = vars.iter().copied().zip(ge_coeffs).collect();
        lp.add_constraint(&ge_terms, Relation::Ge, ge_rhs);
        // Random ≤ rows, each made slack at the anchor.
        for (coeffs, slack) in &le_rows {
            let rhs: f64 =
                coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum::<f64>() + slack;
            let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
            lp.add_constraint(&terms, Relation::Le, rhs);
        }
        let sol = lp.solve().expect("anchor-feasible program must solve");
        let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
        // Verify every constraint at the solution.
        let dot = |coeffs: &[f64]| -> f64 { coeffs.iter().zip(&x).map(|(a, xi)| a * xi).sum() };
        prop_assert!((dot(&eq_coeffs) - eq_rhs).abs() < 1e-6, "equality violated");
        prop_assert!(dot(&ge_coeffs) >= ge_rhs - 1e-6, "≥ violated");
        for (coeffs, slack) in &le_rows {
            let rhs: f64 =
                coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum::<f64>() + slack;
            prop_assert!(dot(coeffs) <= rhs + 1e-6, "≤ violated");
        }
        // Optimality sanity: no worse than the anchor point itself.
        let anchor_obj: f64 = costs.iter().zip(&anchor).map(|(c, x)| c * x).sum();
        prop_assert!(sol.objective() <= anchor_obj + 1e-6);
    }
}
