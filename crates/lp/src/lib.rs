//! Optimization substrate: a dense two-phase simplex LP solver, an exact
//! fractional matching solver, and scalar search routines.
//!
//! The paper solves its per-slot subproblems with CPLEX 12.4 (§VI). This
//! workspace has no external solver, so this crate hand-rolls the
//! numerical tools the controller needs:
//!
//! * [`LinearProgram`] — a small, deterministic, dense two-phase primal
//!   simplex with bounded variables, used by the sequential-fix link
//!   scheduler (S1) and as the test oracle for the matching solver;
//! * [`max_weight_fractional_matching`] — the relaxed lower-bound
//!   controller `P̄3`'s S1: the LP with only single-radio rows is a
//!   fractional matching, solved exactly and without a tableau as an
//!   assignment on the bipartite double cover (half-integral optimum);
//! * [`bisect_increasing`] / [`golden_section_min`] — scalar searches used
//!   by the S4 marginal-price solver;
//! * [`bisect_replay`] / [`bisect_replay_guarded`] /
//!   [`piecewise_sign_threshold`] — the threshold-replay machinery behind
//!   the warm-started S4 kernel: find the sign threshold of the equilibrium
//!   residual in O(1) probes, then replay the cold bisection's arithmetic
//!   bit-for-bit, spending real evaluations only on midpoints inside a
//!   guard band where the computed sign may flicker.
//!
//! The simplex is tuned for *correctness and reproducibility*, not raw
//! speed: Dantzig pricing with an automatic switch to Bland's rule after a
//! run of degenerate pivots (so it cannot cycle), explicit tolerances, and
//! exhaustive tests against brute-force grids and textbook instances. The
//! per-slot LPs of this workspace are a few hundred variables at most.
//!
//! # Examples
//!
//! Minimize `-x - 2y` subject to `x + y ≤ 4`, `x ≤ 3`, `0 ≤ x, y ≤ 3`:
//!
//! ```
//! use greencell_lp::{LinearProgram, Relation};
//!
//! let mut lp = LinearProgram::new();
//! let x = lp.add_variable(-1.0, 0.0, 3.0);
//! let y = lp.add_variable(-2.0, 0.0, 3.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective() - (-7.0)).abs() < 1e-9); // x = 1, y = 3
//! assert!((sol.value(y) - 3.0).abs() < 1e-9);
//! # Ok::<(), greencell_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matching;
mod search;
mod simplex;

pub use matching::{
    max_weight_fractional_matching, max_weight_fractional_matching_into, MatchingWorkspace,
};
pub use search::{
    bisect_increasing, bisect_replay, bisect_replay_guarded, golden_section_min,
    piecewise_sign_threshold,
};
pub use simplex::{LinearProgram, LpError, Relation, Solution, VarId};
