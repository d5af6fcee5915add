//! Scalar search routines used by the S4 marginal-price solver.

/// Finds a root of a non-decreasing function `f` on `[lo, hi]` by
/// bisection: returns `x` with `|f(x)| ≤` the achievable resolution after
/// `max_iter` halvings (or an endpoint if `f` does not change sign).
///
/// If `f(lo) > 0` returns `lo`; if `f(hi) < 0` returns `hi` — the callers
/// (fixed-point equations with clamped domains) want exactly that clamping
/// behavior.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
///
/// # Examples
///
/// ```
/// use greencell_lp::bisect_increasing;
///
/// let root = bisect_increasing(|x| x * x - 4.0, 0.0, 10.0, 80);
/// assert!((root - 2.0).abs() < 1e-9);
/// ```
pub fn bisect_increasing<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, max_iter: usize) -> f64 {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    let mut lo = lo;
    let mut hi = hi;
    if f(lo) > 0.0 {
        return lo;
    }
    if f(hi) < 0.0 {
        return hi;
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        if f(mid) <= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Replays the arithmetic of [`bisect_increasing`]'s halving loop for a
/// function whose *sign threshold* is already known: `threshold` is the
/// largest `x` in `[lo, hi]` with `f(x) ≤ 0`. Because the loop's branch
/// depends only on the sign of `f(mid)`, and `f(mid) ≤ 0 ⇔ mid ≤
/// threshold` for a weakly non-decreasing `f`, this reproduces the return
/// value of `bisect_increasing(f, lo, hi, max_iter)` **bit for bit** with
/// zero function evaluations — the seam that lets the S4 warm-start
/// kernel stay bit-identical to its frozen cold-bisection oracle.
///
/// The caller must have established the non-clamping precondition
/// (`f(lo) ≤ 0` and `f(hi) ≥ 0`, so `bisect_increasing` would reach its
/// halving loop rather than return an endpoint) and `lo ≤ threshold ≤ hi`.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
///
/// # Examples
///
/// ```
/// use greencell_lp::{bisect_increasing, bisect_replay};
///
/// let f = |x: f64| x - 1.25;
/// let direct = bisect_increasing(f, 0.0, 2.0, 100);
/// // The sign threshold of `x - 1.25` is 1.25 itself (f(1.25) = 0).
/// let replayed = bisect_replay(0.0, 2.0, 1.25, 100);
/// assert_eq!(direct.to_bits(), replayed.to_bits());
/// ```
#[must_use]
pub fn bisect_replay(lo: f64, hi: f64, threshold: f64, max_iter: usize) -> f64 {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    let mut lo = lo;
    let mut hi = hi;
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        if mid <= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// [`bisect_replay`] with an honest-evaluation guard band: midpoints
/// within `band` of `threshold` evaluate `f` for real instead of trusting
/// the predicted sign.
///
/// This is the robust form of the replay. A computed residual like the S4
/// equilibrium's `p − V·f'(P(p))` is only *approximately* monotone: near a
/// node's mode-flip price, the mode comparison (an EPS-slack test between
/// two rounded objectives) can flicker sign over a few-ulp window, so two
/// verified thresholds may coexist a few ulps apart and pure prediction
/// can diverge from the real bisection in its final steps. Evaluating
/// honestly inside the band reproduces the real trajectory exactly, while
/// everything outside the band — where the sign structure is unambiguous —
/// is replayed for free.
///
/// `max_evals` caps the honest evaluations (predictions resume once
/// spent), bounding the cost when the threshold sits at a bracket edge
/// and the shrinking interval never leaves the band. Midpoints that
/// collide with an endpoint reuse the endpoint's known sign (`f(lo) ≤ 0 <
/// f(hi)` is the caller's bracket invariant and is maintained throughout),
/// so the sub-ulp tail of the loop costs no evaluations.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
pub fn bisect_replay_guarded<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    threshold: f64,
    band: f64,
    max_evals: usize,
    max_iter: usize,
) -> f64 {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    let mut lo = lo;
    let mut hi = hi;
    let mut evals = 0usize;
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let nonpos = if mid == lo {
            true
        } else if mid == hi {
            false
        } else if evals < max_evals && (mid - threshold).abs() <= band {
            evals += 1;
            f(mid) <= 0.0
        } else {
            mid <= threshold
        };
        if nonpos {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Finds the largest `t` in `[lo, hi]` with `f(t) ≤ 0` for a weakly
/// non-decreasing `f`, exact to the last floating-point ulp.
///
/// Each probe returns `(f(x), guess)` where `guess` is the caller's
/// closed-form threshold for the *piece* the probe landed on — e.g. for
/// the S4 equilibrium residual `g(p) = p − V·f'(P(p))` with `P` piecewise
/// constant in `p`, the piece containing `x` has threshold exactly
/// `V·f'(P(x))`. A correct guess terminates the search in two probes (the
/// guess plus its successor); a wrong guess still shrinks the bracket and
/// strictly alternates with plain bisection steps, so the search never
/// degenerates (worst case ~2× bisection-to-the-ulp, typically O(1)
/// probes). `hint` — e.g. last slot's threshold under a warm-start policy
/// — is probed first when it lies strictly inside the bracket, making the
/// *verification* cheap even when the hint has drifted.
///
/// The caller must have established `f(lo) ≤ 0 < f(hi)`; the returned `t`
/// always satisfies the verified property `f(t) ≤ 0 < f(next_up(t))`
/// (with `f(hi) > 0` standing in when `t`'s successor is `hi`), so
/// correctness never depends on the guesses.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
///
/// # Examples
///
/// ```
/// use greencell_lp::piecewise_sign_threshold;
///
/// // Step function jumping at 2.0: every probe proposes the exact jump.
/// let t = piecewise_sign_threshold(
///     |x| (if x < 2.0 { -1.0 } else { 1.0 }, 2.0),
///     0.0,
///     4.0,
///     None,
/// );
/// assert!(t < 2.0 && t.next_up() >= 2.0);
/// ```
pub fn piecewise_sign_threshold<F: FnMut(f64) -> (f64, f64)>(
    mut f: F,
    lo: f64,
    hi: f64,
    hint: Option<f64>,
) -> f64 {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    let mut a = lo;
    let mut b = hi;
    let mut guess = hint;
    let mut allow_guess = true;
    loop {
        if a.next_up() >= b {
            return a;
        }
        let (x, guessed) = match guess.take() {
            Some(g) if allow_guess && g > a && g < b => (g, true),
            _ => {
                let mid = a + 0.5 * (b - a);
                (if mid > a && mid < b { mid } else { a.next_up() }, false)
            }
        };
        allow_guess = !allow_guess;
        let (fx, piece) = f(x);
        if fx <= 0.0 {
            let up = x.next_up();
            if up >= b {
                return x;
            }
            let (fup, piece_up) = f(up);
            if fup > 0.0 {
                return x;
            }
            a = up;
            guess = Some(piece_up);
        } else if guessed {
            // A parametric guess lands exactly on its piece boundary, so a
            // positive sign often means the threshold is the immediately
            // preceding double (a jump at `x`) — check it before falling
            // back to bisection.
            let down = x.next_down();
            if down <= a {
                return a;
            }
            let (fdown, piece_down) = f(down);
            if fdown <= 0.0 {
                return down;
            }
            b = down;
            guess = Some(piece_down);
        } else {
            b = x;
            guess = Some(piece);
        }
    }
}

/// Minimizes a unimodal function on `[lo, hi]` by golden-section search;
/// returns the minimizing `x` after `max_iter` shrink steps.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
///
/// # Examples
///
/// ```
/// use greencell_lp::golden_section_min;
///
/// let x = golden_section_min(|x| (x - 3.0) * (x - 3.0) + 1.0, 0.0, 10.0, 100);
/// assert!((x - 3.0).abs() < 1e-6);
/// ```
pub fn golden_section_min<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    max_iter: usize,
) -> f64 {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..max_iter {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_root() {
        let r = bisect_increasing(|x| x - 1.25, 0.0, 2.0, 60);
        assert!((r - 1.25).abs() < 1e-12);
    }

    #[test]
    fn bisect_clamps_at_lo() {
        // f positive everywhere on the interval ⇒ clamp to lo.
        assert_eq!(bisect_increasing(|x| x + 1.0, 0.0, 5.0, 60), 0.0);
    }

    #[test]
    fn bisect_clamps_at_hi() {
        assert_eq!(bisect_increasing(|x| x - 10.0, 0.0, 5.0, 60), 5.0);
    }

    #[test]
    fn bisect_handles_flat_regions() {
        // Non-decreasing step function.
        let r = bisect_increasing(|x| if x < 2.0 { -1.0 } else { 1.0 }, 0.0, 4.0, 80);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_minimizes_quadratic() {
        let x = golden_section_min(|x| x.mul_add(x, -4.0 * x), -10.0, 10.0, 120);
        assert!((x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        let x = golden_section_min(|x| x, 1.0, 5.0, 120);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn bisect_rejects_inverted_interval() {
        let _ = bisect_increasing(|x| x, 1.0, 0.0, 10);
    }

    /// The largest double `t` in `[lo, hi]` with `f(t) ≤ 0`, found the slow
    /// honest way (bisection over the bit lattice), for cross-checking.
    fn exact_threshold<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64) -> f64 {
        assert!(f(lo) <= 0.0 && f(hi) > 0.0);
        let mut a = lo;
        let mut b = hi;
        while a.next_up() < b {
            let mid = a + 0.5 * (b - a);
            let mid = if mid > a && mid < b { mid } else { a.next_up() };
            if f(mid) <= 0.0 {
                a = mid;
            } else {
                b = mid;
            }
        }
        a
    }

    #[test]
    fn replay_matches_direct_bisection_bitwise() {
        // Continuous, step, and flat-region cases across assorted brackets.
        type Case = (fn(f64) -> f64, f64, f64);
        let cases: [Case; 4] = [
            (|x| x - 1.25, 0.0, 2.0),
            (|x| if x < 2.0 { -1.0 } else { 1.0 }, 0.0, 4.0),
            (
                |x| (x - 0.3).max(0.0) * 1e-3 + (x - 0.3).min(0.0),
                -1.0,
                7.0,
            ),
            (|x| x - 83_917.426_171_5, 20_000.0, 150_000.0),
        ];
        for (f, lo, hi) in cases {
            let t = exact_threshold(f, lo, hi);
            let direct = bisect_increasing(f, lo, hi, 100);
            let replayed = bisect_replay(lo, hi, t, 100);
            assert_eq!(direct.to_bits(), replayed.to_bits(), "case ({lo}, {hi})");
        }
    }

    #[test]
    fn threshold_search_finds_exact_ulp_boundary() {
        let f = |x: f64| if x < 2.0 { -1.0 } else { 1.0 };
        // With an exact per-piece guess, with a wrong guess, with a stale
        // hint, and with no guidance at all.
        for (guess, hint) in [
            (Some(2.0), None),
            (Some(3.7), None),
            (None, Some(1.1)),
            (None, None),
        ] {
            let t = piecewise_sign_threshold(|x| (f(x), guess.unwrap_or(x)), 0.0, 4.0, hint);
            assert!(f(t) <= 0.0 && f(t.next_up()) > 0.0, "t={t}");
            assert_eq!(t.to_bits(), exact_threshold(f, 0.0, 4.0).to_bits());
        }
    }

    #[test]
    fn threshold_search_counts_probes_with_exact_guess() {
        // A correct parametric guess must terminate in two probes: the
        // guess itself and its successor.
        let jump = 83_917.426_171_5_f64;
        let mut probes = 0usize;
        let t = piecewise_sign_threshold(
            |x| {
                probes += 1;
                (if x < jump { -1.0 } else { 1.0 }, jump)
            },
            20_000.0,
            150_000.0,
            Some(jump),
        );
        assert_eq!(probes, 2);
        assert!(t < jump && t.next_up() >= jump);
    }

    #[test]
    fn threshold_search_survives_adversarial_guesses() {
        // Guesses that always point at the wrong end must still converge
        // (the alternation with bisection guarantees progress).
        let f = |x: f64| x - 0.75;
        let t = piecewise_sign_threshold(|x| (f(x), -10.0), 0.0, 1.0, Some(0.999));
        assert!(f(t) <= 0.0 && f(t.next_up()) > 0.0);
    }

    #[test]
    fn threshold_at_upper_end_of_bracket() {
        // f ≤ 0 everywhere except the topmost double.
        let hi = 4.0f64;
        let f = move |x: f64| if x < hi { -1.0 } else { 1.0 };
        let t = piecewise_sign_threshold(|x| (f(x), hi), 0.0, hi, None);
        assert!(f(t) <= 0.0);
        assert!(t.next_up() >= hi || f(t.next_up()) > 0.0);
    }

    #[test]
    fn guarded_replay_matches_direct_bisection_under_sign_flicker() {
        // A residual whose computed sign flickers pseudo-randomly inside a
        // 64-ulp window of 2.0 — exactly the non-monotonicity a pure
        // threshold replay cannot reproduce (two verified thresholds
        // coexist, and the direct bisection may converge to either).
        let t0 = 2.0f64;
        let window = 64.0 * t0 * f64::EPSILON;
        let f = move |x: f64| {
            if (x - t0).abs() <= window {
                if x.to_bits().is_multiple_of(3) {
                    -1.0
                } else {
                    1.0
                }
            } else if x < t0 {
                -1.0
            } else {
                1.0
            }
        };
        let direct = bisect_increasing(f, 0.0, 5.0, 100);
        let t = piecewise_sign_threshold(|x| (f(x), t0), 0.0, 5.0, None);
        assert!(f(t) <= 0.0 && f(t.next_up()) > 0.0, "t must be verified");
        let band = 4096.0 * f64::EPSILON * t.abs();
        let mut evals = 0usize;
        let replayed = bisect_replay_guarded(
            |x| {
                evals += 1;
                f(x)
            },
            0.0,
            5.0,
            t,
            band,
            24,
            100,
        );
        assert_eq!(
            direct.to_bits(),
            replayed.to_bits(),
            "guarded replay must track the real trajectory through the flicker"
        );
        assert!(evals <= 24, "eval budget respected, used {evals}");
    }

    #[test]
    fn guarded_replay_matches_direct_on_monotone_functions() {
        for &(t_true, lo, hi) in &[
            (1.25f64, 0.0, 2.0),
            (0.1, 0.0, 1.0),
            (83_917.426_111_33, 20_000.0, 150_000.0),
        ] {
            let f = move |x: f64| x - t_true;
            let direct = bisect_increasing(f, lo, hi, 100);
            let band = 4096.0 * f64::EPSILON * t_true.abs();
            let mut evals = 0usize;
            let replayed = bisect_replay_guarded(
                |x| {
                    evals += 1;
                    f(x)
                },
                lo,
                hi,
                t_true,
                band,
                24,
                100,
            );
            assert_eq!(direct.to_bits(), replayed.to_bits(), "t_true = {t_true}");
            assert!(evals <= 24, "t_true = {t_true}: {evals} evals");
        }
    }

    #[test]
    fn guarded_replay_with_zero_budget_is_the_pure_replay() {
        let mut evals = 0usize;
        let guarded = bisect_replay_guarded(
            |_| {
                evals += 1;
                0.0
            },
            0.0,
            5.0,
            2.0,
            f64::INFINITY,
            0,
            100,
        );
        assert_eq!(evals, 0, "zero budget must mean zero evaluations");
        assert_eq!(
            guarded.to_bits(),
            bisect_replay(0.0, 5.0, 2.0, 100).to_bits()
        );
    }
}
