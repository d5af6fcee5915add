//! Scalar search used by the S4 reference solver.

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
    #[should_panic(expected = "empty interval")]
    fn bisect_rejects_inverted_interval() {
        let _ = bisect_increasing(|x| x, 1.0, 0.0, 10);
    }
}
