//! Deterministic pseudo-random number generation.
//!
//! Simulation papers live and die by reproducibility, so instead of pulling
//! in OS entropy we hand-roll xoshiro256\*\* (Blackman & Vigna) seeded
//! through SplitMix64. Both algorithms are public-domain reference designs;
//! implementing them here keeps every experiment bit-for-bit reproducible
//! from a single `u64` seed on any platform, with no dependencies.

/// A deterministic xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use greencell_stochastic::Rng;
///
/// let mut a = Rng::seed_from(7);
/// let mut b = Rng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded with SplitMix64 so that nearby seeds produce
    /// unrelated streams; any seed (including 0) is valid.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator.
    ///
    /// Each subsystem (bandwidths, renewables, arrivals, topology) gets its
    /// own stream, so adding draws to one subsystem never perturbs another —
    /// the common-random-numbers discipline used by the architecture
    /// comparison of Fig. 2(f).
    #[must_use]
    pub fn split(&mut self) -> Self {
        Self::seed_from(self.next_u64())
    }

    /// The generator's full internal state — the four xoshiro256\*\* words.
    ///
    /// Together with [`Rng::from_state`] this makes a stream's *position*
    /// serializable: a generator rebuilt from a captured state continues
    /// the exact output sequence, which is what crash-safe snapshot/restore
    /// needs to replay a run bit-identically.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator at a previously captured position
    /// (see [`Rng::state`]).
    ///
    /// The all-zero state is a fixed point of xoshiro256\*\* (it would emit
    /// zeros forever) and cannot be produced by [`Rng::seed_from`], so it is
    /// mapped through the seeding path instead of being trusted.
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Self::seed_from(0);
        }
        Self { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire-style rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        // Rejection sampling on the top bits: unbiased for any n.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform `usize` index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let mut parent = Rng::seed_from(9);
        let mut child = parent.split();
        let first = child.next_u64();
        // Re-derive: same parent state sequence gives the same child.
        let mut parent2 = Rng::seed_from(9);
        let mut child2 = parent2.split();
        assert_eq!(first, child2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Rng::seed_from(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        assert!((sum / f64::from(n) - 0.5).abs() < 0.01);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(6);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut a = Rng::seed_from(77);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn all_zero_state_is_rejected_not_absorbed() {
        let mut z = Rng::from_state([0; 4]);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn below_zero_panics() {
        Rng::seed_from(1).below(0);
    }
}
