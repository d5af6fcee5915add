//! A two-state Markov on/off process — a correlated generalization of the
//! paper's i.i.d. models.
//!
//! The paper assumes `ξ_i(t)` (grid connectivity) and band availability
//! are i.i.d. across slots. Real connectivity is bursty: a user plugged in
//! tends to stay plugged in. [`MarkovOnOff`] models that with a two-state
//! chain, parameterized by the self-transition probabilities; the i.i.d.
//! Bernoulli model is the special case `p_stay_on = p = 1 − p_stay_off`.
//! The `greencell-sim` grid model exposes it as an extension experiment.

use crate::Rng;

/// A `{off, on}` Markov chain observed once per slot.
///
/// # Examples
///
/// ```
/// use greencell_stochastic::{MarkovOnOff, Rng};
///
/// // Sticky connectivity: 95% chance of staying in either state.
/// let mut grid = MarkovOnOff::new(0.95, 0.95, true, Rng::seed_from(7)).unwrap();
/// let first: Vec<bool> = (0..5).map(|_| grid.observe()).collect();
/// assert_eq!(first.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovOnOff {
    stay_on: f64,
    stay_off: f64,
    state: bool,
    rng: Rng,
}

impl MarkovOnOff {
    /// Creates a chain from the self-transition probabilities
    /// `P(on→on) = stay_on`, `P(off→off) = stay_off`, starting in
    /// `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DistributionError::InvalidProbability`] if either
    /// probability is outside `[0, 1]`.
    pub fn new(
        stay_on: f64,
        stay_off: f64,
        initial: bool,
        rng: Rng,
    ) -> Result<Self, crate::DistributionError> {
        for p in [stay_on, stay_off] {
            if !(0.0..=1.0).contains(&p) {
                return Err(crate::DistributionError::InvalidProbability(p));
            }
        }
        Ok(Self {
            stay_on,
            stay_off,
            state: initial,
            rng,
        })
    }

    /// The current state without advancing.
    #[must_use]
    pub fn state(&self) -> bool {
        self.state
    }

    /// The chain's random stream, for snapshotting its position. A chain
    /// rebuilt via [`MarkovOnOff::new`] with the same probabilities, the
    /// current [`MarkovOnOff::state`], and `Rng::from_state(rng().state())`
    /// continues the exact sample path.
    #[must_use]
    pub fn rng(&self) -> &Rng {
        &self.rng
    }

    /// Advances the chain one slot and returns the new state.
    pub fn observe(&mut self) -> bool {
        let stay = if self.state {
            self.stay_on
        } else {
            self.stay_off
        };
        if !self.rng.chance(stay) {
            self.state = !self.state;
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbing_on_stays_on() {
        let mut p = MarkovOnOff::new(1.0, 0.0, true, Rng::seed_from(1)).unwrap();
        assert!((0..100).all(|_| p.observe()));
    }

    #[test]
    fn absorbing_off_stays_off() {
        let mut p = MarkovOnOff::new(0.0, 1.0, false, Rng::seed_from(2)).unwrap();
        assert!((0..100).all(|_| !p.observe()));
    }

    #[test]
    fn iid_special_case_matches_bernoulli_frequency() {
        // stay_on = p, stay_off = 1 − p ⇒ i.i.d. Bernoulli(p).
        let p = 0.7;
        let mut chain = MarkovOnOff::new(p, 1.0 - p, true, Rng::seed_from(3)).unwrap();
        let n = 50_000;
        let on = (0..n).filter(|_| chain.observe()).count();
        assert!((on as f64 / f64::from(n) - p).abs() < 0.01);
    }

    #[test]
    fn sticky_chain_is_correlated() {
        // Count transitions: a sticky chain flips far less often than an
        // i.i.d. one with the same stationary distribution.
        let mut chain = MarkovOnOff::new(0.98, 0.98, true, Rng::seed_from(4)).unwrap();
        let samples: Vec<bool> = (0..20_000).map(|_| chain.observe()).collect();
        let flips = samples.windows(2).filter(|w| w[0] != w[1]).count();
        // Expected flips ≈ 2% of slots; i.i.d. p=0.5 would flip ~50%.
        assert!(flips < 1_000, "too many flips for a sticky chain: {flips}");
        let on = samples.iter().filter(|&&s| s).count() as f64 / samples.len() as f64;
        assert!((on - 0.5).abs() < 0.2, "stationary share drifted: {on}");
    }

    #[test]
    fn rebuilt_chain_continues_the_sample_path() {
        let mut a = MarkovOnOff::new(0.9, 0.8, true, Rng::seed_from(21)).unwrap();
        for _ in 0..17 {
            a.observe();
        }
        let mut b =
            MarkovOnOff::new(0.9, 0.8, a.state(), Rng::from_state(a.rng().state())).unwrap();
        for _ in 0..200 {
            assert_eq!(a.observe(), b.observe());
        }
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(MarkovOnOff::new(1.2, 0.5, true, Rng::seed_from(5)).is_err());
    }

    #[test]
    fn state_accessor_matches_last_observation() {
        let mut p = MarkovOnOff::new(0.5, 0.5, true, Rng::seed_from(6)).unwrap();
        let obs = p.observe();
        assert_eq!(p.state(), obs);
    }
}
