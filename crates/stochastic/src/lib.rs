//! Stochastic substrate for the `greencell` workspace.
//!
//! The paper drives the network with several independent i.i.d. random
//! processes, all observed at the start of each slot (§II):
//!
//! * band bandwidths `W_m(t)` — uniform on an interval (§VI),
//! * renewable outputs `R_i(t)` — uniform on `[0, R^max_i]` (§II-D),
//! * grid connectivity of mobile users `ξ_i(t) ∈ {0, 1}` (§II-D),
//! * session demands `v_s(t)` (§II-A).
//!
//! The simulator (`greencell-sim`) draws each slot's observation itself;
//! this crate provides the pieces it draws with:
//!
//! * [`Rng`] — a small, fully deterministic xoshiro256\*\* generator with
//!   SplitMix64 seeding and stream splitting, so every experiment is
//!   reproducible bit-for-bit from a single seed across platforms. One
//!   stream per subsystem is what pairs the architectures of Fig. 2(f):
//!   runs from the same scenario seed see the same weather, spectrum and
//!   connectivity (common random numbers);
//! * [`Poisson`] — bursty session demands with the nominal mean;
//! * [`MarkovOnOff`] — a two-state chain for correlated grid connectivity
//!   and fault outages;
//! * running statistics ([`RunningMean`], [`TimeAverage`], [`Series`]) used
//!   to estimate the paper's time averages (Definition 1).
//!
//! # Examples
//!
//! ```
//! use greencell_stochastic::{Rng, TimeAverage};
//!
//! let mut rng = Rng::seed_from(42);
//! let mut avg = TimeAverage::new();
//! for _ in 0..1000 {
//!     avg.record(rng.range_f64(1.0, 2.0));
//! }
//! assert!((avg.mean() - 1.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod markov;
mod poisson;
mod rng;
mod stats;

pub use dist::DistributionError;
pub use markov::MarkovOnOff;
pub use poisson::Poisson;
pub use rng::Rng;
pub use stats::{jain_fairness, RunningMean, Series, TimeAverage};
