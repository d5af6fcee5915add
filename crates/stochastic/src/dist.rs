//! The error of a distribution or chain built with invalid parameters.

use std::error::Error;
use std::fmt;

/// Error constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionError {
    /// Interval bounds were inverted or non-finite.
    InvalidInterval {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
    /// A probability outside `[0, 1]` was supplied.
    InvalidProbability(f64),
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidInterval { lo, hi } => {
                write!(f, "invalid interval [{lo}, {hi}]")
            }
            Self::InvalidProbability(p) => write!(f, "invalid probability {p}"),
        }
    }
}

impl Error for DistributionError {}
