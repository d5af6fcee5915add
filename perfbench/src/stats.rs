//! Exact order statistics over raw per-operation samples, and the decision
//! fingerprint hash.

/// Raw samples of one timing, kept whole so every quantile is an exact
/// order statistic rather than a histogram bucket edge.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// The samples in the order they were pushed.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len().max(1) as f64
    }

    /// The smallest `share` of the samples (at least one): for repeats of
    /// the same work, the ones host contention slowed least.
    pub fn fastest(&self, share: f64) -> Samples {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let keep = ((sorted.len() as f64 * share).ceil() as usize).max(1);
        sorted.truncate(keep);
        Samples { values: sorted }
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Nearest-rank quantile: the smallest sample with at least a `q` share
    /// of the samples at or below it.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of no samples");
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(q, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly beyond the `q` quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.values.len().saturating_sub(rank(q, self.values.len()))
    }
}

fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Self { values }
    }
}

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// 64-bit FNV-1a, streamed: the decision fingerprint of a run. It lives in
/// the benchmark so that a change to the program cannot change how the
/// program's decisions are fingerprinted.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.beyond(0.99), 1);
    }
}
