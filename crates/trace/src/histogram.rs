//! Fixed-bucket log-scale histograms for latencies and per-slot levels.

use std::fmt;

/// Exponent of the smallest magnitude octave, `2^MIN_EXP`.
const MIN_EXP: i32 = -32;
/// Exponent one past the largest magnitude octave, `2^MAX_EXP`.
const MAX_EXP: i32 = 64;
/// Linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Buckets per sign: `SUBS` per binary order of magnitude.
const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBS;

/// A fixed-memory log-scale histogram over finite `f64` samples.
///
/// Magnitudes between `2^-32` and `2^64` are bucketed per binary order,
/// and each octave `[2^e, 2^(e+1))` is split into 8 equal linear
/// sub-buckets, with separate positive and negative sides and an exact
/// zero bucket, so it covers nanosecond latencies, packet backlogs, kWh
/// levels, and signed drift terms alike. A sub-bucket spans at most 1/8 of
/// its lower edge, so samples 1.2× apart never share one. Quantiles are
/// estimated as the midpoint of the containing sub-bucket (clamped to the
/// observed min/max, which are tracked exactly); within the covered range
/// the relative error is at most 1/16.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    pos: Vec<u64>,
    neg: Vec<u64>,
    zero: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a positive finite magnitude, clamping out-of-range
/// values into the first/last bucket. Read off the bits: the exponent
/// picks the octave, the top `SUB_BITS` mantissa bits the sub-bucket.
fn bucket_of(mag: f64) -> usize {
    let bits = mag.to_bits();
    // Subnormals have a biased exponent of 0 and clamp into bucket 0.
    let e = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if e < MIN_EXP {
        return 0;
    }
    if e >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) as usize) & (SUBS - 1);
    (e - MIN_EXP) as usize * SUBS + sub
}

/// The midpoint of bucket `i`: `2^e·(1 + (s + ½)/8)` for octave `e` and
/// sub-bucket `s`.
fn bucket_mid(i: usize) -> f64 {
    let (octave, sub) = (i / SUBS, i % SUBS);
    let e = octave as i32 + MIN_EXP;
    #[allow(clippy::cast_precision_loss)]
    let frac = (sub as f64 + 0.5) / SUBS as f64;
    (2.0f64).powi(e) * (1.0 + frac)
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pos: vec![0; BUCKETS],
            neg: vec![0; BUCKETS],
            zero: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite samples are excluded from the
    /// distribution.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v == 0.0 {
            self.zero += 1;
        } else if v > 0.0 {
            self.pos[bucket_of(v)] += 1;
        } else {
            self.neg[bucket_of(-v)] += 1;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a `u64` count (e.g. nanoseconds) as a sample.
    pub fn record_u64(&mut self, v: u64) {
        // u64 → f64 rounds above 2^53; bucket resolution is far coarser.
        #[allow(clippy::cast_precision_loss)]
        self.record(v as f64);
    }

    /// Finite samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`), or 0 when empty.
    ///
    /// Walks buckets from the most negative magnitude upward; the answer
    /// is the containing bucket's midpoint, clamped to the exact observed
    /// range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        // Negative side: most negative first = largest magnitude first.
        for i in (0..BUCKETS).rev() {
            seen += self.neg[i];
            if seen >= target {
                return (-bucket_mid(i)).clamp(self.min, self.max);
            }
        }
        seen += self.zero;
        if seen >= target {
            return 0.0f64.clamp(self.min, self.max);
        }
        for i in 0..BUCKETS {
            seen += self.pos[i];
            if seen >= target {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Estimated median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl fmt::Display for LogHistogram {
    /// `count=… p50=… p90=… p99=… max=…` — the summary-table cell.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} p50={:.3e} p90={:.3e} p99={:.3e} max={:.3e}",
            self.count,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn quantiles_track_the_distribution_within_a_bucket() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record_u64(i);
        }
        assert_eq!(h.count(), 1000);
        // Bucketed estimates sit near the exact quantile (the 1/16 bound is
        // checked below).
        assert!(
            h.p50() >= 500.0 / 1.5 && h.p50() <= 500.0 * 1.5,
            "{}",
            h.p50()
        );
        assert!(h.p99() >= 990.0 / 1.5 && h.p99() <= 1000.0, "{}", h.p99());
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn samples_a_fifth_apart_land_in_different_buckets() {
        // Irregular points over the whole covered range, then the lower
        // edge of every sub-bucket.
        let mut x = 2f64.powi(MIN_EXP);
        while x * 1.2 < 2f64.powi(MAX_EXP) {
            assert_ne!(bucket_of(x), bucket_of(x * 1.2), "x = {x:e}");
            x *= 1.0137;
        }
        for e in MIN_EXP..MAX_EXP - 1 {
            for s in 0..SUBS {
                #[allow(clippy::cast_precision_loss)]
                let lo = 2f64.powi(e) * (1.0 + s as f64 / SUBS as f64);
                assert_eq!(bucket_of(lo), (e - MIN_EXP) as usize * SUBS + s);
                assert_ne!(bucket_of(lo), bucket_of(lo * 1.2));
            }
        }
        // On the recorded surface: a 1.2× change moves the median.
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        for _ in 0..3 {
            a.record(741.0);
            b.record(741.0 * 1.2);
        }
        a.record(1.0);
        b.record(1.0);
        assert!(b.p50() > a.p50(), "{} vs {}", a.p50(), b.p50());
    }

    #[test]
    fn quantile_relative_error_is_at_most_a_sixteenth() {
        // Log-uniform samples over 2^-20..2^40, checked against the exact
        // order statistic that each quantile's rank names.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut samples: Vec<f64> = (0..5_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                #[allow(clippy::cast_precision_loss)]
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                2f64.powf(-20.0 + 60.0 * u)
            })
            .collect();
        let mut h = LogHistogram::new();
        for &x in &samples {
            h.record(x);
        }
        samples.sort_by(f64::total_cmp);
        for k in 0..=100 {
            let q = f64::from(k) / 100.0;
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() <= exact / 16.0,
                "q = {q}: estimate {est:e} vs exact {exact:e}"
            );
        }
    }

    #[test]
    fn handles_negative_and_zero_samples() {
        let mut h = LogHistogram::new();
        for v in [-8.0, -4.0, 0.0, 4.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.max(), 8.0);
        assert!(h.quantile(0.1) < 0.0);
        assert!(h.quantile(0.95) > 0.0);
    }

    #[test]
    fn nonfinite_samples_are_rejected() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1.0);
    }

    #[test]
    fn out_of_range_magnitudes_clamp_into_edge_buckets() {
        let mut h = LogHistogram::new();
        h.record(1e-30); // below 2^-32
        h.record(1e30); // above 2^63
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.25) > 0.0);
        assert_eq!(h.max(), 1e30);
    }

    #[test]
    fn display_renders_the_summary_cell() {
        let mut h = LogHistogram::new();
        h.record(2.0);
        let s = h.to_string();
        assert!(s.contains("count=1"), "{s}");
        assert!(s.contains("p99="), "{s}");
    }
}
