//! The per-slot observation of band bandwidths `W_m(t)`.

use greencell_net::BandId;
use greencell_units::Bandwidth;

/// Bandwidth of every spectrum band in one time slot.
///
/// Bandwidths are random processes observed at the start of each slot
/// (§II-A); the simulator samples them and hands this snapshot to the
/// scheduler, capacity model, and power control.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumState {
    bandwidths: Vec<Bandwidth>,
}

impl SpectrumState {
    /// Creates a snapshot from one bandwidth per band, indexed by
    /// [`BandId`] order.
    #[must_use]
    pub fn new(bandwidths: Vec<Bandwidth>) -> Self {
        Self { bandwidths }
    }

    /// Number of bands `M`.
    #[must_use]
    pub fn band_count(&self) -> usize {
        self.bandwidths.len()
    }

    /// The bandwidth `W_m(t)` of band `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn bandwidth(&self, m: BandId) -> Bandwidth {
        self.bandwidths[m.index()]
    }

    /// All bandwidths in band order.
    #[must_use]
    pub fn bandwidths(&self) -> &[Bandwidth] {
        &self.bandwidths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_band() {
        let s = SpectrumState::new(vec![
            Bandwidth::from_megahertz(1.0),
            Bandwidth::from_megahertz(1.7),
        ]);
        assert_eq!(s.band_count(), 2);
        assert_eq!(
            s.bandwidth(BandId::from_index(1)),
            Bandwidth::from_megahertz(1.7)
        );
    }
}
