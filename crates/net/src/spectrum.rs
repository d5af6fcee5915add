//! Spectrum bands `ℳ` and per-node availability sets `ℳ_i` (paper §II-A).

use std::fmt;

/// Identifier of a spectrum band, `m ∈ ℳ = {1, …, M}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BandId(pub(crate) usize);

impl BandId {
    /// Creates a band id from a raw dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }

    /// The dense index of this band.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for BandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A set of spectrum bands — the paper's `ℳ_i` (bands node `i` can access)
/// and intersections `ℳ_i ∩ ℳ_j` (bands a link may use).
///
/// Backed by a `u64` bitmask, so at most 64 bands; the paper uses 5. The
/// limit is asserted at construction.
///
/// # Examples
///
/// ```
/// use greencell_net::{BandId, BandSet};
///
/// let a: BandSet = [BandId::from_index(0), BandId::from_index(2)].into_iter().collect();
/// let b: BandSet = [BandId::from_index(2), BandId::from_index(3)].into_iter().collect();
/// let common = a.intersection(b);
/// assert_eq!(common.len(), 1);
/// assert!(common.contains(BandId::from_index(2)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BandSet {
    mask: u64,
}

/// Maximum number of distinct bands a [`BandSet`] can hold.
pub const MAX_BANDS: usize = 64;

impl BandSet {
    /// The empty band set.
    #[must_use]
    pub fn empty() -> Self {
        Self { mask: 0 }
    }

    /// The set `{0, …, m-1}` of all `m` bands.
    ///
    /// # Panics
    ///
    /// Panics if `m > 64`.
    #[must_use]
    pub fn all(m: usize) -> Self {
        assert!(
            m <= MAX_BANDS,
            "at most {MAX_BANDS} bands supported, got {m}"
        );
        if m == MAX_BANDS {
            Self { mask: u64::MAX }
        } else {
            Self {
                mask: (1u64 << m) - 1,
            }
        }
    }

    /// Inserts a band.
    ///
    /// # Panics
    ///
    /// Panics if the band index is ≥ 64.
    pub fn insert(&mut self, band: BandId) {
        assert!(band.0 < MAX_BANDS, "band index {} out of range", band.0);
        self.mask |= 1u64 << band.0;
    }

    /// `true` if the set contains `band`.
    #[must_use]
    pub fn contains(self, band: BandId) -> bool {
        band.0 < MAX_BANDS && self.mask & (1u64 << band.0) != 0
    }

    /// The intersection `ℳ_i ∩ ℳ_j`.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        Self {
            mask: self.mask & other.mask,
        }
    }

    /// Number of bands in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.mask.count_ones() as usize
    }

    /// `true` if the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// The backing bitmask: bit `m` is set exactly when band `m` is in the
    /// set, so two sets are equal exactly when their bits are.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.mask
    }

    /// Iterates over the contained bands in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = BandId> {
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            if mask == 0 {
                None
            } else {
                let idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some(BandId(idx))
            }
        })
    }
}

impl FromIterator<BandId> for BandSet {
    fn from_iter<I: IntoIterator<Item = BandId>>(iter: I) -> Self {
        let mut set = Self::empty();
        for band in iter {
            set.insert(band);
        }
        set
    }
}

impl Extend<BandId> for BandSet {
    fn extend<I: IntoIterator<Item = BandId>>(&mut self, iter: I) {
        for band in iter {
            self.insert(band);
        }
    }
}

impl fmt::Display for BandSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for band in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{band}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_exactly_first_m() {
        let s = BandSet::all(5);
        assert_eq!(s.len(), 5);
        for i in 0..5 {
            assert!(s.contains(BandId(i)));
        }
        assert!(!s.contains(BandId(5)));
    }

    #[test]
    fn all_64_is_full() {
        assert_eq!(BandSet::all(64).len(), 64);
    }

    #[test]
    fn insert_contains() {
        let mut s = BandSet::empty();
        assert!(s.is_empty());
        s.insert(BandId(3));
        assert!(s.contains(BandId(3)));
        assert!(!s.contains(BandId(2)));
    }

    #[test]
    fn intersection() {
        let a: BandSet = [BandId(0), BandId(1)].into_iter().collect();
        let b: BandSet = [BandId(1), BandId(2)].into_iter().collect();
        assert_eq!(
            a.intersection(b).iter().collect::<Vec<_>>(),
            vec![BandId(1)]
        );
    }

    #[test]
    fn iter_is_sorted() {
        let s: BandSet = [BandId(4), BandId(0), BandId(2)].into_iter().collect();
        let idx: Vec<usize> = s.iter().map(BandId::index).collect();
        assert_eq!(idx, vec![0, 2, 4]);
        assert_eq!(s.bits(), 0b10101);
        assert_eq!(BandSet::all(64).bits(), u64::MAX);
    }

    #[test]
    fn display_set() {
        let s: BandSet = [BandId(1), BandId(3)].into_iter().collect();
        assert_eq!(s.to_string(), "{b1, b3}");
        assert_eq!(BandSet::empty().to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BandSet::empty().insert(BandId(64));
    }
}
