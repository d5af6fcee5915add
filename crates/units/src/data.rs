//! Traffic bookkeeping: bits, packets, packet size δ, and data rates.

use crate::TimeDelta;

/// An amount of data in bits (fractional — rate × time products).
///
/// # Examples
///
/// ```
/// use greencell_units::{Bits, PacketSize};
///
/// let delta = PacketSize::from_bits(10_000);
/// assert_eq!(Bits::new(25_000.0).whole_packets(delta).count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Bits(pub(crate) f64);

impl Bits {
    /// Creates an amount of data from a bit count.
    #[must_use]
    pub fn new(bits: f64) -> Self {
        Self(bits)
    }

    /// The raw bit count.
    #[must_use]
    pub fn count(self) -> f64 {
        self.0
    }

    /// Largest whole number of `delta`-sized packets that fit in this data.
    ///
    /// This is the ⌊·⌋ in the paper's footnote 1: link-layer service is
    /// integral in packets.
    #[must_use]
    pub fn whole_packets(self, delta: PacketSize) -> Packets {
        if self.0 <= 0.0 {
            Packets::ZERO
        } else {
            Packets::new((self.0 / delta.as_bits_f64()).floor() as u64)
        }
    }
}

impl_scalar_quantity!(Bits, f64);

impl core::fmt::Display for Bits {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} bit", self.0)
    }
}

/// A whole number of packets (queue backlogs, per-slot routing amounts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Packets(u64);

impl Packets {
    /// Zero packets.
    pub const ZERO: Self = Self(0);

    /// Creates a packet count.
    #[must_use]
    pub fn new(count: u64) -> Self {
        Self(count)
    }

    /// The raw count.
    #[must_use]
    pub fn count(self) -> u64 {
        self.0
    }

    /// The count as `f64` (for averaged statistics).
    #[must_use]
    pub fn count_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction — the `max{Q − b, 0}` of every queueing law.
    #[must_use]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl core::ops::Add for Packets {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Packets {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl core::iter::Sum for Packets {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl core::fmt::Display for Packets {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} pkt", self.0)
    }
}

/// The fixed per-packet payload δ, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketSize(u64);

impl PacketSize {
    /// Creates a packet size from a bit count.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`; a zero-size packet makes every per-packet
    /// division meaningless.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        assert!(bits > 0, "packet size must be positive");
        Self(bits)
    }

    /// Creates a packet size from a byte count.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    #[must_use]
    pub fn from_bytes(bytes: u64) -> Self {
        Self::from_bits(bytes * 8)
    }

    /// Size in bits.
    #[must_use]
    pub fn as_bits(self) -> u64 {
        self.0
    }

    /// Size in bits as `f64`.
    #[must_use]
    pub fn as_bits_f64(self) -> f64 {
        self.0 as f64
    }
}

impl core::fmt::Display for PacketSize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} bit/pkt", self.0)
    }
}

/// A data rate in bits per second (link capacities, session demands).
///
/// # Examples
///
/// ```
/// use greencell_units::{DataRate, TimeDelta, PacketSize};
///
/// let demand = DataRate::from_kilobits_per_second(100.0);
/// let per_slot = demand * TimeDelta::from_minutes(1.0);
/// assert_eq!(per_slot.whole_packets(PacketSize::from_bits(10_000)).count(), 600);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct DataRate(pub(crate) f64);

impl DataRate {
    /// Creates a rate from bits per second.
    #[must_use]
    pub fn from_bits_per_second(bps: f64) -> Self {
        Self(bps)
    }

    /// Creates a rate from kilobits per second.
    #[must_use]
    pub fn from_kilobits_per_second(kbps: f64) -> Self {
        Self(kbps * 1e3)
    }

    /// This rate in bits per second.
    #[must_use]
    pub fn as_bits_per_second(self) -> f64 {
        self.0
    }
}

impl_scalar_quantity!(DataRate, f64);

/// `DataRate × TimeDelta = Bits`.
impl core::ops::Mul<TimeDelta> for DataRate {
    type Output = Bits;
    fn mul(self, rhs: TimeDelta) -> Bits {
        Bits::new(self.0 * rhs.as_seconds())
    }
}

/// `TimeDelta × DataRate = Bits`.
impl core::ops::Mul<DataRate> for TimeDelta {
    type Output = Bits;
    fn mul(self, rhs: DataRate) -> Bits {
        rhs * self
    }
}

impl core::fmt::Display for DataRate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} bit/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_times_time_is_bits() {
        let b = DataRate::from_kilobits_per_second(1000.0) * TimeDelta::from_minutes(2.0);
        assert_eq!(b.count(), 1.2e8);
    }

    #[test]
    fn whole_packets_floor() {
        let delta = PacketSize::from_bytes(1250); // 10 000 bits
        assert_eq!(Bits::new(9_999.0).whole_packets(delta).count(), 0);
        assert_eq!(Bits::new(10_000.0).whole_packets(delta).count(), 1);
        assert_eq!(Bits::new(-5.0).whole_packets(delta).count(), 0);
    }

    #[test]
    fn packets_saturating_sub() {
        let a = Packets::new(3);
        let b = Packets::new(5);
        assert_eq!(a.saturating_sub(b), Packets::ZERO);
        assert_eq!(b.saturating_sub(a).count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_packet_size_rejected() {
        let _ = PacketSize::from_bits(0);
    }

    #[test]
    fn packets_sum() {
        let total: Packets = (1..=3).map(Packets::new).sum();
        assert_eq!(total.count(), 6);
    }
}
