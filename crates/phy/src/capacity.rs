//! Link capacities — Eq. (1) and its per-slot packet form.

use crate::PhyConfig;
use greencell_units::{Bandwidth, DataRate, PacketSize, Packets, TimeDelta};

/// The capacity a link *would* have on a band of bandwidth `w` if its SINR
/// clears the threshold: `c = w · log2(1 + Γ)` (the top branch of Eq. (1)).
///
/// The S1 scheduler prices candidate activations with this value before the
/// final power check; power control then either confirms the link (capacity
/// realized) or the link is dropped (capacity 0, bottom branch).
#[must_use]
pub fn potential_capacity(w: Bandwidth, phy: &PhyConfig) -> DataRate {
    w.shannon_rate(phy.sinr_threshold())
}

/// Whole packets a link can carry in one slot: `⌊c · Δt / δ⌋` — the
/// `(1/δ) Σ_m c^m_ij(t) α^m_ij(t) Δt` expression (floored per the paper's
/// footnote 1) that serves the virtual queue `G_ij` and caps routing in
/// constraint (25).
#[must_use]
pub fn packets_per_slot(capacity: DataRate, delta: PacketSize, dt: TimeDelta) -> Packets {
    (capacity * dt).whole_packets(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn potential_capacity_matches_eq1() {
        let phy = PhyConfig::new(1.0, 1e-20);
        let c = potential_capacity(Bandwidth::from_megahertz(1.0), &phy);
        assert_eq!(c.as_bits_per_second(), 1e6);
        let phy3 = PhyConfig::new(3.0, 1e-20);
        let c3 = potential_capacity(Bandwidth::from_megahertz(1.0), &phy3);
        assert_eq!(c3.as_bits_per_second(), 2e6);
    }

    #[test]
    fn packets_per_slot_floors() {
        let delta = PacketSize::from_bits(10_000);
        let dt = TimeDelta::from_minutes(1.0);
        // 1 Mbps × 60 s = 60 Mbit = 6000 packets.
        let p = packets_per_slot(DataRate::from_kilobits_per_second(1000.0), delta, dt);
        assert_eq!(p.count(), 6000);
        // 166 bit/s × 60 s = 9960 bits < 1 packet.
        let q = packets_per_slot(DataRate::from_bits_per_second(166.0), delta, dt);
        assert_eq!(q.count(), 0);
    }
}
