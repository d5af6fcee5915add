//! Property tests: quantity arithmetic obeys the expected algebraic laws
//! and conversions round-trip.

use greencell_units::{
    Bandwidth, Bits, DataRate, Distance, Energy, PacketSize, Packets, Power, TimeDelta,
};
use proptest::prelude::*;

proptest! {
    /// Energy unit conversions round-trip through every representation.
    #[test]
    fn energy_conversions_round_trip(joules in -1e9f64..1e9) {
        let e = Energy::from_joules(joules);
        let scale = 1.0 + joules.abs();
        prop_assert!((Energy::from_kilowatt_hours(e.as_kilowatt_hours()).as_joules() - joules).abs() / scale < 1e-12);
    }

    /// `Power × TimeDelta = Energy` is bilinear.
    #[test]
    fn power_time_bilinear(w in 0.0f64..1e6, minutes in 0.0f64..2e3, k in 0.0f64..10.0) {
        let p = Power::from_watts(w);
        let t = TimeDelta::from_minutes(minutes);
        let s = t.as_seconds();
        let e = p * t;
        prop_assert!((e.as_joules() - w * s).abs() < 1e-6 * (1.0 + w * s));
        let scaled = (p * k) * t;
        prop_assert!((scaled.as_joules() - k * e.as_joules()).abs() < 1e-6 * (1.0 + k * e.as_joules().abs()));
        prop_assert_eq!(t * p, e);
    }

    /// Addition is commutative and subtraction inverts it.
    #[test]
    fn energy_add_sub(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let ea = Energy::from_joules(a);
        let eb = Energy::from_joules(b);
        prop_assert_eq!(ea + eb, eb + ea);
        let back = (ea + eb) - eb;
        prop_assert!((back.as_joules() - a).abs() < 1e-6 * (1.0 + a.abs() + b.abs()));
    }

    /// Ratio of like quantities is dimensionless and consistent.
    #[test]
    fn like_ratios(a in 1.0f64..1e6, k in 0.1f64..100.0) {
        let base = Power::from_watts(a);
        prop_assert!(((base * k) / base - k).abs() < 1e-9 * k);
        let d = Distance::from_meters(a);
        prop_assert!(((d * k) / d - k).abs() < 1e-9 * k);
    }

    /// Packets ↔ Bits conversions floor consistently.
    #[test]
    fn packets_bits_floor(bits in 0.0f64..1e9, delta_bits in 1u64..100_000) {
        let delta = PacketSize::from_bits(delta_bits);
        let pkts = Bits::new(bits).whole_packets(delta);
        let volume = Bits::new(pkts.count_f64() * delta.as_bits_f64());
        prop_assert!(volume.count() <= bits + 1e-6);
        prop_assert!(bits - volume.count() < delta_bits as f64);
        // Round trip through an exact multiple is lossless.
        prop_assert_eq!(volume.whole_packets(delta), pkts);
    }

    /// Saturating packet arithmetic never underflows.
    #[test]
    fn packets_saturating(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let pa = Packets::new(a);
        let pb = Packets::new(b);
        prop_assert_eq!(pa.saturating_sub(pb).count(), a.saturating_sub(b));
        prop_assert_eq!((pa + pb).count(), a + b);
        prop_assert_eq!(pa.min(pb).count(), a.min(b));
        prop_assert_eq!(pa.max(pb).count(), a.max(b));
    }

    /// Shannon rate scales linearly with bandwidth and the data-rate/time
    /// product matches bits.
    #[test]
    fn rate_relations(mhz in 0.1f64..100.0, snr in 0.0f64..100.0, minutes in 0.0f64..200.0) {
        let w = Bandwidth::from_megahertz(mhz);
        let r = w.shannon_rate(snr);
        let expected = mhz * 1e6 * (1.0 + snr).log2();
        prop_assert!((r.as_bits_per_second() - expected).abs() < 1e-6 * (1.0 + expected));
        let double = (w * 2.0).shannon_rate(snr);
        prop_assert!((double.as_bits_per_second() - 2.0 * expected).abs() < 1e-6 * (1.0 + expected));
        let t = TimeDelta::from_minutes(minutes);
        let secs = t.as_seconds();
        let bits = r * t;
        prop_assert!((bits.count() - expected * secs).abs() < 1e-6 * (1.0 + expected * secs));
    }

    /// Path-loss attenuation is multiplicative over distance ratios.
    #[test]
    fn distance_attenuation(meters in 1.0f64..10_000.0, gamma in 0.5f64..6.0, k in 1.0f64..10.0) {
        let d = Distance::from_meters(meters);
        let far = d * k;
        let ratio = d.powi_neg(gamma) / far.powi_neg(gamma);
        prop_assert!((ratio - k.powf(gamma)).abs() < 1e-6 * k.powf(gamma));
    }

    /// DataRate/Power sums behave like f64 sums.
    #[test]
    fn sums_match(values in prop::collection::vec(0.0f64..1e3, 0..20)) {
        let total: Power = values.iter().map(|&w| Power::from_watts(w)).sum();
        let expected: f64 = values.iter().sum();
        prop_assert!((total.as_watts() - expected).abs() < 1e-9 * (1.0 + expected));
        let rate_total: DataRate = values
            .iter()
            .map(|&b| DataRate::from_bits_per_second(b))
            .sum();
        prop_assert!((rate_total.as_bits_per_second() - expected).abs() < 1e-9 * (1.0 + expected));
    }
}
