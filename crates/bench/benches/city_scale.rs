//! Per-slot cost of the partitioned city path as user count grows.
//!
//! Sweeps n ∈ {10², 10³, 10⁴} users (10⁵ behind `CITY_SCALE_XL=1`, CI
//! smoke at n = 10² via `CITY_SCALE_SMOKE=1`) through a [`Simulator`] on a
//! calibrated city: Poisson-disk BSs, hotspot users, diurnal traffic, and the
//! interference cutoff that makes per-slot cost scale with cluster size —
//! near-linear in occupied grid cells — instead of Θ(n²). Construction
//! (layout, decomposition, sub-network assembly) happens outside the
//! measured loop; the benchmark times steady-state slots only.

use criterion::{criterion_group, criterion_main, Criterion};
use greencell_sim::{Scenario, Simulator};
use std::hint::black_box;
use std::time::Duration;

/// Users-per-BS matching the city calibration (≈ one hotspot per cell).
fn bs_count(users: usize) -> usize {
    (users / 50).max(2)
}

fn city_sim(users: usize) -> Simulator {
    let n_bs = bs_count(users);
    let scenario = Scenario::city(users, n_bs, Scenario::default_city_area(n_bs), 4242);
    let mut sim = Simulator::new(&scenario).expect("city scenario builds");
    // Warm the per-cluster arenas so the loop measures steady state.
    for _ in 0..3 {
        sim.step_with_report().expect("warm-up slot");
    }
    sim
}

fn sizes() -> Vec<usize> {
    if std::env::var_os("CITY_SCALE_SMOKE").is_some() {
        return vec![100];
    }
    let mut n = vec![100, 1_000, 10_000];
    if std::env::var_os("CITY_SCALE_XL").is_some() {
        n.push(100_000);
    }
    n
}

fn slot_sweep(c: &mut Criterion) {
    for users in sizes() {
        let mut sim = city_sim(users);
        c.bench_function(&format!("city_slot_n{users}"), |b| {
            b.iter(|| {
                let report = sim.step_with_report().expect("steady-state slot");
                black_box(report.cost);
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    targets = slot_sweep
}
criterion_main!(benches);
