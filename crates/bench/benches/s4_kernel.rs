//! The S4 bisection reference vs the breakpoint sweep, at three synthetic
//! sizes and on the warmed paper setup.
//!
//! `s4_energy_reference_*` runs `solve_energy_management_reference` (100
//! blind bisection steps, each an O(BS) pass); `s4_energy_sweep_*` runs the
//! shipped `solve_energy_management_into` on a reused workspace (one sort
//! of the breakpoints, one pass over them). The two agree within the
//! lockstep tolerances (see `prop_s4_kernel` and `s4_kernel_equivalence`).

use criterion::{criterion_group, criterion_main, Criterion};
use greencell_bench::S4Fixture;
use greencell_core::{
    solve_energy_management_into, solve_energy_management_reference, EnergyOutcome, S4Workspace,
};
use std::hint::black_box;

const SIZES: [usize; 3] = [8, 16, 32];

fn bench_fixture(c: &mut Criterion, label: &str, fixture: &S4Fixture) {
    let input = fixture.input();
    c.bench_function(&format!("s4_energy_reference_{label}"), |b| {
        b.iter(|| {
            let out = solve_energy_management_reference(&input).expect("feasible fixture");
            black_box(out.grid_draw);
        });
    });
    let mut ws = S4Workspace::new();
    let mut out = EnergyOutcome::empty();
    c.bench_function(&format!("s4_energy_sweep_{label}"), |b| {
        b.iter(|| {
            solve_energy_management_into(&input, &mut ws, &mut out).expect("feasible fixture");
            black_box(out.grid_draw);
        });
    });
}

fn synthetic(c: &mut Criterion) {
    for nodes in SIZES {
        bench_fixture(c, &nodes.to_string(), &S4Fixture::new(nodes, 42));
    }
}

fn paper(c: &mut Criterion) {
    bench_fixture(c, "paper", &S4Fixture::paper(500));
}

criterion_group!(benches, paper, synthetic);
criterion_main!(benches);
