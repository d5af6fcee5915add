//! Reference vs. kernel S1, greedy and sequential-fix, at three network
//! sizes and on the paper scenario.
//!
//! `*_cold` runs the reference (full candidate sort, a fresh
//! Foschini–Miljanic iteration per probed candidate); `*_kernel` runs the
//! per-link key merge with one exact M-matrix solve per probe in reused
//! buffers. The `prop_s1_kernel` lockstep holds the two to the same
//! schedules and powers within 1e-9 relative, wherever the iteration
//! converges.

use criterion::{criterion_group, criterion_main, Criterion};
use greencell_bench::S1Fixture;
use greencell_core::{
    greedy_schedule_reference, greedy_schedule_with, sequential_fix_schedule_reference,
    sequential_fix_schedule_with, S1Scratch, ScheduleOutcome,
};
use std::hint::black_box;

const SIZES: [usize; 3] = [8, 16, 32];

fn greedy(c: &mut Criterion) {
    for nodes in SIZES {
        let fixture = S1Fixture::new(nodes, 42);
        let inp = fixture.inputs();
        c.bench_function(&format!("s1_greedy_cold_{nodes}"), |b| {
            b.iter(|| black_box(greedy_schedule_reference(&inp)));
        });
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        c.bench_function(&format!("s1_greedy_kernel_{nodes}"), |b| {
            b.iter(|| {
                greedy_schedule_with(&inp, &mut scratch, &mut out);
                black_box(out.schedule.len())
            });
        });
    }
}

fn paper(c: &mut Criterion) {
    let fixture = S1Fixture::paper(500);
    let inp = fixture.inputs();
    c.bench_function("s1_greedy_cold_paper", |b| {
        b.iter(|| black_box(greedy_schedule_reference(&inp)));
    });
    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();
    c.bench_function("s1_greedy_kernel_paper", |b| {
        b.iter(|| {
            greedy_schedule_with(&inp, &mut scratch, &mut out);
            black_box(out.schedule.len())
        });
    });
    c.bench_function("s1_seqfix_cold_paper", |b| {
        b.iter(|| black_box(sequential_fix_schedule_reference(&inp)));
    });
    c.bench_function("s1_seqfix_kernel_paper", |b| {
        b.iter(|| {
            sequential_fix_schedule_with(&inp, &mut scratch, &mut out);
            black_box(out.schedule.len())
        });
    });
}

fn sequential_fix(c: &mut Criterion) {
    for nodes in SIZES {
        let fixture = S1Fixture::new(nodes, 42);
        let inp = fixture.inputs();
        c.bench_function(&format!("s1_seqfix_cold_{nodes}"), |b| {
            b.iter(|| black_box(sequential_fix_schedule_reference(&inp)));
        });
        let mut scratch = S1Scratch::new();
        let mut out = ScheduleOutcome::empty();
        c.bench_function(&format!("s1_seqfix_kernel_{nodes}"), |b| {
            b.iter(|| {
                sequential_fix_schedule_with(&inp, &mut scratch, &mut out);
                black_box(out.schedule.len())
            });
        });
    }
}

criterion_group!(benches, paper, greedy, sequential_fix);
criterion_main!(benches);
