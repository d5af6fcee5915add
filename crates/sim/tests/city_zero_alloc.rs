//! Steady-state allocation audit for the partitioned city-scale slot
//! path.
//!
//! A counting global allocator wraps `System`. Observations are pre-drawn
//! outside the measured region; after a warm-up has grown every part's
//! scratch and the global S4 workspace, repeated [`Controller::step`]
//! calls on a partitioned controller — per-part S1–S3 solves, global S4,
//! queue and battery advance, report assembly — each beside the relaxed
//! lower-bound controller's [`RelaxedController::step`] on the same parts,
//! must perform **zero** heap allocations at `workers = 1` (thread
//! spawning necessarily allocates, which is why the multi-worker
//! configuration is exercised by the determinism gate instead). Only allocations made by the audited
//! thread are counted: libtest's main thread blocks in a channel `recv`
//! whose lazy wake-context setup allocates at an arbitrary point after
//! the test starts, which on a single-core box races into the measured
//! window.
//!
//! [`Controller::step`]: greencell_core::Controller::step
//! [`RelaxedController::step`]: greencell_core::RelaxedController::step

use greencell_core::RelaxedController;
use greencell_sim::{Scenario, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized: reading it in the allocator never allocates.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

fn audited() -> bool {
    AUDITED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: delegates verbatim to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if audited() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if audited() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_city_slot_allocates_nothing() {
    AUDITED.with(|f| f.set(true));
    let mut s = Scenario::city(200, 4, Scenario::default_city_area(4), 47);
    s.horizon = 80;
    let mut sim = Simulator::new(&s).expect("city path builds");
    assert!(
        sim.controller().part_count() > 1,
        "want a real multi-part controller"
    );

    // Pre-draw every observation: the observation sampler legitimately
    // allocates its per-slot vectors; the audit targets the solve path.
    let observations: Vec<_> = (0..s.horizon).map(|_| sim.next_observation()).collect();
    // The lower bound, tracked on the controller's own partition.
    let mut relaxed = RelaxedController::for_controller(sim.controller());
    let controller = sim.controller_mut();

    // Warm-up: grow every per-cluster buffer, the S1 warm kernel, S4,
    // and the global arena to their steady-state footprint.
    let warmup = 30;
    for obs in &observations[..warmup] {
        relaxed.step(obs);
        let report = controller.step(obs).expect("warm-up slot steps");
        assert!(report.degradation.is_empty(), "warm-up must stay clean");
    }

    let mut per_slot = Vec::with_capacity(observations.len() - warmup);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for obs in &observations[warmup..] {
        let at = ALLOCATIONS.load(Ordering::Relaxed);
        relaxed.step(obs);
        let report = controller.step(obs).expect("steady-state slot steps");
        per_slot.push(ALLOCATIONS.load(Ordering::Relaxed) - at);
        assert!(
            report.degradation.is_empty(),
            "steady state must stay clean"
        );
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state partitioned slots performed {delta} heap allocations: {per_slot:?}"
    );
}
