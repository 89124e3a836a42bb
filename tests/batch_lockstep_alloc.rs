//! Zero-allocation contract of the batched steady state.
//!
//! Once a group has run, re-running the identical group must recycle every
//! simulation in place — `Simulation::recycle` plus the runs may not touch
//! the global allocator at all. This is the
//! machine-checked half of the "whole batch recycles in place" design rule;
//! the byte-identity half lives in `batch_lockstep_equivalence.rs`.
//!
//! This file deliberately holds a **single** test: the counting global
//! allocator is process-wide, so any concurrently running test would bleed
//! its allocations into the measured window. One test per binary keeps the
//! reading deterministic (the `sweep_throughput` bench asserts the same
//! contract from its single-threaded `main`).

use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioBatchRunner};
use dynring_core::Algorithm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every acquisition (alloc, realloc,
/// alloc_zeroed). Frees are not counted: releasing memory is fine, acquiring
/// new memory is what the steady-state contract forbids.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn batched_steady_state_allocates_nothing() {
    const GENERATIONS: u64 = 32;
    let n = 16;
    // Lanes differ in adversary and placement — a realistic mixed group, not
    // just B copies of one cell — and terminate at different rounds, so the
    // harvest/compaction path is inside the measured window too. Every third
    // lane records a trace: a trace clears capacity-intact on recycle, so
    // trace-on lanes are held to the same zero-allocation steady state as
    // trace-off ones.
    let group: Vec<Scenario> = (0..8u64)
        .map(|lane| {
            let scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                .with_starts(vec![lane as usize % n, (3 * lane as usize + 1) % n])
                .with_adversary(if lane % 2 == 0 {
                    AdversaryKind::Static
                } else {
                    AdversaryKind::Random { p: 0.7, seed: lane }
                });
            if lane % 3 == 0 {
                scenario.with_trace()
            } else {
                scenario
            }
        })
        .collect();

    let mut runner = ScenarioBatchRunner::new();
    // Two warm-up generations: the first loads the lanes and sizes every
    // buffer, the second proves the recycle path reuses them.
    let _ = runner.run_group_reports(&group);
    let _ = runner.run_group_reports(&group);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..GENERATIONS {
        let reports = runner.run_group_reports(&group);
        assert_eq!(reports.len(), group.len());
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "batched steady state allocated {delta} times over {GENERATIONS} generations"
    );
    // Sanity: the zero-allocation window really recorded traces where asked.
    assert!(runner.trace(0).is_some_and(|trace| !trace.is_empty()), "lane 0 lost its trace");
    assert!(runner.trace(1).is_none(), "lane 1 recorded without asking");
}
