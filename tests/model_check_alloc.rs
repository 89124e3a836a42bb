//! Zero-allocation contract of the exhaustive search's steady state.
//!
//! A [`SearchContext`] recycles every buffer the sequential search touches —
//! the hashed dedup table, the packed link arena, both frontiers, the
//! checkpoint slabs and the canonicalisation scratch. Once a context is warm
//! for a cell, re-running the cell may allocate only the fixed per-run setup
//! (one simulation build) and the terminal witness materialisation; the
//! per-expanded-state inner loop must not touch the global allocator at all.
//!
//! This file deliberately holds a **single** test: the counting global
//! allocator is process-wide, so any concurrently running test would bleed
//! its allocations into the measured window (`batch_lockstep_alloc.rs` pins
//! the engine-side contract the same way).

use dynring_analysis::model_check::{self, SearchContext};
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
fn warmed_search_allocates_nothing_per_expanded_state() {
    // The Theorem 10 cell at n = 7: tens of thousands of expansions, so any
    // per-state allocation would dominate the measured delta by orders of
    // magnitude over the fixed per-run setup.
    let cells = model_check::table3_cells(7);
    let cell = cells
        .iter()
        .find(|cell| cell.id.starts_with("MC-T3-R2"))
        .expect("the Theorem 10 cell is packaged at n = 7");
    let check = &cell.check;

    let mut ctx = SearchContext::new(1);
    // Two warm-up runs: the first sizes every context buffer, the second
    // proves the recycled shapes are stable.
    let _ = check.run_in(&mut ctx);
    let _ = check.run_in(&mut ctx);

    // The fixed per-run setup the contract allows: one simulation build
    // (run_in constructs its branchable simulation afresh each run).
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(check.branchable_simulation());
    let setup_cost = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let verdict = check.run_in(&mut ctx);
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let expanded = verdict.stats().expanded;
    assert!(
        expanded > 10_000,
        "the cell must be big enough to expose per-state allocations \
         (expanded only {expanded})"
    );
    // Whatever exceeds the simulation build is the terminal witness
    // materialisation: O(depth) small vectors, never O(expanded). A single
    // allocation per expanded state would put `delta` above 10,000.
    let terminal = delta.saturating_sub(setup_cost);
    assert!(
        terminal <= 64,
        "warmed search allocated {delta} times ({terminal} beyond the \
         simulation build) over {expanded} expansions — the per-state loop \
         must be allocation-free"
    );
}
