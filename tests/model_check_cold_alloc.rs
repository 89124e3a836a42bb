//! Allocation contract of a cold exhaustive search.
//!
//! A fresh [`SearchContext`] keeps every frontier checkpoint in per-worker
//! column stores, so a search's allocations grow with the number of column
//! doublings, not with the number of states it keeps. This is the cold
//! half of the contract whose warm half — a recycled context allocates
//! nothing per expanded state — lives in `model_check_alloc.rs`.
//!
//! This file deliberately holds a **single** test: the counting global
//! allocator is process-wide, so any concurrently running test would bleed
//! its allocations into the measured window.

use dynring_analysis::model_check::{self, SearchContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every acquisition (alloc, realloc,
/// alloc_zeroed). Frees are not counted.
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
fn cold_search_allocates_per_column_doubling_not_per_state() {
    // The knowledge-free Table 1 cell at n = 7 keeps tens of thousands of
    // states, three agents each.
    let cell = model_check::table1_cells(7)
        .into_iter()
        .find(|cell| cell.id.starts_with("MC-T1-R3"))
        .expect("the no-termination cell is packaged at n = 7");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let verdict = cell.check.run_in(&mut SearchContext::new(1));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let visited = verdict.stats().visited;
    assert!(
        visited > 10_000,
        "the cell must keep enough states to tell (kept only {visited})"
    );
    // A checkpoint with buffers of its own costs about fifteen allocations;
    // the column stores must not cost even one per ten states.
    assert!(
        allocations < visited / 10,
        "a cold search allocated {allocations} times for {visited} kept states"
    );
}
