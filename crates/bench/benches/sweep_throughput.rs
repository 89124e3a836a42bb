//! Run-lifecycle throughput: **runs per second** in the short-run regime
//! (n = 64, round budget 4n), measured as fresh-build vs recycled vs
//! batched triples.
//!
//! Where `engine_throughput` measures the round loop, this target measures
//! everything *around* it — `Scenario::run()`'s per-cell construction of the
//! ring, agent SoA, scratch, probe pool and boxed policies versus the
//! recycled lifecycle (`ScenarioRunner` + `Simulation::recycle`), which
//! re-initialises one simulation in place, and versus the batched path
//! (`ScenarioBatchRunner`), which runs a `DYNRING_BATCH_LANES`-cell group
//! per generation on one recycled simulation per cell. It also **counts heap
//! allocations** through a wrapping global allocator and fails loudly if the
//! recycled or batched steady state allocates at all, so the zero-allocation
//! claim is machine-checked on every run, including the CI smoke.
//!
//! Results are appended to `BENCH_engine.json` (schema v3, `sweep_cases`
//! section); the `cases` and `model_check_cases` sections owned by
//! `engine_throughput` and `model_check_throughput` are preserved verbatim.
//!
//! ```bash
//! cargo bench --bench sweep_throughput            # full measurement
//! DYNRING_BENCH_FAST=1 cargo bench --bench sweep_throughput   # CI smoke
//! ```

use dynring_bench::throughput::{
    batch_comparisons, extract_section, fast_mode, filter_cases, gate, measure_runs,
    measurement_budget, out_path, parse_baseline, recycle_comparisons, sweep_case_scenario,
    sweep_cases, sweep_json_line, sweep_rates, Lifecycle, SweepSample,
};
use dynring_analysis::batch::batch_lanes_from_env;
use dynring_analysis::scenario::{Scenario, ScenarioBatchRunner, ScenarioRunner};
use dynring_engine::sim::RunReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every allocation (including
/// reallocations) so the recycled steady state can be asserted
/// allocation-free. Deallocations are not counted: freeing is fine, new
/// acquisition is what the recycle contract forbids.
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

/// Counts the heap allocations per run in the steady state (after two
/// warm-up iterations that size every buffer) for each recycled **and**
/// batched case of the grid. A batched generation replays the identical
/// `DYNRING_BATCH_LANES`-cell group, so its steady state must recycle every
/// simulation in place — the per-run quotient divides by `lanes * RUNS`.
/// Returns `(case id, allocations per run)` pairs.
fn steady_state_allocations() -> Vec<(String, u64)> {
    const RUNS: u64 = 64;
    let lanes = batch_lanes_from_env();
    sweep_cases()
        .iter()
        .filter(|case| case.lifecycle != Lifecycle::Fresh)
        .map(|case| {
            let scenario = sweep_case_scenario(case);
            let per_run = match case.lifecycle {
                Lifecycle::Recycled => {
                    let mut runner = ScenarioRunner::new();
                    let mut report = RunReport::default();
                    runner.run_into(&scenario, &mut report);
                    runner.run_into(&scenario, &mut report);
                    let before = ALLOCATIONS.load(Ordering::Relaxed);
                    for _ in 0..RUNS {
                        runner.run_into(&scenario, &mut report);
                    }
                    (ALLOCATIONS.load(Ordering::Relaxed) - before) / RUNS
                }
                Lifecycle::Batched => {
                    let group: Vec<Scenario> = vec![scenario; lanes];
                    let mut runner = ScenarioBatchRunner::new();
                    let _ = runner.run_group_reports(&group);
                    let _ = runner.run_group_reports(&group);
                    let before = ALLOCATIONS.load(Ordering::Relaxed);
                    for _ in 0..RUNS {
                        let _ = runner.run_group_reports(&group);
                    }
                    (ALLOCATIONS.load(Ordering::Relaxed) - before) / (lanes as u64 * RUNS)
                }
                Lifecycle::Fresh => unreachable!("filtered out above"),
            };
            (case.id.clone(), per_run)
        })
        .collect()
}

fn main() {
    let fast = fast_mode();
    let budget = measurement_budget(fast);

    println!(
        "sweep throughput ({} mode, {}ms window per case)\n",
        if fast { "smoke" } else { "full" },
        budget.as_millis(),
    );
    println!("{:<52} {:>10} {:>14}", "case", "runs", "runs/sec");

    let mut samples: Vec<SweepSample> = Vec::new();
    for case in filter_cases(sweep_cases(), |case| case.id.as_str()) {
        let sample = measure_runs(&case, budget);
        println!("{:<52} {:>10} {:>14.0}", sample.case.id, sample.runs, sample.runs_per_sec);
        samples.push(sample);
    }

    let comparisons: Vec<String> = recycle_comparisons(&samples)
        .into_iter()
        .chain(batch_comparisons(&samples))
        .collect();
    if !comparisons.is_empty() {
        println!();
        for line in &comparisons {
            println!("{line}");
        }
    }

    // Machine-checked zero-allocation contract: a recycled run of a
    // shape-stable scenario must not touch the allocator at all, and neither
    // may a batched generation once its group has run.
    println!();
    let mut dirty = false;
    for (id, allocations_per_run) in steady_state_allocations() {
        println!("ALLOC {id}: {allocations_per_run} allocations/run (steady state)");
        dirty |= allocations_per_run != 0;
    }
    assert!(
        !dirty,
        "recycled/batched steady state allocated: the run-recycling contract is broken"
    );

    let path = out_path();
    // Refresh the runs/sec section; preserve the rounds/sec and states/sec
    // sections owned by `engine_throughput` and `model_check_throughput`
    // verbatim, and diff against the previous baseline.
    let previous_document = std::fs::read_to_string(&path).unwrap_or_default();
    let previous = parse_baseline(&previous_document);
    let case_lines = extract_section(&previous_document, "cases");
    let mc_lines = extract_section(&previous_document, "model_check_cases");
    let sweep_lines: Vec<String> = samples.iter().map(sweep_json_line).collect();
    dynring_bench::throughput::write_document(&path, &case_lines, &sweep_lines, &mc_lines)
        .expect("write BENCH_engine.json");
    println!("\nbaseline written to {}", path.display());

    gate(&sweep_rates(&samples), &previous, "runs/sec");
}
