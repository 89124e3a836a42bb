//! Exhaustive model-checker throughput: expanded states per second over the
//! packaged impossibility cells — the flagship Theorem 10 cell (`MC-T3-R2`,
//! n = 7), the widest cell (`MC-T1-R3`, n = 9) sequentially vs under the
//! parallel level-synchronous search (multi-core machines only), plus
//! wall-clock rows for every infeasibility cell at n = 9 and, in full mode,
//! n = 10.
//!
//! The `model_check_cases` section written into `BENCH_engine.json` puts
//! every row under the same hard ≥10% regression gate as the engine and
//! sweep rows.
//!
//! ```bash
//! cargo bench --bench model_check_throughput            # full measurement
//! DYNRING_BENCH_FAST=1 cargo bench --bench model_check_throughput   # CI smoke
//! ```

use dynring_analysis::model_check::{self, ModelCheck, SearchContext, SearchStats};
use dynring_bench::throughput::{
    extract_section, fast_mode, filter_cases, gate, measurement_budget, model_check_json_line,
    model_check_rates, out_path, parse_baseline, write_document, ModelCheckSample,
};
use std::time::{Duration, Instant};

/// One bench row before measurement: a packaged cell plus how to run it.
struct McCase {
    id: String,
    ring_size: usize,
    threads: usize,
    check: ModelCheck,
}

/// The flagship cell: Theorem 10 (`MC-T3-R2`) at ring size `n` — two agents
/// held on the ports of a missing edge, the deepest horizon and widest
/// frontier of the packaged impossibility cells.
fn flagship(n: usize) -> ModelCheck {
    model_check::table3_cells(n)
        .into_iter()
        .find(|cell| cell.id.starts_with("MC-T3-R2"))
        .expect("the Theorem 10 cell is packaged at every checkable n")
        .check
}

/// The widest packaged cell: Theorem 3 (`MC-T1-R3`) at ring size `n` — its
/// frontier reaches tens of thousands of configurations per level, which is
/// the regime the parallel level expansion is built for (the n = 7 flagship
/// peaks below the [`parallel dispatch threshold`](SearchContext), so the
/// thread comparison would only measure overhead there).
fn widest(n: usize) -> ModelCheck {
    model_check::table1_cells(n)
        .into_iter()
        .find(|cell| cell.id.starts_with("MC-T1-R3"))
        .expect("the Theorem 3 cell is packaged at every checkable n")
        .check
}

fn cases(fast: bool) -> Vec<McCase> {
    let mut out = vec![McCase {
        id: "mc/t3r2/n=7/threads=1".to_owned(),
        ring_size: 7,
        threads: 1,
        check: flagship(7),
    }];
    // The parallel pair on the widest cell, where level frontiers are large
    // enough to amortise the deterministic chunk merge. On a single-core
    // machine the multi-thread row is pure overhead (threads time-slice one
    // core), so it only runs where parallelism physically exists — the
    // byte-identity of the parallel search is pinned by the test suite
    // either way.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let widths: &[usize] = if cores > 1 { &[1, 4] } else { &[1] };
    for &threads in widths {
        out.push(McCase {
            id: format!("mc/t1r3/n=9/threads={threads}"),
            ring_size: 9,
            threads,
            check: widest(9),
        });
    }
    // Wall-clock per remaining infeasibility cell; smoke mode stops at
    // n = 9, full mode proves n = 10.
    let sizes: &[usize] = if fast { &[9] } else { &[9, 10] };
    for &n in sizes {
        for cell in model_check::infeasibility_cells(n) {
            if n == 9 && cell.id.starts_with("MC-T1-R3") {
                continue; // measured above as the parallel pair
            }
            out.push(McCase {
                id: format!("mc/matrix/n={n}/{}", cell.id),
                ring_size: n,
                threads: 1,
                check: cell.check,
            });
        }
    }
    out
}

/// Runs the cell to completion repeatedly until `budget` elapses (at least
/// once) inside one recycled [`SearchContext`], so the steady-state
/// allocation-free path is what gets measured.
fn measure(case: &McCase, budget: Duration) -> ModelCheckSample {
    let mut ctx = SearchContext::new(case.threads);
    // Warm-up: size every context buffer outside the timed window.
    let _ = case.check.run_in(&mut ctx);
    let start = Instant::now();
    let mut runs = 0u64;
    let mut stats: SearchStats;
    loop {
        stats = *case.check.run_in(&mut ctx).stats();
        runs += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let states = stats.expanded;
    let total_states = states.saturating_mul(runs);
    let secs = elapsed_ns as f64 / 1e9;
    ModelCheckSample {
        id: case.id.clone(),
        ring_size: case.ring_size,
        threads: case.threads,
        runs,
        states,
        peak_frontier: stats.peak_frontier,
        dedup_ratio: if stats.visited == 0 {
            0.0
        } else {
            stats.expanded as f64 / stats.visited as f64
        },
        elapsed_ns,
        states_per_sec: if secs > 0.0 { total_states as f64 / secs } else { 0.0 },
    }
}

fn main() {
    let fast = fast_mode();
    // Model-check runs are whole searches, not chunked loops: give the full
    // mode a wider window than the engine rows so the big-matrix cells
    // complete at least once without dominating wall-clock.
    // `DYNRING_BENCH_BUDGET_MS` still overrides, through the shared strict
    // parser.
    let budget = if std::env::var_os("DYNRING_BENCH_BUDGET_MS").is_some() {
        measurement_budget(fast)
    } else if fast {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(1500)
    };

    println!(
        "model-check throughput ({} mode, {}ms window per case)\n",
        if fast { "smoke" } else { "full" },
        budget.as_millis(),
    );
    println!(
        "{:<36} {:>10} {:>12} {:>9} {:>7} {:>14}",
        "case", "states", "peak-front", "dedup", "runs", "states/sec"
    );

    let mut samples: Vec<ModelCheckSample> = Vec::new();
    for case in filter_cases(cases(fast), |case| case.id.as_str()) {
        let sample = measure(&case, budget);
        println!(
            "{:<36} {:>10} {:>12} {:>8.1}x {:>7} {:>14.0}",
            sample.id,
            sample.states,
            sample.peak_frontier,
            sample.dedup_ratio,
            sample.runs,
            sample.states_per_sec
        );
        samples.push(sample);
    }

    let rate = |needle: &str| {
        samples
            .iter()
            .find(|s| s.id.contains(needle))
            .map(|s| s.states_per_sec)
            .filter(|&r| r > 0.0)
    };
    println!();
    if let (Some(seq), Some(par)) = (rate("t1r3/n=9/threads=1"), rate("t1r3/n=9/threads=4")) {
        println!("PARALLEL speedup (4 threads vs sequential, n=9 widest cell): {:.2}x", par / seq);
    } else {
        println!("PARALLEL speedup: skipped (single-core machine; parallel search byte-identity is test-pinned)");
    }

    let path = out_path();
    // Refresh the states/sec section; preserve the rounds/sec and runs/sec
    // sections owned by `engine_throughput` and `sweep_throughput` verbatim,
    // and diff against the previous baseline.
    let previous_document = std::fs::read_to_string(&path).unwrap_or_default();
    let previous = parse_baseline(&previous_document);
    let case_lines = extract_section(&previous_document, "cases");
    let sweep_lines = extract_section(&previous_document, "sweep_cases");
    let mc_lines: Vec<String> = samples.iter().map(model_check_json_line).collect();
    write_document(&path, &case_lines, &sweep_lines, &mc_lines)
        .expect("write BENCH_engine.json");
    println!("\nbaseline written to {}", path.display());

    gate(&model_check_rates(&samples), &previous, "states/sec");
}
