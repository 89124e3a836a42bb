//! Exhaustive model-checker throughput: expanded states per second over the
//! packaged impossibility cells — the flagship Theorem 10 cell (`MC-T3-R2`,
//! n = 7), the widest cell (`MC-T1-R3`, n = 9) sequentially vs under the
//! parallel level-synchronous search (multi-core hosts only), plus
//! wall-clock rows for every infeasibility cell at n = 9 and, in full mode,
//! n = 10.
//!
//! It refreshes the `model_check_cases` section of `BENCH_engine.json`,
//! prints one `STORE` line per row with the search state's high-water
//! bytes ([`SearchContext::store_bytes`]), and, on multi-core hosts, gates on
//! the same-process `PARALLEL` ratio (four-thread ÷ sequential states/sec
//! on the widest cell).
//!
//! [`SearchContext::store_bytes`]: dynring_analysis::model_check::SearchContext::store_bytes
//!
//! ```bash
//! cargo bench --bench model_check_throughput            # full measurement
//! DYNRING_BENCH_FAST=1 cargo bench --bench model_check_throughput   # CI smoke
//! ```

use dynring_bench::throughput::{
    fast_mode, filter_cases, measure_states, measurement_budget, model_check_cases,
    model_check_json_line, record_and_gate, ModelCheckSample, PairRule, PARALLEL,
};
use std::time::Duration;

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
    let parallel = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1;

    println!(
        "model-check throughput ({} mode, {}ms window per case)\n",
        if fast { "smoke" } else { "full" },
        budget.as_millis(),
    );
    println!(
        "{:<36} {:>10} {:>12} {:>9} {:>7} {:>14} {:>22}",
        "case", "states", "peak-front", "dedup", "runs", "states/sec", "min-max"
    );

    let mut samples: Vec<ModelCheckSample> = Vec::new();
    for case in filter_cases(model_check_cases(fast, parallel), |case| case.id.as_str()) {
        let sample = measure_states(&case, budget);
        let r = sample.states_per_sec;
        println!(
            "{:<36} {:>10} {:>12} {:>8.1}x {:>7} {:>14.0} {:>10.0}-{:<11.0}",
            sample.id,
            sample.states,
            sample.peak_frontier,
            sample.dedup_ratio,
            sample.runs,
            r.median,
            r.min,
            r.max
        );
        samples.push(sample);
    }
    println!();
    for sample in &samples {
        println!("STORE {} {} bytes", sample.id, sample.store_bytes);
    }
    if !parallel {
        println!("\nPARALLEL pair skipped: single-core host (the parallel search's byte-identity is test-pinned)");
    }

    let rows: Vec<(&str, f64)> =
        samples.iter().map(|s| (s.id.as_str(), s.states_per_sec.median)).collect();
    let rules: &[PairRule] = if parallel { &[PARALLEL] } else { &[] };
    record_and_gate(
        "model_check_cases",
        samples.iter().map(model_check_json_line).collect(),
        &rows,
        rules,
    );
}
