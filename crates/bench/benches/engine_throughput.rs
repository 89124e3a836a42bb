//! Raw engine throughput: rounds per second over the standard grid
//! (FSYNC and SSYNC/PT, n ∈ {64, 256, 1024}, trace recording on/off and
//! prediction-on).
//!
//! This target measures the simulator's inner loop itself, not the
//! experiments built on top of it. It refreshes the `cases` section of
//! `BENCH_engine.json` and gates on the same-process `TRACE` (trace-on ÷
//! trace-off) and `PRED` (prediction-on ÷ trace-off) ratios.
//!
//! ```bash
//! cargo bench --bench engine_throughput            # full measurement
//! DYNRING_BENCH_FAST=1 cargo bench --bench engine_throughput   # CI smoke
//! ```

use dynring_bench::throughput::{
    case_json_line, fast_mode, filter_cases, measure, measurement_budget, record_and_gate,
    standard_cases, PRED, TRACE,
};

fn main() {
    let fast = fast_mode();
    let budget = measurement_budget(fast);
    let chunk: u64 = if fast { 512 } else { 4096 };

    println!(
        "engine throughput ({} mode, {}ms window per case, {} rounds per chunk)\n",
        if fast { "smoke" } else { "full" },
        budget.as_millis(),
        chunk
    );
    println!("{:<34} {:>12} {:>14} {:>22}", "case", "rounds", "rounds/sec", "min-max");

    let samples = measure(&filter_cases(standard_cases(), |case| case.id.as_str()), budget, chunk);
    for sample in &samples {
        let r = sample.rounds_per_sec;
        println!(
            "{:<34} {:>12} {:>14.0} {:>10.0}-{:<11.0}",
            sample.case.id, sample.rounds, r.median, r.min, r.max
        );
    }

    let rows: Vec<(&str, f64)> =
        samples.iter().map(|s| (s.case.id.as_str(), s.rounds_per_sec.median)).collect();
    record_and_gate("cases", samples.iter().map(case_json_line).collect(), &rows, &[TRACE, PRED]);
}
