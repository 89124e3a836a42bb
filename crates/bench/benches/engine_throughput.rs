//! Raw engine throughput: rounds per second over the standard grid
//! (FSYNC and SSYNC/PT, n ∈ {64, 256, 1024}, trace recording off/on).
//!
//! Unlike the table/figure benches, this target measures the simulator's
//! inner loop itself, not the experiments built on top of it, and it writes
//! the machine-readable baseline `BENCH_engine.json` so the engine's perf
//! trajectory is visible PR over PR.
//!
//! ```bash
//! cargo bench --bench engine_throughput            # full measurement
//! DYNRING_BENCH_FAST=1 cargo bench --bench engine_throughput   # CI smoke
//! ```

use dynring_bench::throughput::{
    case_json_line, case_rates, extract_section, fast_mode, filter_cases, gate, measure,
    measurement_budget, out_path, parse_baseline, standard_cases, write_document,
    ThroughputSample,
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
    println!("{:<28} {:>14} {:>14}", "case", "rounds", "rounds/sec");

    let mut samples: Vec<ThroughputSample> = Vec::new();
    for case in filter_cases(standard_cases(), |case| case.id.as_str()) {
        let sample = measure(&case, budget, chunk);
        println!(
            "{:<28} {:>14} {:>14.0}",
            sample.case.id, sample.rounds, sample.rounds_per_sec
        );
        samples.push(sample);
    }

    let path = out_path();
    // Diff against the previous committed baseline before overwriting it,
    // and carry its runs/sec and states/sec sections (owned by
    // `sweep_throughput` and `model_check_throughput`) over verbatim — each
    // bench target only refreshes its own rows.
    let previous_document = std::fs::read_to_string(&path).unwrap_or_default();
    let previous = parse_baseline(&previous_document);
    let sweep_lines = extract_section(&previous_document, "sweep_cases");
    let mc_lines = extract_section(&previous_document, "model_check_cases");
    let case_lines: Vec<String> = samples.iter().map(case_json_line).collect();
    write_document(&path, &case_lines, &sweep_lines, &mc_lines)
        .expect("write BENCH_engine.json");
    println!("\nbaseline written to {}", path.display());

    gate(&case_rates(&samples), &previous, "rounds/sec");
}
