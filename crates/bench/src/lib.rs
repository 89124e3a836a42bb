//! The throughput benchmark harness of the workspace.
//!
//! Three bench targets — `engine_throughput` (rounds/sec of the round
//! loop), `sweep_throughput` (runs/sec of the run lifecycle) and
//! `model_check_throughput` (states/sec of the exhaustive search) — measure
//! their grids through [`throughput`], record every row in
//! `BENCH_engine.json`, and gate only on ratios between rows measured in the
//! same process. The paper's tables and figures are reproduced by the
//! `feasibility_map` example and checked by the test suite, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod throughput;
