//! Raw engine throughput measurement — rounds per second of the round loop,
//! **runs per second of the run lifecycle**, and **states per second of the
//! exhaustive model checker** — the same-process ratio gate, and the
//! machine-readable `BENCH_engine.json` record (schema v4: a `cases` section
//! of rounds/sec rows, a `sweep_cases` section of runs/sec rows and a
//! `model_check_cases` section of states/sec rows; each bench target
//! refreshes its own section and preserves the others').
//!
//! The feasibility map is regenerated by sweeping every algorithm over
//! batteries of ring sizes × placements × orientations × adversaries, so two
//! numbers bound how large a map we can afford: how fast the engine steps
//! rounds (`engine_throughput`, rounds/sec) and how fast the harness can set
//! runs up and tear them down (`sweep_throughput`, runs/sec in the short-run
//! regime, fresh-build vs recycled pairs).
//!
//! **Gate.** Absolute rates depend on the host and on whatever else runs on
//! it, so they are recorded but never gated. What gates is the ratio of two
//! rows measured in interleaved windows of the same process (`pair_ratios`,
//! `round_robin_windows`): each
//! must stay above its floor in `RATIO_FLOORS`, and a pair without a floor
//! (or a floor whose pair did not form) prints an `UNGATED` line
//! (`ratio_gate`). A slowdown that hits both rows of every pair equally is
//! not caught here; the repository benchmark's paired parent/change runs
//! catch that.
//!
//! Environment knobs (read by the bench targets):
//!
//! * `DYNRING_BENCH_FAST=1` — shrink the measurement window to a smoke run
//!   (used by CI);
//! * `DYNRING_BENCH_OUT=path` — where to write the JSON (default
//!   `BENCH_engine.json` in the workspace root);
//! * `DYNRING_BENCH_FILTER=substring` — measure only the cases whose id
//!   contains the substring (e.g. `pred=on` for the omniscient-adversary
//!   rows); every bench target routes the knob through one strict parser
//!   ([`filter_cases`]), a filter matching zero cases is a hard error, and a
//!   filtered run writes only to `DYNRING_BENCH_OUT` (`baseline_path`);
//! * `DYNRING_BATCH_LANES=n` — lane count of the `lifecycle=batched` rows
//!   (strict positive integer, default
//!   [`DEFAULT_BATCH_LANES`](dynring_analysis::batch::DEFAULT_BATCH_LANES));
//! * `DYNRING_BENCH_BUDGET_MS=n` — override the per-case measurement window
//!   (longer windows drown scheduler noise on busy machines).

use dynring_analysis::batch::batch_lanes_from_env;
use dynring_analysis::model_check::{self, ModelCheck, SearchContext, SearchStats};
use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioBatchRunner, ScenarioRunner};
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, StopCondition};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Ring sizes measured by the standard grid.
pub const THROUGHPUT_SIZES: &[usize] = &[64, 256, 1024];

/// The synchrony family a throughput case measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynchronyCase {
    /// FSYNC: the never-terminating `Unconscious` walkers on a static ring.
    Fsync,
    /// SSYNC with passive transport: `PtBoundChirality` under the
    /// sleep-blocked scheduler and sticky dynamics.
    SsyncPt,
}

impl SynchronyCase {
    /// The label used in case ids and the JSON baseline.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SynchronyCase::Fsync => "fsync",
            SynchronyCase::SsyncPt => "ssync-pt",
        }
    }
}

/// One configuration of the throughput grid.
#[derive(Debug, Clone)]
pub struct ThroughputCase {
    /// Stable identifier, e.g. `fsync/n=1024/trace=off` (prediction-on
    /// cases append `/pred=on`).
    pub id: String,
    /// Synchrony family.
    pub synchrony: SynchronyCase,
    /// Ring size `n`.
    pub ring_size: usize,
    /// Whether per-round trace recording is enabled.
    pub trace: bool,
    /// Whether an omniscient adversary ([`AdversaryKind::PreventMeeting`])
    /// is installed, forcing the engine to predict every agent's decision
    /// each round.
    pub predictions: bool,
}

/// The median, minimum and maximum of a row's per-window (model-check rows:
/// per-run) rates. The median is the headline; the range shows how much the
/// host disturbed the measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Median rate.
    pub median: f64,
    /// Slowest window's rate.
    pub min: f64,
    /// Fastest window's rate.
    pub max: f64,
}

impl Rates {
    /// Summarises a non-empty set of rates (sorting it in place).
    fn of(rates: &mut [f64]) -> Rates {
        rates.sort_unstable_by(f64::total_cmp);
        let mid = rates.len() / 2;
        let median = if rates.len().is_multiple_of(2) {
            (rates[mid - 1] + rates[mid]) / 2.0
        } else {
            rates[mid]
        };
        Rates { median, min: rates[0], max: rates[rates.len() - 1] }
    }
}

/// A measured case.
#[derive(Debug, Clone)]
pub struct ThroughputSample {
    /// The measured configuration.
    pub case: ThroughputCase,
    /// Total rounds simulated during the measurement window.
    pub rounds: u64,
    /// Wall-clock duration of the measurement window in nanoseconds.
    pub elapsed_ns: u128,
    /// Rounds per second over the five sub-windows.
    pub rounds_per_sec: Rates,
}

/// The standard measurement grid: FSYNC and SSYNC/PT over
/// [`THROUGHPUT_SIZES`], each size measured trace-on, trace-off and
/// prediction-on (omniscient `PreventMeeting` adversary installed, trace
/// off), in that order, so both rows of every [`TRACE`] and [`PRED`] pair
/// sit next to each other in every measurement pass.
#[must_use]
pub fn standard_cases() -> Vec<ThroughputCase> {
    let case = |synchrony: SynchronyCase, ring_size, trace, predictions| ThroughputCase {
        id: format!(
            "{}/n={ring_size}/trace={}{}",
            synchrony.label(),
            if trace { "on" } else { "off" },
            if predictions { "/pred=on" } else { "" }
        ),
        synchrony,
        ring_size,
        trace,
        predictions,
    };
    let mut cases = Vec::new();
    for synchrony in [SynchronyCase::Fsync, SynchronyCase::SsyncPt] {
        for &n in THROUGHPUT_SIZES {
            cases.push(case(synchrony, n, true, false));
            cases.push(case(synchrony, n, false, false));
            cases.push(case(synchrony, n, false, true));
        }
    }
    cases
}

/// The scenario a case measures. FSYNC runs the never-terminating
/// `Unconscious` algorithm on a static ring (steady-state stepping, no
/// adversary work); SSYNC/PT runs `PtBoundChirality` under the sleep-blocked
/// scheduler and sticky dynamics (the default SSYNC battery configuration).
/// Prediction-on cases swap the adversary for the omniscient
/// `PreventMeeting` policy, so every live protocol is dry-run each round
/// (the path exercised by the paper's impossibility constructions).
#[must_use]
pub fn case_scenario(case: &ThroughputCase) -> Scenario {
    let n = case.ring_size;
    let mut scenario = match case.synchrony {
        SynchronyCase::SsyncPt => {
            Scenario::ssync(n, Algorithm::PtBoundChirality { upper_bound: n }, 17)
        }
        SynchronyCase::Fsync => Scenario::fsync(n, Algorithm::Unconscious)
            .with_adversary(AdversaryKind::Static),
    };
    if case.predictions {
        scenario = scenario.with_adversary(AdversaryKind::PreventMeeting);
    }
    scenario.stop = StopCondition::RoundBudget;
    if case.trace {
        scenario = scenario.with_trace();
    }
    scenario
}

/// One row's unit of work: runs it once and returns the units it completed
/// (rounds or runs).
type Stepper<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// Measures every row of a grid over five windows of `budget / 5` each,
/// taken round-robin: five passes over the grid, each giving every row one
/// window in which its `step` runs back to back. A background burst on a
/// shared host then lands in one window of many rows instead of every
/// window of one row, so the per-row median filters it out and the ratio
/// of two rows compares windows taken moments apart. Every row steps once
/// first, outside the windows, to size its buffers.
///
/// Returns, per row, the total units, the total nanoseconds and the rates
/// over its five windows.
fn round_robin_windows(budget: Duration, steppers: &mut [Stepper<'_>]) -> Vec<(u64, u128, Rates)> {
    for step in steppers.iter_mut() {
        step();
    }
    let window_budget = budget / 5;
    let mut rows = vec![(0u64, 0u128, Vec::with_capacity(5)); steppers.len()];
    for _pass in 0..5 {
        for (step, (units, ns, rates)) in steppers.iter_mut().zip(&mut rows) {
            let mut window_units = 0u64;
            let start = Instant::now();
            loop {
                window_units += step();
                if start.elapsed() >= window_budget {
                    break;
                }
            }
            let window_ns = start.elapsed().as_nanos();
            rates.push(if window_ns == 0 {
                0.0
            } else {
                window_units as f64 * 1e9 / window_ns as f64
            });
            *units += window_units;
            *ns += window_ns;
        }
    }
    rows.into_iter().map(|(units, ns, mut rates)| (units, ns, Rates::of(&mut rates))).collect()
}

/// Measures the rounds/sec grid `cases`, its windows taken round-robin: each
/// step builds the case's simulation and runs it for `chunk` rounds.
/// Rebuilding per chunk keeps trace memory bounded and charges the
/// (amortised) construction cost identically to every configuration.
#[must_use]
pub fn measure(cases: &[ThroughputCase], budget: Duration, chunk: u64) -> Vec<ThroughputSample> {
    let scenarios: Vec<Scenario> = cases.iter().map(case_scenario).collect();
    let mut steppers: Vec<Stepper<'_>> = scenarios
        .iter()
        .map(|scenario| -> Stepper<'_> {
            Box::new(move || {
                let mut sim = scenario.build();
                let _ = sim.run(chunk, StopCondition::RoundBudget);
                sim.round()
            })
        })
        .collect();
    cases
        .iter()
        .zip(round_robin_windows(budget, &mut steppers))
        .map(|(case, (rounds, elapsed_ns, rounds_per_sec))| ThroughputSample {
            case: case.clone(),
            rounds,
            elapsed_ns,
            rounds_per_sec,
        })
        .collect()
}

/// Ring size of the runs/sec (sweep lifecycle) grid.
pub const SWEEP_RING_SIZE: usize = 64;

/// Round budget of the runs/sec grid: `4n`, the short-run regime in which
/// per-run setup is a visible fraction of a sweep cell.
pub const SWEEP_BUDGET_ROUNDS: u64 = 4 * SWEEP_RING_SIZE as u64;

/// How a sweep-lifecycle case sets its runs up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// `Scenario::run()` per run: fresh ring, SoA, scratch, policies — the
    /// pre-recycling sweep path.
    Fresh,
    /// One [`ScenarioRunner`] recycles a single `Simulation` (and one
    /// `RunReport`) across all runs — the engine's run-recycling fast path.
    Recycled,
    /// One [`ScenarioBatchRunner`] re-runs a `DYNRING_BATCH_LANES`-cell
    /// group across generations, one recycled simulation per cell (each
    /// generation completes one run per cell).
    Batched,
}

impl Lifecycle {
    /// The label used in case ids and the JSON baseline.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Lifecycle::Fresh => "fresh",
            Lifecycle::Recycled => "recycled",
            Lifecycle::Batched => "batched",
        }
    }
}

/// The workload of a sweep-lifecycle case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// A Table-1-style impossibility witness: the deceived guessed-bound
    /// strategy terminates within a handful of rounds of its `4n` budget, so
    /// per-run setup dominates — the regime the run-recycling fast path is
    /// for (impossibility rows are a large share of every battery).
    FsyncWitness,
    /// The never-terminating FSYNC walkers exhausting the full `4n` budget:
    /// rounds dominate, bounding how much the lifecycle can matter.
    Fsync,
    /// The standard SSYNC/PT battery configuration under sticky dynamics,
    /// also run to its budget.
    SsyncPt,
}

impl SweepWorkload {
    /// The label used in case ids and the JSON baseline.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweepWorkload::FsyncWitness => "fsync-witness",
            SweepWorkload::Fsync => "fsync",
            SweepWorkload::SsyncPt => "ssync-pt",
        }
    }
}

/// One configuration of the runs/sec grid.
#[derive(Debug, Clone)]
pub struct SweepCase {
    /// Stable identifier, e.g.
    /// `sweep/fsync-witness/n=64/budget=256/lifecycle=recycled`.
    pub id: String,
    /// The workload.
    pub workload: SweepWorkload,
    /// Ring size `n`.
    pub ring_size: usize,
    /// Round budget per run.
    pub budget_rounds: u64,
    /// How runs are set up.
    pub lifecycle: Lifecycle,
}

/// A measured sweep-lifecycle case.
#[derive(Debug, Clone)]
pub struct SweepSample {
    /// The measured configuration.
    pub case: SweepCase,
    /// Total runs completed during the measurement window.
    pub runs: u64,
    /// Wall-clock duration of the measurement window in nanoseconds.
    pub elapsed_ns: u128,
    /// Runs per second over the five sub-windows.
    pub runs_per_sec: Rates,
}

/// The runs/sec grid: every workload × all three lifecycles on
/// `n = `[`SWEEP_RING_SIZE`] with a `4n` budget, in the order fresh,
/// recycled, batched, so both rows of every [`RECYCLE`] and [`BATCH`] pair
/// sit next to each other in every measurement pass.
#[must_use]
pub fn sweep_cases() -> Vec<SweepCase> {
    let mut cases = Vec::new();
    for workload in [SweepWorkload::FsyncWitness, SweepWorkload::Fsync, SweepWorkload::SsyncPt] {
        for lifecycle in [Lifecycle::Fresh, Lifecycle::Recycled, Lifecycle::Batched] {
            cases.push(SweepCase {
                id: format!(
                    "sweep/{}/n={SWEEP_RING_SIZE}/budget={SWEEP_BUDGET_ROUNDS}/lifecycle={}",
                    workload.label(),
                    lifecycle.label()
                ),
                workload,
                ring_size: SWEEP_RING_SIZE,
                budget_rounds: SWEEP_BUDGET_ROUNDS,
                lifecycle,
            });
        }
    }
    cases
}

/// The scenario a sweep-lifecycle case runs (identical for both lifecycles
/// of a pair; only the setup differs).
#[must_use]
pub fn sweep_case_scenario(case: &SweepCase) -> Scenario {
    let n = case.ring_size;
    match case.workload {
        SweepWorkload::FsyncWitness => {
            Scenario::fsync(n, Algorithm::KnownBound { upper_bound: 3 })
                .with_starts(vec![0, 1])
                .with_adversary(AdversaryKind::BlockAgent { agent: 0 })
                .with_stop(StopCondition::AllTerminated)
                .with_max_rounds(case.budget_rounds)
        }
        SweepWorkload::Fsync => {
            let mut scenario = Scenario::fsync(n, Algorithm::Unconscious)
                .with_adversary(AdversaryKind::Static)
                .with_max_rounds(case.budget_rounds);
            scenario.stop = StopCondition::RoundBudget;
            scenario
        }
        SweepWorkload::SsyncPt => {
            let mut scenario = Scenario::ssync(n, Algorithm::PtBoundChirality { upper_bound: n }, 17)
                .with_max_rounds(case.budget_rounds);
            scenario.stop = StopCondition::RoundBudget;
            scenario
        }
    }
}

/// Measures the runs/sec grid `cases`, its windows taken round-robin: each
/// step completes one run (a batched step, one run per lane), and every
/// row keeps its own runner across windows.
///
/// `lifecycle=batched` cases replay a `DYNRING_BATCH_LANES`-lane group of
/// the identical scenario per generation (one complete run per lane), so
/// their runs/sec is directly comparable to the solo lifecycles. What a
/// `batched` row adds over its `recycled` sibling is the group bookkeeping
/// and one simulation per cell instead of one for all runs.
#[must_use]
pub fn measure_runs(cases: &[SweepCase], budget: Duration) -> Vec<SweepSample> {
    let mut steppers: Vec<Stepper<'static>> = cases
        .iter()
        .map(|case| -> Stepper<'static> {
            let scenario = sweep_case_scenario(case);
            let mut runner = ScenarioRunner::new();
            let mut batch = ScenarioBatchRunner::new();
            let mut report = RunReport::default();
            let group: Vec<Scenario> = match case.lifecycle {
                Lifecycle::Batched => vec![scenario.clone(); batch_lanes_from_env()],
                Lifecycle::Fresh | Lifecycle::Recycled => Vec::new(),
            };
            let lifecycle = case.lifecycle;
            Box::new(move || match lifecycle {
                Lifecycle::Fresh => {
                    let _ = scenario.run();
                    1
                }
                Lifecycle::Recycled => {
                    runner.run_into(&scenario, &mut report);
                    1
                }
                Lifecycle::Batched => batch.run_group_reports(&group).len() as u64,
            })
        })
        .collect();
    cases
        .iter()
        .zip(round_robin_windows(budget, &mut steppers))
        .map(|(case, (runs, elapsed_ns, runs_per_sec))| SweepSample {
            case: case.clone(),
            runs,
            elapsed_ns,
            runs_per_sec,
        })
        .collect()
}

/// One states/sec row before measurement: a packaged model-check cell plus
/// the search width it runs at.
pub struct ModelCheckCase {
    /// Row id, e.g. `mc/t3r2/n=7/threads=1`.
    pub id: String,
    /// Ring size of the cell.
    pub ring_size: usize,
    /// Worker threads of the search (1 = sequential reference).
    pub threads: usize,
    /// The packaged search.
    pub check: ModelCheck,
}

/// The packaged cell of `cells` whose id starts with `prefix`.
fn packaged(cells: Vec<model_check::TableCell>, prefix: &str) -> ModelCheck {
    cells
        .into_iter()
        .find(|cell| cell.id.starts_with(prefix))
        .unwrap_or_else(|| panic!("{prefix} is packaged at every checkable n"))
        .check
}

/// The states/sec grid: the flagship Theorem 10 cell (`MC-T3-R2`, n = 7,
/// the deepest horizon of the packaged cells), the widest cell (`MC-T1-R3`,
/// n = 9) sequentially and — when `parallel` — on four search threads, then
/// wall-clock rows for every remaining infeasibility cell at n = 9 and,
/// unless `fast`, n = 10.
///
/// The thread pair runs on the widest cell because its level frontiers
/// (tens of thousands of configurations) amortise the deterministic chunk
/// merge; the n = 7 flagship peaks below the parallel dispatch threshold.
/// On a single-core host the four-thread row would only measure threads
/// time-slicing one core, so callers pass `parallel` only where more than
/// one core exists; the parallel search's byte-identity is pinned by the
/// test suite either way.
#[must_use]
pub fn model_check_cases(fast: bool, parallel: bool) -> Vec<ModelCheckCase> {
    let mut out = vec![ModelCheckCase {
        id: "mc/t3r2/n=7/threads=1".to_owned(),
        ring_size: 7,
        threads: 1,
        check: packaged(model_check::table3_cells(7), "MC-T3-R2"),
    }];
    let widths: &[usize] = if parallel { &[1, 4] } else { &[1] };
    for &threads in widths {
        out.push(ModelCheckCase {
            id: format!("mc/t1r3/n=9/threads={threads}"),
            ring_size: 9,
            threads,
            check: packaged(model_check::table1_cells(9), "MC-T1-R3"),
        });
    }
    let sizes: &[usize] = if fast { &[9] } else { &[9, 10] };
    for &n in sizes {
        for cell in model_check::infeasibility_cells(n) {
            if n == 9 && cell.id.starts_with("MC-T1-R3") {
                continue; // measured above as the thread pair
            }
            out.push(ModelCheckCase {
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
/// allocation-free path is what gets measured. Each run is timed on its
/// own; the row's rates are over those runs.
#[must_use]
pub fn measure_states(case: &ModelCheckCase, budget: Duration) -> ModelCheckSample {
    let mut ctx = SearchContext::new(case.threads);
    // Warm-up: size every context buffer outside the timed window.
    let _ = case.check.run_in(&mut ctx);
    let start = Instant::now();
    let mut run_rates = Vec::new();
    let mut stats: SearchStats;
    loop {
        let run_start = Instant::now();
        stats = *case.check.run_in(&mut ctx).stats();
        let secs = run_start.elapsed().as_secs_f64();
        run_rates.push(if secs > 0.0 { stats.expanded as f64 / secs } else { 0.0 });
        if start.elapsed() >= budget {
            break;
        }
    }
    ModelCheckSample {
        id: case.id.clone(),
        ring_size: case.ring_size,
        threads: case.threads,
        runs: run_rates.len() as u64,
        states: stats.expanded,
        peak_frontier: stats.peak_frontier,
        dedup_ratio: if stats.visited == 0 {
            0.0
        } else {
            stats.expanded as f64 / stats.visited as f64
        },
        elapsed_ns: start.elapsed().as_nanos(),
        states_per_sec: Rates::of(&mut run_rates),
        store_bytes: ctx.store_bytes(),
    }
}

/// One measured exhaustive-search row: a packaged model-check cell run to
/// completion some number of times within the budget, scored in expanded
/// states per second (the unit the canonical-key and parallel-BFS work
/// moves).
#[derive(Debug, Clone)]
pub struct ModelCheckSample {
    /// Row id, e.g. `mc/t3r2/n=7/threads=1`.
    pub id: String,
    /// Ring size of the cell.
    pub ring_size: usize,
    /// Worker threads of the search (1 = sequential reference).
    pub threads: usize,
    /// Full search runs completed within the budget.
    pub runs: u64,
    /// Successor states expanded per run.
    pub states: u64,
    /// Largest BFS frontier of the search.
    pub peak_frontier: usize,
    /// Expanded-to-kept ratio (`expanded / visited`): how much the canonical
    /// quotient plus per-level dedup collapse the raw play tree.
    pub dedup_ratio: f64,
    /// Total wall-clock nanoseconds across all runs.
    pub elapsed_ns: u128,
    /// Expanded states per second over the runs.
    pub states_per_sec: Rates,
    /// [`SearchContext::store_bytes`] after the runs: the search state's
    /// high-water mark in bytes, a memory figure that does not move with
    /// the host.
    pub store_bytes: usize,
}

/// A same-process comparison between two rows of one grid: the row whose id
/// ends in `numerator` divided by its sibling that ends in `denominator`
/// instead, both sharing the stem before the suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRule {
    /// Family name, the prefix of every ratio id the rule forms.
    pub family: &'static str,
    /// Id suffix of the numerator row.
    pub numerator: &'static str,
    /// Id suffix of the denominator row.
    pub denominator: &'static str,
}

/// Recycled ÷ fresh runs/sec of one sweep workload: what run recycling buys.
pub const RECYCLE: PairRule = PairRule {
    family: "RECYCLE",
    numerator: "/lifecycle=recycled",
    denominator: "/lifecycle=fresh",
};

/// Batched ÷ recycled runs/sec of one sweep workload.
pub const BATCH: PairRule = PairRule {
    family: "BATCH",
    numerator: "/lifecycle=batched",
    denominator: "/lifecycle=recycled",
};

/// Trace-on ÷ trace-off rounds/sec: the cost of recording the trace.
pub const TRACE: PairRule =
    PairRule { family: "TRACE", numerator: "/trace=on", denominator: "/trace=off" };

/// Prediction-on ÷ trace-off rounds/sec: the cost of the omniscient
/// adversary's predictions.
pub const PRED: PairRule = PairRule { family: "PRED", numerator: "/pred=on", denominator: "" };

/// Four-thread ÷ sequential states/sec on the widest n = 9 cell.
pub const PARALLEL: PairRule =
    PairRule { family: "PARALLEL", numerator: "/threads=4", denominator: "/threads=1" };

/// The lower bound of every gated ratio, by ratio id (`FAMILY:stem`). Each
/// floor is about 0.6x the lowest value observed in at least 24 smoke runs
/// of its bench target on a shared 2-vCPU host (CHANGES.md records the
/// observations), so it catches a broken fast path or a cost that doubles,
/// not a drift of a few percent. `PARALLEL` is the loosest: its rows run one
/// search each in a smoke window, and the ratio swings with whether the
/// host's second core is free.
const RATIO_FLOORS: &[(&str, f64)] = &[
    ("TRACE:fsync/n=64", 0.16),
    ("TRACE:fsync/n=256", 0.16),
    ("TRACE:fsync/n=1024", 0.14),
    ("TRACE:ssync-pt/n=64", 0.2),
    ("TRACE:ssync-pt/n=256", 0.17),
    ("TRACE:ssync-pt/n=1024", 0.21),
    ("PRED:fsync/n=64/trace=off", 0.4),
    ("PRED:fsync/n=256/trace=off", 0.4),
    ("PRED:fsync/n=1024/trace=off", 0.4),
    ("PRED:ssync-pt/n=64/trace=off", 0.3),
    ("PRED:ssync-pt/n=256/trace=off", 0.4),
    ("PRED:ssync-pt/n=1024/trace=off", 0.45),
    ("RECYCLE:sweep/fsync-witness/n=64/budget=256", 2.2),
    ("RECYCLE:sweep/fsync/n=64/budget=256", 0.5),
    ("RECYCLE:sweep/ssync-pt/n=64/budget=256", 0.5),
    ("BATCH:sweep/fsync-witness/n=64/budget=256", 0.4),
    ("BATCH:sweep/fsync/n=64/budget=256", 0.5),
    ("BATCH:sweep/ssync-pt/n=64/budget=256", 0.5),
    ("PARALLEL:mc/t1r3/n=9", 0.4),
];

/// A formed pair: its id (`FAMILY:stem`) and numerator ÷ denominator.
#[derive(Debug, Clone, PartialEq)]
struct Ratio {
    /// `FAMILY:stem`, e.g. `TRACE:fsync/n=64`.
    id: String,
    /// Numerator rate ÷ denominator rate.
    value: f64,
}

/// Forms every pair of `rules` among the measured `(id, rate)` rows, rule by
/// rule in row order. A pair whose denominator rate is not positive does not
/// form (its floor then reports `UNGATED`).
#[must_use]
fn pair_ratios(rows: &[(&str, f64)], rules: &[PairRule]) -> Vec<Ratio> {
    let mut out = Vec::new();
    for rule in rules {
        for &(id, rate) in rows {
            let Some(stem) = id.strip_suffix(rule.numerator) else {
                continue;
            };
            let sibling = format!("{stem}{}", rule.denominator);
            if let Some(&(_, base)) = rows.iter().find(|(other, _)| *other == sibling) {
                if base > 0.0 {
                    out.push(Ratio { id: format!("{}:{stem}", rule.family), value: rate / base });
                }
            }
        }
    }
    out
}

/// The ratio gate a bench target ends with. Returns the lines to print and
/// whether every ratio clears its floor:
///
/// * one `RATIO <id> <value> (floor <bound>)` line per formed pair, and a
///   failure for every value below its floor;
/// * one `UNGATED <id>` line per formed pair that [`RATIO_FLOORS`] has no
///   floor for;
/// * one `UNGATED <id>` line per floor of a family in `rules` whose two rows
///   the `filter` keeps but whose pair did not form — what a renamed row
///   looks like. A filtered run that keeps only one row of a pair expects
///   nothing of its floor.
#[must_use]
fn ratio_gate(
    ratios: &[Ratio],
    rules: &[PairRule],
    filter: Option<&str>,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut pass = true;
    for ratio in ratios {
        match RATIO_FLOORS.iter().find(|(id, _)| *id == ratio.id) {
            Some(&(_, floor)) => {
                lines.push(format!("RATIO {} {:.3} (floor {floor})", ratio.id, ratio.value));
                pass &= ratio.value >= floor;
            }
            None => {
                lines.push(format!("RATIO {} {:.3} (no floor)", ratio.id, ratio.value));
                lines.push(format!("UNGATED {}", ratio.id));
            }
        }
    }
    for &(id, _) in RATIO_FLOORS {
        let Some((family, stem)) = id.split_once(':') else {
            continue;
        };
        let Some(rule) = rules.iter().find(|rule| rule.family == family) else {
            continue;
        };
        let kept = |suffix: &str| filter.is_none_or(|f| format!("{stem}{suffix}").contains(f));
        if kept(rule.numerator) && kept(rule.denominator) && !ratios.iter().any(|r| r.id == id) {
            lines.push(format!("UNGATED {id}"));
        }
    }
    (lines, pass)
}

/// Whether the smoke-mode knob (`DYNRING_BENCH_FAST`) is set.
///
/// # Panics
///
/// Like every `DYNRING_BENCH_*` knob, an unrecognised value is a hard error
/// (a typo like `DYNRING_BENCH_FAST=ture` silently running the full-length
/// bench would waste a CI hour before anyone noticed). Accepted: unset,
/// `""`/`"0"` (off) and `"1"` (on).
#[must_use]
pub fn fast_mode() -> bool {
    match std::env::var("DYNRING_BENCH_FAST").as_deref() {
        Err(_) | Ok("" | "0") => false,
        Ok("1") => true,
        Ok(other) => panic!(
            "invalid DYNRING_BENCH_FAST: {other:?} (use 1 for smoke mode, 0/unset for full)"
        ),
    }
}

/// The case filter (`DYNRING_BENCH_FILTER`), or `None` when unset or empty.
///
/// # Panics
///
/// A non-unicode value is a hard error, never a silent fallback.
#[must_use]
fn bench_filter() -> Option<String> {
    match std::env::var("DYNRING_BENCH_FILTER") {
        Ok(filter) => Some(filter).filter(|f| !f.is_empty()),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid DYNRING_BENCH_FILTER: value is not valid unicode")
        }
    }
}

/// The shared case filter: keep only the cases whose id contains
/// `DYNRING_BENCH_FILTER`. **Every** bench main routes its grid through this one
/// function, so the knob's contract cannot drift between targets.
///
/// # Panics
///
/// Like every `DYNRING_BENCH_*` knob, a misconfiguration is a hard error: so
/// is a filter that matches **zero** cases (a typo'd filter silently
/// measuring nothing).
#[must_use]
pub fn filter_cases<T>(cases: Vec<T>, id_of: impl Fn(&T) -> &str) -> Vec<T> {
    let Some(filter) = bench_filter() else {
        return cases;
    };
    let total = cases.len();
    let kept: Vec<T> = cases.into_iter().filter(|case| id_of(case).contains(&filter)).collect();
    assert!(
        !kept.is_empty(),
        "invalid DYNRING_BENCH_FILTER: {filter:?} matches none of the {total} case ids"
    );
    kept
}

/// The per-case measurement window: `DYNRING_BENCH_BUDGET_MS` if set,
/// otherwise 40ms in smoke mode and 800ms in full mode.
///
/// # Panics
///
/// An unparsable `DYNRING_BENCH_BUDGET_MS` (e.g. `"fast"` or `"100ms"`) is a
/// hard error with a clear message, not a silent fallback to the default.
#[must_use]
pub fn measurement_budget(fast: bool) -> Duration {
    let millis = match std::env::var("DYNRING_BENCH_BUDGET_MS") {
        Ok(raw) => raw.trim().parse::<u64>().unwrap_or_else(|_| {
            panic!(
                "invalid DYNRING_BENCH_BUDGET_MS: {raw:?} is not a whole number of \
                 milliseconds (example: 800)"
            )
        }),
        Err(_) => {
            if fast {
                40
            } else {
                800
            }
        }
    };
    Duration::from_millis(millis)
}

/// Where a run writes the baseline: `out` (`DYNRING_BENCH_OUT`) if set,
/// otherwise the committed `BENCH_engine.json` in the workspace root (cargo
/// runs bench binaries with the *package* root as working directory, so a
/// relative default would land in `crates/bench/`). A `filter`ed run with no
/// `out` writes nothing: it measured only part of its section, and writing
/// would shrink the committed baseline to that part.
#[must_use]
fn baseline_path(filter: Option<&str>, out: Option<OsString>) -> Option<PathBuf> {
    match (out, filter) {
        (Some(out), _) => Some(PathBuf::from(out)),
        (None, Some(_)) => None,
        (None, None) => Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The rate fields every row ends with: the median under `unit`, its window
/// (or run) range, and the core count of the host that measured it.
fn rate_fields(unit: &str, rates: Rates) -> String {
    format!(
        "\"{unit}\": {:.1}, \"{unit}_min\": {:.1}, \"{unit}_max\": {:.1}, \"nproc\": {}",
        rates.median,
        rates.min,
        rates.max,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )
}

/// Renders one rounds/sec row as a `cases` section line (no trailing comma).
#[must_use]
pub fn case_json_line(s: &ThroughputSample) -> String {
    format!(
        "{{\"id\": \"{}\", \"synchrony\": \"{}\", \"ring_size\": {}, \"trace\": {}, \
         \"predictions\": {}, \"rounds\": {}, \"elapsed_ns\": {}, {}}}",
        json_escape(&s.case.id),
        json_escape(s.case.synchrony.label()),
        s.case.ring_size,
        s.case.trace,
        s.case.predictions,
        s.rounds,
        s.elapsed_ns,
        rate_fields("rounds_per_sec", s.rounds_per_sec),
    )
}

/// Renders one runs/sec row as a `sweep_cases` section line (no trailing
/// comma).
#[must_use]
pub fn sweep_json_line(s: &SweepSample) -> String {
    format!(
        "{{\"id\": \"{}\", \"workload\": \"{}\", \"ring_size\": {}, \"budget_rounds\": {}, \
         \"lifecycle\": \"{}\", \"runs\": {}, \"elapsed_ns\": {}, {}}}",
        json_escape(&s.case.id),
        json_escape(s.case.workload.label()),
        s.case.ring_size,
        s.case.budget_rounds,
        s.case.lifecycle.label(),
        s.runs,
        s.elapsed_ns,
        rate_fields("runs_per_sec", s.runs_per_sec),
    )
}

/// Renders one states/sec row as a `model_check_cases` section line (no
/// trailing comma).
#[must_use]
pub fn model_check_json_line(s: &ModelCheckSample) -> String {
    format!(
        "{{\"id\": \"{}\", \"ring_size\": {}, \"threads\": {}, \"runs\": {}, \"states\": {}, \
         \"peak_frontier\": {}, \"dedup_ratio\": {:.2}, \"elapsed_ns\": {}, {}}}",
        json_escape(&s.id),
        s.ring_size,
        s.threads,
        s.runs,
        s.states,
        s.peak_frontier,
        s.dedup_ratio,
        s.elapsed_ns,
        rate_fields("states_per_sec", s.states_per_sec),
    )
}

/// The three sections of `BENCH_engine.json`, in document order.
const SECTIONS: [&str; 3] = ["cases", "sweep_cases", "model_check_cases"];

/// Renders the full `BENCH_engine.json` document (schema v4): the
/// rounds/sec `cases` section, the runs/sec `sweep_cases` section and the
/// states/sec `model_check_cases` section, each given as pre-rendered row
/// lines so a bench target can refresh its own section while carrying the
/// others' rows over verbatim (see [`extract_section`]). Hand-rolled because
/// the vendored `serde_json` stub does not emit real JSON.
#[must_use]
fn render_document(
    case_lines: &[String],
    sweep_lines: &[String],
    model_check_lines: &[String],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dynring-engine-throughput/v4\",\n");
    out.push_str(
        "  \"generated_by\": \"cargo bench engine_throughput + sweep_throughput + model_check_throughput\",\n",
    );
    let sections = [case_lines, sweep_lines, model_check_lines];
    for (i, (key, lines)) in SECTIONS.iter().zip(sections).enumerate() {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (j, line) in lines.iter().enumerate() {
            out.push_str("    ");
            out.push_str(line);
            out.push_str(if j + 1 == lines.len() { "\n" } else { ",\n" });
        }
        out.push_str(if i + 1 == SECTIONS.len() { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

/// Extracts the raw row lines of one section (`cases`, `sweep_cases` or
/// `model_check_cases`) from a previously written `BENCH_engine.json`, so a
/// bench target refreshing one section can preserve the *others* byte for
/// byte. The document is emitted one row object per line
/// ([`render_document`]), so a line-oriented scan is exact for our own
/// files; older documents simply have no newer sections and yield an empty
/// vector for them.
#[must_use]
fn extract_section(json: &str, key: &str) -> Vec<String> {
    let header = format!("\"{key}\": [");
    let mut rows = Vec::new();
    let mut inside = false;
    for line in json.lines() {
        let trimmed = line.trim();
        if inside {
            if trimmed.starts_with(']') {
                break;
            }
            if trimmed.starts_with('{') {
                rows.push(trimmed.trim_end_matches(',').to_owned());
            }
        } else if trimmed.starts_with(&header) {
            inside = true;
        }
    }
    rows
}

/// Ends a bench target: writes its `section` of the baseline (carrying the
/// other two sections of the file over verbatim) to `baseline_path`, then
/// prints the `ratio_gate` over the pairs `rules` form among `rows` and
/// exits 1 if a ratio falls below its floor.
///
/// # Panics
///
/// If the baseline cannot be written.
pub fn record_and_gate(
    section: &str,
    lines: Vec<String>,
    rows: &[(&str, f64)],
    rules: &[PairRule],
) {
    let filter = bench_filter();
    match baseline_path(filter.as_deref(), std::env::var_os("DYNRING_BENCH_OUT")) {
        Some(path) => {
            let previous = std::fs::read_to_string(&path).unwrap_or_default();
            let [cases, sweep, mc] = SECTIONS.map(|key| {
                if key == section {
                    lines.clone()
                } else {
                    extract_section(&previous, key)
                }
            });
            std::fs::write(&path, render_document(&cases, &sweep, &mc))
                .expect("write the baseline file");
            println!("\nbaseline written to {}", path.display());
        }
        None => println!(
            "\nfiltered run: baseline not written (set DYNRING_BENCH_OUT to keep these rows)"
        ),
    }

    let (gate_lines, pass) = ratio_gate(&pair_ratios(rows, rules), rules, filter.as_deref());
    if !gate_lines.is_empty() {
        println!();
    }
    for line in &gate_lines {
        println!("{line}");
    }
    if !pass {
        eprintln!("bench gate: a same-process ratio fell below its floor");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(id: &str, predictions: bool) -> ThroughputCase {
        ThroughputCase {
            id: id.into(),
            synchrony: SynchronyCase::Fsync,
            ring_size: 8,
            trace: false,
            predictions,
        }
    }

    fn rates(median: f64) -> Rates {
        Rates { median, min: median / 2.0, max: median * 2.0 }
    }

    /// The ids of every row the three grids can measure (the four-thread
    /// row included).
    fn grid_ids() -> Vec<String> {
        standard_cases()
            .into_iter()
            .map(|c| c.id)
            .chain(sweep_cases().into_iter().map(|c| c.id))
            .chain(model_check_cases(true, true).into_iter().map(|c| c.id))
            .collect()
    }

    const ALL_RULES: &[PairRule] = &[TRACE, PRED, RECYCLE, BATCH, PARALLEL];

    fn unit_rows(ids: &[String]) -> Vec<(&str, f64)> {
        ids.iter().map(|id| (id.as_str(), 1.0)).collect()
    }

    #[test]
    fn standard_grid_covers_both_synchrony_families_and_trace_modes() {
        let cases = standard_cases();
        // Per family per size: trace=off, trace=on and prediction-on.
        assert_eq!(cases.len(), 2 * THROUGHPUT_SIZES.len() * 3);
        assert!(cases.iter().any(|c| c.synchrony == SynchronyCase::Fsync && !c.trace));
        assert!(cases.iter().any(|c| c.synchrony == SynchronyCase::SsyncPt && c.trace));
        assert!(cases.iter().any(|c| c.synchrony == SynchronyCase::Fsync && c.predictions));
        assert!(cases.iter().any(|c| c.synchrony == SynchronyCase::SsyncPt && c.predictions));
        assert!(cases.iter().all(|c| c.predictions == c.id.contains("/pred=on")));
        assert!(cases.iter().all(|c| c.trace == c.id.contains("/trace=on")));
        let ids: std::collections::HashSet<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), cases.len(), "case ids must be unique");
    }

    #[test]
    fn measure_counts_rounds_for_a_tiny_budget() {
        let samples = measure(&[case("fsync/n=8/trace=off", false)], Duration::from_millis(5), 64);
        let sample = &samples[0];
        assert!(sample.rounds >= 64);
        let r = sample.rounds_per_sec;
        assert!(0.0 < r.min && r.min <= r.median && r.median <= r.max, "{r:?}");
    }

    #[test]
    fn prediction_cases_install_an_omniscient_adversary() {
        let scenario = case_scenario(&case("fsync/n=8/trace=off/pred=on", true));
        assert_eq!(scenario.adversary, AdversaryKind::PreventMeeting);
        let samples =
            measure(&[case("fsync/n=8/trace=off/pred=on", true)], Duration::from_millis(5), 64);
        assert!(samples[0].rounds >= 64);
    }

    #[test]
    fn rates_summarise_median_and_range() {
        assert_eq!(Rates::of(&mut [3.0, 1.0, 2.0]), Rates { median: 2.0, min: 1.0, max: 3.0 });
        assert_eq!(Rates::of(&mut [4.0, 1.0]), Rates { median: 2.5, min: 1.0, max: 4.0 });
        assert_eq!(Rates::of(&mut [7.0]), Rates { median: 7.0, min: 7.0, max: 7.0 });
    }

    fn sweep_sample(id: &str, runs_per_sec: f64) -> SweepSample {
        SweepSample {
            case: SweepCase {
                id: id.into(),
                workload: SweepWorkload::FsyncWitness,
                ring_size: SWEEP_RING_SIZE,
                budget_rounds: SWEEP_BUDGET_ROUNDS,
                lifecycle: Lifecycle::Recycled,
            },
            runs: 10,
            elapsed_ns: 10,
            runs_per_sec: rates(runs_per_sec),
        }
    }

    fn mc_sample(id: &str, states_per_sec: f64) -> ModelCheckSample {
        ModelCheckSample {
            id: id.to_owned(),
            ring_size: 7,
            threads: 1,
            runs: 3,
            states: 50_000,
            peak_frontier: 900,
            dedup_ratio: 4.2,
            elapsed_ns: 10,
            states_per_sec: rates(states_per_sec),
            store_bytes: 1 << 20,
        }
    }

    #[test]
    fn rendered_document_has_the_expected_v4_shape() {
        let case_line = case_json_line(&ThroughputSample {
            case: case("fsync/n=8/trace=off", false),
            rounds: 1000,
            elapsed_ns: 500,
            rounds_per_sec: Rates { median: 123.456, min: 100.0, max: 150.0 },
        });
        let sweep_line = sweep_json_line(&sweep_sample(
            "sweep/fsync-witness/n=64/budget=256/lifecycle=recycled",
            4000.0,
        ));
        let mc_line = model_check_json_line(&mc_sample("mc/t3r2/n=7/threads=1", 5e6));
        let json = render_document(&[case_line], &[sweep_line], &[mc_line]);
        assert!(json.contains("\"schema\": \"dynring-engine-throughput/v4\""));
        assert!(json.contains("\"ring_size\": 8"));
        assert!(json.contains(
            "\"rounds_per_sec\": 123.5, \"rounds_per_sec_min\": 100.0, \
             \"rounds_per_sec_max\": 150.0, \"nproc\": "
        ));
        assert!(json.contains("\"trace\": false"));
        assert!(json.contains("\"predictions\": false"));
        assert!(json.contains("\"sweep_cases\": ["));
        assert!(json.contains("\"lifecycle\": \"recycled\""));
        assert!(json.contains("\"budget_rounds\": 256"));
        assert!(json.contains("\"runs_per_sec\": 4000.0, \"runs_per_sec_min\": 2000.0"));
        assert!(json.contains("\"model_check_cases\": ["));
        assert!(json.contains("\"peak_frontier\": 900"));
        assert!(json.contains("\"dedup_ratio\": 4.20"));
        assert!(json.contains("\"states_per_sec\": 5000000.0, \"states_per_sec_min\": 2500000.0"));
        assert!(json.contains("\"states_per_sec_max\": 10000000.0"));
    }

    #[test]
    fn sections_survive_extraction_and_rerendering() {
        let case_line = case_json_line(&ThroughputSample {
            case: case("fsync/n=8/trace=off", false),
            rounds: 1000,
            elapsed_ns: 500,
            rounds_per_sec: rates(2_000_000.0),
        });
        let sweep_line = sweep_json_line(&sweep_sample(
            "sweep/fsync-witness/n=64/budget=256/lifecycle=fresh",
            1234.5,
        ));
        let mc_line = model_check_json_line(&mc_sample("mc/t1r3/n=9/threads=1", 1e6));
        let json = render_document(
            std::slice::from_ref(&case_line),
            std::slice::from_ref(&sweep_line),
            std::slice::from_ref(&mc_line),
        );
        // Each bench target preserves the others' sections verbatim.
        assert_eq!(extract_section(&json, "cases"), vec![case_line]);
        assert_eq!(extract_section(&json, "sweep_cases"), vec![sweep_line]);
        assert_eq!(extract_section(&json, "model_check_cases"), vec![mc_line]);
        // A v1 document (no newer sections) degrades to empty preserved
        // sections instead of an error.
        assert!(extract_section("{\n  \"cases\": [\n  ]\n}\n", "sweep_cases").is_empty());
        assert!(extract_section("{\n  \"cases\": [\n  ]\n}\n", "model_check_cases").is_empty());
    }

    #[test]
    fn every_floor_names_a_pair_the_grids_form() {
        let ids = grid_ids();
        let formed: Vec<String> =
            pair_ratios(&unit_rows(&ids), ALL_RULES).into_iter().map(|r| r.id).collect();
        for (id, _) in RATIO_FLOORS {
            assert!(formed.iter().any(|f| f == id), "floor {id} names no pair of the grids");
        }
        for id in &formed {
            assert!(RATIO_FLOORS.iter().any(|(f, _)| f == id), "pair {id} has no floor");
        }
        assert_eq!(formed.len(), RATIO_FLOORS.len(), "every pair forms once");
    }

    #[test]
    fn every_pair_family_forms_from_the_standard_grids() {
        let ids = grid_ids();
        let formed = pair_ratios(&unit_rows(&ids), ALL_RULES);
        let count = |family: &str| formed.iter().filter(|r| r.id.starts_with(family)).count();
        assert_eq!(
            [
                count("RECYCLE:"),
                count("BATCH:"),
                count("TRACE:"),
                count("PRED:"),
                count("PARALLEL:")
            ],
            [3, 3, 6, 6, 1]
        );
        assert!(formed.iter().all(|r| r.value == 1.0));
        // Without the four-thread row the parallel pair does not form.
        let sequential: Vec<String> =
            model_check_cases(true, false).into_iter().map(|c| c.id).collect();
        assert!(pair_ratios(&unit_rows(&sequential), &[PARALLEL]).is_empty());
    }

    #[test]
    fn recycle_comparisons_pair_lifecycles() {
        let ratios = pair_ratios(
            &[
                ("sweep/fsync-witness/n=64/budget=256/lifecycle=fresh", 1000.0),
                ("sweep/fsync-witness/n=64/budget=256/lifecycle=recycled", 3500.0),
                ("sweep/fsync/n=64/budget=256/lifecycle=recycled", 10.0),
            ],
            &[RECYCLE],
        );
        assert_eq!(
            ratios,
            vec![Ratio { id: "RECYCLE:sweep/fsync-witness/n=64/budget=256".into(), value: 3.5 }]
        );
    }

    #[test]
    fn batch_comparisons_pair_batched_with_recycled() {
        let rows = [
            ("sweep/fsync/n=64/budget=256/lifecycle=fresh", 1000.0),
            ("sweep/fsync/n=64/budget=256/lifecycle=recycled", 2000.0),
            ("sweep/fsync/n=64/budget=256/lifecycle=batched", 3000.0),
        ];
        let ratios = pair_ratios(&rows, &[RECYCLE, BATCH]);
        let ids: Vec<&str> = ratios.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            ["RECYCLE:sweep/fsync/n=64/budget=256", "BATCH:sweep/fsync/n=64/budget=256"]
        );
        assert_eq!(ratios[1].value, 1.5);
        // A zero denominator forms no pair.
        let zero = [rows[1], ("sweep/fsync/n=64/budget=256/lifecycle=fresh", 0.0)];
        assert!(pair_ratios(&zero, &[RECYCLE]).is_empty());
    }

    #[test]
    fn a_ratio_below_its_floor_fails_the_gate() {
        let ok = [Ratio { id: "PARALLEL:mc/t1r3/n=9".into(), value: 1.5 }];
        let (lines, pass) = ratio_gate(&ok, &[PARALLEL], None);
        assert!(pass);
        assert_eq!(lines, ["RATIO PARALLEL:mc/t1r3/n=9 1.500 (floor 0.4)"]);
        let slow = [Ratio { id: "PARALLEL:mc/t1r3/n=9".into(), value: 0.3 }];
        let (lines, pass) = ratio_gate(&slow, &[PARALLEL], None);
        assert!(!pass);
        assert_eq!(lines, ["RATIO PARALLEL:mc/t1r3/n=9 0.300 (floor 0.4)"]);
    }

    #[test]
    fn ungated_names_pairs_without_floor_and_floors_without_pair() {
        // A pair with no floor.
        let stray = [Ratio { id: "TRACE:fsync/n=8".into(), value: 0.4 }];
        let (lines, pass) = ratio_gate(&stray, &[], None);
        assert!(pass);
        assert_eq!(lines, ["RATIO TRACE:fsync/n=8 0.400 (no floor)", "UNGATED TRACE:fsync/n=8"]);

        // A floor of a family the target forms whose pair did not form:
        // rename one standard row and its TRACE pair drops out.
        let ids: Vec<String> = standard_cases()
            .into_iter()
            .map(|c| c.id.replace("fsync/n=64/trace=on", "fsync/n=64/trace=yes"))
            .collect();
        let ratios = pair_ratios(&unit_rows(&ids), &[TRACE, PRED]);
        let (lines, pass) = ratio_gate(&ratios, &[TRACE, PRED], None);
        assert!(pass);
        let ungated: Vec<&String> = lines.iter().filter(|l| l.starts_with("UNGATED")).collect();
        assert_eq!(ungated, ["UNGATED TRACE:fsync/n=64"]);

        // A filter that keeps only one row of each pair expects nothing,
        // and neither does a target that forms no pair of the family.
        assert!(ratio_gate(&[], &[TRACE, PRED], Some("pred=on")).0.is_empty());
        assert!(ratio_gate(&[], &[], None).0.is_empty());
        // A filter that keeps both rows still expects the pair.
        let (lines, _) = ratio_gate(&[], &[TRACE], Some("ssync-pt/n=256/"));
        assert_eq!(lines, ["UNGATED TRACE:ssync-pt/n=256"]);
    }

    #[test]
    fn sweep_grid_pairs_fresh_with_recycled_and_batched() {
        let cases = sweep_cases();
        assert_eq!(cases.len(), 9, "three workloads x three lifecycles");
        for recycled in cases.iter().filter(|c| c.lifecycle == Lifecycle::Recycled) {
            let sibling = recycled.id.replace("/lifecycle=recycled", "/lifecycle=fresh");
            assert!(
                cases.iter().any(|c| c.id == sibling && c.lifecycle == Lifecycle::Fresh),
                "{} has no fresh sibling",
                recycled.id
            );
            let batched = recycled.id.replace("/lifecycle=recycled", "/lifecycle=batched");
            assert!(
                cases.iter().any(|c| c.id == batched && c.lifecycle == Lifecycle::Batched),
                "{} has no batched sibling",
                recycled.id
            );
        }
        let ids: std::collections::HashSet<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), cases.len(), "sweep ids must be unique");
        assert!(cases.iter().all(|c| c.id.starts_with("sweep/")));
        assert!(cases.iter().all(|c| c.budget_rounds <= 4 * c.ring_size as u64));
    }

    #[test]
    fn filter_cases_keeps_matches_and_passes_through_when_unset() {
        // The bench processes set no filter by default; an absent/empty
        // filter must keep every case (the knob itself is env-global, so the
        // matching/zero-match contracts are pinned by the substring logic on
        // ids directly).
        let cases = sweep_cases();
        let all = filter_cases(cases.clone(), |c| c.id.as_str());
        assert_eq!(all.len(), cases.len());
    }

    #[test]
    fn a_filtered_run_writes_only_to_an_explicit_path() {
        let committed = baseline_path(None, None).expect("an unfiltered run writes");
        assert!(committed.ends_with("BENCH_engine.json"));
        assert_eq!(baseline_path(Some("pred=on"), None), None);
        let out = Some(OsString::from("b.json"));
        assert_eq!(baseline_path(Some("pred=on"), out.clone()), Some(PathBuf::from("b.json")));
        assert_eq!(baseline_path(None, out), Some(PathBuf::from("b.json")));
    }

    #[test]
    fn measure_runs_completes_runs_for_a_tiny_budget() {
        let cases = sweep_cases();
        let samples = measure_runs(&cases, Duration::from_millis(45));
        for (case, sample) in cases.iter().zip(&samples) {
            assert_eq!(sample.case.id, case.id);
            assert!(sample.runs >= 5, "{}: {} runs", case.id, sample.runs);
            assert!(sample.runs_per_sec.median > 0.0, "{}", case.id);
        }
    }

    #[test]
    fn sweep_scenarios_match_their_workloads() {
        let cases = sweep_cases();
        let witness = sweep_case_scenario(&cases[0]);
        assert_eq!(witness.adversary, AdversaryKind::BlockAgent { agent: 0 });
        assert_eq!(witness.max_rounds, SWEEP_BUDGET_ROUNDS);
        // Both lifecycles of a pair run the identical scenario.
        assert_eq!(sweep_case_scenario(&cases[0]), sweep_case_scenario(&cases[1]));
    }

    #[test]
    fn json_escape_handles_quotes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
