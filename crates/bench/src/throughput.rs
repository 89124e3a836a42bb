//! Raw engine throughput measurement — rounds per second of the round loop,
//! **runs per second of the run lifecycle**, and **states per second of the
//! exhaustive model checker** — plus the machine-readable `BENCH_engine.json`
//! baseline emitter (schema v3: a `cases` section of rounds/sec rows, a
//! `sweep_cases` section of runs/sec rows and a `model_check_cases` section
//! of states/sec rows; each bench target refreshes its own section and
//! preserves the others').
//!
//! The feasibility map is regenerated by sweeping every algorithm over
//! batteries of ring sizes × placements × orientations × adversaries, so two
//! numbers bound how large a map we can afford: how fast the engine steps
//! rounds (`engine_throughput`, rounds/sec) and how fast the harness can set
//! runs up and tear them down (`sweep_throughput`, runs/sec in the short-run
//! regime, fresh-build vs recycled pairs).
//!
//! Environment knobs (read by the bench targets):
//!
//! * `DYNRING_BENCH_FAST=1` — shrink the measurement window to a smoke run
//!   (used by CI, where only the shape of the output matters);
//! * `DYNRING_BENCH_OUT=path` — where to write the JSON (default
//!   `BENCH_engine.json` in the workspace root);
//! * `DYNRING_BENCH_FILTER=substring` — measure only the cases whose id
//!   contains the substring (e.g. `pred=on` for the omniscient-adversary
//!   rows); both bench targets route the knob through one strict parser
//!   ([`filter_cases`]), and a filter matching zero cases is a hard error;
//! * `DYNRING_BATCH_LANES=n` — lane count of the `lifecycle=batched` rows
//!   (strict positive integer, default
//!   [`DEFAULT_BATCH_LANES`](dynring_analysis::batch::DEFAULT_BATCH_LANES));
//! * `DYNRING_BENCH_BUDGET_MS=n` — override the per-case measurement window
//!   (longer windows drown scheduler noise on busy machines);
//! * `DYNRING_BENCH_GATE=soft` — demote ≥10% median regressions against the
//!   committed baseline from a failing exit back to warn-only lines (the
//!   gate is **hard by default**, per the ROADMAP's flip criterion, now that
//!   the warn-only annotation history exists).

use dynring_analysis::batch::batch_lanes_from_env;
use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioBatchRunner, ScenarioRunner};
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, StopCondition};
use std::io::Write as _;
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

/// A measured case.
#[derive(Debug, Clone)]
pub struct ThroughputSample {
    /// The measured configuration.
    pub case: ThroughputCase,
    /// Total rounds simulated during the measurement window.
    pub rounds: u64,
    /// Wall-clock duration of the measurement window in nanoseconds.
    pub elapsed_ns: u128,
    /// Rounds per second (the headline number).
    pub rounds_per_sec: f64,
}

/// The standard measurement grid: FSYNC and SSYNC/PT over
/// [`THROUGHPUT_SIZES`], trace recording off and on, plus the
/// prediction-on family (omniscient `PreventMeeting` adversary installed,
/// trace off) for both synchrony families.
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
    let families = [SynchronyCase::Fsync, SynchronyCase::SsyncPt];
    let mut cases = Vec::new();
    for synchrony in families {
        for &n in THROUGHPUT_SIZES {
            cases.push(case(synchrony, n, false, false));
            cases.push(case(synchrony, n, true, false));
        }
    }
    for synchrony in families {
        for &n in THROUGHPUT_SIZES {
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

/// Measures one case: repeatedly builds the scenario's simulation and runs it
/// for `chunk` rounds until the wall-clock budget has elapsed. Rebuilding
/// per chunk keeps trace memory bounded and charges the (amortised)
/// construction cost identically to every configuration.
///
/// The budget is split into five sub-windows and the reported
/// `rounds_per_sec` is the **median** window's rate, so background bursts
/// on a shared host (the reference container's window-to-window noise is
/// ±10–15%, with occasional much larger spikes) poison at most two windows
/// instead of the whole measurement; `rounds` and `elapsed_ns` still cover
/// all five windows.
#[must_use]
pub fn measure(case: &ThroughputCase, budget: Duration, chunk: u64) -> ThroughputSample {
    let scenario = case_scenario(case);
    // Warm-up outside the measurement window.
    let mut sim = scenario.build();
    let _ = sim.run(chunk.min(512), StopCondition::RoundBudget);

    let window_budget = budget / 5;
    let mut window_rates = [0.0f64; 5];
    let mut rounds = 0u64;
    let mut elapsed_ns = 0u128;
    for rate in &mut window_rates {
        let mut window_rounds = 0u64;
        let start = Instant::now();
        loop {
            let mut sim = scenario.build();
            let _ = sim.run(chunk, StopCondition::RoundBudget);
            window_rounds += sim.round();
            if start.elapsed() >= window_budget {
                break;
            }
        }
        let window_ns = start.elapsed().as_nanos();
        *rate = if window_ns == 0 {
            0.0
        } else {
            window_rounds as f64 * 1e9 / window_ns as f64
        };
        rounds += window_rounds;
        elapsed_ns += window_ns;
    }
    window_rates.sort_unstable_by(f64::total_cmp);
    ThroughputSample { case: case.clone(), rounds, elapsed_ns, rounds_per_sec: window_rates[2] }
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
    /// Runs per second (the headline number).
    pub runs_per_sec: f64,
}

/// The runs/sec grid: every workload × all three lifecycles on
/// `n = `[`SWEEP_RING_SIZE`] with a `4n` budget. Each `lifecycle=fresh` row
/// has its `lifecycle=recycled` sibling (quantifying the run-recycling fast
/// path) and each `lifecycle=recycled` row has its `lifecycle=batched`
/// sibling (quantifying the batched path), PR over PR.
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

/// Measures one sweep-lifecycle case: complete runs back to back until the
/// wall-clock budget elapses. Like [`measure`], the budget is split into
/// five sub-windows and the reported `runs_per_sec` is the median window's
/// rate; `runs` and `elapsed_ns` cover all five.
///
/// `lifecycle=batched` cases replay a `DYNRING_BATCH_LANES`-lane group of
/// the identical scenario per generation (one complete run per lane), so
/// their runs/sec is directly comparable to the solo lifecycles. What a
/// `batched` row adds over its `recycled` sibling is the group bookkeeping
/// and one simulation per cell instead of one for all runs.
#[must_use]
pub fn measure_runs(case: &SweepCase, budget: Duration) -> SweepSample {
    let scenario = sweep_case_scenario(case);
    let mut runner = ScenarioRunner::new();
    let mut batch = ScenarioBatchRunner::new();
    let mut report = RunReport::default();
    let group: Vec<Scenario> = match case.lifecycle {
        Lifecycle::Batched => vec![scenario.clone(); batch_lanes_from_env()],
        Lifecycle::Fresh | Lifecycle::Recycled => Vec::new(),
    };
    // Warm-up outside the measurement window (also sizes the recycled
    // simulation's / batch's buffers).
    match case.lifecycle {
        Lifecycle::Fresh => {
            let _ = scenario.run();
        }
        Lifecycle::Recycled => runner.run_into(&scenario, &mut report),
        Lifecycle::Batched => {
            let _ = batch.run_group_reports(&group);
        }
    }

    let window_budget = budget / 5;
    let mut window_rates = [0.0f64; 5];
    let mut runs = 0u64;
    let mut elapsed_ns = 0u128;
    for rate in &mut window_rates {
        let mut window_runs = 0u64;
        let start = Instant::now();
        loop {
            match case.lifecycle {
                Lifecycle::Fresh => {
                    let _ = scenario.run();
                    window_runs += 1;
                }
                Lifecycle::Recycled => {
                    runner.run_into(&scenario, &mut report);
                    window_runs += 1;
                }
                Lifecycle::Batched => {
                    window_runs += batch.run_group_reports(&group).len() as u64;
                }
            }
            if start.elapsed() >= window_budget {
                break;
            }
        }
        let window_ns = start.elapsed().as_nanos();
        *rate = if window_ns == 0 {
            0.0
        } else {
            window_runs as f64 * 1e9 / window_ns as f64
        };
        runs += window_runs;
        elapsed_ns += window_ns;
    }
    window_rates.sort_unstable_by(f64::total_cmp);
    SweepSample { case: case.clone(), runs, elapsed_ns, runs_per_sec: window_rates[2] }
}

/// Pairs every `lifecycle=batched` sample with its `lifecycle=recycled`
/// sibling and returns one comparison line per pair (batched/recycled
/// runs/sec ratio) — the headline of the batched path.
#[must_use]
pub fn batch_comparisons(samples: &[SweepSample]) -> Vec<String> {
    samples
        .iter()
        .filter(|s| s.case.lifecycle == Lifecycle::Batched)
        .filter_map(|batched| {
            let recycled_id = batched.case.id.replace("/lifecycle=batched", "/lifecycle=recycled");
            let recycled = samples.iter().find(|s| s.case.id == recycled_id)?;
            if recycled.runs_per_sec <= 0.0 {
                return None;
            }
            let ratio = batched.runs_per_sec / recycled.runs_per_sec;
            Some(format!(
                "BATCH {}: batched {:.0} vs recycled {:.0} runs/sec ({:.2}x)",
                batched.case.id.replace("/lifecycle=batched", ""),
                batched.runs_per_sec,
                recycled.runs_per_sec,
                ratio
            ))
        })
        .collect()
}

/// Pairs every `lifecycle=recycled` sample with its `lifecycle=fresh`
/// sibling and returns one comparison line per pair (recycled/fresh
/// runs/sec ratio) — the headline of the `sweep_throughput` target.
#[must_use]
pub fn recycle_comparisons(samples: &[SweepSample]) -> Vec<String> {
    samples
        .iter()
        .filter(|s| s.case.lifecycle == Lifecycle::Recycled)
        .filter_map(|recycled| {
            let fresh_id = recycled.case.id.replace("/lifecycle=recycled", "/lifecycle=fresh");
            let fresh = samples.iter().find(|s| s.case.id == fresh_id)?;
            if fresh.runs_per_sec <= 0.0 {
                return None;
            }
            let ratio = recycled.runs_per_sec / fresh.runs_per_sec;
            Some(format!(
                "RECYCLE {}: recycled {:.0} vs fresh {:.0} runs/sec ({:.2}x)",
                recycled.case.id.replace("/lifecycle=recycled", ""),
                recycled.runs_per_sec,
                fresh.runs_per_sec,
                ratio
            ))
        })
        .collect()
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

/// The shared case filter (`DYNRING_BENCH_FILTER`): keep only the cases
/// whose id contains the substring. **Both** bench mains route their grids
/// through this one function, so the knob's contract cannot drift between
/// `engine_throughput` and `sweep_throughput`.
///
/// # Panics
///
/// Like every `DYNRING_BENCH_*` knob (and `DYNRING_THREADS`), a
/// misconfiguration is a hard error, never a silent fallback: a non-unicode
/// value panics, and so does a filter that matches **zero** cases — a typo'd
/// filter silently measuring nothing would overwrite the target's baseline
/// section with an empty list on the next write.
#[must_use]
pub fn filter_cases<T>(cases: Vec<T>, id_of: impl Fn(&T) -> &str) -> Vec<T> {
    let filter = match std::env::var("DYNRING_BENCH_FILTER") {
        Ok(filter) => filter,
        Err(std::env::VarError::NotPresent) => String::new(),
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid DYNRING_BENCH_FILTER: value is not valid unicode")
        }
    };
    if filter.is_empty() {
        return cases;
    }
    let total = cases.len();
    let kept: Vec<T> = cases.into_iter().filter(|case| id_of(case).contains(&filter)).collect();
    assert!(
        !kept.is_empty(),
        "invalid DYNRING_BENCH_FILTER: {filter:?} matches none of the {total} case ids"
    );
    kept
}

/// Whether the ≥10% regression diff fails the bench (exit 1) instead of
/// printing warn-only lines. **Hard by default** since two PRs of warn-only
/// annotation history accumulated (per the ROADMAP's flip criterion); set
/// `DYNRING_BENCH_GATE=soft` to opt back out on noisy runners.
///
/// # Panics
///
/// Any value other than `hard`/`soft` (or unset) is a hard error — a typo'd
/// gate knob silently defaulting would defeat the point of the gate.
#[must_use]
pub fn hard_gate() -> bool {
    match std::env::var("DYNRING_BENCH_GATE").as_deref() {
        Err(_) | Ok("hard") => true,
        Ok("soft") => false,
        Ok(other) => {
            panic!("invalid DYNRING_BENCH_GATE: {other:?} (use \"hard\" or \"soft\")")
        }
    }
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

/// Output path for the baseline: `DYNRING_BENCH_OUT` if set, otherwise
/// `BENCH_engine.json` in the workspace root (cargo runs bench binaries with
/// the *package* root as working directory, so a relative default would land
/// in `crates/bench/`).
#[must_use]
pub fn out_path() -> PathBuf {
    std::env::var_os("DYNRING_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json"),
        PathBuf::from,
    )
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

/// Renders one rounds/sec row as a `cases` section line (no trailing comma).
#[must_use]
pub fn case_json_line(s: &ThroughputSample) -> String {
    format!(
        "{{\"id\": \"{}\", \"synchrony\": \"{}\", \"ring_size\": {}, \"trace\": {}, \
         \"predictions\": {}, \"rounds\": {}, \"elapsed_ns\": {}, \"rounds_per_sec\": {:.1}}}",
        json_escape(&s.case.id),
        json_escape(s.case.synchrony.label()),
        s.case.ring_size,
        s.case.trace,
        s.case.predictions,
        s.rounds,
        s.elapsed_ns,
        s.rounds_per_sec,
    )
}

/// Renders one runs/sec row as a `sweep_cases` section line (no trailing
/// comma).
#[must_use]
pub fn sweep_json_line(s: &SweepSample) -> String {
    format!(
        "{{\"id\": \"{}\", \"workload\": \"{}\", \"ring_size\": {}, \"budget_rounds\": {}, \
         \"lifecycle\": \"{}\", \"runs\": {}, \"elapsed_ns\": {}, \"runs_per_sec\": {:.1}}}",
        json_escape(&s.case.id),
        json_escape(s.case.workload.label()),
        s.case.ring_size,
        s.case.budget_rounds,
        s.case.lifecycle.label(),
        s.runs,
        s.elapsed_ns,
        s.runs_per_sec,
    )
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
    /// Expanded states per second.
    pub states_per_sec: f64,
}

/// Renders one states/sec row as a `model_check_cases` section line (no
/// trailing comma).
#[must_use]
pub fn model_check_json_line(s: &ModelCheckSample) -> String {
    format!(
        "{{\"id\": \"{}\", \"ring_size\": {}, \"threads\": {}, \"runs\": {}, \"states\": {}, \
         \"peak_frontier\": {}, \"dedup_ratio\": {:.2}, \"elapsed_ns\": {}, \
         \"states_per_sec\": {:.1}}}",
        json_escape(&s.id),
        s.ring_size,
        s.threads,
        s.runs,
        s.states,
        s.peak_frontier,
        s.dedup_ratio,
        s.elapsed_ns,
        s.states_per_sec,
    )
}

/// The `(id, states_per_sec)` pairs of freshly measured model-check samples.
#[must_use]
pub fn model_check_rates(samples: &[ModelCheckSample]) -> Vec<(String, f64)> {
    samples.iter().map(|s| (s.id.clone(), s.states_per_sec)).collect()
}

fn render_section(out: &mut String, key: &str, lines: &[String], last: bool) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, line) in lines.iter().enumerate() {
        out.push_str("    ");
        out.push_str(line);
        out.push_str(if i + 1 == lines.len() { "\n" } else { ",\n" });
    }
    out.push_str(if last { "  ]\n" } else { "  ],\n" });
}

/// Renders the full `BENCH_engine.json` document (schema v3): the
/// rounds/sec `cases` section, the runs/sec `sweep_cases` section and the
/// states/sec `model_check_cases` section, each given as pre-rendered row
/// lines so a bench target can refresh its own section while carrying the
/// others' rows over verbatim (see [`extract_section`]). Hand-rolled because
/// the vendored `serde_json` stub does not emit real JSON.
#[must_use]
pub fn render_document(
    case_lines: &[String],
    sweep_lines: &[String],
    model_check_lines: &[String],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dynring-engine-throughput/v3\",\n");
    out.push_str(
        "  \"generated_by\": \"cargo bench engine_throughput + sweep_throughput + model_check_throughput\",\n",
    );
    render_section(&mut out, "cases", case_lines, false);
    render_section(&mut out, "sweep_cases", sweep_lines, false);
    render_section(&mut out, "model_check_cases", model_check_lines, true);
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
pub fn extract_section(json: &str, key: &str) -> Vec<String> {
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

/// Writes the full document to `path`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_document(
    path: &Path,
    case_lines: &[String],
    sweep_lines: &[String],
    model_check_lines: &[String],
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_document(case_lines, sweep_lines, model_check_lines).as_bytes())
}

/// Parses a previous `BENCH_engine.json` into `(id, rate)` pairs, where the
/// rate is `rounds_per_sec` for `cases` rows, `runs_per_sec` for
/// `sweep_cases` rows and `states_per_sec` for `model_check_cases` rows
/// (the ids of the sections never collide — sweep ids carry the `sweep/`
/// prefix, model-check ids the `mc/` prefix).
///
/// The document is emitted with exactly one row object per line, so a
/// line-oriented scan is exact for our own files (the vendored `serde_json`
/// stub cannot parse real JSON). Unrecognisable lines are skipped, so a
/// hand-edited or truncated baseline degrades to a partial diff instead of
/// an error.
#[must_use]
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
    json.lines()
        .filter_map(|line| {
            let id = field(line, "\"id\": \"")?.trim_end_matches('"').to_owned();
            let rate = field(line, "\"rounds_per_sec\": ")
                .or_else(|| field(line, "\"runs_per_sec\": "))
                .or_else(|| field(line, "\"states_per_sec\": "))?
                .parse::<f64>()
                .ok()?;
            Some((id, rate))
        })
        .collect()
}

/// The `(id, rounds_per_sec)` pairs of freshly measured rounds/sec samples
/// (the shape [`regressions`] diffs).
#[must_use]
pub fn case_rates(samples: &[ThroughputSample]) -> Vec<(String, f64)> {
    samples.iter().map(|s| (s.case.id.clone(), s.rounds_per_sec)).collect()
}

/// The `(id, runs_per_sec)` pairs of freshly measured runs/sec samples.
#[must_use]
pub fn sweep_rates(samples: &[SweepSample]) -> Vec<(String, f64)> {
    samples.iter().map(|s| (s.case.id.clone(), s.runs_per_sec)).collect()
}

/// Compares fresh `(id, rate)` pairs against a previous baseline and returns
/// one line per case whose rate dropped by at least `threshold` (fractional:
/// `0.10` = 10%). Cases without a positive rate in the previous baseline
/// are not regressions; [`ungated`] names them. `unit` names the rate in the
/// printed line (`"rounds/sec"` or `"runs/sec"`).
#[must_use]
pub fn regressions(
    fresh: &[(String, f64)],
    previous: &[(String, f64)],
    threshold: f64,
    unit: &str,
) -> Vec<String> {
    fresh
        .iter()
        .filter_map(|(id, rate)| {
            let (_, before) = previous.iter().find(|(prev_id, _)| prev_id == id)?;
            if *before <= 0.0 {
                return None;
            }
            let ratio = rate / before;
            (ratio <= 1.0 - threshold).then(|| {
                format!(
                    "REGRESSION {}: {:.2}M -> {:.2}M {unit} ({:+.1}%)",
                    id,
                    before / 1e6,
                    rate / 1e6,
                    (ratio - 1.0) * 100.0
                )
            })
        })
        .collect()
}

/// One `UNGATED <id>` line per fresh row that the previous baseline has no
/// positive rate for: [`regressions`] cannot compare those rows, so a
/// renamed or new row would otherwise drop out of the gate unnoticed.
#[must_use]
pub fn ungated(fresh: &[(String, f64)], previous: &[(String, f64)]) -> Vec<String> {
    fresh
        .iter()
        .filter(|(id, _)| !previous.iter().any(|(prev_id, rate)| prev_id == id && *rate > 0.0))
        .map(|(id, _)| format!("UNGATED {id}"))
        .collect()
}

/// The gate every bench target ends with: diffs its fresh `(id, rate)`
/// pairs against the previous baseline, prints an [`ungated`] line per row
/// the baseline cannot gate and a [`regressions`] line per drop of 10% or
/// more, and exits 1 on any drop under the [`hard_gate`]. Without a
/// previous baseline there is nothing to diff and nothing is printed but a
/// note.
pub fn gate(fresh: &[(String, f64)], previous: &[(String, f64)], unit: &str) {
    if previous.is_empty() {
        println!("no previous baseline to diff against");
        return;
    }
    for line in ungated(fresh, previous) {
        println!("{line}");
    }
    let drops = regressions(fresh, previous, 0.10, unit);
    if drops.is_empty() {
        println!("no regressions >= 10% against the previous baseline");
        return;
    }
    for line in &drops {
        println!("{line}");
    }
    if hard_gate() {
        eprintln!(
            "bench gate (hard by default; DYNRING_BENCH_GATE=soft to opt out): failing on {} regression(s) >= 10%",
            drops.len()
        );
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

    #[test]
    fn standard_grid_covers_both_synchrony_families_and_trace_modes() {
        let cases = standard_cases();
        // Per family per size: trace=off, trace=on and prediction-on.
        assert_eq!(cases.len(), 2 * THROUGHPUT_SIZES.len() * 3);
        assert!(cases.iter().any(|c| c.synchrony == SynchronyCase::Fsync && !c.trace));
        assert!(cases.iter().any(|c| c.synchrony == SynchronyCase::SsyncPt && c.trace));
        assert!(cases
            .iter()
            .any(|c| c.synchrony == SynchronyCase::Fsync && c.predictions));
        assert!(cases
            .iter()
            .any(|c| c.synchrony == SynchronyCase::SsyncPt && c.predictions));
        assert!(cases.iter().all(|c| c.predictions == c.id.contains("/pred=on")));
        assert!(cases.iter().all(|c| c.trace == c.id.contains("/trace=on")));
        let ids: std::collections::HashSet<&str> =
            cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), cases.len(), "case ids must be unique");
    }

    #[test]
    fn measure_counts_rounds_for_a_tiny_budget() {
        let sample = measure(&case("fsync/n=8/trace=off", false), Duration::from_millis(5), 64);
        assert!(sample.rounds >= 64);
        assert!(sample.rounds_per_sec > 0.0);
    }

    #[test]
    fn prediction_cases_install_an_omniscient_adversary() {
        let scenario = case_scenario(&case("fsync/n=8/trace=off/pred=on", true));
        assert_eq!(scenario.adversary, AdversaryKind::PreventMeeting);
        let sample =
            measure(&case("fsync/n=8/trace=off/pred=on", true), Duration::from_millis(5), 64);
        assert!(sample.rounds >= 64);
    }

    fn sweep_sample(id: &str, runs_per_sec: f64) -> SweepSample {
        SweepSample {
            case: SweepCase {
                id: id.into(),
                workload: SweepWorkload::FsyncWitness,
                ring_size: SWEEP_RING_SIZE,
                budget_rounds: SWEEP_BUDGET_ROUNDS,
                lifecycle: if id.ends_with("lifecycle=recycled") {
                    Lifecycle::Recycled
                } else if id.ends_with("lifecycle=batched") {
                    Lifecycle::Batched
                } else {
                    Lifecycle::Fresh
                },
            },
            runs: 10,
            elapsed_ns: 10,
            runs_per_sec,
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
            states_per_sec,
        }
    }

    #[test]
    fn rendered_document_has_the_expected_v3_shape() {
        let case_line = case_json_line(&ThroughputSample {
            case: case("fsync/n=8/trace=off", false),
            rounds: 1000,
            elapsed_ns: 500,
            rounds_per_sec: 123.456,
        });
        let sweep_line = sweep_json_line(&sweep_sample(
            "sweep/fsync-witness/n=64/budget=256/lifecycle=recycled",
            4000.0,
        ));
        let mc_line = model_check_json_line(&mc_sample("mc/t3r2/n=7/threads=1", 5e6));
        let json = render_document(&[case_line], &[sweep_line], &[mc_line]);
        assert!(json.contains("\"schema\": \"dynring-engine-throughput/v3\""));
        assert!(json.contains("\"ring_size\": 8"));
        assert!(json.contains("\"rounds_per_sec\": 123.5"));
        assert!(json.contains("\"trace\": false"));
        assert!(json.contains("\"predictions\": false"));
        assert!(!json.contains("\"dispatch\""));
        assert!(json.contains("\"sweep_cases\": ["));
        assert!(json.contains("\"lifecycle\": \"recycled\""));
        assert!(json.contains("\"budget_rounds\": 256"));
        assert!(json.contains("\"runs_per_sec\": 4000.0"));
        assert!(json.contains("\"model_check_cases\": ["));
        assert!(!json.contains("\"key\""));
        assert!(json.contains("\"peak_frontier\": 900"));
        assert!(json.contains("\"dedup_ratio\": 4.20"));
        assert!(json.contains("\"states_per_sec\": 5000000.0"));
    }

    #[test]
    fn sections_survive_extraction_and_rerendering() {
        let case_line = case_json_line(&ThroughputSample {
            case: case("fsync/n=8/trace=off", false),
            rounds: 1000,
            elapsed_ns: 500,
            rounds_per_sec: 2_000_000.0,
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
    fn baseline_roundtrips_through_parse() {
        let case_lines = vec![case_json_line(&ThroughputSample {
            case: case("fsync/n=8/trace=off", false),
            rounds: 1000,
            elapsed_ns: 500,
            rounds_per_sec: 2_000_000.0,
        })];
        let sweep_lines = vec![sweep_json_line(&sweep_sample(
            "sweep/fsync-witness/n=64/budget=256/lifecycle=recycled",
            800_000.0,
        ))];
        let mc_lines =
            vec![model_check_json_line(&mc_sample("mc/t3r2/n=7/threads=1", 3e6))];
        let parsed = parse_baseline(&render_document(&case_lines, &sweep_lines, &mc_lines));
        assert_eq!(
            parsed,
            vec![
                ("fsync/n=8/trace=off".to_owned(), 2_000_000.0),
                (
                    "sweep/fsync-witness/n=64/budget=256/lifecycle=recycled".to_owned(),
                    800_000.0
                ),
                ("mc/t3r2/n=7/threads=1".to_owned(), 3_000_000.0),
            ]
        );
        assert!(parse_baseline("not json at all").is_empty());
    }

    #[test]
    fn regressions_flag_only_significant_drops() {
        let previous = vec![
            ("a".to_owned(), 1_000_000.0),
            ("b".to_owned(), 1_000_000.0),
            ("c".to_owned(), 0.0),
        ];
        let fresh = vec![
            ("a".to_owned(), 950_000.0), // -5%: fine
            ("b".to_owned(), 800_000.0), // -20%: regression
            ("c".to_owned(), 100.0),     // zero baseline: ignored
            ("d".to_owned(), 1.0),       // new case: ignored
        ];
        let lines = regressions(&fresh, &previous, 0.10, "rounds/sec");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains('b'), "{lines:?}");
        assert!(lines[0].contains("-20.0%"), "{lines:?}");
        assert!(lines[0].contains("rounds/sec"), "{lines:?}");
    }

    #[test]
    fn ungated_names_fresh_rows_the_baseline_cannot_gate() {
        let previous = vec![
            ("kept".to_owned(), 1_000_000.0),
            ("zero".to_owned(), 0.0),
            ("old/dispatch=enum".to_owned(), 1_000_000.0),
        ];
        let fresh = vec![
            ("kept".to_owned(), 900_000.0),
            ("zero".to_owned(), 100.0),
            ("old".to_owned(), 1_000_000.0),
        ];
        assert_eq!(ungated(&fresh, &previous), vec!["UNGATED zero", "UNGATED old"]);
        // Baseline rows nobody measured this run are not ungated rows.
        assert!(ungated(&fresh[..1], &previous).is_empty());
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
    fn recycle_comparisons_pair_lifecycles() {
        let lines = recycle_comparisons(&[
            sweep_sample("sweep/fsync-witness/n=64/budget=256/lifecycle=fresh", 1000.0),
            sweep_sample("sweep/fsync-witness/n=64/budget=256/lifecycle=recycled", 3500.0),
        ]);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("(3.50x)"), "{}", lines[0]);
        assert!(lines[0].contains("sweep/fsync-witness/n=64/budget=256"), "{}", lines[0]);
    }

    #[test]
    fn batch_comparisons_pair_batched_with_recycled() {
        let lines = batch_comparisons(&[
            sweep_sample("sweep/fsync-witness/n=64/budget=256/lifecycle=fresh", 1000.0),
            sweep_sample("sweep/fsync-witness/n=64/budget=256/lifecycle=recycled", 2000.0),
            sweep_sample("sweep/fsync-witness/n=64/budget=256/lifecycle=batched", 3000.0),
        ]);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("(1.50x)"), "{}", lines[0]);
        assert!(lines[0].contains("batched"), "{}", lines[0]);
        assert!(lines[0].contains("sweep/fsync-witness/n=64/budget=256"), "{}", lines[0]);
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
    fn measure_runs_completes_runs_for_a_tiny_budget() {
        for case in sweep_cases() {
            let sample = measure_runs(&case, Duration::from_millis(5));
            assert!(sample.runs >= 5, "{}: {} runs", case.id, sample.runs);
            assert!(sample.runs_per_sec > 0.0, "{}", case.id);
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
