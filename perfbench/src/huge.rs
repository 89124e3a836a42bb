//! `huge_battery`: the `feasibility_map --huge` battery on a two-thread
//! [`BatchRunner`] — Tables 1–4, the figures and the lower-bound rows.
//!
//! Nearly all of its time is Table 2's dense `LandmarkNoChirality` sweep:
//! long FSYNC runs on batched lanes, adversary predictions included. It never
//! touches the model checker or the journal.

use crate::{metric, nanos, ratio, secs, Checks, Metric, Work, Workload, THREADS};
use dynring_analysis::batch::{batch_lanes_from_env, group_ranges};
use dynring_analysis::sweeps::{
    adversary_suite, orientation_choices, round_budget, start_placements_with,
};
use dynring_analysis::{
    figures, lower_bounds, tables, AdversaryKind, BatchRunner, PlacementDensity, RowResult,
    Scenario, ScenarioBatchRunner, ScenarioRunner,
};
use dynring_core::Algorithm;
use dynring_engine::{RunReport, StopCondition};
use dynring_model::TerminationKind;
use std::time::Instant;

/// Ring sizes, seeds and density of one battery; the fields of the
/// `feasibility_map` example's `MapConfig`, which is not library API.
struct Config {
    fsync_sizes: Vec<usize>,
    ssync_sizes: Vec<usize>,
    seeds: u64,
    impossibility_n: usize,
    ssync_impossibility_n: usize,
    figures_n: usize,
    lower_bound_n: usize,
    density: PlacementDensity,
}

impl Config {
    /// `MapConfig::huge()`.
    fn huge() -> Self {
        Config {
            fsync_sizes: vec![8, 16, 32, 64, 128],
            ssync_sizes: vec![6, 9, 12, 16],
            seeds: 4,
            impossibility_n: 24,
            ssync_impossibility_n: 12,
            figures_n: 16,
            lower_bound_n: 16,
            density: PlacementDensity::Dense,
        }
    }

    /// `MapConfig::huge()` at smoke scale (what `DYNRING_HUGE_SMOKE=1`
    /// selects): the warm-up, touching every code path of the real battery.
    fn smoke() -> Self {
        Config {
            fsync_sizes: vec![6, 9, 12],
            ssync_sizes: vec![6, 8],
            seeds: 2,
            impossibility_n: 16,
            ssync_impossibility_n: 10,
            figures_n: 12,
            lower_bound_n: 12,
            density: PlacementDensity::Dense,
        }
    }
}

/// Every row the `feasibility_map` example prints, computed exactly as it
/// computes them.
fn battery_rows(runner: &BatchRunner, config: &Config) -> Vec<RowResult> {
    let mut rows = tables::table1_with(runner, config.impossibility_n);
    rows.extend(tables::table2_battery(
        runner,
        &config.fsync_sizes,
        config.seeds,
        config.density,
    ));
    rows.extend(tables::table3_with(runner, config.ssync_impossibility_n));
    rows.extend(tables::table4_battery(
        runner,
        &config.ssync_sizes,
        config.seeds,
        config.density,
    ));
    rows.extend(figures::all_figures_with(runner, config.figures_n));
    rows.push(lower_bounds::theorem4(config.lower_bound_n));
    rows.extend(lower_bounds::theorem13_15_battery(
        runner,
        &config.ssync_sizes,
        config.seeds,
        config.density,
    ));
    rows
}

/// Whether a row aggregates one of the sweep batteries [`sweep_cells`]
/// re-enumerates.
fn is_sweep_row(row: &RowResult) -> bool {
    row.id.starts_with("T2-")
        || row.id.starts_with("T4-")
        || row.id == "LB-T13"
        || row.id == "LB-T15"
}

/// The cells of every sweep battery in the config (Table 2, Table 4 and the
/// Theorem 13/15 rows), enumerated in the library's canonical order
/// (sizes → seeds → adversaries → placements → orientations) from the public
/// sweep helpers.
fn sweep_cells(config: &Config) -> Vec<Scenario> {
    let fsync: [fn(usize) -> Algorithm; 3] = [
        |n| Algorithm::KnownBound { upper_bound: n },
        |_| Algorithm::LandmarkChirality,
        |_| Algorithm::LandmarkNoChirality,
    ];
    let ssync: [fn(usize) -> Algorithm; 8] = [
        |n| Algorithm::PtBoundChirality { upper_bound: n },
        |_| Algorithm::PtLandmarkChirality,
        |n| Algorithm::PtBoundNoChirality { upper_bound: n },
        |_| Algorithm::PtLandmarkNoChirality,
        |n| Algorithm::EtBoundNoChirality { ring_size: n },
        |_| Algorithm::EtUnconscious,
        // Theorems 13 and 15 sweep the two chirality PT algorithms again.
        |n| Algorithm::PtBoundChirality { upper_bound: n },
        |_| Algorithm::PtLandmarkChirality,
    ];
    let placements = |n, agents| start_placements_with(n, agents, config.density);
    let mut cells = Vec::new();
    for make in fsync {
        for &n in &config.fsync_sizes {
            for seed in 0..config.seeds {
                push_sweep_cells(&mut cells, make(n), n, seed * 97 + 13, &placements, None);
            }
        }
    }
    for make in ssync {
        for &n in &config.ssync_sizes {
            for seed in 0..config.seeds {
                let scheduler = |_: usize| seed * 31 + 7;
                push_sweep_cells(
                    &mut cells,
                    make(n),
                    n,
                    seed * 97 + 13,
                    &placements,
                    Some(&scheduler),
                );
            }
        }
    }
    cells
}

/// Appends the cells one sweep gives `algorithm` at ring size `n`, in the
/// library's order (adversaries → placements → orientations): the
/// `adversary_suite` of `adversary_seed`, the start `placements(n, agents)`
/// and every orientation choice, stopped by the termination the algorithm
/// promises. `scheduler_seed` is `None` for FSYNC cells; for SSYNC cells it
/// maps the index the cell gets in `cells` to its scheduler seed.
pub fn push_sweep_cells(
    cells: &mut Vec<Scenario>,
    algorithm: Algorithm,
    n: usize,
    adversary_seed: u64,
    placements: &dyn Fn(usize, usize) -> Vec<Vec<usize>>,
    scheduler_seed: Option<&dyn Fn(usize) -> u64>,
) {
    let agents = algorithm.required_agents();
    let stop = match algorithm.termination_kind() {
        TerminationKind::Explicit => StopCondition::AllTerminated,
        TerminationKind::Partial => StopCondition::ExploredAndPartialTermination,
        TerminationKind::Unconscious => StopCondition::Explored,
    };
    for adversary in adversary_suite(n, adversary_seed) {
        for starts in placements(n, agents) {
            for orientations in orientation_choices(&algorithm, agents) {
                let base = match scheduler_seed {
                    Some(seed) => Scenario::ssync(n, algorithm, seed(cells.len())),
                    None => Scenario::fsync(n, algorithm),
                };
                cells.push(
                    base.with_starts(starts.clone())
                        .with_orientations(orientations)
                        .with_adversary(adversary.clone())
                        .with_stop(stop)
                        .with_max_rounds(round_budget(&algorithm, n)),
                );
            }
        }
    }
}

/// The `huge_battery` workload.
pub struct HugeBattery {
    runner: BatchRunner,
    config: Config,
    /// Runs aggregated by the sweep rows of the last pass.
    swept_runs: u64,
}

impl HugeBattery {
    /// Set-up: the two-thread runner, and a smoke-scale battery as warm-up
    /// (its rows are checked like the real ones).
    pub fn setup(checks: &mut Checks) -> Self {
        let runner = BatchRunner::new(THREADS);
        for row in battery_rows(&runner, &Config::smoke()) {
            checks.check(row.holds, || {
                format!("warm-up row {} violated: {}", row.id, row.observed)
            });
        }
        HugeBattery {
            runner,
            config: Config::huge(),
            swept_runs: 0,
        }
    }
}

impl Workload for HugeBattery {
    fn pass(&mut self, checks: &mut Checks) -> Work {
        let rows = battery_rows(&self.runner, &self.config);
        for row in &rows {
            checks.check(row.holds, || {
                format!("row {} violated: {}", row.id, row.observed)
            });
        }
        self.swept_runs = rows
            .iter()
            .filter(|r| is_sweep_row(r))
            .map(|r| r.runs as u64)
            .sum();
        Work {
            rounds: 0,
            states: 0,
            cells: rows.iter().map(|r| r.runs as u64).sum(),
        }
    }

    /// The rows carry no round counts, so the sweep batteries — all but a
    /// sliver of the pass — are re-run once, untimed, through
    /// `BatchRunner::run_reports` to count their rounds. The re-enumeration
    /// must cover exactly the runs the rows aggregated.
    fn finish(&mut self, work: Work, checks: &mut Checks) -> Work {
        let cells = sweep_cells(&self.config);
        checks.check(cells.len() as u64 == self.swept_runs, || {
            format!(
                "re-enumerated {} sweep cells, the rows aggregated {} runs",
                cells.len(),
                self.swept_runs
            )
        });
        let rounds: u64 = self
            .runner
            .run_reports(&cells)
            .iter()
            .map(|r| r.rounds)
            .sum();
        Work {
            rounds,
            states: rounds,
            cells: work.cells,
        }
    }
}

/// The solo-versus-batched comparison samples every this-many-th FSYNC lane
/// group: about an eighth of the sweep's rounds, a few seconds on one thread.
const SAMPLE_STRIDE: usize = 8;

/// The engine and pool layers under the battery's sweeps.
///
/// The sweep cells run twice on the two-thread pool: once through
/// `BatchRunner::run_reports` (untraced) and once group by group with a span
/// around each `ScenarioBatchRunner::run_group`. Every eighth FSYNC lane
/// group is then replayed on one thread, batched and cell by cell through
/// `ScenarioRunner::run_into`.
pub fn trace(checks: &mut Checks) -> Vec<Metric> {
    let config = Config::huge();
    let cells = sweep_cells(&config);
    let ranges = group_ranges(&cells, |s| s, batch_lanes_from_env());
    let runner = BatchRunner::new(THREADS);

    let start = Instant::now();
    let reference = runner.run_reports(&cells);
    let untraced_s = secs(start);

    let start = Instant::now();
    let groups: Vec<(Vec<RunReport>, u64)> =
        runner.run_map_with(&ranges, ScenarioBatchRunner::new, |worker, range| {
            let t0 = Instant::now();
            let reports = worker.run_group(&cells[range.clone()]);
            (reports, nanos(t0))
        });
    let traced_s = secs(start);

    let mut busy_ns = 0u64;
    let (mut batched_ns, mut batched_rounds) = (0u64, 0u64);
    for (range, (reports, span)) in ranges.iter().zip(&groups) {
        checks.check(reports[..] == reference[range.clone()], || {
            format!("traced group {range:?} differs from run_reports")
        });
        busy_ns += span;
        if lockstep(&cells[range.clone()]) {
            batched_ns += span;
            batched_rounds += reports.iter().map(|r| r.rounds).sum::<u64>();
        }
    }

    // Solo-versus-batched on a fixed sample, both on this thread.
    let mut batch = ScenarioBatchRunner::new();
    let mut solo = ScenarioRunner::new();
    let mut report = RunReport::default();
    let (mut sample_batched_ns, mut sample_rounds) = (0u64, 0u64);
    let (mut pred_ns, mut pred_rounds, mut nopred_ns, mut nopred_rounds) = (0u64, 0u64, 0u64, 0u64);
    let sampled = ranges
        .iter()
        .filter(|r| lockstep(&cells[(*r).clone()]))
        .step_by(SAMPLE_STRIDE);
    for range in sampled {
        let group = &cells[range.clone()];
        let t0 = Instant::now();
        let batched = batch.run_group(group);
        sample_batched_ns += nanos(t0);
        for (cell, expected) in group.iter().zip(&batched) {
            let t0 = Instant::now();
            solo.run_into(cell, &mut report);
            let span = nanos(t0);
            checks.check(report == *expected, || {
                format!("solo replay of {} differs", cell.label())
            });
            sample_rounds += report.rounds;
            if cell.adversary == AdversaryKind::PreventMeeting {
                pred_ns += span;
                pred_rounds += report.rounds;
            } else {
                nopred_ns += span;
                nopred_rounds += report.rounds;
            }
        }
    }
    checks.check(pred_rounds > 0 && nopred_rounds > 0, || {
        "the solo sample must hold PreventMeeting cells and other cells".to_owned()
    });
    let solo_ns_per_round = ratio((pred_ns + nopred_ns) as f64, sample_rounds as f64);
    let sample_batched_ns_per_round = ratio(sample_batched_ns as f64, sample_rounds as f64);
    eprintln!(
        "huge trace: {} cells in {} groups, untraced {untraced_s:.3} s, traced {traced_s:.3} s, \
         solo sample {sample_rounds} rounds",
        cells.len(),
        ranges.len()
    );

    vec![
        metric(
            "engine.batched.ns_per_round",
            ratio(batched_ns as f64, batched_rounds as f64),
            "ns",
        ),
        metric("engine.solo.ns_per_round", solo_ns_per_round, "ns"),
        metric(
            "engine.batched_over_solo",
            ratio(sample_batched_ns_per_round, solo_ns_per_round),
            "ratio",
        ),
        metric(
            "engine.pred.ns_per_round",
            ratio(pred_ns as f64, pred_rounds as f64),
            "ns",
        ),
        metric(
            "engine.nopred.ns_per_round",
            ratio(nopred_ns as f64, nopred_rounds as f64),
            "ns",
        ),
        metric(
            "analysis.pool.busy_frac",
            ratio(busy_ns as f64 * 1e-9, THREADS as f64 * traced_s),
            "ratio",
        ),
        metric(
            "bench.trace_overhead.huge_battery",
            traced_s / untraced_s,
            "ratio",
        ),
    ]
}

/// Whether a lane group rides the batched lockstep kernel (a multi-cell
/// FSYNC group) rather than the solo fallback.
fn lockstep(group: &[Scenario]) -> bool {
    group.len() > 1 && group.iter().all(Scenario::prefers_lockstep)
}
