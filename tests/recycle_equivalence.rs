//! Recycle ≡ fresh-build equivalence.
//!
//! The run-recycling fast path (`ScenarioRunner` + `Simulation::recycle`)
//! re-initialises one simulation in place instead of rebuilding it per run.
//! Nothing observable may depend on which lifecycle executed a scenario:
//!
//! * the **golden digests** pinned from the pre-refactor engine
//!   (`tests/determinism.rs`) must come out of the recycled path unchanged —
//!   one shared runner replays all nine scenarios back to back, so every
//!   digest is computed on a simulation recycled across shape changes;
//! * a **battery sweep** drives the full algorithm catalogue ×
//!   FSYNC/SSYNC × the adversary suite × mixed ring sizes through
//!   ONE recycled runner, comparing every `RunReport` (and trace digest,
//!   where traces are on) against a fresh `Scenario` build;
//! * a **proptest** replays random cell sequences, so arbitrary recycle
//!   orders (shape growth, shrinkage, policy churn, trace toggling) keep the
//!   equivalence.

mod common;

use common::{fnv, golden_scenarios};
use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioRunner};
use dynring_analysis::sweeps::adversary_suite;
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, StopCondition};
use dynring_engine::trace::Trace;
use dynring_model::TerminationKind;
use proptest::prelude::*;

fn execution_digest(report: &RunReport, trace: &Trace) -> u64 {
    fnv(&format!("{report:?}|{trace:?}"))
}

/// Runs the scenario on the fresh-build path, returning the report and the
/// trace digest (if the scenario records one).
fn fresh_run(scenario: &Scenario) -> (RunReport, Option<u64>) {
    let mut sim = scenario.build();
    let report = sim.run(scenario.max_rounds, scenario.stop);
    let digest = sim.trace().map(|trace| execution_digest(&report, trace));
    (report, digest)
}

/// Runs the scenario on the recycled runner, returning the same pair.
fn recycled_run(runner: &mut ScenarioRunner, scenario: &Scenario) -> (RunReport, Option<u64>) {
    let report = runner.run(scenario);
    let digest = runner.trace().map(|trace| execution_digest(&report, trace));
    (report, digest)
}

#[test]
fn golden_digests_come_out_of_the_recycled_lifecycle_unchanged() {
    // One runner for all nine scenarios: every digest after the first is
    // computed on a simulation recycled across algorithm, ring-size,
    // scheduler and adversary changes.
    let mut runner = ScenarioRunner::new();
    for (name, scenario, expected) in golden_scenarios() {
        let (report, digest) = recycled_run(&mut runner, &scenario);
        let digest = digest.expect("golden scenarios record traces");
        assert_eq!(
            digest, expected,
            "{name}: recycled execution drifted from the pinned pre-refactor digest \
             (got {digest:#018x}, pinned {expected:#018x}; rounds={})",
            report.rounds
        );
    }
    // Replaying the whole battery on the same (now well-worn) runner must
    // reproduce every digest again.
    for (name, scenario, expected) in golden_scenarios() {
        let (_, digest) = recycled_run(&mut runner, &scenario);
        assert_eq!(digest, Some(expected), "{name}: second recycled replay diverged");
    }
}

/// One battery cell: the catalogue algorithm under either synchrony base,
/// one adversary, one ring size, alternating trace recording.
fn battery_cell(
    algorithm: Algorithm,
    ssync: bool,
    adversary: AdversaryKind,
    n: usize,
    index: usize,
) -> Scenario {
    let base = if ssync {
        Scenario::ssync(n, algorithm, 31 * index as u64 + 7)
    } else {
        Scenario::fsync(n, algorithm)
    };
    let stop = match algorithm.termination_kind() {
        TerminationKind::Explicit => StopCondition::AllTerminated,
        TerminationKind::Partial => StopCondition::ExploredAndPartialTermination,
        TerminationKind::Unconscious => StopCondition::Explored,
    };
    let budget = base.max_rounds.min(1500);
    let mut scenario = base
        .with_adversary(adversary)
        .with_stop(stop)
        .with_max_rounds(budget);
    if index.is_multiple_of(3) {
        scenario = scenario.with_trace();
    }
    scenario
}

#[test]
fn the_full_catalogue_battery_is_lifecycle_invariant() {
    // Every catalogue algorithm × FSYNC/SSYNC × the adversary suite × mixed
    // ring sizes through ONE recycled runner: shape, policy and trace churn
    // on every consecutive pair of cells.
    let mut runner = ScenarioRunner::new();
    let mut cells = 0usize;
    for (a, &n) in [5usize, 8, 11].iter().enumerate() {
        for (b, algorithm) in Algorithm::full_catalog(n).into_iter().enumerate() {
            for ssync in [false, true] {
                for (c, adversary) in adversary_suite(n, (a + b) as u64).into_iter().enumerate() {
                    cells += 1;
                    let scenario = battery_cell(algorithm, ssync, adversary, n, a + b + c);
                    let fresh = fresh_run(&scenario);
                    let recycled = recycled_run(&mut runner, &scenario);
                    assert_eq!(
                        fresh,
                        recycled,
                        "lifecycle divergence: {} (ssync={ssync}, trace={})",
                        scenario.label(),
                        scenario.record_trace,
                    );
                }
            }
        }
    }
    assert!(cells >= 400, "the battery should cover the full catalogue ({cells} cells)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary cell sequences replay identically through one recycled
    /// runner, whatever the order of shape growth/shrinkage, scheduler and
    /// adversary churn and trace toggling (the per-cell picks are derived
    /// from the seed through an LCG — the vendored proptest stub samples
    /// plain integer ranges).
    #[test]
    fn random_cell_sequences_are_lifecycle_invariant(
        seed in 0u64..1_000_000_000,
        length in 1usize..6,
        ssync_bit in 0usize..2,
    ) {
        let mut runner = ScenarioRunner::new();
        let mut state = seed;
        let mut draw = |span: usize| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as usize) % span
        };
        for _ in 0..length {
            let n = 5 + draw(7);
            let algorithm = Algorithm::full_catalog(n)[draw(12)];
            let adversary = adversary_suite(n, draw(64) as u64)[draw(6)].clone();
            let scenario = battery_cell(algorithm, ssync_bit == 1, adversary, n, draw(12));
            let fresh = fresh_run(&scenario);
            let recycled = recycled_run(&mut runner, &scenario);
            prop_assert_eq!(fresh, recycled, "lifecycle divergence: {}", scenario.label());
        }
    }

    /// Rerunning the *same* cell on a warm runner (the benchmark's
    /// zero-allocation regime: cached spec, policy reset only) replays the
    /// fresh execution every time.
    #[test]
    fn same_cell_reruns_are_lifecycle_invariant(
        n in 5usize..12,
        algorithm_index in 0usize..12,
        adversary_index in 0usize..6,
        reruns in 2usize..5,
    ) {
        let algorithm = Algorithm::full_catalog(n)[algorithm_index];
        let adversary = adversary_suite(n, 3)[adversary_index].clone();
        let scenario = battery_cell(algorithm, false, adversary, n, 0);
        let fresh = fresh_run(&scenario);
        let mut runner = ScenarioRunner::new();
        for rerun in 0..reruns {
            let recycled = recycled_run(&mut runner, &scenario);
            prop_assert_eq!(&fresh, &recycled, "rerun {} diverged: {}", rerun, scenario.label());
        }
    }
}
