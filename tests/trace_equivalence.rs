//! Stored trace ≡ eager row-of-structs equivalence.
//!
//! The trace layer stores executions as one head per round and one plain
//! entry per agent per round, with interned state labels rendered lazily;
//! `RoundRecord` / `AgentRoundRecord` are only materialized views. Nothing
//! observable may depend on the representation:
//!
//! * the **golden digests** pinned from the row-of-structs engine (shared
//!   with `tests/determinism.rs`) must come out of the view unchanged,
//!   and each golden trace must render byte-identical to an eager
//!   `Trace { rounds: [...] }` built from its own materialized records;
//! * a **battery** drives the full 12-entry catalogue × FSYNC/SSYNC × the
//!   adversary suite with tracing on, checking view coherence on every cell:
//!   eager-form rendering, `round_at`/`round`/`agent` index lookups against
//!   the iterator, the invariant checker, and the report-derived round
//!   statistics;
//! * **proptests** replay random trace-on cell sequences and same-cell
//!   reruns through one recycled runner, so arbitrary recycle orders keep
//!   the materialized records identical to fresh builds.

mod common;

use common::{fnv, golden_scenarios};
use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioRunner};
use dynring_analysis::sweeps::adversary_suite;
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, StopCondition};
use dynring_engine::trace::{RoundRecord, Trace};
use dynring_model::TerminationKind;
use proptest::prelude::*;

/// Materializes every round and checks the trace's view against it:
/// the Debug rendering must equal the pre-refactor eager form (a struct
/// holding one plain `rounds` vector), and the random-access paths —
/// `round_at` by index, `round` by round number, `agent` by id — must agree
/// with the iterator on every record.
fn assert_view_coherent(trace: &Trace, label: &str) -> Vec<RoundRecord> {
    let rounds: Vec<RoundRecord> = trace.rounds().collect();
    assert_eq!(trace.len(), rounds.len(), "{label}: len() vs rounds()");
    assert_eq!(trace.is_empty(), rounds.is_empty(), "{label}: is_empty()");
    assert_eq!(
        format!("{trace:?}"),
        format!("Trace {{ rounds: {rounds:?} }}"),
        "{label}: Debug drifted from the eager row-of-structs form"
    );
    for (index, record) in rounds.iter().enumerate() {
        assert_eq!(
            trace.round_at(index).as_ref(),
            Some(record),
            "{label}: round_at({index})"
        );
        assert_eq!(
            trace.round(record.round).as_ref(),
            Some(record),
            "{label}: round({}) lookup",
            record.round
        );
        for agent in &record.agents {
            assert_eq!(
                record.agent(agent.id),
                Some(agent),
                "{label}: agent({:?}) lookup in round {}",
                agent.id,
                record.round
            );
        }
    }
    assert!(trace.round(0).is_none(), "{label}: rounds are 1-based");
    rounds
}

fn execution_digest(report: &RunReport, trace: &Trace) -> u64 {
    fnv(&format!("{report:?}|{trace:?}"))
}

/// Fresh solo run of a trace-on scenario: report plus materialized rounds
/// plus the execution digest (the coherence checks run on every call).
fn fresh_trace_run(scenario: &Scenario) -> (RunReport, Vec<RoundRecord>, u64) {
    let mut sim = scenario.build();
    let report = sim.run(scenario.max_rounds, scenario.stop);
    let trace = sim.trace().expect("trace-on scenario records a trace");
    let rounds = assert_view_coherent(trace, &scenario.label());
    let digest = execution_digest(&report, trace);
    (report, rounds, digest)
}

#[test]
fn golden_traces_materialize_byte_identical_to_the_pre_refactor_structs() {
    for (name, scenario, expected) in golden_scenarios() {
        let (_, _, digest) = fresh_trace_run(&scenario);
        assert_eq!(
            digest, expected,
            "{name}: the trace view drifted from the pre-refactor eager structs \
             (got {digest:#018x}, pinned {expected:#018x})"
        );
    }
}

/// One battery cell: catalogue algorithm under either synchrony base, one
/// adversary, tracing always on, budget capped to keep the battery fast.
fn trace_cell(algorithm: Algorithm, ssync: bool, adversary: AdversaryKind, n: usize, seed: u64) -> Scenario {
    let base = if ssync {
        Scenario::ssync(n, algorithm, seed)
    } else {
        Scenario::fsync(n, algorithm)
    };
    let stop = match algorithm.termination_kind() {
        TerminationKind::Explicit => StopCondition::AllTerminated,
        TerminationKind::Partial => StopCondition::ExploredAndPartialTermination,
        TerminationKind::Unconscious => StopCondition::Explored,
    };
    let budget = base.max_rounds.min(1200);
    base.with_adversary(adversary).with_stop(stop).with_max_rounds(budget).with_trace()
}

#[test]
fn the_full_catalogue_battery_materializes_coherently() {
    let n = 8;
    let mut cells = 0usize;
    for (index, algorithm) in Algorithm::full_catalog(n).into_iter().enumerate() {
        for ssync in [false, true] {
            for adversary in adversary_suite(n, index as u64) {
                cells += 1;
                let scenario = trace_cell(algorithm, ssync, adversary, n, 13 + index as u64);
                let (report, rounds, _) = fresh_trace_run(&scenario);
                // Round statistics derived from the columns agree with the
                // engine's own report.
                let mut sim = scenario.build();
                let rerun = sim.run(scenario.max_rounds, scenario.stop);
                assert_eq!(rerun, report, "{}: rerun diverged", scenario.label());
                let trace = sim.trace().expect("trace-on cell");
                trace
                    .check_invariants(n)
                    .unwrap_or_else(|violation| panic!("{}: {violation}", scenario.label()));
                assert_eq!(
                    trace.exploration_round(n),
                    report.explored_at,
                    "{}: exploration round",
                    scenario.label()
                );
                // Under SSYNC a sleeping agent re-reports its stale `Moved`
                // prior each round, so the per-round traversal count only
                // equals the report's move total when every agent
                // re-activates every round (FSYNC).
                if !ssync {
                    assert_eq!(
                        trace.total_traversals() as u64,
                        report.total_moves,
                        "{}: total traversals",
                        scenario.label()
                    );
                }
                assert_eq!(trace.rounds().collect::<Vec<_>>(), rounds, "{}", scenario.label());
            }
        }
    }
    assert!(cells >= 144, "the battery should cover the full catalogue ({cells} cells)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random trace-on cell sequences through ONE recycled runner: whatever
    /// the order of shape growth/shrinkage and policy churn, the recycled
    /// trace materializes records identical to a fresh build's, and the
    /// execution digests match.
    #[test]
    fn random_cell_sequences_materialize_identically(
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
            let scenario = trace_cell(algorithm, ssync_bit == 1, adversary, n, draw(64) as u64);
            let (fresh_report, fresh_rounds, fresh_digest) = fresh_trace_run(&scenario);
            let recycled_report = runner.run(&scenario);
            let trace = runner.trace().expect("trace-on cell records on the recycled path");
            let recycled_rounds = assert_view_coherent(trace, &scenario.label());
            prop_assert_eq!(&recycled_report, &fresh_report, "report: {}", scenario.label());
            prop_assert_eq!(&recycled_rounds, &fresh_rounds, "rounds: {}", scenario.label());
            prop_assert_eq!(
                execution_digest(&recycled_report, trace),
                fresh_digest,
                "digest: {}",
                scenario.label()
            );
        }
    }

    /// Rerunning the same trace-on cell on a warm runner reuses the cleared
    /// columns (the zero-allocation regime) and must replay the identical
    /// record stream every time.
    #[test]
    fn recycled_reruns_reproduce_the_trace(
        n in 5usize..11,
        algorithm_index in 0usize..12,
        adversary_index in 0usize..6,
        reruns in 2usize..5,
    ) {
        let algorithm = Algorithm::full_catalog(n)[algorithm_index];
        let adversary = adversary_suite(n, 9)[adversary_index].clone();
        let scenario = trace_cell(algorithm, false, adversary, n, 0);
        let (fresh_report, fresh_rounds, fresh_digest) = fresh_trace_run(&scenario);
        let mut runner = ScenarioRunner::new();
        for rerun in 0..reruns {
            let report = runner.run(&scenario);
            let trace = runner.trace().expect("trace-on cell records on the recycled path");
            let rounds = assert_view_coherent(trace, &scenario.label());
            prop_assert_eq!(&report, &fresh_report, "rerun {}: report", rerun);
            prop_assert_eq!(&rounds, &fresh_rounds, "rerun {}: rounds", rerun);
            prop_assert_eq!(execution_digest(&report, trace), fresh_digest, "rerun {}", rerun);
        }
    }
}
