//! Enum dispatch ≡ boxed dispatch, for every catalogue protocol.
//!
//! The engine runs catalogue agents through a statically dispatched
//! [`CatalogProtocol`](dynring_core::CatalogProtocol) by default (see
//! `docs/ARCHITECTURE.md`, "The dispatch story") and keeps the virtual
//! `Box<dyn Protocol>` path as the extension escape hatch. That is only
//! sound if the representation is **unobservable**: for any scenario, the
//! enum-dispatched run must produce the identical `RunReport` and the
//! identical trace — decisions, outcomes, state labels, every field of every
//! round record — as the boxed run. These tests pin that equivalence for
//! every algorithm of the catalogue across FSYNC and SSYNC and across all
//! three prediction-fusion tiers (prediction off, omniscient edge policy,
//! predicting scheduler). The boxed side is assembled through
//! [`SimulationBuilder::agent`](dynring_engine::SimulationBuilder::agent),
//! the way a user plugs in a protocol of their own, with the scenario's own
//! policies.

use dynring_analysis::scenario::{AdversaryKind, Scenario, SchedulerKind};
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, Simulation};
use dynring_graph::NodeId;
use proptest::prelude::*;

/// The scenario's simulation with every agent a `Box<dyn Protocol>`.
fn boxed_build(scenario: &Scenario) -> Simulation {
    let mut builder = Simulation::builder(scenario.ring())
        .synchrony(scenario.synchrony)
        .activation(scenario.scheduler.instantiate())
        .edges(scenario.adversary.instantiate())
        .record_trace(scenario.record_trace);
    for (start, handedness) in scenario.starts.iter().zip(&scenario.orientations) {
        builder = builder.agent(NodeId::new(*start), *handedness, scenario.algorithm.instantiate());
    }
    builder.build().expect("equivalence scenarios are valid")
}

/// FNV-1a over the debug rendering of the full execution record (the same
/// digest the golden tests in `tests/determinism.rs` use): two runs digest
/// equal iff they are observably identical.
fn execution_digest(scenario: &Scenario, mut sim: Simulation) -> (RunReport, u64) {
    let report = sim.run(scenario.max_rounds, scenario.stop);
    let trace = sim.trace().expect("equivalence scenarios record traces");
    let rendered = format!("{report:?}|{trace:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (report, hash)
}

/// Asserts that the scenario's own (enum-dispatched) run and its boxed run
/// are observably identical.
fn assert_dispatch_equivalent(name: &str, scenario: Scenario) {
    let (enum_report, enum_digest) = execution_digest(&scenario, scenario.build());
    let (dyn_report, dyn_digest) = execution_digest(&scenario, boxed_build(&scenario));
    assert_eq!(enum_report, dyn_report, "{name}: run reports diverged");
    assert_eq!(
        enum_digest, dyn_digest,
        "{name}: trace digests diverged (got {enum_digest:#018x} enum, {dyn_digest:#018x} dyn)"
    );
}

/// The scenario battery for one algorithm: FSYNC and SSYNC base runs plus
/// one variant per prediction-fusion tier. (For FSYNC-family algorithms the
/// `ssync` constructor keeps the FSYNC model — `Scenario::ssync` respects
/// `Algorithm::synchrony` — so the SSYNC variants degrade to further FSYNC
/// coverage rather than running an algorithm off-model.)
fn battery(algorithm: Algorithm, ring_size: usize, seed: u64) -> Vec<(String, Scenario)> {
    let fsync = Scenario::fsync(ring_size, algorithm).with_trace();
    let ssync = Scenario::ssync(ring_size, algorithm, seed).with_trace();
    vec![
        (format!("{algorithm}/fsync"), fsync.clone()),
        // FSYNC fusion tier: the dry run is the round's Compute step.
        (
            format!("{algorithm}/fsync/prevent-meeting"),
            fsync.with_adversary(AdversaryKind::PreventMeeting),
        ),
        (format!("{algorithm}/ssync"), ssync.clone()),
        // Deferred tier: only the edge policy reads predictions.
        (
            format!("{algorithm}/ssync/prevent-meeting"),
            ssync.clone().with_adversary(AdversaryKind::PreventMeeting),
        ),
        // Predicting-scheduler tier: full probe pass + post-Compute swap.
        (
            format!("{algorithm}/ssync/first-mover-only"),
            ssync.with_scheduler(SchedulerKind::FirstMoverOnly),
        ),
    ]
}

/// Exhaustive: every catalogue algorithm, every prediction-fusion tier, at a
/// fixed representative size.
#[test]
fn enum_and_boxed_dispatch_are_observably_identical_for_the_whole_catalog() {
    for algorithm in Algorithm::full_catalog(8) {
        for (name, scenario) in battery(algorithm, 8, 23) {
            assert_dispatch_equivalent(&name, scenario);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form: the equivalence holds for arbitrary ring sizes and
    /// adversary seeds, not just the fixed battery above.
    #[test]
    fn dispatch_equivalence_holds_across_sizes_and_seeds(
        ring_size in 5usize..12,
        seed in 0u64..1 << 32,
    ) {
        for algorithm in Algorithm::full_catalog(ring_size) {
            let fsync = Scenario::fsync(ring_size, algorithm).with_trace();
            let ssync = Scenario::ssync(ring_size, algorithm, seed).with_trace();
            assert_dispatch_equivalent(&format!("{algorithm}/fsync/n={ring_size}"), fsync);
            assert_dispatch_equivalent(
                &format!("{algorithm}/ssync/n={ring_size}/seed={seed}"),
                ssync,
            );
        }
    }
}
