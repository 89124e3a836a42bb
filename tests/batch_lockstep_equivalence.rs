//! Batched execution versus the sequential reference, byte for byte.
//!
//! `ScenarioBatchRunner` runs the groups `group_ranges` forms on one
//! recycled simulation per group position. Because every cell owns its RNG
//! streams (scheduler, adversary) and consumes draws exactly as a fresh run
//! would, the batched `RunReport`s must equal the sequential ones
//! **exactly** — same termination round, same outcome, same per-agent
//! counters — for every catalogue algorithm, both synchrony families, the
//! full seeded-adversary suite, and any lane cap, including ragged tails
//! and neighbouring cells whose runs finish at different rounds.
//!
//! The companion allocation contract (a group re-run recycles in place,
//! zero allocations per steady-state generation) lives in
//! `batch_lockstep_alloc.rs`: it needs a counting global allocator, which
//! only yields deterministic readings in a single-test binary.

mod common;

use common::{fnv, golden_scenarios};
use dynring_analysis::batch::{group_ranges, BatchRunner};
use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioBatchRunner};
use dynring_analysis::sweeps::{adversary_suite, start_placements};
use dynring_core::{Algorithm, AlgorithmFamily};
use dynring_engine::sim::RunReport;
use proptest::prelude::*;

/// Lane caps exercised everywhere: degenerate (1 = singleton groups), tiny,
/// prime (ragged tails for every suite length), and wider than any suite
/// (one group swallows everything).
const LANE_CAPS: [usize; 4] = [1, 2, 7, 64];

/// Every algorithm of the paper's catalogue, instantiated for ring size `n`.
fn catalogue(n: usize) -> Vec<Algorithm> {
    vec![
        Algorithm::KnownBound { upper_bound: n + 2 },
        Algorithm::Unconscious,
        Algorithm::LandmarkChirality,
        Algorithm::LandmarkNoChirality,
        Algorithm::StartFromLandmarkNoChirality,
        Algorithm::PtBoundChirality { upper_bound: n + 1 },
        Algorithm::PtLandmarkChirality,
        Algorithm::PtBoundNoChirality { upper_bound: n + 1 },
        Algorithm::PtLandmarkNoChirality,
        Algorithm::EtBoundNoChirality { ring_size: n },
        Algorithm::EtUnconscious,
        Algorithm::LoneWalker { patience: 3 },
    ]
}

/// A scenario in the algorithm's natural synchrony model (FSYNC base for the
/// FSYNC/single-agent families, the SSYNC construction otherwise).
fn natural_scenario(n: usize, algorithm: Algorithm, seed: u64) -> Scenario {
    match algorithm.family() {
        AlgorithmFamily::Fsync | AlgorithmFamily::SingleAgent => Scenario::fsync(n, algorithm),
        AlgorithmFamily::SsyncPt | AlgorithmFamily::SsyncEt => Scenario::ssync(n, algorithm, seed),
    }
}

/// Runs `scenarios` through the batched path with an explicit lane cap,
/// group by group in input order.
fn batched_with_cap(scenarios: &[Scenario], cap: usize) -> Vec<RunReport> {
    let mut runner = ScenarioBatchRunner::new();
    let mut out = Vec::with_capacity(scenarios.len());
    for range in group_ranges(scenarios, |scenario| scenario, cap) {
        runner.run_group_into(&scenarios[range], &mut out);
    }
    out
}

/// The sequential reference: one fresh solo simulation per scenario.
fn sequential(scenarios: &[Scenario]) -> Vec<RunReport> {
    scenarios.iter().map(Scenario::run).collect()
}

/// The full catalogue under the seeded-adversary suite: for every algorithm
/// and every lane cap, the batched reports equal the solo reports exactly.
/// The suite mixes fast-terminating cells (static dynamics) with
/// budget-exhausting ones (blocked edges), so neighbouring runs routinely
/// finish at different rounds. Besides the natural budget, tiny budgets of
/// 0, 1 and 3 rounds pin the final `ConditionMet`/`BudgetExhausted` check of
/// batched runs against solo.
#[test]
fn catalogue_batched_equals_sequential_for_every_lane_cap() {
    let n = 7;
    for algorithm in catalogue(n) {
        for budget in [None, Some(0), Some(1), Some(3)] {
            let scenarios: Vec<Scenario> = adversary_suite(n, 11)
                .into_iter()
                .map(|adversary| {
                    let scenario = natural_scenario(n, algorithm, 11).with_adversary(adversary);
                    match budget {
                        Some(rounds) => scenario.with_max_rounds(rounds),
                        None => scenario,
                    }
                })
                .collect();
            let reference = sequential(&scenarios);
            for cap in LANE_CAPS {
                assert_eq!(
                    batched_with_cap(&scenarios, cap),
                    reference,
                    "{algorithm:?} diverged at lane cap {cap}, budget {budget:?}"
                );
            }
        }
    }
}

/// Placement diversity inside one batch: every lane of a group may start its
/// team elsewhere (and flip orientations); the reports still match solo.
#[test]
fn placement_mixes_batch_identically() {
    let n = 9;
    let algorithm = Algorithm::LandmarkNoChirality;
    let mut scenarios = Vec::new();
    for placement in start_placements(n, 2) {
        for flipped in [false, true] {
            let mut scenario = Scenario::fsync(n, algorithm).with_starts(placement.clone());
            if flipped {
                let mut orientations = scenario.orientations.clone();
                orientations.reverse();
                scenario = scenario.with_orientations(orientations);
            }
            scenarios.push(scenario);
        }
    }
    let reference = sequential(&scenarios);
    for cap in LANE_CAPS {
        assert_eq!(batched_with_cap(&scenarios, cap), reference, "lane cap {cap}");
    }
}

/// A shape-heterogeneous battery (different ring sizes, synchrony models and
/// a trace-recording cell) splits into groups such that batched execution is
/// still byte-identical — shape changes open fresh groups without disturbing
/// their neighbours, while trace cells batch with their shape-mates (the
/// trace records on the batched path).
#[test]
fn mixed_shape_battery_groups_and_matches() {
    let scenarios = vec![
        Scenario::fsync(6, Algorithm::KnownBound { upper_bound: 6 }),
        Scenario::fsync(6, Algorithm::Unconscious),
        Scenario::fsync(6, Algorithm::KnownBound { upper_bound: 6 }).with_trace(),
        Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 }),
        Scenario::ssync(6, Algorithm::PtBoundChirality { upper_bound: 6 }, 3),
        Scenario::ssync(6, Algorithm::PtLandmarkChirality, 4),
        Scenario::fsync(6, Algorithm::LandmarkChirality),
    ];
    // The trace cell shares its neighbours' shape, so it batches with them
    // instead of sitting in a singleton group.
    let ranges = group_ranges(&scenarios, |scenario| scenario, 64);
    assert!(ranges.contains(&(0..3)), "trace cell not batched with its shape-mates: {ranges:?}");
    let reference = sequential(&scenarios);
    for cap in LANE_CAPS {
        assert_eq!(batched_with_cap(&scenarios, cap), reference, "lane cap {cap}");
    }
    // The public parallel executor rides the same grouping.
    assert_eq!(BatchRunner::sequential().run_reports(&scenarios), reference);
}

/// Digest of one cell's full `(RunReport, Trace)` execution record from a
/// fresh solo simulation — the same rendering `tests/determinism.rs` pins.
fn solo_trace_digest(scenario: &Scenario) -> u64 {
    let mut sim = scenario.build();
    let report = sim.run(scenario.max_rounds, scenario.stop);
    let trace = sim.trace().expect("trace-on cell records a trace");
    fnv(&format!("{report:?}|{trace:?}"))
}

/// Batched per-cell `(RunReport, Trace)` digests at lane cap `cap`. Each
/// group's traces are read back before the runner loads the next group
/// (loading reuses the lane buffers, so traces only live until then).
fn batched_trace_digests(scenarios: &[Scenario], cap: usize) -> Vec<u64> {
    let mut runner = ScenarioBatchRunner::new();
    let mut out = Vec::with_capacity(scenarios.len());
    let mut reports = Vec::new();
    for range in group_ranges(scenarios, |scenario| scenario, cap) {
        reports.clear();
        runner.run_group_into(&scenarios[range], &mut reports);
        for (index, report) in reports.iter().enumerate() {
            let trace =
                runner.trace(index).expect("trace-on cell records on the batched path");
            out.push(fnv(&format!("{report:?}|{trace:?}")));
        }
    }
    out
}

/// Trace-on cells across the full catalogue and adversary suite: at every
/// lane cap the batched traces digest identically to fresh solo runs —
/// recording on the batched path appends the same entries as the solo
/// step.
#[test]
fn trace_on_cells_batch_byte_identically_at_every_lane_cap() {
    let n = 7;
    for algorithm in catalogue(n) {
        let scenarios: Vec<Scenario> = adversary_suite(n, 11)
            .into_iter()
            .map(|adversary| {
                natural_scenario(n, algorithm, 11).with_adversary(adversary).with_trace()
            })
            .collect();
        let reference: Vec<u64> = scenarios.iter().map(solo_trace_digest).collect();
        for cap in LANE_CAPS {
            assert_eq!(
                batched_trace_digests(&scenarios, cap),
                reference,
                "{algorithm:?} traces diverged at lane cap {cap}"
            );
        }
    }
}

/// Mixed trace-on/trace-off lanes inside one group: recording stays strictly
/// per lane (off-lanes expose no trace), the reports still match solo, and
/// the traced lanes digest identically to their solo runs.
#[test]
fn mixed_trace_lanes_record_only_where_enabled() {
    let n = 8;
    let scenarios: Vec<Scenario> = adversary_suite(n, 5)
        .into_iter()
        .enumerate()
        .map(|(index, adversary)| {
            let scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                .with_adversary(adversary);
            if index % 2 == 0 {
                scenario.with_trace()
            } else {
                scenario
            }
        })
        .collect();
    let reference = sequential(&scenarios);
    let mut runner = ScenarioBatchRunner::new();
    let reports = runner.run_group(&scenarios);
    assert_eq!(reports, reference);
    for (index, scenario) in scenarios.iter().enumerate() {
        match runner.trace(index) {
            Some(trace) => {
                assert!(scenario.record_trace, "lane {index} recorded without asking");
                let digest = fnv(&format!("{:?}|{trace:?}", reports[index]));
                assert_eq!(digest, solo_trace_digest(scenario), "lane {index}");
            }
            None => assert!(!scenario.record_trace, "lane {index} lost its trace"),
        }
    }
}

/// The pinned pre-refactor golden digests, reproduced through the *batched*
/// path: each golden scenario is doubled into a two-cell group and both
/// cells must digest to the pinned value.
#[test]
fn batched_trace_lanes_reproduce_the_pinned_golden_digests() {
    for (name, scenario, expected) in golden_scenarios() {
        let group = vec![scenario.clone(), scenario];
        let mut runner = ScenarioBatchRunner::new();
        let reports = runner.run_group(&group);
        for (index, report) in reports.iter().enumerate() {
            let trace = runner.trace(index).expect("golden scenarios record traces");
            let digest = fnv(&format!("{report:?}|{trace:?}"));
            assert_eq!(
                digest, expected,
                "{name} lane {index}: batched execution drifted from the \
                 pre-refactor engine (got {digest:#018x}, pinned {expected:#018x})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seed/placement mixes: lanes of one batch differ in starts,
    /// adversary seed and presence probability, and the batch still equals
    /// solo execution at an arbitrary lane cap.
    #[test]
    fn random_seed_and_placement_mixes_are_lane_cap_invariant(
        n in 5usize..10,
        first in 0usize..16,
        second in 0usize..16,
        seed in 0u64..64,
        cap in 1usize..9,
    ) {
        let algorithm = Algorithm::KnownBound { upper_bound: n };
        let mut scenarios = Vec::new();
        for lane in 0..6u64 {
            let starts = vec![(first + lane as usize) % n, second % n];
            let adversary = if lane % 2 == 0 {
                AdversaryKind::Random { p: 0.6, seed: seed.wrapping_add(lane) }
            } else {
                AdversaryKind::Sticky {
                    min_hold: 1,
                    max_hold: n as u64,
                    present: 0.4,
                    seed: seed.wrapping_mul(31).wrapping_add(lane),
                }
            };
            scenarios.push(
                Scenario::fsync(n, algorithm).with_starts(starts).with_adversary(adversary),
            );
        }
        prop_assert_eq!(batched_with_cap(&scenarios, cap), sequential(&scenarios));
    }

    /// Mid-batch early termination: one lane meets immediately (co-located
    /// team, static ring), siblings fight blocking adversaries for orders of
    /// magnitude longer. Harvesting the early lane must not shift any
    /// surviving lane's RNG streams or round counters.
    #[test]
    fn early_terminating_lanes_leave_survivors_untouched(
        n in 5usize..9,
        seed in 0u64..64,
        cap in 2usize..8,
    ) {
        let algorithm = Algorithm::KnownBound { upper_bound: n };
        let co_located = Scenario::fsync(n, algorithm).with_starts(vec![0, 0]);
        let blocked = Scenario::fsync(n, algorithm)
            .with_adversary(AdversaryKind::BlockForever { edge: n / 2 });
        let random = Scenario::fsync(n, algorithm)
            .with_adversary(AdversaryKind::Random { p: 0.8, seed });
        let scenarios =
            vec![blocked.clone(), co_located.clone(), random, co_located, blocked];
        prop_assert_eq!(batched_with_cap(&scenarios, cap), sequential(&scenarios));
    }
}
