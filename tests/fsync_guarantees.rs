//! Cross-crate integration tests: the FSYNC guarantees of Section 3 hold for
//! the full stack (algorithms + engine + adversaries), including under
//! randomised adversaries (property-based).

use dynring::prelude::*;
use dynring_analysis::figures;
use dynring_analysis::scenario::{AdversaryKind, Scenario};
use proptest::prelude::*;

/// Theorem 3 on the exact worst-case schedule of Figure 2, across sizes.
#[test]
fn figure2_schedule_costs_exactly_3n_minus_6() {
    for n in [6, 8, 10, 14, 20, 32, 64, 128] {
        let outcome = figures::figure2(n);
        assert_eq!(outcome.explored_at, Some(3 * n as u64 - 6), "n = {n}");
    }
}

/// Theorem 3: exploration + explicit termination within 3N−6 rounds on a
/// static ring, for every pair of distinct starting nodes.
#[test]
fn known_bound_terminates_from_every_start_pair() {
    let n = 9;
    for a in 0..n {
        for b in 0..n {
            let report = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                .with_starts(vec![a, b])
                .run();
            assert!(report.explored(), "starts ({a},{b})");
            assert!(report.all_terminated, "starts ({a},{b})");
            assert!(
                report.last_termination().unwrap() <= 3 * n as u64 - 6 + 1,
                "starts ({a},{b}): {:?}",
                report.termination_rounds
            );
        }
    }
}

/// Theorem 6: LandmarkWithChirality explores and terminates in O(n) even when
/// an edge is missing forever, wherever the landmark is relative to the
/// agents.
#[test]
fn landmark_chirality_terminates_for_every_blocked_edge() {
    let n = 10;
    for blocked in 0..n {
        let report = Scenario::fsync(n, Algorithm::LandmarkChirality)
            .with_starts(vec![2, 7])
            .with_adversary(AdversaryKind::BlockForever { edge: blocked })
            .with_max_rounds(40 * n as u64)
            .run();
        assert!(report.explored(), "blocked edge {blocked}");
        assert!(report.all_terminated, "blocked edge {blocked}");
        assert!(
            report.last_termination().unwrap() <= 30 * n as u64,
            "blocked edge {blocked}: {:?}",
            report.termination_rounds
        );
    }
}

/// Observation 1 / Corollary 1: a single agent never explores against its
/// dedicated blocker, no matter its patience.
#[test]
fn single_agent_cannot_explore() {
    for patience in [0, 1, 5] {
        let report = Scenario::fsync(8, Algorithm::LoneWalker { patience })
            .with_adversary(AdversaryKind::BlockAgent { agent: 0 })
            .with_stop(StopCondition::RoundBudget)
            .with_max_rounds(500)
            .run();
        assert!(!report.explored());
        assert_eq!(report.visited_count, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 3 under randomised sticky dynamics, arbitrary starts and
    /// arbitrary (possibly disagreeing) orientations.
    #[test]
    fn known_bound_explores_under_random_dynamics(
        n in 5usize..14,
        start_a in 0usize..14,
        start_b in 0usize..14,
        flip_a in any::<bool>(),
        flip_b in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let orient = |flip: bool| if flip { Handedness::LeftIsCw } else { Handedness::LeftIsCcw };
        let report = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
            .with_starts(vec![start_a % n, start_b % n])
            .with_orientations(vec![orient(flip_a), orient(flip_b)])
            .with_adversary(AdversaryKind::Sticky {
                min_hold: 1,
                max_hold: n as u64,
                present: 0.2,
                seed,
            })
            .run();
        prop_assert!(report.explored());
        prop_assert!(report.all_terminated);
        prop_assert!(report.last_termination().unwrap() <= 3 * n as u64 - 6 + 1);
    }

    /// Theorem 5: Unconscious explores within O(n) rounds under random
    /// dynamics and never terminates.
    #[test]
    fn unconscious_explores_in_linear_time(
        n in 4usize..16,
        start_a in 0usize..16,
        start_b in 0usize..16,
        seed in any::<u64>(),
    ) {
        let report = Scenario::fsync(n, Algorithm::Unconscious)
            .with_starts(vec![start_a % n, start_b % n])
            .with_adversary(AdversaryKind::Sticky {
                min_hold: 1,
                max_hold: (n as u64).max(2),
                present: 0.25,
                seed,
            })
            .with_stop(StopCondition::Explored)
            .with_max_rounds(64 * n as u64)
            .run();
        prop_assert!(report.explored(), "visited {}/{}", report.visited_count, n);
        prop_assert!(!report.partially_terminated());
        prop_assert!(report.explored_at.unwrap() <= 40 * n as u64);
    }

    /// Theorem 8: LandmarkNoChirality explores with explicit termination of
    /// both agents under adversarial single-edge blocking.
    #[test]
    fn landmark_no_chirality_terminates(
        n in 5usize..10,
        start_a in 0usize..10,
        start_b in 0usize..10,
        blocked in 0usize..10,
        flip in any::<bool>(),
    ) {
        let orientations = if flip {
            vec![Handedness::LeftIsCw, Handedness::LeftIsCcw]
        } else {
            vec![Handedness::LeftIsCcw, Handedness::LeftIsCcw]
        };
        let budget = 2 * dynring_core::fsync::LandmarkNoChirality::termination_bound(n as u64)
            + 64 * n as u64
            + 1024;
        let report = Scenario::fsync(n, Algorithm::LandmarkNoChirality)
            .with_starts(vec![start_a % n, start_b % n])
            .with_orientations(orientations)
            .with_adversary(AdversaryKind::BlockForever { edge: blocked % n })
            .with_max_rounds(budget)
            .run();
        prop_assert!(report.explored());
        prop_assert!(report.all_terminated, "terminations {:?}", report.termination_rounds);
    }
}

/// The FSYNC guarantees also hold from the dense rotated placement grid of
/// the `--huge` battery (adjacent/spread placements rotated by 1, ⌈n/4⌉ and
/// ⌈n/2⌉ nodes), under a permanently blocked edge.
#[test]
fn fsync_guarantees_hold_on_dense_rotated_placements() {
    use dynring_analysis::sweeps::{self, PlacementDensity};
    let n = 8;
    for algorithm in [
        Algorithm::KnownBound { upper_bound: n },
        Algorithm::Unconscious,
        Algorithm::LandmarkChirality,
        Algorithm::LandmarkNoChirality,
        Algorithm::StartFromLandmarkNoChirality,
    ] {
        let agents = algorithm.required_agents();
        for placement in sweeps::start_placements_with(n, agents, PlacementDensity::Dense) {
            let report = Scenario::fsync(n, algorithm)
                .with_starts(placement.clone())
                .with_adversary(AdversaryKind::BlockForever { edge: n / 2 })
                .with_max_rounds(sweeps::round_budget(&algorithm, n))
                .run();
            assert!(report.explored(), "{algorithm} from {placement:?}");
            match algorithm.termination_kind() {
                TerminationKind::Explicit => assert!(
                    report.all_terminated,
                    "{algorithm} from {placement:?}: {:?}",
                    report.termination_rounds
                ),
                _ => assert!(!report.partially_terminated(), "{algorithm} from {placement:?}"),
            }
        }
    }
}
