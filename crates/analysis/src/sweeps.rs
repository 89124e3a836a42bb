//! Parameter sweeps over the ring size, used to check the asymptotic claims.
//!
//! Each sweep runs an algorithm over a battery of start placements,
//! orientations and adversaries for every requested ring size and keeps the
//! *worst* observed exploration round, termination round and move count —
//! these are the quantities the paper's bounds (`3N − 6`, `O(n)`,
//! `O(n log n)`, `O(N²)`, `O(n²)`) speak about.

use crate::batch::{batch_lanes_from_env, group_ranges, BatchRunner};
use crate::report::SweepPoint;
use crate::scenario::{AdversaryKind, Scenario, ScenarioBatchRunner};
use dynring_core::fsync::LandmarkNoChirality;
use dynring_core::Algorithm;
use dynring_engine::sim::StopCondition;
use dynring_graph::Handedness;
use dynring_model::TerminationKind;

/// How many start placements a battery exercises per (size, seed, adversary)
/// cell.
///
/// [`PlacementDensity::Dense`] is the `--huge` battery regime of the
/// *Revisited* follow-up (arXiv:2001.04525): on top of the standard
/// adjacent/spread/co-located trio it rotates the adjacent and spread
/// placements around the ring, so asymmetric interactions with the landmark
/// and the blocked edges are exercised from several phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementDensity {
    /// The standard trio: adjacent, spread, co-located.
    #[default]
    Standard,
    /// The standard trio plus rotated variants (roughly 3× the placements).
    Dense,
}

/// The adversaries every possibility claim is exercised against.
#[must_use]
pub fn adversary_suite(ring_size: usize, seed: u64) -> Vec<AdversaryKind> {
    vec![
        AdversaryKind::Static,
        AdversaryKind::Random { p: 0.7, seed },
        AdversaryKind::Sticky {
            min_hold: 1,
            max_hold: (ring_size as u64).max(2),
            present: 0.25,
            seed: seed.wrapping_add(1),
        },
        AdversaryKind::BlockForever { edge: ring_size / 2 },
        AdversaryKind::PreventMeeting,
        AdversaryKind::Alternating { first: 0, second: ring_size / 2 },
    ]
}

/// The start placements exercised for a team of `agents` agents on a ring of
/// size `n`: adjacent, spread out, and co-located.
#[must_use]
pub fn start_placements(ring_size: usize, agents: usize) -> Vec<Vec<usize>> {
    let adjacent: Vec<usize> = (0..agents).map(|i| i % ring_size).collect();
    let spread: Vec<usize> = (0..agents).map(|i| (i * ring_size) / agents).collect();
    let colocated: Vec<usize> = vec![ring_size / 3; agents];
    vec![adjacent, spread, colocated]
}

/// [`start_placements`] at the requested density: `Dense` additionally
/// rotates the adjacent and spread placements by 1, ⌈n/4⌉ and ⌈n/2⌉ nodes
/// (duplicates dropped), producing the denser grid of the `--huge` battery.
#[must_use]
pub fn start_placements_with(
    ring_size: usize,
    agents: usize,
    density: PlacementDensity,
) -> Vec<Vec<usize>> {
    let mut placements = start_placements(ring_size, agents);
    if density == PlacementDensity::Dense {
        let rotate = |placement: &[usize], shift: usize| -> Vec<usize> {
            placement.iter().map(|s| (s + shift) % ring_size).collect()
        };
        let bases: Vec<Vec<usize>> = placements[..2].to_vec();
        for shift in [1, ring_size.div_ceil(4), ring_size.div_ceil(2)] {
            if shift == 0 || shift >= ring_size {
                continue;
            }
            for base in &bases {
                let rotated = rotate(base, shift);
                if !placements.contains(&rotated) {
                    placements.push(rotated);
                }
            }
        }
    }
    placements
}

/// Orientation assignments exercised for a team: all agree, and (when the
/// algorithm does not assume chirality) the first agent disagreeing.
#[must_use]
pub fn orientation_choices(algorithm: &Algorithm, agents: usize) -> Vec<Vec<Handedness>> {
    let mut choices = vec![vec![Handedness::LeftIsCcw; agents]];
    if !algorithm.needs_chirality() && agents > 1 {
        let mut mixed = vec![Handedness::LeftIsCcw; agents];
        mixed[0] = Handedness::LeftIsCw;
        choices.push(mixed);
    }
    choices
}

/// A round budget generous enough for the algorithm's own worst-case bound.
#[must_use]
pub fn round_budget(algorithm: &Algorithm, ring_size: usize) -> u64 {
    let n = ring_size as u64;
    match algorithm {
        Algorithm::LandmarkNoChirality | Algorithm::StartFromLandmarkNoChirality => {
            2 * LandmarkNoChirality::termination_bound(n) + 64 * n + 1024
        }
        Algorithm::PtBoundChirality { .. }
        | Algorithm::PtLandmarkChirality
        | Algorithm::PtBoundNoChirality { .. }
        | Algorithm::PtLandmarkNoChirality
        | Algorithm::EtBoundNoChirality { .. }
        | Algorithm::EtUnconscious => 400 * n * n + 4000,
        _ => 64 * n + 512,
    }
}

/// The round used as the "termination time" of a report, depending on the
/// termination discipline the algorithm promises.
fn termination_time(algorithm: &Algorithm, report: &dynring_engine::sim::RunReport) -> Option<u64> {
    match algorithm.termination_kind() {
        TerminationKind::Explicit => report.last_termination(),
        TerminationKind::Partial => report.first_termination(),
        TerminationKind::Unconscious => report.explored_at,
    }
}

/// Outcome of a sweep: per-size worst cases plus a flag telling whether every
/// single run explored the ring and satisfied its termination discipline.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One point per requested ring size.
    pub points: Vec<SweepPoint>,
    /// Whether every run explored the ring.
    pub all_explored: bool,
    /// Whether every run satisfied the algorithm's termination discipline.
    pub all_terminated_as_promised: bool,
}

/// Sweeps a fully-synchronous algorithm over the adversary battery on
/// `runner`, at the given [`PlacementDensity`] (the `--huge` battery runs
/// `Dense`).
#[must_use]
pub fn sweep_fsync_battery(
    runner: &BatchRunner,
    make_algorithm: impl Fn(usize) -> Algorithm,
    sizes: &[usize],
    seeds: u64,
    density: PlacementDensity,
) -> SweepOutcome {
    sweep_battery(runner, make_algorithm, sizes, seeds, false, density)
}

/// Sweeps a semi-synchronous algorithm (PT or ET) over SSYNC schedulers and
/// the adversary battery on `runner`, at the given [`PlacementDensity`].
#[must_use]
pub fn sweep_ssync_battery(
    runner: &BatchRunner,
    make_algorithm: impl Fn(usize) -> Algorithm,
    sizes: &[usize],
    seeds: u64,
    density: PlacementDensity,
) -> SweepOutcome {
    sweep_battery(runner, make_algorithm, sizes, seeds, true, density)
}

/// Enumerates the whole battery up front (in the canonical deterministic
/// order: sizes → seeds → adversaries → placements → orientations), fans the
/// independent runs across the runner's threads, and folds the reports back
/// in enumeration order. Because the runner merges results in input order,
/// the outcome is bit-identical whatever the thread count.
fn sweep_battery(
    runner: &BatchRunner,
    make_algorithm: impl Fn(usize) -> Algorithm,
    sizes: &[usize],
    seeds: u64,
    ssync: bool,
    density: PlacementDensity,
) -> SweepOutcome {
    let mut meta: Vec<(usize, Algorithm)> = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    for (size_index, &n) in sizes.iter().enumerate() {
        let algorithm = make_algorithm(n);
        for seed in 0..seeds {
            for adversary in adversary_suite(n, seed * 97 + 13) {
                for starts in start_placements_with(n, algorithm.required_agents(), density) {
                    for orientations in orientation_choices(&algorithm, algorithm.required_agents())
                    {
                        let base = if ssync {
                            Scenario::ssync(n, algorithm, seed * 31 + 7)
                        } else {
                            Scenario::fsync(n, algorithm)
                        };
                        let stop = match algorithm.termination_kind() {
                            TerminationKind::Explicit => StopCondition::AllTerminated,
                            TerminationKind::Partial => {
                                StopCondition::ExploredAndPartialTermination
                            }
                            TerminationKind::Unconscious => StopCondition::Explored,
                        };
                        let scenario = base
                            .with_starts(starts.clone())
                            .with_orientations(orientations)
                            .with_adversary(adversary.clone())
                            .with_stop(stop)
                            .with_max_rounds(round_budget(&algorithm, n));
                        meta.push((size_index, algorithm));
                        scenarios.push(scenario);
                    }
                }
            }
        }
    }

    // Consecutive same-shape cells (the common case: a battery fixes size
    // and algorithm while rotating adversaries/placements/orientations) form
    // one group per range; each worker thread drives its share of the ranges through one recycled
    // `ScenarioBatchRunner`. Merging in input order keeps the outcome
    // bit-identical to the solo cell-by-cell path.
    let ranges = group_ranges(&scenarios, |scenario| scenario, batch_lanes_from_env());
    let reports: Vec<_> = runner
        .run_map_with(&ranges, ScenarioBatchRunner::new, |worker, range| {
            worker.run_group(&scenarios[range.clone()])
        })
        .into_iter()
        .flatten()
        .collect();

    let mut points: Vec<SweepPoint> = sizes
        .iter()
        .map(|&n| SweepPoint {
            ring_size: n,
            worst_rounds: 0,
            worst_termination: 0,
            worst_moves: 0,
            runs: 0,
        })
        .collect();
    let mut all_explored = true;
    let mut all_terminated = true;
    for ((size_index, algorithm), report) in meta.iter().zip(&reports) {
        let point = &mut points[*size_index];
        point.runs += 1;
        all_explored &= report.explored();
        let done = match algorithm.termination_kind() {
            TerminationKind::Explicit => report.all_terminated,
            TerminationKind::Partial => report.partially_terminated(),
            TerminationKind::Unconscious => report.explored(),
        };
        all_terminated &= done;
        point.worst_rounds = point.worst_rounds.max(report.explored_at.unwrap_or(u64::MAX));
        point.worst_termination = point
            .worst_termination
            .max(termination_time(algorithm, report).unwrap_or(u64::MAX));
        point.worst_moves = point.worst_moves.max(report.total_moves);
    }
    SweepOutcome { points, all_explored, all_terminated_as_promised: all_terminated }
}

/// Checks that the worst observed cost stays below `bound(n)` for every point.
#[must_use]
pub fn within_bound(points: &[SweepPoint], value: impl Fn(&SweepPoint) -> u64, bound: impl Fn(usize) -> u64) -> bool {
    points.iter().all(|p| value(p) <= bound(p.ring_size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_suite_is_diverse() {
        let suite = adversary_suite(10, 1);
        assert!(suite.len() >= 5);
        assert!(suite.contains(&AdversaryKind::Static));
        assert!(suite.contains(&AdversaryKind::PreventMeeting));
    }

    #[test]
    fn start_placements_are_within_range() {
        for placement in start_placements(7, 3) {
            assert_eq!(placement.len(), 3);
            assert!(placement.iter().all(|s| *s < 7));
        }
    }

    #[test]
    fn orientation_choices_respect_chirality() {
        let with_chirality = orientation_choices(&Algorithm::LandmarkChirality, 2);
        assert_eq!(with_chirality.len(), 1);
        let without = orientation_choices(&Algorithm::KnownBound { upper_bound: 5 }, 2);
        assert_eq!(without.len(), 2);
    }

    #[test]
    fn round_budget_scales_with_the_algorithm() {
        let small = round_budget(&Algorithm::KnownBound { upper_bound: 8 }, 8);
        let large = round_budget(&Algorithm::LandmarkNoChirality, 8);
        let quad = round_budget(&Algorithm::PtBoundChirality { upper_bound: 8 }, 8);
        assert!(small < large);
        assert!(small < quad);
    }

    #[test]
    fn known_bound_sweep_respects_the_3n_minus_6_bound() {
        let outcome = sweep_fsync_battery(
            &BatchRunner::from_env(),
            |n| Algorithm::KnownBound { upper_bound: n },
            &[5, 7],
            1,
            PlacementDensity::Standard,
        );
        assert!(outcome.all_explored);
        assert!(outcome.all_terminated_as_promised);
        // Theorem 3: explicit termination within 3N-6 rounds (the terminating
        // decision happens in the following round).
        assert!(within_bound(&outcome.points, |p| p.worst_termination, |n| 3 * n as u64 - 6 + 1));
    }

    #[test]
    fn unconscious_sweep_explores_in_linear_time() {
        let outcome = sweep_fsync_battery(
            &BatchRunner::from_env(),
            |_| Algorithm::Unconscious,
            &[6],
            1,
            PlacementDensity::Standard,
        );
        assert!(outcome.all_explored);
        // Theorem 5: O(n); a factor of 16 is ample for n = 6.
        assert!(within_bound(&outcome.points, |p| p.worst_rounds, |n| 16 * n as u64));
    }
}
