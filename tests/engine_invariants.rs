//! Property-based tests of the engine's structural invariants: whatever the
//! protocol, adversary and scheduler, recorded traces respect the model of
//! Section 2 (one edge missing per round, port mutual exclusion, unit moves,
//! terminated agents never move again).

use dynring::engine::Trace;
use dynring::prelude::*;
use dynring_analysis::scenario::{AdversaryKind, Scenario};
use proptest::prelude::*;

fn adversary_from_index(i: usize, n: usize, seed: u64) -> AdversaryKind {
    match i % 6 {
        0 => AdversaryKind::Static,
        1 => AdversaryKind::Random { p: 0.8, seed },
        2 => AdversaryKind::Sticky { min_hold: 1, max_hold: n as u64, present: 0.2, seed },
        3 => AdversaryKind::BlockForever { edge: seed as usize % n },
        4 => AdversaryKind::PreventMeeting,
        _ => AdversaryKind::Alternating { first: 0, second: n / 2 },
    }
}

fn algorithm_from_index(i: usize, n: usize) -> Algorithm {
    match i % 7 {
        0 => Algorithm::KnownBound { upper_bound: n },
        1 => Algorithm::Unconscious,
        2 => Algorithm::LandmarkChirality,
        3 => Algorithm::PtBoundChirality { upper_bound: n },
        4 => Algorithm::PtBoundNoChirality { upper_bound: n },
        5 => Algorithm::EtUnconscious,
        _ => Algorithm::LoneWalker { patience: 2 },
    }
}

/// Per-agent report fields counted from a trace alone.
struct AgentRecount {
    /// Distinct nodes among each agent's start and every node it ended a
    /// round on.
    visited: Vec<usize>,
    /// Rounds in which each agent ended on another node than it began on.
    moves: Vec<u64>,
    /// The first round each agent is flagged terminated in.
    termination_rounds: Vec<Option<u64>>,
}

/// Recounts [`AgentRecount`] over `trace`, a run on `n` nodes whose agents
/// started on `starts`.
fn recount_agents(trace: &Trace, n: usize, starts: Vec<NodeId>) -> AgentRecount {
    let team = starts.len();
    let mut seen: Vec<Vec<bool>> = vec![vec![false; n]; team];
    for (row, start) in seen.iter_mut().zip(&starts) {
        row[start.index()] = true;
    }
    let mut moves = vec![0; team];
    let mut termination_rounds = vec![None; team];
    for record in trace.rounds() {
        for agent in &record.agents {
            let i = agent.id.index();
            seen[i][agent.node_after.index()] = true;
            if agent.node_after != agent.node_before {
                moves[i] += 1;
            }
            if agent.terminated && termination_rounds[i].is_none() {
                termination_rounds[i] = Some(record.round);
            }
        }
    }
    let visited = seen.iter().map(|row| row.iter().filter(|v| **v).count()).collect();
    AgentRecount { visited, moves, termination_rounds }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_respect_the_model(
        n in 4usize..12,
        alg_index in 0usize..7,
        adv_index in 0usize..6,
        ssync in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let algorithm = algorithm_from_index(alg_index, n);
        let mut scenario = if ssync && !matches!(algorithm, Algorithm::LoneWalker { .. }) {
            Scenario::ssync(n, algorithm, seed)
        } else {
            Scenario::fsync(n, algorithm)
        };
        scenario.record_trace = true;
        let scenario = scenario
            .with_adversary(adversary_from_index(adv_index, n, seed))
            .with_stop(StopCondition::RoundBudget)
            .with_max_rounds(30 * n as u64);
        let mut sim = scenario.build();
        let starts = sim.positions();
        let report = sim.run(30 * n as u64, StopCondition::RoundBudget);
        let trace = sim.trace().expect("trace recording enabled");
        prop_assert!(trace.len() as u64 <= 30 * n as u64);
        if let Err(violation) = trace.check_invariants(n) {
            return Err(TestCaseError::fail(format!("{algorithm}: {violation}")));
        }
        // Visited counts are monotone and never exceed the ring size.
        let mut last = 0usize;
        for record in trace.rounds() {
            prop_assert!(record.visited_count >= last);
            prop_assert!(record.visited_count <= n);
            last = record.visited_count;
        }
        // The report's per-agent fields, recounted from the trace alone.
        let recount = recount_agents(trace, n, starts);
        prop_assert_eq!(&report.visited_per_agent, &recount.visited);
        prop_assert_eq!(&report.moves_per_agent, &recount.moves);
        prop_assert_eq!(&report.termination_rounds, &recount.termination_rounds);
    }

    /// The exploration round reported by the simulation matches the trace.
    #[test]
    fn exploration_round_matches_trace(n in 4usize..10, seed in any::<u64>()) {
        let mut scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n });
        scenario.record_trace = true;
        let scenario = scenario.with_adversary(AdversaryKind::Sticky {
            min_hold: 1,
            max_hold: n as u64,
            present: 0.3,
            seed,
        });
        let mut sim = scenario.build();
        let report = sim.run(20 * n as u64, StopCondition::AllTerminated);
        let trace = sim.trace().expect("trace recording enabled");
        prop_assert_eq!(report.explored_at, trace.exploration_round(n));
        prop_assert_eq!(report.total_moves as usize, trace.total_traversals());
    }
}

/// SplitMix64: a tiny seeded generator for the schedules below.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random edge schedule of `rounds` rounds: each round misses a
/// uniformly drawn edge, or (one round in four) none.
fn seeded_schedule(ring: &RingTopology, seed: u64, rounds: usize) -> EdgeSchedule {
    let n = ring.size();
    let mut state = seed;
    let missing: Vec<Option<EdgeId>> = (0..rounds)
        .map(|_| {
            let draw = split_mix(&mut state);
            (!draw.is_multiple_of(4)).then(|| EdgeId::new((draw >> 8) as usize % n))
        })
        .collect();
    EdgeSchedule::from_missing(ring, missing).unwrap()
}

/// Replays `schedule` through a scripted adversary with `step` and through
/// forced steps on a static copy of `base`, and checks equal reports, traces
/// and checkpoints after every round (and five rounds past the schedule).
fn assert_forced_steps_equal_policy_steps(base: &Scenario, schedule: &EdgeSchedule, label: &str) {
    use dynring::engine::sim::StopReason;

    let mut scripted =
        base.clone().with_adversary(AdversaryKind::scripted(schedule.clone())).build();
    let mut forced = base.clone().with_adversary(AdversaryKind::Static).build();
    for round in 1..=schedule.horizon() + 5 {
        let at = format!("{label} round {round}");
        let played = scripted.step();
        assert_eq!(forced.step_with_edge(schedule.missing_at(round)), played, "{at}");
        let reason = StopReason::BudgetExhausted;
        assert_eq!(forced.report(reason), scripted.report(reason), "{at}");
        assert_eq!(forced.trace(), scripted.trace(), "{at}");
        assert_eq!(
            format!("{:?}", forced.checkpoint()),
            format!("{:?}", scripted.checkpoint()),
            "{at}"
        );
    }
}

/// The FSYNC round kernel's forced branch — `step_with_edge`, the model
/// checker's expansion step — against its policy branch: one seeded random
/// edge schedule, replayed through a scripted adversary with `step` and
/// through forced steps on a static scenario, gives equal reports, traces
/// and checkpoints after every round, for every FSYNC catalogue algorithm.
#[test]
fn forced_fsync_steps_equal_policy_steps() {
    use dynring::algorithms::AlgorithmFamily;

    let n = 6;
    let ring = RingTopology::new(n).unwrap();
    for seed in 0..4u64 {
        let schedule = seeded_schedule(&ring, seed, 40);
        let fsync_algorithms = Algorithm::full_catalog(n).into_iter().filter(|algorithm| {
            matches!(algorithm.family(), AlgorithmFamily::Fsync | AlgorithmFamily::SingleAgent)
        });
        for algorithm in fsync_algorithms {
            let base = Scenario::fsync(n, algorithm).with_trace();
            let label = format!("{algorithm:?} seed {seed}");
            assert_forced_steps_equal_policy_steps(&base, &schedule, &label);
        }
    }
}

/// The same pin for SSYNC rounds, forced and policy-driven alike, for every
/// PT and ET catalogue algorithm under three schedulers: the scenario's
/// default, round robin, and `FirstMoverOnly`, which reads decision
/// predictions and so runs the prediction-fusion tier.
#[test]
fn forced_ssync_steps_equal_policy_steps() {
    use dynring::algorithms::AlgorithmFamily;
    use dynring_analysis::scenario::SchedulerKind;

    let n = 6;
    let ring = RingTopology::new(n).unwrap();
    for seed in 0..4u64 {
        let schedule = seeded_schedule(&ring, seed, 60);
        let ssync_algorithms = Algorithm::full_catalog(n).into_iter().filter(|algorithm| {
            matches!(algorithm.family(), AlgorithmFamily::SsyncPt | AlgorithmFamily::SsyncEt)
        });
        for algorithm in ssync_algorithms {
            let default = Scenario::ssync(n, algorithm, seed).with_trace();
            let schedulers =
                [default.scheduler, SchedulerKind::RoundRobin, SchedulerKind::FirstMoverOnly];
            for scheduler in schedulers {
                let label = format!("{algorithm:?} {scheduler:?} seed {seed}");
                let base = default.clone().with_scheduler(scheduler);
                assert_forced_steps_equal_policy_steps(&base, &schedule, &label);
            }
        }
    }
}

/// From `base`'s state after every round of `schedule`, checks the rule
/// [`Simulation::crossed_edges`] rests on: removing edge `e` plays the same
/// round as removing nothing (equal checkpoints) exactly when no agent
/// crossed `e` in the all-present round. Returns how many of those rounds
/// carried a sleeper across its port (passive transport).
fn assert_uncrossed_edges_play_the_all_present_round(
    base: &Scenario,
    schedule: &EdgeSchedule,
    label: &str,
) -> usize {
    let n = base.ring_size;
    let mut sim = base.clone().with_trace().with_adversary(AdversaryKind::Static).build();
    let mut hit = Vec::new();
    let mut transported = 0;
    for round in 1..=schedule.horizon() {
        if sim.alive_count() == 0 {
            break;
        }
        let before = sim.checkpoint();
        sim.step_with_edge(None);
        let all_present = format!("{:?}", sim.checkpoint());
        sim.crossed_edges(&before, &mut hit);
        assert_eq!(hit.len(), n, "{label} round {round}");
        let last = sim.trace().and_then(|trace| trace.rounds().last()).expect("trace recorded");
        if last.agents.iter().any(|agent| !agent.active && agent.node_before != agent.node_after) {
            transported += 1;
        }
        for (edge, &crossed) in hit.iter().enumerate() {
            sim.restore(&before);
            sim.step_with_edge(Some(EdgeId::new(edge)));
            let same = format!("{:?}", sim.checkpoint()) == all_present;
            assert_eq!(
                same, !crossed,
                "{label} round {round}: removing edge {edge} (crossed: {crossed}) {} the \
                 all-present round",
                if same { "plays" } else { "changes" },
            );
        }
        sim.restore(&before);
        sim.step_with_edge(schedule.missing_at(round));
    }
    transported
}

/// The rule behind the model checker's shared all-present step: from
/// seeded reachable states of every FSYNC, PT and ET catalogue algorithm
/// (SSYNC ones under the three schedulers of
/// `forced_ssync_steps_equal_policy_steps`), a forced edge changes the
/// round if and only if `crossed_edges` marks it. Passive transport, where
/// a sleeper on a port is the one non-mover that reads the missing edge,
/// must carry a sleeper across in some checked round.
#[test]
fn only_crossed_edges_change_the_round() {
    use dynring::algorithms::AlgorithmFamily;

    let n = 6;
    let ring = RingTopology::new(n).unwrap();
    let mut transported = 0;
    for seed in 0..4u64 {
        let schedule = seeded_schedule(&ring, seed, 30);
        for algorithm in Algorithm::full_catalog(n) {
            let family = algorithm.family();
            let bases = match family {
                AlgorithmFamily::Fsync | AlgorithmFamily::SingleAgent => {
                    vec![Scenario::fsync(n, algorithm)]
                }
                AlgorithmFamily::SsyncPt | AlgorithmFamily::SsyncEt => {
                    let default = Scenario::ssync(n, algorithm, seed);
                    [default.scheduler, SchedulerKind::RoundRobin, SchedulerKind::FirstMoverOnly]
                        .map(|scheduler| default.clone().with_scheduler(scheduler))
                        .to_vec()
                }
            };
            for base in bases {
                let label = format!("{algorithm:?} {:?} seed {seed}", base.scheduler);
                let carried =
                    assert_uncrossed_edges_play_the_all_present_round(&base, &schedule, &label);
                if matches!(family, AlgorithmFamily::SsyncPt) {
                    transported += carried;
                } else {
                    assert_eq!(carried, 0, "{label}: only passive transport carries sleepers");
                }
            }
        }
    }
    assert!(transported > 0, "no checked round carried a sleeper across its port");
}
