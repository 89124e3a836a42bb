//! Exhaustive model checking of the Table 1/3 impossibility rows on small
//! rings, plus the soundness properties the search rests on: every adversary
//! play is explored, every discovered witness schedule replays through a
//! scripted adversary to the same defeat, and the canonical configuration key
//! is invariant under the ring's rotation/reflection symmetries.

use dynring_analysis::model_check::{self, ModelCheck, Objective, Verdict};
use dynring_analysis::scenario::{AdversaryKind, Scenario};
use dynring_core::Algorithm;
use dynring_engine::StopCondition;
use dynring_graph::{EdgeId, Handedness};
use dynring_model::SynchronyModel;
use proptest::prelude::*;

/// The machine-checked acceptance matrix: every exhaustively checkable
/// Table 1/3 cell for `4 ≤ n ≤ max_check_n` (default 9, `DYNRING_MC_MAX_N`
/// raises it) resolves to the verdict the paper predicts, and every
/// impossibility witness replays through [`AdversaryKind::Scripted`] to the
/// same non-achievement outcome.
#[test]
fn every_table1_and_table3_row_is_proven_for_small_n() {
    for n in 4..=model_check::max_check_n(9) {
        for cell in model_check::infeasibility_cells(n) {
            let verdict = cell.check.run();
            if cell.expect_infeasible {
                let proof = verdict.infeasible().unwrap_or_else(|| {
                    panic!("{} ({}) must be infeasible", cell.id, cell.claim)
                });
                let replay = cell.check.replay(&proof.witness);
                assert!(
                    cell.check.objective.defeated_in(&replay),
                    "{}: the discovered witness (horizon {}) does not reproduce the \
                     {} defeat when replayed through a scripted adversary: {replay:?}",
                    cell.id,
                    proof.witness.horizon(),
                    cell.check.objective.label(),
                );
            } else {
                assert!(
                    verdict.is_feasible(),
                    "{} ({}) must be feasible, got {verdict:?}",
                    cell.id,
                    cell.claim
                );
            }
        }
    }
}

/// Satellite: the hand-scripted schedules of `lower_bounds` must be no
/// stronger than the exhaustively discovered worst case — the script is a
/// regression pin, the search is the source of truth. On every checkable size
/// the discovered worst case is exactly the paper's `3n − 6`.
#[test]
fn figure2_script_is_pinned_by_the_discovered_worst_case() {
    for n in 5..=7 {
        let (discovered, scripted) = model_check::cross_validate_figure2(n);
        assert_eq!(
            discovered,
            3 * n as u64 - 6,
            "n={n}: the exhaustive worst case should equal the paper's 3n-6"
        );
        assert_eq!(
            scripted,
            3 * n as u64 - 6,
            "n={n}: the Figure 2 script should force exactly 3n-6"
        );
    }
}

/// Tentpole: the level-synchronous parallel search is bit-equivalent to the
/// sequential reference over **every** packaged Table 1/3 cell plus the
/// Theorem 4 lower-bound cell — identical [`SearchStats`], verdicts, and
/// witness/worst schedules. The parallel merge replays chunk records in
/// sequential order, so nothing weaker than equality is acceptable. Three
/// threads leave a ragged last chunk; four may outnumber the host's CPUs.
#[test]
fn parallel_search_is_bit_identical_to_sequential() {
    for n in 4..=7 {
        let mut checks: Vec<(String, ModelCheck)> = model_check::infeasibility_cells(n)
            .into_iter()
            .map(|cell| (cell.id.clone(), cell.check))
            .collect();
        if n >= 5 {
            checks.push((format!("theorem4(n={n})"), model_check::theorem4_cell(n)));
        }
        for (id, check) in checks {
            let sequential = check.run_with_threads(1);
            for threads in [2, 3, 4] {
                let id = format!("{id} at {threads} threads");
                let parallel = check.run_with_threads(threads);
                assert_eq!(
                    sequential.stats(),
                    parallel.stats(),
                    "{id}: parallel search stats diverged from sequential"
                );
                match (&sequential, &parallel) {
                    (Verdict::Infeasible(s), Verdict::Infeasible(p)) => {
                        assert_eq!(s.witness, p.witness, "{id}: witness schedules diverged");
                        assert_eq!(s.defeat_round, p.defeat_round, "{id}: defeat rounds diverged");
                        assert_eq!(s.proof_depth, p.proof_depth, "{id}: proof depths diverged");
                    }
                    (Verdict::Feasible(s), Verdict::Feasible(p)) => {
                        assert_eq!(
                            s.worst_schedule, p.worst_schedule,
                            "{id}: worst schedules diverged"
                        );
                        assert_eq!(s.worst_round, p.worst_round, "{id}: worst rounds diverged");
                    }
                    (s, p) => {
                        panic!("{id}: verdicts diverged: sequential {s:?} vs parallel {p:?}")
                    }
                }
            }
        }
    }
}

/// A cell that keeps more distinct configurations than its `max_states`
/// budget is inconclusive, not a panic, and it runs out at the same state
/// at every thread count: the budget is counted in the in-order merge.
#[test]
fn a_state_budget_below_the_cell_is_inconclusive_at_every_width() {
    let mut cell = model_check::table3_cells(7)
        .into_iter()
        .find(|cell| cell.id.starts_with("MC-T3-R2"))
        .expect("the Theorem 10 cell is packaged at n = 7");
    let visited = cell.check.run_with_threads(1).stats().visited;
    cell.check.max_states = visited / 2;
    let verdicts = [1, 2].map(|threads| cell.check.run_with_threads(threads));
    let [Verdict::Inconclusive { stats, depth }, Verdict::Inconclusive { stats: stats2, depth: depth2 }] =
        &verdicts
    else {
        panic!("a budget of {} states must be inconclusive: {verdicts:?}", visited / 2);
    };
    assert_eq!((stats, depth), (stats2, depth2), "1 and 2 threads disagree");
    assert_eq!(stats.visited, visited / 2 + 1, "the search stops at the first state over budget");
    assert!(
        stats.peak_frontier >= 32,
        "the budget must run out after a level wide enough to run in parallel"
    );
    assert_eq!(*depth, stats.depth_reached + 1, "the budget runs out inside the next level");
    assert!(verdicts[0].feasible().is_none() && verdicts[0].infeasible().is_none());
    let row = cell.row();
    assert!(!row.holds, "an inconclusive cell does not hold: {row:?}");
    assert!(
        row.observed.contains(&format!("state budget of {}", visited / 2)),
        "the row must name the budget: {}",
        row.observed
    );
}

/// The packed canonical key's bitmask map search produces exactly the bytes
/// of the direct minimum over every admissible map, across the catalogue
/// run under FSYNC and SSYNC on rings of 4 to 17 nodes: whole-byte visit
/// maps (n = 8, 16) and partial tail bytes, landmark and anonymous rings,
/// agents sharing a node, held ports and both handednesses — each case is
/// counted and must occur.
#[test]
fn bitmask_canonical_key_matches_the_exhaustive_minimum() {
    use dynring_engine::KeyScratch;
    use dynring_model::TransportModel;

    let mut rng = proptest::TestRng::new(proptest::seed_from_name("bitmask_canonical_key"));
    let (mut scratch, mut reference_scratch) = (KeyScratch::new(), KeyScratch::new());
    let (mut key, mut reference) = (Vec::new(), Vec::new());
    let cases = [
        "landmark ring",
        "anonymous ring",
        "whole-byte visit map",
        "partial tail byte",
        "agents sharing a node",
        "held port",
        "LeftIsCcw agent",
        "LeftIsCw agent",
    ];
    let mut seen = [0usize; 8];
    for n in 4..=17 {
        for algorithm in Algorithm::full_catalog(n) {
            for (ssync, landmark) in [(false, false), (false, true), (true, false), (true, true)] {
                if algorithm.needs_landmark() && !landmark {
                    continue;
                }
                let mut scenario = if ssync {
                    let mut scenario = Scenario::ssync(n, algorithm, 1);
                    if scenario.synchrony == SynchronyModel::Fsync {
                        scenario.synchrony = SynchronyModel::Ssync(TransportModel::PassiveTransport);
                    }
                    scenario
                } else {
                    Scenario::fsync(n, algorithm)
                };
                scenario.landmark = landmark.then(|| rng.next_u64() as usize % n);
                // The first two agents share a node in every other cell.
                let shared = rng.next_u64() & 1 == 0;
                let mut starts: Vec<usize> =
                    scenario.starts.iter().map(|_| rng.next_u64() as usize % n).collect();
                if shared && starts.len() > 1 {
                    starts[1] = starts[0];
                }
                scenario.orientations = starts
                    .iter()
                    .map(|_| {
                        if rng.next_u64() & 1 == 0 { Handedness::LeftIsCcw } else { Handedness::LeftIsCw }
                    })
                    .collect();
                scenario.starts = starts;
                let check = ModelCheck::new(scenario, Objective::Explore, 1);
                let mut sim = check.branchable_simulation();
                let ring = check.scenario.ring();
                for round in 0..2 * n {
                    let cp = sim.checkpoint();
                    cp.canonical_key_into(&ring, &mut scratch, &mut key);
                    cp.canonical_key_exhaustive(&ring, &mut reference_scratch, &mut reference);
                    assert_eq!(
                        key,
                        reference,
                        "{algorithm} n={n} ssync={ssync} landmark={:?} round {round}",
                        ring.landmark()
                    );
                    let view = sim.peek();
                    let agents = &view.agents;
                    let shares = (1..agents.len())
                        .any(|i| agents[..i].iter().any(|other| other.node == agents[i].node));
                    let covered = [
                        landmark,
                        !landmark,
                        n % 8 == 0,
                        n % 8 != 0,
                        shares,
                        agents.iter().any(|agent| agent.held_port.is_some()),
                        agents.iter().any(|agent| agent.handedness == Handedness::LeftIsCcw),
                        agents.iter().any(|agent| agent.handedness == Handedness::LeftIsCw),
                    ];
                    for (count, hit) in seen.iter_mut().zip(covered) {
                        *count += usize::from(hit);
                    }
                    let choice = rng.next_u64() as usize % (n + 1);
                    if !sim.step_with_edge((choice < n).then(|| EdgeId::new(choice))) {
                        break;
                    }
                }
            }
        }
    }
    for (case, count) in cases.iter().zip(seen) {
        assert!(count > 0, "no checked state had a {case}");
    }
}

/// Tentpole: dedup on the legacy `Debug`-string key and on the packed binary
/// key must agree on every verdict and every witness — both encodings are
/// injective per candidate mapping, so the lexicographic minimum lands on the
/// same orbit representative and the searches prune identically.
#[test]
fn debug_key_search_agrees_with_packed_key_search() {
    for n in 4..=5 {
        for cell in model_check::infeasibility_cells(n) {
            let packed = cell.check.run_with_threads(1);
            let mut debug_check = cell.check.clone();
            debug_check.use_debug_key = true;
            let debug = debug_check.run_with_threads(1);
            assert_eq!(
                packed.stats(),
                debug.stats(),
                "{}: packed-key search stats diverged from Debug-key search",
                cell.id
            );
            assert_eq!(
                packed.is_feasible(),
                debug.is_feasible(),
                "{}: verdicts diverged between key encodings",
                cell.id
            );
            if let (Some(p), Some(d)) = (packed.infeasible(), debug.infeasible()) {
                assert_eq!(p.witness, d.witness, "{}: witnesses diverged", cell.id);
            }
        }
    }
}

/// The scenario cell a catalogue algorithm is checked in: the algorithm's
/// natural synchrony/scheduler with deterministic parameters.
fn catalog_cell(n: usize, algorithm: Algorithm, seed: u64) -> Scenario {
    match algorithm.synchrony() {
        SynchronyModel::Fsync => Scenario::fsync(n, algorithm),
        SynchronyModel::Ssync(_) => Scenario::ssync(n, algorithm, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: soundness of `Verdict::Feasible` — if the exhaustive search
    /// says the objective is achieved on **every** play within the depth
    /// bound, then a sampled (randomised-adversary) run of the same cell must
    /// also achieve it within the bound.
    #[test]
    fn feasible_verdicts_imply_sampled_sweeps_succeed(
        n in 4usize..7,
        pick in 0usize..64,
        seed in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let depth = 4 * n as u64;
        let check = ModelCheck::new(catalog_cell(n, algorithm, 1), Objective::Explore, depth);
        if let Some(proof) = check.run().feasible() {
            // Any play explores by `depth`; a sampled sticky-random play is
            // one such play.
            let mut scenario = check.scenario.clone();
            scenario.adversary = AdversaryKind::Sticky {
                min_hold: 1,
                max_hold: n as u64,
                present: 0.3,
                seed,
            };
            scenario.stop = StopCondition::Explored;
            scenario.max_rounds = depth;
            let report = scenario.run();
            prop_assert!(
                report.explored(),
                "{algorithm} n={n}: exhaustive search proved exploration by round {depth} \
                 on every play (worst {}), but the sampled play explored only {}/{n} nodes",
                proof.worst_round,
                report.visited_count,
            );
        }
    }

    /// Satellite: the canonical configuration key quotients exactly the ring
    /// symmetries — rotating a whole cell (starts, landmark, forced edges)
    /// yields bit-identical keys at every round.
    #[test]
    fn canonical_keys_are_rotation_invariant(
        n in 4usize..9,
        pick in 0usize..64,
        start_a in 0usize..8,
        start_b in 0usize..8,
        shift in 1usize..8,
        schedule_bits in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let shift = shift % n;
        let agents = algorithm.required_agents();
        let starts: Vec<usize> =
            [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
        if starts.is_empty() { return Ok(()); }

        let base = catalog_cell(n, algorithm, 1).with_starts(starts.clone());
        let mut rotated = catalog_cell(n, algorithm, 1)
            .with_starts(starts.iter().map(|&s| (s + shift) % n).collect());
        rotated.landmark = base.landmark.map(|l| (l + shift) % n);

        let check_a = ModelCheck::new(base, Objective::Explore, 1);
        let check_b = ModelCheck::new(rotated, Objective::Explore, 1);
        let mut sim_a = check_a.branchable_simulation();
        let mut sim_b = check_b.branchable_simulation();
        let ring_a = check_a.scenario.ring();
        let ring_b = check_b.scenario.ring();
        let (mut key_a, mut key_b) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            // Pseudo-random forced choice, mapped through the rotation.
            let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
            let (edge_a, edge_b) = if choice < n {
                (Some(EdgeId::new(choice)), Some(EdgeId::new((choice + shift) % n)))
            } else {
                (None, None)
            };
            sim_a.step_with_edge(edge_a);
            sim_b.step_with_edge(edge_b);
            sim_a.checkpoint().canonical_key(&ring_a, &mut key_a);
            sim_b.checkpoint().canonical_key(&ring_b, &mut key_b);
            prop_assert_eq!(
                &key_a, &key_b,
                "{} n={} shift={} diverged at round {}", algorithm, n, shift, round
            );
        }
    }

    /// Tentpole: the packed binary key induces **exactly** the same
    /// equivalence classes as the legacy `Debug`-string key. Two
    /// configurations — one a random rotation/reflection of the other, or a
    /// genuinely different cell (perturbed start) — have equal packed keys if
    /// and only if they have equal `Debug` keys, at every round of a random
    /// forced-edge play.
    #[test]
    fn packed_key_classes_match_debug_key_classes(
        n in 4usize..9,
        pick in 0usize..64,
        start_a in 0usize..8,
        start_b in 0usize..8,
        shift in 0usize..8,
        reflect in any::<bool>(),
        perturb in any::<bool>(),
        schedule_bits in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let shift = shift % n;
        let agents = algorithm.required_agents();
        let starts: Vec<usize> =
            [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
        if starts.is_empty() { return Ok(()); }

        // The comparison cell: a symmetry image of the base (equal classes
        // expected) or a perturbed sibling (usually distinct classes) —
        // either way both encodings must agree on equality.
        let map = |v: usize| {
            let rotated = (v + shift) % n;
            if reflect { (n - rotated) % n } else { rotated }
        };
        let base = catalog_cell(n, algorithm, 1).with_starts(starts.clone());
        let mut other = catalog_cell(n, algorithm, 1).with_starts(
            starts
                .iter()
                .map(|&s| if perturb { (s + 1) % n } else { map(s) })
                .collect(),
        );
        if !perturb {
            other.landmark = base.landmark.map(map);
            if reflect {
                other.orientations = base
                    .orientations
                    .iter()
                    .map(|&h| match h {
                        Handedness::LeftIsCcw => Handedness::LeftIsCw,
                        Handedness::LeftIsCw => Handedness::LeftIsCcw,
                    })
                    .collect();
            }
        }

        let check_a = ModelCheck::new(base, Objective::Explore, 1);
        let check_b = ModelCheck::new(other, Objective::Explore, 1);
        let mut sim_a = check_a.branchable_simulation();
        let mut sim_b = check_b.branchable_simulation();
        let ring = check_a.scenario.ring();
        let (mut packed_a, mut packed_b) = (Vec::new(), Vec::new());
        let (mut debug_a, mut debug_b) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
            let edge_a = (choice < n).then(|| EdgeId::new(choice));
            let edge_b = if perturb {
                edge_a
            } else {
                // Map the forced edge through the same symmetry: edge
                // e = (e, e+1) rotates to e + shift and reflects to
                // (n - 1) - e.
                (choice < n).then(|| {
                    let rotated = (choice + shift) % n;
                    EdgeId::new(if reflect { (n + n - 1 - rotated) % n } else { rotated })
                })
            };
            sim_a.step_with_edge(edge_a);
            sim_b.step_with_edge(edge_b);
            let cp_a = sim_a.checkpoint();
            let cp_b = sim_b.checkpoint();
            cp_a.canonical_key(&ring, &mut packed_a);
            cp_b.canonical_key(&ring, &mut packed_b);
            cp_a.canonical_key_debug(&ring, &mut debug_a);
            cp_b.canonical_key_debug(&ring, &mut debug_b);
            prop_assert_eq!(
                packed_a == packed_b,
                debug_a == debug_b,
                "{} n={} shift={} reflect={} perturb={}: encodings disagree at round {} \
                 (packed equal: {}, debug equal: {})",
                algorithm, n, shift, reflect, perturb, round,
                packed_a == packed_b, debug_a == debug_b
            );
        }
    }

    /// Satellite: reflecting a whole cell through node 0 (mirrored starts and
    /// forced edges, flipped orientations) also yields bit-identical keys.
    #[test]
    fn canonical_keys_are_reflection_invariant(
        n in 4usize..9,
        pick in 0usize..64,
        start_a in 0usize..8,
        start_b in 0usize..8,
        schedule_bits in any::<u64>(),
    ) {
        let catalog = Algorithm::full_catalog(n);
        let algorithm = catalog[pick % catalog.len()];
        let agents = algorithm.required_agents();
        let starts: Vec<usize> =
            [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
        if starts.is_empty() { return Ok(()); }
        let orientations: Vec<Handedness> = (0..agents)
            .map(|i| if (schedule_bits >> i) & 1 == 0 {
                Handedness::LeftIsCcw
            } else {
                Handedness::LeftIsCw
            })
            .collect();
        let flip = |h: Handedness| match h {
            Handedness::LeftIsCcw => Handedness::LeftIsCw,
            Handedness::LeftIsCw => Handedness::LeftIsCcw,
        };

        let base = catalog_cell(n, algorithm, 1)
            .with_starts(starts.clone())
            .with_orientations(orientations.clone());
        // Reflection through node 0: node v -> (n - v) % n fixes the default
        // landmark 0; edge e = (e, e+1) -> (n - 1 - e).
        let mirrored = catalog_cell(n, algorithm, 1)
            .with_starts(starts.iter().map(|&s| (n - s) % n).collect())
            .with_orientations(orientations.iter().map(|&h| flip(h)).collect());

        let check_a = ModelCheck::new(base, Objective::Explore, 1);
        let check_b = ModelCheck::new(mirrored, Objective::Explore, 1);
        let mut sim_a = check_a.branchable_simulation();
        let mut sim_b = check_b.branchable_simulation();
        let ring = check_a.scenario.ring();
        let (mut key_a, mut key_b) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
            let (edge_a, edge_b) = if choice < n {
                (Some(EdgeId::new(choice)), Some(EdgeId::new(n - 1 - choice)))
            } else {
                (None, None)
            };
            sim_a.step_with_edge(edge_a);
            sim_b.step_with_edge(edge_b);
            sim_a.checkpoint().canonical_key(&ring, &mut key_a);
            sim_b.checkpoint().canonical_key(&ring, &mut key_b);
            prop_assert_eq!(
                &key_a, &key_b,
                "{} n={} diverged at round {}", algorithm, n, round
            );
        }
    }
}
