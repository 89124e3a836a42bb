//! Exhaustive model checking of the Table 1/3 impossibility rows on small
//! rings, plus the soundness properties the search rests on: every adversary
//! play is explored, every discovered witness schedule replays through a
//! scripted adversary to the same defeat, and the canonical configuration key
//! is invariant under the ring's rotation/reflection symmetries.

#[allow(dead_code)]
mod common;

use dynring_analysis::markdown_table;
use dynring_analysis::model_check::{self, ModelCheck, Objective, Verdict};
use dynring_analysis::scenario::{AdversaryKind, Scenario};
use dynring_core::Algorithm;
use dynring_engine::{KeyScratch, Simulation, StopCondition};
use std::collections::HashSet;
use dynring_graph::{EdgeId, EdgeSchedule, Handedness};
use dynring_model::SynchronyModel;
use proptest::prelude::*;

/// The round the cell's sampled adversary defeats its safety objective
/// in, or `None` where that play does not (measured at n = 4..=14): the
/// Table 1 witnesses stop the deceived strategy at round 4 once the ring
/// outgrows what it covers by then, and the Theorem 19 witness at 3n − 8,
/// the search's own defeat round.
fn sampled_defeat_round(id: &str, n: usize) -> Option<u64> {
    match id.split('(').next() {
        Some("MC-T1-R1") => (n >= 6).then_some(4),
        Some("MC-T1-R2") => (n >= 7).then_some(4),
        Some("MC-T3-R4") => Some(3 * n as u64 - 8),
        _ => None,
    }
}

/// The machine-checked acceptance matrix: every exhaustively checkable
/// Table 1/3 cell for `4 ≤ n ≤ max_check_n` (default 9, `DYNRING_MC_MAX_N`
/// raises it) resolves to the verdict the paper predicts, and every
/// impossibility witness replays through [`AdversaryKind::Scripted`] to the
/// same non-achievement outcome.
///
/// Each cell's sampled run, the scripted adversary its `tables` row plays,
/// is checked against the search at the same size: it never defeats the
/// feasible safety cell; it defeats every survival cell and outlasts the
/// search's depth; and where it violates a safety objective, it does so no
/// earlier than the search's earliest defeat, at the round
/// [`sampled_defeat_round`] pins.
#[test]
fn every_table1_and_table3_row_is_proven_for_small_n() {
    for n in 4..=model_check::max_check_n(9) {
        for cell in model_check::infeasibility_cells(n) {
            let verdict = cell.check.run();
            let objective = cell.check.objective;
            let sampled = cell.sampled.run();
            let sampled_defeat = objective.defeated_in(&sampled);
            if cell.expect_infeasible {
                let proof = verdict.infeasible().unwrap_or_else(|| {
                    panic!("{} ({}) must be infeasible", cell.id, cell.claim)
                });
                let replay = cell.check.replay(&proof.witness);
                assert!(
                    objective.defeated_in(&replay),
                    "{}: the discovered witness (horizon {}) does not reproduce the \
                     {} defeat when replayed through a scripted adversary: {replay:?}",
                    cell.id,
                    proof.witness.horizon(),
                    objective.label(),
                );
                if objective.is_safety() {
                    let first = sampled.first_termination().filter(|_| sampled_defeat);
                    assert_eq!(
                        first,
                        sampled_defeat_round(&cell.id, n),
                        "{}: the sampled adversary's defeat round moved",
                        cell.id
                    );
                    assert!(
                        first.is_none_or(|round| round >= proof.defeat_round),
                        "{}: the sampled run defeats at round {first:?}, before the \
                         search's earliest defeat at round {}",
                        cell.id,
                        proof.defeat_round
                    );
                } else {
                    assert!(
                        sampled_defeat && sampled.rounds >= cell.check.depth,
                        "{}: the sampled run must survive the search's {} rounds \
                         without {}: {sampled:?}",
                        cell.id,
                        cell.check.depth,
                        objective.label()
                    );
                }
            } else {
                assert!(
                    verdict.is_feasible(),
                    "{} ({}) must be feasible, got {verdict:?}",
                    cell.id,
                    cell.claim
                );
                assert!(
                    !sampled_defeat,
                    "{}: the sampled run defeats a feasible cell",
                    cell.id
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

/// FNV-1a over a text rendering of a schedule's ring size and per-round
/// missing edges: a short, stable fingerprint of a witness or worst
/// schedule for the output pin below. The pins were recorded from the
/// schedule's derived `Debug`, which then also named the after-horizon
/// mode (always `AllPresent`); the rendering is built from the schedule's
/// content in that exact form, so the recorded table stays comparable and
/// does not depend on the type's fields.
fn schedule_digest(schedule: &EdgeSchedule) -> u64 {
    let missing: Vec<Option<EdgeId>> =
        (1..=schedule.horizon()).map(|round| schedule.missing_at(round)).collect();
    common::fnv(&format!(
        "EdgeSchedule {{ ring_size: {}, missing: {missing:?}, after: AllPresent }}",
        schedule.ring_size()
    ))
}

/// One pinned search output: cell id, verdict kind, the full
/// [`SearchStats`] (expanded, visited, peak frontier, depth reached), the
/// defeat or worst round, and the [`schedule_digest`] of the witness or
/// worst schedule.
type Pin = (&'static str, &'static str, u64, u64, usize, u64, u64, u64);

/// The sequential search's outputs for every packaged cell at n = 4..=7,
/// as recorded before choices that share the all-present round were
/// scored from one step.
#[rustfmt::skip]
const SEARCH_PINS: &[Pin] = &[
    ("MC-T1-R1(n=4)", "infeasible", 46, 13, 5, 4, 4, 12073661243166338939),
    ("MC-T1-R2(n=4)", "infeasible", 16, 3, 1, 4, 4, 10515272153976449413),
    ("MC-T1-R3(n=4)", "feasible", 22270, 7908, 2092, 10, 10, 1853160979889934467),
    ("MC-T3-R1a(n=4)", "infeasible", 400, 80, 1, 80, 80, 4339306459616073371),
    ("MC-T3-R1b(n=4)", "infeasible", 400, 80, 1, 80, 80, 4339306459616073371),
    ("MC-T3-R1c(n=4)", "infeasible", 400, 80, 1, 80, 80, 11141539558481327842),
    ("MC-T3-R2(n=4)", "infeasible", 1205, 248, 10, 32, 32, 3049038172366787419),
    ("MC-T3-R3(n=4)", "infeasible", 2335, 742, 176, 8, 8, 6683698085162446971),
    ("MC-T1-R1(n=5)", "infeasible", 79, 29, 17, 4, 4, 9493537666599119736),
    ("MC-T1-R2(n=5)", "infeasible", 67, 18, 8, 4, 4, 6596179982216573790),
    ("MC-T1-R3(n=5)", "feasible", 49848, 14052, 3675, 11, 11, 11297114934186064946),
    ("MC-T3-R1a(n=5)", "infeasible", 600, 100, 1, 100, 100, 487444437626311316),
    ("MC-T3-R1b(n=5)", "infeasible", 600, 100, 1, 100, 100, 487444437626311316),
    ("MC-T3-R1c(n=5)", "infeasible", 600, 100, 1, 100, 100, 17004305916180737144),
    ("MC-T3-R2(n=5)", "infeasible", 4182, 715, 23, 40, 40, 15786331325970584524),
    ("MC-T3-R3(n=5)", "infeasible", 7356, 1925, 471, 9, 9, 7131055708684736222),
    ("MC-T3-R4(n=5)", "infeasible", 568, 191, 91, 7, 7, 6275554250123930289),
    ("theorem4(n=5)", "feasible", 480, 79, 20, 9, 9, 368359981543682928),
    ("MC-T1-R1(n=6)", "infeasible", 92, 38, 26, 4, 4, 17120500955879821770),
    ("MC-T1-R2(n=6)", "infeasible", 141, 45, 26, 4, 4, 11211930589305773174),
    ("MC-T1-R3(n=6)", "feasible", 102158, 23619, 6035, 12, 12, 11350432416700305633),
    ("MC-T3-R1a(n=6)", "infeasible", 840, 120, 1, 120, 120, 7463148222059779945),
    ("MC-T3-R1b(n=6)", "infeasible", 840, 120, 1, 120, 120, 7463148222059779945),
    ("MC-T3-R1c(n=6)", "infeasible", 840, 120, 1, 120, 120, 3619466792114775121),
    ("MC-T3-R2(n=6)", "infeasible", 11291, 1649, 45, 48, 48, 5280467573604804561),
    ("MC-T3-R3(n=6)", "infeasible", 17626, 3967, 1010, 10, 10, 4211045077650437417),
    ("MC-T3-R4(n=6)", "infeasible", 7054, 1805, 798, 10, 10, 11428423161606728128),
    ("theorem4(n=6)", "feasible", 2170, 309, 66, 12, 12, 9499177414842066387),
    ("MC-T1-R1(n=7)", "infeasible", 105, 39, 27, 4, 4, 18381802951012156090),
    ("MC-T1-R2(n=7)", "infeasible", 161, 71, 52, 4, 4, 2335206463732245542),
    ("MC-T1-R3(n=7)", "feasible", 191736, 33627, 9183, 13, 13, 13021818515727679260),
    ("MC-T3-R1a(n=7)", "infeasible", 1120, 140, 1, 140, 140, 8420254335906147190),
    ("MC-T3-R1b(n=7)", "infeasible", 1120, 140, 1, 140, 140, 8420254335906147190),
    ("MC-T3-R1c(n=7)", "infeasible", 1120, 140, 1, 140, 140, 9832245718067746348),
    ("MC-T3-R2(n=7)", "infeasible", 26640, 3395, 78, 56, 56, 17902301471282669458),
    ("MC-T3-R3(n=7)", "infeasible", 39344, 7828, 1988, 11, 11, 14679523660318048760),
    ("MC-T3-R4(n=7)", "infeasible", 71918, 14645, 5818, 13, 13, 8603320151208432399),
    ("theorem4(n=7)", "feasible", 7664, 957, 170, 15, 15, 3738808876491554630),
];

/// The sequential search's outputs for every packaged cell at n = 8 and 9,
/// recorded before the frontier kept its states as canonical keys instead of
/// checkpoints. MC-T3-R4(n=9) is the widest level any packaged cell reaches.
#[rustfmt::skip]
const LARGE_SEARCH_PINS: &[Pin] = &[
    ("MC-T1-R1(n=8)", "infeasible", 118, 39, 27, 4, 4, 9184302537610829383),
    ("MC-T1-R2(n=8)", "infeasible", 181, 77, 58, 4, 4, 9184302537610829383),
    ("MC-T1-R3(n=8)", "feasible", 291114, 44512, 9374, 14, 14, 9599135402624532831),
    ("MC-T3-R1a(n=8)", "infeasible", 1440, 160, 1, 160, 160, 130698245644896855),
    ("MC-T3-R1b(n=8)", "infeasible", 1440, 160, 1, 160, 160, 130698245644896855),
    ("MC-T3-R1c(n=8)", "infeasible", 1440, 160, 1, 160, 160, 13528325156849683716),
    ("MC-T3-R2(n=8)", "infeasible", 58149, 6573, 129, 64, 64, 7558048800124486999),
    ("MC-T3-R3(n=8)", "infeasible", 73107, 13150, 3206, 12, 12, 1585992810931534631),
    ("MC-T3-R4(n=8)", "infeasible", 578437, 98105, 34894, 16, 16, 1194603362183938802),
    ("theorem4(n=8)", "feasible", 22410, 2489, 381, 18, 18, 17294695848207821121),
    ("MC-T1-R1(n=9)", "infeasible", 131, 39, 27, 4, 4, 4541620973260868256),
    ("MC-T1-R2(n=9)", "infeasible", 201, 77, 58, 4, 4, 4541620973260868256),
    ("MC-T1-R3(n=9)", "feasible", 448930, 64997, 11964, 15, 15, 7773165299807686166),
    ("MC-T3-R1a(n=9)", "infeasible", 1800, 180, 1, 180, 180, 10600100660446696936),
    ("MC-T3-R1b(n=9)", "infeasible", 1800, 180, 1, 180, 180, 10600100660446696936),
    ("MC-T3-R1c(n=9)", "infeasible", 1800, 180, 1, 180, 180, 3020855445812093340),
    ("MC-T3-R2(n=9)", "infeasible", 118080, 11992, 205, 72, 72, 7753199941306430760),
    ("MC-T3-R3(n=9)", "infeasible", 134510, 21811, 5348, 13, 13, 13355959205264295730),
    ("MC-T3-R4(n=9)", "infeasible", 3769228, 546450, 174023, 19, 19, 4234437316749315525),
    ("theorem4(n=9)", "feasible", 56860, 5685, 773, 21, 21, 6428146506057711652),
];

/// The [`Pin`] rows of every packaged Table 1/3 cell and the Theorem 4 cell
/// (from n = 5) at each size of `sizes`, searched on `threads` workers, each
/// rendered by its `Debug` form.
fn search_pin_rows(sizes: std::ops::RangeInclusive<usize>, threads: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for n in sizes {
        let mut checks: Vec<(String, ModelCheck)> = model_check::infeasibility_cells(n)
            .into_iter()
            .map(|cell| (cell.id, cell.check))
            .collect();
        if n >= 5 {
            checks.push((format!("theorem4(n={n})"), model_check::theorem4_cell(n)));
        }
        for (id, check) in checks {
            let verdict = check.run_with_threads(threads);
            let stats = *verdict.stats();
            let (kind, round, digest) = match &verdict {
                Verdict::Infeasible(p) => {
                    ("infeasible", p.defeat_round, schedule_digest(&p.witness))
                }
                Verdict::Feasible(p) => {
                    ("feasible", p.worst_round, schedule_digest(&p.worst_schedule))
                }
                Verdict::Inconclusive { depth, .. } => ("inconclusive", *depth, 0),
            };
            let row = (
                id.as_str(),
                kind,
                stats.expanded,
                stats.visited,
                stats.peak_frontier,
                stats.depth_reached,
                round,
                digest,
            );
            rows.push(format!("{row:?}"));
        }
    }
    rows
}

fn rendered(pins: &[Pin]) -> Vec<String> {
    pins.iter().map(|row| format!("{row:?}")).collect()
}

/// Every packaged Table 1/3 cell and the Theorem 4 cell at n = 4..=7 keep
/// the verdict, the search statistics, the decisive round and the
/// schedule pinned in [`SEARCH_PINS`]. The parallel-equivalence test only
/// compares the search with itself; this one compares it with recorded
/// outputs.
#[test]
fn search_outputs_match_the_recorded_table() {
    assert_eq!(
        search_pin_rows(4..=7, 1),
        rendered(SEARCH_PINS),
        "search outputs diverged from the recorded table"
    );
}

/// The same pins at n = 8 and 9, where the frontiers are widest, on the
/// sequential search and on two workers.
#[test]
fn large_search_outputs_match_the_recorded_table() {
    for threads in [1, 2] {
        assert_eq!(
            search_pin_rows(8..=9, threads),
            rendered(LARGE_SEARCH_PINS),
            "search outputs at {threads} thread(s) diverged from the recorded table"
        );
    }
}

/// The rendered rows of the n = 4, 5 matrix, as the `model_check` example
/// prints them, keep the texts recorded before the Table 1/3 rows were
/// built from the model-check cells.
#[test]
fn matrix_row_texts_match_the_recorded_digest() {
    let rendered = markdown_table(
        "Exhaustive model checking",
        &model_check::model_check_rows(&[4, 5]),
    );
    assert_eq!(
        common::fnv(&rendered),
        8_819_475_029_787_789_053,
        "the matrix rows changed:\n{rendered}"
    );
}

/// The key-visible columns of a run, as its adversary sees them: round,
/// visit map, and per agent the node, held port, termination flag,
/// handedness, predicted action (a function of the program state), sleep
/// age, and the rank of its last-active round among the team's.
fn key_visible_view(sim: &mut Simulation) -> String {
    let round = sim.round();
    let view = sim.peek();
    let agents: Vec<_> = view
        .agents
        .iter()
        .map(|a| {
            let earlier = view.agents.iter().filter(|b| b.last_active_round < a.last_active_round);
            let rank = earlier.count();
            (a.node, a.held_port, a.terminated, a.handedness, a.predicted, a.asleep_on_port, rank)
        })
        .collect();
    format!("{round} {:?} {agents:?}", view.visited)
}

/// Rebuilding a state from its canonical key is exact on the states the
/// search reaches: in every packaged cell at n = 4..=6, each state reached
/// by a forced step from a level, at most `LEVEL_SAMPLE` parents a level
/// (spread evenly over it), is keyed, restored into a second simulation
/// from its key and map, and keyed again. The bytes and map must match,
/// and so must every column the key holds.
#[test]
fn keys_round_trip_through_the_reachable_states_of_small_cells() {
    const LEVEL_SAMPLE: usize = 48;
    let mut scratch = KeyScratch::new();
    let (mut key, mut rekey) = (Vec::new(), Vec::new());
    for n in 4..=6 {
        let mut checks: Vec<(String, ModelCheck)> = model_check::infeasibility_cells(n)
            .into_iter()
            .map(|cell| (cell.id, cell.check))
            .collect();
        if n >= 5 {
            checks.push((format!("theorem4(n={n})"), model_check::theorem4_cell(n)));
        }
        for (id, check) in checks {
            let mut sim = check.branchable_simulation();
            let mut twin = check.branchable_simulation();
            let mut level = vec![sim.checkpoint()];
            let mut kept = HashSet::new();
            for depth in 1..=check.depth {
                let mut next = Vec::new();
                kept.clear();
                for parent in &level {
                    for choice in 0..=n {
                        let label = format!("{id} depth {depth} choice {choice}");
                        sim.restore(parent);
                        sim.step_with_edge((choice < n).then(|| EdgeId::new(choice)));
                        let map = sim.canonical_key_into(&mut scratch, &mut key);
                        twin.restore_from_key(&key, map);
                        let twin_map = twin.canonical_key_into(&mut scratch, &mut rekey);
                        assert_eq!((twin_map, &rekey), (map, &key), "{label}");
                        let view = key_visible_view(&mut sim);
                        assert_eq!(key_visible_view(&mut twin), view, "{label}");
                        if sim.alive_count() > 0 && kept.insert(key.clone()) {
                            next.push(sim.checkpoint());
                        }
                    }
                }
                let stride = next.len().div_ceil(LEVEL_SAMPLE).max(1);
                level = next.into_iter().step_by(stride).collect();
                if level.is_empty() {
                    break;
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
    let row = cell.row(&mut model_check::SearchContext::from_env());
    assert!(!row.holds, "an inconclusive cell does not hold: {row:?}");
    assert!(
        row.observed.contains(&format!("state budget of {}", visited / 2)),
        "the row must name the budget: {}",
        row.observed
    );
}

/// Whether two admissible maps carry the visit map to the same mask and
/// every agent to the same node, so that only the agents' flags bytes
/// (whose handedness bit a reflection always flips) order them. The visit
/// map is read off the public view only when one node or every node has
/// been visited; any other state counts as no.
fn flags_break_a_mask_tie(
    n: usize,
    landmark: Option<usize>,
    visited_count: usize,
    nodes: &[usize],
) -> bool {
    let visited: Vec<usize> = match visited_count {
        1 => vec![nodes[0]],
        count if count == n => (0..n).collect(),
        _ => return false,
    };
    let maps: Vec<(usize, bool)> = match landmark {
        Some(l) => vec![((n - l) % n, false), (l, true)],
        None => (0..n).flat_map(|rot| [(rot, false), (rot, true)]).collect(),
    };
    let image = |v: usize, (rot, reflect): (usize, bool)| {
        if reflect { (rot + n - v) % n } else { (v + rot) % n }
    };
    let placed = |map| {
        let mut mask: Vec<usize> = visited.iter().map(|&v| image(v, map)).collect();
        mask.sort_unstable();
        (mask, nodes.iter().map(|&v| image(v, map)).collect::<Vec<_>>())
    };
    maps.iter().enumerate().any(|(i, &a)| maps[i + 1..].iter().any(|&b| placed(a) == placed(b)))
}

/// The packed canonical key's two-pass map search produces exactly the
/// bytes of the direct minimum over every admissible map, across the
/// catalogue run under FSYNC and SSYNC on rings of 4 to 17 nodes, plus
/// five-agent teams mixing two catalogue algorithms. Each case is counted
/// and must occur: whole-byte visit maps (n = 8, 16) and partial tail bytes,
/// landmark and anonymous rings, agents sharing a node, held ports and both
/// handednesses, a fully visited ring (every admissible map ties on the
/// visit mask), a mask tie that only the flags bytes break, and teams of
/// four or more agents.
#[test]
fn bitmask_canonical_key_matches_the_exhaustive_minimum() {
    use dynring_engine::adversary::NoRemoval;
    use dynring_engine::scheduler::{FullActivation, RoundRobinSingle};
    use dynring_engine::{ActivationPolicy, AgentSpec, KeyScratch, RunSpec, Simulation};
    use dynring_graph::{NodeId, RingTopology};
    use dynring_model::TransportModel;

    // Checks one state against the reference, leaving its key in `key`,
    // and counts the cases it covers.
    fn check(
        sim: &mut Simulation,
        label: &str,
        scratch: &mut [KeyScratch; 2],
        key: &mut Vec<u8>,
        seen: &mut [usize; 11],
    ) {
        let ring = sim.ring().clone();
        let (n, visited) = (ring.size(), sim.visited_count());
        let landmark = ring.landmark().map(NodeId::index);
        let cp = sim.checkpoint();
        let mut reference = Vec::new();
        cp.canonical_key_into(&ring, &mut scratch[0], key);
        cp.canonical_key_exhaustive(&ring, &mut scratch[1], &mut reference);
        assert_eq!(*key, reference, "{label} landmark={landmark:?}");
        let view = sim.peek();
        let agents = &view.agents;
        let shares =
            (1..agents.len()).any(|i| agents[..i].iter().any(|other| other.node == agents[i].node));
        let nodes: Vec<usize> = agents.iter().map(|agent| agent.node.index()).collect();
        let covered = [
            landmark.is_some(),
            landmark.is_none(),
            n % 8 == 0,
            n % 8 != 0,
            shares,
            agents.iter().any(|agent| agent.held_port.is_some()),
            agents.iter().any(|agent| agent.handedness == Handedness::LeftIsCcw),
            agents.iter().any(|agent| agent.handedness == Handedness::LeftIsCw),
            visited == n,
            flags_break_a_mask_tie(n, landmark, visited, &nodes),
            agents.len() >= 4,
        ];
        for (count, hit) in seen.iter_mut().zip(covered) {
            *count += usize::from(hit);
        }
    }

    let mut rng = proptest::TestRng::new(proptest::seed_from_name("bitmask_canonical_key"));
    let mut scratch = [KeyScratch::new(), KeyScratch::new()];
    let mut key = Vec::new();
    let cases = [
        "landmark ring",
        "anonymous ring",
        "whole-byte visit map",
        "partial tail byte",
        "agents sharing a node",
        "held port",
        "LeftIsCcw agent",
        "LeftIsCw agent",
        "fully visited ring",
        "mask tie broken only by the flags byte",
        "team of four or more agents",
    ];
    let mut seen = [0usize; 11];
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
                // The first two agents share a node in every other cell,
                // and every fourth cell runs a team of at least four.
                let shared = rng.next_u64() & 1 == 0;
                let team = if rng.next_u64().is_multiple_of(4) {
                    scenario.starts.len().max(4)
                } else {
                    scenario.starts.len()
                };
                let mut starts: Vec<usize> = (0..team).map(|_| rng.next_u64() as usize % n).collect();
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
                let model = ModelCheck::new(scenario, Objective::Explore, 1);
                let mut sim = model.branchable_simulation();
                for round in 0..3 * n {
                    let label = format!("{algorithm} n={n} ssync={ssync} round {round}");
                    check(&mut sim, &label, &mut scratch, &mut key, &mut seen);
                    let choice = rng.next_u64() as usize % (n + 1);
                    if !sim.step_with_edge((choice < n).then(|| EdgeId::new(choice))) {
                        break;
                    }
                }
            }
        }
    }
    // Mixed teams: five agents alternating between two catalogue algorithms.
    for n in [5, 8, 11, 16] {
        for (ssync, landmark) in [(false, None), (true, Some(n / 2))] {
            let ring = match landmark {
                Some(l) => RingTopology::with_landmark(n, NodeId::new(l)).unwrap(),
                None => RingTopology::new(n).unwrap(),
            };
            let algorithms = [Algorithm::Unconscious, Algorithm::KnownBound { upper_bound: n }];
            let agents = [0, n / 3, n / 3, n - 1, 1]
                .into_iter()
                .enumerate()
                .map(|(i, start)| {
                    let handedness =
                        if i % 2 == 0 { Handedness::LeftIsCcw } else { Handedness::LeftIsCw };
                    AgentSpec::new(NodeId::new(start), handedness, algorithms[i % 2].instantiate())
                })
                .collect();
            let (synchrony, activation): (_, Box<dyn ActivationPolicy>) = if ssync {
                let pt = SynchronyModel::Ssync(TransportModel::PassiveTransport);
                (pt, Box::new(RoundRobinSingle::new()))
            } else {
                (SynchronyModel::Fsync, Box::new(FullActivation))
            };
            let spec = RunSpec::new(ring, synchrony, agents, false).unwrap();
            let mut sim = spec.instantiate(activation, Box::new(NoRemoval));
            for round in 0..3 * n {
                let label = format!("mixed team n={n} ssync={ssync} round {round}");
                check(&mut sim, &label, &mut scratch, &mut key, &mut seen);
                let choice = rng.next_u64() as usize % (n + 1);
                sim.step_with_edge((choice < n).then(|| EdgeId::new(choice)));
            }
        }
    }
    for (case, count) in cases.iter().zip(seen) {
        assert!(count > 0, "no checked state had a {case}");
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
