//! Reproduction of Tables 1–4 of the paper.
//!
//! * Possibility rows run the corresponding constructive algorithm against
//!   the adversary battery and check exploration, the promised termination
//!   discipline and the claimed complexity bound.
//! * Impossibility rows run the witnessing adversary from the paper's proof
//!   against the protocols that solve the *stronger* setting and verify that
//!   the guarantee indeed breaks (bounded-horizon refutation). Their
//!   scenarios are the [`model_check`] cells' sampled runs, so the sampled
//!   and the exhaustive check of a row share one description (see
//!   `docs/ARCHITECTURE.md` § Model checking).

use crate::batch::BatchRunner;
use crate::model_check::{self, GUESSED_BOUND};
use crate::report::{RowResult, SweepPoint};
use crate::sweeps::{self, within_bound, PlacementDensity, SweepOutcome};
use dynring_core::fsync::LandmarkNoChirality;
use dynring_core::Algorithm;

/// A possibility row of Table 2 or 4: it holds when every swept run
/// explored, kept the termination discipline its algorithm promises and
/// kept its `worst` quantity (named `quantity` in the text, followed by
/// `note`) within `bound` at every ring size.
fn possibility_row(
    [id, claim, assumptions, paper]: [&str; 4],
    outcome: &SweepOutcome,
    quantity: &str,
    worst: fn(&SweepPoint) -> u64,
    bound: impl Fn(usize) -> u64,
    note: &str,
) -> RowResult {
    let holds = outcome.all_explored
        && outcome.all_terminated_as_promised
        && within_bound(&outcome.points, worst, bound);
    RowResult::new(
        id,
        claim,
        assumptions,
        paper,
        format!(
            "worst {quantity} per n: {:?}{note}",
            outcome.points.iter().map(worst).collect::<Vec<_>>()
        ),
        holds,
        outcome.points.iter().map(|p| p.runs).sum(),
    )
}

/// Table 1 — impossibility results for FSYNC.
///
/// `ring_size` is the size of the ring on which the witnesses are run (the
/// deceiving algorithms are configured with a smaller guessed bound).
#[must_use]
pub fn table1(ring_size: usize) -> Vec<RowResult> {
    table1_with(&BatchRunner::from_env(), ring_size)
}

/// [`table1`] on an explicit [`BatchRunner`]: the witness executions are
/// independent, so they fan across the runner's threads (results are merged
/// in input order, so the rows are identical whatever the thread count).
#[must_use]
pub fn table1_with(runner: &BatchRunner, ring_size: usize) -> Vec<RowResult> {
    assert!(ring_size >= 12, "the Table 1 witnesses need a ring the deceived strategy cannot cover");
    let sampled: Vec<_> = model_check::table1_cells(ring_size)
        .into_iter()
        .map(|cell| cell.sampled)
        .collect();
    let reports = runner.run_reports(&sampled);
    let [deceived2, deceived3, unconscious] = reports.as_slice() else {
        unreachable!("Table 1 has three cells")
    };
    vec![
        // Theorem 1: two agents, no knowledge of n, no landmark — any
        // strategy that commits to a termination horizon (here: the paper's
        // own Figure 1 algorithm run with a guessed bound N < n) terminates
        // without having explored once the adversary blocks one agent long
        // enough.
        RowResult::new(
            "T1-R1",
            "Theorem 1",
            "2 agents, IDs, chirality, no knowledge of n, no landmark",
            "partial termination impossible",
            format!(
                "guessed-bound strategy (N={GUESSED_BOUND}) terminated at round {:?} having visited {}/{ring_size} nodes",
                deceived2.first_termination(),
                deceived2.visited_count,
            ),
            deceived2.partially_terminated() && !deceived2.explored(),
            1,
        ),
        // Theorem 2: anonymous agents, any number — same witness with three
        // agents; additionally the knowledge-free Unconscious algorithm never
        // terminates (it is not required to).
        RowResult::new(
            "T1-R2",
            "Theorem 2",
            "any number of anonymous agents, chirality, no knowledge of n",
            "partial termination impossible",
            format!(
                "3-agent guessed-bound strategy explored {}/{ring_size} before terminating; knowledge-free Unconscious ran {} rounds without terminating (as it must)",
                deceived3.visited_count,
                unconscious.rounds
            ),
            deceived3.partially_terminated()
                && !deceived3.explored()
                && !unconscious.partially_terminated(),
            2,
        ),
    ]
}

/// Table 2 — possibility results for FSYNC.
#[must_use]
pub fn table2(sizes: &[usize], seeds: u64) -> Vec<RowResult> {
    table2_battery(&BatchRunner::from_env(), sizes, seeds, PlacementDensity::Standard)
}

/// [`table2`] on an explicit runner at an explicit [`PlacementDensity`]
/// (the `--huge` battery runs `Dense`).
#[must_use]
pub fn table2_battery(
    runner: &BatchRunner,
    sizes: &[usize],
    seeds: u64,
    density: PlacementDensity,
) -> Vec<RowResult> {
    let sweep = |make: &dyn Fn(usize) -> Algorithm| {
        sweeps::sweep_fsync_battery(runner, make, sizes, seeds, density)
    };
    let termination: fn(&SweepPoint) -> u64 = |p| p.worst_termination;
    vec![
        // Theorem 3: KnownNNoChirality terminates explicitly by round 3N − 6.
        possibility_row(
            [
                "T2-R1",
                "Theorem 3",
                "2 agents, known bound N, no chirality",
                "explicit termination in time 3N−6",
            ],
            &sweep(&|n| Algorithm::KnownBound { upper_bound: n }),
            "termination",
            termination,
            |n| 3 * n as u64 - 6 + 1,
            &format!(
                " (bound 3N−6: {:?})",
                sizes.iter().map(|n| 3 * *n as u64 - 6).collect::<Vec<_>>()
            ),
        ),
        // Theorem 6: LandmarkWithChirality terminates in O(n).
        possibility_row(
            [
                "T2-R2",
                "Theorem 6",
                "2 agents, landmark, chirality",
                "explicit termination in O(n)",
            ],
            &sweep(&|_| Algorithm::LandmarkChirality),
            "termination",
            termination,
            |n| 30 * n as u64 + 30,
            " (checked against 30n)",
        ),
        // Theorem 8: LandmarkNoChirality terminates in O(n log n).
        possibility_row(
            [
                "T2-R3",
                "Theorem 8",
                "2 agents, landmark, no chirality",
                "explicit termination in O(n log n)",
            ],
            &sweep(&|_| Algorithm::LandmarkNoChirality),
            "termination",
            termination,
            |n| 2 * LandmarkNoChirality::termination_bound(n as u64) + 64 * n as u64,
            &format!(
                " (paper's explicit bound 32(3⌈log n⌉+3)·5n per n: {:?})",
                sizes
                    .iter()
                    .map(|n| LandmarkNoChirality::termination_bound(*n as u64))
                    .collect::<Vec<_>>()
            ),
        ),
    ]
}

/// Table 3 — impossibility results for the SSYNC models.
#[must_use]
pub fn table3(ring_size: usize) -> Vec<RowResult> {
    table3_with(&BatchRunner::from_env(), ring_size)
}

/// [`table3`] on an explicit [`BatchRunner`] (all six witness executions are
/// independent and fan across the runner's threads).
#[must_use]
pub fn table3_with(runner: &BatchRunner, ring_size: usize) -> Vec<RowResult> {
    assert!(ring_size >= 5, "the Table 3 witnesses need n >= 5");
    let n = ring_size;
    let sampled: Vec<_> = model_check::table3_cells(n)
        .into_iter()
        .map(|cell| cell.sampled)
        .collect();
    let horizon = sampled[0].max_rounds;
    let wrong_guess = n - 2;
    let reports = runner.run_reports(&sampled);
    let [ns @ .., pt_symmetric, pt_blocked, et_guessed] = reports.as_slice() else {
        unreachable!("Table 3 has at least three cells")
    };
    vec![
        // Theorem 9 (NS): with the first-mover scheduler and the matching
        // edge adversary no protocol ever moves an agent.
        RowResult::new(
            "T3-R1",
            "Theorem 9",
            "NS model, any agents, even with chirality / known n / landmark / IDs",
            "exploration impossible",
            format!("no protocol made a single move within {horizon} rounds under the first-mover adversary"),
            ns.iter().all(|report| report.total_moves == 0 && !report.explored()),
            ns.len(),
        ),
        // Theorem 10 (PT, no chirality, 2 agents): without a common
        // orientation the adversary exploits the symmetry of the anonymous
        // agents — here both agents face the same edge from its two endpoints
        // and that edge is kept missing forever, which is exactly the final
        // configuration the Theorem 10 adversary steers any algorithm into.
        RowResult::new(
            "T3-R2",
            "Theorem 10",
            "PT, 2 anonymous agents, no chirality, even with known n and landmark",
            "exploration impossible",
            format!(
                "agents without a shared orientation explored only {}/{n} nodes in {horizon} rounds (both wait on the two ports of the same missing edge)",
                pt_symmetric.visited_count
            ),
            !pt_symmetric.explored() && pt_symmetric.visited_count <= 2,
            1,
        ),
        // Theorem 11 (PT): explicit termination of both agents is impossible;
        // the paper's own algorithm achieves exactly one terminating agent
        // when an edge stays missing forever.
        RowResult::new(
            "T3-R3",
            "Theorem 11",
            "PT, 2 agents, even with chirality, known n and landmark",
            "explicit termination of both agents impossible (partial only)",
            format!(
                "under a permanently missing edge exactly {} of 2 agents terminated; the other waits on the missing edge",
                pt_blocked.termination_rounds.iter().flatten().count()
            ),
            pt_blocked.partially_terminated() && !pt_blocked.all_terminated,
            1,
        ),
        // Theorem 19 (ET, only an upper bound known): an agent that only
        // knows a bound has to act on a guess of the exact size; running the
        // Theorem 20 protocol with a guessed size smaller than the real ring
        // makes it terminate without having explored — the
        // indistinguishability at the heart of the proof.
        RowResult::new(
            "T3-R4",
            "Theorem 19",
            "ET, any agents, only an upper bound N > n known, even with chirality/landmark/IDs",
            "partial termination impossible",
            format!(
                "acting on a guessed size of {wrong_guess} on a ring of {n}: terminated after visiting {}/{n} nodes",
                et_guessed.visited_count
            ),
            et_guessed.partially_terminated() && !et_guessed.explored(),
            1,
        ),
    ]
}

/// Table 4 — possibility results for the SSYNC models.
#[must_use]
pub fn table4(sizes: &[usize], seeds: u64) -> Vec<RowResult> {
    table4_battery(&BatchRunner::from_env(), sizes, seeds, PlacementDensity::Standard)
}

/// [`table4`] on an explicit runner at an explicit [`PlacementDensity`]
/// (the `--huge` battery runs `Dense`).
#[must_use]
pub fn table4_battery(
    runner: &BatchRunner,
    sizes: &[usize],
    seeds: u64,
    density: PlacementDensity,
) -> Vec<RowResult> {
    let sweep = move |make: &dyn Fn(usize) -> Algorithm| {
        sweeps::sweep_ssync_battery(runner, make, sizes, seeds, density)
    };
    let moves_row = |texts, make: &dyn Fn(usize) -> Algorithm, bound: &dyn Fn(usize) -> u64| {
        possibility_row(texts, &sweep(make), "moves", |p| p.worst_moves, bound, "")
    };
    let quad = |c: u64| move |n: usize| c * (n as u64) * (n as u64) + 8 * n as u64 + 64;
    let mut rows = vec![
        moves_row(
            [
                "T4-R1",
                "Theorem 12",
                "PT, 2 agents, chirality, known bound N",
                "partial termination in O(N²) moves",
            ],
            &|n| Algorithm::PtBoundChirality { upper_bound: n },
            &quad(12),
        ),
        moves_row(
            [
                "T4-R2",
                "Theorem 14",
                "PT, 2 agents, chirality, landmark",
                "partial termination in O(n²) moves",
            ],
            &|_| Algorithm::PtLandmarkChirality,
            &quad(12),
        ),
        moves_row(
            [
                "T4-R3",
                "Theorem 16",
                "PT, 3 agents, known bound N",
                "partial termination in O(N²) moves",
            ],
            &|n| Algorithm::PtBoundNoChirality { upper_bound: n },
            &quad(18),
        ),
        moves_row(
            [
                "T4-R4",
                "Theorem 17",
                "PT, 3 agents, landmark",
                "partial termination in O(n²) moves",
            ],
            &|_| Algorithm::PtLandmarkNoChirality,
            &quad(18),
        ),
        // Theorem 20: ET with exact knowledge of n — partial termination is
        // possible; the paper gives no move bound (the number of moves before
        // termination is "finite but possibly unbounded"), so only
        // exploration and partial termination are checked.
        moves_row(
            [
                "T4-R6",
                "Theorem 20",
                "ET, 3 agents, known n",
                "partial termination possible (no move bound claimed)",
            ],
            &|n| Algorithm::EtBoundNoChirality { ring_size: n },
            &|_| u64::MAX,
        ),
    ];

    // Theorem 18: ET unconscious exploration — exploration only, no
    // termination required.
    let outcome = sweep(&|_| Algorithm::EtUnconscious);
    let runs = outcome.points.iter().map(|p| p.runs).sum();
    rows.push(RowResult::new(
        "T4-R5",
        "Theorem 18",
        "ET, 2 agents, chirality",
        "unconscious exploration possible",
        format!(
            "worst rounds to explore per n: {:?}",
            outcome.points.iter().map(|p| p.worst_rounds).collect::<Vec<_>>()
        ),
        outcome.all_explored,
        runs,
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_witness_the_impossibilities() {
        let rows = table1(12);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.holds, "{}: {}", row.id, row.observed);
        }
    }

    #[test]
    fn table2_rows_hold_on_small_sizes() {
        let rows = table2(&[5, 8], 1);
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert!(row.holds, "{}: {}", row.id, row.observed);
        }
    }

    #[test]
    fn table3_rows_witness_the_ssync_impossibilities() {
        let rows = table3(10);
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.holds, "{}: {}", row.id, row.observed);
        }
    }

    #[test]
    fn table4_rows_hold_on_a_small_size() {
        let rows = table4(&[6], 1);
        assert_eq!(rows.len(), 6);
        for row in rows {
            assert!(row.holds, "{}: {}", row.id, row.observed);
        }
    }
}
