//! Reproduction of the figures of the paper.
//!
//! * **Figure 2** — the adversarial schedule under which
//!   `KnownNNoChirality` needs exactly `3n − 6` rounds;
//! * **Figures 5–7** — the termination cases of `LandmarkWithChirality`;
//! * **Figures 9–11** — the identifier construction and direction sequences
//!   (reproduced as unit tests in `dynring-core::fsync::{ident, dirseq}`);
//! * **Figure 12** — simultaneous termination at the landmark for
//!   `StartFromLandmarkNoChirality`;
//! * **Figure 15** — the bounce/reverse behaviour of the PT algorithms under
//!   a permanently missing edge;
//! * **Figure 16** — confinement of the agents to a window when the transport
//!   model gives the adversary full power (the NS-flavoured oscillation run).

use crate::batch::BatchRunner;
use crate::model_check;
use crate::report::RowResult;
use crate::scenario::{AdversaryKind, Scenario, ScenarioRunner, SchedulerKind};
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, StopCondition};
use dynring_graph::{EdgeId, Handedness, RingTopology, ScheduleBuilder};
use dynring_model::{SynchronyModel, TransportModel};

/// Outcome of the Figure 2 schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure2Outcome {
    /// Ring size.
    pub ring_size: usize,
    /// Round in which exploration completed.
    pub explored_at: Option<u64>,
    /// The paper's worst-case value `3n − 6`.
    pub expected: u64,
    /// The full run report.
    pub report: RunReport,
}

impl Figure2Outcome {
    /// Whether the schedule reproduced the worst case exactly.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.explored_at == Some(self.expected)
    }

    /// This outcome as a report row.
    #[must_use]
    pub fn row(&self) -> RowResult {
        RowResult::new(
            "F2",
            "Figure 2 / Theorem 3 tightness",
            format!("n = {}, agents on adjacent nodes, chirality", self.ring_size),
            format!("exploration takes exactly 3n−6 = {} rounds", self.expected),
            format!("explored at round {:?}", self.explored_at),
            self.matches(),
            1,
        )
    }
}

/// The exact schedule of Figure 2: agent `a` starts on `v_0`, agent `b` on
/// `v_1`, both with the same orientation; edge `e_0` is missing for the first
/// `n − 3` rounds and edge `e_{n-2}` from round `n − 2` to round `3n − 6`.
#[must_use]
pub fn figure2_schedule(ring: &RingTopology) -> dynring_graph::EdgeSchedule {
    let n = ring.size() as u64;
    ScheduleBuilder::new(ring)
        .remove_for(EdgeId::new(0), n - 3)
        .remove_for(EdgeId::new(ring.size() - 2), 2 * n - 3)
        .build()
}

/// Runs the Figure 2 worst case on a ring of the given size (`n ≥ 5`).
///
/// # Panics
///
/// Panics if `ring_size < 5` (the schedule needs the two blocking phases to be
/// non-trivial).
#[must_use]
pub fn figure2(ring_size: usize) -> Figure2Outcome {
    figure2_in(&mut ScenarioRunner::new(), ring_size)
}

/// [`figure2`] on an explicit recycled [`ScenarioRunner`] (how the batched
/// figure battery and the lower-bound rows run it).
#[must_use]
pub fn figure2_in(worker: &mut ScenarioRunner, ring_size: usize) -> Figure2Outcome {
    assert!(ring_size >= 5, "Figure 2 needs n ≥ 5");
    let ring = RingTopology::new(ring_size).expect("valid ring");
    let schedule = figure2_schedule(&ring);
    let expected = 3 * ring_size as u64 - 6;
    let scenario = model_check::theorem4_cell(ring_size)
        .scenario
        .with_adversary(AdversaryKind::scripted(schedule))
        .with_stop(StopCondition::AllTerminated)
        .with_max_rounds(6 * ring_size as u64);
    let report = worker.run(&scenario);
    Figure2Outcome { ring_size, explored_at: report.explored_at, expected, report }
}

/// The per-case descriptions of Figures 5–7 (id, description, adversary).
fn figures5_7_cases(ring_size: usize) -> [(&'static str, &'static str, AdversaryKind); 3] {
    [
        (
            "F5/F6",
            "catch around a permanently missing edge",
            AdversaryKind::BlockForever { edge: ring_size / 2 },
        ),
        ("F7a", "static ring: timeout after learning n", AdversaryKind::Static),
        ("F7b", "agents kept apart: timeout after learning n", AdversaryKind::PreventMeeting),
    ]
}

/// One case of Figures 5–7 (`which` ∈ 0..3), exposed so the batched
/// [`all_figures_with`] can fan the cases across threads.
#[must_use]
pub fn figure5_7_case(ring_size: usize, which: usize) -> RowResult {
    figure5_7_case_in(&mut ScenarioRunner::new(), ring_size, which)
}

fn figure5_7_case_in(worker: &mut ScenarioRunner, ring_size: usize, which: usize) -> RowResult {
    let (id, description, adversary) = figures5_7_cases(ring_size)[which].clone();
    let scenario = Scenario::fsync(ring_size, Algorithm::LandmarkChirality)
        .with_starts(vec![1, ring_size / 2 + 1])
        .with_adversary(adversary)
        .with_stop(StopCondition::AllTerminated)
        .with_max_rounds(40 * ring_size as u64);
    let report = worker.run(&scenario);
    RowResult::new(
        id,
        "Lemma 2 / Theorem 6",
        format!("n = {ring_size}, landmark, chirality, {description}"),
        "both agents terminate only after the ring is explored",
        format!(
            "explored at {:?}, terminations {:?}",
            report.explored_at, report.termination_rounds
        ),
        report.explored() && report.all_terminated,
        1,
    )
}

/// Figures 5–7: the three qualitative termination situations of
/// `LandmarkWithChirality` — the agents catching each other around a missing
/// edge, meeting head-on, and timing out after learning `n`.
#[must_use]
pub fn figures5_7(ring_size: usize) -> Vec<RowResult> {
    (0..3).map(|which| figure5_7_case(ring_size, which)).collect()
}

/// Figure 12: both agents start at the landmark without chirality, bounce off
/// the same missing edge and terminate together back at the landmark.
#[must_use]
pub fn figure12(ring_size: usize) -> RowResult {
    figure12_in(&mut ScenarioRunner::new(), ring_size)
}

fn figure12_in(worker: &mut ScenarioRunner, ring_size: usize) -> RowResult {
    assert!(ring_size >= 5 && ring_size % 2 == 1, "Figure 12 uses an odd ring size ≥ 5");
    let m = ring_size / 2;
    let ring = RingTopology::new(ring_size).expect("valid ring");
    // Both agents reach the two endpoints of edge e_m after m rounds; removing
    // it for the next two rounds makes them both bounce and walk back.
    let schedule = ScheduleBuilder::new(&ring)
        .all_present_for(m as u64)
        .remove_for(EdgeId::new(m), 2)
        .build();
    let scenario = Scenario::fsync(ring_size, Algorithm::StartFromLandmarkNoChirality)
        .with_starts(vec![0, 0])
        .with_orientations(vec![Handedness::LeftIsCcw, Handedness::LeftIsCw])
        .with_adversary(AdversaryKind::scripted(schedule))
        .with_stop(StopCondition::AllTerminated)
        .with_max_rounds(20 * ring_size as u64);
    let report = worker.run(&scenario);
    let simultaneous = matches!(
        report.termination_rounds.as_slice(),
        [Some(a), Some(b)] if a == b
    );
    RowResult::new(
        "F12",
        "Figure 12 / Theorem 7",
        format!("n = {ring_size}, no chirality, both agents start at the landmark"),
        "both agents bounce off the same edge and terminate together at the landmark",
        format!(
            "explored at {:?}, terminations {:?}",
            report.explored_at, report.termination_rounds
        ),
        report.explored() && report.all_terminated && simultaneous,
        1,
    )
}

/// Figure 15: in the PT model a permanently missing edge forces the
/// bounce/reverse pattern; the algorithm still explores and one agent
/// terminates, at the cost of extra traversals.
#[must_use]
pub fn figure15(ring_size: usize) -> RowResult {
    figure15_in(&mut ScenarioRunner::new(), ring_size)
}

fn figure15_in(worker: &mut ScenarioRunner, ring_size: usize) -> RowResult {
    let report = {
        let mut scenario =
            Scenario::ssync(ring_size, Algorithm::PtBoundChirality { upper_bound: ring_size }, 23);
        scenario.synchrony = SynchronyModel::Ssync(TransportModel::PassiveTransport);
        let scenario = scenario
            .with_adversary(AdversaryKind::BlockForever { edge: ring_size / 2 })
            .with_scheduler(SchedulerKind::SleepBlocked { hold: 2 })
            .with_stop(StopCondition::ExploredAndPartialTermination)
            .with_max_rounds(300 * (ring_size as u64) * (ring_size as u64));
        worker.run(&scenario)
    };
    RowResult::new(
        "F15",
        "Figure 15 / Theorem 12",
        format!("n = {ring_size}, PT, chirality, permanently missing edge"),
        "bounce/reverse exploration with extra traversals, partial termination",
        format!(
            "explored at {:?}, total moves {} (single sweep would need {})",
            report.explored_at,
            report.total_moves,
            ring_size - 1
        ),
        report.explored() && report.partially_terminated() && report.total_moves as usize >= ring_size,
        1,
    )
}

/// Figure 16: when sleeping agents are never helped (NS flavour) the
/// adversary confines the team to a window forever — the oscillation run of
/// the lower-bound constructions.
#[must_use]
pub fn figure16(ring_size: usize) -> RowResult {
    figure16_in(&mut ScenarioRunner::new(), ring_size)
}

fn figure16_in(worker: &mut ScenarioRunner, ring_size: usize) -> RowResult {
    let window_hi = ring_size / 2;
    let report = {
        let mut scenario =
            Scenario::ssync(ring_size, Algorithm::PtBoundChirality { upper_bound: ring_size }, 29);
        scenario.synchrony = SynchronyModel::Ssync(TransportModel::NoSimultaneity);
        let scenario = scenario
            .with_starts(vec![1, 2])
            .with_adversary(AdversaryKind::Confine { lo: 0, hi: window_hi })
            .with_scheduler(SchedulerKind::RoundRobin)
            .with_stop(StopCondition::RoundBudget)
            .with_max_rounds(60 * ring_size as u64);
        worker.run(&scenario)
    };
    RowResult::new(
        "F16",
        "Figure 16 / Theorems 9, 13, 15",
        format!("n = {ring_size}, NS flavour, confinement window of {} nodes", window_hi + 1),
        "the adversary keeps the agents inside the window indefinitely",
        format!("visited {}/{} nodes in {} rounds", report.visited_count, ring_size, report.rounds),
        !report.explored() && report.visited_count <= window_hi + 1,
        1,
    )
}

/// One independent figure experiment of [`all_figures`].
#[derive(Debug, Clone, Copy)]
enum FigureTask {
    /// Figure 2 worst case.
    Fig2(usize),
    /// One of the Figures 5–7 cases.
    Fig5To7(usize, usize),
    /// Figure 12 (odd ring size).
    Fig12(usize),
    /// Figure 15 (PT bounce/reverse).
    Fig15(usize),
    /// Figure 16 (NS confinement).
    Fig16(usize),
}

impl FigureTask {
    fn run(&self, worker: &mut ScenarioRunner) -> RowResult {
        match *self {
            FigureTask::Fig2(n) => figure2_in(worker, n).row(),
            FigureTask::Fig5To7(n, which) => figure5_7_case_in(worker, n, which),
            FigureTask::Fig12(n) => figure12_in(worker, n),
            FigureTask::Fig15(n) => figure15_in(worker, n),
            FigureTask::Fig16(n) => figure16_in(worker, n),
        }
    }
}

/// All figure experiments as report rows (Figure 2 and the qualitative
/// runs), using the environment-default [`BatchRunner`] (`DYNRING_THREADS`).
#[must_use]
pub fn all_figures(ring_size: usize) -> Vec<RowResult> {
    all_figures_with(&BatchRunner::from_env(), ring_size)
}

/// [`all_figures`] on an explicit runner: the seven independent experiments
/// are fanned across the runner's threads and merged in input order, so the
/// output is byte-identical to the sequential path whatever the thread
/// count.
#[must_use]
pub fn all_figures_with(runner: &BatchRunner, ring_size: usize) -> Vec<RowResult> {
    let odd = if ring_size % 2 == 1 { ring_size } else { ring_size + 1 };
    let tasks = [
        FigureTask::Fig2(ring_size),
        FigureTask::Fig5To7(ring_size, 0),
        FigureTask::Fig5To7(ring_size, 1),
        FigureTask::Fig5To7(ring_size, 2),
        FigureTask::Fig12(odd),
        FigureTask::Fig15(ring_size),
        FigureTask::Fig16(ring_size),
    ];
    runner.run_map_with(&tasks, ScenarioRunner::new, |worker, task| task.run(worker))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_reproduces_the_3n_minus_6_worst_case() {
        for n in [6, 9, 12] {
            let outcome = figure2(n);
            assert_eq!(
                outcome.explored_at,
                Some(3 * n as u64 - 6),
                "n = {n}: {:?}",
                outcome.report
            );
            assert!(outcome.matches());
            assert!(outcome.row().holds);
        }
    }

    #[test]
    fn figures5_7_terminate_correctly() {
        for row in figures5_7(8) {
            assert!(row.holds, "{}: {}", row.id, row.observed);
        }
    }

    #[test]
    fn figure12_simultaneous_termination() {
        let row = figure12(9);
        assert!(row.holds, "{}", row.observed);
    }

    #[test]
    fn figure15_and_16_capture_the_pt_and_ns_behaviours() {
        let f15 = figure15(8);
        assert!(f15.holds, "{}", f15.observed);
        let f16 = figure16(12);
        assert!(f16.holds, "{}", f16.observed);
    }
}
