//! Algorithms `PTBoundWithChirality` (Figure 14, Theorem 12) and
//! `PTLandmarkWithChirality` (Figure 17, Theorem 14).
//!
//! Two agents with chirality in the Passive Transport model. Both algorithms
//! share the `Init` / `Bounce` / `Reverse` structure; they differ only in the
//! termination test: `Tnodes ≥ N` when an upper bound is known versus
//! "`n` is known" (a full loop around the landmark) when the ring has a
//! landmark. One agent always terminates explicitly; the other terminates or
//! ends up waiting forever on a port (strong partial termination).

use crate::counters::Counters;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// How the agent decides that the whole ring has certainly been visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum DoneTest {
    /// `Tnodes ≥ N` for a known upper bound `N` (Figure 14).
    UpperBound(u64),
    /// The agent completed a loop around the landmark, i.e. "n is known"
    /// (Figure 17).
    LandmarkLoop,
}

/// States of Figures 14 / 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum State {
    /// Moving left until the other agent is caught.
    Init,
    /// Caught the other agent: moving right.
    Bounce,
    /// Found a missing edge while bouncing: moving left again.
    Reverse,
    /// Terminal state.
    Terminate,
}

/// Shared implementation of the two-agent PT algorithms with chirality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PtChirality {
    done: DoneTest,
    state: State,
    left_steps: Option<u64>,
    right_steps: Option<u64>,
    counters: Counters,
}

impl PtChirality {
    fn new(done: DoneTest) -> Self {
        PtChirality {
            done,
            state: State::Init,
            left_steps: None,
            right_steps: None,
            counters: Counters::new(),
        }
    }

    fn explored(&self) -> bool {
        match self.done {
            DoneTest::UpperBound(n) => self.counters.tnodes() >= n,
            DoneTest::LandmarkLoop => self.counters.knows_size(),
        }
    }

    fn enter_terminate(&mut self) -> Decision {
        self.state = State::Terminate;
        Decision::Terminate
    }

    fn enter_bounce(&mut self) -> Decision {
        // leftSteps ← Esteps; terminate if the previous right excursion was
        // already at least as long (the agents crossed).
        let left_steps = self.counters.esteps();
        self.left_steps = Some(left_steps);
        if self.right_steps.is_some_and(|right| right >= left_steps) {
            return self.enter_terminate();
        }
        self.state = State::Bounce;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Right)
    }

    fn enter_reverse(&mut self) -> Decision {
        self.right_steps = Some(self.counters.esteps());
        self.state = State::Reverse;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Left)
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        use dynring_model::statekey::{push_opt_u64, push_u64};
        match self.done {
            DoneTest::UpperBound(n) => {
                out.push(0);
                push_u64(out, n);
            }
            DoneTest::LandmarkLoop => out.push(1),
        }
        out.push(match self.state {
            State::Init => 0,
            State::Bounce => 1,
            State::Reverse => 2,
            State::Terminate => 3,
        });
        push_opt_u64(out, self.left_steps);
        push_opt_u64(out, self.right_steps);
        self.counters.write_state_key(out);
    }

    fn step(&mut self, snapshot: &Snapshot) -> Decision {
        match self.state {
            State::Init => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bounce();
                }
                Decision::Move(LocalDirection::Left)
            }
            State::Bounce => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if self.counters.btime() > 0 {
                    return self.enter_reverse();
                }
                Decision::Move(LocalDirection::Right)
            }
            State::Reverse => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bounce();
                }
                Decision::Move(LocalDirection::Left)
            }
            State::Terminate => Decision::Terminate,
        }
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        let decision = self.step(snapshot);
        self.counters.record_decision(decision);
        decision
    }

    fn label(&self) -> String {
        format!(
            "{:?}(Tnodes={},left={:?},right={:?})",
            self.state,
            self.counters.tnodes(),
            self.left_steps,
            self.right_steps
        )
    }
}

/// Algorithm `PTBoundWithChirality` of Figure 14: two agents, chirality,
/// known upper bound `N`; `O(N²)` edge traversals (Theorem 12), which is
/// optimal up to the accuracy of the bound (Theorem 13).
///
/// ```
/// use dynring_core::ssync::PtBoundChirality;
/// use dynring_model::{Protocol, TerminationKind};
///
/// let agent = PtBoundChirality::new(12);
/// assert_eq!(agent.termination_kind(), TerminationKind::Partial);
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::PtBoundChirality`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtBoundChirality {
    inner: PtChirality,
}

impl PtBoundChirality {
    /// Creates an agent knowing the upper bound `N ≥ n`.
    ///
    /// # Panics
    ///
    /// Panics if `upper_bound < 3`.
    #[must_use]
    pub fn new(upper_bound: usize) -> Self {
        assert!(upper_bound >= 3, "the ring-size upper bound must be at least 3");
        PtBoundChirality { inner: PtChirality::new(DoneTest::UpperBound(upper_bound as u64)) }
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }
}

impl Protocol for PtBoundChirality {
    fn name(&self) -> &'static str {
        "PTBoundWithChirality"
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Partial
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.inner.decide(snapshot)
    }

    fn has_terminated(&self) -> bool {
        self.inner.state == State::Terminate
    }

    fn state_label(&self) -> String {
        self.inner.label()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.inner.write_state_key(out);
    }
}

/// Algorithm `PTLandmarkWithChirality` of Figure 17: two agents, chirality,
/// landmark; `O(n²)` edge traversals (Theorem 14), asymptotically optimal
/// (Theorem 15).
///
/// ```
/// use dynring_core::ssync::PtLandmarkChirality;
/// use dynring_model::Protocol;
///
/// let agent = PtLandmarkChirality::new();
/// assert_eq!(agent.name(), "PTLandmarkWithChirality");
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::PtLandmarkChirality`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtLandmarkChirality {
    inner: PtChirality,
}

impl Default for PtLandmarkChirality {
    fn default() -> Self {
        Self::new()
    }
}

impl PtLandmarkChirality {
    /// Creates a fresh agent.
    #[must_use]
    pub fn new() -> Self {
        PtLandmarkChirality { inner: PtChirality::new(DoneTest::LandmarkLoop) }
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }
}

impl Protocol for PtLandmarkChirality {
    fn name(&self) -> &'static str {
        "PTLandmarkWithChirality"
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Partial
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.inner.decide(snapshot)
    }

    fn has_terminated(&self) -> bool {
        self.inner.state == State::Terminate
    }

    fn state_label(&self) -> String {
        self.inner.label()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.inner.write_state_key(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::{LocalPosition, NodeOccupancy, PriorOutcome};

    fn plain(prior: PriorOutcome, landmark: bool) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: landmark,
            occupancy: NodeOccupancy::default(),
            prior,
            round_hint: None,
        }
    }

    fn catches_left() -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn bound_variant_rejects_tiny_bounds() {
        let _ = PtBoundChirality::new(2);
    }

    #[test]
    fn moves_left_until_catching_then_bounces_right() {
        let mut a = PtBoundChirality::new(10);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle, false)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.decide(&plain(PriorOutcome::Moved, false)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.decide(&catches_left()), Decision::Move(LocalDirection::Right));
        // A missing edge while bouncing reverses again.
        assert_eq!(
            a.decide(&plain(PriorOutcome::BlockedOnPort, false)),
            Decision::Move(LocalDirection::Left)
        );
    }

    #[test]
    fn terminates_after_perceiving_n_distinct_nodes() {
        let upper = 6;
        let mut a = PtBoundChirality::new(upper);
        let mut d = a.decide(&plain(PriorOutcome::Idle, false));
        let mut moves = 0;
        while d.is_move() {
            d = a.decide(&plain(PriorOutcome::Moved, false));
            moves += 1;
            assert!(moves < 20, "should have terminated after {upper} perceived nodes");
        }
        assert_eq!(d, Decision::Terminate);
        assert!(a.has_terminated());
        // It needed upper-1 successful moves to have perceived `upper` nodes.
        assert_eq!(a.counters().tnodes() as usize, upper);
    }

    #[test]
    fn terminates_when_bounce_then_reverse_detects_crossing() {
        let mut a = PtBoundChirality::new(50);
        // Catch immediately: leftSteps = 0, bounce right.
        assert_eq!(a.decide(&catches_left()), Decision::Move(LocalDirection::Right));
        // Make 3 successful right steps, then hit a missing edge → Reverse.
        for _ in 0..3 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved, false)), Decision::Move(LocalDirection::Right));
        }
        assert_eq!(
            a.decide(&plain(PriorOutcome::BlockedOnPort, false)),
            Decision::Move(LocalDirection::Left)
        );
        // Catch again after only 1 left step: rightSteps (3) ≥ leftSteps (1),
        // so the agents must have crossed — terminate.
        assert_eq!(a.decide(&plain(PriorOutcome::Moved, false)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.decide(&catches_left()), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn landmark_variant_terminates_after_a_full_loop() {
        let n = 5i64;
        let mut a = PtLandmarkChirality::new();
        let mut pos = 0i64;
        let mut d = a.decide(&plain(PriorOutcome::Idle, true));
        let mut steps = 0;
        while let Decision::Move(dir) = d {
            pos += match dir {
                LocalDirection::Left => -1,
                LocalDirection::Right => 1,
            };
            steps += 1;
            assert!(steps < 3 * n, "should terminate after one loop");
            d = a.decide(&plain(PriorOutcome::Moved, pos.rem_euclid(n) == 0));
        }
        assert_eq!(d, Decision::Terminate);
        assert_eq!(a.counters().known_size(), Some(n as u64));
    }

    #[test]
    fn landmark_variant_keeps_walking_without_a_landmark() {
        let mut a = PtLandmarkChirality::new();
        let mut d = a.decide(&plain(PriorOutcome::Idle, false));
        for _ in 0..100 {
            assert!(d.is_move());
            d = a.decide(&plain(PriorOutcome::Moved, false));
        }
        assert!(!a.has_terminated());
    }

    #[test]
    fn names_and_termination_kinds() {
        assert_eq!(PtBoundChirality::new(5).name(), "PTBoundWithChirality");
        assert_eq!(PtLandmarkChirality::new().name(), "PTLandmarkWithChirality");
        assert_eq!(PtBoundChirality::new(5).termination_kind(), TerminationKind::Partial);
        assert_eq!(PtLandmarkChirality::new().termination_kind(), TerminationKind::Partial);
    }
}
