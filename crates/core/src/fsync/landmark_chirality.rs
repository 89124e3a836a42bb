//! Algorithm `LandmarkWithChirality` (Figure 4, Theorem 6).
//!
//! Two anonymous agents with chirality, no knowledge of the ring size, on a
//! ring with a landmark node: exploration with explicit termination of both
//! agents in `O(n)` rounds.
//!
//! # Transition semantics
//!
//! The paper's `Explore`/`LExplore` procedures exit as soon as a predicate is
//! satisfied and the agent "does a transition to the specified state". This
//! implementation uses the following uniform rule, which reproduces the tight
//! schedules of the paper (e.g. the `3n − 6` worst case of Figure 2) while
//! avoiding spurious re-triggering of the predicate that caused the
//! transition:
//!
//! * entering an ordinary exploring state runs its entry assignments and
//!   performs that state's move **in the same round**, without re-evaluating
//!   the new state's predicates until the next round;
//! * entering one of the imperative communication states (`BComm`, `FComm`)
//!   runs the imperative code of Figure 4 immediately, as the paper requires
//!   ("change state … and process it in the same round").

use crate::counters::Counters;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// States of Figure 4 (the two communication states are split into their
/// signal/wait sub-phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LcState {
    /// Moving left before the first catch.
    Init,
    /// Role B: moving right after catching F.
    Bounce,
    /// Role B: moving left again, trying to catch up with F.
    Return,
    /// Role F: moving left after being caught.
    Forward,
    /// B signalled termination by moving right; terminate next round.
    BCommSignal,
    /// B stayed put for one round to learn whether F knows the size.
    BCommWait,
    /// F signalled (it knows the size) by staying on the left port; terminate
    /// next round.
    FCommSignal,
    /// F stepped back into the node for one round to learn whether B wants to
    /// terminate.
    FCommWait,
    /// Terminal state.
    Terminate,
}

/// Algorithm `LandmarkWithChirality` of Figure 4.
///
/// ```
/// use dynring_core::fsync::LandmarkChirality;
/// use dynring_model::{Protocol, TerminationKind};
///
/// let agent = LandmarkChirality::new();
/// assert_eq!(agent.termination_kind(), TerminationKind::Explicit);
/// assert_eq!(agent.name(), "LandmarkWithChirality");
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::LandmarkChirality`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LandmarkChirality {
    state: LcState,
    bounce_steps: Option<u64>,
    return_steps: Option<u64>,
    counters: Counters,
}

impl Default for LandmarkChirality {
    fn default() -> Self {
        Self::new()
    }
}

impl LandmarkChirality {
    /// Creates a fresh agent in state `Init`.
    #[must_use]
    pub fn new() -> Self {
        LandmarkChirality {
            state: LcState::Init,
            bounce_steps: None,
            return_steps: None,
            counters: Counters::new(),
        }
    }

    /// The agent's current state (for traces and tests).
    #[must_use]
    pub const fn state(&self) -> LcState {
        self.state
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    fn knows_size(&self) -> bool {
        self.counters.knows_size()
    }

    fn size(&self) -> Option<u64> {
        self.counters.known_size()
    }

    fn enter_bounce(&mut self) -> Decision {
        self.state = LcState::Bounce;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Right)
    }

    fn enter_return(&mut self) -> Decision {
        self.bounce_steps = Some(self.counters.esteps());
        self.state = LcState::Return;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Left)
    }

    fn enter_forward(&mut self) -> Decision {
        self.state = LcState::Forward;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Left)
    }

    fn enter_terminate(&mut self) -> Decision {
        self.state = LcState::Terminate;
        Decision::Terminate
    }

    /// The imperative `BComm` state of Figure 4, entered when B catches F.
    fn enter_bcomm(&mut self) -> Decision {
        let return_steps = self.counters.esteps();
        self.return_steps = Some(return_steps);
        let waited_on_same_edge =
            self.bounce_steps.is_some_and(|bounce| return_steps <= 2 * bounce);
        if waited_on_same_edge || self.knows_size() {
            // Signal the need to terminate by moving right, terminate next round.
            self.state = LcState::BCommSignal;
            Decision::Move(LocalDirection::Right)
        } else {
            // Stay one round; the decision is taken next round depending on
            // whether F stayed in the node.
            self.state = LcState::BCommWait;
            Decision::Stay
        }
    }

    /// The imperative `FComm` state of Figure 4, entered when F is caught by B
    /// after the roles have been fixed.
    fn enter_fcomm(&mut self) -> Decision {
        if self.knows_size() {
            // Signal that the ring is explored by keeping the left port,
            // terminate next round.
            self.state = LcState::FCommSignal;
            Decision::Move(LocalDirection::Left)
        } else {
            // Step back into the node for one round.
            self.state = LcState::FCommWait;
            Decision::Retreat
        }
    }

    fn step(&mut self, snapshot: &Snapshot) -> Decision {
        let c_ntime = self.counters.ntime();
        match self.state {
            LcState::Init => {
                if self.size().is_some_and(|n| c_ntime > 2 * n) {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bounce();
                }
                if snapshot.caught() {
                    return self.enter_forward();
                }
                Decision::Move(LocalDirection::Left)
            }
            LcState::Bounce => {
                if snapshot.meeting() {
                    return self.enter_terminate();
                }
                if self.counters.etime() > 2 * self.counters.esteps() || c_ntime > 0 {
                    return self.enter_return();
                }
                if snapshot.catches(LocalDirection::Right) {
                    return self.enter_bcomm();
                }
                Decision::Move(LocalDirection::Right)
            }
            LcState::Return => {
                if self.size().is_some_and(|n| c_ntime > 3 * n) || snapshot.caught() {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bcomm();
                }
                Decision::Move(LocalDirection::Left)
            }
            LcState::Forward => {
                if self.size().is_some_and(|n| c_ntime >= 7 * n)
                    || snapshot.meeting()
                    || snapshot.catches(LocalDirection::Left)
                {
                    return self.enter_terminate();
                }
                if snapshot.caught() {
                    return self.enter_fcomm();
                }
                Decision::Move(LocalDirection::Left)
            }
            LcState::BCommSignal | LcState::FCommSignal => self.enter_terminate(),
            LcState::BCommWait => {
                if snapshot.occupancy.in_node > 0 {
                    // F waited in the node: it does not know whether the ring
                    // is explored; resume the algorithm.
                    self.enter_bounce()
                } else {
                    // F left (or is waiting on a port): it knows the ring is
                    // explored and signalled so.
                    self.enter_terminate()
                }
            }
            LcState::FCommWait => {
                if snapshot.occupancy.in_node > 0 {
                    // B stayed: no termination signal; resume the algorithm.
                    self.enter_forward()
                } else {
                    // B left or holds a port: it signalled termination.
                    self.enter_terminate()
                }
            }
            LcState::Terminate => Decision::Terminate,
        }
    }
}

impl Protocol for LandmarkChirality {
    fn name(&self) -> &'static str {
        "LandmarkWithChirality"
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Explicit
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        let decision = self.step(snapshot);
        self.counters.record_decision(decision);
        decision
    }

    fn has_terminated(&self) -> bool {
        self.state == LcState::Terminate
    }

    fn state_label(&self) -> String {
        format!(
            "{:?}(Ntime={},size={:?},bounceSteps={:?})",
            self.state,
            self.counters.ntime(),
            self.counters.known_size(),
            self.bounce_steps
        )
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        use dynring_model::statekey::push_opt_u64;
        out.push(match self.state {
            LcState::Init => 0,
            LcState::Bounce => 1,
            LcState::Return => 2,
            LcState::Forward => 3,
            LcState::BCommSignal => 4,
            LcState::BCommWait => 5,
            LcState::FCommSignal => 6,
            LcState::FCommWait => 7,
            LcState::Terminate => 8,
        });
        push_opt_u64(out, self.bounce_steps);
        push_opt_u64(out, self.return_steps);
        self.counters.write_state_key(out);
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

    fn catches_left(prior: PriorOutcome) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior,
            round_hint: None,
        }
    }

    fn caught_snapshot() -> Snapshot {
        Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Left),
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        }
    }

    #[test]
    fn init_moves_left_until_an_event() {
        let mut a = LandmarkChirality::new();
        for _ in 0..10 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved, false)), Decision::Move(LocalDirection::Left));
        }
        assert_eq!(a.state(), LcState::Init);
    }

    #[test]
    fn catching_assigns_role_b_and_bounces_right_in_the_same_round() {
        let mut a = LandmarkChirality::new();
        assert_eq!(a.decide(&catches_left(PriorOutcome::Moved)), Decision::Move(LocalDirection::Right));
        assert_eq!(a.state(), LcState::Bounce);
    }

    #[test]
    fn being_caught_assigns_role_f_and_keeps_left() {
        let mut a = LandmarkChirality::new();
        assert_eq!(a.decide(&caught_snapshot()), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LcState::Forward);
        // The next round no longer satisfies `caught` (the prior outcome is a
        // fresh block, but F is still on the port and B may have left), so F
        // keeps moving left rather than entering FComm spuriously.
        let still_blocked = Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Left),
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        };
        assert_eq!(a.decide(&still_blocked), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LcState::Forward);
    }

    #[test]
    fn bounce_turns_into_return_when_blocked_too_long() {
        let mut a = LandmarkChirality::new();
        // Become B.
        let _ = a.decide(&catches_left(PriorOutcome::Moved));
        assert_eq!(a.state(), LcState::Bounce);
        // One successful step right, then blocked long enough that
        // Etime > 2*Esteps.
        assert_eq!(a.decide(&plain(PriorOutcome::Moved, false)), Decision::Move(LocalDirection::Right));
        let _ = a.decide(&plain(PriorOutcome::BlockedOnPort, false));
        let d = a.decide(&plain(PriorOutcome::BlockedOnPort, false));
        assert_eq!(a.state(), LcState::Return);
        assert_eq!(d, Decision::Move(LocalDirection::Left));
        // bounceSteps was recorded as the number of successful right-steps.
        assert_eq!(a.bounce_steps, Some(1));
    }

    #[test]
    fn bcomm_signals_termination_when_agents_waited_on_the_same_edge() {
        let mut a = LandmarkChirality::new();
        let _ = a.decide(&catches_left(PriorOutcome::Moved)); // -> Bounce
        // Immediately blocked: Etime>2Esteps after two blocked rounds -> Return
        let _ = a.decide(&plain(PriorOutcome::BlockedOnPort, false));
        let _ = a.decide(&plain(PriorOutcome::BlockedOnPort, false));
        assert_eq!(a.state(), LcState::Return);
        assert_eq!(a.bounce_steps, Some(0));
        // B immediately catches F again without having made any step:
        // returnSteps = 0 <= 2 * 0 -> signal and terminate.
        let d = a.decide(&catches_left(PriorOutcome::BlockedOnPort));
        assert_eq!(d, Decision::Move(LocalDirection::Right));
        assert_eq!(a.state(), LcState::BCommSignal);
        assert_eq!(a.decide(&plain(PriorOutcome::Moved, false)), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn bcomm_waits_and_resumes_when_f_stays_in_the_node() {
        let mut a = LandmarkChirality::new();
        let _ = a.decide(&catches_left(PriorOutcome::Moved)); // Bounce
        // Make some progress to the right so bounceSteps > 0 and the
        // same-edge test fails later.
        for _ in 0..4 {
            let _ = a.decide(&plain(PriorOutcome::Moved, false));
        }
        // Forced into Return by a long block.
        for _ in 0..20 {
            let _ = a.decide(&plain(PriorOutcome::BlockedOnPort, false));
            if a.state() == LcState::Return {
                break;
            }
        }
        assert_eq!(a.state(), LcState::Return);
        // Make more than 2*bounceSteps steps left before catching F again.
        for _ in 0..12 {
            let _ = a.decide(&plain(PriorOutcome::Moved, false));
        }
        let d = a.decide(&catches_left(PriorOutcome::Moved));
        assert_eq!(d, Decision::Stay);
        assert_eq!(a.state(), LcState::BCommWait);
        // F stayed in the node -> resume bouncing right.
        let resume = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::Idle,
            round_hint: None,
        };
        assert_eq!(a.decide(&resume), Decision::Move(LocalDirection::Right));
        assert_eq!(a.state(), LcState::Bounce);
    }

    #[test]
    fn bcomm_terminates_when_f_left_the_node() {
        let mut a = LandmarkChirality::new();
        let _ = a.decide(&catches_left(PriorOutcome::Moved)); // Bounce
        for _ in 0..4 {
            let _ = a.decide(&plain(PriorOutcome::Moved, false));
        }
        for _ in 0..20 {
            let _ = a.decide(&plain(PriorOutcome::BlockedOnPort, false));
            if a.state() == LcState::Return {
                break;
            }
        }
        for _ in 0..12 {
            let _ = a.decide(&plain(PriorOutcome::Moved, false));
        }
        let _ = a.decide(&catches_left(PriorOutcome::Moved));
        assert_eq!(a.state(), LcState::BCommWait);
        // F is gone (it signalled by trying to leave): terminate.
        assert_eq!(a.decide(&plain(PriorOutcome::Idle, false)), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn fcomm_retreats_then_resumes_when_b_stays() {
        let mut a = LandmarkChirality::new();
        let _ = a.decide(&caught_snapshot()); // Forward
        assert_eq!(a.state(), LcState::Forward);
        // Caught again later (B in the node, we are blocked on the port):
        // we do not know n, so retreat and wait.
        let d = a.decide(&caught_snapshot());
        assert_eq!(d, Decision::Retreat);
        assert_eq!(a.state(), LcState::FCommWait);
        // B is still in the node: resume Forward (move left).
        let resume = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::Idle,
            round_hint: None,
        };
        assert_eq!(a.decide(&resume), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LcState::Forward);
    }

    #[test]
    fn fcomm_terminates_when_b_left_the_node() {
        let mut a = LandmarkChirality::new();
        let _ = a.decide(&caught_snapshot()); // Forward
        let _ = a.decide(&caught_snapshot()); // FCommWait
        assert_eq!(a.state(), LcState::FCommWait);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle, false)), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn forward_terminates_on_meeting() {
        let mut a = LandmarkChirality::new();
        let _ = a.decide(&caught_snapshot()); // Forward
        let meeting = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&meeting), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn lone_agent_terminates_after_learning_n_plus_two_loops() {
        // An agent alone (the other never seen) walking a ring of size 5 with
        // a landmark learns n after one full loop and terminates once
        // Ntime > 2n.
        let n = 5u64;
        let mut a = LandmarkChirality::new();
        let mut decisions = 0u64;
        let mut terminated_at = None;
        // Walk left forever; the landmark is every n-th node. Offset starts 0
        // at the landmark.
        let mut pos = 0i64;
        for round in 0..200 {
            let at_landmark = pos.rem_euclid(n as i64) == 0;
            let prior = if round == 0 { PriorOutcome::Idle } else { PriorOutcome::Moved };
            let d = a.decide(&plain(prior, at_landmark));
            decisions += 1;
            match d {
                Decision::Move(LocalDirection::Left) => pos -= 1,
                Decision::Terminate => {
                    terminated_at = Some(decisions);
                    break;
                }
                other => panic!("unexpected decision {other:?}"),
            }
        }
        let terminated_at = terminated_at.expect("agent must terminate");
        // It learns n after n moves (n+1 decisions), then needs 2n+1 more
        // completed rounds; well under 4n decisions total.
        assert!(terminated_at <= 4 * n, "terminated at {terminated_at}, expected ≤ {}", 4 * n);
        assert_eq!(a.counters().known_size(), Some(n));
    }
}
