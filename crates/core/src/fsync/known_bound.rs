//! Algorithm `KnownNNoChirality` (Figure 1, Theorem 3).
//!
//! Two anonymous agents without chirality, knowing an upper bound `N ≥ n` on
//! the ring size, explore any 1-interval-connected ring and both explicitly
//! terminate within `3N − 6` rounds.

use crate::counters::Counters;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// The states of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum State {
    /// Moving left, watching for blocks/catches.
    Init,
    /// Reversed: moving right until the global timeout.
    Bounce,
    /// Confirmed: keep moving left until the global timeout.
    Forward,
    /// Terminal state.
    Terminate,
}

/// Algorithm `KnownNNoChirality` of Figure 1.
///
/// The agent starts moving `left` (in its own frame). It switches to state
/// `Bounce` (and goes `right` until the end) if it catches the other agent in
/// the first `2N − 4` rounds, if it fails to acquire a port, or if `2N − 4`
/// rounds have passed while it has been blocked for the last `N − 1` rounds.
/// It switches to `Forward` (keeps going `left`) if it is caught, or when
/// `2N − 4` rounds have passed otherwise. Both agents terminate at round
/// `3N − 6`.
///
/// ```
/// use dynring_core::fsync::KnownBound;
/// use dynring_model::{Protocol, TerminationKind};
///
/// let agent = KnownBound::new(10);
/// assert_eq!(agent.termination_kind(), TerminationKind::Explicit);
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::KnownBound`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnownBound {
    bound: u64,
    state: State,
    counters: Counters,
}

impl KnownBound {
    /// Creates an agent knowing the upper bound `N ≥ n` on the ring size.
    ///
    /// # Panics
    ///
    /// Panics if `upper_bound < 3` (no ring that small exists).
    #[must_use]
    pub fn new(upper_bound: usize) -> Self {
        assert!(upper_bound >= 3, "the ring-size upper bound must be at least 3");
        KnownBound { bound: upper_bound as u64, state: State::Init, counters: Counters::new() }
    }

    /// The upper bound `N` this agent was configured with.
    #[must_use]
    pub fn upper_bound(&self) -> usize {
        self.bound as usize
    }

    /// The round threshold `2N − 4` of Figure 1.
    #[must_use]
    pub fn reverse_deadline(&self) -> u64 {
        self.bound.saturating_mul(2).saturating_sub(4)
    }

    /// The termination threshold `3N − 6` of Figure 1 / Theorem 3.
    #[must_use]
    pub fn termination_deadline(&self) -> u64 {
        self.bound.saturating_mul(3).saturating_sub(6)
    }

    /// Access to the agent's counters (used by tests and traces).
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    fn step(&mut self, snapshot: &Snapshot) -> Decision {
        // Chained transitions are processed in the same round, as in the
        // paper ("change state and process it"). Two iterations suffice for
        // this algorithm; the loop guard is defensive.
        for _ in 0..4 {
            match self.state {
                State::Init => {
                    let c = &self.counters;
                    let past_reverse_deadline = c.ttime() >= self.reverse_deadline();
                    // Figure 1 writes `Btime = N − 1`; an agent that was
                    // blocked earlier than round N − 3 reaches the deadline
                    // with `Btime > N − 1`, and the proof of Theorem 3
                    // requires it to bounce in that case too, so the test is
                    // `≥` here.
                    if (past_reverse_deadline && c.btime() >= self.bound.saturating_sub(1))
                        || snapshot.failed()
                        || snapshot.catches(LocalDirection::Left)
                    {
                        self.state = State::Bounce;
                        self.counters.reset_explore();
                        continue;
                    }
                    if snapshot.caught() || past_reverse_deadline {
                        self.state = State::Forward;
                        self.counters.reset_explore();
                        continue;
                    }
                    return Decision::Move(LocalDirection::Left);
                }
                State::Bounce => {
                    if self.counters.ttime() >= self.termination_deadline() {
                        self.state = State::Terminate;
                        continue;
                    }
                    return Decision::Move(LocalDirection::Right);
                }
                State::Forward => {
                    if self.counters.ttime() >= self.termination_deadline() {
                        self.state = State::Terminate;
                        continue;
                    }
                    return Decision::Move(LocalDirection::Left);
                }
                State::Terminate => return Decision::Terminate,
            }
        }
        Decision::Terminate
    }
}

impl Protocol for KnownBound {
    fn name(&self) -> &'static str {
        "KnownNNoChirality"
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
        self.state == State::Terminate
    }

    fn state_label(&self) -> String {
        format!("{:?}(Ttime={},Btime={})", self.state, self.counters.ttime(), self.counters.btime())
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        dynring_model::statekey::push_u64(out, self.bound);
        out.push(match self.state {
            State::Init => 0,
            State::Bounce => 1,
            State::Forward => 2,
            State::Terminate => 3,
        });
        self.counters.write_state_key(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::{LocalPosition, NodeOccupancy, PriorOutcome};

    fn plain(prior: PriorOutcome) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior,
            round_hint: None,
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_bound_below_three() {
        let _ = KnownBound::new(2);
    }

    #[test]
    fn thresholds_match_figure_1() {
        let a = KnownBound::new(10);
        assert_eq!(a.reverse_deadline(), 16);
        assert_eq!(a.termination_deadline(), 24);
        assert_eq!(a.upper_bound(), 10);
    }

    #[test]
    fn starts_moving_left_and_keeps_left_without_events() {
        let mut a = KnownBound::new(8);
        for _ in 0..5 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Left));
        }
        assert!(!a.has_terminated());
    }

    #[test]
    fn failed_port_acquisition_causes_bounce() {
        let mut a = KnownBound::new(8);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        assert_eq!(
            a.decide(&plain(PriorOutcome::PortAcquisitionFailed)),
            Decision::Move(LocalDirection::Right)
        );
        // It stays in Bounce (right) from then on.
        assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Right));
    }

    #[test]
    fn catching_the_other_agent_causes_bounce() {
        let mut a = KnownBound::new(8);
        let snap = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&snap), Decision::Move(LocalDirection::Right));
    }

    #[test]
    fn being_caught_causes_forward() {
        let mut a = KnownBound::new(8);
        let snap = Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Left),
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        };
        assert_eq!(a.decide(&snap), Decision::Move(LocalDirection::Left));
        // Forward keeps going left even if it later sees the other agent on
        // its left port (no more bouncing).
        let catches = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&catches), Decision::Move(LocalDirection::Left));
    }

    #[test]
    fn terminates_exactly_at_the_deadline() {
        let n = 6;
        let mut a = KnownBound::new(n);
        let deadline = a.termination_deadline(); // 3N - 6 = 12
        let mut rounds = 0u64;
        loop {
            let d = a.decide(&plain(if rounds == 0 {
                PriorOutcome::Idle
            } else {
                PriorOutcome::Moved
            }));
            rounds += 1;
            if d == Decision::Terminate {
                break;
            }
            assert!(rounds < 100, "agent never terminated");
        }
        // Ttime = deadline at the terminating decision, which happens in
        // round deadline + 1 (the agent has completed `deadline` rounds).
        assert_eq!(rounds, deadline + 1);
        assert!(a.has_terminated());
        // Once terminated it stays terminated.
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Terminate);
    }

    #[test]
    fn blocked_for_last_n_minus_1_rounds_of_the_first_phase_causes_bounce() {
        // N = 5: reverse deadline 2N-4 = 6. The bounce-on-block predicate
        // fires at the decision where Ttime = 6 and Btime = N-1 = 4, i.e. the
        // agent spent the last 4 of the first 6 rounds waiting on a port.
        let mut a = KnownBound::new(5);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        for _ in 0..2 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Left));
        }
        for _ in 0..3 {
            assert_eq!(
                a.decide(&plain(PriorOutcome::BlockedOnPort)),
                Decision::Move(LocalDirection::Left)
            );
        }
        // Fourth consecutive blocked round: Ttime = 6, Btime = 4 → Bounce.
        assert_eq!(
            a.decide(&plain(PriorOutcome::BlockedOnPort)),
            Decision::Move(LocalDirection::Right)
        );
        assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Right));
    }

    #[test]
    fn agent_blocked_from_the_start_still_bounces_at_the_deadline() {
        // Blocked from round 1: at Ttime = 2N-4 its Btime exceeds N-1, and it
        // must still reverse (this is the case the proof of Theorem 3 needs
        // when both agents are parked on the two sides of the same missing
        // edge).
        let mut a = KnownBound::new(5);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        for _ in 0..5 {
            assert_eq!(
                a.decide(&plain(PriorOutcome::BlockedOnPort)),
                Decision::Move(LocalDirection::Left)
            );
        }
        // Ttime = 6 = 2N-4, Btime = 6 ≥ N-1 = 4 → Bounce.
        assert_eq!(
            a.decide(&plain(PriorOutcome::BlockedOnPort)),
            Decision::Move(LocalDirection::Right)
        );
    }

    #[test]
    fn unblocked_agent_switches_to_forward_at_the_reverse_deadline() {
        // N = 5: at Ttime = 6 with no block the agent enters Forward and
        // keeps moving left; it no longer reacts to `catches`.
        let mut a = KnownBound::new(5);
        let _ = a.decide(&plain(PriorOutcome::Idle));
        for _ in 0..6 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Left));
        }
        let catches = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&catches), Decision::Move(LocalDirection::Left));
    }

    #[test]
    fn clone_preserves_state() {
        let mut a = KnownBound::new(8);
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let _ = a.decide(&plain(PriorOutcome::PortAcquisitionFailed));
        let cloned = a.clone();
        assert_eq!(cloned.state_label(), a.state_label());
        assert_eq!(a.name(), "KnownNNoChirality");
    }
}
