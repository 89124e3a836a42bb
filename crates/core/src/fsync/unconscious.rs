//! Algorithm `Unconscious Exploration` (Figure 3, Theorem 5).
//!
//! Two anonymous agents without chirality and with no knowledge whatsoever
//! explore every 1-interval-connected ring within `O(n)` rounds, without ever
//! terminating (termination is impossible in this setting by Theorems 1/2).

use crate::counters::Counters;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// The states of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum State {
    /// Initial guessing phase.
    Init,
    /// Caught the other agent: move in the opposite direction forever.
    Bounce,
    /// Guess expired while blocked for more than `G` rounds: reverse.
    Reverse,
    /// Was caught: keep the current direction forever.
    Forward,
    /// Guess expired without a long block: keep direction, double the guess.
    Keep,
}

/// Algorithm `Unconscious Exploration` of Figure 3.
///
/// Each agent guesses the ring size (`G`, initially 2), moves in one
/// direction for `2G` rounds, doubles the guess, and reverses direction only
/// if it spent more than `G` of those rounds blocked on a missing edge.
/// Catching / being caught fixes the two agents on opposite directions
/// forever, after which the ring is explored within `n − 1` further rounds.
///
/// The paper's Figure 3 writes `F ← 2·G` in state `Reverse`; consistently
/// with the proof of Theorem 5 ("G is always doubled after 2G time steps")
/// this implementation doubles `G` on every phase change, whether the
/// direction is kept or reversed.
///
/// ```
/// use dynring_core::fsync::Unconscious;
/// use dynring_model::{Protocol, TerminationKind};
///
/// let agent = Unconscious::new();
/// assert_eq!(agent.termination_kind(), TerminationKind::Unconscious);
/// assert!(!agent.has_terminated());
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::Unconscious`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Unconscious {
    state: State,
    guess: u64,
    dir: LocalDirection,
    counters: Counters,
}

impl Default for Unconscious {
    fn default() -> Self {
        Self::new()
    }
}

impl Unconscious {
    /// Initial size guess `G` of Figure 3.
    pub const INITIAL_GUESS: u64 = 2;

    /// Creates a fresh agent with guess `G = 2` moving left.
    #[must_use]
    pub fn new() -> Self {
        Unconscious {
            state: State::Init,
            guess: Self::INITIAL_GUESS,
            dir: LocalDirection::Left,
            counters: Counters::new(),
        }
    }

    /// The current size guess `G`.
    #[must_use]
    pub const fn guess(&self) -> u64 {
        self.guess
    }

    /// The direction the agent is currently committed to.
    #[must_use]
    pub const fn direction(&self) -> LocalDirection {
        self.dir
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    fn guessing_step(&mut self, snapshot: &Snapshot) -> Option<Decision> {
        // Shared predicate list of states Init / Reverse / Keep, in the order
        // of Figure 3.
        let c = &self.counters;
        if c.etime() >= 2 * self.guess && c.btime() > self.guess {
            self.state = State::Reverse;
            self.guess *= 2;
            self.dir = self.dir.opposite();
            self.counters.reset_explore();
            return None;
        }
        if c.etime() >= 2 * self.guess {
            self.state = State::Keep;
            self.guess *= 2;
            self.counters.reset_explore();
            return None;
        }
        if snapshot.catches(self.dir) {
            self.state = State::Bounce;
            self.dir = self.dir.opposite();
            self.counters.reset_explore();
            return None;
        }
        if snapshot.caught() {
            self.state = State::Forward;
            self.counters.reset_explore();
            return None;
        }
        Some(Decision::Move(self.dir))
    }

    fn step(&mut self, snapshot: &Snapshot) -> Decision {
        for _ in 0..4 {
            match self.state {
                State::Init | State::Reverse | State::Keep => {
                    if let Some(d) = self.guessing_step(snapshot) {
                        return d;
                    }
                }
                State::Bounce | State::Forward => return Decision::Move(self.dir),
            }
        }
        Decision::Move(self.dir)
    }
}

impl Protocol for Unconscious {
    fn name(&self) -> &'static str {
        "UnconsciousExploration"
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Unconscious
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        let decision = self.step(snapshot);
        self.counters.record_decision(decision);
        decision
    }

    fn has_terminated(&self) -> bool {
        false
    }

    fn state_label(&self) -> String {
        format!("{:?}(G={},dir={})", self.state, self.guess, self.dir)
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.push(match self.state {
            State::Init => 0,
            State::Bounce => 1,
            State::Reverse => 2,
            State::Forward => 3,
            State::Keep => 4,
        });
        dynring_model::statekey::push_u64(out, self.guess);
        out.push(crate::counters::direction_key(Some(self.dir)));
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
    fn starts_left_with_guess_two() {
        let mut a = Unconscious::new();
        assert_eq!(a.guess(), 2);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.direction(), LocalDirection::Left);
    }

    #[test]
    fn guess_doubles_every_2g_rounds_without_blocks() {
        let mut a = Unconscious::new();
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let mut doublings = Vec::new();
        for round in 1..=30 {
            let before = a.guess();
            let d = a.decide(&plain(PriorOutcome::Moved));
            assert_eq!(d, Decision::Move(LocalDirection::Left), "never reverses if never blocked");
            if a.guess() != before {
                doublings.push(round);
            }
        }
        // G: 2 -> 4 after 4 completed rounds, -> 8 after 8 more, -> 16 after 16 more.
        assert_eq!(doublings, vec![4, 12, 28]);
        assert_eq!(a.guess(), 16);
    }

    #[test]
    fn reverses_direction_when_blocked_more_than_g_rounds() {
        let mut a = Unconscious::new();
        let _ = a.decide(&plain(PriorOutcome::Idle));
        // Block the agent for the entire phase: Etime reaches 2G=4 with
        // Btime=4 > G=2, so the phase ends in Reverse and direction flips.
        let mut last = Decision::Stay;
        for _ in 0..4 {
            last = a.decide(&plain(PriorOutcome::BlockedOnPort));
        }
        assert_eq!(last, Decision::Move(LocalDirection::Right));
        assert_eq!(a.direction(), LocalDirection::Right);
        assert_eq!(a.guess(), 4);
    }

    #[test]
    fn catching_locks_opposite_direction_forever() {
        let mut a = Unconscious::new();
        let catch = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior: PriorOutcome::Idle,
            round_hint: None,
        };
        assert_eq!(a.decide(&catch), Decision::Move(LocalDirection::Right));
        // From now on the direction never changes, no matter what happens.
        for _ in 0..50 {
            assert_eq!(a.decide(&plain(PriorOutcome::BlockedOnPort)), Decision::Move(LocalDirection::Right));
        }
    }

    #[test]
    fn being_caught_locks_current_direction_forever() {
        let mut a = Unconscious::new();
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let caught = Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Left),
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        };
        assert_eq!(a.decide(&caught), Decision::Move(LocalDirection::Left));
        for _ in 0..50 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Left));
        }
    }

    #[test]
    fn never_terminates() {
        let mut a = Unconscious::new();
        for _ in 0..200 {
            let d = a.decide(&plain(PriorOutcome::Moved));
            assert!(d.is_move());
            assert!(!a.has_terminated());
        }
    }
}
