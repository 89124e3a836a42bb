//! Unconscious exploration in the ET model (Theorem 18).
//!
//! "A trivial algorithm in which an agent changes direction only when it
//! catches someone solves the exploration in ET" — two agents with chirality
//! suffice.

use crate::counters::{read_direction, Counters};
use dynring_model::statekey::KeyReader;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// The Theorem 18 protocol: walk in one direction, reverse only on a catch,
/// never terminate.
///
/// ```
/// use dynring_core::ssync::EtUnconscious;
/// use dynring_model::{Protocol, TerminationKind};
///
/// let agent = EtUnconscious::new();
/// assert_eq!(agent.termination_kind(), TerminationKind::Unconscious);
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::EtUnconscious`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EtUnconscious {
    dir: LocalDirection,
    counters: Counters,
}

impl Default for EtUnconscious {
    fn default() -> Self {
        Self::new()
    }
}

impl EtUnconscious {
    /// Creates a fresh agent moving left.
    #[must_use]
    pub fn new() -> Self {
        EtUnconscious { dir: LocalDirection::Left, counters: Counters::new() }
    }

    /// The direction the agent is currently following.
    #[must_use]
    pub const fn direction(&self) -> LocalDirection {
        self.dir
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl Protocol for EtUnconscious {
    fn name(&self) -> &'static str {
        "ETUnconscious"
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Unconscious
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        if snapshot.catches(self.dir) {
            self.dir = self.dir.opposite();
        }
        let decision = Decision::Move(self.dir);
        self.counters.record_decision(decision);
        decision
    }

    fn has_terminated(&self) -> bool {
        false
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.push(crate::counters::direction_key(Some(self.dir)));
        self.counters.write_state_key(out);
    }
}

impl EtUnconscious {
    /// Overwrites the state with the one `write_state_key` wrote to `key`.
    pub(crate) fn read_state_key(&mut self, key: &mut KeyReader<'_>) {
        self.dir = read_direction(key);
        self.counters.read_state_key(key);
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
    fn reverses_only_on_catches() {
        let mut a = EtUnconscious::new();
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        // Blocked rounds do not change direction.
        for _ in 0..10 {
            assert_eq!(a.decide(&plain(PriorOutcome::BlockedOnPort)), Decision::Move(LocalDirection::Left));
        }
        // Catching the other agent on the left port reverses.
        let catch = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 1, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&catch), Decision::Move(LocalDirection::Right));
        assert_eq!(a.direction(), LocalDirection::Right);
        // Catching on the right port reverses back.
        let catch_right = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 0, on_right_port: 1 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&catch_right), Decision::Move(LocalDirection::Left));
    }

    #[test]
    fn never_terminates() {
        let mut a = EtUnconscious::new();
        for _ in 0..100 {
            let _ = a.decide(&plain(PriorOutcome::Moved));
            assert!(!a.has_terminated());
        }
    }
}
