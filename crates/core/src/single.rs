//! The lone wanderer (Observation 1 / Corollary 1).
//!
//! A single agent can never explore a dynamic ring: the adversary simply
//! removes, in every round, the edge the agent is about to cross. This
//! protocol is the natural single-agent strategy (walk in one direction,
//! optionally turning around after a long block) and exists so that the
//! impossibility can be demonstrated experimentally against the
//! [`BlockSingleAgent`-style adversary](https://docs.rs/dynring-engine) in
//! the analysis crate.

use crate::counters::{read_direction, Counters};
use dynring_model::statekey::KeyReader;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// A single agent walking around the ring, reversing direction after waiting
/// on a missing edge for `patience` consecutive rounds (`patience = 0` never
/// reverses).
///
/// ```
/// use dynring_core::single::LoneWalker;
/// use dynring_model::Protocol;
///
/// let agent = LoneWalker::new(3);
/// assert_eq!(agent.name(), "LoneWalker");
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::LoneWalker`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoneWalker {
    patience: u64,
    dir: LocalDirection,
    counters: Counters,
}

impl LoneWalker {
    /// Creates a walker that reverses after `patience` blocked rounds
    /// (`0` = never reverse).
    #[must_use]
    pub fn new(patience: u64) -> Self {
        LoneWalker { patience, dir: LocalDirection::Left, counters: Counters::new() }
    }

    /// The walker's current direction.
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

impl Protocol for LoneWalker {
    fn name(&self) -> &'static str {
        "LoneWalker"
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Unconscious
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        if self.patience > 0 && self.counters.btime() >= self.patience {
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
        dynring_model::statekey::push_u64(out, self.patience);
        out.push(crate::counters::direction_key(Some(self.dir)));
        self.counters.write_state_key(out);
    }
}

impl LoneWalker {
    /// Overwrites the state with the one `write_state_key` wrote to `key`.
    pub(crate) fn read_state_key(&mut self, key: &mut KeyReader<'_>) {
        self.patience = key.u64();
        self.dir = read_direction(key);
        self.counters.read_state_key(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::{LocalPosition, NodeOccupancy, PriorOutcome};

    fn snap(prior: PriorOutcome) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior,
            round_hint: None,
        }
    }

    #[test]
    fn walks_left_until_patience_runs_out() {
        let mut a = LoneWalker::new(2);
        assert_eq!(a.decide(&snap(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.decide(&snap(PriorOutcome::BlockedOnPort)), Decision::Move(LocalDirection::Left));
        // Second consecutive blocked round reaches the patience threshold.
        assert_eq!(a.decide(&snap(PriorOutcome::BlockedOnPort)), Decision::Move(LocalDirection::Right));
        assert_eq!(a.direction(), LocalDirection::Right);
    }

    #[test]
    fn zero_patience_never_reverses() {
        let mut a = LoneWalker::new(0);
        for _ in 0..20 {
            assert_eq!(a.decide(&snap(PriorOutcome::BlockedOnPort)), Decision::Move(LocalDirection::Left));
        }
        assert!(!a.has_terminated());
    }
}
