//! The protocol trait implemented by every exploration algorithm.

use crate::decision::Decision;
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The termination discipline an algorithm promises (Section 1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TerminationKind {
    /// Every agent eventually enters a terminal state and stops moving.
    Explicit,
    /// At least one agent eventually enters a terminal state and stops
    /// moving (the others may keep moving or wait on a port forever).
    Partial,
    /// Agents are never required to stop (unconscious exploration).
    Unconscious,
}

impl fmt::Display for TerminationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationKind::Explicit => write!(f, "explicit termination"),
            TerminationKind::Partial => write!(f, "partial termination"),
            TerminationKind::Unconscious => write!(f, "unconscious exploration"),
        }
    }
}

/// A deterministic exploration protocol executed identically by every agent.
///
/// The engine drives a protocol through the Look–Compute–Move cycle: on every
/// activation it presents the [`Snapshot`] produced by **Look** and receives
/// the [`Decision`] produced by **Compute**. All persistent memory lives in
/// the implementing type.
///
/// Protocols must be deterministic (the paper's algorithms all are), which the
/// engine exploits in two ways:
///
/// * adversaries may *predict* an agent's decision by copying the protocol's
///   state into a probe and dry-running it, exactly as the omniscient
///   adversaries in the impossibility proofs do;
/// * recorded executions can be replayed.
///
/// # One program representation
///
/// The paper's protocols are a closed set, so the engine runs every agent
/// as a `dynring_core::CatalogProtocol`: an enum over the concrete state
/// machines that implements this trait by a static `match`. A new protocol
/// implements `Protocol` and `Clone`, then joins the engine as one more
/// `CatalogProtocol` variant plus its `Algorithm` entry (see
/// `docs/ARCHITECTURE.md`, "One program representation").
///
/// # Implementing
///
/// ```
/// use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
///
/// /// An agent that walks left forever (it cannot explore alone — Corollary 1).
/// #[derive(Debug, Clone, Default)]
/// struct LeftWalker;
///
/// impl Protocol for LeftWalker {
///     fn name(&self) -> &'static str { "left-walker" }
///     fn termination_kind(&self) -> TerminationKind { TerminationKind::Unconscious }
///     fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
///         Decision::Move(LocalDirection::Left)
///     }
///     fn has_terminated(&self) -> bool { false }
///     // A stateless walker: the empty encoding is injective.
///     fn write_state_key(&self, _out: &mut Vec<u8>) {}
/// }
/// ```
///
/// # Thread safety
///
/// Protocols are `Send + Sync`: all mutation happens through `&mut self`
/// (the engine owns each agent's program exclusively), and the model
/// checker's parallel search shares frozen checkpoints — which embed program
/// state — across worker threads by reference. Protocols therefore cannot
/// use non-`Sync` interior mutability (`Cell`, `RefCell`, `Rc`); none needs
/// to, since `decide` takes `&mut self`.
pub trait Protocol: Send + Sync + fmt::Debug {
    /// A short, stable, human-readable name of the algorithm (used in traces,
    /// reports and benchmarks).
    fn name(&self) -> &'static str;

    /// The termination discipline this protocol is designed to achieve.
    fn termination_kind(&self) -> TerminationKind;

    /// One **Compute** step: given the snapshot of the current activation,
    /// return the decision for this round. Called only while the agent is
    /// active and not terminated.
    fn decide(&mut self, snapshot: &Snapshot) -> Decision;

    /// Whether the agent has entered its terminal state. Once `true`, the
    /// engine never activates the agent again and it never moves.
    ///
    /// This turns `true` exactly on the activation whose `decide` returns
    /// [`Decision::Terminate`], and never otherwise: the engine terminates
    /// an agent on that decision alone, and checks this invariant after
    /// every decision in debug builds. Protocols whose
    /// [`Protocol::termination_kind`] is [`TerminationKind::Unconscious`]
    /// keep it constantly `false`.
    fn has_terminated(&self) -> bool;

    /// A free-form description of the internal state for traces and
    /// debugging; the default implementation uses the `Debug` representation.
    fn state_label(&self) -> String {
        format!("{self:?}")
    }

    /// Appends a compact, **injective** binary encoding of the protocol's
    /// full observable state to `out`.
    ///
    /// Implementors must emit every field that can influence any future
    /// [`Protocol::decide`] or [`Protocol::has_terminated`] answer, using the
    /// prefix-free varint helpers in [`crate::statekey`] so that distinct
    /// states never serialise to the same bytes. The exhaustive model checker builds
    /// its canonical per-state dedup key from this encoding — a collision
    /// between distinct states would silently prune reachable configurations
    /// and void the impossibility proofs, which is why injectivity (not
    /// compactness) is the load-bearing requirement.
    fn write_state_key(&self, out: &mut Vec<u8>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome};

    #[derive(Debug, Clone)]
    struct Alternator {
        next_left: bool,
        steps: u32,
    }

    impl Protocol for Alternator {
        fn name(&self) -> &'static str {
            "alternator"
        }

        fn termination_kind(&self) -> TerminationKind {
            TerminationKind::Explicit
        }

        fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
            self.steps += 1;
            if self.steps > 3 {
                return Decision::Terminate;
            }
            let dir = if self.next_left { LocalDirection::Left } else { LocalDirection::Right };
            self.next_left = !self.next_left;
            Decision::Move(dir)
        }

        fn has_terminated(&self) -> bool {
            self.steps > 3
        }

        fn write_state_key(&self, out: &mut Vec<u8>) {
            out.push(u8::from(self.next_left));
            crate::statekey::push_u64(out, u64::from(self.steps));
        }
    }

    fn snap() -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::Idle,
            round_hint: Some(1),
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut original = Alternator { next_left: true, steps: 0 };
        assert_eq!(original.decide(&snap()), Decision::Move(LocalDirection::Left));
        let mut copy = original.clone();
        // Both the copy and the original continue from the same state.
        assert_eq!(copy.decide(&snap()), Decision::Move(LocalDirection::Right));
        assert_eq!(original.decide(&snap()), Decision::Move(LocalDirection::Right));
    }

    #[test]
    fn termination_flag_follows_decisions() {
        let mut p = Alternator { next_left: true, steps: 0 };
        for _ in 0..3 {
            assert!(!p.has_terminated());
            let _ = p.decide(&snap());
        }
        assert_eq!(p.decide(&snap()), Decision::Terminate);
        assert!(p.has_terminated());
        assert_eq!(p.name(), "alternator");
        assert_eq!(p.termination_kind(), TerminationKind::Explicit);
        assert!(p.state_label().contains("Alternator"));
    }

    #[test]
    fn termination_kind_display() {
        assert_eq!(TerminationKind::Explicit.to_string(), "explicit termination");
        assert_eq!(TerminationKind::Partial.to_string(), "partial termination");
        assert_eq!(TerminationKind::Unconscious.to_string(), "unconscious exploration");
    }
}
