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
/// * adversaries may *predict* an agent's decision by cloning the protocol
///   (via [`Protocol::clone_box`]) and dry-running it, exactly as the
///   omniscient adversaries in the impossibility proofs do;
/// * recorded executions can be replayed.
///
/// # Dispatch
///
/// `Box<dyn Protocol>` is the open extension point: any user-defined type
/// implementing this trait can join a simulation. A *closed* set of
/// protocols can additionally be wrapped in an enum that implements
/// `Protocol` by a static `match` over its variants, trading virtual calls
/// for inlinable direct dispatch — `dynring_core::CatalogProtocol` does
/// exactly this for the paper's nine-algorithm catalogue, and the engine
/// runs both representations side by side (see `docs/ARCHITECTURE.md`,
/// "The dispatch story"). Nothing in this trait is aware of the
/// distinction; enum wrappers simply forward every method.
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
///     fn clone_box(&self) -> Box<dyn Protocol> { Box::new(self.clone()) }
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
    /// Protocols whose [`Protocol::termination_kind`] is
    /// [`TerminationKind::Unconscious`] promise this is constantly `false`
    /// (unconscious exploration never stops); the engine relies on that and
    /// skips the per-round poll for them.
    fn has_terminated(&self) -> bool;

    /// Clones the protocol together with its full internal state.
    fn clone_box(&self) -> Box<dyn Protocol>;

    /// The protocol as a [`std::any::Any`] reference, enabling the in-place
    /// state copy of [`Protocol::clone_from_box`]. Protocols that opt into
    /// probe reuse return `Some(self)`; the default (`None`) makes every
    /// state copy fall back to a fresh [`Protocol::clone_box`].
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Copies `src`'s full internal state into `self` **in place**, returning
    /// whether the copy happened. A copy happens only when both protocols are
    /// the same concrete type (checked through [`Protocol::as_any`]); the
    /// default implementation refuses every copy, and callers then fall back
    /// to an owned [`Protocol::clone_box`].
    ///
    /// This is the allocation-free sibling of `clone_box`: the engine keeps a
    /// per-agent pool of *probe* instances and refreshes each probe from the
    /// live protocol every round instead of boxing a new clone, which is what
    /// makes omniscient-adversary predictions (the paper's impossibility
    /// constructions dry-run every agent every round) as cheap as the plain
    /// round loop. Implementors usually delegate to [`clone_state_from`]:
    ///
    /// ```
    /// use dynring_model::{
    ///     clone_state_from, Decision, LocalDirection, Protocol, Snapshot, TerminationKind,
    /// };
    ///
    /// #[derive(Debug, Clone, Default)]
    /// struct Pacer {
    ///     steps: u64,
    /// }
    ///
    /// impl Protocol for Pacer {
    ///     fn name(&self) -> &'static str { "pacer" }
    ///     fn termination_kind(&self) -> TerminationKind { TerminationKind::Unconscious }
    ///     fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
    ///         self.steps += 1;
    ///         Decision::Move(LocalDirection::Left)
    ///     }
    ///     fn has_terminated(&self) -> bool { false }
    ///     fn clone_box(&self) -> Box<dyn Protocol> { Box::new(self.clone()) }
    ///     fn as_any(&self) -> Option<&dyn std::any::Any> { Some(self) }
    ///     fn clone_from_box(&mut self, src: &dyn Protocol) -> bool {
    ///         clone_state_from(self, src)
    ///     }
    /// }
    ///
    /// let live = Pacer { steps: 41 };
    /// let mut probe = Pacer { steps: 7 };
    /// assert!(probe.clone_from_box(&live));           // same type: copied in place
    /// assert_eq!(probe.steps, 41);
    ///
    /// #[derive(Debug, Clone, Default)]
    /// struct Other;
    /// # impl Protocol for Other {
    /// #     fn name(&self) -> &'static str { "other" }
    /// #     fn termination_kind(&self) -> TerminationKind { TerminationKind::Unconscious }
    /// #     fn decide(&mut self, _s: &Snapshot) -> Decision { Decision::Stay }
    /// #     fn has_terminated(&self) -> bool { false }
    /// #     fn clone_box(&self) -> Box<dyn Protocol> { Box::new(self.clone()) }
    /// #     fn as_any(&self) -> Option<&dyn std::any::Any> { Some(self) }
    /// # }
    /// assert!(!probe.clone_from_box(&Other));         // type mismatch: refused
    /// assert_eq!(probe.steps, 41);
    /// ```
    fn clone_from_box(&mut self, src: &dyn Protocol) -> bool {
        let _ = src;
        false
    }

    /// A free-form description of the internal state for traces and
    /// debugging; the default implementation uses the `Debug` representation.
    fn state_label(&self) -> String {
        format!("{self:?}")
    }

    /// Appends a compact, **injective** binary encoding of the protocol's
    /// full observable state to `out`, returning whether the protocol
    /// supports packed keys. The default refuses (`false`, nothing written);
    /// callers then fall back to the `Debug`-string encoding.
    ///
    /// Implementors must emit every field that can influence any future
    /// [`Protocol::decide`] or [`Protocol::has_terminated`] answer, using the
    /// prefix-free varint helpers in [`crate::statekey`] so that distinct
    /// states never serialise to the same bytes. The exhaustive model checker builds
    /// its canonical per-state dedup key from this encoding — a collision
    /// between distinct states would silently prune reachable configurations
    /// and void the impossibility proofs, which is why injectivity (not
    /// compactness) is the load-bearing requirement.
    fn write_state_key(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }
}

/// Copies `src`'s state into `dst` when `src` is also a `T`, returning
/// whether the copy happened. The copy goes through [`Clone::clone_from`], so
/// types that override it (reusing existing heap capacity) stay
/// allocation-free in the steady state.
///
/// This is the standard body of a [`Protocol::clone_from_box`] implementation;
/// see the trait method for a full example.
pub fn clone_state_from<T: Protocol + Clone + 'static>(dst: &mut T, src: &dyn Protocol) -> bool {
    match src.as_any().and_then(|any| any.downcast_ref::<T>()) {
        Some(concrete) => {
            dst.clone_from(concrete);
            true
        }
        None => false,
    }
}

/// Owned, type-erased protocol instance.
pub type BoxedProtocol = Box<dyn Protocol>;

impl Clone for BoxedProtocol {
    fn clone(&self) -> Self {
        self.clone_box()
    }
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

        fn clone_box(&self) -> BoxedProtocol {
            Box::new(self.clone())
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
    fn boxed_clone_preserves_state() {
        let mut original: BoxedProtocol = Box::new(Alternator { next_left: true, steps: 0 });
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
