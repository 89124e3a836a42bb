//! A registry of every algorithm in the paper, and the enum-dispatched
//! protocol runtime built on top of it.
//!
//! The analysis and benchmark crates enumerate this catalogue to build the
//! feasibility map (Tables 1–4); examples use it to construct agents by name.
//!
//! # Two ways to instantiate an algorithm
//!
//! The catalogue of *Live Exploration of Dynamic Rings* is **closed and
//! small** — nine concrete protocol state machines cover all twelve
//! feasibility-map rows — which the runtime exploits by offering two
//! instantiation paths:
//!
//! * [`Algorithm::instantiate_enum`] returns a [`CatalogProtocol`], a
//!   nine-variant enum wrapping the concrete protocol types. Dispatching
//!   `decide` through it is a **static `match`** the compiler can inline, so
//!   a homogeneous team of catalogue agents (the common case in every sweep)
//!   pays **zero virtual calls** per Look–Compute cycle, and the engine's
//!   probe pool can refresh prediction probes with a plain variant-matching
//!   [`Clone::clone_from`] instead of an `as_any` downcast.
//! * [`Algorithm::instantiate`] returns the classic `Box<dyn Protocol>` —
//!   the **extension escape hatch** that also accepts user-defined protocols
//!   the catalogue has never heard of. The engine runs both representations
//!   side by side in one team (see the example below).
//!
//! The two paths are observably identical — `tests/dispatch_equivalence.rs`
//! pins identical run reports and trace digests for every catalogue
//! algorithm under FSYNC and SSYNC, with and without decision predictions —
//! so choosing between them is purely a performance decision. See
//! `docs/ARCHITECTURE.md` (“The dispatch story”) for the full design.

use crate::fsync::{KnownBound, LandmarkChirality, LandmarkNoChirality, Unconscious};
use crate::single::LoneWalker;
use crate::ssync::{EtUnconscious, PtBoundChirality, PtLandmarkChirality, PtNoChirality};
use dynring_model::{
    Decision, Protocol, ScenarioAssumptions, Snapshot, SynchronyModel, TerminationKind,
    TransportModel,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The synchrony family an algorithm is designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmFamily {
    /// Fully synchronous algorithms (Section 3).
    Fsync,
    /// Semi-synchronous algorithms for the PT model (Section 4.2).
    SsyncPt,
    /// Semi-synchronous algorithms for the ET model (Section 4.3).
    SsyncEt,
    /// Single-agent strawman (Observation 1).
    SingleAgent,
}

/// Every algorithm of the paper, with enough parameters to instantiate it.
///
/// ```
/// use dynring_core::Algorithm;
///
/// let alg = Algorithm::KnownBound { upper_bound: 16 };
/// let agent = alg.instantiate();
/// assert_eq!(agent.name(), "KnownNNoChirality");
/// assert_eq!(alg.required_agents(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Figure 1 — FSYNC, two agents, known upper bound, no chirality.
    KnownBound {
        /// The known upper bound `N ≥ n`.
        upper_bound: usize,
    },
    /// Figure 3 — FSYNC, two agents, no knowledge, unconscious.
    Unconscious,
    /// Figure 4 — FSYNC, two agents, landmark + chirality.
    LandmarkChirality,
    /// Figure 13 — FSYNC, two agents, landmark, no chirality.
    LandmarkNoChirality,
    /// Figure 8 — FSYNC, two agents, landmark, no chirality, starting at the
    /// landmark.
    StartFromLandmarkNoChirality,
    /// Figure 14 — SSYNC/PT, two agents, chirality, known upper bound.
    PtBoundChirality {
        /// The known upper bound `N ≥ n`.
        upper_bound: usize,
    },
    /// Figure 17 — SSYNC/PT, two agents, chirality, landmark.
    PtLandmarkChirality,
    /// Figure 18 — SSYNC/PT, three agents, no chirality, known upper bound.
    PtBoundNoChirality {
        /// The known upper bound `N ≥ n`.
        upper_bound: usize,
    },
    /// Theorem 17 — SSYNC/PT, three agents, no chirality, landmark.
    PtLandmarkNoChirality,
    /// Theorem 20 — SSYNC/ET, three agents, no chirality, exact size.
    EtBoundNoChirality {
        /// The exactly known ring size `n`.
        ring_size: usize,
    },
    /// Theorem 18 — SSYNC/ET, two agents, chirality, unconscious.
    EtUnconscious,
    /// Observation 1 — a single agent (cannot succeed).
    LoneWalker {
        /// Blocked rounds after which the walker reverses (0 = never).
        patience: u64,
    },
}

impl Algorithm {
    /// Instantiates a fresh agent running this algorithm behind the classic
    /// type-erased `Box<dyn Protocol>` (the `dyn`-dispatch path).
    ///
    /// Prefer [`Algorithm::instantiate_enum`] for catalogue teams: the
    /// returned [`CatalogProtocol`] dispatches `decide` through a static
    /// `match` instead of a vtable. This boxed form remains the extension
    /// escape hatch shared with user-defined protocols.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn Protocol> {
        match *self {
            Algorithm::KnownBound { upper_bound } => Box::new(KnownBound::new(upper_bound)),
            Algorithm::Unconscious => Box::new(Unconscious::new()),
            Algorithm::LandmarkChirality => Box::new(LandmarkChirality::new()),
            Algorithm::LandmarkNoChirality => Box::new(LandmarkNoChirality::new()),
            Algorithm::StartFromLandmarkNoChirality => {
                Box::new(LandmarkNoChirality::starting_from_landmark())
            }
            Algorithm::PtBoundChirality { upper_bound } => {
                Box::new(PtBoundChirality::new(upper_bound))
            }
            Algorithm::PtLandmarkChirality => Box::new(PtLandmarkChirality::new()),
            Algorithm::PtBoundNoChirality { upper_bound } => {
                Box::new(PtNoChirality::with_upper_bound(upper_bound))
            }
            Algorithm::PtLandmarkNoChirality => Box::new(PtNoChirality::with_landmark()),
            Algorithm::EtBoundNoChirality { ring_size } => {
                Box::new(PtNoChirality::for_eventual_transport(ring_size))
            }
            Algorithm::EtUnconscious => Box::new(EtUnconscious::new()),
            Algorithm::LoneWalker { patience } => Box::new(LoneWalker::new(patience)),
        }
    }

    /// Instantiates a fresh agent running this algorithm as a
    /// [`CatalogProtocol`] (the enum-dispatch fast path).
    ///
    /// The twelve algorithm entries map onto the nine concrete protocol
    /// types: `StartFromLandmarkNoChirality` is a parameterisation of
    /// [`LandmarkNoChirality`], and the three `Pt…NoChirality` /
    /// `EtBoundNoChirality` entries are parameterisations of
    /// [`PtNoChirality`].
    #[must_use]
    pub fn instantiate_enum(&self) -> CatalogProtocol {
        match *self {
            Algorithm::KnownBound { upper_bound } => {
                CatalogProtocol::KnownBound(KnownBound::new(upper_bound))
            }
            Algorithm::Unconscious => CatalogProtocol::Unconscious(Unconscious::new()),
            Algorithm::LandmarkChirality => {
                CatalogProtocol::LandmarkChirality(LandmarkChirality::new())
            }
            Algorithm::LandmarkNoChirality => {
                CatalogProtocol::LandmarkNoChirality(Box::default())
            }
            Algorithm::StartFromLandmarkNoChirality => {
                let program = LandmarkNoChirality::starting_from_landmark();
                CatalogProtocol::LandmarkNoChirality(Box::new(program))
            }
            Algorithm::PtBoundChirality { upper_bound } => {
                CatalogProtocol::PtBoundChirality(PtBoundChirality::new(upper_bound))
            }
            Algorithm::PtLandmarkChirality => {
                CatalogProtocol::PtLandmarkChirality(PtLandmarkChirality::new())
            }
            Algorithm::PtBoundNoChirality { upper_bound } => {
                CatalogProtocol::PtNoChirality(PtNoChirality::with_upper_bound(upper_bound))
            }
            Algorithm::PtLandmarkNoChirality => {
                CatalogProtocol::PtNoChirality(PtNoChirality::with_landmark())
            }
            Algorithm::EtBoundNoChirality { ring_size } => {
                CatalogProtocol::PtNoChirality(PtNoChirality::for_eventual_transport(ring_size))
            }
            Algorithm::EtUnconscious => CatalogProtocol::EtUnconscious(EtUnconscious::new()),
            Algorithm::LoneWalker { patience } => {
                CatalogProtocol::LoneWalker(LoneWalker::new(patience))
            }
        }
    }

    /// The synchrony family the algorithm belongs to.
    #[must_use]
    pub fn family(&self) -> AlgorithmFamily {
        match self {
            Algorithm::KnownBound { .. }
            | Algorithm::Unconscious
            | Algorithm::LandmarkChirality
            | Algorithm::LandmarkNoChirality
            | Algorithm::StartFromLandmarkNoChirality => AlgorithmFamily::Fsync,
            Algorithm::PtBoundChirality { .. }
            | Algorithm::PtLandmarkChirality
            | Algorithm::PtBoundNoChirality { .. }
            | Algorithm::PtLandmarkNoChirality => AlgorithmFamily::SsyncPt,
            Algorithm::EtBoundNoChirality { .. } | Algorithm::EtUnconscious => {
                AlgorithmFamily::SsyncEt
            }
            Algorithm::LoneWalker { .. } => AlgorithmFamily::SingleAgent,
        }
    }

    /// Number of agents the algorithm is designed for.
    #[must_use]
    pub fn required_agents(&self) -> usize {
        match self {
            Algorithm::LoneWalker { .. } => 1,
            Algorithm::PtBoundNoChirality { .. }
            | Algorithm::PtLandmarkNoChirality
            | Algorithm::EtBoundNoChirality { .. } => 3,
            _ => 2,
        }
    }

    /// Whether the algorithm needs a landmark node.
    #[must_use]
    pub fn needs_landmark(&self) -> bool {
        matches!(
            self,
            Algorithm::LandmarkChirality
                | Algorithm::LandmarkNoChirality
                | Algorithm::StartFromLandmarkNoChirality
                | Algorithm::PtLandmarkChirality
                | Algorithm::PtLandmarkNoChirality
        )
    }

    /// Whether the algorithm assumes common chirality.
    #[must_use]
    pub fn needs_chirality(&self) -> bool {
        matches!(
            self,
            Algorithm::LandmarkChirality
                | Algorithm::PtBoundChirality { .. }
                | Algorithm::PtLandmarkChirality
                | Algorithm::EtUnconscious
        )
    }

    /// The termination discipline the algorithm promises.
    #[must_use]
    pub fn termination_kind(&self) -> TerminationKind {
        self.instantiate_enum().termination_kind()
    }

    /// The synchrony / transport model under which the algorithm's guarantee
    /// holds.
    #[must_use]
    pub fn synchrony(&self) -> SynchronyModel {
        match self.family() {
            AlgorithmFamily::Fsync | AlgorithmFamily::SingleAgent => SynchronyModel::Fsync,
            AlgorithmFamily::SsyncPt => SynchronyModel::Ssync(TransportModel::PassiveTransport),
            AlgorithmFamily::SsyncEt => SynchronyModel::Ssync(TransportModel::EventualTransport),
        }
    }

    /// The scenario assumptions under which the paper proves the algorithm
    /// correct, used to label feasibility-map rows.
    #[must_use]
    pub fn assumptions(&self) -> ScenarioAssumptions {
        let knows_exact = matches!(self, Algorithm::EtBoundNoChirality { .. });
        let knows_bound = matches!(
            self,
            Algorithm::KnownBound { .. }
                | Algorithm::PtBoundChirality { .. }
                | Algorithm::PtBoundNoChirality { .. }
        );
        ScenarioAssumptions {
            synchrony: self.synchrony(),
            agents: self.required_agents(),
            chirality: self.needs_chirality(),
            landmark: self.needs_landmark(),
            knows_exact_size: knows_exact,
            knows_upper_bound: knows_bound,
            anonymous_agents: true,
        }
    }

    /// Every algorithm of the paper, instantiated with the given ring size
    /// (used by sweeps that iterate over the full catalogue).
    #[must_use]
    pub fn full_catalog(ring_size: usize) -> Vec<Algorithm> {
        vec![
            Algorithm::KnownBound { upper_bound: ring_size },
            Algorithm::Unconscious,
            Algorithm::LandmarkChirality,
            Algorithm::LandmarkNoChirality,
            Algorithm::StartFromLandmarkNoChirality,
            Algorithm::PtBoundChirality { upper_bound: ring_size },
            Algorithm::PtLandmarkChirality,
            Algorithm::PtBoundNoChirality { upper_bound: ring_size },
            Algorithm::PtLandmarkNoChirality,
            Algorithm::EtBoundNoChirality { ring_size },
            Algorithm::EtUnconscious,
            Algorithm::LoneWalker { patience: 0 },
        ]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.instantiate_enum().name())
    }
}

/// Every concrete protocol state machine of the paper behind one **statically
/// dispatched** enum — the fast path of the engine's agent runtime.
///
/// Each `decide` call resolves by a `match` on the discriminant and a direct
/// (inlinable) call into the wrapped state machine, so a homogeneous team of
/// catalogue agents runs its whole Look–Compute cycle without a single
/// virtual call. The enum also carries a variant-matching
/// [`Clone::clone_from`], which is what lets the engine's probe pool refresh
/// a prediction probe in place without the `as_any` downcast the boxed path
/// needs.
///
/// The nine variants cover the paper's algorithm catalogue as mapped out in
/// [`Algorithm::instantiate_enum`]; `Box<dyn Protocol>` (via
/// [`Algorithm::instantiate`] or any user-defined type) remains the
/// extension escape hatch, and both representations can share one team:
///
/// ```
/// use dynring_core::{Algorithm, CatalogProtocol};
/// use dynring_engine::adversary::RandomEdge;
/// use dynring_engine::scheduler::FullActivation;
/// use dynring_engine::sim::{Simulation, StopCondition};
/// use dynring_graph::{Handedness, NodeId, RingTopology};
/// use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
///
/// // A user-defined protocol the catalogue has never heard of: it walks
/// // right forever (it cannot explore alone, but it can tag along).
/// #[derive(Debug, Clone)]
/// struct RightWalker;
///
/// impl Protocol for RightWalker {
///     fn name(&self) -> &'static str { "right-walker" }
///     fn termination_kind(&self) -> TerminationKind { TerminationKind::Unconscious }
///     fn decide(&mut self, _snapshot: &Snapshot) -> Decision {
///         Decision::Move(LocalDirection::Right)
///     }
///     fn has_terminated(&self) -> bool { false }
///     fn clone_box(&self) -> Box<dyn Protocol> { Box::new(self.clone()) }
/// }
///
/// // Two catalogue agents on the enum fast path (zero virtual calls in
/// // their Compute dispatch) plus the custom protocol through the boxed
/// // escape hatch, all in one simulation.
/// let alg = Algorithm::KnownBound { upper_bound: 8 };
/// let ring = RingTopology::new(8)?;
/// let mut sim = Simulation::builder(ring)
///     .agent_program(NodeId::new(0), Handedness::LeftIsCcw, alg.instantiate_enum())
///     .agent_program(NodeId::new(4), Handedness::LeftIsCcw, alg.instantiate_enum())
///     .agent(NodeId::new(2), Handedness::LeftIsCcw, Box::new(RightWalker))
///     .activation(Box::new(FullActivation))
///     .edges(Box::new(RandomEdge::new(0.5, 7)))
///     .build()?;
/// let report = sim.run(200, StopCondition::Explored);
/// assert!(report.explored());
///
/// // The enum is itself a `Protocol`, so it can cross the boxed boundary
/// // too when type erasure is genuinely needed.
/// let boxed: Box<dyn Protocol> = Box::new(alg.instantiate_enum());
/// assert_eq!(boxed.name(), CatalogProtocol::KnownBound(
///     dynring_core::fsync::KnownBound::new(8)).name());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub enum CatalogProtocol {
    /// Figure 1 — `KnownNNoChirality` (Theorems 3–4).
    KnownBound(KnownBound),
    /// Figure 3 — `UnconsciousExploration` (Theorem 5).
    Unconscious(Unconscious),
    /// Figure 4 — `LandmarkWithChirality` (Theorem 6).
    LandmarkChirality(LandmarkChirality),
    /// Figures 8 and 13 — the landmark algorithms without chirality
    /// (Theorems 7–8), covering both `Algorithm::LandmarkNoChirality` and
    /// `Algorithm::StartFromLandmarkNoChirality`. Boxed: inline it would be
    /// the enum's widest variant by far, and its identifier and sequence
    /// live on the heap already.
    LandmarkNoChirality(Box<LandmarkNoChirality>),
    /// Figure 14 — `PTBoundWithChirality` (Theorems 12–13).
    PtBoundChirality(PtBoundChirality),
    /// Figure 17 — `PTLandmarkWithChirality` (Theorems 14–15).
    PtLandmarkChirality(PtLandmarkChirality),
    /// Figure 18 — the no-chirality SSYNC family (Theorems 16–17 and 20),
    /// covering the `PtBoundNoChirality`, `PtLandmarkNoChirality` and
    /// `EtBoundNoChirality` algorithm entries.
    PtNoChirality(PtNoChirality),
    /// Theorem 18 — `ETUnconscious`.
    EtUnconscious(EtUnconscious),
    /// Observation 1 — the single-agent strawman (cannot succeed).
    LoneWalker(LoneWalker),
}

/// Statically dispatches `$body` over every [`CatalogProtocol`] variant,
/// binding the wrapped concrete protocol to `$inner`.
macro_rules! dispatch {
    ($value:expr, $inner:ident => $body:expr) => {
        match $value {
            CatalogProtocol::KnownBound($inner) => $body,
            CatalogProtocol::Unconscious($inner) => $body,
            CatalogProtocol::LandmarkChirality($inner) => $body,
            CatalogProtocol::LandmarkNoChirality($inner) => $body,
            CatalogProtocol::PtBoundChirality($inner) => $body,
            CatalogProtocol::PtLandmarkChirality($inner) => $body,
            CatalogProtocol::PtNoChirality($inner) => $body,
            CatalogProtocol::EtUnconscious($inner) => $body,
            CatalogProtocol::LoneWalker($inner) => $body,
        }
    };
}

impl Clone for CatalogProtocol {
    fn clone(&self) -> Self {
        match self {
            CatalogProtocol::KnownBound(p) => CatalogProtocol::KnownBound(p.clone()),
            CatalogProtocol::Unconscious(p) => CatalogProtocol::Unconscious(p.clone()),
            CatalogProtocol::LandmarkChirality(p) => CatalogProtocol::LandmarkChirality(p.clone()),
            CatalogProtocol::LandmarkNoChirality(p) => {
                CatalogProtocol::LandmarkNoChirality(p.clone())
            }
            CatalogProtocol::PtBoundChirality(p) => CatalogProtocol::PtBoundChirality(p.clone()),
            CatalogProtocol::PtLandmarkChirality(p) => {
                CatalogProtocol::PtLandmarkChirality(p.clone())
            }
            CatalogProtocol::PtNoChirality(p) => CatalogProtocol::PtNoChirality(p.clone()),
            CatalogProtocol::EtUnconscious(p) => CatalogProtocol::EtUnconscious(p.clone()),
            CatalogProtocol::LoneWalker(p) => CatalogProtocol::LoneWalker(p.clone()),
        }
    }

    /// Variant-matching state copy: when both sides hold the same variant the
    /// copy delegates to the concrete protocol's `clone_from` (which reuses
    /// existing heap capacity where the type provides one), so refreshing an
    /// engine probe from a live catalogue protocol is allocation-free in the
    /// steady state — and needs no `as_any` downcast.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (CatalogProtocol::KnownBound(dst), CatalogProtocol::KnownBound(src)) => {
                dst.clone_from(src);
            }
            (CatalogProtocol::Unconscious(dst), CatalogProtocol::Unconscious(src)) => {
                dst.clone_from(src);
            }
            (CatalogProtocol::LandmarkChirality(dst), CatalogProtocol::LandmarkChirality(src)) => {
                dst.clone_from(src);
            }
            (
                CatalogProtocol::LandmarkNoChirality(dst),
                CatalogProtocol::LandmarkNoChirality(src),
            ) => dst.clone_from(src),
            (CatalogProtocol::PtBoundChirality(dst), CatalogProtocol::PtBoundChirality(src)) => {
                dst.clone_from(src);
            }
            (
                CatalogProtocol::PtLandmarkChirality(dst),
                CatalogProtocol::PtLandmarkChirality(src),
            ) => dst.clone_from(src),
            (CatalogProtocol::PtNoChirality(dst), CatalogProtocol::PtNoChirality(src)) => {
                dst.clone_from(src);
            }
            (CatalogProtocol::EtUnconscious(dst), CatalogProtocol::EtUnconscious(src)) => {
                dst.clone_from(src);
            }
            (CatalogProtocol::LoneWalker(dst), CatalogProtocol::LoneWalker(src)) => {
                dst.clone_from(src);
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// The enum is itself a [`Protocol`], so a `CatalogProtocol` can cross any
/// `Box<dyn Protocol>` boundary; every method forwards to the wrapped state
/// machine through the static `match`, and the trace-facing strings (`name`,
/// `state_label`) are bit-identical to the wrapped protocol's own.
impl Protocol for CatalogProtocol {
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    fn termination_kind(&self) -> TerminationKind {
        dispatch!(self, p => p.termination_kind())
    }

    #[inline]
    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        dispatch!(self, p => p.decide(snapshot))
    }

    fn has_terminated(&self) -> bool {
        dispatch!(self, p => p.has_terminated())
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn clone_from_box(&mut self, src: &dyn Protocol) -> bool {
        dynring_model::clone_state_from(self, src)
    }

    fn state_label(&self) -> String {
        dispatch!(self, p => p.state_label())
    }

    fn write_state_key(&self, out: &mut Vec<u8>) -> bool {
        // A leading variant tag keeps encodings of different catalogue
        // algorithms disjoint even when their field encodings would collide.
        out.push(match self {
            CatalogProtocol::KnownBound(_) => 0,
            CatalogProtocol::Unconscious(_) => 1,
            CatalogProtocol::LandmarkChirality(_) => 2,
            CatalogProtocol::LandmarkNoChirality(_) => 3,
            CatalogProtocol::PtBoundChirality(_) => 4,
            CatalogProtocol::PtLandmarkChirality(_) => 5,
            CatalogProtocol::PtNoChirality(_) => 6,
            CatalogProtocol::EtUnconscious(_) => 7,
            CatalogProtocol::LoneWalker(_) => 8,
        });
        dispatch!(self, p => p.write_state_key(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_instantiates_every_algorithm() {
        for alg in Algorithm::full_catalog(8) {
            let agent = alg.instantiate();
            assert!(!agent.name().is_empty());
            assert!(!agent.has_terminated());
        }
    }

    #[test]
    fn agent_counts_match_the_paper() {
        assert_eq!(Algorithm::LoneWalker { patience: 0 }.required_agents(), 1);
        assert_eq!(Algorithm::KnownBound { upper_bound: 8 }.required_agents(), 2);
        assert_eq!(Algorithm::PtBoundNoChirality { upper_bound: 8 }.required_agents(), 3);
        assert_eq!(Algorithm::EtBoundNoChirality { ring_size: 8 }.required_agents(), 3);
    }

    #[test]
    fn landmark_and_chirality_requirements() {
        assert!(Algorithm::LandmarkChirality.needs_landmark());
        assert!(Algorithm::LandmarkChirality.needs_chirality());
        assert!(Algorithm::LandmarkNoChirality.needs_landmark());
        assert!(!Algorithm::LandmarkNoChirality.needs_chirality());
        assert!(!Algorithm::KnownBound { upper_bound: 5 }.needs_landmark());
        assert!(Algorithm::PtLandmarkChirality.needs_chirality());
        assert!(!Algorithm::PtBoundNoChirality { upper_bound: 5 }.needs_chirality());
    }

    #[test]
    fn synchrony_families() {
        assert_eq!(Algorithm::Unconscious.family(), AlgorithmFamily::Fsync);
        assert_eq!(
            Algorithm::PtLandmarkChirality.synchrony(),
            SynchronyModel::Ssync(TransportModel::PassiveTransport)
        );
        assert_eq!(
            Algorithm::EtUnconscious.synchrony(),
            SynchronyModel::Ssync(TransportModel::EventualTransport)
        );
        assert_eq!(Algorithm::KnownBound { upper_bound: 4 }.synchrony(), SynchronyModel::Fsync);
    }

    #[test]
    fn termination_kinds() {
        assert_eq!(
            Algorithm::KnownBound { upper_bound: 4 }.termination_kind(),
            TerminationKind::Explicit
        );
        assert_eq!(Algorithm::Unconscious.termination_kind(), TerminationKind::Unconscious);
        assert_eq!(
            Algorithm::PtBoundChirality { upper_bound: 4 }.termination_kind(),
            TerminationKind::Partial
        );
    }

    #[test]
    fn display_uses_protocol_names() {
        assert_eq!(Algorithm::LandmarkChirality.to_string(), "LandmarkWithChirality");
        assert_eq!(
            Algorithm::StartFromLandmarkNoChirality.to_string(),
            "StartFromLandmarkNoChirality"
        );
    }

    #[test]
    fn enum_and_boxed_instantiations_agree_on_every_algorithm() {
        for alg in Algorithm::full_catalog(8) {
            let enumed = alg.instantiate_enum();
            let boxed = alg.instantiate();
            assert_eq!(enumed.name(), boxed.name(), "{alg:?}");
            assert_eq!(enumed.termination_kind(), boxed.termination_kind(), "{alg:?}");
            assert_eq!(enumed.has_terminated(), boxed.has_terminated(), "{alg:?}");
            assert_eq!(enumed.state_label(), boxed.state_label(), "{alg:?}");
        }
    }

    #[test]
    fn enum_clone_from_copies_across_matching_variants() {
        let mut probe = Algorithm::KnownBound { upper_bound: 4 }.instantiate_enum();
        let live = Algorithm::KnownBound { upper_bound: 9 }.instantiate_enum();
        probe.clone_from(&live);
        assert_eq!(probe.state_label(), live.state_label());
        // A variant mismatch falls back to a full clone of the source.
        let other = Algorithm::Unconscious.instantiate_enum();
        probe.clone_from(&other);
        assert_eq!(probe.name(), "UnconsciousExploration");
    }

    #[test]
    fn enum_supports_the_boxed_state_copy_api() {
        let live: Box<dyn Protocol> =
            Box::new(Algorithm::LandmarkNoChirality.instantiate_enum());
        let mut probe = live.clone_box();
        assert!(probe.clone_from_box(live.as_ref()));
        assert_eq!(probe.state_label(), live.state_label());
        // Copying from a non-enum protocol is refused (type mismatch).
        let concrete = Algorithm::LandmarkNoChirality.instantiate();
        assert!(!probe.clone_from_box(concrete.as_ref()));
    }

    #[test]
    fn catalog_protocol_fits_a_narrow_program_column() {
        // A checkpoint slot holds one `CatalogProtocol` per agent in its
        // program column, so the enum's width is that column's stride:
        // every restore, checkpoint and slot copy moves it once per agent.
        assert!(
            std::mem::size_of::<CatalogProtocol>() <= 176,
            "CatalogProtocol is {} bytes wide",
            std::mem::size_of::<CatalogProtocol>()
        );
    }

    #[test]
    fn assumptions_are_consistent() {
        let a = Algorithm::PtBoundNoChirality { upper_bound: 10 }.assumptions();
        assert_eq!(a.agents, 3);
        assert!(a.knows_upper_bound);
        assert!(!a.knows_exact_size);
        assert!(!a.chirality);
        let b = Algorithm::EtBoundNoChirality { ring_size: 10 }.assumptions();
        assert!(b.knows_exact_size);
    }
}
