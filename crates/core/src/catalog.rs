//! A registry of every algorithm in the paper, and the program type the
//! engine runs for every agent.
//!
//! The analysis and benchmark crates enumerate this catalogue to build the
//! feasibility map (Tables 1–4); examples use it to construct agents by name.
//!
//! # One program representation
//!
//! The catalogue of *Live Exploration of Dynamic Rings* is **closed and
//! small**: nine concrete protocol state machines cover all twelve
//! feasibility-map rows. [`Algorithm::instantiate`] returns a
//! [`CatalogProtocol`], a nine-variant enum wrapping the concrete protocol
//! types, and that enum is the engine's only program type. Dispatching
//! `decide` through it is a **static `match`** the compiler can inline, so
//! a Look–Compute cycle pays **zero virtual calls**, and the engine copies
//! program state (prediction probes, checkpoint slots, trace labels) with a
//! plain variant-matching [`Clone::clone_from`].
//!
//! A new protocol joins as one more [`CatalogProtocol`] variant plus its
//! [`Algorithm`] entry; see `docs/ARCHITECTURE.md` ("One program
//! representation").

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
/// use dynring_model::Protocol;
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
    /// Instantiates a fresh agent running this algorithm as a
    /// [`CatalogProtocol`].
    ///
    /// The twelve algorithm entries map onto the nine concrete protocol
    /// types: `StartFromLandmarkNoChirality` is a parameterisation of
    /// [`LandmarkNoChirality`], and the three `Pt…NoChirality` /
    /// `EtBoundNoChirality` entries are parameterisations of
    /// [`PtNoChirality`].
    #[must_use]
    pub fn instantiate(&self) -> CatalogProtocol {
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
        self.instantiate().termination_kind()
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
        write!(f, "{}", self.instantiate().name())
    }
}

/// Every concrete protocol state machine of the paper behind one **statically
/// dispatched** enum: the program every engine agent runs.
///
/// Each `decide` call resolves by a `match` on the discriminant and a direct
/// (inlinable) call into the wrapped state machine, so a team runs its whole
/// Look–Compute cycle without a single virtual call. The enum also carries a
/// variant-matching [`Clone::clone_from`], which is how the engine refreshes
/// prediction probes, checkpoint slots and trace labels in place.
///
/// The nine variants cover the paper's algorithm catalogue as mapped out in
/// [`Algorithm::instantiate`]:
///
/// ```
/// use dynring_core::{Algorithm, CatalogProtocol};
/// use dynring_engine::adversary::RandomEdge;
/// use dynring_engine::scheduler::FullActivation;
/// use dynring_engine::sim::{AgentSpec, RunSpec, StopCondition};
/// use dynring_graph::{Handedness, NodeId, RingTopology};
/// use dynring_model::{Protocol, SynchronyModel};
///
/// let alg = Algorithm::KnownBound { upper_bound: 8 };
/// let agents = [0, 4]
///     .map(|start| AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, alg.instantiate()));
/// let spec = RunSpec::new(RingTopology::new(8)?, SynchronyModel::Fsync, agents.into(), false)?;
/// let mut sim = spec.instantiate(Box::new(FullActivation), Box::new(RandomEdge::new(0.5, 7)));
/// let report = sim.run(200, StopCondition::Explored);
/// assert!(report.explored());
///
/// // The enum forwards every `Protocol` method to the wrapped state machine.
/// let program = alg.instantiate();
/// assert_eq!(program.name(), CatalogProtocol::KnownBound(
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
    /// engine probe from a live program is allocation-free in the steady
    /// state. A variant mismatch replaces `self` with a clone of `source`.
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

/// Every method forwards to the wrapped state machine through the static
/// `match`, and the trace-facing strings (`name`, `state_label`) are
/// bit-identical to the wrapped protocol's own.
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

    fn state_label(&self) -> String {
        dispatch!(self, p => p.state_label())
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
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
    fn enum_clone_from_copies_across_matching_variants() {
        let mut probe = Algorithm::KnownBound { upper_bound: 4 }.instantiate();
        let live = Algorithm::KnownBound { upper_bound: 9 }.instantiate();
        probe.clone_from(&live);
        assert_eq!(probe.state_label(), live.state_label());
        // A variant mismatch falls back to a full clone of the source.
        let other = Algorithm::Unconscious.instantiate();
        probe.clone_from(&other);
        assert_eq!(probe.name(), "UnconsciousExploration");
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
