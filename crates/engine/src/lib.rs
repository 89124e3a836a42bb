//! Round engine for live exploration of dynamic rings.
//!
//! This crate executes the Look–Compute–Move model of Section 2 of
//! *Live Exploration of Dynamic Rings* against pluggable adversaries:
//!
//! * [`world`] — the "god view": where each agent stands, which ports are
//!   held, which nodes have been visited. Every agent runs a statically
//!   dispatched [`CatalogProtocol`](dynring_core::CatalogProtocol) (see
//!   `docs/ARCHITECTURE.md`, "One program representation");
//! * [`scheduler`] — activation policies: the FSYNC scheduler, fair and
//!   adversarial SSYNC schedulers, and the ET-fairness wrapper;
//! * [`adversary`] — edge-removal policies: benign, random, scripted
//!   (fixed [`EdgeSchedule`](dynring_graph::EdgeSchedule)s such as the
//!   worst-case schedule of Figure 2) and the proof adversaries
//!   (Observations 1–2, Theorems 9, 10, 13, 15, 19);
//! * [`sim`] — the round loop itself: one round body for both synchrony
//!   models, with port mutual exclusion, passive transport, metrics and run
//!   recycling ([`Simulation::recycle`](sim::Simulation::recycle)
//!   re-initialises a simulation in place, which is how the analysis layer
//!   runs sweep cells, and is also how a fresh simulation is initialised);
//! * [`checkpoint`] — branchable run state: checkpoint/restore of a live
//!   simulation, plus canonicalised configuration keys and the restore of a
//!   run from its key, the engine half of the analysis-side model checker;
//! * [`trace`] — per-round records of everything that happened, for replay,
//!   rendering and assertions in tests.
//!
//! # Quick example
//!
//! A run is described once, by a validated [`RunSpec`] whose
//! agents carry programs from
//! [`Algorithm::instantiate`](dynring_core::Algorithm::instantiate), and
//! started with the policies it runs against.
//!
//! ```
//! use dynring_core::Algorithm;
//! use dynring_engine::adversary::NoRemoval;
//! use dynring_engine::scheduler::FullActivation;
//! use dynring_engine::sim::{AgentSpec, RunSpec, StopCondition};
//! use dynring_graph::{Handedness, NodeId, RingTopology};
//! use dynring_model::SynchronyModel;
//!
//! let alg = Algorithm::KnownBound { upper_bound: 8 };
//! let agents = [0, 3]
//!     .map(|start| AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, alg.instantiate()));
//! let ring = RingTopology::new(8).unwrap();
//! let spec = RunSpec::new(ring, SynchronyModel::Fsync, agents.into(), false).unwrap();
//! let mut sim = spec.instantiate(Box::new(FullActivation), Box::new(NoRemoval));
//! let report = sim.run(100, StopCondition::AllTerminated);
//! assert!(report.explored());
//! assert!(report.all_terminated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checkpoint;
pub mod error;
pub mod render;
pub mod scheduler;
pub mod sim;
pub mod trace;
pub mod world;

pub use adversary::EdgePolicy;
pub use checkpoint::{KeyScratch, SimCheckpoint, SymmetryMap};
pub use error::EngineError;
pub use scheduler::ActivationPolicy;
pub use sim::{AgentSpec, RunReport, RunSpec, Simulation, StopCondition};
pub use trace::{RoundRecord, Trace};
pub use world::{AgentView, PredictedAction, RoundView};
