//! # dynring — Live Exploration of Dynamic Rings
//!
//! A from-scratch Rust reproduction of *Live Exploration of Dynamic Rings*
//! (G. Di Luna, S. Dobrev, P. Flocchini, N. Santoro — ICDCS 2016,
//! arXiv:1512.05306): a simulator for 1-interval-connected dynamic rings,
//! the Look–Compute–Move mobile-agent model under full and semi-synchrony
//! (with the NS / PT / ET transport models), every exploration algorithm of
//! the paper, the adversaries of the impossibility and lower-bound proofs,
//! and an experiment harness that regenerates the paper's feasibility map
//! (Tables 1–4) and figures.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `dynring-graph` | ring topology, ports, edge schedules |
//! | [`model`] | `dynring-model` | snapshots, decisions, synchrony models, the `Protocol` trait |
//! | [`algorithms`] | `dynring-core` | the paper's algorithms (FSYNC and SSYNC) |
//! | [`engine`] | `dynring-engine` | round engine, schedulers, adversaries, traces |
//! | [`analysis`] | `dynring-analysis` | the table/figure experiments |
//! | [`service`] | `dynring-service` | crash-safe job runtime: journaled, resumable sweeps |
//!
//! # Quickstart
//!
//! ```
//! use dynring::prelude::*;
//!
//! // Two agents that know an upper bound on the ring size explore a dynamic
//! // ring of 10 nodes and terminate within 3N − 6 rounds, whatever the
//! // adversary does (here: a random edge is missing most rounds).
//! let algorithm = Algorithm::KnownBound { upper_bound: 10 };
//! let agents = [0, 5].map(|start| {
//!     AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, algorithm.instantiate())
//! });
//! let spec = RunSpec::new(RingTopology::new(10)?, SynchronyModel::Fsync, agents.into(), false)?;
//! let mut sim = spec.instantiate(Box::new(FullActivation), Box::new(RandomEdge::new(0.8, 42)));
//! let report = sim.run(100, StopCondition::AllTerminated);
//! assert!(report.explored());
//! assert!(report.all_terminated);
//! assert!(report.last_termination().unwrap() <= 3 * 10 - 6 + 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dynring_analysis as analysis;
pub use dynring_core as algorithms;
pub use dynring_engine as engine;
pub use dynring_graph as graph;
pub use dynring_model as model;
pub use dynring_service as service;

pub mod prelude {
    //! The most commonly used items, re-exported for quick scripting.
    pub use dynring_analysis::scenario::{AdversaryKind, Scenario, SchedulerKind};
    pub use dynring_core::fsync::{KnownBound, LandmarkChirality, LandmarkNoChirality, Unconscious};
    pub use dynring_core::ssync::{
        EtUnconscious, PtBoundChirality, PtLandmarkChirality, PtNoChirality,
    };
    pub use dynring_core::{Algorithm, CatalogProtocol, Counters};
    pub use dynring_engine::adversary::{
        AlternatingBlock, BlockAgent, BlockEdgeForever, BlockFirstMover, ConfineWindow,
        FromSchedule, NoRemoval, PreventMeeting, RandomEdge, StickyRandomEdge,
    };
    pub use dynring_engine::scheduler::{
        AlternateBlocked, EtFairness, FirstMoverOnly, FullActivation, RandomSubset,
        RoundRobinSingle,
    };
    pub use dynring_engine::sim::{AgentSpec, RunReport, RunSpec, Simulation, StopCondition};
    pub use dynring_graph::{
        EdgeId, EdgeSchedule, GlobalDirection, Handedness, NodeId, RingTopology, ScheduleBuilder,
    };
    pub use dynring_model::{
        Decision, LocalDirection, Protocol, Snapshot, SynchronyModel, TerminationKind,
        TransportModel,
    };
    pub use dynring_service::{FaultPlan, Job, JobOutcome, JobStatus, Supervisor};
}
