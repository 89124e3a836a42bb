//! Exploration protocols for 1-interval-connected dynamic rings.
//!
//! This crate is the paper's primary contribution turned into code: every
//! constructive algorithm of *Live Exploration of Dynamic Rings*
//! (Di Luna, Dobrev, Flocchini, Santoro — ICDCS 2016 / arXiv:1512.05306v4)
//! implemented as a deterministic [`Protocol`](dynring_model::Protocol) state
//! machine, exactly following the pseudo-code of Figures 1, 3, 4, 8, 13, 14,
//! 17 and 18.
//!
//! # Layout
//!
//! * [`counters`] — the bookkeeping variables shared by all algorithms
//!   (`Ttime`, `Tsteps`, `Etime`, `Esteps`, `Btime`, `Ntime`, `Tnodes`,
//!   landmark distance and learned ring size);
//! * [`fsync`] — fully synchronous algorithms: [`fsync::KnownBound`]
//!   (Fig. 1), [`fsync::Unconscious`] (Fig. 3),
//!   [`fsync::LandmarkChirality`] (Fig. 4),
//!   [`fsync::LandmarkNoChirality`] (Figs. 8 and 13) together with the ID
//!   construction ([`fsync::AgentIdentifier`]) and the ID-driven direction
//!   sequences ([`fsync::DirectionSequence`]);
//! * [`ssync`] — semi-synchronous algorithms for the PT and ET transport
//!   models: [`ssync::PtBoundChirality`] (Fig. 14),
//!   [`ssync::PtLandmarkChirality`] (Fig. 17),
//!   [`ssync::PtNoChirality`] (Fig. 18, with its landmark and ET variants)
//!   and [`ssync::EtUnconscious`] (Theorem 18);
//! * [`single`] — the lone wanderer used to demonstrate Observation 1 /
//!   Corollary 1;
//! * [`catalog`] — a registry of all algorithms, used by the analysis and
//!   benchmark crates to enumerate the feasibility map, and
//!   [`CatalogProtocol`], the one program type the engine runs for every
//!   agent.
//!
//! # Quick example
//!
//! ```
//! use dynring_core::fsync::KnownBound;
//! use dynring_model::Protocol;
//!
//! // Two anonymous agents knowing the upper bound N = 8 explore any
//! // 1-interval-connected ring of size ≤ 8 and terminate by round 3N − 6.
//! let agent = KnownBound::new(8);
//! assert_eq!(agent.name(), "KnownNNoChirality");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod counters;
pub mod fsync;
pub mod single;
pub mod ssync;

pub use catalog::{Algorithm, AlgorithmFamily, CatalogProtocol};
pub use counters::Counters;
