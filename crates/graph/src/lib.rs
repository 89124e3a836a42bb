//! Dynamic-ring substrate.
//!
//! This crate provides the *static footprint* and *dynamics* layers that the
//! exploration protocols of Di Luna, Dobrev, Flocchini and Santoro
//! (*Live Exploration of Dynamic Rings*, ICDCS 2016) operate on:
//!
//! * [`RingTopology`] — the anonymous ring `R = (v_0, …, v_{n-1})`, its nodes,
//!   edges, ports and the optional landmark node;
//! * [`GlobalDirection`] / [`orientation::Handedness`] — the global
//!   (clockwise / counter-clockwise) frame and the per-agent private frame,
//!   including the chirality relation between them;
//! * [`dynamics`] — edge-presence schedules: fixed schedules, generators, and
//!   validation of the 1-interval-connectivity constraint (at most one edge
//!   missing per round).
//!
//! The crate is purely combinatorial: it knows nothing about agents,
//! schedulers or protocols.
//!
//! # Example
//!
//! ```
//! use dynring_graph::{RingTopology, NodeId, GlobalDirection};
//!
//! let ring = RingTopology::new(8).expect("rings need at least 3 nodes");
//! let v0 = NodeId::new(0);
//! assert_eq!(ring.neighbor(v0, GlobalDirection::Ccw), NodeId::new(1));
//! assert_eq!(ring.neighbor(v0, GlobalDirection::Cw), NodeId::new(7));
//! assert_eq!(ring.distance(NodeId::new(1), NodeId::new(6)), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod error;
pub mod ids;
pub mod orientation;
pub mod ring;

pub use dynamics::{EdgeSchedule, ScheduleBuilder};
pub use error::GraphError;
pub use ids::{AgentId, EdgeId, NodeId};
pub use orientation::{GlobalDirection, Handedness};
pub use ring::RingTopology;
