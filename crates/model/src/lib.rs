//! Agent-facing model types for live exploration of dynamic rings.
//!
//! This crate defines everything an exploration *protocol* is allowed to see
//! and produce, strictly following the model of Section 2 of
//! *Live Exploration of Dynamic Rings* (Di Luna, Dobrev, Flocchini, Santoro):
//!
//! * [`LocalDirection`] — `left` / `right` in the agent's private frame;
//! * [`Snapshot`] — the result of the **Look** operation: the agent's own
//!   position within the node (in the node or on one of the two ports), the
//!   positions of the other agents co-located at that node, the landmark
//!   flag, and the outcome of the agent's previous attempt (moved, blocked on
//!   a missing edge, failed to acquire the port, passively transported);
//! * [`Decision`] — the result of the **Compute** operation: a direction
//!   (`left`, `right`) or `nil`, possibly together with explicit termination;
//! * [`Protocol`] — the trait every algorithm implements (the engine runs
//!   them through `dynring_core::CatalogProtocol`, the enum over the
//!   paper's algorithms), together with the [`TerminationKind`] it
//!   promises (explicit / partial / unconscious).
//!
//! The crate deliberately contains no engine or algorithm logic, so that the
//! strict information barrier of the model ("agents see only their own node")
//! is enforced by the type system: a [`Protocol`] can only be written against
//! [`Snapshot`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod knowledge;
pub mod protocol;
pub mod snapshot;
pub mod statekey;

pub use decision::Decision;
pub use knowledge::{ScenarioAssumptions, SynchronyModel, TransportModel};
pub use protocol::{Protocol, TerminationKind};
pub use snapshot::{LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Snapshot};
