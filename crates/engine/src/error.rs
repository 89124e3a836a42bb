//! Error type of the engine layer.

use dynring_graph::{AgentId, EdgeId, GraphError, NodeId};
use std::error::Error;
use std::fmt;

/// Errors raised while building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A substrate-level error (invalid ring, node or edge).
    Graph(GraphError),
    /// The scenario declares no agents.
    NoAgents,
    /// An agent was placed on a node that does not exist.
    StartOutOfRange {
        /// The offending agent.
        agent: AgentId,
        /// The requested start node.
        node: NodeId,
        /// The ring size.
        ring_size: usize,
    },
    /// An adversary chose an edge that does not exist.
    AdversaryEdgeOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// The ring size.
        ring_size: usize,
    },
    /// The scenario was built without an activation policy or edge policy.
    MissingPolicy {
        /// Which policy is missing (`"activation"` or `"edges"`).
        which: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Graph(e) => write!(f, "substrate error: {e}"),
            EngineError::NoAgents => write!(f, "a scenario needs at least one agent"),
            EngineError::StartOutOfRange { agent, node, ring_size } => {
                write!(f, "agent {agent} starts at {node}, outside a ring of size {ring_size}")
            }
            EngineError::AdversaryEdgeOutOfRange { edge, ring_size } => {
                write!(f, "adversary removed {edge}, outside a ring of size {ring_size}")
            }
            EngineError::MissingPolicy { which } => {
                write!(f, "the {which} policy was not configured")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let errors: Vec<EngineError> = vec![
            EngineError::NoAgents,
            EngineError::StartOutOfRange {
                agent: AgentId::new(1),
                node: NodeId::new(9),
                ring_size: 5,
            },
            EngineError::AdversaryEdgeOutOfRange { edge: EdgeId::new(7), ring_size: 5 },
            EngineError::MissingPolicy { which: "edges" },
            EngineError::from(GraphError::RingTooSmall { requested: 2 }),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn graph_errors_are_wrapped_with_source() {
        let e = EngineError::from(GraphError::RingTooSmall { requested: 1 });
        assert!(e.source().is_some());
    }
}
