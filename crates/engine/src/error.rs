//! Error type of the engine layer.

use dynring_graph::{AgentId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors raised while describing a run: exactly what
/// [`RunSpec::new`](crate::sim::RunSpec::new) rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
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
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoAgents => write!(f, "a scenario needs at least one agent"),
            EngineError::StartOutOfRange { agent, node, ring_size } => {
                write!(f, "agent {agent} starts at {node}, outside a ring of size {ring_size}")
            }
        }
    }
}

impl Error for EngineError {}

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
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
