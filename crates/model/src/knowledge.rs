//! Synchrony levels, transport models and the scenario assumptions that
//! label the feasibility map.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The transport models of the semi-synchronous setting (Section 2.1).
///
/// They differ in what may happen to an agent *sleeping on a port* (an agent
/// that gained access to a port, found the edge missing, and was not
/// activated in a later round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransportModel {
    /// **NS** — No Simultaneity: a sleeping agent never moves; there is no
    /// guarantee it is ever awake while its edge is present.
    NoSimultaneity,
    /// **PT** — Passive Transport: if the edge reappears while the agent is
    /// sleeping on the port, the agent is carried to the other endpoint.
    PassiveTransport,
    /// **ET** — Eventual Transport: a sleeping agent never moves passively,
    /// but if its edge is present infinitely often it is eventually activated
    /// in a round in which the edge is present.
    EventualTransport,
}

impl fmt::Display for TransportModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportModel::NoSimultaneity => write!(f, "NS"),
            TransportModel::PassiveTransport => write!(f, "PT"),
            TransportModel::EventualTransport => write!(f, "ET"),
        }
    }
}

/// The synchrony level of the activation schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SynchronyModel {
    /// Fully synchronous: every agent is active in every round.
    Fsync,
    /// Semi-synchronous: an adversary activates a non-empty subset of agents
    /// each round (every agent infinitely often), with the given behaviour
    /// for agents sleeping on ports.
    Ssync(TransportModel),
}

impl SynchronyModel {
    /// The transport model, if the system is semi-synchronous.
    #[must_use]
    pub const fn transport(self) -> Option<TransportModel> {
        match self {
            SynchronyModel::Fsync => None,
            SynchronyModel::Ssync(t) => Some(t),
        }
    }

    /// Whether the system is fully synchronous.
    #[must_use]
    pub const fn is_fsync(self) -> bool {
        matches!(self, SynchronyModel::Fsync)
    }
}

impl fmt::Display for SynchronyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynchronyModel::Fsync => write!(f, "FSYNC"),
            SynchronyModel::Ssync(t) => write!(f, "SSYNC/{t}"),
        }
    }
}

/// A compact description of a scenario's assumptions, used by the analysis
/// crate to label the rows of the feasibility map (Tables 1–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioAssumptions {
    /// Synchrony level and transport model.
    pub synchrony: SynchronyModel,
    /// Number of agents deployed.
    pub agents: usize,
    /// Whether the agents share chirality.
    pub chirality: bool,
    /// Whether the ring has a landmark node.
    pub landmark: bool,
    /// Whether the exact ring size is known.
    pub knows_exact_size: bool,
    /// Whether an upper bound on the ring size is known.
    pub knows_upper_bound: bool,
    /// Whether the agents are anonymous (no distinct IDs).
    pub anonymous_agents: bool,
}

impl fmt::Display for ScenarioAssumptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<&str> = Vec::new();
        if self.chirality {
            parts.push("chirality");
        }
        if self.landmark {
            parts.push("landmark");
        }
        if self.knows_exact_size {
            parts.push("known n");
        } else if self.knows_upper_bound {
            parts.push("known bound N");
        }
        if !self.anonymous_agents {
            parts.push("distinct IDs");
        }
        write!(f, "{} {} agents", self.synchrony, self.agents)?;
        if !parts.is_empty() {
            write!(f, " [{}]", parts.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_and_synchrony_display() {
        assert_eq!(TransportModel::NoSimultaneity.to_string(), "NS");
        assert_eq!(TransportModel::PassiveTransport.to_string(), "PT");
        assert_eq!(TransportModel::EventualTransport.to_string(), "ET");
        assert_eq!(SynchronyModel::Fsync.to_string(), "FSYNC");
        assert_eq!(
            SynchronyModel::Ssync(TransportModel::PassiveTransport).to_string(),
            "SSYNC/PT"
        );
    }

    #[test]
    fn synchrony_helpers() {
        assert!(SynchronyModel::Fsync.is_fsync());
        assert_eq!(SynchronyModel::Fsync.transport(), None);
        let s = SynchronyModel::Ssync(TransportModel::EventualTransport);
        assert!(!s.is_fsync());
        assert_eq!(s.transport(), Some(TransportModel::EventualTransport));
    }

    #[test]
    fn assumptions_display_mentions_key_facts() {
        let a = ScenarioAssumptions {
            synchrony: SynchronyModel::Ssync(TransportModel::PassiveTransport),
            agents: 3,
            chirality: false,
            landmark: true,
            knows_exact_size: false,
            knows_upper_bound: true,
            anonymous_agents: true,
        };
        let s = a.to_string();
        assert!(s.contains("SSYNC/PT"));
        assert!(s.contains("3 agents"));
        assert!(s.contains("landmark"));
        assert!(s.contains("known bound N"));
        assert!(!s.contains("distinct IDs"));
    }
}
