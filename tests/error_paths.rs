//! The error-path battery: `RunSpec::new` is where every run is validated,
//! so every `EngineError` variant is provoked through it here, with its
//! `Display` message pinned. The `Scenario` builder compiles to a `RunSpec`
//! and fails loudly on the same inputs, carrying the same message.
//!
//! The happy paths are covered everywhere else in the suite; this file
//! keeps the *failure* surface honest — a misconfigured scenario must fail
//! loudly, early, and with a message that names the offending part, because
//! the service layer journals these messages verbatim into failure reports.

use dynring::engine::error::EngineError;
use dynring::prelude::*;
use dynring_graph::AgentId;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn walker(n: usize) -> CatalogProtocol {
    Algorithm::KnownBound { upper_bound: n }.instantiate()
}

fn spec_agent(n: usize, start: usize) -> AgentSpec {
    AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, walker(n))
}

/// The panic message of building `scenario`, which must fail.
fn build_failure(scenario: &Scenario) -> String {
    let payload = catch_unwind(AssertUnwindSafe(|| scenario.build()))
        .expect_err("a malformed scenario must not build");
    payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
}

#[test]
fn builder_with_no_agents_fails() {
    let algorithm = Algorithm::KnownBound { upper_bound: 8 };
    for scenario in [Scenario::fsync(8, algorithm), Scenario::ssync(8, algorithm, 1)] {
        let message = build_failure(&scenario.with_starts(vec![]));
        assert_eq!(
            message,
            "scenario must describe a valid simulation: a scenario needs at least one agent"
        );
    }
}

#[test]
fn builder_start_out_of_range_names_agent_node_and_ring() {
    // The second agent (index 1) is the offender; the message carries all
    // three coordinates.
    let scenario =
        Scenario::fsync(6, Algorithm::KnownBound { upper_bound: 6 }).with_starts(vec![0, 6]);
    assert_eq!(
        build_failure(&scenario),
        "scenario must describe a valid simulation: agent a1 starts at v6, outside a ring of size 6"
    );
}

#[test]
fn run_spec_start_out_of_range_matches_the_builder() {
    // The same team through `RunSpec::new` and through the `Scenario`
    // builder fails with the same error, word for word.
    for starts in [vec![9], vec![0, 4, 5], vec![2, 7, 1]] {
        let agents = starts.iter().map(|&start| spec_agent(5, start)).collect();
        let spec_err =
            RunSpec::new(RingTopology::new(5).unwrap(), SynchronyModel::Fsync, agents, false)
                .unwrap_err();
        assert!(matches!(spec_err, EngineError::StartOutOfRange { ring_size: 5, .. }));
        let scenario =
            Scenario::fsync(5, Algorithm::KnownBound { upper_bound: 5 }).with_starts(starts);
        assert_eq!(
            build_failure(&scenario),
            format!("scenario must describe a valid simulation: {spec_err}")
        );
    }
}

#[test]
fn run_spec_with_no_agents_fails() {
    let pt = SynchronyModel::Ssync(TransportModel::PassiveTransport);
    for synchrony in [SynchronyModel::Fsync, pt] {
        let ring = RingTopology::new(8).unwrap();
        let err = RunSpec::new(ring, synchrony, vec![], false).unwrap_err();
        assert_eq!(err, EngineError::NoAgents);
        assert_eq!(err.to_string(), "a scenario needs at least one agent");
    }
}

#[test]
fn run_spec_start_out_of_range_names_agent_node_and_ring() {
    // The offender alone, and after valid agents: the first start outside
    // the ring is named by its index, and the message carries all three
    // coordinates.
    for (starts, agent, node) in [
        (vec![9], 0, 9),
        (vec![0, 6], 1, 6),
        (vec![0, 5, 3, 7, 6], 3, 7),
    ] {
        let agents = starts.iter().map(|&start| spec_agent(6, start)).collect();
        let err =
            RunSpec::new(RingTopology::new(6).unwrap(), SynchronyModel::Fsync, agents, false)
                .unwrap_err();
        assert_eq!(
            err,
            EngineError::StartOutOfRange {
                agent: AgentId::new(agent),
                node: NodeId::new(node),
                ring_size: 6,
            }
        );
        assert_eq!(
            err.to_string(),
            format!("agent a{agent} starts at v{node}, outside a ring of size 6")
        );
    }
    // Every node of the ring is a valid start, shared or not.
    let agents = (0..6).chain([0, 5]).map(|start| spec_agent(6, start)).collect();
    let ring = RingTopology::new(6).unwrap();
    assert!(RunSpec::new(ring, SynchronyModel::Fsync, agents, true).is_ok());
}

#[test]
fn every_variant_has_a_distinct_and_nonempty_display() {
    let errors = [
        EngineError::NoAgents,
        EngineError::StartOutOfRange { agent: AgentId::new(0), node: NodeId::new(9), ring_size: 5 },
    ];
    let messages: std::collections::BTreeSet<String> =
        errors.iter().map(ToString::to_string).collect();
    assert_eq!(messages.len(), errors.len(), "{messages:?}");
    assert!(messages.iter().all(|m| !m.is_empty()));
}
