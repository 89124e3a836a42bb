//! The error-path matrix: every `EngineError` variant, provoked through
//! every public construction path that can raise it, with its `Display`
//! message and `source()` chain pinned.
//!
//! The happy paths are covered everywhere else in the suite; this file
//! keeps the *failure* surface honest — a misconfigured scenario must fail
//! loudly, early, and with a message that names the offending part, because
//! the service layer journals these messages verbatim into failure reports.

use dynring::engine::error::EngineError;
use dynring::engine::sim::{AgentSpec, RunSpec};
use dynring::prelude::*;
use dynring_graph::GraphError;

fn walker(n: usize) -> CatalogProtocol {
    Algorithm::KnownBound { upper_bound: n }.instantiate()
}

fn spec_agent(n: usize, start: usize) -> AgentSpec {
    AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, walker(n))
}

#[test]
fn builder_with_no_agents_fails() {
    let err = Simulation::builder(RingTopology::new(8).unwrap())
        .activation(Box::new(FullActivation))
        .edges(Box::new(NoRemoval))
        .build()
        .unwrap_err();
    assert_eq!(err, EngineError::NoAgents);
    assert_eq!(err.to_string(), "a scenario needs at least one agent");
}

#[test]
fn run_spec_with_no_agents_fails() {
    let err = RunSpec::new(
        RingTopology::new(8).unwrap(),
        SynchronyModel::Fsync,
        vec![],
        false,
    )
    .unwrap_err();
    assert_eq!(err, EngineError::NoAgents);
}

#[test]
fn builder_start_out_of_range_names_agent_node_and_ring() {
    let err = Simulation::builder(RingTopology::new(6).unwrap())
        .agent(NodeId::new(0), Handedness::LeftIsCcw, walker(6))
        .agent(NodeId::new(6), Handedness::LeftIsCcw, walker(6))
        .activation(Box::new(FullActivation))
        .edges(Box::new(NoRemoval))
        .build()
        .unwrap_err();
    match err {
        EngineError::StartOutOfRange { agent, node, ring_size } => {
            // The *second* agent (index 1) is the offender, and the message
            // carries all three coordinates.
            assert_eq!(agent.index(), 1);
            assert_eq!(node.index(), 6);
            assert_eq!(ring_size, 6);
        }
        other => panic!("expected StartOutOfRange, got {other:?}"),
    }
    assert!(err.to_string().contains("outside a ring of size 6"), "{err}");
}

#[test]
fn run_spec_start_out_of_range_matches_the_builder() {
    let builder_err = Simulation::builder(RingTopology::new(5).unwrap())
        .agent(NodeId::new(9), Handedness::LeftIsCcw, walker(5))
        .activation(Box::new(FullActivation))
        .edges(Box::new(NoRemoval))
        .build()
        .unwrap_err();
    let spec_err = RunSpec::new(
        RingTopology::new(5).unwrap(),
        SynchronyModel::Fsync,
        vec![spec_agent(5, 9)],
        false,
    )
    .unwrap_err();
    // Both construction paths validate identically (the recycled and fresh
    // lifecycles share one contract, errors included).
    assert_eq!(builder_err, spec_err);
    assert!(matches!(
        spec_err,
        EngineError::StartOutOfRange { node, ring_size: 5, .. } if node.index() == 9
    ));
}

#[test]
fn missing_policies_are_reported_by_name() {
    let ring = RingTopology::new(6).unwrap();
    let err = Simulation::builder(ring.clone())
        .agent(NodeId::new(0), Handedness::LeftIsCcw, walker(6))
        .edges(Box::new(NoRemoval))
        .build()
        .unwrap_err();
    assert_eq!(err, EngineError::MissingPolicy { which: "activation" });
    assert!(err.to_string().contains("activation"), "{err}");

    let err = Simulation::builder(ring)
        .agent(NodeId::new(0), Handedness::LeftIsCcw, walker(6))
        .activation(Box::new(FullActivation))
        .build()
        .unwrap_err();
    assert_eq!(err, EngineError::MissingPolicy { which: "edges" });
    assert!(err.to_string().contains("edges"), "{err}");
}

#[test]
fn adversary_edge_out_of_range_is_rejected_but_valid_choices_pass() {
    let sim = Simulation::builder(RingTopology::new(6).unwrap())
        .agent(NodeId::new(0), Handedness::LeftIsCcw, walker(6))
        .activation(Box::new(FullActivation))
        .edges(Box::new(NoRemoval))
        .build()
        .unwrap();
    let err = sim.validate_edge_choice(Some(EdgeId::new(6))).unwrap_err();
    assert_eq!(err, EngineError::AdversaryEdgeOutOfRange { edge: EdgeId::new(6), ring_size: 6 });
    assert!(err.to_string().contains("outside a ring of size 6"), "{err}");
    // Every real edge, and "remove nothing", validate.
    for edge in 0..6 {
        sim.validate_edge_choice(Some(EdgeId::new(edge))).unwrap();
    }
    sim.validate_edge_choice(None).unwrap();
}

#[test]
fn graph_errors_are_wrapped_with_a_source_chain() {
    let graph_err = RingTopology::new(2).unwrap_err();
    let err = EngineError::from(graph_err.clone());
    assert_eq!(err, EngineError::Graph(graph_err));
    // The Display mentions the layer, and source() exposes the substrate
    // error for callers that walk the chain.
    assert!(err.to_string().contains("substrate error"), "{err}");
    let source = std::error::Error::source(&err).expect("wrapped error keeps its source");
    assert!(matches!(
        source.downcast_ref::<GraphError>(),
        Some(GraphError::RingTooSmall { .. })
    ));
}

#[test]
fn every_variant_has_a_distinct_and_nonempty_display() {
    let errors = [
        EngineError::NoAgents,
        EngineError::StartOutOfRange {
            agent: dynring_graph::AgentId::new(0),
            node: NodeId::new(9),
            ring_size: 5,
        },
        EngineError::AdversaryEdgeOutOfRange { edge: EdgeId::new(7), ring_size: 5 },
        EngineError::MissingPolicy { which: "activation" },
        EngineError::MissingPolicy { which: "edges" },
        EngineError::Graph(GraphError::RingTooSmall { requested: 2 }),
    ];
    let messages: std::collections::BTreeSet<String> =
        errors.iter().map(ToString::to_string).collect();
    assert_eq!(messages.len(), errors.len(), "{messages:?}");
    assert!(messages.iter().all(|m| !m.is_empty()));
}
