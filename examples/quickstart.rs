//! Quickstart: two agents explore a dynamic ring and terminate.
//!
//! Runs Algorithm `KnownNNoChirality` (Figure 1 of the paper) on a ring of 12
//! nodes while an adversary removes a random edge most rounds, prints a short
//! per-round rendering and the final report.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use dynring::prelude::*;
use dynring_engine::render;

/// The example's core path, callable from the smoke tests: explores a ring of
/// `n` nodes and returns the final report after asserting the Theorem 3
/// guarantees.
pub fn run(n: usize) -> Result<RunReport, Box<dyn std::error::Error>> {
    let ring = RingTopology::new(n)?;

    // A run is described once — ring, synchrony, each agent's start,
    // orientation and program, trace recording — and started against its
    // scheduler and adversary.
    let algorithm = Algorithm::KnownBound { upper_bound: n };
    let agents = vec![
        AgentSpec::new(NodeId::new(0), Handedness::LeftIsCcw, algorithm.instantiate()),
        AgentSpec::new(NodeId::new(5 % n), Handedness::LeftIsCw, algorithm.instantiate()),
    ];
    let spec = RunSpec::new(ring.clone(), SynchronyModel::Fsync, agents, true)?;
    let mut sim = spec.instantiate(
        Box::new(FullActivation),
        Box::new(StickyRandomEdge::new(1, n as u64, 0.3, 42)),
    );

    let report = sim.run(10 * n as u64, StopCondition::AllTerminated);

    println!("== Live exploration of a dynamic ring (n = {n}) ==\n");
    println!("{}", render::render_trace(&ring, sim.trace().expect("trace enabled"), 40));
    println!("explored at round ............ {:?}", report.explored_at);
    println!("terminations ................. {:?}", report.termination_rounds);
    println!("moves per agent .............. {:?}", report.moves_per_agent);
    println!("paper bound (3N−6) ........... {}", 3 * n - 6);

    assert!(report.explored(), "Theorem 3 guarantees exploration");
    assert!(report.all_terminated, "Theorem 3 guarantees explicit termination");
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(12)?;
    Ok(())
}
