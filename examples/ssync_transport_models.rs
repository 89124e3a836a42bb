//! The three semi-synchronous transport models side by side.
//!
//! The same team of agents (three, no chirality, knowing an upper bound) is
//! run under NS, PT and ET. Under NS the Theorem 9 adversary freezes them
//! forever; under PT and ET they explore and one agent terminates.
//!
//! ```bash
//! cargo run --example ssync_transport_models
//! ```

use dynring::prelude::*;

/// The example's core path, callable from the smoke tests: runs one team of
/// three agents under the given transport model and returns the report.
pub fn run(model: TransportModel, n: usize) -> RunReport {
    let ring = RingTopology::new(n).expect("valid ring");
    let agents = [0, n / 3, 2 * n / 3]
        .map(|start| {
            let program = match model {
                TransportModel::EventualTransport => PtNoChirality::for_eventual_transport(n),
                _ => PtNoChirality::with_upper_bound(n),
            };
            AgentSpec::new(
                NodeId::new(start),
                Handedness::LeftIsCcw,
                CatalogProtocol::PtNoChirality(program),
            )
        })
        .into();
    let spec = RunSpec::new(ring, SynchronyModel::Ssync(model), agents, false)
        .expect("valid scenario");
    let sticky = || Box::new(StickyRandomEdge::new(1, n as u64, 0.3, 7));
    let mut sim = match model {
        // Theorem 9: under NS the adversary pairs the first-mover scheduler
        // with the matching edge removal and nothing ever moves.
        TransportModel::NoSimultaneity => {
            spec.instantiate(Box::new(FirstMoverOnly), Box::new(BlockFirstMover))
        }
        TransportModel::PassiveTransport => {
            spec.instantiate(Box::new(AlternateBlocked::new(3)), sticky())
        }
        TransportModel::EventualTransport => spec.instantiate(
            Box::new(EtFairness::new(Box::new(RoundRobinSingle::new()), 1)),
            sticky(),
        ),
    };
    sim.run(500 * (n as u64) * (n as u64), StopCondition::ExploredAndPartialTermination)
}

fn main() {
    let n = 12;
    println!("== Semi-synchronous transport models on a ring of {n} nodes ==\n");
    for model in [
        TransportModel::NoSimultaneity,
        TransportModel::PassiveTransport,
        TransportModel::EventualTransport,
    ] {
        let report = run(model, n);
        println!(
            "{model}: explored={:<5} visited={}/{n} moves={:<6} terminated agents={}",
            report.explored(),
            report.visited_count,
            report.total_moves,
            report.termination_rounds.iter().flatten().count(),
        );
    }
    println!("\nNS never explores (Theorem 9); PT and ET explore with partial termination (Theorems 16 and 20).");
}
