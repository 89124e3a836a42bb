//! The simulator's "god view" of the ring and the agents.
//!
//! Nothing in this module is visible to the protocols; they only ever receive
//! [`dynring_model::Snapshot`]s built from it. Adversaries, on the
//! other hand, receive the full [`RoundView`], including a prediction of what
//! every agent would do if activated — this is legitimate because the
//! protocols are deterministic, so an omniscient adversary could compute the
//! same prediction by simulation, exactly as the adversaries in the paper's
//! impossibility proofs do.
//!
//! Agent state is laid out as a **struct of arrays** (`AgentSoA`): one
//! column per agent fact, each a dense vector indexed by agent. The fields
//! read by the per-round hot loops — the Look snapshot's scan over the team
//! and the scheduler's activation scans — are separate from cold state (the
//! agent program, per-agent visit maps, statistics) the hot passes never
//! touch. Nothing derivable is stored: termination is `terminated_at`, and
//! reports count each agent's row of the visit map.
//! Every program is a [`CatalogProtocol`]: a statically dispatched enum
//! over the paper's algorithms (zero virtual calls in Compute). Decision
//! predictions reuse per-agent probe instances from a private probe pool
//! (an in-place, variant-matching `clone_from` per round) instead of
//! cloning afresh, so the omniscient-adversary path is allocation-free in
//! the steady state too.

use dynring_core::CatalogProtocol;
use dynring_graph::{AgentId, EdgeId, GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::{Decision, LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Snapshot};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Converts a local direction into the global frame of an agent with the
/// given orientation.
pub(crate) fn to_global(handedness: Handedness, dir: LocalDirection) -> GlobalDirection {
    match dir {
        LocalDirection::Left => handedness.local_left(),
        LocalDirection::Right => handedness.local_right(),
    }
}

/// Converts a global direction into the local frame of an agent with the
/// given orientation.
pub(crate) fn to_local(handedness: Handedness, dir: GlobalDirection) -> LocalDirection {
    if dir == handedness.local_left() {
        LocalDirection::Left
    } else {
        LocalDirection::Right
    }
}

/// Mutable per-agent runtime state owned by the simulation, in
/// struct-of-arrays layout. All vectors are parallel and indexed by agent
/// (agents are stored in id order, so the index *is* the [`AgentId`]).
/// Each agent fact has exactly one column.
///
/// The same type holds the agent columns of a
/// [`SimCheckpoint`](crate::checkpoint::SimCheckpoint), and
/// [`AgentSoA::copy_from`] copies a team between the two, so every column
/// here is captured. What the spec fixes (the ring size) lives on the
/// simulation instead.
#[derive(Debug, Default)]
pub(crate) struct AgentSoA {
    /// Hot: the node each agent currently occupies.
    pub node: Vec<NodeId>,
    /// Hot: the port (by global direction) each agent holds, if any.
    pub held_port: Vec<Option<GlobalDirection>>,
    /// Hot: each agent's private orientation.
    pub handedness: Vec<Handedness>,
    /// Hot: the outcome each agent will be shown at its next Look.
    pub prior: Vec<PriorOutcome>,
    /// Cold: the program (Compute state machine) of each agent.
    pub program: Vec<CatalogProtocol>,
    /// Cold: successful traversals per agent.
    pub moves: Vec<u64>,
    /// Cold: the last round each agent was active (0 = never).
    pub last_active_round: Vec<u64>,
    /// Cold: consecutive rounds spent asleep while holding a port (ET
    /// fairness accounting).
    pub asleep_on_port: Vec<u64>,
    /// Hot: the round each agent terminated in; `Some` exactly when it has
    /// terminated.
    pub terminated_at: Vec<Option<u64>>,
    /// Cold: per-agent visit maps, flattened row-major
    /// (`agent * ring_size + node`).
    pub visited: Vec<bool>,
}

impl AgentSoA {
    /// Re-initialises the whole team in place from per-agent templates: every
    /// parallel vector is refilled (capacity reused — no allocation when the
    /// shape matches a previous run, and vector growth is the only
    /// allocation when it does not), and each agent's program copies the
    /// template's pristine state through [`Clone::clone_from`]. This is the
    /// team half of
    /// [`Simulation::recycle`](crate::sim::Simulation::recycle).
    pub(crate) fn reset_from<'a>(
        &mut self,
        ring_size: usize,
        specs: impl ExactSizeIterator<Item = (NodeId, Handedness, &'a CatalogProtocol)>,
    ) {
        let count = specs.len();
        if self.node.len() != count {
            // A new team size: size every column; the loop below writes
            // each agent's entries.
            self.node.resize(count, NodeId::new(0));
            self.held_port.resize(count, None);
            self.handedness.resize(count, Handedness::LeftIsCcw);
            self.prior.resize(count, PriorOutcome::Idle);
            self.moves.resize(count, 0);
            self.last_active_round.resize(count, 0);
            self.asleep_on_port.resize(count, 0);
            self.terminated_at.resize(count, None);
        }
        refill(&mut self.visited, count * ring_size, false);
        self.program.truncate(count);
        // One pass per agent rather than one fill per column: with the
        // paper's two- and three-agent teams, per-column fills cost more in
        // call overhead than in stores.
        for (index, (node, handedness, template)) in specs.enumerate() {
            debug_assert!(node.index() < ring_size, "RunSpec starts are validated");
            self.node[index] = node;
            self.held_port[index] = None;
            self.handedness[index] = handedness;
            self.prior[index] = PriorOutcome::Idle;
            self.moves[index] = 0;
            self.last_active_round[index] = 0;
            self.asleep_on_port[index] = 0;
            self.terminated_at[index] = None;
            copy_program(&mut self.program, index, template);
            self.visited[index * ring_size + node.index()] = true;
        }
    }

    /// Makes `self` a copy of `src`, column by column and in place — the
    /// one copy behind checkpointing and restoring. Capacity is reused, so
    /// a copy of a team of the same shape allocates nothing (programs copy
    /// their state through [`Clone::clone_from`], which `Vec::clone_from`
    /// calls for every row both sides hold).
    pub(crate) fn copy_from(&mut self, src: &AgentSoA) {
        self.node.clone_from(&src.node);
        self.held_port.clone_from(&src.held_port);
        self.handedness.clone_from(&src.handedness);
        self.prior.clone_from(&src.prior);
        self.program.clone_from(&src.program);
        self.moves.clone_from(&src.moves);
        self.last_active_round.clone_from(&src.last_active_round);
        self.asleep_on_port.clone_from(&src.asleep_on_port);
        self.terminated_at.clone_from(&src.terminated_at);
        self.visited.clone_from(&src.visited);
    }

    /// Number of agents.
    pub(crate) fn len(&self) -> usize {
        self.node.len()
    }

    /// Whether every agent has terminated.
    pub(crate) fn all_terminated(&self) -> bool {
        self.terminated_at.iter().all(Option::is_some)
    }
}

/// Sets `programs[index]` to a copy of `src`: a state copy in place when
/// the slot exists, a fresh clone appended when `index` is one past the end.
fn copy_program(programs: &mut Vec<CatalogProtocol>, index: usize, src: &CatalogProtocol) {
    match programs.get_mut(index) {
        Some(dst) => dst.clone_from(src),
        None => programs.push(src.clone()),
    }
}

/// Sets `column` to `len` copies of `value`, in place: a plain fill when the
/// length already matches (the recycled steady state), a clear and resize
/// otherwise.
pub(crate) fn refill<T: Clone>(column: &mut Vec<T>, len: usize, value: T) {
    if column.len() == len {
        column.fill(value);
    } else {
        column.clear();
        column.resize(len, value);
    }
}

/// A pool of reusable protocol *probe* instances, one slot per agent.
///
/// Predicting an agent's decision requires dry-running its (deterministic)
/// protocol on the upcoming Look snapshot without touching the live instance.
/// Instead of cloning afresh per agent per round, the pool refreshes a
/// persistent probe in place through [`CatalogProtocol`]'s variant-matching
/// `clone_from`; only the first round per agent allocates.
#[derive(Debug, Default)]
pub(crate) struct ProbePool {
    slots: Vec<CatalogProtocol>,
}

impl ProbePool {
    /// Returns the probe for agent `index`, its state refreshed from `src`.
    pub(crate) fn refresh(&mut self, index: usize, src: &CatalogProtocol) -> &mut CatalogProtocol {
        if let Some(probe) = self.slots.get_mut(index) {
            probe.clone_from(src);
        } else {
            // Fill any gap below `index` with copies too: every slot holds
            // a program, and the gap's slots are refreshed before use.
            self.slots.resize_with(index + 1, || src.clone());
        }
        &mut self.slots[index]
    }

    /// Swaps agent `index`'s probe with `live` (see the round loop's
    /// *prediction fusion*: after the dry run the probe holds exactly the
    /// post-Compute state of the live protocol, so swapping it in replaces a
    /// second Look + Compute).
    pub(crate) fn swap(&mut self, index: usize, live: &mut CatalogProtocol) {
        std::mem::swap(&mut self.slots[index], live);
    }
}

/// What an agent would do if it were activated in the current round, in the
/// global frame (visible to adversaries only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictedAction {
    /// The agent would try to cross `edge`, leaving its node in `direction`.
    Move {
        /// The edge it would traverse.
        edge: EdgeId,
        /// The global direction of the attempted move.
        direction: GlobalDirection,
    },
    /// The agent would do nothing this round.
    Stay,
    /// The agent would step back from its held port into the node.
    Retreat,
    /// The agent would enter its terminal state.
    Terminate,
}

impl PredictedAction {
    /// The edge the agent would cross, if it would move.
    #[must_use]
    pub const fn target_edge(&self) -> Option<EdgeId> {
        match self {
            PredictedAction::Move { edge, .. } => Some(*edge),
            _ => None,
        }
    }

    /// Whether the prediction is an attempted move.
    #[must_use]
    pub const fn is_move(&self) -> bool {
        matches!(self, PredictedAction::Move { .. })
    }
}

/// Adversary-visible information about one agent at the start of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentView {
    /// The agent's simulator identifier.
    pub id: AgentId,
    /// The node the agent currently occupies.
    pub node: NodeId,
    /// The port (global direction) it holds, if it is waiting on one.
    pub held_port: Option<GlobalDirection>,
    /// Whether the agent has terminated.
    pub terminated: bool,
    /// The agent's private orientation.
    pub handedness: Handedness,
    /// What the agent would do if activated this round.
    ///
    /// Predicting a decision requires dry-running the protocol, so the
    /// engine only computes this when one of the installed policies declares
    /// that it reads predictions (see
    /// [`EdgePolicy::needs_predictions`](crate::adversary::EdgePolicy::needs_predictions));
    /// otherwise live agents report [`PredictedAction::Stay`] here.
    pub predicted: PredictedAction,
    /// The last round in which the agent was active (0 = never).
    pub last_active_round: u64,
    /// Consecutive rounds spent asleep while holding a port.
    pub asleep_on_port: u64,
    /// Successful traversals so far.
    pub moves: u64,
}

/// Adversary-visible information about the whole system at the start of a
/// round.
///
/// Inside the round loop the agent views are borrowed from a scratch buffer
/// owned by the simulation (no per-round allocation); stand-alone views such
/// as [`Simulation::peek`](crate::sim::Simulation::peek) own their agents.
/// The [`Cow`] makes both representations share one type.
#[derive(Debug, Clone)]
pub struct RoundView<'a> {
    /// The round about to be played (1-based).
    pub round: u64,
    /// The static ring.
    pub ring: &'a RingTopology,
    /// One entry per agent (including terminated ones), ordered by id.
    pub agents: Cow<'a, [AgentView]>,
    /// Which nodes have been visited by at least one agent so far.
    pub visited: &'a [bool],
}

impl RoundView<'_> {
    /// The agents that have not terminated yet.
    pub fn alive(&self) -> impl Iterator<Item = &AgentView> {
        self.agents.iter().filter(|a| !a.terminated)
    }

    /// Number of nodes visited so far.
    #[must_use]
    pub fn visited_count(&self) -> usize {
        self.visited.iter().filter(|v| **v).count()
    }

    /// Whether every node has been visited.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.visited.iter().all(|v| *v)
    }

    /// The view of a specific agent.
    #[must_use]
    pub fn agent(&self, id: AgentId) -> Option<&AgentView> {
        self.agents.iter().find(|a| a.id == id)
    }
}

/// Builds the **Look** snapshot of agent `observer` from the team's
/// positions and held ports (the paper's Look operation: own position,
/// other agents at the same node, landmark flag, own previous outcome). The
/// occupancy is one scan over the team, which the paper's teams of one to
/// three agents keep short. `round_hint` is the round under FSYNC, `None`
/// under SSYNC.
#[inline(always)]
pub(crate) fn build_snapshot(
    ring: &RingTopology,
    node: &[NodeId],
    held_port: &[Option<GlobalDirection>],
    observer: usize,
    handedness: Handedness,
    prior: PriorOutcome,
    round_hint: Option<u64>,
) -> Snapshot {
    let observer_node = node[observer];
    let mut occupancy = NodeOccupancy::default();
    for (index, (at, held)) in node.iter().zip(held_port).enumerate() {
        if index == observer || *at != observer_node {
            continue;
        }
        match held {
            None => occupancy.in_node += 1,
            Some(gdir) => match to_local(handedness, *gdir) {
                LocalDirection::Left => occupancy.on_left_port += 1,
                LocalDirection::Right => occupancy.on_right_port += 1,
            },
        }
    }
    let position = match held_port[observer] {
        None => LocalPosition::InNode,
        Some(gdir) => LocalPosition::OnPort(to_local(handedness, gdir)),
    };
    Snapshot {
        position,
        is_landmark: ring.is_landmark(observer_node),
        occupancy,
        prior,
        round_hint,
    }
}

/// Converts a protocol [`Decision`] of an agent standing at `node` with the
/// given orientation into the adversary-facing [`PredictedAction`].
pub(crate) fn predict_action(
    ring: &RingTopology,
    node: NodeId,
    handedness: Handedness,
    decision: Decision,
) -> PredictedAction {
    match decision {
        Decision::Move(ldir) => {
            let gdir = to_global(handedness, ldir);
            PredictedAction::Move { edge: ring.edge_towards(node, gdir), direction: gdir }
        }
        Decision::Stay => PredictedAction::Stay,
        Decision::Retreat => PredictedAction::Retreat,
        Decision::Terminate => PredictedAction::Terminate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_core::Algorithm;
    use dynring_model::Protocol;

    /// A team of `Unconscious` agents at round zero.
    fn team(ring: &RingTopology, agents: &[(usize, Handedness)]) -> AgentSoA {
        let program = Algorithm::Unconscious.instantiate();
        let mut soa = AgentSoA::default();
        let starts =
            agents.iter().map(|&(node, handedness)| (NodeId::new(node), handedness, &program));
        soa.reset_from(ring.size(), starts);
        soa
    }

    #[test]
    fn local_global_conversion_roundtrips() {
        let ring = RingTopology::new(5).unwrap();
        for h in Handedness::both() {
            let soa = team(&ring, &[(0, h)]);
            for d in LocalDirection::both() {
                assert_eq!(to_local(h, to_global(soa.handedness[0], d)), d);
            }
            for g in GlobalDirection::both() {
                assert_eq!(to_global(soa.handedness[0], to_local(h, g)), g);
            }
        }
    }

    fn snapshot_of(
        ring: &RingTopology,
        agents: &AgentSoA,
        observer: usize,
        round_hint: Option<u64>,
    ) -> Snapshot {
        build_snapshot(
            ring,
            &agents.node,
            &agents.held_port,
            observer,
            agents.handedness[observer],
            agents.prior[observer],
            round_hint,
        )
    }

    #[test]
    fn snapshot_sees_other_agents_in_the_observers_frame() {
        let ring = RingTopology::with_landmark(6, NodeId::new(2)).unwrap();
        let mut agents = team(
            &ring,
            &[
                (2, Handedness::LeftIsCcw),
                (2, Handedness::LeftIsCw),
                (3, Handedness::LeftIsCcw),
            ],
        );
        // Agent 1 is waiting on the CCW port of node 2.
        agents.held_port[1] = Some(GlobalDirection::Ccw);

        let snap0 = snapshot_of(&ring, &agents, 0, Some(7));
        // Observer 0 (left = CCW) sees agent 1 on its *left* port.
        assert_eq!(snap0.occupancy.on_left_port, 1);
        assert_eq!(snap0.occupancy.on_right_port, 0);
        assert_eq!(snap0.occupancy.in_node, 0);
        assert!(snap0.is_landmark);
        assert_eq!(snap0.round_hint, Some(7));
        assert_eq!(snap0.position, LocalPosition::InNode);

        // Observer 1 (left = CW) is itself on the CCW port, i.e. its right port.
        let snap1 = snapshot_of(&ring, &agents, 1, None);
        assert_eq!(snap1.position, LocalPosition::OnPort(LocalDirection::Right));
        assert_eq!(snap1.occupancy.in_node, 1);
        assert_eq!(snap1.round_hint, None);

        // Agent 2 is alone on node 3.
        let snap2 = snapshot_of(&ring, &agents, 2, Some(7));
        assert_eq!(snap2.occupancy.total(), 0);
        assert!(!snap2.is_landmark);
    }

    #[test]
    fn predicted_action_maps_direction_and_edge() {
        let ring = RingTopology::new(6).unwrap();
        let p = predict_action(
            &ring,
            NodeId::new(0),
            Handedness::LeftIsCcw,
            Decision::Move(LocalDirection::Left),
        );
        assert_eq!(
            p,
            PredictedAction::Move { edge: EdgeId::new(0), direction: GlobalDirection::Ccw }
        );
        assert_eq!(p.target_edge(), Some(EdgeId::new(0)));
        assert!(p.is_move());
        let q = predict_action(
            &ring,
            NodeId::new(0),
            Handedness::LeftIsCw,
            Decision::Move(LocalDirection::Left),
        );
        assert_eq!(
            q,
            PredictedAction::Move { edge: EdgeId::new(5), direction: GlobalDirection::Cw }
        );
        assert_eq!(
            predict_action(&ring, NodeId::new(0), Handedness::LeftIsCcw, Decision::Stay),
            PredictedAction::Stay
        );
        assert!(!PredictedAction::Retreat.is_move());
        assert_eq!(PredictedAction::Terminate.target_edge(), None);
    }

    #[test]
    fn visited_count_starts_with_the_start_node() {
        let ring = RingTopology::new(4).unwrap();
        let soa = team(&ring, &[(3, Handedness::LeftIsCcw), (1, Handedness::LeftIsCw)]);
        assert_eq!(soa.visited, [false, false, false, true, false, true, false, false]);
    }

    #[test]
    fn probe_pool_reuses_slots_and_survives_type_mismatches() {
        let mut pool = ProbePool::default();
        let live = Algorithm::LoneWalker { patience: 2 }.instantiate();
        // A first refresh past the end fills the slot (and any gap below it)
        // with a clone.
        let probe = pool.refresh(2, &live);
        assert_eq!(probe.state_label(), live.state_label());
        // Mutate the probe, then refresh again: the state is copied back in
        // place (same slot, same variant).
        let _ = probe.decide(&build_dummy_snapshot());
        let _ = probe.decide(&build_dummy_snapshot());
        assert_ne!(probe.state_label(), live.state_label());
        assert_eq!(pool.refresh(2, &live).state_label(), live.state_label());
        // A different variant in the same slot replaces the probe.
        let other = Algorithm::Unconscious.instantiate();
        assert_eq!(pool.refresh(0, &other).name(), "UnconsciousExploration");
        assert_eq!(pool.refresh(0, &live).name(), live.name());
    }

    #[test]
    fn probe_pool_refreshes_catalog_programs_without_downcasts() {
        let mut pool = ProbePool::default();
        let live = Algorithm::KnownBound { upper_bound: 6 }.instantiate();
        // First refresh fills the slot with a clone…
        let probe = pool.refresh(0, &live);
        assert_eq!(probe.state_label(), live.state_label());
        // …and diverging the probe (two activations: the first only arms the
        // Ttime counter) then refreshing copies the state back in place
        // through the variant-matching clone_from.
        let _ = probe.decide(&build_dummy_snapshot());
        let _ = probe.decide(&build_dummy_snapshot());
        assert_ne!(probe.state_label(), live.state_label());
        let probe = pool.refresh(0, &live);
        assert_eq!(probe.state_label(), live.state_label());
        // Swapping fuses the post-Compute probe into the live slot.
        let mut live_program = Algorithm::EtUnconscious.instantiate();
        let probe = pool.refresh(1, &live_program);
        let _ = probe.decide(&build_dummy_snapshot());
        let advanced = probe.state_label();
        pool.swap(1, &mut live_program);
        assert_eq!(live_program.state_label(), advanced);
    }

    fn build_dummy_snapshot() -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::Idle,
            round_hint: Some(1),
        }
    }
}
