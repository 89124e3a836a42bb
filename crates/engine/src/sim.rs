//! The round loop: Look–Compute–Move against an adversary.

use crate::adversary::EdgePolicy;
use crate::checkpoint::{read_key, KeyScratch, KeyedState, SimCheckpoint, SymmetryMap};
use crate::error::EngineError;
use crate::scheduler::ActivationPolicy;
use crate::trace::Trace;
use crate::world::{
    build_snapshot, predict_action, refill, to_global, AgentSoA, AgentView, PredictedAction,
    ProbePool, RoundView,
};
use dynring_core::CatalogProtocol;
use dynring_graph::{AgentId, EdgeId, GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::{Decision, PriorOutcome, Protocol, Snapshot, SynchronyModel, TransportModel};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// When a run should stop (besides exhausting the round budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopCondition {
    /// Stop as soon as every node has been visited.
    Explored,
    /// Stop as soon as every node has been visited **and** at least one agent
    /// has terminated.
    ExploredAndPartialTermination,
    /// Stop as soon as every agent has terminated (also stops if the ring is
    /// explored and no agent can ever terminate — i.e. never, so use a round
    /// budget).
    AllTerminated,
    /// Run for the full round budget regardless.
    RoundBudget,
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum StopReason {
    /// The stop condition was met.
    ConditionMet,
    /// The round budget was exhausted.
    #[default]
    BudgetExhausted,
    /// Every agent terminated (nothing left to simulate).
    Deadlocked,
}

/// Summary of a finished run.
///
/// The `Default` value is an empty shell for
/// [`Simulation::run_into`], which refills an existing report in place
/// (reusing the per-agent vectors) instead of allocating a fresh one per run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of rounds simulated.
    pub rounds: u64,
    /// Ring size.
    pub ring_size: usize,
    /// Round in which the last unvisited node was first visited, if any.
    pub explored_at: Option<u64>,
    /// Number of distinct nodes visited by the union of the agents.
    pub visited_count: usize,
    /// Per-agent termination rounds (same order as the agents were added).
    pub termination_rounds: Vec<Option<u64>>,
    /// Whether every agent terminated.
    pub all_terminated: bool,
    /// Per-agent number of successful traversals.
    pub moves_per_agent: Vec<u64>,
    /// Per-agent number of distinct nodes visited.
    pub visited_per_agent: Vec<usize>,
    /// Total number of successful traversals.
    pub total_moves: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

impl RunReport {
    /// Whether the whole ring was explored.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.explored_at.is_some()
    }

    /// Round of the earliest explicit termination, if any.
    #[must_use]
    pub fn first_termination(&self) -> Option<u64> {
        self.termination_rounds.iter().flatten().min().copied()
    }

    /// Round of the latest explicit termination, if all agents terminated.
    #[must_use]
    pub fn last_termination(&self) -> Option<u64> {
        if self.all_terminated {
            self.termination_rounds.iter().flatten().max().copied()
        } else {
            None
        }
    }

    /// Whether at least one agent terminated.
    #[must_use]
    pub fn partially_terminated(&self) -> bool {
        self.termination_rounds.iter().any(Option::is_some)
    }
}

/// One agent of a [`RunSpec`]: the start node, the private orientation and
/// the **pristine program template** every run copies its initial state
/// from.
#[derive(Debug)]
pub struct AgentSpec {
    /// Start node.
    pub start: NodeId,
    /// Private orientation.
    pub handedness: Handedness,
    /// The program in its as-instantiated state. Every run starts from a
    /// copy of it (see [`Simulation::recycle`]).
    pub program: CatalogProtocol,
}

impl AgentSpec {
    /// Bundles one agent's start, orientation and program template.
    #[must_use]
    pub fn new(start: NodeId, handedness: Handedness, program: CatalogProtocol) -> Self {
        AgentSpec { start, handedness, program }
    }
}

/// A validated, reusable description of one run — ring topology, synchrony
/// model, the agent templates and whether a trace is recorded — and the
/// engine's only way to start one (see `docs/ARCHITECTURE.md`, "Run
/// lifecycle"). A spec is compiled once and then drives any number of runs:
///
/// * [`RunSpec::instantiate`] builds a fresh simulation;
/// * [`Simulation::recycle`] re-initialises an *existing* simulation to round
///   zero of the spec **in place**, reusing every buffer the previous run
///   allocated.
///
/// Both go through one initialisation: a fresh build is a recycle into an
/// empty simulation.
///
/// The activation and edge policies are deliberately not part of the spec:
/// they are installed on the simulation (at `instantiate` time or via
/// [`Simulation::replace_policies`]) and restored by their
/// [`reset`](crate::scheduler::ActivationPolicy::reset) hooks whenever a run
/// starts, so the spec itself stays immutable and shareable.
#[derive(Debug)]
pub struct RunSpec {
    ring: RingTopology,
    synchrony: SynchronyModel,
    agents: Vec<AgentSpec>,
    record_trace: bool,
}

impl RunSpec {
    /// Compiles a validated spec. This is where every run is validated.
    ///
    /// # Errors
    ///
    /// Fails with [`EngineError::NoAgents`] for an empty team and with
    /// [`EngineError::StartOutOfRange`] for the first agent starting outside
    /// the ring.
    pub fn new(
        ring: RingTopology,
        synchrony: SynchronyModel,
        agents: Vec<AgentSpec>,
        record_trace: bool,
    ) -> Result<Self, EngineError> {
        if agents.is_empty() {
            return Err(EngineError::NoAgents);
        }
        for (index, agent) in agents.iter().enumerate() {
            if agent.start.index() >= ring.size() {
                return Err(EngineError::StartOutOfRange {
                    agent: AgentId::new(index),
                    node: agent.start,
                    ring_size: ring.size(),
                });
            }
        }
        Ok(RunSpec { ring, synchrony, agents, record_trace })
    }

    /// The ring the runs explore.
    #[must_use]
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// The synchrony model of the runs.
    #[must_use]
    pub fn synchrony(&self) -> SynchronyModel {
        self.synchrony
    }

    /// Number of agents per run.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Whether runs record a trace.
    #[must_use]
    pub fn record_trace(&self) -> bool {
        self.record_trace
    }

    /// Builds a fresh simulation from this spec with the given policies: an
    /// empty simulation (no agents, empty maps, default scratch) recycled
    /// into round zero of the spec, so a fresh run and a recycled one start
    /// from one initialisation. The agent templates are cloned and the spec
    /// stays reusable; the policies start from their
    /// [`reset`](crate::scheduler::ActivationPolicy::reset) state.
    #[must_use]
    pub fn instantiate(
        &self,
        activation: Box<dyn ActivationPolicy>,
        edges: Box<dyn EdgePolicy>,
    ) -> Simulation {
        let mut sim = Simulation {
            ring: self.ring.clone(),
            synchrony: self.synchrony,
            agents: AgentSoA::default(),
            visited: Vec::new(),
            counters: RunCounters::default(),
            activation,
            edges,
            trace: None,
            scratch: RoundScratch::default(),
        };
        sim.recycle(self);
        sim
    }
}

/// Reusable per-round working memory. All buffers are refilled every round,
/// so after the first round [`Simulation::step`] performs no heap
/// allocation with trace recording off — FSYNC and SSYNC alike, with or
/// without decision predictions (predictions reuse the per-agent
/// [`ProbePool`] instead of boxing protocol clones, and the activation
/// policy chooses into the reused `chosen` buffer through
/// [`ActivationPolicy::select_into`]).
#[derive(Debug, Default)]
struct RoundScratch {
    /// Per-agent adversary views (borrowed by the [`RoundView`]).
    views: Vec<AgentView>,
    /// The active set, sorted by agent id, as a prefix of a team-length
    /// buffer.
    active: Vec<AgentId>,
    /// Raw activation-policy choice (SSYNC only; sanitised into `active`).
    chosen: Vec<AgentId>,
    /// `active_mask[i]` ⇔ agent `i` is active this round.
    active_mask: Vec<bool>,
    /// Per-agent decision of this round (`None` = asleep or terminated). A
    /// prediction pass first fills it with the probes' decisions.
    decisions: Vec<Option<Decision>>,
    /// Reusable per-agent protocol probes backing the predictions.
    probes: ProbePool,
    /// Node of each agent at the start of the round (trace recording only).
    nodes_before: Vec<NodeId>,
    /// Ports denied for the rest of the round. At most two entries per
    /// agent (the port held at the start plus one acquired), so a linear
    /// scan beats a `HashSet`.
    claimed: Vec<(NodeId, GlobalDirection)>,
}

impl RoundScratch {
    /// Sizes the buffers the round kernel writes in place by index: a no-op
    /// once the team size is settled, so it costs a length compare per
    /// buffer and never allocates in the steady state.
    fn fit(&mut self, agent_count: usize) {
        let filler = AgentView {
            id: AgentId::new(0),
            node: NodeId::new(0),
            held_port: None,
            terminated: false,
            handedness: Handedness::LeftIsCcw,
            predicted: PredictedAction::Stay,
            last_active_round: 0,
            asleep_on_port: 0,
            moves: 0,
        };
        self.views.resize(agent_count, filler);
        self.active.resize(agent_count, AgentId::new(0));
        self.active_mask.resize(agent_count, false);
        self.decisions.resize(agent_count, None);
        self.nodes_before.resize(agent_count, NodeId::new(0));
        self.claimed.resize(2 * agent_count, (NodeId::new(0), GlobalDirection::Cw));
    }
}

/// A live simulation of agents exploring a dynamic ring.
pub struct Simulation {
    ring: RingTopology,
    synchrony: SynchronyModel,
    agents: AgentSoA,
    visited: Vec<bool>,
    counters: RunCounters,
    activation: Box<dyn ActivationPolicy>,
    edges: Box<dyn EdgePolicy>,
    trace: Option<Trace>,
    scratch: RoundScratch,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("ring_size", &self.ring.size())
            .field("round", &self.counters.round)
            .field("agents", &self.agents.len())
            .field("visited", &self.visited_count())
            .field("synchrony", &self.synchrony)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// The ring being explored.
    #[must_use]
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// Number of rounds simulated so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.counters.round
    }

    /// The recorded trace, if trace recording was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Number of distinct nodes visited by the union of the agents.
    #[must_use]
    pub fn visited_count(&self) -> usize {
        self.ring.size() - self.counters.unvisited
    }

    /// Whether every node has been visited.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.counters.explored_at.is_some()
    }

    /// The round in which exploration completed, if it did.
    #[must_use]
    pub fn explored_at(&self) -> Option<u64> {
        self.counters.explored_at
    }

    /// Whether every agent has terminated.
    #[must_use]
    pub fn all_terminated(&self) -> bool {
        self.agents.all_terminated()
    }

    /// Current node of each agent, in agent order (for tests and rendering).
    #[must_use]
    pub fn positions(&self) -> Vec<NodeId> {
        self.agents.node.clone()
    }

    /// Per-agent termination rounds.
    #[must_use]
    pub fn termination_rounds(&self) -> Vec<Option<u64>> {
        self.agents.terminated_at.clone()
    }

    /// Per-agent traversal counts.
    #[must_use]
    pub fn moves_per_agent(&self) -> Vec<u64> {
        self.agents.moves.clone()
    }

    /// Re-initialises this simulation **in place** to round zero of `spec`,
    /// reusing every buffer of the previous run:
    ///
    /// * ring topology, synchrony model and the global visited map are
    ///   overwritten (the map's allocation is reused);
    /// * the whole agent team is reset from the spec's templates — hot and
    ///   cold SoA fields and per-agent visit maps are refilled in their
    ///   existing vectors, and each program copies the template's pristine
    ///   state through the enum's variant-matching `clone_from`;
    /// * the trace is cleared (or created/dropped if `spec` toggles
    ///   recording) and the round scratch, including the probe pool, carries
    ///   over as-is — every scratch buffer is refilled before use;
    /// * the installed activation and edge policies are restored by their
    ///   [`reset`](crate::scheduler::ActivationPolicy::reset) hooks. If the
    ///   next run needs *different* policies, install them first with
    ///   [`Simulation::replace_policies`].
    ///
    /// When the shape (ring size, team size, program variants) matches
    /// the previous run this performs **zero heap allocations**; when it does
    /// not, existing capacity is still reused and only growth allocates.
    /// [`RunSpec::instantiate`] initialises through this method too, into an
    /// empty simulation, so a recycled run differs from a fresh one only in
    /// the buffers it reuses (`tests/recycle_equivalence.rs` pins that no
    /// state of the previous run leaks, for the whole catalogue).
    pub fn recycle(&mut self, spec: &RunSpec) {
        self.ring.clone_from(&spec.ring);
        self.synchrony = spec.synchrony;
        self.agents.reset_from(
            spec.ring.size(),
            spec.agents.iter().map(|a| (a.start, a.handedness, &a.program)),
        );
        refill(&mut self.visited, spec.ring.size(), false);
        let mut start_nodes = 0;
        for agent in &spec.agents {
            let slot = &mut self.visited[agent.start.index()];
            if !*slot {
                *slot = true;
                start_nodes += 1;
            }
        }
        self.counters = RunCounters {
            round: 0,
            alive: spec.agents.len(),
            unvisited: spec.ring.size() - start_nodes,
            explored_at: None,
        };
        match (&mut self.trace, spec.record_trace) {
            (Some(trace), true) => trace.clear(),
            (trace @ None, true) => *trace = Some(Trace::new()),
            (trace, false) => *trace = None,
        }
        self.activation.reset();
        self.edges.reset();
    }

    /// Replaces the installed activation and edge policies (used by recycling
    /// callers when the next run's policies differ from the previous run's;
    /// same-policy reruns only need the `reset` performed by
    /// [`Simulation::recycle`]).
    pub fn replace_policies(
        &mut self,
        activation: Box<dyn ActivationPolicy>,
        edges: Box<dyn EdgePolicy>,
    ) {
        self.activation = activation;
        self.edges = edges;
    }

    /// Plays one round. Returns `false` if there was nothing to do (every
    /// agent has terminated).
    ///
    /// All per-round working memory lives in scratch buffers owned by the
    /// simulation, so with trace recording off this performs no heap
    /// allocation under either synchrony model — including rounds with
    /// decision predictions, which dry-run each live protocol through a
    /// reusable probe from the engine's probe pool instead of boxing a
    /// clone, and SSYNC rounds, whose activation policy chooses into a
    /// reused buffer ([`ActivationPolicy::select_into`]).
    pub fn step(&mut self) -> bool {
        self.step_forced(None)
    }

    /// Plays one round with the adversary's edge choice **forced** to
    /// `missing` (`None` forces an all-present round), bypassing the
    /// installed edge policy entirely: it is neither consulted nor advanced,
    /// and no edge-policy predictions are computed. Out-of-range edges are
    /// ignored exactly as the engine ignores an invalid policy choice.
    /// Activation policies still run (and still receive their predictions),
    /// so a forced round is otherwise identical to a policy round.
    ///
    /// This is the expansion primitive of the analysis-side model checker,
    /// which enumerates every edge choice per round instead of sampling one
    /// choice from a policy.
    pub fn step_with_edge(&mut self, missing: Option<EdgeId>) -> bool {
        self.step_forced(Some(missing))
    }

    /// One round under either synchrony model; `forced` is `Some(choice)`
    /// when the caller is the edge adversary.
    fn step_forced(&mut self, forced: Option<Option<EdgeId>>) -> bool {
        if self.counters.alive == 0 {
            return false;
        }
        self.play(forced, 1, StopCondition::RoundBudget);
        true
    }

    /// Plays up to `max_rounds` rounds through the round kernel and returns
    /// why it stopped (see [`RoundKernel::run`]).
    fn play(
        &mut self,
        forced: Option<Option<EdgeId>>,
        max_rounds: u64,
        stop: StopCondition,
    ) -> StopReason {
        if self.synchrony.is_fsync() {
            self.play_as::<true>(forced, max_rounds, stop)
        } else {
            self.play_as::<false>(forced, max_rounds, stop)
        }
    }

    /// [`Simulation::play`] for one synchrony model. Each model gets a
    /// function of its own, so the FSYNC loop carries no SSYNC branch and
    /// holds a single Compute call site, which the compiler inlines.
    #[inline(never)]
    fn play_as<const FSYNC: bool>(
        &mut self,
        forced: Option<Option<EdgeId>>,
        max_rounds: u64,
        stop: StopCondition,
    ) -> StopReason {
        let mut kernel = self.kernel(forced.is_none());
        let reason = kernel.run::<FSYNC>(forced, max_rounds, stop);
        self.counters = kernel.counters;
        reason
    }

    /// Borrows this simulation's state as a [`RoundKernel`]; copy the
    /// kernel's counters back when it is done. `policy_edges` says whether
    /// the edge policy will choose (rather than a caller forcing every
    /// choice), which is when its predictions are worth computing.
    #[inline(always)]
    fn kernel(&mut self, policy_edges: bool) -> RoundKernel<'_> {
        let fsync = self.synchrony.is_fsync();
        // Predictions dry-run every live protocol, so they are only computed
        // when a policy that will run reads them (under FSYNC the activation
        // policy never runs). `needs_predictions` takes `&self`, so the
        // answers hold for a whole run.
        let edge_pred = policy_edges && self.edges.needs_predictions();
        let act_pred = !fsync && self.activation.needs_predictions();
        let sleeper_pred = !fsync && edge_pred && self.edges.needs_sleeper_predictions();
        let Simulation {
            ring,
            synchrony,
            agents,
            visited,
            activation,
            edges,
            trace,
            scratch,
            ..
        } = self;
        // Every column is cut to exactly the team (or ring) length, so the
        // compiler sees equal lengths and drops the round body's bounds
        // checks.
        let (a, n) = (agents.len(), ring.size());
        scratch.fit(a);
        RoundKernel {
            counters: self.counters,
            ring,
            activation: activation.as_mut(),
            edges: edges.as_mut(),
            transport: synchrony.transport() == Some(TransportModel::PassiveTransport),
            edge_pred,
            act_pred,
            sleeper_pred,
            node: &mut agents.node[..a],
            held: &mut agents.held_port[..a],
            hand: &agents.handedness[..a],
            prior: &mut agents.prior[..a],
            prog: &mut agents.program[..a],
            moves: &mut agents.moves[..a],
            last_active: &mut agents.last_active_round[..a],
            asleep: &mut agents.asleep_on_port[..a],
            terminated_at: &mut agents.terminated_at[..a],
            avisited: &mut agents.visited[..a * n],
            visited: &mut visited[..n],
            views: &mut scratch.views[..a],
            dec: &mut scratch.decisions[..a],
            act: &mut scratch.active[..a],
            chosen: &mut scratch.chosen,
            mask: &mut scratch.active_mask[..a],
            claim: &mut scratch.claimed[..2 * a],
            nodes_before: &mut scratch.nodes_before[..a],
            probes: &mut scratch.probes,
            trace: trace.as_mut(),
        }
    }

    /// Runs until the stop condition holds or `max_rounds` rounds have been
    /// simulated, and summarises the execution.
    pub fn run(&mut self, max_rounds: u64, stop: StopCondition) -> RunReport {
        let reason = self.play(None, max_rounds, stop);
        self.report(reason)
    }

    /// [`Simulation::run`], but the summary is written into an existing
    /// report whose per-agent vectors are reused (allocation-free once the
    /// report has seen a team of this size) — the companion of
    /// [`Simulation::recycle`] on the runs/sec fast path.
    pub fn run_into(&mut self, max_rounds: u64, stop: StopCondition, report: &mut RunReport) {
        let reason = self.play(None, max_rounds, stop);
        self.report_into(reason, report);
    }

    /// Builds the report for the current state of the simulation.
    #[must_use]
    pub fn report(&self, stop_reason: StopReason) -> RunReport {
        let mut report = RunReport::default();
        self.report_into(stop_reason, &mut report);
        report
    }

    /// [`Simulation::report`], written into an existing report in place. The
    /// per-agent vectors reuse their capacity, so summarising a recycled run
    /// into a recycled report allocates nothing.
    pub fn report_into(&self, stop_reason: StopReason, out: &mut RunReport) {
        out.rounds = self.counters.round;
        out.ring_size = self.ring.size();
        out.explored_at = self.counters.explored_at;
        out.visited_count = self.visited_count();
        out.termination_rounds.clone_from(&self.agents.terminated_at);
        out.all_terminated = self.all_terminated();
        out.moves_per_agent.clone_from(&self.agents.moves);
        out.visited_per_agent.clear();
        let rows = self.agents.visited.chunks_exact(self.ring.size());
        out.visited_per_agent.extend(rows.map(|row| row.iter().filter(|v| **v).count()));
        out.total_moves = self.agents.moves.iter().sum();
        out.stop_reason = stop_reason;
    }

    /// View of the upcoming round for external inspection (used by the
    /// renderer and by tests). The view always includes decision predictions
    /// and borrows the simulation's round scratch (which is why this takes
    /// `&mut self` — the next `step` refills every scratch buffer before
    /// reading it, so peeking never perturbs the run).
    #[must_use]
    pub fn peek(&mut self) -> RoundView<'_> {
        let round = self.counters.round + 1;
        let round_hint = self.synchrony.is_fsync().then_some(round);
        self.kernel(false).predict_views(round_hint);
        RoundView {
            round,
            ring: &self.ring,
            agents: Cow::Borrowed(&self.scratch.views),
            visited: &self.visited,
        }
    }

    /// Number of agents in the team (terminated or not).
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Number of agents that have not terminated.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.counters.alive
    }

    /// Total successful traversals across the team so far.
    #[must_use]
    pub fn total_moves(&self) -> u64 {
        self.agents.moves.iter().sum()
    }

    /// Whether this simulation can be checkpointed: the installed activation
    /// policy must be able to capture its state in a token (seeded random
    /// policies cannot; see
    /// [`ActivationPolicy::state_token`]).
    /// The edge policy never matters — checkpoint/restore exists to drive
    /// branching through [`Simulation::step_with_edge`], which bypasses it.
    #[must_use]
    pub fn supports_checkpoint(&self) -> bool {
        self.activation.state_token().is_some()
    }

    /// Captures the complete behavioural state of the run — round, visit
    /// maps, every agent's position/port/program state and the activation
    /// policy's token — into a fresh [`SimCheckpoint`], so the run can be
    /// branched: `checkpoint`, step with one adversary choice, inspect,
    /// [`restore`](Simulation::restore), step with the next choice.
    ///
    /// The trace (if recording) and the edge policy's internal state are
    /// deliberately **not** captured: checkpointing callers drive the
    /// adversary themselves through [`Simulation::step_with_edge`] and run
    /// trace-off (a restored trace-on simulation keeps appending rounds from
    /// every branch to one trace).
    ///
    /// # Panics
    ///
    /// Panics if the activation policy is not checkpointable; guard with
    /// [`Simulation::supports_checkpoint`].
    #[must_use]
    pub fn checkpoint(&self) -> SimCheckpoint {
        let mut out = SimCheckpoint::default();
        self.checkpoint_into(&mut out);
        out
    }

    /// [`Simulation::checkpoint`], written into an existing checkpoint whose
    /// buffers are reused: a checkpoint of a run of the same shape
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the activation policy is not checkpointable.
    pub fn checkpoint_into(&self, out: &mut SimCheckpoint) {
        out.agents.copy_from(&self.agents);
        out.visited.clone_from(&self.visited);
        out.counters = self.counters;
        out.token = self.state_token();
    }

    /// The activation policy's state token.
    fn state_token(&self) -> u64 {
        self.activation
            .state_token()
            .expect("checkpoint requires a checkpointable activation policy")
    }

    /// Rewinds the run to a state previously captured from **this** run by
    /// [`Simulation::checkpoint`]: every field the checkpoint holds is copied
    /// back in place (no allocation when shapes match) and the activation
    /// policy's state token is restored. Stepping after a restore replays
    /// exactly as stepping did from the original state.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shape (team size, ring size) does not match
    /// this simulation — checkpoints are not portable across specs.
    pub fn restore(&mut self, cp: &SimCheckpoint) {
        assert_eq!(cp.agents.len(), self.agents.len(), "checkpoint is from a different team");
        assert_eq!(cp.visited.len(), self.ring.size(), "checkpoint is from a different ring");
        self.agents.copy_from(&cp.agents);
        self.visited.copy_from_slice(&cp.visited);
        self.counters = cp.counters;
        self.restored(cp.token);
    }

    /// Writes the run's canonical configuration key into `out` (cleared
    /// first; capacity reused) and returns the symmetry map that carries
    /// the run to it: the model checker's dedup identity and frontier
    /// state. `scratch` is the caller's, so that keying allocates nothing
    /// in the steady state. See the
    /// [`checkpoint`](crate::checkpoint) module docs for the format.
    ///
    /// # Panics
    ///
    /// Panics if the activation policy is not checkpointable.
    pub fn canonical_key_into(&self, scratch: &mut KeyScratch, out: &mut Vec<u8>) -> SymmetryMap {
        let state = KeyedState {
            agents: &self.agents,
            visited: &self.visited,
            round: self.counters.round,
            token: self.state_token(),
        };
        state.canonical_key_into(&self.ring, scratch, out)
    }

    /// Rebuilds the run from `key`, a canonical key of a state of this
    /// run's spec, and `map`, the map that carried that state to it (both
    /// from [`Simulation::canonical_key_into`]): the state comes back in
    /// its own frame, not the key's, so stepping it replays exactly what
    /// stepping the keyed state did. Programs decode in place, so a
    /// restore allocates nothing once the programs' buffers have grown.
    ///
    /// What the key omits is rebuilt or zeroed as the
    /// [`checkpoint`](crate::checkpoint) module docs list ("Decoding a
    /// key"): move counts, termination rounds, per-agent visit maps, the
    /// exploration round and the values (not the order) of the last-active
    /// rounds are meaningless in a key-restored run, so its reports are
    /// too. Replay a schedule from the start, through
    /// [`adversary::FromSchedule`](crate::adversary::FromSchedule), to report
    /// on it.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a key of this spec's team and ring.
    pub fn restore_from_key(&mut self, key: &[u8], map: SymmetryMap) {
        let (counters, token) = read_key(key, map, &mut self.agents, &mut self.visited);
        self.counters = counters;
        self.restored(token);
    }

    /// Finishes a restore: reinstates the activation token, and tells the
    /// trace, if any, that program state changed outside `decide` — the
    /// one event the trace's label reuse cannot observe.
    fn restored(&mut self, token: u64) {
        if let Some(trace) = self.trace.as_mut() {
            trace.invalidate_label_cache();
        }
        self.activation.restore_state(token);
    }

    /// Marks in `hit` (cleared, then one entry per edge) every edge an
    /// agent crossed since `before`, a checkpoint of this run one round
    /// back: an agent that moved stands on a neighbour of its old node, and
    /// an agent crosses at most one edge a round.
    ///
    /// The rule this rests on is the paper's: an agent learns of the
    /// missing edge only by trying to cross it from the port it holds. The
    /// round reads the missing edge only for an agent holding that edge's
    /// port — a mover, or under passive transport a sleeper — and in an
    /// all-present round every such agent crosses. So after
    /// `step_with_edge(None)` from `before`, the marked edges are exactly
    /// the choices whose removal changes the round, and removing any other
    /// edge plays the same round as removing none.
    ///
    /// Allocation-free once `hit` has held a ring's worth of entries.
    ///
    /// # Panics
    ///
    /// Panics if `before` is from a different team.
    pub fn crossed_edges(&self, before: &SimCheckpoint, hit: &mut Vec<bool>) {
        assert_eq!(before.agents.len(), self.agents.len(), "checkpoint is from a different team");
        hit.clear();
        hit.resize(self.ring.size(), false);
        for (&from, &to) in before.agents.node.iter().zip(&self.agents.node) {
            if let Some(edge) = self.ring.edge_between(from, to) {
                hit[edge.index()] = true;
            }
        }
    }
}

/// A run's counters. A [`RoundKernel`] carries them by value, so they stay
/// in registers across the round loop; checkpoints hold one copy.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunCounters {
    /// Number of rounds played.
    pub(crate) round: u64,
    /// Number of agents that have not terminated (kept incrementally so the
    /// per-round liveness and termination checks are O(1)).
    pub(crate) alive: usize,
    /// Number of `false` entries in the visit map (kept incrementally so the
    /// per-round exploration check is O(1) instead of an O(n) scan).
    pub(crate) unvisited: usize,
    /// The round in which the last unvisited node was first visited.
    pub(crate) explored_at: Option<u64>,
}

impl RunCounters {
    /// Whether the stop condition holds for a team of `agent_count`.
    fn stop_met(&self, stop: StopCondition, agent_count: usize) -> bool {
        match stop {
            StopCondition::Explored => self.explored_at.is_some(),
            StopCondition::ExploredAndPartialTermination => {
                self.explored_at.is_some() && self.alive < agent_count
            }
            StopCondition::AllTerminated => self.alive == 0,
            StopCondition::RoundBudget => false,
        }
    }

    /// The run loop's check before every round: `Some` reason if the run
    /// must stop now (its condition holds, or no agent is left to step).
    #[inline]
    fn cull(&self, stop: StopCondition, agent_count: usize) -> Option<StopReason> {
        if self.stop_met(stop, agent_count) {
            Some(StopReason::ConditionMet)
        } else if self.alive == 0 {
            Some(StopReason::Deadlocked)
        } else {
            None
        }
    }

    /// Why a run that used up its round budget stopped: a run whose
    /// condition holds after the last budgeted round still reports
    /// `ConditionMet`.
    fn budget_reason(&self, stop: StopCondition, agent_count: usize) -> StopReason {
        if self.stop_met(stop, agent_count) {
            StopReason::ConditionMet
        } else {
            StopReason::BudgetExhausted
        }
    }
}

/// One run's state, borrowed out of a [`Simulation`] for one step or a
/// whole run: the agent columns and the round scratch as slices (sized to
/// the team once, so the round body does no `Vec` bookkeeping), the
/// run-level counters by value. [`RoundKernel::round`] is the engine's only
/// round body, for both synchrony models: `step`, `step_with_edge` and
/// `run_into` all play their rounds through it, and `peek` fills its views
/// with the kernel's prediction pass.
struct RoundKernel<'s> {
    counters: RunCounters,
    ring: &'s RingTopology,
    activation: &'s mut dyn ActivationPolicy,
    edges: &'s mut dyn EdgePolicy,
    /// SSYNC under passive transport: a sleeper holding a port is carried
    /// across with it.
    transport: bool,
    /// The edge policy chooses, and reads predictions.
    edge_pred: bool,
    /// The activation policy reads predictions (SSYNC only).
    act_pred: bool,
    /// The edge policy also reads sleepers' predictions (SSYNC only).
    sleeper_pred: bool,
    node: &'s mut [NodeId],
    held: &'s mut [Option<GlobalDirection>],
    hand: &'s [Handedness],
    prior: &'s mut [PriorOutcome],
    prog: &'s mut [CatalogProtocol],
    moves: &'s mut [u64],
    last_active: &'s mut [u64],
    asleep: &'s mut [u64],
    terminated_at: &'s mut [Option<u64>],
    avisited: &'s mut [bool],
    visited: &'s mut [bool],
    views: &'s mut [AgentView],
    dec: &'s mut [Option<Decision>],
    act: &'s mut [AgentId],
    chosen: &'s mut Vec<AgentId>,
    mask: &'s mut [bool],
    claim: &'s mut [(NodeId, GlobalDirection)],
    nodes_before: &'s mut [NodeId],
    probes: &'s mut ProbePool,
    trace: Option<&'s mut Trace>,
}

impl RoundKernel<'_> {
    /// Plays rounds until the stop condition holds, no agent is left to
    /// step, or `max_rounds` rounds have been played, and returns why the
    /// run stopped. `forced` is `Some(choice)` when the caller picks every
    /// round's missing edge instead of the edge policy.
    #[inline(always)]
    fn run<const FSYNC: bool>(
        &mut self,
        forced: Option<Option<EdgeId>>,
        max_rounds: u64,
        stop: StopCondition,
    ) -> StopReason {
        let agent_count = self.node.len();
        for _ in 0..max_rounds {
            if let Some(reason) = self.counters.cull(stop, agent_count) {
                return reason;
            }
            self.round::<FSYNC>(forced);
        }
        self.counters.budget_reason(stop, agent_count)
    }

    /// Plays one round. `forced` is `Some(choice)` when the caller picks the
    /// missing edge instead of the edge policy.
    ///
    /// The active agents decide first: no protocol sees anything but the
    /// start-of-round state, and the edge policy sees no protocol state, so
    /// Compute may run before the adversary moves. Then the edge adversary
    /// picks the missing edge, the decisions are resolved, and under SSYNC
    /// the sleepers are carried and aged.
    #[inline(always)]
    fn round<const FSYNC: bool>(&mut self, forced: Option<Option<EdgeId>>) {
        self.counters.round += 1;
        let r = self.counters.round;
        if self.trace.is_some() {
            self.nodes_before.copy_from_slice(self.node);
        }
        let policy_edges = forced.is_none();
        let active_len = if FSYNC {
            self.fsync_compute(r, policy_edges)
        } else {
            self.ssync_compute(r, policy_edges)
        };
        let missing = match forced {
            Some(choice) => choice,
            None => {
                let view = RoundView {
                    round: r,
                    ring: self.ring,
                    agents: Cow::Borrowed(self.views),
                    visited: self.visited,
                };
                self.edges.select(&view, &self.act[..active_len])
            }
        }
        .filter(|e| e.index() < self.visited.len());
        self.resolve(r, missing);
        if !FSYNC {
            self.ssync_sleepers(missing);
        }
        let n = self.visited.len();
        if self.counters.explored_at.is_none() && self.counters.unvisited == 0 {
            self.counters.explored_at = Some(r);
        }
        // Trace recording: one entry per agent, appended straight from the
        // round slices (allocation-free in the recycled steady state).
        if let Some(trace) = self.trace.as_mut() {
            trace.record_round(
                r,
                missing,
                n - self.counters.unvisited,
                self.mask,
                self.nodes_before,
                self.node,
                self.held,
                self.dec,
                self.prior,
                self.terminated_at,
                self.prog,
            );
        }
    }

    /// FSYNC's Look + Compute: every live agent is active and decides on
    /// its live program, in id order. Under FSYNC that decision *is* the
    /// prediction, so a prediction round needs no dry run. Returns the
    /// length of the active set.
    #[inline(always)]
    fn fsync_compute(&mut self, r: u64, policy_edges: bool) -> usize {
        let mut active_len = 0;
        for index in 0..self.node.len() {
            let live = !self.terminated(index);
            self.mask[index] = live;
            self.dec[index] = if live {
                let snapshot = self.snapshot(index, Some(r));
                Some(self.prog[index].decide(&snapshot))
            } else {
                None
            };
            if live {
                self.act[active_len] = AgentId::new(index);
                active_len += 1;
            }
        }
        if policy_edges {
            self.fill_views(self.edge_pred);
        }
        active_len
    }

    /// SSYNC's activation choice and Look + Compute. Predictions come in two
    /// tiers:
    ///
    ///  * the activation policy reads them: every live agent is dry-run on
    ///    a probe before the choice, and each active agent's probe — which
    ///    holds exactly its post-Compute state — is swapped in instead of
    ///    running Compute a second time (prediction fusion);
    ///  * only the edge policy reads them: they wait for the choice, so the
    ///    actives decide on their live programs and only sleepers are
    ///    dry-run, and only when the policy reads sleepers' predictions
    ///    (the paper's block-the-mover adversaries filter on the active set
    ///    first).
    ///
    /// Returns the length of the active set.
    #[inline(always)]
    fn ssync_compute(&mut self, r: u64, policy_edges: bool) -> usize {
        let a = self.node.len();
        let act_pred = self.act_pred;
        let deferred = !act_pred && policy_edges && self.edge_pred;
        if act_pred {
            self.predict_views(None);
        } else {
            self.fill_views(false);
        }
        // The activation choice, cut to live agents; an empty choice
        // activates every live agent.
        self.chosen.clear();
        let view = RoundView {
            round: r,
            ring: self.ring,
            agents: Cow::Borrowed(self.views),
            visited: self.visited,
        };
        self.activation.select_into(&view, self.chosen);
        self.mask.fill(false);
        for id in self.chosen.iter() {
            if self.terminated_at.get(id.index()) == Some(&None) {
                self.mask[id.index()] = true;
            }
        }
        if !self.mask.contains(&true) {
            for index in 0..a {
                self.mask[index] = !self.terminated(index);
            }
        }
        let mut active_len = 0;
        for index in 0..a {
            if self.mask[index] {
                self.act[active_len] = AgentId::new(index);
                active_len += 1;
                if act_pred {
                    // `dec[index]` already holds the probe's decision.
                    self.probes.swap(index, &mut self.prog[index]);
                    continue;
                }
                let snapshot = self.snapshot(index, None);
                let decision = self.prog[index].decide(&snapshot);
                self.dec[index] = Some(decision);
                if deferred {
                    self.views[index].predicted =
                        predict_action(self.ring, self.node[index], self.hand[index], decision);
                }
            } else {
                self.dec[index] = None;
                if deferred && self.sleeper_pred && !self.terminated(index) {
                    let snapshot = self.snapshot(index, None);
                    let decision = self.probes.refresh(index, &self.prog[index]).decide(&snapshot);
                    self.views[index].predicted =
                        predict_action(self.ring, self.node[index], self.hand[index], decision);
                }
            }
        }
        active_len
    }

    /// Dry-runs every live agent's program on a probe from the pool, leaving
    /// the decisions in `dec` and the predictions in the views.
    /// `round_hint` is the round under FSYNC, `None` under SSYNC.
    #[inline(always)]
    fn predict_views(&mut self, round_hint: Option<u64>) {
        for index in 0..self.node.len() {
            self.dec[index] = if self.terminated(index) {
                None
            } else {
                let snapshot = self.snapshot(index, round_hint);
                Some(self.probes.refresh(index, &self.prog[index]).decide(&snapshot))
            };
        }
        self.fill_views(true);
    }

    /// Refills the adversary views from the start-of-round columns. With
    /// `predict`, each live agent's view shows the decision `dec` holds for
    /// it; otherwise live agents show [`PredictedAction::Stay`].
    #[inline(always)]
    fn fill_views(&mut self, predict: bool) {
        for index in 0..self.node.len() {
            let at = self.node[index];
            let terminated = self.terminated(index);
            let predicted = match self.dec[index] {
                _ if terminated => PredictedAction::Terminate,
                Some(decision) if predict => {
                    predict_action(self.ring, at, self.hand[index], decision)
                }
                _ => PredictedAction::Stay,
            };
            self.views[index] = AgentView {
                id: AgentId::new(index),
                node: at,
                held_port: self.held[index],
                terminated,
                handedness: self.hand[index],
                predicted,
                last_active_round: self.last_active[index],
                asleep_on_port: self.asleep[index],
                moves: self.moves[index],
            };
        }
    }

    /// Whether agent `index` has terminated.
    #[inline(always)]
    fn terminated(&self, index: usize) -> bool {
        self.terminated_at[index].is_some()
    }

    /// Agent `index`'s Look snapshot of the current state.
    #[inline(always)]
    fn snapshot(&self, index: usize, round_hint: Option<u64>) -> Snapshot {
        build_snapshot(
            self.ring,
            self.node,
            self.held,
            index,
            self.hand[index],
            self.prior[index],
            round_hint,
        )
    }

    /// Resolves this round's decisions in id order: the paper's movement
    /// rule, for both synchrony models. Ports are taken in mutual exclusion
    /// and denied for the whole round — every port held at the start of the
    /// round plus every port acquired during it ("access to the port
    /// continues to be denied … during this round") — and a missing edge
    /// blocks the agent holding its port. An agent terminates exactly on a
    /// [`Decision::Terminate`]; debug builds check after every decision that
    /// its program agrees (see [`Protocol::has_terminated`]).
    #[inline(always)]
    fn resolve(&mut self, r: u64, missing: Option<EdgeId>) {
        let a = self.node.len();
        let mut claimed = 0;
        for index in 0..a {
            if let Some(port) = self.held[index] {
                self.claim[claimed] = (self.node[index], port);
                claimed += 1;
            }
        }
        for index in 0..a {
            let Some(decision) = self.dec[index] else { continue };
            self.last_active[index] = r;
            self.asleep[index] = 0;
            match decision {
                Decision::Terminate => {
                    self.terminate(index, r);
                    self.prior[index] = PriorOutcome::Idle;
                }
                Decision::Stay => self.prior[index] = PriorOutcome::Idle,
                Decision::Retreat => {
                    self.held[index] = None;
                    self.prior[index] = PriorOutcome::Idle;
                }
                Decision::Move(ldir) => {
                    let gdir = to_global(self.hand[index], ldir);
                    let at = self.node[index];
                    if self.held[index] != Some(gdir) {
                        // Release any other port first, then try to acquire.
                        self.held[index] = None;
                        if self.claim[..claimed].contains(&(at, gdir)) {
                            self.prior[index] = PriorOutcome::PortAcquisitionFailed;
                        } else {
                            self.held[index] = Some(gdir);
                            self.claim[claimed] = (at, gdir);
                            claimed += 1;
                        }
                    }
                    if self.held[index] == Some(gdir) {
                        if missing == Some(self.ring.edge_towards(at, gdir)) {
                            self.prior[index] = PriorOutcome::BlockedOnPort;
                        } else {
                            self.traverse(index, gdir, PriorOutcome::Moved);
                        }
                    }
                }
            }
            debug_assert_eq!(
                self.prog[index].has_terminated(),
                decision == Decision::Terminate,
                "agent {index}'s program and its round-{r} decision disagree on termination"
            );
        }
    }

    /// SSYNC's sleepers: under passive transport a sleeper holding a port
    /// is carried across when its edge is present; then each sleeper's age
    /// on its port advances, or resets when it holds none.
    #[inline(always)]
    fn ssync_sleepers(&mut self, missing: Option<EdgeId>) {
        for index in 0..self.node.len() {
            if self.mask[index] {
                continue;
            }
            if self.transport {
                if let Some(gdir) = self.held[index] {
                    if missing != Some(self.ring.edge_towards(self.node[index], gdir)) {
                        self.traverse(index, gdir, PriorOutcome::Transported);
                    }
                }
            }
            self.asleep[index] =
                if self.held[index].is_some() { self.asleep[index] + 1 } else { 0 };
        }
    }

    /// Agent `index` crosses the edge in direction `gdir` and arrives with
    /// `outcome`, with the visit bookkeeping.
    #[inline(always)]
    fn traverse(&mut self, index: usize, gdir: GlobalDirection, outcome: PriorOutcome) {
        let at = self.node[index];
        let destination = self.ring.neighbor(at, gdir);
        self.node[index] = destination;
        self.held[index] = None;
        self.prior[index] = outcome;
        self.moves[index] += 1;
        let node_index = destination.index();
        if !self.visited[node_index] {
            self.visited[node_index] = true;
            self.counters.unvisited -= 1;
        }
        self.avisited[index * self.visited.len() + node_index] = true;
    }

    /// Agent `index` enters its terminal state in round `r`.
    #[inline(always)]
    fn terminate(&mut self, index: usize, r: u64) {
        self.counters.alive -= 1;
        self.terminated_at[index] = Some(r);
        self.held[index] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BlockAgent, NoRemoval, PreventMeeting, RandomEdge};
    use crate::scheduler::{FullActivation, RandomSubset, RoundRobinSingle};
    use dynring_core::fsync::{KnownBound, Unconscious};
    use dynring_core::single::LoneWalker;
    use dynring_core::ssync::PtBoundChirality;
    use dynring_core::Algorithm;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn known_bound(n: usize) -> CatalogProtocol {
        CatalogProtocol::KnownBound(KnownBound::new(n))
    }

    fn lone_walker(patience: u64) -> CatalogProtocol {
        CatalogProtocol::LoneWalker(LoneWalker::new(patience))
    }

    fn unconscious() -> CatalogProtocol {
        CatalogProtocol::Unconscious(Unconscious::new())
    }

    fn pt_bound_chirality(n: usize) -> CatalogProtocol {
        CatalogProtocol::PtBoundChirality(PtBoundChirality::new(n))
    }

    /// Two `PtBoundChirality` agents on nodes 0 and 3 under SSYNC/PT, with
    /// a trace.
    fn pt_pair(ring: RingTopology) -> RunSpec {
        let n = ring.size();
        let agents = [0, 3]
            .map(|start| {
                AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, pt_bound_chirality(n))
            })
            .into();
        let pt = SynchronyModel::Ssync(TransportModel::PassiveTransport);
        RunSpec::new(ring, pt, agents, true).unwrap()
    }

    fn fsync_sim(
        n: usize,
        starts: &[usize],
        protos: Vec<CatalogProtocol>,
        edges: Box<dyn EdgePolicy>,
    ) -> Simulation {
        let agents = starts
            .iter()
            .zip(protos)
            .map(|(start, proto)| AgentSpec::new(NodeId::new(*start), Handedness::LeftIsCcw, proto))
            .collect();
        RunSpec::new(RingTopology::new(n).unwrap(), SynchronyModel::Fsync, agents, true)
            .unwrap()
            .instantiate(Box::new(FullActivation), edges)
    }

    #[test]
    fn builder_rejects_empty_scenarios_and_bad_starts() {
        // `RunSpec::new` is the one place a team is checked before a
        // simulation is built from it.
        let ring = RingTopology::new(4).unwrap();
        let err = RunSpec::new(ring.clone(), SynchronyModel::Fsync, vec![], false).unwrap_err();
        assert_eq!(err, EngineError::NoAgents);
        let agent =
            |start| AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, lone_walker(0));
        let out_of_range = |agent, node| EngineError::StartOutOfRange {
            agent: AgentId::new(agent),
            node: NodeId::new(node),
            ring_size: 4,
        };
        let err =
            RunSpec::new(ring.clone(), SynchronyModel::Fsync, vec![agent(9)], false).unwrap_err();
        assert_eq!(err, out_of_range(0, 9));
        // The first offender is named, after any number of valid starts.
        let team = vec![agent(3), agent(4), agent(5)];
        let err = RunSpec::new(ring, SynchronyModel::Fsync, team, false).unwrap_err();
        assert_eq!(err, out_of_range(1, 4));
    }

    #[test]
    fn run_spec_validates_like_the_builder() {
        // `RunSpec::new` accepts exactly the starts a built simulation can hold:
        // every node of the ring, shared or not, under every synchrony and
        // either handedness; the accepted spec starts each agent there.
        let n = 5;
        let pt = SynchronyModel::Ssync(TransportModel::PassiveTransport);
        let et = SynchronyModel::Ssync(TransportModel::EventualTransport);
        for synchrony in [SynchronyModel::Fsync, pt, et] {
            let starts = [0, 1, 2, 3, 4, 0, 4];
            let agents = starts
                .iter()
                .enumerate()
                .map(|(i, &start)| {
                    let handedness =
                        if i % 2 == 0 { Handedness::LeftIsCcw } else { Handedness::LeftIsCw };
                    AgentSpec::new(NodeId::new(start), handedness, lone_walker(0))
                })
                .collect();
            let spec =
                RunSpec::new(RingTopology::new(n).unwrap(), synchrony, agents, false).unwrap();
            let sim = spec.instantiate(Box::new(FullActivation), Box::new(NoRemoval));
            let positions: Vec<usize> = sim.positions().iter().map(|v| v.index()).collect();
            assert_eq!(positions, starts);

            let agent = AgentSpec::new(NodeId::new(n), Handedness::LeftIsCcw, lone_walker(0));
            let err = RunSpec::new(RingTopology::new(n).unwrap(), synchrony, vec![agent], false)
                .unwrap_err();
            assert!(matches!(err, EngineError::StartOutOfRange { ring_size: 5, .. }));
        }
    }

    #[test]
    fn two_known_bound_agents_explore_and_terminate_on_a_static_ring() {
        let n = 8;
        let mut sim = fsync_sim(
            n,
            &[0, 3],
            vec![known_bound(n), known_bound(n)],
            Box::new(NoRemoval),
        );
        let report = sim.run(200, StopCondition::AllTerminated);
        assert!(report.explored());
        assert!(report.all_terminated);
        // Theorem 3: termination within 3N - 6 rounds (plus the terminating
        // decision round itself).
        let deadline = 3 * n as u64 - 6 + 1;
        assert!(report.last_termination().unwrap() <= deadline);
        sim.trace().unwrap().check_invariants(n).unwrap();
    }

    #[test]
    fn a_single_agent_never_explores_against_its_blocker() {
        let n = 6;
        let mut sim = fsync_sim(
            n,
            &[2],
            vec![lone_walker(3)],
            Box::new(BlockAgent::new(AgentId::new(0))),
        );
        let report = sim.run(500, StopCondition::Explored);
        assert!(!report.explored());
        assert_eq!(report.visited_count, 1);
        assert_eq!(report.total_moves, 0);
    }

    #[test]
    fn unconscious_agents_explore_despite_prevent_meeting() {
        let n = 9;
        let mut sim = fsync_sim(
            n,
            &[0, 4],
            vec![unconscious(), unconscious()],
            Box::new(PreventMeeting::new()),
        );
        let report = sim.run(40 * n as u64, StopCondition::Explored);
        assert!(report.explored(), "Theorem 5: exploration completes in O(n) rounds");
        assert!(!report.all_terminated, "unconscious exploration never terminates");
    }

    #[test]
    fn port_mutual_exclusion_lets_only_one_agent_through() {
        // Two agents on the same node moving the same way: one acquires the
        // port, the other reports a failed acquisition (Theorem 3's argument
        // for agents starting on the same node).
        let n = 5;
        let mut sim = fsync_sim(
            n,
            &[0, 0],
            vec![known_bound(n), known_bound(n)],
            Box::new(NoRemoval),
        );
        assert!(sim.step());
        let record = sim.trace().unwrap().round_at(0).unwrap();
        let outcomes: Vec<PriorOutcome> = record.agents.iter().map(|a| a.outcome).collect();
        assert!(outcomes.contains(&PriorOutcome::Moved));
        assert!(outcomes.contains(&PriorOutcome::PortAcquisitionFailed));
        sim.trace().unwrap().check_invariants(n).unwrap();
    }

    #[test]
    fn ssync_round_robin_with_pt_transport_carries_sleepers() {
        use crate::adversary::FromSchedule;
        use dynring_graph::ScheduleBuilder;
        // One PT agent walking left (CCW→CW depending on handedness) gets
        // blocked, falls asleep on the port, and is carried across when the
        // edge reappears while it is still asleep.
        let ring = RingTopology::new(6).unwrap();
        let schedule = ScheduleBuilder::new(&ring)
            .remove_for(dynring_graph::EdgeId::new(5), 2)
            .all_present_for(10)
            .build();
        let mut sim = pt_pair(ring)
            .instantiate(Box::new(RoundRobinSingle::new()), Box::new(FromSchedule::new(schedule)));
        let report = sim.run(400, StopCondition::ExploredAndPartialTermination);
        assert!(report.explored());
        assert!(report.partially_terminated(), "Theorem 12: at least one agent terminates");
        sim.trace().unwrap().check_invariants(6).unwrap();
    }

    #[test]
    fn a_trace_recorded_across_a_restore_replays_the_restored_state() {
        // Trace on, checkpoint, step, restore and step again: the trace holds
        // both branches, so round numbers repeat and lookups fall back to the
        // first-match scan. Under round-robin activation the agent asleep in
        // the first replayed round last computed in the abandoned branch, so
        // its label renders the restored state only because the restore
        // drops the trace's label cache.
        let n = 6;
        let mut sim = pt_pair(RingTopology::new(n).unwrap())
            .instantiate(Box::new(RoundRobinSingle::new()), Box::new(NoRemoval));
        sim.step();
        sim.step();
        let checkpoint = sim.checkpoint();
        for _ in 0..3 {
            sim.step();
        }
        sim.restore(&checkpoint);
        for _ in 0..3 {
            sim.step();
        }
        let trace = sim.trace().unwrap();
        let numbers: Vec<u64> = trace.rounds().map(|record| record.round).collect();
        assert_eq!(numbers, [1, 2, 3, 4, 5, 3, 4, 5]);
        assert_eq!(trace.round(3), trace.round_at(2));
        assert_eq!(trace.round(5), trace.round_at(4));
        assert_eq!(trace.round_at(5).unwrap().round, 3);
        assert!(trace.round(0).is_none() && trace.round(6).is_none());
        trace.check_invariants(n).unwrap();
        for index in 2..5 {
            assert_eq!(trace.round_at(index + 3), trace.round_at(index), "trace entry {index}");
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let n = 6;
        let mut sim = fsync_sim(
            n,
            &[0, 2],
            vec![known_bound(n), known_bound(n)],
            Box::new(NoRemoval),
        );
        let report = sim.run(100, StopCondition::AllTerminated);
        assert_eq!(report.ring_size, n);
        assert_eq!(report.moves_per_agent.len(), 2);
        assert_eq!(report.termination_rounds.len(), 2);
        assert!(report.first_termination().is_some());
        assert!(report.last_termination().unwrap() >= report.first_termination().unwrap());
        assert_eq!(
            report.total_moves,
            report.moves_per_agent.iter().sum::<u64>()
        );
    }

    #[test]
    fn recycled_runs_replay_the_fresh_execution_bit_for_bit() {
        let n = 8;
        let spec = RunSpec::new(
            RingTopology::new(n).unwrap(),
            SynchronyModel::Fsync,
            vec![
                AgentSpec::new(
                    NodeId::new(0),
                    Handedness::LeftIsCcw,
                    known_bound(n),
                ),
                AgentSpec::new(
                    NodeId::new(3),
                    Handedness::LeftIsCcw,
                    known_bound(n),
                ),
            ],
            true,
        )
        .unwrap();
        assert_eq!(spec.agent_count(), 2);
        assert!(spec.record_trace());
        assert_eq!(spec.ring().size(), n);
        assert!(spec.synchrony().is_fsync());
        let mut sim = spec.instantiate(
            Box::new(FullActivation),
            Box::new(crate::adversary::StickyRandomEdge::new(1, 6, 0.25, 7)),
        );
        let fresh_report = sim.run(200, StopCondition::AllTerminated);
        let fresh_trace = sim.trace().expect("trace on").clone();
        // Recycling the same simulation (the seeded adversary is restored by
        // its reset hook) must replay the identical execution; run_into
        // refills an existing report in place.
        let mut recycled_report = RunReport::default();
        for _ in 0..3 {
            sim.recycle(&spec);
            assert_eq!(sim.round(), 0);
            sim.run_into(200, StopCondition::AllTerminated, &mut recycled_report);
            assert_eq!(fresh_report, recycled_report);
            assert_eq!(&fresh_trace, sim.trace().expect("trace on"));
        }
    }

    #[test]
    fn recycle_adopts_a_new_shape_and_policies() {
        let small = RunSpec::new(
            RingTopology::new(5).unwrap(),
            SynchronyModel::Fsync,
            vec![
                AgentSpec::new(
                    NodeId::new(0),
                    Handedness::LeftIsCcw,
                    known_bound(5),
                ),
                AgentSpec::new(
                    NodeId::new(2),
                    Handedness::LeftIsCcw,
                    known_bound(5),
                ),
            ],
            true,
        )
        .unwrap();
        let big = RunSpec::new(
            RingTopology::new(9).unwrap(),
            SynchronyModel::Fsync,
            vec![AgentSpec::new(
                NodeId::new(4),
                Handedness::LeftIsCw,
                lone_walker(0),
            )],
            false,
        )
        .unwrap();
        let reference = big
            .instantiate(Box::new(FullActivation), Box::new(NoRemoval))
            .run(40, StopCondition::RoundBudget);
        // Start from the *small* two-agent spec, then recycle into the
        // nine-node single-agent one with different policies: the grown ring
        // and shrunk team must behave exactly like a fresh build.
        let mut sim = small.instantiate(
            Box::new(FullActivation),
            Box::new(BlockAgent::new(AgentId::new(0))),
        );
        let _ = sim.run(30, StopCondition::AllTerminated);
        sim.replace_policies(Box::new(FullActivation), Box::new(NoRemoval));
        sim.recycle(&big);
        assert!(sim.trace().is_none(), "recycling a trace-off spec drops the trace");
        assert_eq!(sim.run(40, StopCondition::RoundBudget), reference);
    }

    /// Two agents running `KnownBound`, or `PtBoundChirality` when `alt`.
    fn two_agent_spec(
        n: usize,
        starts: [usize; 2],
        synchrony: SynchronyModel,
        alt: bool,
    ) -> RunSpec {
        let agents = starts
            .iter()
            .map(|&start| {
                let program = if alt { pt_bound_chirality(n) } else { known_bound(n) };
                AgentSpec::new(NodeId::new(start), Handedness::LeftIsCcw, program)
            })
            .collect();
        RunSpec::new(RingTopology::new(n).unwrap(), synchrony, agents, false).unwrap()
    }

    #[test]
    fn recycled_simulations_match_fresh_runs_every_generation() {
        let n = 8;
        let ssync = SynchronyModel::Ssync(TransportModel::PassiveTransport);
        // The two catalogue variants alternate: specs 0 and 1, and 2 and 3,
        // run different algorithms.
        let fsync = SynchronyModel::Fsync;
        let mut specs: Vec<RunSpec> = (0..4)
            .map(|shift| two_agent_spec(n, [shift, shift + 2], fsync, shift % 2 == 0))
            .collect();
        specs.push(two_agent_spec(n, [0, 3], ssync, true));
        specs.push(two_agent_spec(n, [1, 5], ssync, false));
        let build = |spec: &RunSpec| -> Simulation {
            if spec.synchrony().is_fsync() {
                spec.instantiate(
                    Box::new(FullActivation),
                    Box::new(BlockAgent::new(AgentId::new(0))),
                )
            } else {
                spec.instantiate(Box::new(RoundRobinSingle::new()), Box::new(NoRemoval))
            }
        };
        let stop = StopCondition::AllTerminated;
        let fresh: Vec<RunReport> = specs.iter().map(|spec| build(spec).run(300, stop)).collect();
        let mut sims: Vec<Simulation> = specs.iter().map(build).collect();
        let mut reports = vec![RunReport::default(); specs.len()];
        // Every generation recycles each simulation in place and must
        // reproduce the fresh reports. On odd generations each FSYNC
        // simulation takes its neighbour's spec, so the recycle switches
        // its programs to the other variant, and back again after.
        for generation in 0..4 {
            let order: Vec<usize> = (0..specs.len())
                .map(|i| if generation % 2 == 1 && i < 4 { i ^ 1 } else { i })
                .collect();
            for ((sim, report), &j) in sims.iter_mut().zip(&mut reports).zip(&order) {
                sim.recycle(&specs[j]);
                sim.run_into(300, stop, report);
            }
            let expected: Vec<RunReport> = order.iter().map(|&j| fresh[j].clone()).collect();
            assert_eq!(reports, expected, "generation {generation}");
        }
    }

    #[test]
    fn peek_exposes_predictions_without_advancing() {
        let n = 5;
        let mut sim = fsync_sim(
            n,
            &[0, 2],
            vec![known_bound(n), known_bound(n)],
            Box::new(NoRemoval),
        );
        let view = sim.peek();
        assert_eq!(view.round, 1);
        assert_eq!(view.agents.len(), 2);
        assert!(view.agents.iter().all(|a| a.predicted.is_move()));
        assert_eq!(sim.round(), 0);
    }

    /// A random run: a ring of 4–12 nodes with or without a landmark, and a
    /// team of 1–5 catalogue programs on random (possibly shared) starts
    /// with random handedness. The first program picks the synchrony model
    /// (FSYNC, SSYNC/PT or SSYNC/ET) and the rest are drawn among the
    /// programs of that model, so every run can be played.
    fn random_spec(rng: &mut TestRng) -> RunSpec {
        let n = (4usize..13).sample(rng);
        let landmark = any::<bool>().sample(rng);
        let ring = if landmark {
            RingTopology::with_landmark(n, NodeId::new((0..n).sample(rng))).unwrap()
        } else {
            RingTopology::new(n).unwrap()
        };
        let mut catalog = Algorithm::full_catalog(n);
        catalog.retain(|algorithm| landmark || !algorithm.needs_landmark());
        let synchrony = catalog[(0..catalog.len()).sample(rng)].synchrony();
        catalog.retain(|algorithm| algorithm.synchrony() == synchrony);
        let agents = (0..(1usize..6).sample(rng))
            .map(|_| {
                let start = NodeId::new((0..n).sample(rng));
                let handedness = if any::<bool>().sample(rng) {
                    Handedness::LeftIsCw
                } else {
                    Handedness::LeftIsCcw
                };
                let program = catalog[(0..catalog.len()).sample(rng)].instantiate();
                AgentSpec::new(start, handedness, program)
            })
            .collect();
        RunSpec::new(ring, synchrony, agents, any::<bool>().sample(rng)).unwrap()
    }

    /// Checks every run counter and every agent column of `sim` against
    /// values computed from `spec` alone: the state of round zero.
    fn check_round_zero(sim: &Simulation, spec: &RunSpec) -> TestCaseResult {
        let (n, team) = (spec.ring.size(), spec.agents.len());
        let starts: Vec<NodeId> = spec.agents.iter().map(|agent| agent.start).collect();
        let mut visited = vec![false; n];
        for start in &starts {
            visited[start.index()] = true;
        }
        prop_assert_eq!(&sim.ring, &spec.ring);
        prop_assert_eq!(sim.synchrony, spec.synchrony);
        prop_assert_eq!(&sim.visited, &visited);
        let counters = sim.counters;
        prop_assert_eq!(counters.round, 0);
        prop_assert_eq!(counters.alive, team);
        prop_assert_eq!(counters.unvisited, visited.iter().filter(|&&v| !v).count());
        prop_assert_eq!(counters.explored_at, None);
        let agents = &sim.agents;
        prop_assert_eq!(&agents.node, &starts);
        let handedness: Vec<Handedness> = spec.agents.iter().map(|a| a.handedness).collect();
        prop_assert_eq!(&agents.handedness, &handedness);
        prop_assert_eq!(&agents.held_port, &vec![None; team]);
        prop_assert_eq!(&agents.prior, &vec![PriorOutcome::Idle; team]);
        prop_assert_eq!(&agents.moves, &vec![0; team]);
        prop_assert_eq!(&agents.last_active_round, &vec![0; team]);
        prop_assert_eq!(&agents.asleep_on_port, &vec![0; team]);
        prop_assert_eq!(&agents.terminated_at, &vec![None; team]);
        let rows: Vec<bool> =
            starts.iter().flat_map(|start| (0..n).map(move |node| node == start.index())).collect();
        prop_assert_eq!(&agents.visited, &rows);
        let programs: Vec<String> = agents.program.iter().map(|p| format!("{p:?}")).collect();
        let templates: Vec<String> =
            spec.agents.iter().map(|a| format!("{:?}", a.program)).collect();
        prop_assert_eq!(programs, templates);
        prop_assert_eq!(sim.trace().map(Trace::len), spec.record_trace.then_some(0));
        Ok(())
    }

    fn random_policies(seed: u64) -> (Box<dyn ActivationPolicy>, Box<dyn EdgePolicy>) {
        (Box::new(RandomSubset::new(0.5, seed)), Box::new(RandomEdge::new(0.5, seed)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A fresh simulation, and one recycled from a different spec after
        /// a few rounds, both start in the round-zero state computed
        /// straight from the spec.
        #[test]
        fn runs_start_in_the_state_their_spec_describes(
            seed in any::<u64>(),
            previous_seed in any::<u64>(),
        ) {
            let spec = random_spec(&mut TestRng::new(seed));
            let (activation, edges) = random_policies(seed);
            check_round_zero(&spec.instantiate(activation, edges), &spec)?;
            let previous = random_spec(&mut TestRng::new(previous_seed));
            let (activation, edges) = random_policies(previous_seed);
            let mut sim = previous.instantiate(activation, edges);
            let rounds = previous.ring().size() as u64;
            let _ = sim.run(rounds, StopCondition::RoundBudget);
            sim.recycle(&spec);
            check_round_zero(&sim, &spec)?;
        }
    }
}
