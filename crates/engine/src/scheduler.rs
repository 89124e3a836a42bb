//! Activation policies: who is active in each round.
//!
//! Under FSYNC every agent is active in every round ([`FullActivation`]).
//! Under SSYNC the choice is adversarial, constrained only by being non-empty
//! and activating every agent infinitely often. This module provides the fair
//! and adversarial schedulers used across the experiments:
//!
//! * [`FullActivation`] — FSYNC;
//! * [`RoundRobinSingle`] — exactly one agent per round, in rotation (a fair
//!   but maximally sequential SSYNC schedule);
//! * [`RandomSubset`] — each agent active independently with probability `p`
//!   (re-drawn until non-empty);
//! * [`AlternateBlocked`] — keeps agents waiting on ports asleep as long as
//!   allowed, activating the others (used to stress PT/ET algorithms);
//! * [`FirstMoverOnly`] — the Theorem 9 adversary's activation rule: activate
//!   all agents that would *not* move plus the single would-be mover that has
//!   been passive the longest;
//! * [`EtFairness`] — a wrapper enforcing the ET condition: an agent that has
//!   slept on a port for `max_lag` consecutive rounds is forcibly activated.

use crate::world::RoundView;
use dynring_graph::AgentId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chooses the set of active agents for the next round.
///
/// The returned set is sanitised by the engine: terminated agents are
/// removed, duplicates are dropped, and an empty result activates every
/// non-terminated agent (the adversary must activate someone).
pub trait ActivationPolicy: Send {
    /// A short name for traces and reports.
    fn name(&self) -> &'static str;

    /// Selects the agents to activate, given the adversary-visible view, by
    /// appending them to `out` (cleared by the engine, capacity reused round
    /// over round, so a round's selection allocates nothing).
    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>);

    /// Whether [`select_into`](ActivationPolicy::select_into) ever reads
    /// [`AgentView::predicted`](crate::world::AgentView::predicted).
    ///
    /// See [`EdgePolicy::needs_predictions`](crate::adversary::EdgePolicy::needs_predictions)
    /// for the contract; under FSYNC the activation policy is never
    /// consulted, so its answer only matters for SSYNC runs. Defaults to
    /// `true`.
    fn needs_predictions(&self) -> bool {
        true
    }

    /// Restores the policy to its as-constructed state, so a recycled
    /// simulation (see [`Simulation::recycle`](crate::sim::Simulation::recycle))
    /// replays exactly as a freshly built one. Stateful policies (rotation
    /// cursors, seeded RNGs) **must** implement this — a seeded policy
    /// restores the RNG from its original seed; the default no-op is only
    /// correct for stateless policies.
    fn reset(&mut self) {}

    /// Opaque token capturing the policy's mutable per-run state, for the
    /// engine's checkpoint/restore branching path (see
    /// [`Simulation::checkpoint`](crate::sim::Simulation::checkpoint)).
    ///
    /// `None` declares the policy non-checkpointable (its state does not fit
    /// a token — e.g. a seeded RNG mid-stream); branching callers such as the
    /// model checker must reject those policies up front via
    /// [`Simulation::supports_checkpoint`](crate::sim::Simulation::supports_checkpoint).
    /// The default `Some(0)` is only correct for stateless policies —
    /// stateful ones must encode their state and decode it in
    /// [`restore_state`](ActivationPolicy::restore_state).
    fn state_token(&self) -> Option<u64> {
        Some(0)
    }

    /// Restores the state captured by a previous
    /// [`state_token`](ActivationPolicy::state_token) call. The default no-op
    /// is only correct for stateless policies.
    fn restore_state(&mut self, token: u64) {
        let _ = token;
    }
}

/// FSYNC: everyone is active in every round.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullActivation;

impl ActivationPolicy for FullActivation {
    fn name(&self) -> &'static str {
        "fsync"
    }

    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>) {
        out.extend(view.alive().map(|a| a.id));
    }

    fn needs_predictions(&self) -> bool {
        false
    }
}

/// Activates exactly one non-terminated agent per round, rotating through
/// them; every agent is activated infinitely often.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinSingle {
    cursor: usize,
}

impl RoundRobinSingle {
    /// Creates the scheduler starting from the first agent.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinSingle { cursor: 0 }
    }
}

impl ActivationPolicy for RoundRobinSingle {
    fn name(&self) -> &'static str {
        "round-robin-single"
    }

    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>) {
        let alive = view.alive().count();
        if alive == 0 {
            return;
        }
        let pick = view.alive().nth(self.cursor % alive).expect("nth < count").id;
        self.cursor = self.cursor.wrapping_add(1);
        out.push(pick);
    }

    fn needs_predictions(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn state_token(&self) -> Option<u64> {
        Some(self.cursor as u64)
    }

    fn restore_state(&mut self, token: u64) {
        self.cursor = token as usize;
    }
}

/// Activates each agent independently with probability `p`; re-draws until
/// the set is non-empty. Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct RandomSubset {
    probability: f64,
    seed: u64,
    rng: StdRng,
}

impl RandomSubset {
    /// Creates the scheduler with the given per-agent activation probability
    /// (clamped to `[0.05, 1.0]`) and RNG seed.
    #[must_use]
    pub fn new(probability: f64, seed: u64) -> Self {
        RandomSubset {
            probability: probability.clamp(0.05, 1.0),
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ActivationPolicy for RandomSubset {
    fn name(&self) -> &'static str {
        "random-subset"
    }

    /// Re-draw loop: each attempt draws one `gen_bool` per alive agent in id
    /// order, the RNG sequence that every seeded schedule depends on.
    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>) {
        if view.alive().next().is_none() {
            return;
        }
        for _ in 0..64 {
            out.clear();
            for agent in view.alive() {
                if self.rng.gen_bool(self.probability) {
                    out.push(agent.id);
                }
            }
            if !out.is_empty() {
                return;
            }
        }
        out.extend(view.alive().map(|a| a.id));
    }

    fn needs_predictions(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    /// A mid-stream `StdRng` does not fit a `u64` token, so random schedules
    /// cannot be checkpointed (the model checker rejects them up front).
    fn state_token(&self) -> Option<u64> {
        None
    }
}

/// Keeps agents that are waiting on a port asleep for as long as `max_hold`
/// rounds while activating everyone else; used to exercise the PT transport
/// rule (a sleeping agent is carried across when the edge reappears).
#[derive(Debug, Clone, Copy)]
pub struct AlternateBlocked {
    max_hold: u64,
}

impl AlternateBlocked {
    /// Creates the scheduler; agents waiting on a port stay asleep for at
    /// most `max_hold` consecutive rounds.
    #[must_use]
    pub fn new(max_hold: u64) -> Self {
        AlternateBlocked { max_hold: max_hold.max(1) }
    }
}

impl ActivationPolicy for AlternateBlocked {
    fn name(&self) -> &'static str {
        "sleep-blocked"
    }

    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>) {
        out.extend(
            view.alive()
                .filter(|a| a.held_port.is_none() || a.asleep_on_port >= self.max_hold)
                .map(|a| a.id),
        );
        if out.is_empty() {
            out.extend(view.alive().map(|a| a.id));
        }
    }

    fn needs_predictions(&self) -> bool {
        false
    }
}

/// The activation rule of the Theorem 9 (NS impossibility) adversary:
/// activate every agent that would *not* move, plus the single would-be mover
/// that has been passive the longest (ties broken by id). Combined with
/// [`crate::adversary::BlockFirstMover`], no agent ever moves, yet every
/// agent is activated infinitely often.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstMoverOnly;

impl ActivationPolicy for FirstMoverOnly {
    fn name(&self) -> &'static str {
        "first-mover-only"
    }

    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>) {
        out.extend(view.alive().filter(|a| !a.predicted.is_move()).map(|a| a.id));
        let first_mover = view
            .alive()
            .filter(|a| a.predicted.is_move())
            .min_by_key(|a| (a.last_active_round, a.id));
        if let Some(mover) = first_mover {
            out.push(mover.id);
        }
    }
}

/// Wrapper enforcing the Eventual Transport fairness condition on top of any
/// inner policy: an agent that has been asleep on a port for at least
/// `max_lag` consecutive rounds is forcibly added to the active set.
///
/// With `max_lag = 0` every agent currently holding a port is activated in
/// every round, which guarantees the ET condition against *any* edge
/// adversary (the agent crosses in the first round its edge is present); a
/// positive lag leaves the adversary more room but only satisfies the ET
/// condition against adversaries whose blocking pattern is not synchronised
/// with the lag.
pub struct EtFairness {
    inner: Box<dyn ActivationPolicy>,
    max_lag: u64,
}

impl std::fmt::Debug for EtFairness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EtFairness")
            .field("inner", &self.inner.name())
            .field("max_lag", &self.max_lag)
            .finish()
    }
}

impl EtFairness {
    /// Wraps `inner`, forcing activation after `max_lag` rounds asleep on a
    /// port (`0` = activate every port holder in every round).
    #[must_use]
    pub fn new(inner: Box<dyn ActivationPolicy>, max_lag: u64) -> Self {
        EtFairness { inner, max_lag }
    }
}

impl ActivationPolicy for EtFairness {
    fn name(&self) -> &'static str {
        "et-fair"
    }

    fn select_into(&mut self, view: &RoundView<'_>, out: &mut Vec<AgentId>) {
        self.inner.select_into(view, out);
        for agent in view.alive() {
            if agent.held_port.is_some()
                && agent.asleep_on_port >= self.max_lag
                && !out.contains(&agent.id)
            {
                out.push(agent.id);
            }
        }
    }

    fn needs_predictions(&self) -> bool {
        self.inner.needs_predictions()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn state_token(&self) -> Option<u64> {
        self.inner.state_token()
    }

    fn restore_state(&mut self, token: u64) {
        self.inner.restore_state(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{AgentView, PredictedAction};
    use dynring_graph::{EdgeId, GlobalDirection, Handedness, NodeId, RingTopology};

    fn agent_view(id: usize, moves: bool, last_active: u64, asleep: u64) -> AgentView {
        AgentView {
            id: AgentId::new(id),
            node: NodeId::new(0),
            held_port: if asleep > 0 { Some(GlobalDirection::Ccw) } else { None },
            terminated: false,
            handedness: Handedness::LeftIsCcw,
            predicted: if moves {
                PredictedAction::Move { edge: EdgeId::new(0), direction: GlobalDirection::Ccw }
            } else {
                PredictedAction::Stay
            },
            last_active_round: last_active,
            asleep_on_port: asleep,
            moves: 0,
        }
    }

    fn view<'a>(ring: &'a RingTopology, visited: &'a [bool], agents: Vec<AgentView>) -> RoundView<'a> {
        RoundView { round: 1, ring, agents: agents.into(), visited }
    }

    fn select(policy: &mut impl ActivationPolicy, view: &RoundView<'_>) -> Vec<AgentId> {
        let mut out = Vec::new();
        policy.select_into(view, &mut out);
        out
    }

    #[test]
    fn full_activation_selects_everyone_alive() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let mut agents = vec![agent_view(0, true, 0, 0), agent_view(1, false, 0, 0)];
        agents[1].terminated = true;
        let v = view(&ring, &visited, agents);
        assert_eq!(select(&mut FullActivation, &v), vec![AgentId::new(0)]);
    }

    #[test]
    fn round_robin_cycles_through_agents() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let agents = vec![agent_view(0, true, 0, 0), agent_view(1, true, 0, 0), agent_view(2, true, 0, 0)];
        let v = view(&ring, &visited, agents);
        let mut rr = RoundRobinSingle::new();
        let picks: Vec<_> = (0..6).map(|_| select(&mut rr, &v)[0].index()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_subset_is_never_empty_and_deterministic_per_seed() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let agents = vec![agent_view(0, true, 0, 0), agent_view(1, true, 0, 0)];
        let v = view(&ring, &visited, agents);
        let mut a = RandomSubset::new(0.3, 42);
        let mut b = RandomSubset::new(0.3, 42);
        for _ in 0..50 {
            let sa = select(&mut a, &v);
            let sb = select(&mut b, &v);
            assert!(!sa.is_empty());
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn first_mover_only_activates_non_movers_plus_oldest_mover() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let agents = vec![
            agent_view(0, true, 5, 0),
            agent_view(1, true, 2, 0), // mover, passive the longest
            agent_view(2, false, 9, 0),
        ];
        let v = view(&ring, &visited, agents);
        let mut p = FirstMoverOnly;
        let chosen = select(&mut p, &v);
        assert!(chosen.contains(&AgentId::new(2)));
        assert!(chosen.contains(&AgentId::new(1)));
        assert!(!chosen.contains(&AgentId::new(0)));
    }

    #[test]
    fn et_fairness_forces_long_sleepers_awake() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let agents = vec![agent_view(0, true, 0, 0), agent_view(1, true, 0, 7)];
        let v = view(&ring, &visited, agents);
        // Inner policy that always picks agent 0 only.
        #[derive(Debug)]
        struct OnlyZero;
        impl ActivationPolicy for OnlyZero {
            fn name(&self) -> &'static str {
                "only-zero"
            }
            fn select_into(&mut self, _view: &RoundView<'_>, out: &mut Vec<AgentId>) {
                out.push(AgentId::new(0));
            }
        }
        let mut p = EtFairness::new(Box::new(OnlyZero), 5);
        let chosen = select(&mut p, &v);
        assert!(chosen.contains(&AgentId::new(0)));
        assert!(chosen.contains(&AgentId::new(1)), "sleeper past the lag must be woken");
    }

    #[test]
    fn alternate_blocked_keeps_port_waiters_asleep() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let agents = vec![agent_view(0, true, 0, 2), agent_view(1, true, 0, 0)];
        let v = view(&ring, &visited, agents);
        let mut p = AlternateBlocked::new(10);
        assert_eq!(select(&mut p, &v), vec![AgentId::new(1)]);
        // Once the sleeper exceeds the holding limit it is activated again.
        let agents = vec![agent_view(0, true, 0, 12), agent_view(1, true, 0, 0)];
        let v = view(&ring, &visited, agents);
        let chosen = select(&mut p, &v);
        assert!(chosen.contains(&AgentId::new(0)));
    }

    #[test]
    fn state_tokens_round_trip_where_supported() {
        let ring = RingTopology::new(4).unwrap();
        let visited = vec![false; 4];
        let agents =
            vec![agent_view(0, true, 0, 0), agent_view(1, true, 0, 0), agent_view(2, true, 0, 0)];
        let v = view(&ring, &visited, agents);
        // Round-robin: capture mid-rotation, advance, restore, and the
        // rotation must resume from the captured cursor.
        let mut rr = RoundRobinSingle::new();
        let _ = select(&mut rr, &v);
        let token = rr.state_token().expect("round-robin is checkpointable");
        let next: Vec<_> = (0..3).map(|_| select(&mut rr, &v)[0].index()).collect();
        rr.restore_state(token);
        let replay: Vec<_> = (0..3).map(|_| select(&mut rr, &v)[0].index()).collect();
        assert_eq!(next, replay);
        // Stateless policies are trivially checkpointable; random ones refuse.
        assert!(FullActivation.state_token().is_some());
        assert!(FirstMoverOnly.state_token().is_some());
        assert!(AlternateBlocked::new(2).state_token().is_some());
        assert!(RandomSubset::new(0.5, 1).state_token().is_none());
        // The ET wrapper forwards to its inner policy.
        assert!(EtFairness::new(Box::new(RandomSubset::new(0.5, 1)), 1).state_token().is_none());
        let mut wrapped = EtFairness::new(Box::new(RoundRobinSingle::new()), 1);
        let _ = select(&mut wrapped, &v);
        assert_eq!(wrapped.state_token(), Some(1));
        wrapped.restore_state(0);
        assert_eq!(wrapped.state_token(), Some(0));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FullActivation.name(), "fsync");
        assert_eq!(RoundRobinSingle::new().name(), "round-robin-single");
        assert_eq!(RandomSubset::new(0.5, 1).name(), "random-subset");
        assert_eq!(FirstMoverOnly.name(), "first-mover-only");
        assert_eq!(AlternateBlocked::new(3).name(), "sleep-blocked");
    }
}
