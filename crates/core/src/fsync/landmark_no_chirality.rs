//! Algorithms `StartFromLandmarkNoChirality` (Figure 8, Theorem 7) and
//! `LandmarkNoChirality` (Figure 13, Theorem 8).
//!
//! Two anonymous agents **without chirality** on a ring with a landmark:
//! exploration with explicit termination in `O(n log n)` rounds. The
//! difficulty is the symmetric case in which the agents move in opposite
//! directions forever; it is broken by deriving (with high reliability)
//! distinct identifiers from the rounds at which each agent was blocked
//! ([`super::ident`]) and then following identifier-dependent direction
//! sequences ([`super::dirseq`]) that guarantee a long common-direction
//! window (Lemma 3).
//!
//! The same type implements both figures: [`LandmarkNoChirality::new`] is the
//! arbitrary-start algorithm of Figure 13 and
//! [`LandmarkNoChirality::starting_from_landmark`] the Figure 8 variant (used
//! when both agents are known to start on the landmark).
//!
//! If at any point the agents catch each other they fall back to the
//! role-based `Bounce`/`Return`/`Forward`/`BComm`/`FComm` machinery of
//! Figure 4, expressed relative to the direction of travel at the moment of
//! the catch (the paper states the two cases are "the same as in Algorithm
//! `LandmarkWithChirality`").

use crate::counters::{direction_from_key, read_code, read_direction, Counters};
use crate::fsync::dirseq::DirectionSequence;
use crate::fsync::ident::AgentIdentifier;
use dynring_model::statekey::KeyReader;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// States of Figures 8 and 13 (`Ready` is transient and therefore not
/// represented: it is processed within the round that enters it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LnState {
    /// `Init` (arbitrary start) or `InitL` (start from the landmark).
    Init,
    /// `FirstBlock` / `FirstBlockL`: reversed direction after the first block.
    FirstBlock,
    /// `AtLandmark` / `AtLandmarkL`: reached the landmark after the first block.
    AtLandmark,
    /// Waiting one round at the landmark to confirm a simultaneous arrival.
    AtLandmarkWait,
    /// The agent knows `n` (it closed a loop around the landmark) and simply
    /// waits out the global time bound.
    Happy,
    /// Following the identifier-driven direction sequence.
    Reverse,
    /// Role B of the Figure 4 block (moving away from F).
    Bounce,
    /// Role B of the Figure 4 block (moving back towards F).
    Return,
    /// Role F of the Figure 4 block.
    Forward,
    /// B signalled termination; terminate next round.
    BCommSignal,
    /// B waits one round for F's answer.
    BCommWait,
    /// F signalled that it knows the size; terminate next round.
    FCommSignal,
    /// F waits one round for B's answer.
    FCommWait,
    /// Terminal state.
    Terminate,
}

/// Algorithm `LandmarkNoChirality` (Figure 13) /
/// `StartFromLandmarkNoChirality` (Figure 8).
///
/// ```
/// use dynring_core::fsync::LandmarkNoChirality;
/// use dynring_model::{Protocol, TerminationKind};
///
/// let agent = LandmarkNoChirality::new();
/// assert_eq!(agent.termination_kind(), TerminationKind::Explicit);
/// assert_eq!(agent.name(), "LandmarkNoChirality");
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::LandmarkNoChirality`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LandmarkNoChirality {
    state: LnState,
    /// Whether the current `Init`/`FirstBlock`/`AtLandmark` states are the
    /// `…L` (started-at-the-landmark) variants of Figure 8.
    landmark_phase: bool,
    dir: LocalDirection,
    k1: u64,
    k3: u64,
    identifier: Option<AgentIdentifier>,
    sequence: Option<DirectionSequence>,
    /// Direction of travel at the moment of the first catch; the Figure 4
    /// block is expressed relative to it.
    fwd: Option<LocalDirection>,
    bounce_steps: Option<u64>,
    return_steps: Option<u64>,
    counters: Counters,
}

// Manual `Clone` so that `clone_from` forwards to the capacity-reusing
// `clone_from` of the identifier and direction sequence instead of
// reallocating them (see `CatalogProtocol::clone_from`).
impl Clone for LandmarkNoChirality {
    fn clone(&self) -> Self {
        LandmarkNoChirality {
            state: self.state,
            landmark_phase: self.landmark_phase,
            dir: self.dir,
            k1: self.k1,
            k3: self.k3,
            identifier: self.identifier.clone(),
            sequence: self.sequence.clone(),
            fwd: self.fwd,
            bounce_steps: self.bounce_steps,
            return_steps: self.return_steps,
            counters: self.counters.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.state = source.state;
        self.landmark_phase = source.landmark_phase;
        self.dir = source.dir;
        self.k1 = source.k1;
        self.k3 = source.k3;
        // `Option::clone_from` forwards to the inner `clone_from` when both
        // sides are `Some`, reusing the existing heap buffers.
        self.identifier.clone_from(&source.identifier);
        self.sequence.clone_from(&source.sequence);
        self.fwd = source.fwd;
        self.bounce_steps = source.bounce_steps;
        self.return_steps = source.return_steps;
        self.counters = source.counters.clone();
    }
}

impl Default for LandmarkNoChirality {
    fn default() -> Self {
        Self::new()
    }
}

impl LandmarkNoChirality {
    /// Figure 13: agents start at arbitrary nodes.
    #[must_use]
    pub fn new() -> Self {
        Self::with_phase(false)
    }

    /// Figure 8: both agents are known to start at the landmark.
    #[must_use]
    pub fn starting_from_landmark() -> Self {
        Self::with_phase(true)
    }

    fn with_phase(landmark_phase: bool) -> Self {
        LandmarkNoChirality {
            state: LnState::Init,
            landmark_phase,
            dir: LocalDirection::Left,
            k1: 0,
            k3: 0,
            identifier: None,
            sequence: None,
            fwd: None,
            bounce_steps: None,
            return_steps: None,
            counters: Counters::new(),
        }
    }

    /// The agent's current state.
    #[must_use]
    pub const fn state(&self) -> LnState {
        self.state
    }

    /// The identifier computed in state `Ready`, if any.
    #[must_use]
    pub const fn identifier(&self) -> Option<&AgentIdentifier> {
        self.identifier.as_ref()
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The global termination bound `32·((3·⌈log n⌉ + 3)·5·n)` of Figure 8.
    #[must_use]
    pub fn termination_bound(ring_size: u64) -> u64 {
        let log = ceil_log2(ring_size);
        32 * ((3 * log + 3) * 5 * ring_size)
    }

    fn knows_size(&self) -> bool {
        self.counters.knows_size()
    }

    fn current_round(&self) -> u64 {
        // Under FSYNC the agent's completed-activation count equals the
        // number of completed rounds; the current round is one more.
        self.counters.ttime() + 1
    }

    // ------------------------------------------------------------------
    // Figure 4 block, relative to the direction of travel at the catch.
    // ------------------------------------------------------------------

    fn forward_dir(&self) -> LocalDirection {
        self.fwd.unwrap_or(LocalDirection::Left)
    }

    fn bounce_dir(&self) -> LocalDirection {
        self.forward_dir().opposite()
    }

    fn enter_bounce(&mut self) -> Decision {
        if self.fwd.is_none() {
            self.fwd = Some(self.dir);
        }
        self.state = LnState::Bounce;
        self.counters.reset_explore();
        Decision::Move(self.bounce_dir())
    }

    fn enter_forward(&mut self) -> Decision {
        if self.fwd.is_none() {
            self.fwd = Some(self.dir);
        }
        self.state = LnState::Forward;
        self.counters.reset_explore();
        Decision::Move(self.forward_dir())
    }

    fn enter_return(&mut self) -> Decision {
        self.bounce_steps = Some(self.counters.esteps());
        self.state = LnState::Return;
        self.counters.reset_explore();
        Decision::Move(self.forward_dir())
    }

    fn enter_terminate(&mut self) -> Decision {
        self.state = LnState::Terminate;
        Decision::Terminate
    }

    fn enter_bcomm(&mut self) -> Decision {
        let return_steps = self.counters.esteps();
        self.return_steps = Some(return_steps);
        let same_edge = self.bounce_steps.is_some_and(|b| return_steps <= 2 * b);
        if same_edge || self.knows_size() {
            self.state = LnState::BCommSignal;
            Decision::Move(self.bounce_dir())
        } else {
            self.state = LnState::BCommWait;
            Decision::Stay
        }
    }

    fn enter_fcomm(&mut self) -> Decision {
        if self.knows_size() {
            self.state = LnState::FCommSignal;
            Decision::Move(self.forward_dir())
        } else {
            self.state = LnState::FCommWait;
            Decision::Retreat
        }
    }

    fn catch_block_step(&mut self, snapshot: &Snapshot) -> Decision {
        let ntime = self.counters.ntime();
        let size = self.counters.known_size();
        match self.state {
            LnState::Bounce => {
                if snapshot.meeting() {
                    return self.enter_terminate();
                }
                if self.counters.etime() > 2 * self.counters.esteps() || ntime > 0 {
                    return self.enter_return();
                }
                if snapshot.catches(self.bounce_dir()) {
                    return self.enter_bcomm();
                }
                Decision::Move(self.bounce_dir())
            }
            LnState::Return => {
                if size.is_some_and(|n| ntime > 3 * n) || snapshot.caught() {
                    return self.enter_terminate();
                }
                if snapshot.catches(self.forward_dir()) {
                    return self.enter_bcomm();
                }
                Decision::Move(self.forward_dir())
            }
            LnState::Forward => {
                if size.is_some_and(|n| ntime >= 7 * n)
                    || snapshot.meeting()
                    || snapshot.catches(self.forward_dir())
                {
                    return self.enter_terminate();
                }
                if snapshot.caught() {
                    return self.enter_fcomm();
                }
                Decision::Move(self.forward_dir())
            }
            LnState::BCommSignal | LnState::FCommSignal => self.enter_terminate(),
            LnState::BCommWait => {
                if snapshot.occupancy.in_node > 0 {
                    self.state = LnState::Bounce;
                    self.counters.reset_explore();
                    Decision::Move(self.bounce_dir())
                } else {
                    self.enter_terminate()
                }
            }
            LnState::FCommWait => {
                if snapshot.occupancy.in_node > 0 {
                    self.state = LnState::Forward;
                    self.counters.reset_explore();
                    Decision::Move(self.forward_dir())
                } else {
                    self.enter_terminate()
                }
            }
            _ => unreachable!("catch_block_step called in state {:?}", self.state),
        }
    }

    // ------------------------------------------------------------------
    // Pre-catch states of Figures 8 / 13.
    // ------------------------------------------------------------------

    fn enter_happy(&mut self) -> Decision {
        self.state = LnState::Happy;
        self.counters.reset_explore();
        Decision::Move(self.dir)
    }

    fn enter_first_block(&mut self) -> Decision {
        self.dir = LocalDirection::Right;
        self.k1 = if self.landmark_phase {
            self.counters.ttime().saturating_sub(1)
        } else {
            self.counters.ttime()
        };
        self.state = LnState::FirstBlock;
        self.counters.reset_explore();
        Decision::Move(self.dir)
    }

    fn enter_at_landmark(&mut self, snapshot: &Snapshot) -> Decision {
        self.k3 = self.counters.etime();
        self.counters.reset_explore();
        if snapshot.is_landmark && snapshot.occupancy.in_node > 0 {
            // A possible simultaneous arrival: wait one round to confirm.
            self.state = LnState::AtLandmarkWait;
            Decision::Stay
        } else {
            self.state = LnState::AtLandmark;
            Decision::Move(self.dir)
        }
    }

    /// State `Ready`: compute the identifier and start the direction
    /// sequence, processing state `Reverse` in the same round.
    fn enter_ready(&mut self) -> Decision {
        let k2 = self.counters.etime();
        let id = AgentIdentifier::from_counters(self.k1, k2, self.k3);
        self.sequence = Some(DirectionSequence::new(id.value()));
        self.identifier = Some(id);
        self.state = LnState::Reverse;
        self.counters.reset_explore();
        self.dir = self
            .sequence
            .as_ref()
            .expect("sequence was just installed")
            .direction(self.current_round());
        Decision::Move(self.dir)
    }

    fn enter_restart_at_landmark(&mut self) -> Decision {
        // Figure 13: both agents met at the landmark while establishing their
        // identifiers; restart as if they had started there (state `InitL`).
        self.landmark_phase = true;
        self.dir = LocalDirection::Left;
        self.k1 = 0;
        self.k3 = 0;
        self.identifier = None;
        self.sequence = None;
        self.state = LnState::Init;
        self.counters.reset_explore();
        Decision::Move(self.dir)
    }

    fn pre_catch_step(&mut self, snapshot: &Snapshot) -> Decision {
        match self.state {
            // NOTE: the catch predicates are evaluated before the `Btime > 0`
            // transitions. Figure 8/13 lists `Btime > 0` first, but Section
            // 3.2.3 states that "if at any point the agents catch each other,
            // they enter states Forward and Bounce and proceed with Algorithm
            // LandmarkWithChirality"; since a caught agent is by definition
            // blocked, the literal predicate order would make `caught`
            // unreachable and break the BComm/FComm pairing, so the prose is
            // followed here.
            LnState::Init => {
                if self.knows_size() {
                    return self.enter_happy();
                }
                if snapshot.catches(self.dir) {
                    return self.enter_bounce();
                }
                if snapshot.caught() {
                    return self.enter_forward();
                }
                if self.counters.btime() > 0 {
                    return self.enter_first_block();
                }
                Decision::Move(self.dir)
            }
            LnState::FirstBlock => {
                if self.knows_size() {
                    return self.enter_happy();
                }
                if snapshot.catches(self.dir) {
                    return self.enter_bounce();
                }
                if snapshot.caught() {
                    return self.enter_forward();
                }
                if snapshot.is_landmark {
                    return self.enter_at_landmark(snapshot);
                }
                if self.counters.btime() > 0 {
                    return self.enter_ready();
                }
                Decision::Move(self.dir)
            }
            LnState::AtLandmark => {
                if self.knows_size() {
                    return self.enter_happy();
                }
                if snapshot.catches(self.dir) {
                    return self.enter_bounce();
                }
                if snapshot.caught() {
                    return self.enter_forward();
                }
                if self.counters.btime() > 0 {
                    return self.enter_ready();
                }
                Decision::Move(self.dir)
            }
            LnState::AtLandmarkWait => {
                if snapshot.is_landmark && snapshot.occupancy.in_node > 0 {
                    if self.landmark_phase {
                        // Figure 8: both agents bounced off the same edge and
                        // returned together — the ring is explored.
                        return self.enter_terminate();
                    }
                    return self.enter_restart_at_landmark();
                }
                self.state = LnState::AtLandmark;
                Decision::Move(self.dir)
            }
            LnState::Happy => {
                let bound = self
                    .counters
                    .known_size()
                    .map(Self::termination_bound)
                    .expect("Happy is only entered once n is known");
                if self.counters.ttime() > bound {
                    return self.enter_terminate();
                }
                if snapshot.catches(self.dir) {
                    return self.enter_bounce();
                }
                if snapshot.caught() {
                    return self.enter_forward();
                }
                Decision::Move(self.dir)
            }
            LnState::Reverse => {
                if self.knows_size() {
                    let bound = Self::termination_bound(
                        self.counters.known_size().expect("size is known"),
                    );
                    if self.counters.ttime() >= bound {
                        return self.enter_terminate();
                    }
                    if snapshot.catches(self.dir) {
                        return self.enter_bounce();
                    }
                    if snapshot.caught() {
                        return self.enter_forward();
                    }
                    return Decision::Move(self.dir);
                }
                // NOTE: the catch predicates take priority over the scheduled
                // direction switch. Figure 8 lists `switch(Ttime)` first, but
                // if a caught agent ignored the catch for one round its
                // partner would enter BComm without a matching FComm and the
                // termination handshake of Figure 4 would break; Section 3.2.3
                // states that a catch always moves the agents to the
                // Forward/Bounce pair, which is what is implemented here.
                if snapshot.catches(self.dir) {
                    return self.enter_bounce();
                }
                if snapshot.caught() {
                    return self.enter_forward();
                }
                let round = self.current_round();
                let switches = self
                    .sequence
                    .as_ref()
                    .expect("Reverse is only entered after the sequence is set")
                    .switches_at(round);
                if switches {
                    self.dir = self
                        .sequence
                        .as_ref()
                        .expect("sequence is set")
                        .direction(round);
                    self.counters.reset_explore();
                    return Decision::Move(self.dir);
                }
                Decision::Move(self.dir)
            }
            _ => unreachable!("pre_catch_step called in state {:?}", self.state),
        }
    }

    fn step(&mut self, snapshot: &Snapshot) -> Decision {
        match self.state {
            LnState::Init
            | LnState::FirstBlock
            | LnState::AtLandmark
            | LnState::AtLandmarkWait
            | LnState::Happy
            | LnState::Reverse => self.pre_catch_step(snapshot),
            LnState::Terminate => Decision::Terminate,
            _ => self.catch_block_step(snapshot),
        }
    }
}

/// `⌈log₂ value⌉` for `value ≥ 1` (0 for `value ≤ 1`).
fn ceil_log2(value: u64) -> u64 {
    if value <= 1 {
        return 0;
    }
    64 - (value - 1).leading_zeros() as u64
}

impl Protocol for LandmarkNoChirality {
    fn name(&self) -> &'static str {
        if self.landmark_phase {
            "StartFromLandmarkNoChirality"
        } else {
            "LandmarkNoChirality"
        }
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Explicit
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        let decision = self.step(snapshot);
        self.counters.record_decision(decision);
        decision
    }

    fn has_terminated(&self) -> bool {
        self.state == LnState::Terminate
    }

    fn state_label(&self) -> String {
        format!(
            "{:?}(dir={},id={:?},n={:?})",
            self.state,
            self.dir,
            self.identifier.as_ref().map(AgentIdentifier::value),
            self.counters.known_size()
        )
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        use dynring_model::statekey::{push_opt_u64, push_u64};
        out.push(self.state as u8);
        out.push(u8::from(self.landmark_phase));
        out.push(crate::counters::direction_key(Some(self.dir)));
        push_u64(out, self.k1);
        push_u64(out, self.k3);
        match &self.identifier {
            Some(id) => {
                out.push(1);
                id.write_state_key(out);
            }
            None => out.push(0),
        }
        match &self.sequence {
            Some(seq) => {
                out.push(1);
                seq.write_state_key(out);
            }
            None => out.push(0),
        }
        out.push(crate::counters::direction_key(self.fwd));
        push_opt_u64(out, self.bounce_steps);
        push_opt_u64(out, self.return_steps);
        self.counters.write_state_key(out);
    }
}

impl LandmarkNoChirality {
    /// Overwrites the state with the one `write_state_key` wrote to `key`.
    /// An identifier or direction sequence already held is rebuilt in
    /// place, so its heap buffer is reused.
    pub(crate) fn read_state_key(&mut self, key: &mut KeyReader<'_>) {
        let states = [
            LnState::Init,
            LnState::FirstBlock,
            LnState::AtLandmark,
            LnState::AtLandmarkWait,
            LnState::Happy,
            LnState::Reverse,
            LnState::Bounce,
            LnState::Return,
            LnState::Forward,
            LnState::BCommSignal,
            LnState::BCommWait,
            LnState::FCommSignal,
            LnState::FCommWait,
            LnState::Terminate,
        ];
        // A state's key byte is its index in declaration order.
        self.state = read_code(key, &states);
        self.landmark_phase = key.present();
        self.dir = read_direction(key);
        self.k1 = key.u64();
        self.k3 = key.u64();
        if key.present() {
            self.identifier
                .get_or_insert_with(|| AgentIdentifier::from_counters(0, 0, 0))
                .read_state_key(key);
        } else {
            self.identifier = None;
        }
        if key.present() {
            self.sequence.get_or_insert_with(|| DirectionSequence::new(0)).read_state_key(key);
        } else {
            self.sequence = None;
        }
        self.fwd = direction_from_key(key.byte());
        self.bounce_steps = key.opt_u64();
        self.return_steps = key.opt_u64();
        self.counters.read_state_key(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::{LocalPosition, NodeOccupancy, PriorOutcome};

    fn plain(prior: PriorOutcome, landmark: bool) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: landmark,
            occupancy: NodeOccupancy::default(),
            prior,
            round_hint: None,
        }
    }

    fn blocked(landmark: bool) -> Snapshot {
        Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Left),
            is_landmark: landmark,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn termination_bound_matches_formula() {
        // n = 8: 32 * ((3*3 + 3) * 5 * 8) = 32 * 480 = 15360
        assert_eq!(LandmarkNoChirality::termination_bound(8), 15360);
    }

    #[test]
    fn starts_left_and_reverses_after_first_block() {
        let mut a = LandmarkNoChirality::new();
        assert_eq!(a.decide(&plain(PriorOutcome::Idle, true)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LnState::Init);
        // Blocked once: at the next activation Btime > 0, the agent records
        // k1 and reverses to the right.
        assert_eq!(a.decide(&blocked(true)), Decision::Move(LocalDirection::Right));
        assert_eq!(a.state(), LnState::FirstBlock);
    }

    #[test]
    fn second_block_computes_identifier_and_starts_sequence() {
        let mut a = LandmarkNoChirality::starting_from_landmark();
        let _ = a.decide(&plain(PriorOutcome::Idle, true));
        let _ = a.decide(&blocked(true)); // -> FirstBlock, k1 recorded
        // A couple of successful right moves, then blocked again.
        let _ = a.decide(&plain(PriorOutcome::Moved, false));
        let _ = a.decide(&plain(PriorOutcome::Moved, false));
        let d = a.decide(&Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Right),
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        });
        assert_eq!(a.state(), LnState::Reverse);
        assert!(a.identifier().is_some());
        assert!(d.is_move());
    }

    #[test]
    fn crossing_the_landmark_between_blocks_sets_k3() {
        let mut a = LandmarkNoChirality::new();
        let _ = a.decide(&plain(PriorOutcome::Idle, false));
        let _ = a.decide(&blocked(false)); // -> FirstBlock
        let _ = a.decide(&plain(PriorOutcome::Moved, false));
        // Arrive at the landmark: k3 is recorded, state AtLandmark.
        let d = a.decide(&plain(PriorOutcome::Moved, true));
        assert_eq!(a.state(), LnState::AtLandmark);
        assert!(d.is_move());
        // Second block: identifier computed with k3 > 0.
        let _ = a.decide(&plain(PriorOutcome::Moved, false));
        let _ = a.decide(&Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Right),
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        });
        assert_eq!(a.state(), LnState::Reverse);
        let id = a.identifier().expect("identifier must be computed");
        assert!(id.k3() > 0, "k3 should record the landmark crossing, got {id}");
    }

    #[test]
    fn learning_n_switches_to_happy_and_eventually_terminates() {
        let n = 4u64;
        let mut a = LandmarkNoChirality::new();
        // Walk left around the ring (landmark every n steps), never blocked.
        let mut pos = 0i64;
        let mut decision = a.decide(&plain(PriorOutcome::Idle, true));
        let mut rounds = 1u64;
        let bound = LandmarkNoChirality::termination_bound(n) + 16;
        while decision != Decision::Terminate {
            match decision {
                Decision::Move(LocalDirection::Left) => pos -= 1,
                Decision::Move(LocalDirection::Right) => pos += 1,
                other => panic!("unexpected decision {other:?}"),
            }
            let at_landmark = pos.rem_euclid(n as i64) == 0;
            decision = a.decide(&plain(PriorOutcome::Moved, at_landmark));
            rounds += 1;
            assert!(rounds < bound + 10, "agent did not terminate within the bound");
        }
        assert!(a.has_terminated());
        assert_eq!(a.counters().known_size(), Some(n));
        assert!(rounds <= bound + 2, "terminated at {rounds}, bound {bound}");
    }

    #[test]
    fn simultaneous_landmark_arrival_terminates_in_the_landmark_start_variant() {
        // Figure 12: both agents bounce off the same missing edge and return
        // to the landmark at the same time — they confirm over one waiting
        // round and terminate.
        let mut a = LandmarkNoChirality::starting_from_landmark();
        let _ = a.decide(&plain(PriorOutcome::Idle, true)); // at the landmark, go left
        let _ = a.decide(&plain(PriorOutcome::Moved, false)); // one step away
        let _ = a.decide(&blocked(false)); // blocked: reverse (FirstBlock, right)
        // Arrive back at the landmark together with the other agent.
        let both_here = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: true,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&both_here), Decision::Stay);
        assert_eq!(a.state(), LnState::AtLandmarkWait);
        // Still together one round later: terminate.
        assert_eq!(a.decide(&both_here), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn simultaneous_landmark_arrival_restarts_in_the_arbitrary_start_variant() {
        let mut a = LandmarkNoChirality::new();
        let _ = a.decide(&plain(PriorOutcome::Idle, false));
        let _ = a.decide(&blocked(false)); // -> FirstBlock (right)
        // First landmark sighting happens together with the other agent.
        let both_here = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: true,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&both_here), Decision::Stay);
        assert_eq!(a.state(), LnState::AtLandmarkWait);
        // Still together: restart as StartFromLandmarkNoChirality.
        assert_eq!(a.decide(&both_here), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LnState::Init);
        assert_eq!(a.name(), "StartFromLandmarkNoChirality");
    }

    #[test]
    fn catching_enters_the_figure4_block_relative_to_the_travel_direction() {
        let mut a = LandmarkNoChirality::new();
        let _ = a.decide(&plain(PriorOutcome::Idle, false));
        let _ = a.decide(&blocked(false)); // now moving right (FirstBlock)
        // Catch the other agent on the right port while moving right: bounce
        // away, i.e. to the left.
        let catch_right = Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 0, on_left_port: 0, on_right_port: 1 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        };
        assert_eq!(a.decide(&catch_right), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LnState::Bounce);
    }

    #[test]
    fn being_caught_keeps_the_travel_direction() {
        let mut a = LandmarkNoChirality::new();
        let _ = a.decide(&plain(PriorOutcome::Idle, false));
        // Caught while moving left in Init.
        let caught = Snapshot {
            position: LocalPosition::OnPort(LocalDirection::Left),
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::BlockedOnPort,
            round_hint: None,
        };
        assert_eq!(a.decide(&caught), Decision::Move(LocalDirection::Left));
        assert_eq!(a.state(), LnState::Forward);
    }

    #[test]
    fn never_terminates_before_exploring_when_alone_and_unobstructed() {
        // Defensive check: with no landmark sighting and no block, the agent
        // keeps moving (it can never spuriously terminate).
        let mut a = LandmarkNoChirality::new();
        let mut d = a.decide(&plain(PriorOutcome::Idle, false));
        for _ in 0..500 {
            assert!(d.is_move(), "agent stopped unexpectedly: {d:?}");
            d = a.decide(&plain(PriorOutcome::Moved, false));
        }
    }
}
