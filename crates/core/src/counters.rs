//! The bookkeeping variables maintained by every algorithm.
//!
//! Section 3 of the paper defines the variables `Ttime`, `Tsteps`, `Etime`,
//! `Esteps` and `Btime`; the landmark algorithms (procedure `LExplore`) add
//! `Ntime`, the learned ring size and the distance from the landmark, and the
//! SSYNC algorithms add `Tnodes`. [`Counters`] maintains all of them from the
//! only information an agent legitimately has: the outcome of its own
//! previous attempt (the `prior` field of the [`Snapshot`]) and the landmark
//! flag of the node it stands on.
//!
//! # Conventions
//!
//! * All time counters count *completed activations*: at the moment a
//!   protocol evaluates its predicates in round `t`, `Ttime = t − 1` under
//!   FSYNC (the agent has been through `t − 1` full rounds). Under SSYNC the
//!   counters count the agent's own activations, which is all it can observe.
//! * `Tnodes` is the number of *distinct nodes the agent can soundly claim to
//!   have visited*: the length of the interval of net offsets it has
//!   occupied (`max − min + 1`). If the walk wrapped around the ring this
//!   over-counts, but in that case the ring is explored anyway, so every
//!   termination test of the form `Tnodes ≥ bound` stays sound.
//! * The ring size is learned (Procedure `LExplore`) the first time the agent
//!   stands on the landmark with a net offset different from the offset of
//!   its first landmark visit; the absolute difference is exactly `n`.

use dynring_model::{Decision, LocalDirection, PriorOutcome, Snapshot};
use serde::{Deserialize, Serialize};

/// Per-agent bookkeeping shared by all algorithms of the paper.
///
/// Call [`Counters::absorb`] at the very beginning of every
/// [`Protocol::decide`](dynring_model::Protocol::decide) invocation and
/// [`Counters::record_decision`] just before returning, so the next
/// activation can interpret its `prior` outcome.
///
/// ```
/// use dynring_core::Counters;
/// use dynring_model::{Decision, LocalDirection, LocalPosition, NodeOccupancy, PriorOutcome, Snapshot};
///
/// let mut c = Counters::new();
/// let mut snap = Snapshot {
///     position: LocalPosition::InNode,
///     is_landmark: false,
///     occupancy: NodeOccupancy::default(),
///     prior: PriorOutcome::Idle,
///     round_hint: None,
/// };
/// c.absorb(&snap);
/// c.record_decision(Decision::Move(LocalDirection::Right));
/// snap.prior = PriorOutcome::Moved;
/// c.absorb(&snap);
/// assert_eq!(c.tsteps(), 1);
/// assert_eq!(c.tnodes(), 2);
/// assert_eq!(c.ttime(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Counters {
    activated: bool,
    ttime: u64,
    tsteps: u64,
    etime: u64,
    esteps: u64,
    btime: u64,
    ntime: u64,
    offset: i64,
    min_offset: i64,
    max_offset: i64,
    landmark_ref: Option<i64>,
    known_size: Option<u64>,
    last_attempt: Option<LocalDirection>,
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    /// Fresh counters for an agent that has not yet been activated.
    #[must_use]
    pub fn new() -> Self {
        Counters {
            activated: false,
            ttime: 0,
            tsteps: 0,
            etime: 0,
            esteps: 0,
            btime: 0,
            ntime: 0,
            offset: 0,
            min_offset: 0,
            max_offset: 0,
            landmark_ref: None,
            known_size: None,
            last_attempt: None,
        }
    }

    /// Processes the outcome of the previous activation and the landmark flag
    /// of the current node. Must be called exactly once per activation,
    /// before any predicate is evaluated.
    pub fn absorb(&mut self, snapshot: &Snapshot) {
        if self.activated {
            self.ttime += 1;
            self.etime += 1;
            if self.known_size.is_some() {
                self.ntime += 1;
            }
        } else {
            self.activated = true;
        }

        match snapshot.prior {
            PriorOutcome::Moved | PriorOutcome::Transported => {
                if let Some(dir) = self.last_attempt {
                    self.apply_step(dir);
                }
                self.btime = 0;
            }
            PriorOutcome::BlockedOnPort => {
                self.btime += 1;
            }
            PriorOutcome::PortAcquisitionFailed => {
                self.btime = 0;
            }
            PriorOutcome::Idle => {}
        }

        if snapshot.is_landmark {
            match self.landmark_ref {
                None => self.landmark_ref = Some(self.offset),
                Some(reference) => {
                    if self.known_size.is_none() && self.offset != reference {
                        self.known_size = Some(self.offset.abs_diff(reference));
                    }
                }
            }
        }
    }

    fn apply_step(&mut self, dir: LocalDirection) {
        let delta = match dir {
            LocalDirection::Right => 1,
            LocalDirection::Left => -1,
        };
        self.offset += delta;
        self.min_offset = self.min_offset.min(self.offset);
        self.max_offset = self.max_offset.max(self.offset);
        self.esteps += 1;
        self.tsteps += 1;
    }

    /// Records the decision returned by the current activation so that the
    /// outcome reported at the next activation can be attributed to the right
    /// direction of travel.
    pub fn record_decision(&mut self, decision: Decision) {
        match decision {
            Decision::Move(dir) => self.last_attempt = Some(dir),
            Decision::Retreat | Decision::Terminate => self.last_attempt = None,
            // `Stay` keeps a previously held port (and its direction), so a
            // later passive transport must still be attributed to it.
            Decision::Stay => {}
        }
    }

    /// Resets the per-`Explore` counters (`Etime`, `Esteps`). The paper calls
    /// this implicitly whenever a state change starts a new `Explore`.
    pub fn reset_explore(&mut self) {
        self.etime = 0;
        self.esteps = 0;
    }

    /// `Ttime` — completed activations since the beginning of the execution.
    #[must_use]
    pub const fn ttime(&self) -> u64 {
        self.ttime
    }

    /// `Tsteps` — successful edge traversals since the beginning (including
    /// passive transports).
    #[must_use]
    pub const fn tsteps(&self) -> u64 {
        self.tsteps
    }

    /// `Etime` — completed activations since the last `Explore` reset.
    #[must_use]
    pub const fn etime(&self) -> u64 {
        self.etime
    }

    /// `Esteps` — successful traversals since the last `Explore` reset.
    #[must_use]
    pub const fn esteps(&self) -> u64 {
        self.esteps
    }

    /// `Btime` — consecutive completed activations spent waiting on a port.
    #[must_use]
    pub const fn btime(&self) -> u64 {
        self.btime
    }

    /// `Ntime` — completed activations since the ring size was learned.
    #[must_use]
    pub const fn ntime(&self) -> u64 {
        self.ntime
    }

    /// `Tnodes` — number of distinct nodes the agent can soundly claim to
    /// have visited (length of its offset interval).
    #[must_use]
    pub fn tnodes(&self) -> u64 {
        (self.max_offset - self.min_offset) as u64 + 1
    }

    /// The agent's net offset (in local-`right` units) from its start node.
    #[must_use]
    pub const fn offset(&self) -> i64 {
        self.offset
    }

    /// The ring size, if the agent has learned it by completing a full loop
    /// around the landmark ("n is known" in the pseudo-code).
    #[must_use]
    pub const fn known_size(&self) -> Option<u64> {
        self.known_size
    }

    /// Whether the agent has learned the exact ring size.
    #[must_use]
    pub const fn knows_size(&self) -> bool {
        self.known_size.is_some()
    }

    /// Distance (in net offset) from the first landmark visit, if the
    /// landmark has been seen.
    #[must_use]
    pub fn distance_from_landmark(&self) -> Option<u64> {
        self.landmark_ref.map(|r| self.offset.abs_diff(r))
    }

    /// Whether the agent has ever stood on the landmark.
    #[must_use]
    pub const fn has_seen_landmark(&self) -> bool {
        self.landmark_ref.is_some()
    }

    /// Whether the agent has been activated at least once.
    #[must_use]
    pub const fn has_been_activated(&self) -> bool {
        self.activated
    }

    /// The direction of the last attempted move, if the last decision was a
    /// move (or a stay that kept a held port).
    #[must_use]
    pub const fn last_attempt(&self) -> Option<LocalDirection> {
        self.last_attempt
    }

    /// Appends a packed, injective encoding of every counter field to `out`
    /// (see [`dynring_model::statekey`]). Every field of the struct is
    /// emitted in a prefix-free encoding, so two `Counters` values serialise
    /// to the same bytes iff they are equal.
    pub fn write_state_key(&self, out: &mut Vec<u8>) {
        use dynring_model::statekey::{push_i64, push_opt_i64, push_opt_u64, push_u64};
        out.push(u8::from(self.activated));
        push_u64(out, self.ttime);
        push_u64(out, self.tsteps);
        push_u64(out, self.etime);
        push_u64(out, self.esteps);
        push_u64(out, self.btime);
        push_u64(out, self.ntime);
        push_i64(out, self.offset);
        push_i64(out, self.min_offset);
        push_i64(out, self.max_offset);
        push_opt_i64(out, self.landmark_ref);
        push_opt_u64(out, self.known_size);
        out.push(direction_key(self.last_attempt));
    }
}

/// Single-byte injective encoding of an optional local direction.
#[must_use]
pub(crate) fn direction_key(dir: Option<LocalDirection>) -> u8 {
    match dir {
        None => 0,
        Some(LocalDirection::Left) => 1,
        Some(LocalDirection::Right) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::{LocalPosition, NodeOccupancy};

    fn snap(prior: PriorOutcome, landmark: bool) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: landmark,
            occupancy: NodeOccupancy::default(),
            prior,
            round_hint: None,
        }
    }

    fn step(c: &mut Counters, dir: LocalDirection, prior_next: PriorOutcome, landmark: bool) {
        c.record_decision(Decision::Move(dir));
        c.absorb(&snap(prior_next, landmark));
    }

    #[test]
    fn first_activation_does_not_advance_time() {
        let mut c = Counters::new();
        assert!(!c.has_been_activated());
        c.absorb(&snap(PriorOutcome::Idle, false));
        assert!(c.has_been_activated());
        assert_eq!(c.ttime(), 0);
        assert_eq!(c.etime(), 0);
        assert_eq!(c.tnodes(), 1);
    }

    #[test]
    fn successful_moves_update_offsets_and_steps() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        step(&mut c, LocalDirection::Left, PriorOutcome::Moved, false);
        assert_eq!(c.tsteps(), 3);
        assert_eq!(c.esteps(), 3);
        assert_eq!(c.offset(), 1);
        assert_eq!(c.tnodes(), 3); // offsets 0, 1, 2 visited
        assert_eq!(c.ttime(), 3);
    }

    #[test]
    fn blocked_rounds_accumulate_btime_and_reset_on_move() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        step(&mut c, LocalDirection::Left, PriorOutcome::BlockedOnPort, false);
        assert_eq!(c.btime(), 1);
        step(&mut c, LocalDirection::Left, PriorOutcome::BlockedOnPort, false);
        assert_eq!(c.btime(), 2);
        step(&mut c, LocalDirection::Left, PriorOutcome::Moved, false);
        assert_eq!(c.btime(), 0);
        assert_eq!(c.tsteps(), 1);
        assert_eq!(c.offset(), -1);
    }

    #[test]
    fn failed_port_acquisition_resets_btime_and_does_not_move() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        step(&mut c, LocalDirection::Left, PriorOutcome::BlockedOnPort, false);
        step(&mut c, LocalDirection::Right, PriorOutcome::PortAcquisitionFailed, false);
        assert_eq!(c.btime(), 0);
        assert_eq!(c.tsteps(), 0);
        assert_eq!(c.offset(), 0);
    }

    #[test]
    fn explore_reset_clears_only_e_counters() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        c.reset_explore();
        assert_eq!(c.etime(), 0);
        assert_eq!(c.esteps(), 0);
        assert_eq!(c.ttime(), 2);
        assert_eq!(c.tsteps(), 2);
    }

    #[test]
    fn transported_counts_as_a_step_in_the_attempted_direction() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        // The agent tries to go left, gets blocked, sleeps, and is carried
        // across passively (PT model).
        step(&mut c, LocalDirection::Left, PriorOutcome::BlockedOnPort, false);
        c.record_decision(Decision::Stay);
        c.absorb(&snap(PriorOutcome::Transported, false));
        assert_eq!(c.tsteps(), 2 - 1); // only the transport moved the agent
        assert_eq!(c.offset(), -1);
    }

    #[test]
    fn landmark_loop_teaches_ring_size() {
        let mut c = Counters::new();
        // Start on the landmark.
        c.absorb(&snap(PriorOutcome::Idle, true));
        assert!(c.has_seen_landmark());
        assert!(!c.knows_size());
        // Walk right around a ring of size 5, returning to the landmark.
        for i in 1..=5 {
            let at_landmark = i == 5;
            step(&mut c, LocalDirection::Right, PriorOutcome::Moved, at_landmark);
        }
        assert_eq!(c.known_size(), Some(5));
        assert_eq!(c.distance_from_landmark(), Some(5));
        // Ntime starts accumulating only after n is learned.
        assert_eq!(c.ntime(), 0);
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        assert_eq!(c.ntime(), 1);
    }

    #[test]
    fn landmark_back_and_forth_does_not_teach_size() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, true));
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        step(&mut c, LocalDirection::Left, PriorOutcome::Moved, true);
        // Returned to the landmark with the same offset: no loop completed.
        assert!(!c.knows_size());
        assert_eq!(c.distance_from_landmark(), Some(0));
    }

    #[test]
    fn landmark_seen_midway_uses_first_visit_as_reference() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        step(&mut c, LocalDirection::Right, PriorOutcome::Moved, true); // first landmark visit at offset 1
        for i in 0..4 {
            // ring of size 4: landmark reappears after 4 more right-steps
            let at_landmark = i == 3;
            step(&mut c, LocalDirection::Right, PriorOutcome::Moved, at_landmark);
        }
        assert_eq!(c.known_size(), Some(4));
    }

    #[test]
    fn retreat_and_terminate_clear_last_attempt() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        c.record_decision(Decision::Move(LocalDirection::Left));
        assert_eq!(c.last_attempt(), Some(LocalDirection::Left));
        c.record_decision(Decision::Retreat);
        assert_eq!(c.last_attempt(), None);
        c.record_decision(Decision::Move(LocalDirection::Right));
        c.record_decision(Decision::Terminate);
        assert_eq!(c.last_attempt(), None);
    }

    #[test]
    fn tnodes_counts_span_of_offsets() {
        let mut c = Counters::new();
        c.absorb(&snap(PriorOutcome::Idle, false));
        for _ in 0..3 {
            step(&mut c, LocalDirection::Left, PriorOutcome::Moved, false);
        }
        for _ in 0..5 {
            step(&mut c, LocalDirection::Right, PriorOutcome::Moved, false);
        }
        // Offsets visited: -3 .. +2  => 6 distinct nodes
        assert_eq!(c.tnodes(), 6);
    }
}
