//! Algorithms `PTBoundNoChirality` (Figure 18, Theorem 16),
//! `PTLandmarkNoChirality` (Theorem 17) and `ETBoundNoChirality`
//! (Theorem 20).
//!
//! Three anonymous agents without chirality in the PT (or ET) model. The
//! three variants share the zig-zag structure of Figure 18: an agent reverses
//! direction only when it *catches* another agent waiting on a missing edge,
//! memorises the distance `d` travelled between direction changes, and
//! terminates as soon as a new excursion is not strictly longer than the
//! previous one (the agents must have crossed), or when it has certainly
//! visited the whole ring.

use crate::counters::{read_code, Counters};
use dynring_model::statekey::KeyReader;
use dynring_model::{Decision, LocalDirection, Protocol, Snapshot, TerminationKind};
use serde::{Deserialize, Serialize};

/// The "certainly explored" test used by the three variants of Figure 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeTermination {
    /// `Tnodes ≥ N` for a known upper bound `N ≥ n` (Figure 18).
    UpperBound(u64),
    /// `Tnodes ≥ n` for exactly known ring size `n` (the `ETBoundNoChirality`
    /// adaptation of Theorem 20; exact knowledge is necessary in ET by
    /// Theorem 19).
    ExactSize(u64),
    /// "n is known": the agent completed a loop around the landmark
    /// (`PTLandmarkNoChirality`, Theorem 17).
    LandmarkLoop,
}

impl SizeTermination {
    fn satisfied(self, counters: &Counters) -> bool {
        match self {
            SizeTermination::UpperBound(n) | SizeTermination::ExactSize(n) => {
                counters.tnodes() >= n
            }
            SizeTermination::LandmarkLoop => counters.knows_size(),
        }
    }
}

/// States of Figure 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum State {
    /// Moving left until another agent is caught.
    Init,
    /// Moving right after catching someone while moving left.
    Bounce,
    /// Moving left after catching someone while moving right.
    Reverse,
    /// Met another agent in a node while moving left.
    MeetingR,
    /// Met another agent in a node while moving right.
    MeetingB,
    /// Terminal state.
    Terminate,
}

/// Algorithm `PTBoundNoChirality` of Figure 18 and its landmark / ET
/// variants, selected by the [`SizeTermination`] test and the strictness of
/// the distance check.
///
/// ```
/// use dynring_core::ssync::{PtNoChirality, SizeTermination};
/// use dynring_model::{Protocol, TerminationKind};
///
/// // Figure 18: PT model, three agents, known upper bound.
/// let pt = PtNoChirality::with_upper_bound(16);
/// assert_eq!(pt.name(), "PTBoundNoChirality");
///
/// // Theorem 20: ET model, three agents, exact ring size, strict checks.
/// let et = PtNoChirality::for_eventual_transport(16);
/// assert_eq!(et.name(), "ETBoundNoChirality");
/// assert_eq!(et.termination_kind(), TerminationKind::Partial);
/// ```
///
/// The engine runs this type as the
/// [`CatalogProtocol::PtNoChirality`](crate::CatalogProtocol) variant, whose
/// Compute is statically dispatched. See `docs/ARCHITECTURE.md`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtNoChirality {
    done: SizeTermination,
    /// ET uses strict comparisons (`<` instead of `≤`) in the distance
    /// checks, per Section 4.3.2.
    strict: bool,
    state: State,
    d: u64,
    counters: Counters,
}

impl PtNoChirality {
    /// Figure 18 (`PTBoundNoChirality`): PT model with a known upper bound.
    ///
    /// # Panics
    ///
    /// Panics if `upper_bound < 3`.
    #[must_use]
    pub fn with_upper_bound(upper_bound: usize) -> Self {
        assert!(upper_bound >= 3, "the ring-size upper bound must be at least 3");
        Self::build(SizeTermination::UpperBound(upper_bound as u64), false)
    }

    /// Theorem 17 (`PTLandmarkNoChirality`): PT model with a landmark.
    #[must_use]
    pub fn with_landmark() -> Self {
        Self::build(SizeTermination::LandmarkLoop, false)
    }

    /// Theorem 20 (`ETBoundNoChirality`): ET model with exactly known size
    /// and strict distance checks.
    ///
    /// # Panics
    ///
    /// Panics if `ring_size < 3`.
    #[must_use]
    pub fn for_eventual_transport(ring_size: usize) -> Self {
        assert!(ring_size >= 3, "the ring size must be at least 3");
        Self::build(SizeTermination::ExactSize(ring_size as u64), true)
    }

    /// Fully general constructor (exposed for experiments that want to mix
    /// the dimensions, e.g. ablations in the benchmark crate).
    #[must_use]
    pub fn with_termination(done: SizeTermination, strict: bool) -> Self {
        Self::build(done, strict)
    }

    fn build(done: SizeTermination, strict: bool) -> Self {
        PtNoChirality { done, strict, state: State::Init, d: 0, counters: Counters::new() }
    }

    /// The memorised excursion length `d`.
    #[must_use]
    pub const fn excursion(&self) -> u64 {
        self.d
    }

    /// Access to the agent's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    fn explored(&self) -> bool {
        self.done.satisfied(&self.counters)
    }

    /// The distance test of function `CheckD` and of the `Meeting*` states:
    /// `x ≤ d` in PT, `x < d` in ET.
    fn too_short(&self, x: u64) -> bool {
        if self.strict {
            x < self.d
        } else {
            x <= self.d
        }
    }

    fn enter_terminate(&mut self) -> Decision {
        self.state = State::Terminate;
        Decision::Terminate
    }

    /// Function `CheckD(x)` of Figure 18. Returns `true` if the agent must
    /// terminate.
    fn check_d(&mut self, x: u64) -> bool {
        if self.d > 0 {
            if self.too_short(x) {
                return true;
            }
            self.d = x;
        }
        false
    }

    fn enter_bounce(&mut self) -> Decision {
        let steps = self.counters.esteps();
        if self.check_d(steps) {
            return self.enter_terminate();
        }
        self.state = State::Bounce;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Right)
    }

    fn enter_reverse(&mut self) -> Decision {
        let steps = self.counters.esteps();
        if self.d == 0 {
            // First change of direction from Bounce to Reverse: remember the
            // excursion length without testing it.
            self.d = steps;
        } else if self.check_d(steps) {
            return self.enter_terminate();
        }
        self.state = State::Reverse;
        self.counters.reset_explore();
        Decision::Move(LocalDirection::Left)
    }

    fn enter_meeting(&mut self, state: State, dir: LocalDirection) -> Decision {
        // The Meeting states do NOT reset Esteps (ExploreNoResetEsteps).
        if self.d > 0 && self.too_short(self.counters.esteps()) {
            return self.enter_terminate();
        }
        self.state = state;
        Decision::Move(dir)
    }

    fn step(&mut self, snapshot: &Snapshot) -> Decision {
        match self.state {
            State::Init => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bounce();
                }
                Decision::Move(LocalDirection::Left)
            }
            State::Bounce => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.meeting() {
                    return self.enter_meeting(State::MeetingB, LocalDirection::Right);
                }
                if snapshot.catches(LocalDirection::Right) {
                    return self.enter_reverse();
                }
                Decision::Move(LocalDirection::Right)
            }
            State::Reverse => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.meeting() {
                    return self.enter_meeting(State::MeetingR, LocalDirection::Left);
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bounce();
                }
                Decision::Move(LocalDirection::Left)
            }
            State::MeetingR => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Left) {
                    return self.enter_bounce();
                }
                Decision::Move(LocalDirection::Left)
            }
            State::MeetingB => {
                if self.explored() {
                    return self.enter_terminate();
                }
                if snapshot.catches(LocalDirection::Right) {
                    return self.enter_reverse();
                }
                Decision::Move(LocalDirection::Right)
            }
            State::Terminate => Decision::Terminate,
        }
    }
}

impl Protocol for PtNoChirality {
    fn name(&self) -> &'static str {
        match self.done {
            SizeTermination::UpperBound(_) => "PTBoundNoChirality",
            SizeTermination::ExactSize(_) => "ETBoundNoChirality",
            SizeTermination::LandmarkLoop => "PTLandmarkNoChirality",
        }
    }

    fn termination_kind(&self) -> TerminationKind {
        TerminationKind::Partial
    }

    fn decide(&mut self, snapshot: &Snapshot) -> Decision {
        self.counters.absorb(snapshot);
        let decision = self.step(snapshot);
        self.counters.record_decision(decision);
        decision
    }

    fn has_terminated(&self) -> bool {
        self.state == State::Terminate
    }

    fn state_label(&self) -> String {
        format!("{:?}(d={},Tnodes={})", self.state, self.d, self.counters.tnodes())
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        use dynring_model::statekey::push_u64;
        match self.done {
            SizeTermination::UpperBound(n) => {
                out.push(0);
                push_u64(out, n);
            }
            SizeTermination::ExactSize(n) => {
                out.push(1);
                push_u64(out, n);
            }
            SizeTermination::LandmarkLoop => out.push(2),
        }
        out.push(u8::from(self.strict));
        out.push(self.state as u8);
        push_u64(out, self.d);
        self.counters.write_state_key(out);
    }
}

impl PtNoChirality {
    /// Overwrites the state with the one `write_state_key` wrote to `key`.
    pub(crate) fn read_state_key(&mut self, key: &mut KeyReader<'_>) {
        self.done = match key.byte() {
            0 => SizeTermination::UpperBound(key.u64()),
            1 => SizeTermination::ExactSize(key.u64()),
            2 => SizeTermination::LandmarkLoop,
            tag => panic!("termination test tag {tag} is out of range"),
        };
        self.strict = key.present();
        let states = [
            State::Init,
            State::Bounce,
            State::Reverse,
            State::MeetingR,
            State::MeetingB,
            State::Terminate,
        ];
        // A state's key byte is its index in declaration order.
        self.state = read_code(key, &states);
        self.d = key.u64();
        self.counters.read_state_key(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_model::{LocalPosition, NodeOccupancy, PriorOutcome};

    fn plain(prior: PriorOutcome) -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy::default(),
            prior,
            round_hint: None,
        }
    }

    fn catches(dir: LocalDirection) -> Snapshot {
        let mut occ = NodeOccupancy::default();
        match dir {
            LocalDirection::Left => occ.on_left_port = 1,
            LocalDirection::Right => occ.on_right_port = 1,
        }
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: occ,
            prior: PriorOutcome::Moved,
            round_hint: None,
        }
    }

    fn meeting() -> Snapshot {
        Snapshot {
            position: LocalPosition::InNode,
            is_landmark: false,
            occupancy: NodeOccupancy { in_node: 1, on_left_port: 0, on_right_port: 0 },
            prior: PriorOutcome::Moved,
            round_hint: None,
        }
    }

    #[test]
    fn zig_zag_between_catches() {
        let mut a = PtNoChirality::with_upper_bound(50);
        assert_eq!(a.decide(&plain(PriorOutcome::Idle)), Decision::Move(LocalDirection::Left));
        // Catch while going left → go right.
        assert_eq!(a.decide(&catches(LocalDirection::Left)), Decision::Move(LocalDirection::Right));
        // Make 4 steps right, then one more successful step into the node
        // where the catch happens: the excursion length is 5.
        for _ in 0..4 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Right));
        }
        assert_eq!(a.decide(&catches(LocalDirection::Right)), Decision::Move(LocalDirection::Left));
        assert_eq!(a.excursion(), 5);
    }

    #[test]
    fn terminates_when_an_excursion_stops_growing() {
        let mut a = PtNoChirality::with_upper_bound(50);
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let _ = a.decide(&catches(LocalDirection::Left)); // → Bounce
        for _ in 0..4 {
            let _ = a.decide(&plain(PriorOutcome::Moved));
        }
        let _ = a.decide(&catches(LocalDirection::Right)); // → Reverse, d = 4
        // Only 3 steps left before catching again: 3 ≤ 4 → terminate.
        for _ in 0..3 {
            assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(LocalDirection::Left));
        }
        assert_eq!(a.decide(&catches(LocalDirection::Left)), Decision::Terminate);
        assert!(a.has_terminated());
    }

    #[test]
    fn growing_excursions_keep_the_agent_alive() {
        let mut a = PtNoChirality::with_upper_bound(1000);
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let _ = a.decide(&catches(LocalDirection::Left));
        let mut dir = LocalDirection::Right;
        for length in 3u64..9 {
            for _ in 0..length {
                assert_eq!(a.decide(&plain(PriorOutcome::Moved)), Decision::Move(dir));
            }
            let d = a.decide(&catches(dir));
            assert!(d.is_move(), "agent terminated although excursions keep growing");
            dir = dir.opposite();
        }
        assert!(!a.has_terminated());
    }

    #[test]
    fn meeting_checks_distance_without_resetting_esteps() {
        let mut a = PtNoChirality::with_upper_bound(50);
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let _ = a.decide(&catches(LocalDirection::Left)); // Bounce
        for _ in 0..2 {
            let _ = a.decide(&plain(PriorOutcome::Moved));
        }
        let _ = a.decide(&catches(LocalDirection::Right)); // Reverse, d = 2
        // One step left, then meet someone in a node: Esteps = 1 ≤ d → terminate.
        let _ = a.decide(&plain(PriorOutcome::Moved));
        assert_eq!(a.decide(&meeting()), Decision::Terminate);
    }

    #[test]
    fn meeting_with_long_enough_excursion_continues() {
        let mut a = PtNoChirality::with_upper_bound(50);
        let _ = a.decide(&plain(PriorOutcome::Idle));
        let _ = a.decide(&catches(LocalDirection::Left)); // Bounce
        for _ in 0..2 {
            let _ = a.decide(&plain(PriorOutcome::Moved));
        }
        let _ = a.decide(&catches(LocalDirection::Right)); // Reverse, d = 2
        for _ in 0..3 {
            let _ = a.decide(&plain(PriorOutcome::Moved));
        }
        // Esteps = 3 > d = 2: keep going left in state MeetingR.
        assert_eq!(a.decide(&meeting()), Decision::Move(LocalDirection::Left));
        assert!(!a.has_terminated());
    }

    #[test]
    fn upper_bound_termination_by_node_count() {
        let mut a = PtNoChirality::with_upper_bound(5);
        let mut d = a.decide(&plain(PriorOutcome::Idle));
        let mut steps = 0;
        while d.is_move() {
            d = a.decide(&plain(PriorOutcome::Moved));
            steps += 1;
            assert!(steps < 10);
        }
        assert_eq!(a.counters().tnodes(), 5);
    }

    #[test]
    fn et_variant_uses_strict_distance_checks() {
        // With equal excursions the PT variant terminates but the ET variant
        // keeps going (strict inequality).
        let mut pt = PtNoChirality::with_upper_bound(50);
        let mut et = PtNoChirality::for_eventual_transport(50);
        for agent in [&mut pt, &mut et] {
            let _ = agent.decide(&plain(PriorOutcome::Idle));
            let _ = agent.decide(&catches(LocalDirection::Left));
            for _ in 0..3 {
                let _ = agent.decide(&plain(PriorOutcome::Moved));
            }
            let _ = agent.decide(&catches(LocalDirection::Right)); // d = 3
            for _ in 0..3 {
                let _ = agent.decide(&plain(PriorOutcome::Moved));
            }
        }
        assert_eq!(pt.decide(&catches(LocalDirection::Left)), Decision::Terminate);
        assert!(et.decide(&catches(LocalDirection::Left)).is_move());
    }

    #[test]
    fn landmark_variant_terminates_after_a_loop() {
        let n = 4i64;
        let mut a = PtNoChirality::with_landmark();
        let mut pos = 0i64;
        let mut d = a.decide(&Snapshot {
            position: LocalPosition::InNode,
            is_landmark: true,
            occupancy: NodeOccupancy::default(),
            prior: PriorOutcome::Idle,
            round_hint: None,
        });
        let mut steps = 0;
        while let Decision::Move(dir) = d {
            pos += match dir {
                LocalDirection::Left => -1,
                LocalDirection::Right => 1,
            };
            steps += 1;
            assert!(steps < 3 * n);
            d = a.decide(&Snapshot {
                position: LocalPosition::InNode,
                is_landmark: pos.rem_euclid(n) == 0,
                occupancy: NodeOccupancy::default(),
                prior: PriorOutcome::Moved,
                round_hint: None,
            });
        }
        assert_eq!(d, Decision::Terminate);
        assert_eq!(a.counters().known_size(), Some(n as u64));
        assert_eq!(a.name(), "PTLandmarkNoChirality");
    }

    #[test]
    fn names_follow_the_variant() {
        assert_eq!(PtNoChirality::with_upper_bound(8).name(), "PTBoundNoChirality");
        assert_eq!(PtNoChirality::with_landmark().name(), "PTLandmarkNoChirality");
        assert_eq!(PtNoChirality::for_eventual_transport(8).name(), "ETBoundNoChirality");
        assert_eq!(
            PtNoChirality::with_termination(SizeTermination::UpperBound(9), true).name(),
            "PTBoundNoChirality"
        );
    }
}
