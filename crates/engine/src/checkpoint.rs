//! Branchable run state: the checkpoint a run forks from, and the canonical
//! configuration key the model checker deduplicates on and rebuilds its
//! frontier states from.
//!
//! A [`SimCheckpoint`] captures everything that determines a run's future
//! behaviour — the run counters (round, live agents, unvisited nodes,
//! exploration round), the global visit map, the agent columns (every
//! agent's position, held port, orientation, prior outcome, termination
//! round, statistics, visit map and full program state) and the activation
//! policy's state token (see
//! [`ActivationPolicy::state_token`](crate::scheduler::ActivationPolicy::state_token)).
//! The agent columns are the simulation's own struct-of-arrays type, one
//! column per agent fact, so checkpointing and restoring are each one
//! in-place copy per column, and a reused checkpoint allocates nothing.
//!
//! Three things are deliberately *not* captured:
//!
//! * what the run's **spec** fixes — the ring size — which a restore finds
//!   unchanged;
//! * the **trace** — checkpointing callers run trace-off, because a restored
//!   trace-on simulation would keep appending rounds from every explored
//!   branch to one linear trace;
//! * the **edge policy's** internal state — checkpoint/restore exists to
//!   drive adversary branching through
//!   [`Simulation::step_with_edge`](crate::sim::Simulation::step_with_edge),
//!   which bypasses the installed edge policy entirely.
//!
//! # Canonical keys
//!
//! Exhaustive search over adversary choices revisits the same configuration
//! through many different histories, and configurations that differ only by
//! a symmetry of the ring are behaviourally interchangeable. The key
//! written by [`Simulation::canonical_key_into`](crate::sim::Simulation::canonical_key_into)
//! (or [`SimCheckpoint::canonical_key_into`] of a checkpoint) quotients
//! both away:
//!
//! * **rotation** — on anonymous rings, shifting every node index by a
//!   constant relabels the ring without changing anything any agent can
//!   observe;
//! * **reflection** — mirroring the ring swaps the global CCW/CW directions;
//!   an agent of the mirrored configuration behaves exactly like the
//!   original agent with the *opposite* handedness, so the encoding flips
//!   each agent's handedness and held-port direction under reflection;
//! * **landmark** — a landmark breaks the rotational symmetry: only the two
//!   maps carrying the landmark to node 0 (the translation, and the
//!   reflection through the landmark) are admissible, so keys remain
//!   comparable across cells that only differ in where the landmark sits.
//!
//! The key is the lexicographic minimum of the encoded configuration over
//! the admissible maps (2 for landmark rings, `2n` for anonymous ones), and
//! keying also returns the [`SymmetryMap`] that attains it. The encoding
//! covers exactly the state that can influence future behaviour: the
//! permuted visit map, each agent's mapped position, held port, termination
//! flag, handedness, prior outcome, sleep/activation ages (read by the
//! paper's schedulers) and the complete program state (protocols only ever
//! observe local-frame snapshots, so program state is invariant under both
//! symmetries). Statistics that feed reports but never decisions — move
//! counts, termination rounds, per-agent visit maps — are excluded, which
//! is what lets the memo table collapse distinct histories onto one
//! frontier state.
//!
//! # Packed key format
//!
//! The key is a compact binary layout written with **zero steady-state
//! allocations** (all buffers come from a recycled [`KeyScratch`]). Every
//! integer is a prefix-free LEB128 varint written by
//! [`dynring_model::statekey`], the one module that knows the integer
//! encoding:
//!
//! * a *symmetry-invariant* prefix, emitted once — round counter,
//!   activation-policy token, and per agent the sleep age, the competition
//!   rank of its last-active round (how many agents were last active
//!   strictly earlier), and its length-prefixed program state via
//!   [`Protocol::write_state_key`]
//!   (the `CatalogProtocol` variant tag, then the protocol's packed
//!   varints);
//! * a *symmetry-variant* suffix, minimised lexicographically over the
//!   admissible maps — the permuted visit map bit-packed at 8 nodes/byte,
//!   then per agent the mapped node (a varint: one byte below 128 nodes)
//!   and one flags byte packing the held port (2 bits), termination flag,
//!   reflection-adjusted handedness, and prior outcome (3 bits).
//!
//! On rings of up to 64 nodes the minimising map is found by integer
//! compares in two passes. Pass one takes the least visit mask over the
//! admissible maps as a `u64`. Pass two compares, only among the maps that
//! tie on that mask, the first agent's `(mapped node, flags)` as one `u16`:
//! below 128 nodes a mapped node's varint is the node itself, so that value
//! orders as the agent's bytes do, and no two maps give one agent the same
//! value, so the first agent decides the order of the whole section. The
//! first agent's node and its flags byte with and without reflection are
//! computed once per key, and every agent's bytes are written for the
//! winning map alone. [`SimCheckpoint::canonical_key_exhaustive`] emits
//! every map in full and yields the same bytes.
//!
//! Any injective encoding yields the same equivalence classes as any other
//! over the same map family: the orbits of the symmetry group partition the
//! configuration space, and two orbits sharing their minimal encoded element
//! are equal. The unit tests hold a second, `Debug`-string encoding of the
//! same configuration and check that both keys split configurations into
//! the same classes.
//!
//! # Decoding a key
//!
//! The model checker keeps a frontier state as its key and the map that
//! won it, nothing more, and
//! [`Simulation::restore_from_key`](crate::sim::Simulation::restore_from_key)
//! rebuilds the run from the two. Undoing the map puts every node, the
//! visit map, each held port's direction and each handedness back in the
//! frame the state was keyed in, so the rebuilt run steps exactly as the
//! keyed one did. The decode contract:
//!
//! * **read back** from the key: round, activation token, visit map, and
//!   per agent the node, held port, handedness, prior outcome, termination
//!   flag, sleep age and program state;
//! * **rebuilt** from those: the live-agent and unvisited counts, and the
//!   exploration round, set to the key's round when every node is visited;
//!   each last-active round becomes the agent's dense rank (how many
//!   distinct earlier rounds the team was last active in), which keeps the
//!   agents' order and ties and never exceeds the round;
//! * **zeroed**, as the key omits them: move counts (0) and the per-agent
//!   visit maps (cleared); a terminated agent's termination round, also
//!   omitted, is set to the key's round.
//!
//! The zeroed fields, and the exact values of the rebuilt rounds, are
//! meaningless in a key-restored run. The search never reads them (see
//! `Objective::classify` in `dynring-analysis`), and it replays every
//! witness through a scripted adversary from the cell's start to report on
//! it.

use crate::sim::RunCounters;
use crate::world::AgentSoA;
use dynring_graph::{GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::statekey::{push_prefixed, push_u64, KeyReader};
use dynring_model::{PriorOutcome, Protocol};

/// Recycled scratch buffer for canonical keys.
///
/// Holding one `KeyScratch` per search worker makes canonicalisation
/// allocation-free in the steady state: the candidate buffer of the direct
/// per-map comparison (rings wider than 64 nodes, and
/// [`SimCheckpoint::canonical_key_exhaustive`]) reuses its capacity
/// across calls.
#[derive(Debug, Default)]
pub struct KeyScratch {
    /// Candidate variant section for the symmetry map under consideration.
    candidate: Vec<u8>,
}

impl KeyScratch {
    /// Fresh, empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// One admissible symmetry of a ring: `v ↦ v + rot`, or `v ↦ rot − v` when
/// it reflects, packed into a `u16` (rings of up to 32 768 nodes). Keying a
/// configuration returns the map that carries it to its key, and
/// [`Simulation::restore_from_key`](crate::sim::Simulation::restore_from_key)
/// undoes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymmetryMap(u16);

impl SymmetryMap {
    /// The map `(rot, reflect)`.
    ///
    /// # Panics
    ///
    /// Panics if `rot` does not fit the packed width.
    fn new((rot, reflect): (usize, bool)) -> Self {
        let packed = (rot << 1) | usize::from(reflect);
        SymmetryMap(u16::try_from(packed).expect("ring too wide for a packed symmetry map"))
    }

    fn rot(self) -> usize {
        usize::from(self.0 >> 1)
    }

    fn reflects(self) -> bool {
        self.0 & 1 == 1
    }

    /// Node `v`'s image on a ring of `n` nodes.
    fn apply(self, n: usize, v: usize) -> usize {
        map_node(n, v, self.rot(), self.reflects())
    }

    /// The node whose image is `w`: a reflection is its own inverse, and
    /// a rotation by `rot` is undone by one by `n − rot`.
    fn invert(self, n: usize, w: usize) -> usize {
        let rot = if self.reflects() || self.rot() == 0 { self.rot() } else { n - self.rot() };
        map_node(n, w, rot, self.reflects())
    }
}

/// The key-visible state of one run, borrowed from a live simulation or a
/// checkpoint: what a canonical key encodes.
pub(crate) struct KeyedState<'a> {
    pub(crate) agents: &'a AgentSoA,
    pub(crate) visited: &'a [bool],
    pub(crate) round: u64,
    pub(crate) token: u64,
}

impl KeyedState<'_> {
    /// Writes the canonicalised configuration key into `out` (cleared
    /// first; capacity reused across calls), in the packed format of the
    /// [module docs](self), and returns the map that attains it. Two states
    /// receive the same key **iff** their configurations are identical up
    /// to the ring symmetries — the memo-table identity of the model
    /// checker's breadth-first search. This is the allocation-free hot
    /// path; `scratch` is the caller's.
    ///
    /// `ring` must be the ring the state was captured on (the state does
    /// not keep the landmark). The bytes are those of
    /// [`KeyedState::canonical_key_exhaustive`]; only the search for the
    /// minimising map differs.
    pub(crate) fn canonical_key_into(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) -> SymmetryMap {
        self.write_invariant_prefix(ring, out);
        if ring.size() > 64 {
            self.push_min_variant_exhaustive(ring, scratch, out)
        } else {
            self.push_min_variant(ring, out)
        }
    }

    /// The packed key, chosen the direct way (see
    /// [`SimCheckpoint::canonical_key_exhaustive`]).
    pub(crate) fn canonical_key_exhaustive(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) -> SymmetryMap {
        self.write_invariant_prefix(ring, out);
        self.push_min_variant_exhaustive(ring, scratch, out)
    }

    /// Writes the symmetry-invariant prefix of the packed key into `out`
    /// (cleared first).
    fn write_invariant_prefix(&self, ring: &RingTopology, out: &mut Vec<u8>) {
        assert_eq!(self.visited.len(), ring.size(), "state is from a different ring");
        // Symmetry-invariant prefix: both map families relabel nodes and
        // global directions but never touch round counters, scheduler state,
        // sleep ages or program state (protocols only see local frames), so
        // these are emitted once, outside the min-over-maps loop.
        let agents = self.agents;
        let last_active = &agents.last_active_round;
        out.clear();
        push_u64(out, self.round);
        push_u64(out, self.token);
        for (index, &r) in last_active.iter().enumerate() {
            push_u64(out, agents.asleep_on_port[index]);
            // `last_active_round` is only consumed through order comparisons
            // (`min_by_key` in the first-mover scheduler and adversary), so
            // the key encodes its competition rank among the agents, the
            // number of agents last active strictly earlier: plays reaching
            // the same configuration along different activation histories
            // coincide. Teams are tiny, so the O(k²) scan beats allocating a
            // rank table.
            let rank = last_active.iter().filter(|&&other| other < r).count();
            push_u64(out, rank as u64);
            push_prefixed(out, |out| agents.program[index].write_state_key(out));
        }
    }

    /// Appends the lexicographically least variant section over the
    /// admissible maps, emitting every candidate in full, and returns the
    /// first map that attains it.
    fn push_min_variant_exhaustive(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) -> SymmetryMap {
        let variant_at = out.len();
        let mut winner = SymmetryMap::default();
        for (i, map) in admissible_maps(ring).enumerate() {
            let map = SymmetryMap::new(map);
            self.emit_variant(ring.size(), map, &mut scratch.candidate);
            if i == 0 || scratch.candidate.as_slice() < &out[variant_at..] {
                out.truncate(variant_at);
                out.extend_from_slice(&scratch.candidate);
                winner = map;
            }
        }
        winner
    }

    /// Appends the same section as
    /// [`KeyedState::push_min_variant_exhaustive`] for a ring of at most 64
    /// nodes, in two passes of integer compares, and returns the same map.
    ///
    /// The section opens with the bit-packed visit map, so that map decides
    /// the minimum first. Each candidate's visit map is a rotation, or a
    /// rotation of the reversal, of one `u64` mask whose little-endian bytes
    /// are the packed map, and those bytes compare lexicographically exactly
    /// as the byte-swapped word compares numerically (bits past `n` are zero
    /// in every candidate): pass one finds the least mask. Each agent's
    /// bytes are its mapped node's one-byte varint and its flags byte, which
    /// compare as the `u16` `node << 8 | flags`: pass two finds the least
    /// such value of the first agent among the maps tying on the mask.
    fn push_min_variant(&self, ring: &RingTopology, out: &mut Vec<u8>) -> SymmetryMap {
        let n = ring.size();
        let full = u64::MAX >> (64 - n);
        let visited = self
            .visited
            .iter()
            .enumerate()
            .fold(0u64, |mask, (v, &seen)| mask | (u64::from(seen) << v));
        // Bit `w` of `reversed` is node `n − 1 − w`.
        let reversed = visited.reverse_bits() >> (64 - n);
        let rotl = |mask: u64, by: usize| {
            if by == 0 { mask } else { ((mask << by) | (mask >> (n - by))) & full }
        };
        // Image node `w` is node `w − rot` under a rotation, and node
        // `rot − w` (bit `w − rot − 1` of `reversed`) under a reflection.
        // The image is byte-swapped, so that it compares as its bytes do.
        let image = |(rot, reflect): (usize, bool)| {
            let mask = if reflect {
                rotl(reversed, if rot + 1 == n { 0 } else { rot + 1 })
            } else {
                rotl(visited, rot)
            };
            mask.swap_bytes()
        };
        // Pass one: the least visit mask.
        let least = admissible_maps(ring).map(image).min().expect("every ring admits a map");
        // Pass two: among the maps carrying the visit map to the least
        // mask, the one giving the first agent the least value. Two maps
        // never give one agent the same value: maps with the same
        // reflection move its node to different nodes, and a reflection
        // flips its handedness bit. So the first agent's value alone
        // decides the agents' lexicographic order, for any team size, and
        // no two maps tie on the whole section unless the team is empty
        // (the first tying map wins then, as in the exhaustive search).
        let agent = |index: usize| (self.agents.node[index].index(), self.flags(index));
        let value = |(node, flags): (usize, [u8; 2]), (rot, reflect): (usize, bool)| {
            // `node < n ≤ 64`, so the value fits in a `u16`.
            ((map_node(n, node, rot, reflect) as u16) << 8) | u16::from(flags[usize::from(reflect)])
        };
        let team = self.agents.len();
        let first = (team > 0).then(|| agent(0));
        let (mut winner, mut winner_value) = ((0, false), u32::MAX);
        for map in admissible_maps(ring) {
            let value = match first {
                _ if image(map) != least => u32::MAX,
                Some(first) => u32::from(value(first, map)),
                None => 0,
            };
            if value < winner_value {
                (winner, winner_value) = (map, value);
            }
        }
        out.extend_from_slice(&least.swap_bytes().to_le_bytes()[..n.div_ceil(8)]);
        for index in 0..team {
            let value = value(agent(index), winner);
            push_u64(out, u64::from(value >> 8));
            out.push(value as u8);
        }
        SymmetryMap::new(winner)
    }

    /// The symmetry-variant section of the packed key under one candidate
    /// map: bit-packed permuted visit map, then mapped node + flags byte per
    /// agent.
    fn emit_variant(&self, n: usize, map: SymmetryMap, buf: &mut Vec<u8>) {
        buf.clear();
        // Node `w` of the canonical image is node `map⁻¹(w)` of the
        // original.
        let mut packed = 0u8;
        for w in 0..n {
            if self.visited[map.invert(n, w)] {
                packed |= 1 << (w % 8);
            }
            if w % 8 == 7 {
                buf.push(packed);
                packed = 0;
            }
        }
        if !n.is_multiple_of(8) {
            buf.push(packed);
        }
        for index in 0..self.agents.len() {
            push_u64(buf, map.apply(n, self.agents.node[index].index()) as u64);
            buf.push(self.flags(index)[usize::from(map.reflects())]);
        }
    }

    /// The flags bytes of agent `index` under a candidate map that does not
    /// reflect the ring (`[0]`) and under one that does (`[1]`). Reflection
    /// swaps the held port's global direction and flips the handedness bit.
    fn flags(&self, index: usize) -> [u8; 2] {
        let agents = self.agents;
        let port = match agents.held_port[index] {
            None => [0, 0],
            Some(GlobalDirection::Ccw) => [1, 2],
            Some(GlobalDirection::Cw) => [2, 1],
        };
        let handedness = match agents.handedness[index] {
            Handedness::LeftIsCcw => [0, 1 << 3],
            Handedness::LeftIsCw => [1 << 3, 0],
        };
        // A prior's code is its declaration index, as `PRIORS` lists them.
        let prior = agents.prior[index] as u8;
        let shared = (u8::from(agents.terminated_at[index].is_some()) << 2) | (prior << 4);
        [shared | port[0] | handedness[0], shared | port[1] | handedness[1]]
    }
}

/// The prior outcomes in declaration order, indexed by their 3-bit code in
/// a flags byte.
const PRIORS: [PriorOutcome; 5] = [
    PriorOutcome::Idle,
    PriorOutcome::Moved,
    PriorOutcome::BlockedOnPort,
    PriorOutcome::PortAcquisitionFailed,
    PriorOutcome::Transported,
];

/// Rebuilds the team's columns and the global visit map from `key`, a key
/// of a state with as many agents as `agents` on a ring of
/// `visited.len()` nodes, in the frame `map` carried to the key, and
/// returns the run counters and activation token (see "Decoding a key" in
/// the [module docs](self)). Programs decode in place.
///
/// # Panics
///
/// Panics if `key` is not such a key.
pub(crate) fn read_key(
    key: &[u8],
    map: SymmetryMap,
    agents: &mut AgentSoA,
    visited: &mut [bool],
) -> (RunCounters, u64) {
    let n = visited.len();
    let mut key = KeyReader::new(key);
    let round = key.u64();
    let token = key.u64();
    for index in 0..agents.len() {
        agents.asleep_on_port[index] = key.u64();
        agents.last_active_round[index] = key.u64();
        let mut program = key.prefixed();
        agents.program[index].read_state_key(&mut program);
        assert!(program.rest().is_empty(), "program key has trailing bytes");
    }
    dense_from_competition(&mut agents.last_active_round);
    let packed = key.bytes(n.div_ceil(8));
    let mut unvisited = 0;
    for (v, seen) in visited.iter_mut().enumerate() {
        let w = map.apply(n, v);
        *seen = (packed[w / 8] >> (w % 8)) & 1 == 1;
        unvisited += usize::from(!*seen);
    }
    let mut alive = 0;
    for index in 0..agents.len() {
        let w = usize::try_from(key.u64()).expect("node index fits in memory");
        assert!(w < n, "mapped node {w} is off a {n}-node ring");
        agents.node[index] = NodeId::new(map.invert(n, w));
        let flags = key.byte();
        let (ccw, cw) = if map.reflects() { (2, 1) } else { (1, 2) };
        agents.held_port[index] = match flags & 3 {
            0 => None,
            port if port == ccw => Some(GlobalDirection::Ccw),
            port if port == cw => Some(GlobalDirection::Cw),
            port => panic!("held-port code {port} is out of range"),
        };
        agents.handedness[index] = if (flags & (1 << 3) != 0) == map.reflects() {
            Handedness::LeftIsCcw
        } else {
            Handedness::LeftIsCw
        };
        let terminated = flags & (1 << 2) != 0;
        agents.terminated_at[index] = terminated.then_some(round);
        alive += usize::from(!terminated);
        let prior = PRIORS.get(usize::from(flags >> 4));
        agents.prior[index] = *prior.expect("prior code is out of range");
        agents.moves[index] = 0;
    }
    assert!(key.rest().is_empty(), "key has trailing bytes");
    agents.visited.fill(false);
    let explored_at = (unvisited == 0).then_some(round);
    (RunCounters { round, alive, unvisited, explored_at }, token)
}

/// Turns competition ranks (each the number of smaller values) into dense
/// ranks (each the number of distinct smaller values), in place: the same
/// order and ties, each value at most the number of tie groups below it.
///
/// A tie group's competition rank is the previous group's plus that group's
/// size, so the groups are visited upward from rank 0. Every entry already
/// rewritten holds less than the next dense rank, which is at most the
/// competition rank of the next group: no rewritten entry is matched again.
///
/// # Panics
///
/// Panics if `ranks` are not competition ranks.
fn dense_from_competition(ranks: &mut [u64]) {
    let (mut group, mut dense, mut done) = (0, 0, 0);
    while done < ranks.len() {
        let mut size = 0;
        for rank in ranks.iter_mut().filter(|rank| **rank == group) {
            *rank = dense;
            size += 1;
        }
        assert!(size > 0, "last-active ranks are not competition ranks");
        (group, dense, done) = (group + size, dense + 1, done + size as usize);
    }
}

/// Node `v`'s image under the map `(rot, reflect)` of a ring of `n` nodes:
/// `v ↦ rot − v` or `v ↦ v + rot`, reduced mod n without a division.
#[inline]
fn map_node(n: usize, v: usize, rot: usize, reflect: bool) -> usize {
    let mapped = if reflect { rot + n - v } else { v + rot };
    if mapped >= n { mapped - n } else { mapped }
}

/// A complete behavioural snapshot of a [`Simulation`](crate::sim::Simulation)
/// mid-run, produced by
/// [`Simulation::checkpoint`](crate::sim::Simulation::checkpoint) and
/// consumed by [`Simulation::restore`](crate::sim::Simulation::restore).
///
/// Checkpoints are only meaningful for the simulation (or an identically
/// shaped recycle of the spec) they were captured from; `restore` asserts
/// the shapes match. See the [module docs](self) for what is and is not
/// captured.
#[derive(Debug, Default)]
pub struct SimCheckpoint {
    /// The agent columns, in the simulation's own layout.
    pub(crate) agents: AgentSoA,
    /// The global visit map.
    pub(crate) visited: Vec<bool>,
    /// The run counters.
    pub(crate) counters: RunCounters,
    /// The activation policy's state token.
    pub(crate) token: u64,
}

impl SimCheckpoint {
    /// The round the checkpoint was captured at.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.counters.round
    }

    /// Number of agents captured.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Whether the captured state had explored the whole ring.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.counters.explored_at.is_some()
    }

    /// Number of agents that had not terminated in the captured state.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.counters.alive
    }

    /// The key-visible state of the checkpoint.
    fn keyed(&self) -> KeyedState<'_> {
        KeyedState {
            agents: &self.agents,
            visited: &self.visited,
            round: self.counters.round,
            token: self.token,
        }
    }

    /// [`SimCheckpoint::canonical_key_into`] with a throwaway
    /// [`KeyScratch`]; hot callers should hold their own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `ring`'s size does not match the checkpoint.
    pub fn canonical_key(&self, ring: &RingTopology, out: &mut Vec<u8>) -> SymmetryMap {
        self.canonical_key_into(ring, &mut KeyScratch::new(), out)
    }

    /// Writes the checkpoint's canonical key into `out` (cleared first) and
    /// returns the map that attains it; see the [module docs](self) for the
    /// format. `ring` must be the ring the checkpoint was captured on (it
    /// does not keep the landmark). The same bytes as
    /// [`Simulation::canonical_key_into`](crate::sim::Simulation::canonical_key_into)
    /// of the run it was captured from.
    ///
    /// # Panics
    ///
    /// As [`SimCheckpoint::canonical_key`].
    pub fn canonical_key_into(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) -> SymmetryMap {
        self.keyed().canonical_key_into(ring, scratch, out)
    }

    /// The packed key of [`SimCheckpoint::canonical_key_into`], chosen the
    /// direct way: every admissible map's variant section is emitted in full
    /// and the lexicographic minimum kept. This is the reference the bitmask
    /// search is tested against byte for byte, and its path on rings wider
    /// than 64 nodes.
    ///
    /// # Panics
    ///
    /// As [`SimCheckpoint::canonical_key`].
    pub fn canonical_key_exhaustive(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) -> SymmetryMap {
        self.keyed().canonical_key_exhaustive(ring, scratch, out)
    }
}

/// The symmetry maps a canonical key minimises over, as `(rot, reflect)`
/// pairs: `v ↦ v + rot`, or `v ↦ rot − v` when reflecting. On a landmark
/// ring only the two maps carrying the landmark to node 0 are admissible
/// (the translation and the reflection through the landmark); an anonymous
/// ring admits all `2n`.
fn admissible_maps(ring: &RingTopology) -> impl Iterator<Item = (usize, bool)> {
    let n = ring.size();
    let landmark = ring.landmark().map(NodeId::index);
    let count = if landmark.is_some() { 2 } else { 2 * n };
    (0..count).map(move |i| {
        let reflect = i % 2 == 1;
        match landmark {
            Some(l) if reflect => (l, true),
            Some(l) => ((n - l) % n, false),
            None => (i / 2, reflect),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::{admissible_maps, dense_from_competition, KeyScratch, SimCheckpoint};
    use crate::world::AgentSoA;
    use dynring_model::statekey::KeyReader;
    use crate::adversary::NoRemoval;
    use crate::scheduler::{
        ActivationPolicy, AlternateBlocked, EtFairness, FirstMoverOnly, FullActivation,
        RoundRobinSingle,
    };
    use crate::sim::{AgentSpec, RunSpec, Simulation, StopReason};
    use dynring_core::Algorithm;
    use dynring_graph::{EdgeId, GlobalDirection, Handedness, NodeId, RingTopology};
    use dynring_model::{PriorOutcome, SynchronyModel, TransportModel};
    use proptest::prelude::*;
    use std::fmt::Write as _;

    impl SimCheckpoint {
        /// The reference encoding the packed key's classes are checked against:
        /// the minimum over the admissible maps of a byte string holding the
        /// round, scheduler token, unpacked visit map, per-agent fields and each
        /// program's derived `Debug` string. It shares no code with the packed
        /// key beyond [`admissible_maps`], and allocates freely.
        fn canonical_key_debug(&self, ring: &RingTopology, out: &mut Vec<u8>) {
            let n = ring.size();
            let agents = &self.agents;
            let team = self.agent_count();
            let visited = &self.visited;
            assert_eq!(visited.len(), n, "checkpoint is from a different ring");
            // Program state via the derived `Debug` representation: complete
            // (every catalogue state machine derives `Debug` field by field) and
            // symmetry-invariant (protocols only ever observe local-frame
            // snapshots, so a mirrored run drives the program through identical
            // states). Rendered once per agent, shared by every candidate map.
            let mut labels = String::new();
            let mut label_ends = Vec::with_capacity(team);
            for program in &agents.program[..team] {
                let _ = write!(labels, "{program:?}");
                label_ends.push(labels.len());
            }
            // `last_active_round` is only ever consumed through order comparisons
            // (`min_by_key` in the first-mover scheduler and adversary), so the
            // key encodes its competition rank among the agents (how many were
            // last active strictly earlier) instead of the raw round number:
            // plays that reach the same configuration along different
            // activation histories coincide.
            let last_active = &agents.last_active_round[..team];
            let last_active_rank: Vec<u8> = last_active
                .iter()
                .map(|&r| {
                    let rank = last_active
                        .iter()
                        .filter(|&&other| other < r)
                        .count();
                    u8::try_from(rank).unwrap_or(u8::MAX)
                })
                .collect();
            let emit = |rot: usize, reflect: bool, buf: &mut Vec<u8>| {
                buf.clear();
                buf.extend_from_slice(&self.round().to_le_bytes());
                buf.extend_from_slice(&self.token.to_le_bytes());
                // Node `w` of the canonical image is node `map⁻¹(w)` of the
                // original (both map families are trivially invertible).
                for w in 0..n {
                    let v = if reflect { (rot + n - w) % n } else { (w + n - rot) % n };
                    buf.push(u8::from(visited[v]));
                }
                let mut label_start = 0;
                for index in 0..team {
                    let v = agents.node[index].index();
                    let mapped = if reflect { (rot + n - v) % n } else { (v + rot) % n };
                    buf.extend_from_slice(&u32::try_from(mapped).unwrap_or(u32::MAX).to_le_bytes());
                    buf.push(match agents.held_port[index] {
                        None => 0,
                        Some(dir) => {
                            let dir = if reflect { dir.opposite() } else { dir };
                            match dir {
                                GlobalDirection::Ccw => 1,
                                GlobalDirection::Cw => 2,
                            }
                        }
                    });
                    buf.push(u8::from(agents.terminated_at[index].is_some()));
                    buf.push(match (agents.handedness[index], reflect) {
                        (Handedness::LeftIsCcw, false) | (Handedness::LeftIsCw, true) => 0,
                        _ => 1,
                    });
                    buf.push(match agents.prior[index] {
                        PriorOutcome::Idle => 0,
                        PriorOutcome::Moved => 1,
                        PriorOutcome::BlockedOnPort => 2,
                        PriorOutcome::PortAcquisitionFailed => 3,
                        PriorOutcome::Transported => 4,
                    });
                    buf.extend_from_slice(&agents.asleep_on_port[index].to_le_bytes());
                    buf.push(last_active_rank[index]);
                    let label_end = label_ends[index];
                    buf.extend_from_slice(&labels.as_bytes()[label_start..label_end]);
                    buf.push(0xFF);
                    label_start = label_end;
                }
            };
            out.clear();
            let mut scratch: Vec<u8> = Vec::new();
            let mut first = true;
            let mut consider = |rot: usize, reflect: bool, out: &mut Vec<u8>| {
                emit(rot, reflect, &mut scratch);
                if first || scratch < *out {
                    std::mem::swap(out, &mut scratch);
                    first = false;
                }
            };
            for (rot, reflect) in admissible_maps(ring) {
                consider(rot, reflect, out);
            }
        }
    }

    /// A trace-off simulation with no edge removals: one `algorithm` agent
    /// per `(start, handedness)`.
    fn sim_of(
        ring: RingTopology,
        synchrony: SynchronyModel,
        algorithm: Algorithm,
        starts: &[(usize, Handedness)],
        activation: Box<dyn ActivationPolicy>,
    ) -> Simulation {
        let agents = starts
            .iter()
            .map(|&(start, handedness)| {
                AgentSpec::new(NodeId::new(start), handedness, algorithm.instantiate())
            })
            .collect();
        RunSpec::new(ring, synchrony, agents, false)
            .unwrap()
            .instantiate(activation, Box::new(NoRemoval))
    }

    fn known_bound_sim(ring: RingTopology, starts: &[(usize, Handedness)], n: usize) -> Simulation {
        let algorithm = Algorithm::KnownBound { upper_bound: n };
        sim_of(ring, SynchronyModel::Fsync, algorithm, starts, Box::new(FullActivation))
    }

    #[test]
    fn step_with_edge_blocks_exactly_the_forced_edge() {
        let mut sim = sim_of(
            RingTopology::new(6).unwrap(),
            SynchronyModel::Fsync,
            Algorithm::LoneWalker { patience: 5 },
            &[(2, Handedness::LeftIsCcw)],
            Box::new(FullActivation),
        );
        // Block whatever the agent is about to try: it must not move.
        for _ in 0..4 {
            let target = sim.peek().agents[0].predicted.target_edge().expect("walker moves");
            assert!(sim.step_with_edge(Some(target)));
            assert_eq!(sim.total_moves(), 0);
        }
        // Out-of-range forced edges are ignored like invalid policy choices,
        // and an all-present forced round lets the walker through.
        let mut moved = false;
        for forced in [Some(EdgeId::new(999)), None] {
            sim.step_with_edge(forced);
            moved |= sim.total_moves() > 0;
        }
        assert!(moved, "an unblocked round must let the lone walker move");
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        let n = 7;
        let pt = SynchronyModel::Ssync(TransportModel::PassiveTransport);
        let (ccw, cw) = (Handedness::LeftIsCcw, Handedness::LeftIsCw);
        let e = |index| Some(EdgeId::new(index));
        // Both synchrony models, with the agents apart and, in the third and
        // fourth cases, sharing a node when the run forks. Each case drives
        // its own adversarial prefix up to the fork. The last case runs the
        // catalogue's `LandmarkNoChirality`, whose state owns a `Vec` and a
        // `String`, on a landmark ring; the others run `KnownBound`.
        let cases = [
            (pt, [(0, ccw), (3, cw)], [e(0), None, e(3), None, None], false),
            (SynchronyModel::Fsync, [(0, ccw), (3, cw)], [e(0), None, e(3), None, None], false),
            (pt, [(2, ccw), (2, ccw)], [None, e(0), e(0), e(0), e(4)], false),
            (SynchronyModel::Fsync, [(2, ccw), (2, ccw)], [e(2), None, e(3), e(2), e(2)], false),
            (SynchronyModel::Fsync, [(1, ccw), (4, cw)], [e(1), None, e(4), None, e(0)], true),
        ];
        for (synchrony, starts, prefix, landmark) in cases {
            let activation: Box<dyn ActivationPolicy> = if synchrony.is_fsync() {
                Box::new(FullActivation)
            } else {
                Box::new(RoundRobinSingle::new())
            };
            let ring = if landmark {
                RingTopology::with_landmark(n, NodeId::new(0)).unwrap()
            } else {
                RingTopology::new(n).unwrap()
            };
            let algorithm = if landmark {
                Algorithm::LandmarkNoChirality
            } else {
                Algorithm::KnownBound { upper_bound: n }
            };
            let mut sim = sim_of(ring, synchrony, algorithm, &starts, activation);
            assert!(sim.supports_checkpoint());
            // A reused checkpoint holds the round-1 state until the fork is
            // written over it.
            let mut reused = sim.checkpoint();
            for missing in prefix {
                sim.step_with_edge(missing);
                if sim.round() == 1 {
                    sim.checkpoint_into(&mut reused);
                }
            }
            let fork = sim.checkpoint();
            sim.checkpoint_into(&mut reused);
            assert_eq!(fork.round(), 5);
            assert_eq!(fork.agent_count(), 2);
            let positions = sim.positions();
            assert_eq!(positions[0] == positions[1], starts[0] == starts[1], "{synchrony:?}");
            let continuation = [e(1), None, e(2), None];
            for missing in continuation {
                sim.step_with_edge(missing);
            }
            let report = sim.report(StopReason::BudgetExhausted);
            let first_branch = sim.checkpoint();
            let mut key_a = Vec::new();
            first_branch.canonical_key(sim.ring(), &mut key_a);
            // Rewind and replay the same choices, from the fresh checkpoint
            // and then from the reused one: every observable must match.
            for (label, fork) in [("fresh", &fork), ("reused", &reused)] {
                let label = format!("{synchrony:?} landmark={landmark} {label}");
                sim.restore(fork);
                assert_eq!(sim.round(), 5);
                assert_eq!(format!("{:?}", sim.checkpoint()), format!("{fork:?}"), "{label}");
                for missing in continuation {
                    sim.step_with_edge(missing);
                }
                assert_eq!(sim.report(StopReason::BudgetExhausted), report, "{label}");
                let second_branch = sim.checkpoint();
                assert_eq!(format!("{second_branch:?}"), format!("{first_branch:?}"), "{label}");
                let mut key_b = Vec::new();
                second_branch.canonical_key(sim.ring(), &mut key_b);
                assert_eq!(key_a, key_b, "{label}");
            }
            let (mut fork_key, mut reused_key) = (Vec::new(), Vec::new());
            let map = fork.canonical_key(sim.ring(), &mut fork_key);
            let reused_map =
                reused.canonical_key_into(sim.ring(), &mut KeyScratch::new(), &mut reused_key);
            assert_eq!((fork_key, map), (reused_key, reused_map));
        }
    }

    #[test]
    fn canonical_key_is_rotation_invariant_on_anonymous_rings() {
        let n = 8;
        let ring = RingTopology::new(n).unwrap();
        let base = known_bound_sim(ring.clone(), &[(0, Handedness::LeftIsCcw), (1, Handedness::LeftIsCcw)], n);
        let mut keys = Vec::new();
        base.checkpoint().canonical_key(&ring, &mut keys);
        for shift in 1..n {
            let rotated = known_bound_sim(
                ring.clone(),
                &[(shift % n, Handedness::LeftIsCcw), ((1 + shift) % n, Handedness::LeftIsCcw)],
                n,
            );
            let mut rotated_key = Vec::new();
            rotated.checkpoint().canonical_key(&ring, &mut rotated_key);
            assert_eq!(keys, rotated_key, "shift {shift}");
        }
        // A genuinely different configuration must not collide.
        let apart = known_bound_sim(ring.clone(), &[(0, Handedness::LeftIsCcw), (3, Handedness::LeftIsCcw)], n);
        let mut apart_key = Vec::new();
        apart.checkpoint().canonical_key(&ring, &mut apart_key);
        assert_ne!(keys, apart_key);
    }

    #[test]
    fn canonical_key_is_reflection_invariant() {
        let n = 8;
        let ring = RingTopology::new(n).unwrap();
        // Mirror image about node 0: node v ↦ (n − v) mod n, and every
        // agent's handedness flips.
        let base = known_bound_sim(ring.clone(), &[(1, Handedness::LeftIsCcw), (4, Handedness::LeftIsCw)], n);
        let mirrored =
            known_bound_sim(ring.clone(), &[(n - 1, Handedness::LeftIsCw), (n - 4, Handedness::LeftIsCcw)], n);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        base.checkpoint().canonical_key(&ring, &mut a);
        mirrored.checkpoint().canonical_key(&ring, &mut b);
        assert_eq!(a, b);
        // Flipping handedness *without* mirroring the positions is a
        // different configuration.
        let flipped_only =
            known_bound_sim(ring.clone(), &[(1, Handedness::LeftIsCw), (4, Handedness::LeftIsCcw)], n);
        let mut c = Vec::new();
        flipped_only.checkpoint().canonical_key(&ring, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn landmark_pins_the_rotation_but_keys_stay_comparable_across_landmarks() {
        let n = 7;
        // Same configuration relative to the landmark, landmark at different
        // absolute positions: identical keys.
        let ring_a = RingTopology::with_landmark(n, NodeId::new(0)).unwrap();
        let ring_b = RingTopology::with_landmark(n, NodeId::new(3)).unwrap();
        let a = known_bound_sim(ring_a.clone(), &[(1, Handedness::LeftIsCcw), (2, Handedness::LeftIsCcw)], n);
        let b = known_bound_sim(ring_b.clone(), &[(4, Handedness::LeftIsCcw), (5, Handedness::LeftIsCcw)], n);
        let (mut key_a, mut key_b) = (Vec::new(), Vec::new());
        a.checkpoint().canonical_key(&ring_a, &mut key_a);
        b.checkpoint().canonical_key(&ring_b, &mut key_b);
        assert_eq!(key_a, key_b);
        // Moving the agents relative to the landmark is a different
        // configuration — the landmark forbids the rotation that would
        // identify them on an anonymous ring.
        let c = known_bound_sim(ring_a.clone(), &[(2, Handedness::LeftIsCcw), (3, Handedness::LeftIsCcw)], n);
        let mut key_c = Vec::new();
        c.checkpoint().canonical_key(&ring_a, &mut key_c);
        assert_ne!(key_a, key_c);
    }

    /// A catalogue cell as the model checker branches it: `synchrony` with
    /// a deterministic scheduler of its model (FSYNC: everyone; ET: fair
    /// round robin; NS: the first-mover rule, which orders agents by their
    /// last-active rounds; PT: sleep-blocked), the given landmark, and no
    /// edge removal (the test forces every edge choice).
    fn catalog_sim(
        n: usize,
        algorithm: Algorithm,
        synchrony: SynchronyModel,
        starts: &[usize],
        orientations: &[Handedness],
        landmark: Option<usize>,
    ) -> Simulation {
        let ring = match landmark {
            Some(l) => RingTopology::with_landmark(n, NodeId::new(l)).unwrap(),
            None => RingTopology::new(n).unwrap(),
        };
        let activation: Box<dyn ActivationPolicy> = match synchrony {
            SynchronyModel::Fsync => Box::new(FullActivation),
            SynchronyModel::Ssync(TransportModel::EventualTransport) => {
                Box::new(EtFairness::new(Box::new(RoundRobinSingle::new()), 0))
            }
            SynchronyModel::Ssync(TransportModel::NoSimultaneity) => Box::new(FirstMoverOnly),
            SynchronyModel::Ssync(_) => Box::new(AlternateBlocked::new(3)),
        };
        let starts: Vec<(usize, Handedness)> =
            starts.iter().copied().zip(orientations.iter().copied()).collect();
        sim_of(ring, synchrony, algorithm, &starts, activation)
    }

    /// Asserts that two runs agree on every column a key holds: round,
    /// activation token, visit map, and per agent node, held port,
    /// handedness, prior outcome, termination flag, sleep age, program
    /// state, and the order of the last-active rounds.
    fn assert_key_visible_eq(a: &Simulation, b: &Simulation, label: &str) {
        let (a, b) = (a.checkpoint(), b.checkpoint());
        assert_eq!((a.round(), a.token), (b.round(), b.token), "{label}: round, token");
        assert_eq!(a.visited, b.visited, "{label}: visit map");
        let (x, y) = (&a.agents, &b.agents);
        assert_eq!(x.node, y.node, "{label}: nodes");
        assert_eq!(x.held_port, y.held_port, "{label}: held ports");
        assert_eq!(x.handedness, y.handedness, "{label}: handedness");
        assert_eq!(x.prior, y.prior, "{label}: priors");
        let terminated = |agents: &AgentSoA| -> Vec<bool> {
            agents.terminated_at.iter().map(Option::is_some).collect()
        };
        assert_eq!(terminated(x), terminated(y), "{label}: termination flags");
        assert_eq!(x.asleep_on_port, y.asleep_on_port, "{label}: sleep ages");
        assert_eq!(format!("{:?}", x.program), format!("{:?}", y.program), "{label}: programs");
        let order = |agents: &AgentSoA| -> Vec<std::cmp::Ordering> {
            let rounds = &agents.last_active_round;
            rounds.iter().flat_map(|r| rounds.iter().map(move |other| r.cmp(other))).collect()
        };
        assert_eq!(order(x), order(y), "{label}: last-active order");
    }

    #[test]
    fn competition_ranks_become_dense_ranks() {
        for (competition, dense) in [
            (vec![0, 0, 2], vec![0, 0, 1]),
            (vec![2, 0, 0], vec![1, 0, 0]),
            (vec![0, 1, 2], vec![0, 1, 2]),
            (vec![1, 0], vec![1, 0]),
            (vec![0, 0, 0, 3, 4], vec![0, 0, 0, 1, 2]),
            (vec![3, 0, 0, 0, 4], vec![1, 0, 0, 0, 2]),
            (vec![], vec![]),
        ] {
            let mut ranks = competition.clone();
            dense_from_competition(&mut ranks);
            assert_eq!(ranks, dense, "{competition:?}");
        }
    }

    #[test]
    fn restored_last_active_rounds_keep_their_order_at_or_below_the_round() {
        // Three agents at round 1, last active at rounds {0, 1, 0}: the key
        // holds the competition ranks {0, 2, 0}. Restoring 2 would tie the
        // round-2 activation, and the first-mover rule breaks that tie by
        // id, so the restored run must hold values no later than round 1.
        let n = 7;
        let ns = SynchronyModel::Ssync(TransportModel::NoSimultaneity);
        let algorithm = Algorithm::PtBoundNoChirality { upper_bound: n };
        let orientations = [Handedness::LeftIsCcw; 3];
        let mut sim = catalog_sim(n, algorithm, ns, &[0, 2, 4], &orientations, None);
        let mut twin = catalog_sim(n, algorithm, ns, &[0, 2, 4], &orientations, None);
        sim.step_with_edge(None);
        let mut state = sim.checkpoint();
        state.agents.last_active_round.copy_from_slice(&[0, 1, 0]);
        sim.restore(&state);
        let mut scratch = KeyScratch::new();
        let (mut key, mut twin_key) = (Vec::new(), Vec::new());
        let map = sim.canonical_key_into(&mut scratch, &mut key);
        let mut reader = KeyReader::new(&key);
        let (_round, _token) = (reader.u64(), reader.u64());
        let ranks: Vec<u64> = (0..3)
            .map(|_| {
                let (_asleep, rank) = (reader.u64(), reader.u64());
                reader.prefixed();
                rank
            })
            .collect();
        assert_eq!(ranks, [0, 2, 0]);
        twin.restore_from_key(&key, map);
        assert_eq!(twin.checkpoint().agents.last_active_round, [0, 1, 0]);
        for round in 2..10 {
            let label = format!("round {round}");
            sim.step_with_edge(None);
            twin.step_with_edge(None);
            assert_key_visible_eq(&sim, &twin, &label);
            let map = sim.canonical_key_into(&mut scratch, &mut key);
            assert_eq!(twin.canonical_key_into(&mut scratch, &mut twin_key), map, "{label}");
            assert_eq!(key, twin_key, "{label}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The packed binary key induces **exactly** the same equivalence
        /// classes as the `Debug`-string key. Two configurations — one a
        /// random rotation/reflection of the other, or a genuinely different
        /// cell (perturbed start) — have equal packed keys if and only if
        /// they have equal `Debug` keys, at every round of a random
        /// forced-edge play.
        #[test]
        fn packed_key_classes_match_debug_key_classes(
            n in 4usize..9,
            pick in 0usize..64,
            start_a in 0usize..8,
            start_b in 0usize..8,
            shift in 0usize..8,
            reflect in any::<bool>(),
            perturb in any::<bool>(),
            schedule_bits in any::<u64>(),
        ) {
            let catalog = Algorithm::full_catalog(n);
            let algorithm = catalog[pick % catalog.len()];
            let shift = shift % n;
            let agents = algorithm.required_agents();
            let starts: Vec<usize> =
                [start_a % n, start_b % n, (start_a + start_b) % n][..agents.min(3)].to_vec();
            if starts.is_empty() { return Ok(()); }

            // The comparison cell: a symmetry image of the base (equal
            // classes expected) or a perturbed sibling (usually distinct
            // classes) — either way both encodings must agree on equality.
            let map = |v: usize| {
                let rotated = (v + shift) % n;
                if reflect { (n - rotated) % n } else { rotated }
            };
            let landmark = algorithm.needs_landmark().then_some(0);
            let orientations = vec![Handedness::LeftIsCcw; starts.len()];
            let synchrony = algorithm.synchrony();
            let mut sim_a = catalog_sim(n, algorithm, synchrony, &starts, &orientations, landmark);
            let (other_starts, other_orientations, other_landmark) = if perturb {
                (starts.iter().map(|&s| (s + 1) % n).collect(), orientations, landmark)
            } else {
                let handedness =
                    if reflect { Handedness::LeftIsCw } else { Handedness::LeftIsCcw };
                (
                    starts.iter().map(|&s| map(s)).collect::<Vec<_>>(),
                    vec![handedness; starts.len()],
                    landmark.map(map),
                )
            };
            let mut sim_b = catalog_sim(
                n,
                algorithm,
                synchrony,
                &other_starts,
                &other_orientations,
                other_landmark,
            );
            let ring = sim_a.ring().clone();
            let (mut packed_a, mut packed_b) = (Vec::new(), Vec::new());
            let (mut debug_a, mut debug_b) = (Vec::new(), Vec::new());
            for round in 0..8u32 {
                let choice = (schedule_bits >> (8 * round)) as usize % (n + 1);
                let edge_a = (choice < n).then(|| EdgeId::new(choice));
                let edge_b = if perturb {
                    edge_a
                } else {
                    // Map the forced edge through the same symmetry: edge
                    // e = (e, e+1) rotates to e + shift and reflects to
                    // (n - 1) - e.
                    (choice < n).then(|| {
                        let rotated = (choice + shift) % n;
                        EdgeId::new(if reflect { (n + n - 1 - rotated) % n } else { rotated })
                    })
                };
                sim_a.step_with_edge(edge_a);
                sim_b.step_with_edge(edge_b);
                let cp_a = sim_a.checkpoint();
                let cp_b = sim_b.checkpoint();
                cp_a.canonical_key(&ring, &mut packed_a);
                cp_b.canonical_key(&ring, &mut packed_b);
                cp_a.canonical_key_debug(&ring, &mut debug_a);
                cp_b.canonical_key_debug(&ring, &mut debug_b);
                prop_assert_eq!(
                    packed_a == packed_b,
                    debug_a == debug_b,
                    "{} n={} shift={} reflect={} perturb={}: encodings disagree at round {} \
                     (packed equal: {}, debug equal: {})",
                    algorithm, n, shift, reflect, perturb, round,
                    packed_a == packed_b, debug_a == debug_b
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Decoding a key gives back the keyed run: re-keying the restored
        /// run yields the same bytes and map, the two agree on every column
        /// the key holds, and stepping both with the same edge choice keeps
        /// them agreeing. Every catalogue program, every synchrony model,
        /// landmark and anonymous rings, and rings past 64 nodes, whose keys
        /// take the per-map comparison path.
        #[test]
        fn restore_from_key_round_trips_every_catalogue_type(
            n in 4usize..9,
            wide in any::<bool>(),
            pick in 0usize..64,
            model in 0usize..4,
            anonymous in any::<bool>(),
            start_a in 0usize..80,
            start_b in 0usize..80,
            flips in any::<u8>(),
            schedule_bits in any::<u64>(),
        ) {
            let n = if wide { n + 61 } else { n };
            let catalog = Algorithm::full_catalog(n);
            let algorithm = catalog[pick % catalog.len()];
            let synchrony = [
                SynchronyModel::Fsync,
                SynchronyModel::Ssync(TransportModel::NoSimultaneity),
                SynchronyModel::Ssync(TransportModel::PassiveTransport),
                SynchronyModel::Ssync(TransportModel::EventualTransport),
            ][model];
            let starts = [start_a % n, start_b % n, (start_a + start_b) % n];
            let starts = &starts[..algorithm.required_agents().min(3)];
            let orientations: Vec<Handedness> = (0..starts.len())
                .map(|i| {
                    if flips >> i & 1 == 1 { Handedness::LeftIsCw } else { Handedness::LeftIsCcw }
                })
                .collect();
            let landmark = (algorithm.needs_landmark() || !anonymous).then_some(start_b % n);
            let build = || catalog_sim(n, algorithm, synchrony, starts, &orientations, landmark);
            let (mut sim, mut twin) = (build(), build());
            let mut scratch = KeyScratch::new();
            let (mut key, mut twin_key) = (Vec::new(), Vec::new());
            for round in 0..12u32 {
                let choice = (schedule_bits >> (5 * round)) as usize % 32;
                let edge = (choice < n).then(|| EdgeId::new(choice));
                sim.step_with_edge(edge);
                let label = format!("{algorithm} {synchrony:?} n={n} round {round}");
                if round > 0 {
                    // The twin was restored from last round's key: it must
                    // step exactly as the keyed run did.
                    twin.step_with_edge(edge);
                    assert_key_visible_eq(&sim, &twin, &label);
                }
                let map = sim.canonical_key_into(&mut scratch, &mut key);
                twin.restore_from_key(&key, map);
                assert_key_visible_eq(&sim, &twin, &label);
                let last_active = twin.checkpoint().agents.last_active_round;
                prop_assert!(last_active.iter().all(|&r| r <= twin.round()), "{}", label);
                let twin_map = twin.canonical_key_into(&mut scratch, &mut twin_key);
                prop_assert_eq!(twin_map, map, "{}", label);
                prop_assert_eq!(&twin_key, &key, "{}", label);
            }
        }
    }
}
