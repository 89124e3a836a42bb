//! Branchable run state: the checkpoints the model checker forks from, and
//! the canonical configuration key its memo table deduplicates on.
//!
//! A checkpoint captures everything that determines a run's future
//! behaviour — the run counters (round, live agents, unvisited nodes,
//! exploration round), the global visit map, the agent columns (every
//! agent's position, held port, orientation, prior outcome, termination
//! round, statistics, visit map and full program state) and the activation
//! policy's state token (see
//! [`ActivationPolicy::state_token`](crate::scheduler::ActivationPolicy::state_token)).
//!
//! Checkpoints live in a [`CheckpointStore`], one growable buffer per
//! column. With `A` agents on `n` nodes, slot `k` holds rows `k·A..(k+1)·A`
//! of each per-agent column, rows `k·n..(k+1)·n` of the global visit map and
//! rows `k·A·n..(k+1)·A·n` of the per-agent visit maps, plus one counter set
//! and one activation token. The agent columns are the simulation's own
//! struct-of-arrays type, one column per agent fact, so checkpointing into a
//! slot, restoring from one and copying a slot between stores are each the
//! one column copy `AgentSoA::copy_team`. A store allocates once
//! per column doubling and frees once per column, however many checkpoints
//! it holds. A [`SimCheckpoint`] is a store of one slot, for callers that
//! keep one state at a time.
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
//! produced by [`CheckpointStore::canonical_key_into`] quotients both away:
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
//! the admissible maps (2 for landmark rings, `2n` for anonymous ones).
//! The encoding covers exactly the state that can influence future
//! behaviour: the permuted visit map, each agent's mapped position, held
//! port, termination flag, handedness, prior outcome, sleep/activation ages
//! (read by the paper's schedulers) and the complete program state
//! (protocols only ever observe local-frame snapshots, so program state is
//! invariant under both symmetries). Statistics that feed reports but never
//! decisions — move counts, termination rounds, per-agent visit maps — are
//! excluded, which is what lets the memo table collapse distinct histories
//! onto one frontier state.
//!
//! # Packed key format
//!
//! [`CheckpointStore::canonical_key_into`] produces the key in a compact
//! binary layout with **zero steady-state allocations** (all buffers come
//! from a recycled [`KeyScratch`]). Every integer is a prefix-free LEB128
//! varint written by [`dynring_model::statekey`], the one module that knows
//! the integer encoding:
//!
//! * a *symmetry-invariant* prefix, emitted once — round counter,
//!   activation-policy token, and per agent the sleep age, the dense rank of
//!   its last-active round, and its length-prefixed program state via
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

use crate::sim::RunCounters;
use crate::world::{put_slot, AgentSoA};
use dynring_graph::{GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::statekey::{push_prefixed, push_u64};
use dynring_model::{PriorOutcome, Protocol};
use std::ops::Range;

/// Recycled scratch buffer for [`CheckpointStore::canonical_key_into`].
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

/// Checkpoints of one simulation shape, kept column by column in numbered
/// slots (see the [module docs](self) for the layout).
///
/// [`Simulation::checkpoint_to_slot`](crate::sim::Simulation::checkpoint_to_slot)
/// writes a slot,
/// [`Simulation::restore_from_slot`](crate::sim::Simulation::restore_from_slot)
/// reads one back and [`CheckpointStore::copy_slot`] copies one between
/// stores. Slots are written in order: writing slot [`CheckpointStore::len`]
/// appends it, writing an earlier one overwrites it in place, and a write
/// of another team or ring shape must be to slot 0, which empties the store
/// first. Capacity is kept throughout, so refilling a store with up to as
/// many checkpoints of one shape as it has held before allocates nothing.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// The agent columns, in the simulation's own layout, slot after slot.
    pub(crate) agents: AgentSoA,
    /// The global visit maps, one ring's worth per slot.
    pub(crate) visited: Vec<bool>,
    /// The run counters of each slot.
    pub(crate) counters: Vec<RunCounters>,
    /// The activation policy's state token of each slot.
    pub(crate) activation_tokens: Vec<u64>,
    /// Agents per slot and ring size: the shape every slot shares.
    pub(crate) shape: (usize, usize),
}

impl CheckpointStore {
    /// Number of slots written since the store last changed shape.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no slot has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Makes slot `to` a copy of slot `from` of `src` — the same column copy
    /// as checkpointing a simulation into it.
    ///
    /// # Panics
    ///
    /// Panics if `to` is past [`CheckpointStore::len`] (or not 0 when `src`
    /// has another shape), or `from` is not a slot of `src`.
    pub fn copy_slot(&mut self, to: usize, src: &CheckpointStore, from: usize) {
        let state = (src.counters[from], src.activation_tokens[from]);
        self.write(to, &src.agents, from, src.shape, src.visited_at(from), state);
    }

    /// Writes slot `slot` from team slot `from` of `agents` (a team of
    /// `shape`), the global visit map `visited` and the run counters and
    /// activation token in `state`: the one write behind checkpointing a
    /// simulation and copying a slot.
    pub(crate) fn write(
        &mut self,
        slot: usize,
        agents: &AgentSoA,
        from: usize,
        shape: (usize, usize),
        visited: &[bool],
        (counters, token): (RunCounters, u64),
    ) {
        let slots = if shape == self.shape { self.len() } else { 0 };
        assert!(slot <= slots, "slot {slot} is past the end of a {slots}-slot store");
        let slots = slots.max(slot + 1);
        self.shape = shape;
        self.agents.copy_team(slot, slots, agents, from, shape);
        put_slot(&mut self.visited, slot, slots, visited);
        put_slot(&mut self.counters, slot, slots, &[counters]);
        put_slot(&mut self.activation_tokens, slot, slots, &[token]);
    }

    /// The global visit map of slot `slot`.
    pub(crate) fn visited_at(&self, slot: usize) -> &[bool] {
        let ring = self.shape.1;
        &self.visited[slot * ring..(slot + 1) * ring]
    }

    /// The agent rows of slot `slot`.
    fn rows(&self, slot: usize) -> Range<usize> {
        let team = self.shape.0;
        slot * team..(slot + 1) * team
    }

    /// Writes the canonicalised configuration key of slot `slot` into `out`
    /// (cleared first; capacity reused across calls), in the packed format
    /// of the [module docs](self). Two slots receive the same key **iff**
    /// their configurations are identical up to the ring symmetries — the
    /// memo-table identity of the model checker's breadth-first search.
    /// This is the allocation-free hot path; `scratch` is the caller's.
    ///
    /// The caller's `ring` must be the ring the slot was captured on (the
    /// store does not keep the landmark). The bytes are those of
    /// [`SimCheckpoint::canonical_key_exhaustive`]; only the search for the
    /// minimising map differs.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a slot of the store or `ring`'s size does not
    /// match it.
    pub fn canonical_key_into(
        &self,
        slot: usize,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        self.write_invariant_prefix(slot, ring, out);
        if ring.size() > 64 {
            self.push_min_variant_exhaustive(slot, ring, scratch, out);
        } else {
            self.push_min_variant(slot, ring, out);
        }
    }

    /// The packed key of slot `slot`, chosen the direct way (see
    /// [`SimCheckpoint::canonical_key_exhaustive`]).
    pub(crate) fn canonical_key_exhaustive(
        &self,
        slot: usize,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        self.write_invariant_prefix(slot, ring, out);
        self.push_min_variant_exhaustive(slot, ring, scratch, out);
    }

    /// Writes the symmetry-invariant prefix of slot `slot`'s packed key into
    /// `out` (cleared first).
    fn write_invariant_prefix(&self, slot: usize, ring: &RingTopology, out: &mut Vec<u8>) {
        assert_eq!(self.shape.1, ring.size(), "checkpoint is from a different ring");
        assert!(slot < self.len(), "slot {slot} of a {}-slot store", self.len());
        // Symmetry-invariant prefix: both map families relabel nodes and
        // global directions but never touch round counters, scheduler state,
        // sleep ages or program state (protocols only see local frames), so
        // these are emitted once, outside the min-over-maps loop.
        let agents = &self.agents;
        let rows = self.rows(slot);
        let last_active = &agents.last_active_round[rows.clone()];
        out.clear();
        push_u64(out, self.counters[slot].round);
        push_u64(out, self.activation_tokens[slot]);
        for index in rows {
            push_u64(out, agents.asleep_on_port[index]);
            // `last_active_round` is only consumed through order comparisons
            // (`min_by_key` in the first-mover scheduler and adversary), so
            // the key encodes its dense rank among the agents: plays reaching
            // the same configuration along different activation histories
            // coincide. Teams are tiny, so the O(k²) scan beats allocating a
            // rank table.
            let r = agents.last_active_round[index];
            let rank = last_active.iter().filter(|&&other| other < r).count();
            push_u64(out, rank as u64);
            push_prefixed(out, |out| agents.program[index].write_state_key(out));
        }
    }

    /// Appends the lexicographically least variant section of slot `slot`
    /// over the admissible maps, emitting every candidate in full.
    fn push_min_variant_exhaustive(
        &self,
        slot: usize,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        let variant_at = out.len();
        for (i, (rot, reflect)) in admissible_maps(ring).enumerate() {
            self.emit_variant(slot, ring.size(), rot, reflect, &mut scratch.candidate);
            if i == 0 || scratch.candidate.as_slice() < &out[variant_at..] {
                out.truncate(variant_at);
                out.extend_from_slice(&scratch.candidate);
            }
        }
    }

    /// Appends the same section as
    /// [`CheckpointStore::push_min_variant_exhaustive`] for a ring of at
    /// most 64 nodes, in two passes of integer compares.
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
    fn push_min_variant(&self, slot: usize, ring: &RingTopology, out: &mut Vec<u8>) {
        let n = ring.size();
        let full = u64::MAX >> (64 - n);
        let visited = self
            .visited_at(slot)
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
        // no two maps tie on the whole section unless the team is empty.
        let agent = |index: usize| (self.agents.node[index].index(), self.flags(index));
        let value = |(node, flags): (usize, [u8; 2]), (rot, reflect): (usize, bool)| {
            // `node < n ≤ 64`, so the value fits in a `u16`.
            ((map_node(n, node, rot, reflect) as u16) << 8) | u16::from(flags[usize::from(reflect)])
        };
        let rows = self.rows(slot);
        let first = (!rows.is_empty()).then(|| agent(rows.start));
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
        for index in rows {
            let value = value(agent(index), winner);
            push_u64(out, u64::from(value >> 8));
            out.push(value as u8);
        }
    }

    /// The symmetry-variant section of slot `slot`'s packed key under one
    /// candidate map: bit-packed permuted visit map, then mapped node +
    /// flags byte per agent.
    fn emit_variant(&self, slot: usize, n: usize, rot: usize, reflect: bool, buf: &mut Vec<u8>) {
        buf.clear();
        let visited = self.visited_at(slot);
        // Node `w` of the canonical image is node `map⁻¹(w)` of the
        // original (both map families are trivially invertible).
        let mut packed = 0u8;
        for w in 0..n {
            let v = if reflect { (rot + n - w) % n } else { (w + n - rot) % n };
            if visited[v] {
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
        for index in self.rows(slot) {
            let node = map_node(n, self.agents.node[index].index(), rot, reflect);
            push_u64(buf, node as u64);
            buf.push(self.flags(index)[usize::from(reflect)]);
        }
    }

    /// The flags bytes of agent row `index` under a candidate map that does
    /// not reflect the ring (`[0]`) and under one that does (`[1]`).
    /// Reflection swaps the held port's global direction and flips the
    /// handedness bit.
    fn flags(&self, index: usize) -> [u8; 2] {
        let agents = &self.agents;
        let port = match agents.held_port[index] {
            None => [0, 0],
            Some(GlobalDirection::Ccw) => [1, 2],
            Some(GlobalDirection::Cw) => [2, 1],
        };
        let handedness = match agents.handedness[index] {
            Handedness::LeftIsCcw => [0, 1 << 3],
            Handedness::LeftIsCw => [1 << 3, 0],
        };
        let prior = match agents.prior[index] {
            PriorOutcome::Idle => 0u8,
            PriorOutcome::Moved => 1,
            PriorOutcome::BlockedOnPort => 2,
            PriorOutcome::PortAcquisitionFailed => 3,
            PriorOutcome::Transported => 4,
        };
        let shared = (u8::from(agents.terminated_at[index].is_some()) << 2) | (prior << 4);
        [shared | port[0] | handedness[0], shared | port[1] | handedness[1]]
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
/// consumed by [`Simulation::restore`](crate::sim::Simulation::restore): a
/// [`CheckpointStore`] of one slot.
///
/// Checkpoints are only meaningful for the simulation (or an identically
/// shaped recycle of the spec) they were captured from; `restore` asserts
/// the shapes match. See the [module docs](self) for what is and is not
/// captured.
#[derive(Debug, Default)]
pub struct SimCheckpoint(pub(crate) CheckpointStore);

impl SimCheckpoint {
    /// The captured run counters (all zero before the first capture).
    fn counters(&self) -> RunCounters {
        self.0.counters.first().copied().unwrap_or_default()
    }

    /// The round the checkpoint was captured at.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.counters().round
    }

    /// Number of agents captured.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.0.shape.0
    }

    /// Whether the captured state had explored the whole ring.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.counters().explored_at.is_some()
    }

    /// Number of agents that had not terminated in the captured state.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.counters().alive
    }

    /// [`CheckpointStore::canonical_key_into`] of the checkpoint, with a
    /// throwaway [`KeyScratch`]; hot callers should hold their own scratch
    /// and call [`SimCheckpoint::canonical_key_into`].
    ///
    /// # Panics
    ///
    /// Panics if nothing was captured or `ring`'s size does not match.
    pub fn canonical_key(&self, ring: &RingTopology, out: &mut Vec<u8>) {
        self.canonical_key_into(ring, &mut KeyScratch::new(), out);
    }

    /// [`CheckpointStore::canonical_key_into`] of the checkpoint.
    ///
    /// # Panics
    ///
    /// As [`SimCheckpoint::canonical_key`].
    pub fn canonical_key_into(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        self.0.canonical_key_into(0, ring, scratch, out);
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
    ) {
        self.0.canonical_key_exhaustive(0, ring, scratch, out);
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
    use super::{admissible_maps, CheckpointStore, KeyScratch, SimCheckpoint};
    use crate::adversary::NoRemoval;
    use crate::scheduler::{
        ActivationPolicy, AlternateBlocked, EtFairness, FullActivation, RoundRobinSingle,
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
            let agents = &self.0.agents;
            let team = self.agent_count();
            let visited = self.0.visited_at(0);
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
            // key encodes its dense rank among the agents instead of the raw
            // round number: plays that reach the same configuration along
            // different activation histories coincide.
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
                buf.extend_from_slice(&self.0.activation_tokens[0].to_le_bytes());
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
            // Slot 1 of the store holds the round-1 state until the fork is
            // written over it.
            let mut store = CheckpointStore::default();
            sim.checkpoint_to_slot(&mut store, 0);
            for missing in prefix {
                sim.step_with_edge(missing);
                if sim.round() == 1 {
                    sim.checkpoint_to_slot(&mut store, 1);
                }
            }
            let fork = sim.checkpoint();
            sim.checkpoint_to_slot(&mut store, 1);
            assert_eq!(store.len(), 2);
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
            // Rewind and replay the same choices, from the checkpoint and
            // then from the store's slot: every observable must match.
            for from_slot in [false, true] {
                let label = format!("{synchrony:?} landmark={landmark} from_slot={from_slot}");
                if from_slot {
                    sim.restore_from_slot(&store, 1);
                } else {
                    sim.restore(&fork);
                }
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
            let (mut fork_key, mut slot_key) = (Vec::new(), Vec::new());
            fork.canonical_key(sim.ring(), &mut fork_key);
            store.canonical_key_into(1, sim.ring(), &mut KeyScratch::new(), &mut slot_key);
            assert_eq!(fork_key, slot_key);
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

    /// A catalogue cell as the model checker branches it: the algorithm's
    /// own synchrony with the default deterministic scheduler of its model
    /// (FSYNC: everyone; ET: fair round robin; otherwise sleep-blocked), a
    /// landmark at node 0 when the algorithm needs one, and no edge removal
    /// (the test forces every edge choice).
    fn catalog_sim(
        n: usize,
        algorithm: Algorithm,
        starts: &[usize],
        orientations: &[Handedness],
        landmark: Option<usize>,
    ) -> Simulation {
        let ring = match landmark {
            Some(l) => RingTopology::with_landmark(n, NodeId::new(l)).unwrap(),
            None => RingTopology::new(n).unwrap(),
        };
        let activation: Box<dyn ActivationPolicy> = match algorithm.synchrony() {
            SynchronyModel::Fsync => Box::new(FullActivation),
            SynchronyModel::Ssync(TransportModel::EventualTransport) => {
                Box::new(EtFairness::new(Box::new(RoundRobinSingle::new()), 0))
            }
            SynchronyModel::Ssync(_) => Box::new(AlternateBlocked::new(3)),
        };
        let starts: Vec<(usize, Handedness)> =
            starts.iter().copied().zip(orientations.iter().copied()).collect();
        sim_of(ring, algorithm.synchrony(), algorithm, &starts, activation)
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
            let mut sim_a = catalog_sim(n, algorithm, &starts, &orientations, landmark);
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
            let mut sim_b =
                catalog_sim(n, algorithm, &other_starts, &other_orientations, other_landmark);
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
}
