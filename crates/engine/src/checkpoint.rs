//! Branchable run state: the checkpoint the model checker forks from, and
//! the canonical configuration key its memo table deduplicates on.
//!
//! A [`SimCheckpoint`] captures everything that determines a run's future
//! behaviour — round counter, global and per-agent visit maps, every agent's
//! position, held port, outcome flags and full program state, and the
//! activation policy's state token (see
//! [`ActivationPolicy::state_token`](crate::scheduler::ActivationPolicy::state_token)).
//! Two things are deliberately *not* captured:
//!
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
//! produced by [`SimCheckpoint::canonical_key`] quotients both away:
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
//! [`SimCheckpoint::canonical_key_into`] produces the key in a compact
//! binary layout with **zero steady-state allocations** (all buffers come
//! from a recycled [`KeyScratch`]):
//!
//! * a *symmetry-invariant* prefix, emitted once — round counter,
//!   activation-policy token, and per agent the sleep age, the dense rank of
//!   its last-active round, and its length-prefixed program state via
//!   [`AgentProgram::write_state_key`] (packed integers for catalogue
//!   protocols, a `Debug`-string fallback for foreign boxed ones);
//! * a *symmetry-variant* suffix, minimised lexicographically over the
//!   admissible maps — the permuted visit map bit-packed at 8 nodes/byte,
//!   then per agent the mapped node (`u16`) and one flags byte packing the
//!   held port (2 bits), termination flag, reflection-adjusted handedness,
//!   and prior outcome (3 bits).
//!
//! On rings of up to 64 nodes the minimising map is chosen from a `u64`
//! visited mask, comparing agent bytes only between maps that tie on it;
//! [`SimCheckpoint::canonical_key_exhaustive`] emits every map in full and
//! yields the same bytes.
//!
//! Any injective encoding yields the same equivalence classes as any other
//! over the same map family: the orbits of the symmetry group partition the
//! configuration space, and two orbits sharing their minimal encoded element
//! are equal. The retired `Debug`-string encoding is kept as
//! [`SimCheckpoint::canonical_key_debug`] so benches and the equivalence
//! proptests can measure and verify exactly that.

use crate::world::AgentProgram;
use dynring_graph::{GlobalDirection, Handedness, NodeId, RingTopology};
use dynring_model::PriorOutcome;
use std::fmt::Write as _;

/// Recycled scratch buffer for [`SimCheckpoint::canonical_key_into`].
///
/// Holding one `KeyScratch` per search worker makes canonicalisation
/// allocation-free in the steady state: the candidate buffer of the direct
/// per-map comparison (rings wider than 64 nodes, and
/// [`SimCheckpoint::canonical_key_exhaustive`]) reuses its capacity across
/// calls.
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
    pub(crate) round: u64,
    pub(crate) explored_at: Option<u64>,
    pub(crate) unvisited: usize,
    pub(crate) alive: usize,
    pub(crate) visited: Vec<bool>,
    pub(crate) node: Vec<NodeId>,
    pub(crate) held_port: Vec<Option<GlobalDirection>>,
    pub(crate) terminated: Vec<bool>,
    pub(crate) handedness: Vec<Handedness>,
    pub(crate) prior: Vec<PriorOutcome>,
    pub(crate) program: Vec<AgentProgram>,
    pub(crate) moves: Vec<u64>,
    pub(crate) activations: Vec<u64>,
    pub(crate) last_active_round: Vec<u64>,
    pub(crate) asleep_on_port: Vec<u64>,
    pub(crate) terminated_at: Vec<Option<u64>>,
    pub(crate) agent_visited: Vec<bool>,
    pub(crate) agent_visited_count: Vec<usize>,
    pub(crate) node_population: Vec<u32>,
    pub(crate) crowded_nodes: usize,
    pub(crate) activation_token: u64,
}

impl SimCheckpoint {
    /// The round the checkpoint was captured at.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of agents captured.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.node.len()
    }

    /// Whether the captured state had explored the whole ring.
    #[must_use]
    pub fn explored(&self) -> bool {
        self.explored_at.is_some()
    }

    /// Number of agents that had not terminated in the captured state.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Writes the canonicalised configuration key into `out` (cleared
    /// first; capacity reused across calls). Two checkpoints receive the
    /// same key **iff** their configurations are identical up to the ring
    /// symmetries described in the [module docs](self) — the memo-table
    /// identity of the model checker's breadth-first search.
    ///
    /// Convenience wrapper around [`SimCheckpoint::canonical_key_into`] that
    /// allocates a throwaway [`KeyScratch`]; hot callers should hold their
    /// own scratch and call `canonical_key_into` directly.
    ///
    /// The caller's `ring` must be the ring the checkpoint was captured on
    /// (the checkpoint itself does not store the landmark).
    ///
    /// # Panics
    ///
    /// Panics if `ring`'s size does not match the checkpoint.
    pub fn canonical_key(&self, ring: &RingTopology, out: &mut Vec<u8>) {
        let mut scratch = KeyScratch::new();
        self.canonical_key_into(ring, &mut scratch, out);
    }

    /// Packed-format canonicalisation into caller-owned buffers — the
    /// allocation-free hot path of the model checker. See the
    /// [module docs](self) for the exact layout; the key identity (equal key
    /// ⇔ symmetric configuration) is the same as
    /// [`SimCheckpoint::canonical_key`], which merely wraps this.
    ///
    /// The bytes are those of [`SimCheckpoint::canonical_key_exhaustive`];
    /// only the search for the minimising map differs.
    ///
    /// # Panics
    ///
    /// Panics if `ring`'s size does not match the checkpoint.
    pub fn canonical_key_into(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        self.write_invariant_prefix(ring, out);
        if ring.size() > 64 {
            self.push_min_variant_exhaustive(ring, scratch, out);
        } else {
            self.push_min_variant(ring, out);
        }
    }

    /// The packed key of [`SimCheckpoint::canonical_key_into`], chosen the
    /// direct way: every admissible map's variant section is emitted in full
    /// and the lexicographic minimum kept. This is the reference the bitmask
    /// search is tested against byte for byte, and its path on rings wider
    /// than 64 nodes.
    ///
    /// # Panics
    ///
    /// Panics if `ring`'s size does not match the checkpoint.
    pub fn canonical_key_exhaustive(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        self.write_invariant_prefix(ring, out);
        self.push_min_variant_exhaustive(ring, scratch, out);
    }

    /// Writes the symmetry-invariant prefix of the packed key into `out`
    /// (cleared first).
    fn write_invariant_prefix(&self, ring: &RingTopology, out: &mut Vec<u8>) {
        assert_eq!(self.visited.len(), ring.size(), "checkpoint is from a different ring");
        // Symmetry-invariant prefix: both map families relabel nodes and
        // global directions but never touch round counters, scheduler state,
        // sleep ages or program state (protocols only see local frames), so
        // these are emitted once, outside the min-over-maps loop. This is
        // the structural win over the retired Debug-string encoding, which
        // re-emitted every program string for all 2n candidate maps.
        out.clear();
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.activation_token.to_le_bytes());
        for (index, program) in self.program.iter().enumerate() {
            out.extend_from_slice(&self.asleep_on_port[index].to_le_bytes());
            // `last_active_round` is only consumed through order comparisons
            // (`min_by_key` in the first-mover scheduler and adversary), so
            // the key encodes its dense rank among the agents: plays reaching
            // the same configuration along different activation histories
            // coincide. Teams are tiny (≤ u8::MAX agents), so the O(k²) scan
            // beats allocating a rank table.
            let r = self.last_active_round[index];
            let rank = self.last_active_round.iter().filter(|&&other| other < r).count();
            out.push(u8::try_from(rank).unwrap_or(u8::MAX));
            // The program state, prefixed by its `u32` length.
            let len_at = out.len();
            out.extend_from_slice(&[0; 4]);
            program.write_state_key(out);
            let len = u32::try_from(out.len() - len_at - 4).expect("program key exceeds u32");
            out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Appends the lexicographically least variant section over the
    /// admissible maps, emitting every candidate in full.
    fn push_min_variant_exhaustive(
        &self,
        ring: &RingTopology,
        scratch: &mut KeyScratch,
        out: &mut Vec<u8>,
    ) {
        let variant_at = out.len();
        for (i, (rot, reflect)) in admissible_maps(ring).enumerate() {
            self.emit_variant(ring.size(), rot, reflect, &mut scratch.candidate);
            if i == 0 || scratch.candidate.as_slice() < &out[variant_at..] {
                out.truncate(variant_at);
                out.extend_from_slice(&scratch.candidate);
            }
        }
    }

    /// Appends the same section as
    /// [`SimCheckpoint::push_min_variant_exhaustive`] for a ring of at most
    /// 64 nodes. The section opens with the bit-packed visit map, so that map
    /// decides the minimum first. Each candidate's visit map is a rotation,
    /// or a rotation of the reversal, of one `u64` mask whose little-endian
    /// bytes are the packed map, and those bytes compare lexicographically
    /// exactly as the byte-swapped word compares numerically (bits past `n`
    /// are zero in every candidate). Agent bytes are only compared between
    /// maps that tie on the mask.
    fn push_min_variant(&self, ring: &RingTopology, out: &mut Vec<u8>) {
        let n = ring.size();
        let full = u64::MAX >> (64 - n);
        let visited = (0..n).fold(0u64, |mask, v| mask | (u64::from(self.visited[v]) << v));
        // Bit `w` of `reversed` is node `n − 1 − w`.
        let reversed = visited.reverse_bits() >> (64 - n);
        let rotl = |mask: u64, by: usize| {
            if by == 0 { mask } else { ((mask << by) | (mask >> (n - by))) & full }
        };
        // Image node `w` is node `w − rot` under a rotation, and node
        // `rot − w` (bit `w − rot − 1` of `reversed`) under a reflection.
        let image = |(rot, reflect): (usize, bool)| {
            if reflect {
                rotl(reversed, if rot + 1 == n { 0 } else { rot + 1 })
            } else {
                rotl(visited, rot)
            }
        };
        let agents = |(rot, reflect): (usize, bool)| {
            (0..self.node.len()).map(move |index| self.agent_bytes(n, index, rot, reflect))
        };
        let mut maps = admissible_maps(ring);
        let mut winner = maps.next().expect("every ring admits the identity map");
        let mut winner_mask = image(winner);
        for map in maps {
            let mask = image(map);
            let order = mask
                .swap_bytes()
                .cmp(&winner_mask.swap_bytes())
                .then_with(|| agents(map).cmp(agents(winner)));
            if order.is_lt() {
                (winner, winner_mask) = (map, mask);
            }
        }
        out.extend_from_slice(&winner_mask.to_le_bytes()[..n.div_ceil(8)]);
        out.extend(agents(winner).flatten());
    }

    /// The symmetry-variant section of the packed key under one candidate
    /// map: bit-packed permuted visit map, then mapped node + flags byte per
    /// agent.
    fn emit_variant(&self, n: usize, rot: usize, reflect: bool, buf: &mut Vec<u8>) {
        buf.clear();
        // Node `w` of the canonical image is node `map⁻¹(w)` of the
        // original (both map families are trivially invertible).
        let mut packed = 0u8;
        for w in 0..n {
            let v = if reflect { (rot + n - w) % n } else { (w + n - rot) % n };
            if self.visited[v] {
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
        for index in 0..self.node.len() {
            buf.extend_from_slice(&self.agent_bytes(n, index, rot, reflect));
        }
    }

    /// Agent `index`'s part of the variant section under one candidate map:
    /// its mapped node as a little-endian `u16`, then one flags byte.
    fn agent_bytes(&self, n: usize, index: usize, rot: usize, reflect: bool) -> [u8; 3] {
        let v = self.node[index].index();
        // `v ↦ rot − v` or `v ↦ v + rot`, reduced mod n without a division.
        let mapped = if reflect { rot + n - v } else { v + rot };
        let mapped = if mapped >= n { mapped - n } else { mapped };
        let [lo, hi] = u16::try_from(mapped).unwrap_or(u16::MAX).to_le_bytes();
        let port = match self.held_port[index] {
            None => 0u8,
            Some(dir) => {
                let dir = if reflect { dir.opposite() } else { dir };
                match dir {
                    GlobalDirection::Ccw => 1,
                    GlobalDirection::Cw => 2,
                }
            }
        };
        let handedness = match (self.handedness[index], reflect) {
            (Handedness::LeftIsCcw, false) | (Handedness::LeftIsCw, true) => 0u8,
            _ => 1u8,
        };
        let prior = match self.prior[index] {
            PriorOutcome::Idle => 0u8,
            PriorOutcome::Moved => 1,
            PriorOutcome::BlockedOnPort => 2,
            PriorOutcome::PortAcquisitionFailed => 3,
            PriorOutcome::Transported => 4,
        };
        [lo, hi, port | (u8::from(self.terminated[index]) << 2) | (handedness << 3) | (prior << 4)]
    }

    /// The retired `Debug`-string canonical key, preserved verbatim as the
    /// baseline the `model_check_throughput` bench measures the packed
    /// encoding against, and as the second encoding of the key-equivalence
    /// proptests. Induces exactly the same equivalence classes as
    /// [`SimCheckpoint::canonical_key`] (see the [module docs](self));
    /// allocates freely.
    ///
    /// # Panics
    ///
    /// Panics if `ring`'s size does not match the checkpoint.
    pub fn canonical_key_debug(&self, ring: &RingTopology, out: &mut Vec<u8>) {
        let n = ring.size();
        assert_eq!(self.visited.len(), n, "checkpoint is from a different ring");
        // Program state via the derived `Debug` representation: complete
        // (every catalogue state machine derives `Debug` field by field) and
        // symmetry-invariant (protocols only ever observe local-frame
        // snapshots, so a mirrored run drives the program through identical
        // states). Rendered once per agent, shared by every candidate map.
        let mut labels = String::new();
        let mut label_ends = Vec::with_capacity(self.program.len());
        for program in &self.program {
            let _ = write!(labels, "{program:?}");
            label_ends.push(labels.len());
        }
        // `last_active_round` is only ever consumed through order comparisons
        // (`min_by_key` in the first-mover scheduler and adversary), so the
        // key encodes its dense rank among the agents instead of the raw
        // round number: plays that reach the same configuration along
        // different activation histories coincide.
        let last_active_rank: Vec<u8> = self
            .last_active_round
            .iter()
            .map(|&r| {
                let rank = self
                    .last_active_round
                    .iter()
                    .filter(|&&other| other < r)
                    .count();
                u8::try_from(rank).unwrap_or(u8::MAX)
            })
            .collect();
        let emit = |rot: usize, reflect: bool, buf: &mut Vec<u8>| {
            buf.clear();
            buf.extend_from_slice(&self.round.to_le_bytes());
            buf.extend_from_slice(&self.activation_token.to_le_bytes());
            // Node `w` of the canonical image is node `map⁻¹(w)` of the
            // original (both map families are trivially invertible).
            for w in 0..n {
                let v = if reflect { (rot + n - w) % n } else { (w + n - rot) % n };
                buf.push(u8::from(self.visited[v]));
            }
            let mut label_start = 0;
            for index in 0..self.node.len() {
                let v = self.node[index].index();
                let mapped = if reflect { (rot + n - v) % n } else { (v + rot) % n };
                buf.extend_from_slice(&u32::try_from(mapped).unwrap_or(u32::MAX).to_le_bytes());
                buf.push(match self.held_port[index] {
                    None => 0,
                    Some(dir) => {
                        let dir = if reflect { dir.opposite() } else { dir };
                        match dir {
                            GlobalDirection::Ccw => 1,
                            GlobalDirection::Cw => 2,
                        }
                    }
                });
                buf.push(u8::from(self.terminated[index]));
                buf.push(match (self.handedness[index], reflect) {
                    (Handedness::LeftIsCcw, false) | (Handedness::LeftIsCw, true) => 0,
                    _ => 1,
                });
                buf.push(match self.prior[index] {
                    PriorOutcome::Idle => 0,
                    PriorOutcome::Moved => 1,
                    PriorOutcome::BlockedOnPort => 2,
                    PriorOutcome::PortAcquisitionFailed => 3,
                    PriorOutcome::Transported => 4,
                });
                buf.extend_from_slice(&self.asleep_on_port[index].to_le_bytes());
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

/// The symmetry maps a canonical key minimises over, as `(rot, reflect)`
/// pairs: `v ↦ v + rot`, or `v ↦ rot − v` when reflecting. On a landmark
/// ring only the two maps carrying the landmark to node 0 are admissible
/// (the translation and the reflection through the landmark); an anonymous
/// ring admits all `2n`.
fn admissible_maps(ring: &RingTopology) -> impl Iterator<Item = (usize, bool)> {
    let n = ring.size();
    let landmark = ring.landmark().map(NodeId::index);
    let rotations = if landmark.is_some() { 1 } else { n };
    (0..rotations).flat_map(move |rot| match landmark {
        Some(l) => [((n - l) % n, false), (l, true)],
        None => [(rot, false), (rot, true)],
    })
}

#[cfg(test)]
mod tests {
    use crate::adversary::NoRemoval;
    use crate::scheduler::{FullActivation, RoundRobinSingle};
    use crate::sim::Simulation;
    use dynring_core::fsync::KnownBound;
    use dynring_core::single::LoneWalker;
    use dynring_graph::{EdgeId, Handedness, NodeId, RingTopology};
    use dynring_model::{Protocol, SynchronyModel, TransportModel};

    fn known_bound_sim(ring: RingTopology, starts: &[(usize, Handedness)], n: usize) -> Simulation {
        let mut builder = Simulation::builder(ring)
            .synchrony(SynchronyModel::Fsync)
            .activation(Box::new(FullActivation))
            .edges(Box::new(NoRemoval));
        for (start, handedness) in starts {
            builder = builder.agent(
                NodeId::new(*start),
                *handedness,
                Box::new(KnownBound::new(n)) as Box<dyn Protocol>,
            );
        }
        builder.build().unwrap()
    }

    #[test]
    fn step_with_edge_blocks_exactly_the_forced_edge() {
        let mut sim = Simulation::builder(RingTopology::new(6).unwrap())
            .agent(NodeId::new(2), Handedness::LeftIsCcw, Box::new(LoneWalker::new(5)))
            .activation(Box::new(FullActivation))
            .edges(Box::new(NoRemoval))
            .build()
            .unwrap();
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
        let ring = RingTopology::new(n).unwrap();
        let mut sim = Simulation::builder(ring)
            .synchrony(SynchronyModel::Ssync(TransportModel::PassiveTransport))
            .agent(NodeId::new(0), Handedness::LeftIsCcw, Box::new(KnownBound::new(n)))
            .agent(NodeId::new(3), Handedness::LeftIsCw, Box::new(KnownBound::new(n)))
            .activation(Box::new(RoundRobinSingle::new()))
            .edges(Box::new(NoRemoval))
            .build()
            .unwrap();
        assert!(sim.supports_checkpoint());
        // Drive an adversarial prefix, fork, and check both branches replay
        // bit for bit after a restore.
        let schedule = [Some(EdgeId::new(0)), None, Some(EdgeId::new(3)), None, None];
        for missing in schedule {
            sim.step_with_edge(missing);
        }
        let fork = sim.checkpoint();
        assert_eq!(fork.round(), 5);
        assert_eq!(fork.agent_count(), 2);
        let continuation = [Some(EdgeId::new(1)), None, Some(EdgeId::new(2)), None];
        for missing in continuation {
            sim.step_with_edge(missing);
        }
        let positions = sim.positions();
        let round = sim.round();
        let moves = sim.moves_per_agent();
        let first_branch = sim.checkpoint();
        let mut key_a = Vec::new();
        first_branch.canonical_key(sim.ring(), &mut key_a);
        // Rewind and replay the same choices: every observable must match.
        sim.restore(&fork);
        assert_eq!(sim.round(), 5);
        for missing in continuation {
            sim.step_with_edge(missing);
        }
        assert_eq!(sim.positions(), positions);
        assert_eq!(sim.round(), round);
        assert_eq!(sim.moves_per_agent(), moves);
        let mut key_b = Vec::new();
        sim.checkpoint().canonical_key(sim.ring(), &mut key_b);
        assert_eq!(key_a, key_b);
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
}
