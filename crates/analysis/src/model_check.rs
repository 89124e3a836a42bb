//! Exhaustive model checking of small scenario cells.
//!
//! The paper's impossibility rows (Tables 1 and 3) are proved by exhibiting an
//! adversary strategy; the sibling [`tables`](crate::tables) module *samples*
//! those strategies as hand-scripted schedules. Both run the rows described
//! once here, by [`table1_cells`] and [`table3_cells`]: each [`TableCell`]
//! holds the exhaustive check and the sampled run of one row. This module
//! closes the loop for small rings: it explores **every** adversary
//! edge-removal choice at every round by breadth-first expansion over
//! simulation states and returns
//!
//! * [`Verdict::Infeasible`] with a concrete witness [`EdgeSchedule`] that
//!   defeats the protocol (replayable through
//!   [`AdversaryKind::Scripted`](crate::scenario::AdversaryKind)), or
//! * [`Verdict::Feasible`] with the *worst* schedule the search could find —
//!   the discovered lower-bound schedule the `lower_bounds` rows consume.
//!
//! # Search structure
//!
//! One recycled [`Simulation`] serves the whole search: each expansion
//! restores a parent checkpoint, forces one of the `n + 1` admissible
//! edge choices (remove edge `e`, or remove nothing) with
//! [`Simulation::step_with_edge`] and classifies the successor. An agent
//! meets the missing edge only when it tries to cross it, so a parent is
//! stepped once with every edge present and then once per edge an agent
//! crossed in that round ([`Simulation::crossed_edges`]); every other
//! choice plays the all-present round and shares its outcome. Successors are
//! deduplicated **per level** on the canonicalised configuration key of
//! [`Simulation::canonical_key_into`]: the lexicographic minimum over the
//! ring's rotation/reflection automorphisms, or over the two maps that fix
//! the landmark on a landmark ring. Only the ring's symmetries are
//! quotiented: agents are encoded in id order, so two configurations that
//! differ by swapping agents get different keys. Keys are only compared
//! within a level because the FSYNC round hint makes configurations at
//! different depths genuinely different states.
//!
//! A frontier state costs its key. Each worker keeps the keys it reaches in
//! a dedup table of its own per level parity, and a frontier entry is the
//! index of its key there, the [`SymmetryMap`] that won the key, and a link
//! into a parent-pointer arena whose nodes are only `(parent, choice)`
//! pairs. The arena holds a link per frontier state and per play a verdict
//! may cite: the adversary win that ends the search and each level's last
//! protocol win. Expanding an entry rebuilds its state from the key with
//! [`Simulation::restore_from_key`], in the frame the state was reached in,
//! so the edge choices the search records, and the witness schedules it
//! reconstructs from the links, are those of that frame. The crossed-edge
//! choices restore the rebuilt parent from one checkpoint the worker
//! reuses. The tables allocate per doubling, not per state.
//!
//! # Depth bounds
//!
//! The depth bound of each packaged cell is derived from the paper's round
//! bounds (e.g. the `3N − 6` termination bound of Theorem 3 for the deceived
//! `KnownBound` strategy of Theorems 1/2); for pure survival rows (Theorems 9,
//! 10, 11) it is `20n`, `8n` and `n + 4` rounds, set per cell in
//! [`table3_cells`] (the sampled runs play `80n`). A liveness objective that is
//! still undecided at the bound is reported `Infeasible` (the adversary
//! exhibited a play surviving the whole horizon); an undecided safety
//! objective is reported `Feasible` (no play violated it within the horizon).

use crate::batch::parse_thread_count;
use crate::figures;
use crate::report::RowResult;
use crate::scenario::{AdversaryKind, Scenario, SchedulerKind};
use dynring_core::Algorithm;
use dynring_engine::{KeyScratch, RunReport, SimCheckpoint, Simulation, StopCondition, SymmetryMap};
use dynring_graph::{EdgeId, EdgeSchedule, Handedness, RingTopology};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads of the exhaustive search, from `DYNRING_MC_THREADS`.
///
/// Unset means sequential (`1` — the reference path every equivalence test
/// pins). Set, the value must parse as a positive integer exactly like
/// `DYNRING_THREADS` (see [`parse_thread_count`]); anything else hard-fails
/// rather than silently running at an unintended width.
///
/// # Panics
///
/// Panics on a malformed or non-unicode value.
#[must_use]
pub fn mc_threads_from_env() -> usize {
    env_knob("DYNRING_MC_THREADS", 1, parse_thread_count)
}

/// The strictly parsed value of the environment variable `name`, or
/// `default` when it is unset.
///
/// # Panics
///
/// Panics on a value `parse` rejects or a non-unicode value.
fn env_knob(name: &str, default: usize, parse: fn(&str) -> Result<usize, String>) -> usize {
    match std::env::var(name) {
        Ok(raw) => parse(&raw).unwrap_or_else(|message| panic!("invalid {name}: {message}")),
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid {name}: value is not valid unicode")
        }
    }
}

/// Strict parser for `DYNRING_MC_MAX_N`: the largest ring size the full
/// `infeasibility_cells` matrix is exhaustively proven at in the test suite.
///
/// # Errors
///
/// Returns a human-readable message when `raw` is not a positive integer or
/// is below the smallest exhaustively checkable ring (`n = 4`).
pub fn parse_max_check_n(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 4 => Ok(n),
        Ok(n) => Err(format!(
            "`{n}` is below the smallest exhaustively checkable ring (n = 4)"
        )),
        Err(_) => Err(format!(
            "`{trimmed}` is not a positive integer ring size (examples: 8, 10)"
        )),
    }
}

/// The largest ring size the exhaustive test matrix covers: the
/// `DYNRING_MC_MAX_N` override when set (strictly parsed via
/// [`parse_max_check_n`]), else `default`.
///
/// # Panics
///
/// Panics on a malformed or non-unicode value.
#[must_use]
pub fn max_check_n(default: usize) -> usize {
    env_knob("DYNRING_MC_MAX_N", default, parse_max_check_n)
}

/// 64-bit digest of a canonical key, read eight bytes at a time: each
/// little-endian word is folded in with a multiply and a rotate, and a
/// final shift mixes the high bits into the low ones the probe table
/// indexes by.
#[inline]
fn word_digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut words = bytes.chunks_exact(8);
    let mut hash = (bytes.len() as u64).wrapping_mul(K);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight-byte chunk"));
        hash = (hash ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    hash = (hash ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    hash ^ (hash >> 32)
}

/// Per-level dedup set over canonical keys: an open-addressed table of
/// 64-bit [`word_digest`]s, with the full keys retained in a side arena so
/// that digest matches fall back to exact byte comparison. Hash collisions
/// therefore cost one memcmp but can never merge distinct configurations —
/// the proofs stay proofs.
///
/// `clear` keeps every buffer's capacity, so a recycled table performs no
/// steady-state allocations once the hot level has been seen.
///
/// Each table sits on cache lines of its own: workers grow their tables
/// side by side, and headers sharing a line would bounce between their
/// cores on every insert.
#[derive(Debug, Default)]
#[repr(align(128))]
struct KeyTable {
    /// Open-addressed probe table storing `entry index + 1` (`0` = empty).
    /// Length is a power of two.
    slots: Vec<u32>,
    /// Digest of each inserted key, in insertion order.
    digests: Vec<u64>,
    /// End offset of each inserted key within `arena` (entry `i` spans
    /// `ends[i - 1]..ends[i]`).
    ends: Vec<u32>,
    /// Concatenated full keys, for the exact-comparison fallback.
    arena: Vec<u8>,
}

impl KeyTable {
    const INITIAL_SLOTS: usize = 1024;

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = 0);
        self.digests.clear();
        self.ends.clear();
        self.arena.clear();
    }

    fn len(&self) -> usize {
        self.digests.len()
    }

    /// The digest and key of entry `entry`, in insertion order.
    fn entry(&self, entry: usize) -> (u64, &[u8]) {
        let start = if entry == 0 { 0 } else { self.ends[entry - 1] as usize };
        (self.digests[entry], &self.arena[start..self.ends[entry] as usize])
    }

    /// The slot holding `key` (`Ok`), or the empty slot where its probe
    /// chain ends (`Err`). The table must have slots.
    fn probe(&self, digest: u64, key: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut pos = (digest as usize) & mask;
        loop {
            match self.slots[pos] {
                0 => return Err(pos),
                slot if self.entry(slot as usize - 1) == (digest, key) => return Ok(pos),
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    /// Whether `key`, whose digest is `digest`, is among the first `limit`
    /// entries inserted (byte-compared exactly). `limit` is at most
    /// [`KeyTable::len`].
    fn contains_before(&self, digest: u64, key: &[u8], limit: usize) -> bool {
        limit > 0 && self.probe(digest, key).is_ok_and(|pos| self.slots[pos] as usize <= limit)
    }

    /// Inserts `key`, returning whether it was new (`false` = already
    /// present, byte-compared exactly).
    fn insert(&mut self, key: &[u8]) -> bool {
        self.insert_with_digest(word_digest(key), key)
    }

    /// [`KeyTable::insert`] with the digest supplied by the caller.
    fn insert_with_digest(&mut self, digest: u64, key: &[u8]) -> bool {
        // Grow at 7/8 load, before probing, so the probe always ends.
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let Err(pos) = self.probe(digest, key) else { return false };
        let entry = self.len();
        self.slots[pos] = u32::try_from(entry + 1).expect("key table exceeds u32 entries");
        self.digests.push(digest);
        self.arena.extend_from_slice(key);
        self.ends.push(u32::try_from(self.arena.len()).expect("key arena exceeds u32"));
        true
    }

    /// Capacity × element size of every buffer.
    fn bytes(&self) -> usize {
        capacity_bytes(&self.slots)
            + capacity_bytes(&self.digests)
            + capacity_bytes(&self.ends)
            + capacity_bytes(&self.arena)
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        let mask = new_len - 1;
        for (entry, &digest) in self.digests.iter().enumerate() {
            let mut pos = (digest as usize) & mask;
            while self.slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = u32::try_from(entry + 1).expect("key table exceeds u32 entries");
        }
    }
}

/// Capacity × element size of a buffer.
fn capacity_bytes<T>(buffer: &Vec<T>) -> usize {
    buffer.capacity() * std::mem::size_of::<T>()
}

/// Sentinel parent of the BFS root in the packed link arena.
const ROOT_LINK: u32 = u32::MAX;

/// One node of the parent-pointer witness arena: a `u32` parent index with
/// the forced-edge choice packed alongside (`choice == ring size` encodes
/// "remove nothing"). Eight bytes per frontier state, plus one per level
/// that has a protocol win and one for the adversary win that ends a
/// search.
#[derive(Debug, Clone, Copy)]
struct Link {
    parent: u32,
    choice: u16,
}

/// Ring sizes below this fit every choice index in a [`Rec`] (and hence in
/// a [`Link`]).
const CHOICE_LIMIT: usize = 1 << 14;

/// One frontier state: key `slot` of `worker`'s table for the level's
/// parity, the map that carried the state to that key, and the link that
/// reached it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    worker: u16,
    map: SymmetryMap,
    slot: u32,
    link: u32,
}

/// What one adversary choice led to. Every successor of a level lands in
/// the same round, so no record needs to carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Adversary win; the worker stops after recording it.
    Adv,
    /// Protocol win.
    Proto,
    /// Undecided configuration new to the worker. In (item, choice) order,
    /// the `k`-th `New` outcome of a worker's level is entry `k` of its key
    /// table and of its maps.
    New,
    /// Duplicate of a key the worker reached earlier in the level (hence a
    /// global duplicate).
    Dup,
}

/// One expansion record of a worker: the [`Kind`] of outcome adversary
/// choice `choice` led to, packed in two bytes.
///
/// An item's records are one per distinct outcome: first the all-present
/// round's, under choice `n` (remove nothing, which no agent crosses), then
/// one per crossed edge, in increasing choice order. Every choice no agent
/// crossed takes the all-present outcome. The merge scores it at the
/// lowest such choice, the one that probed its key. At the others it is a
/// duplicate, or one more protocol win, of which only the last, at `n`,
/// is read.
#[derive(Debug, Clone, Copy)]
struct Rec(u16);

impl Rec {
    fn new(choice: usize, kind: Kind) -> Self {
        debug_assert!(choice < CHOICE_LIMIT);
        Rec((choice as u16) << 2 | kind as u16)
    }

    fn choice(self) -> usize {
        usize::from(self.0 >> 2)
    }

    fn kind(self) -> Kind {
        [Kind::Adv, Kind::Proto, Kind::New, Kind::Dup][usize::from(self.0 & 3)]
    }
}

/// Everything one thread expands a level's chunks with. Each lives in the
/// [`SearchContext`] and is reused level after level and run after run.
/// Aligned so that two workers never share a cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Worker {
    /// The cell's branchable simulation, built on the worker's first chunk
    /// of a run.
    sim: Option<Simulation>,
    /// The current parent, rebuilt from its key: every crossed choice
    /// restores it.
    parent: SimCheckpoint,
    key_scratch: KeyScratch,
    key: Vec<u8>,
    /// The edges crossed in the current parent's all-present round.
    crossed: Vec<bool>,
    /// The key of the current parent's all-present successor, shared by
    /// every choice that removes an edge nobody crossed.
    shared_key: Vec<u8>,
    /// The map of each key the worker added to its table this level, in
    /// insertion order.
    maps: Vec<SymmetryMap>,
    /// The records of the chunks it claimed this level, in claim order.
    recs: Vec<Rec>,
    /// The chunks it claimed this level, in claim (hence level) order.
    claimed: Vec<usize>,
    /// The merge's cursor: claimed chunks, records and keys merged so far.
    merged: (usize, usize, usize),
}

/// Reusable buffers of one exhaustive search: the link arena, both
/// frontiers, one worker per thread and each worker's key tables.
/// Holding a `SearchContext` across [`ModelCheck::run_in`] calls makes the
/// search allocation-free in the steady state (the bench's counting
/// allocator pins this).
#[derive(Debug)]
pub struct SearchContext {
    links: Vec<Link>,
    frontier: Vec<Entry>,
    next: Vec<Entry>,
    workers: Vec<Worker>,
    /// Key tables by level parity, then by worker: a level's frontier is
    /// keys of its parity, and its successors' keys go to the other parity,
    /// each into the table of the worker that reached it.
    tables: [Vec<KeyTable>; 2],
}

impl SearchContext {
    /// A context whose searches expand levels on `threads` workers
    /// (`1` = the sequential reference path).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        SearchContext {
            links: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            workers: (0..threads).map(|_| Worker::default()).collect(),
            tables: [(); 2].map(|()| (0..threads).map(|_| KeyTable::default()).collect()),
        }
    }

    /// A context at the `DYNRING_MC_THREADS` width (default sequential).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(mc_threads_from_env())
    }

    /// The configured worker width.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Bytes the context holds for search state, as capacity × element
    /// size: both parities' key tables, the workers' map columns and
    /// expansion records, the link arena and both frontiers. Buffers keep
    /// their capacity across runs, so after a run in a fresh context this is
    /// the run's high-water mark. The workers' simulations and scratch
    /// buffers are not counted.
    #[must_use]
    pub fn store_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().flatten().map(KeyTable::bytes).sum();
        let columns: usize = self
            .workers
            .iter()
            .map(|worker| capacity_bytes(&worker.maps) + capacity_bytes(&worker.recs))
            .sum();
        tables
            + columns
            + capacity_bytes(&self.links)
            + capacity_bytes(&self.frontier)
            + capacity_bytes(&self.next)
    }
}

/// What the protocol is trying to achieve (liveness) or preserve (safety).
///
/// The model checker plays the protocol against an omniscient adversary: the
/// protocol **wins** a play when the objective is achieved, the **adversary
/// wins** when it becomes unachievable (liveness) or is violated (safety).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Liveness: every node is eventually visited.
    Explore,
    /// Liveness: the ring is explored *and* at least one agent explicitly
    /// terminates.
    ExploreAndPartialTermination,
    /// Liveness: the ring is explored *and* every agent explicitly
    /// terminates.
    ExploreAndFullTermination,
    /// Liveness: some agent completes at least one traversal (Theorem 9's
    /// "no protocol ever moves" NS impossibility).
    AnyMove,
    /// Safety: no agent terminates before the ring is explored (violated by
    /// the deceived strategies of Theorems 1, 2 and 19).
    NoPrematureTermination,
    /// Safety: no agent ever terminates (the knowledge-free `Unconscious`
    /// strategy of Theorem 5 must not terminate).
    NoTermination,
}

/// How a single reached configuration scores against an [`Objective`].
enum Outcome {
    ProtocolWins,
    AdversaryWins,
    Undecided,
}

impl Objective {
    /// Whether an undecided play at the depth bound counts for the adversary
    /// (liveness) or the protocol (safety).
    #[must_use]
    pub fn is_safety(self) -> bool {
        matches!(self, Objective::NoPrematureTermination | Objective::NoTermination)
    }

    /// Short human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Objective::Explore => "explore",
            Objective::ExploreAndPartialTermination => "explore+partial-termination",
            Objective::ExploreAndFullTermination => "explore+full-termination",
            Objective::AnyMove => "any-move",
            Objective::NoPrematureTermination => "no-premature-termination",
            Objective::NoTermination => "no-termination",
        }
    }

    /// Scores a live configuration. `Undecided` implies at least one agent is
    /// still alive, so every undecided configuration can be expanded further.
    ///
    /// The search scores states rebuilt from their canonical keys, so this
    /// must read only what a key holds (see [`Simulation::restore_from_key`]).
    /// It must never read move counts, termination rounds, per-agent visit
    /// maps, or the round `explored_at` holds (only whether it is set).
    /// `AnyMove` reads the move total, which a rebuilt state zeroes: that is
    /// sound only because a state with a move is decided, so every parent
    /// the search expands has none, and its successors' totals count the
    /// one round stepped since. The debug assertion below checks it.
    fn classify(self, sim: &Simulation) -> Outcome {
        let explored = sim.explored();
        let alive = sim.alive_count();
        let partial = alive < sim.agent_count();
        let outcome = match self {
            Objective::Explore if explored => Outcome::ProtocolWins,
            Objective::Explore if alive == 0 => Outcome::AdversaryWins,
            Objective::ExploreAndPartialTermination if explored && partial => Outcome::ProtocolWins,
            Objective::ExploreAndPartialTermination if alive == 0 => Outcome::AdversaryWins,
            Objective::ExploreAndFullTermination if alive == 0 && explored => Outcome::ProtocolWins,
            Objective::ExploreAndFullTermination if alive == 0 => Outcome::AdversaryWins,
            Objective::AnyMove if sim.total_moves() > 0 => Outcome::ProtocolWins,
            Objective::AnyMove if alive == 0 => Outcome::AdversaryWins,
            Objective::NoPrematureTermination if partial && !explored => Outcome::AdversaryWins,
            Objective::NoPrematureTermination if explored => Outcome::ProtocolWins,
            Objective::NoTermination if partial => Outcome::AdversaryWins,
            _ => Outcome::Undecided,
        };
        debug_assert!(
            self != Objective::AnyMove
                || !matches!(outcome, Outcome::Undecided)
                || sim.total_moves() == 0,
            "an undecided any-move state has a move, which its key would drop"
        );
        outcome
    }

    /// Whether a replayed [`RunReport`] exhibits the adversary's win — the
    /// predicate a discovered witness schedule must reproduce when replayed
    /// through [`AdversaryKind::Scripted`](crate::scenario::AdversaryKind).
    #[must_use]
    pub fn defeated_in(self, report: &RunReport) -> bool {
        let partial = report.termination_rounds.iter().flatten().count() > 0;
        match self {
            Objective::Explore => !report.explored(),
            Objective::ExploreAndPartialTermination => !(report.explored() && partial),
            Objective::ExploreAndFullTermination => {
                !(report.explored() && report.all_terminated)
            }
            Objective::AnyMove => report.total_moves == 0,
            Objective::NoPrematureTermination => partial && !report.explored(),
            Objective::NoTermination => partial,
        }
    }
}

/// Search statistics of one [`ModelCheck::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Adversary choices scored: `n + 1` per expanded parent. Choices that
    /// remove an edge no agent crosses play the all-present round, and are
    /// scored from its one step.
    pub expanded: u64,
    /// Distinct (canonical) undecided configurations kept across all levels.
    pub visited: u64,
    /// Largest frontier encountered.
    pub peak_frontier: usize,
    /// Deepest level fully expanded.
    pub depth_reached: u64,
}

/// Proof object of a [`Verdict::Feasible`]: the objective was achieved on
/// **every** play within the depth bound (liveness), or never violated within
/// it (safety).
#[derive(Debug, Clone)]
pub struct FeasibleProof {
    /// The worst schedule the exhaustive search found: the play achieving the
    /// objective *latest* (liveness) or a deepest surviving play (safety).
    /// This is the discovered lower-bound schedule.
    pub worst_schedule: EdgeSchedule,
    /// Round in which the worst play was decided (or reached the bound).
    pub worst_round: u64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Proof object of a [`Verdict::Infeasible`]: a concrete adversary win.
#[derive(Debug, Clone)]
pub struct InfeasibleProof {
    /// The witness schedule: replaying it through a scripted adversary
    /// reproduces the non-achievement outcome (see [`Objective::defeated_in`]).
    pub witness: EdgeSchedule,
    /// Round of the defeat: the earliest violation (safety / dead liveness
    /// play), or the depth bound a play survived without achieving a liveness
    /// objective.
    pub defeat_round: u64,
    /// The exhaustively explored depth.
    pub proof_depth: u64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Result of an exhaustive search over all adversary plays of one cell.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The protocol meets the objective against **every** adversary play
    /// within the depth bound.
    Feasible(FeasibleProof),
    /// Some adversary play defeats the objective; the proof carries a
    /// replayable witness schedule.
    Infeasible(InfeasibleProof),
    /// The search kept more than [`ModelCheck::max_states`] distinct
    /// configurations before deciding the cell, so it proves nothing.
    Inconclusive {
        /// Search statistics up to and including the state over budget.
        stats: SearchStats,
        /// The round of the level the budget ran out in.
        depth: u64,
    },
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Feasible`].
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible(_))
    }

    /// The feasible proof, if any.
    #[must_use]
    pub fn feasible(&self) -> Option<&FeasibleProof> {
        match self {
            Verdict::Feasible(p) => Some(p),
            _ => None,
        }
    }

    /// The infeasible proof, if any.
    #[must_use]
    pub fn infeasible(&self) -> Option<&InfeasibleProof> {
        match self {
            Verdict::Infeasible(p) => Some(p),
            _ => None,
        }
    }

    /// The search statistics of any verdict.
    #[must_use]
    pub fn stats(&self) -> &SearchStats {
        match self {
            Verdict::Feasible(p) => &p.stats,
            Verdict::Infeasible(p) => &p.stats,
            Verdict::Inconclusive { stats, .. } => stats,
        }
    }
}

/// An exhaustive bounded search over every adversary play of one scenario
/// cell.
///
/// The scenario's own `adversary` field is ignored (the search *is* the
/// adversary); its scheduler must be checkpointable (see
/// [`Simulation::supports_checkpoint`] — deterministic schedulers are, the
/// seeded `Random` scheduler is not).
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// The cell: ring, agents, knowledge, synchrony, scheduler.
    pub scenario: Scenario,
    /// What the protocol must achieve or preserve.
    pub objective: Objective,
    /// Depth bound (rounds) of the exhaustive expansion.
    pub depth: u64,
    /// Cap on distinct kept configurations; exceeding it ends the search
    /// with [`Verdict::Inconclusive`] rather than silently truncating the
    /// proof.
    pub max_states: u64,
}

/// Frontier size below which a parallel context still expands sequentially —
/// thread fan-out costs more than it saves on tiny levels, and the sequential
/// path is the allocation-free one.
const PARALLEL_FRONTIER_MIN: usize = 32;

/// A parallel level is cut into about this many chunks per thread, at most
/// [`MAX_CHUNK_ITEMS`] items each, and every thread claims the next chunk
/// as soon as it is done with its last: a thread slowed by its CPU leaves
/// the rest of the level to the others instead of holding the level up.
const CHUNKS_PER_THREAD: usize = 8;

/// Largest chunk of a parallel level, in frontier items.
const MAX_CHUNK_ITEMS: usize = 64;

impl ModelCheck {
    /// Packages a cell for exhaustive checking.
    ///
    /// The default `max_states` runaway guard scales with the ring: 2 M
    /// distinct configurations for `n ≤ 9`, 10 M for larger rings (the
    /// widest packaged cell legitimately keeps ~2.6 M distinct states at
    /// `n = 10`, which would trip the small-ring guard).
    #[must_use]
    pub fn new(scenario: Scenario, objective: Objective, depth: u64) -> Self {
        let max_states = if scenario.ring_size >= 10 { 10_000_000 } else { 2_000_000 };
        ModelCheck { scenario, objective, depth, max_states }
    }

    /// The branchable simulation the search recycles: the cell's compiled
    /// spec with its own (deterministic) scheduler, a benign edge policy (the
    /// search forces edges explicitly) and tracing off.
    ///
    /// Public so tests can drive forced executions of the same cell.
    #[must_use]
    pub fn branchable_simulation(&self) -> Simulation {
        let mut scenario = self.scenario.clone();
        scenario.record_trace = false;
        let spec = scenario.compile();
        spec.instantiate(scenario.scheduler.instantiate(), AdversaryKind::Static.instantiate())
    }

    /// Replays a discovered schedule through the ordinary scenario path with
    /// a scripted adversary, running exactly the schedule's horizon.
    #[must_use]
    pub fn replay(&self, schedule: &EdgeSchedule) -> RunReport {
        let mut scenario = self.scenario.clone();
        scenario.record_trace = false;
        scenario.adversary = AdversaryKind::scripted(schedule.clone());
        scenario.stop = StopCondition::RoundBudget;
        scenario.max_rounds = schedule.horizon().max(1);
        scenario.run()
    }

    /// Runs the exhaustive search at the `DYNRING_MC_THREADS` width with a
    /// fresh [`SearchContext`].
    ///
    /// # Panics
    ///
    /// Panics if the cell's scheduler is not checkpointable (seeded
    /// `Random`).
    #[must_use]
    pub fn run(&self) -> Verdict {
        self.run_in(&mut SearchContext::from_env())
    }

    /// Runs the exhaustive search on exactly `threads` workers (see
    /// [`ModelCheck::run_in`]; `1` is the sequential reference path).
    ///
    /// # Panics
    ///
    /// As [`ModelCheck::run`].
    #[must_use]
    pub fn run_with_threads(&self, threads: usize) -> Verdict {
        self.run_in(&mut SearchContext::new(threads))
    }

    /// Runs the exhaustive search inside `ctx`, recycling its buffers.
    ///
    /// Each BFS level is split into chunks: one chunk, expanded on the
    /// caller's thread, unless `ctx.threads() > 1` and the frontier is wide
    /// enough to share among the threads, which then claim its contiguous
    /// chunks one at a time. The chunk records are then merged **in
    /// sequential order**, so the returned verdict, its
    /// witness schedule and its [`SearchStats`] are byte-for-byte identical
    /// at every thread count (the parallel-equivalence tests pin this over
    /// every packaged cell).
    ///
    /// # Panics
    ///
    /// As [`ModelCheck::run`].
    #[must_use]
    pub fn run_in(&self, ctx: &mut SearchContext) -> Verdict {
        for worker in &mut ctx.workers {
            worker.sim = None;
        }
        let Worker { sim, key_scratch, key, .. } = &mut ctx.workers[0];
        let sim = sim.insert(self.branchable_simulation());
        assert!(
            sim.supports_checkpoint(),
            "scheduler {:?} is not checkpointable and cannot be model checked",
            self.scenario.scheduler
        );
        let ring = self.scenario.ring();
        let n = ring.size();
        assert!(
            n < CHOICE_LIMIT,
            "ring size exceeds the packed choice width"
        );
        let mut stats = SearchStats::default();
        ctx.links.clear();
        ctx.frontier.clear();

        // Latest protocol win (round, link) — the worst feasible play.
        let mut best_win: Option<(u64, u32)> = None;

        // Decided before the adversary ever moves (e.g. dense starts
        // covering the whole ring): the empty schedule is the proof.
        let empty = EdgeSchedule::always_present(&ring);
        match self.objective.classify(sim) {
            Outcome::ProtocolWins => {
                return Verdict::Feasible(FeasibleProof { worst_schedule: empty, worst_round: 0, stats });
            }
            Outcome::AdversaryWins => {
                let proof = InfeasibleProof { witness: empty, defeat_round: 0, proof_depth: 0, stats };
                return Verdict::Infeasible(proof);
            }
            Outcome::Undecided => {}
        }

        let mut round = sim.round();
        // A level's keys live in the tables of its round's parity.
        let map = sim.canonical_key_into(key_scratch, key);
        let root = &mut ctx.tables[(round % 2) as usize][0];
        root.clear();
        root.insert(key);
        ctx.frontier.push(Entry { worker: 0, map, slot: 0, link: ROOT_LINK });

        for _ in 0..self.depth {
            if ctx.frontier.is_empty() {
                break;
            }
            stats.peak_frontier = stats.peak_frontier.max(ctx.frontier.len());
            round += 1;
            ctx.next.clear();
            if let Some(verdict) = self.expand_level(ctx, &ring, round, &mut stats, &mut best_win) {
                return verdict;
            }
            std::mem::swap(&mut ctx.frontier, &mut ctx.next);
            stats.depth_reached += 1;
        }

        if self.objective.is_safety() || ctx.frontier.is_empty() {
            // Safety: no play violated the objective within the bound.
            // Liveness with an empty frontier: every play achieved it.
            let (worst_round, link) = match (ctx.frontier.first(), best_win) {
                // A surviving safety play is "worse" than any decided one.
                (Some(entry), _) => (round, entry.link),
                (None, Some(win)) => win,
                // Decided-at-root cells returned above; a zero-depth search
                // proves nothing but is vacuously feasible.
                (None, None) => (0, ROOT_LINK),
            };
            let worst_schedule = schedule_from(&ctx.links, link, &ring);
            Verdict::Feasible(FeasibleProof { worst_schedule, worst_round, stats })
        } else {
            // Liveness undecided at the bound: the adversary exhibited a play
            // surviving the whole horizon without the objective.
            let witness = schedule_from(&ctx.links, ctx.frontier[0].link, &ring);
            Verdict::Infeasible(InfeasibleProof {
                witness,
                defeat_round: round,
                proof_depth: stats.depth_reached,
                stats,
            })
        }
    }

    /// Expands the BFS level whose successors land in `round`: the frontier
    /// in `ctx.frontier` becomes the next one in `ctx.next`, unless the level
    /// decides the cell.
    ///
    /// The level runs as one chunk on the caller's thread, or, when it is
    /// wide enough, as many contiguous chunks that `ctx.threads` scoped
    /// threads claim in order, one at a time. Each thread writes the records
    /// of its chunks into its own worker and every key new to it into its
    /// own table; the merge then replays the records in (item, choice) order
    /// and counts a key new to its worker as globally new unless another
    /// worker reached it in an earlier chunk.
    fn expand_level(
        &self,
        ctx: &mut SearchContext,
        ring: &RingTopology,
        round: u64,
        stats: &mut SearchStats,
        best_win: &mut Option<(u64, u32)>,
    ) -> Option<Verdict> {
        let n = ring.size();
        let width = ctx.frontier.len();
        let threads = ctx.threads();
        let (active, chunk_len) = if threads > 1 && width >= (2 * threads).max(PARALLEL_FRONTIER_MIN) {
            (threads, width.div_ceil(threads * CHUNKS_PER_THREAD).min(MAX_CHUNK_ITEMS))
        } else {
            (1, width)
        };
        // The frontier's keys sit in the parity of its own round;
        // successors' keys go to the other one.
        let [even, odd] = &mut ctx.tables;
        let (current, successors) = if round % 2 == 1 { (&*even, odd) } else { (&*odd, even) };
        // Lowest chunk index that hit an adversary win. The merge never
        // reads records past that win, so chunks strictly after it may stop
        // expanding early; chunks before it must run to completion because
        // every one of their records is merged. It is only a hint and
        // publishes no data: the scope's join orders every record before
        // the merge reads it.
        let earliest_adv = AtomicUsize::new(usize::MAX);
        // Next unclaimed chunk. Each claim only has to be unique; the
        // frontier the chunks index was written before the threads started.
        let next_chunk = AtomicUsize::new(0);
        let frontier = &ctx.frontier[..];
        let expand = |(worker, table): (&mut Worker, _)| {
            self.expand_chunks(
                frontier,
                chunk_len,
                &next_chunk,
                current,
                worker,
                table,
                &earliest_adv,
            );
        };
        let mut work = ctx.workers.iter_mut().zip(successors.iter_mut()).take(active);
        let first = work.next().expect("a context has at least one worker");
        if active > 1 {
            std::thread::scope(|scope| {
                for worker in work {
                    scope.spawn(move || expand(worker));
                }
                expand(first);
            });
        } else {
            expand(first);
        }

        // In-order merge: replay every chunk's records exactly as one
        // sequential pass over the level would have produced them. A key
        // new to its worker was reached earlier in the level by another
        // worker exactly when it is among that worker's keys of the chunks
        // merged so far.
        for worker in &mut ctx.workers[..active] {
            worker.merged = (0, 0, 0);
        }
        // The level's last protocol win in (item, choice) order, as
        // (parent link, choice). Levels land in strictly later rounds, so it
        // is the latest win so far, and the only one that needs a link.
        let mut last_win: Option<(u32, usize)> = None;
        let tables = &ctx.tables[(round % 2) as usize][..active];
        for (chunk, items) in ctx.frontier.chunks(chunk_len).enumerate() {
            let workers = &ctx.workers[..active];
            let owner = workers
                .iter()
                .position(|worker| worker.claimed.get(worker.merged.0) == Some(&chunk))
                .expect("every chunk up to the first adversary win is expanded");
            let worker = &workers[owner];
            let (claims, mut cursor, mut ordinal) = worker.merged;
            for item in items {
                // The item's all-present record, then its crossed choices up
                // to the next item's all-present record. A chunk that ends
                // at an adversary win ends at the worker's last record.
                let shared = worker.recs[cursor];
                debug_assert_eq!(shared.choice(), n, "an item's records lead with choice n");
                let rest = &worker.recs[cursor + 1..];
                let crossed = &rest[..rest
                    .iter()
                    .position(|rec| rec.choice() == n)
                    .unwrap_or(rest.len())];
                cursor += 1 + crossed.len();
                // The crossed choices are distinct and increasing, so the
                // lowest uncrossed one is the count of those that start at 0
                // with no gap.
                let lowest = crossed
                    .iter()
                    .zip(0..)
                    .take_while(|&(rec, i)| rec.choice() == i)
                    .count();
                let (below, above) = crossed.split_at(lowest);
                let at_lowest = Rec::new(lowest, shared.kind());
                let in_order = below.iter().chain(std::iter::once(&at_lowest)).chain(above);
                // Choices scored before this item's.
                let scored = stats.expanded;
                for rec in in_order {
                    let choice_index = rec.choice();
                    match rec.kind() {
                        Kind::Adv => {
                            let link = push_link(&mut ctx.links, item.link, choice_index);
                            stats.expanded = scored + choice_index as u64 + 1;
                            stats.depth_reached = round;
                            return Some(Verdict::Infeasible(InfeasibleProof {
                                witness: schedule_from(&ctx.links, link, ring),
                                defeat_round: round,
                                proof_depth: round,
                                stats: *stats,
                            }));
                        }
                        Kind::Proto => last_win = Some((item.link, choice_index)),
                        Kind::New => {
                            let slot = ordinal;
                            ordinal += 1;
                            let (digest, key) = tables[owner].entry(slot);
                            let reached_earlier =
                                workers.iter().zip(tables).enumerate().any(|(other, (w, table))| {
                                    other != owner && table.contains_before(digest, key, w.merged.2)
                                });
                            if reached_earlier {
                                continue;
                            }
                            let link = push_link(&mut ctx.links, item.link, choice_index);
                            stats.visited += 1;
                            if stats.visited > self.max_states {
                                stats.expanded = scored + choice_index as u64 + 1;
                                return Some(Verdict::Inconclusive { stats: *stats, depth: round });
                            }
                            ctx.next.push(Entry {
                                worker: u16::try_from(owner).expect("worker index exceeds u16"),
                                map: worker.maps[slot],
                                slot: u32::try_from(slot).expect("key table exceeds u32 entries"),
                                link,
                            });
                        }
                        Kind::Dup => {}
                    }
                }
                if shared.kind() == Kind::Proto {
                    // Remove-nothing, the item's last choice, shares it.
                    last_win = Some((item.link, n));
                }
                stats.expanded = scored + n as u64 + 1;
            }
            ctx.workers[owner].merged = (claims + 1, cursor, ordinal);
        }
        if let Some((parent, choice_index)) = last_win {
            *best_win = Some((round, push_link(&mut ctx.links, parent, choice_index)));
        }
        None
    }

    /// Claims chunks of `frontier` from `next_chunk` until none is left and
    /// expands each: every admissible choice of every item, recorded in
    /// order into `worker.recs`, one [`Rec`] per distinct outcome. Each
    /// undecided successor new to the worker keeps its key in `table` and
    /// its map in `worker.maps`.
    ///
    /// An item's state is rebuilt from its key in `current`, and stepped
    /// once per distinct round, not once per choice: its all-present round
    /// first, then once per edge an agent crossed in it (see
    /// [`Simulation::crossed_edges`]), each from a checkpoint of the rebuilt
    /// state. Removing an edge nobody crossed plays that same all-present
    /// round, so such a choice, and the remove-nothing choice, take its
    /// outcome. The lowest of them probes its key, in choice order among
    /// the crossed choices' keys, so the worker's table holds its keys in
    /// the order stepping every choice would insert them.
    #[allow(clippy::too_many_arguments)]
    fn expand_chunks(
        &self,
        frontier: &[Entry],
        chunk_len: usize,
        next_chunk: &AtomicUsize,
        current: &[KeyTable],
        worker: &mut Worker,
        table: &mut KeyTable,
        earliest_adv: &AtomicUsize,
    ) {
        let Worker { sim, parent, key_scratch, key, crossed, shared_key, maps, recs, claimed, .. } =
            worker;
        let sim = sim.get_or_insert_with(|| self.branchable_simulation());
        table.clear();
        maps.clear();
        recs.clear();
        claimed.clear();
        // Keeps a successor's key and map if the key is new to the worker.
        let mut keep = |key: &[u8], map: SymmetryMap| {
            if table.insert(key) {
                maps.push(map);
                Kind::New
            } else {
                Kind::Dup
            }
        };
        loop {
            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
            let Some(items) = frontier.chunks(chunk_len).nth(chunk) else { return };
            claimed.push(chunk);
            'items: for item in items {
                if earliest_adv.load(Ordering::Relaxed) < chunk {
                    break;
                }
                let (_, parent_key) = current[usize::from(item.worker)].entry(item.slot as usize);
                sim.restore_from_key(parent_key, item.map);
                sim.checkpoint_into(parent);
                sim.step_with_edge(None);
                sim.crossed_edges(parent, crossed);
                let n = crossed.len();
                let all_present = self.objective.classify(sim);
                let shared_map = match all_present {
                    Outcome::Undecided => sim.canonical_key_into(key_scratch, shared_key),
                    _ => SymmetryMap::default(),
                };
                // The all-present record leads the item. An undecided
                // outcome is a duplicate until its lowest choice finds the
                // key new.
                let shared = recs.len();
                recs.push(Rec::new(
                    n,
                    match all_present {
                        Outcome::AdversaryWins => Kind::Adv,
                        Outcome::ProtocolWins => Kind::Proto,
                        Outcome::Undecided => Kind::Dup,
                    },
                ));
                let mut shared_probed = false;
                // The n + 1 admissible adversary choices: remove edge e, or
                // remove nothing (choice index n, never crossed).
                for (choice_index, &crossed) in crossed.iter().chain(&[false]).enumerate() {
                    let kind = if crossed {
                        sim.restore(parent);
                        sim.step_with_edge(Some(EdgeId::new(choice_index)));
                        let kind = match self.objective.classify(sim) {
                            Outcome::AdversaryWins => Kind::Adv,
                            Outcome::ProtocolWins => Kind::Proto,
                            Outcome::Undecided => {
                                let map = sim.canonical_key_into(key_scratch, key);
                                keep(key, map)
                            }
                        };
                        recs.push(Rec::new(choice_index, kind));
                        kind
                    } else if shared_probed {
                        continue;
                    } else {
                        // The lowest uncrossed choice.
                        shared_probed = true;
                        if let Outcome::Undecided = all_present {
                            recs[shared] = Rec::new(n, keep(shared_key, shared_map));
                        }
                        recs[shared].kind()
                    };
                    if kind == Kind::Adv {
                        earliest_adv.fetch_min(chunk, Ordering::Relaxed);
                        break 'items;
                    }
                }
            }
            // Every chunk still unclaimed comes after this one.
            if earliest_adv.load(Ordering::Relaxed) <= chunk {
                return;
            }
        }
    }
}

/// Appends a packed link, returning its index.
fn push_link(links: &mut Vec<Link>, parent: u32, choice_index: usize) -> u32 {
    let id = u32::try_from(links.len()).expect("link arena exceeds u32 entries");
    links.push(Link {
        parent,
        choice: u16::try_from(choice_index).expect("choice exceeds packed width"),
    });
    id
}

/// Walks the parent-pointer arena back to the root and materialises the
/// per-round forced choices as a replayable schedule.
fn schedule_from(links: &[Link], mut link: u32, ring: &RingTopology) -> EdgeSchedule {
    let n = ring.size();
    let mut choices = Vec::new();
    while link != ROOT_LINK {
        let Link { parent, choice } = links[link as usize];
        let choice = usize::from(choice);
        choices.push((choice < n).then(|| EdgeId::new(choice)));
        link = parent;
    }
    choices.reverse();
    EdgeSchedule::from_missing(ring, choices).expect("forced choices are in range")
}

/// One packaged table cell: a check plus the verdict the paper predicts.
#[derive(Debug, Clone)]
pub struct TableCell {
    /// Row id, e.g. `MC-T1-R1`.
    pub id: String,
    /// The theorem backing the row.
    pub claim: &'static str,
    /// The packaged exhaustive check.
    pub check: ModelCheck,
    /// Whether the paper predicts `Infeasible` (impossibility rows) or
    /// `Feasible` (the no-termination safety row).
    pub expect_infeasible: bool,
    /// The check's scenario played by the row's hand-scripted adversary,
    /// with its stop condition and round budget: the run the sampled
    /// [`tables`](crate::tables) row scores.
    pub sampled: Scenario,
}

impl TableCell {
    fn new(
        id: String,
        claim: &'static str,
        check: ModelCheck,
        expect_infeasible: bool,
        sample: impl FnOnce(Scenario) -> Scenario,
    ) -> Self {
        let sampled = sample(check.scenario.clone());
        TableCell { id, claim, check, expect_infeasible, sampled }
    }

    /// Runs the cell in `ctx` and scores it as a report row: `holds`
    /// requires the predicted verdict **and**, for impossibility rows, that
    /// the discovered witness replays through a scripted adversary to the
    /// same defeat. A matrix of cells reuses one context, so its checkpoint
    /// stores grow once rather than once per cell.
    #[must_use]
    pub fn row(&self, ctx: &mut SearchContext) -> RowResult {
        let verdict = self.check.run_in(ctx);
        let stats = *verdict.stats();
        let (holds, observed) = match (&verdict, self.expect_infeasible) {
            (Verdict::Infeasible(proof), true) => {
                let replay = self.check.replay(&proof.witness);
                let confirmed = self.check.objective.defeated_in(&replay);
                (
                    confirmed,
                    format!(
                        "infeasible: defeat at round {} (exhaustive to depth {}, {} states); scripted replay {}",
                        proof.defeat_round,
                        proof.proof_depth,
                        stats.visited,
                        if confirmed { "confirms" } else { "DIVERGES" },
                    ),
                )
            }
            (Verdict::Feasible(proof), false) => (
                true,
                format!(
                    "feasible: worst play decided at round {} (exhaustive to depth {}, {} states)",
                    proof.worst_round, stats.depth_reached, stats.visited
                ),
            ),
            (Verdict::Feasible(proof), true) => (
                false,
                format!(
                    "UNEXPECTEDLY feasible (worst round {}, {} states)",
                    proof.worst_round, stats.visited
                ),
            ),
            (Verdict::Infeasible(proof), false) => (
                false,
                format!(
                    "UNEXPECTEDLY infeasible (defeat at round {}, {} states)",
                    proof.defeat_round, stats.visited
                ),
            ),
            (Verdict::Inconclusive { depth, .. }, _) => (
                false,
                format!(
                    "INCONCLUSIVE: state budget of {} exceeded at depth {depth} ({} states)",
                    self.check.max_states, stats.visited
                ),
            ),
        };
        RowResult::new(
            self.id.clone(),
            self.claim,
            self.check.scenario.label(),
            if self.expect_infeasible { "infeasible (exhaustive)" } else { "feasible (exhaustive)" },
            observed,
            holds,
            1,
        )
    }
}

/// The deceived horizon guess the Table 1 witnesses commit to.
pub(crate) const GUESSED_BOUND: usize = 3;

/// The Table 1 rows on a ring of `n ≥ 4`: the only description of their
/// scenarios, which both the exhaustive search and the sampled
/// [`tables::table1`](crate::tables::table1) rows run.
#[must_use]
pub fn table1_cells(n: usize) -> Vec<TableCell> {
    assert!(n >= 4, "Table 1 cells need n >= 4");
    // The deceived strategy terminates by round 3·GUESSED − 6 + 1 on its
    // guessed ring; the depth adds slack for adversary-delayed defeats.
    let t1_depth = 3 * GUESSED_BOUND as u64 + 4;
    // The sampled witness blocks one agent until every agent has stopped.
    let block_agent = |scenario: Scenario| {
        scenario
            .with_adversary(AdversaryKind::BlockAgent { agent: 0 })
            .with_stop(StopCondition::AllTerminated)
    };
    vec![
        TableCell::new(
            format!("MC-T1-R1(n={n})"),
            "Theorem 1",
            ModelCheck::new(
                Scenario::fsync(n, Algorithm::KnownBound { upper_bound: GUESSED_BOUND })
                    .with_starts(vec![0, 1]),
                Objective::NoPrematureTermination,
                t1_depth,
            ),
            true,
            block_agent,
        ),
        TableCell::new(
            format!("MC-T1-R2(n={n})"),
            "Theorem 2",
            ModelCheck::new(
                Scenario::fsync(n, Algorithm::KnownBound { upper_bound: GUESSED_BOUND })
                    .with_starts(vec![0, 1, 2])
                    .with_orientations(vec![Handedness::LeftIsCcw; 3]),
                Objective::NoPrematureTermination,
                t1_depth,
            ),
            true,
            block_agent,
        ),
        TableCell::new(
            format!("MC-T1-R3(n={n})"),
            "Theorem 2 / Theorem 5 (no termination)",
            // The knowledge-free strategy must never terminate; the frontier
            // of this safety cell never closes, so the horizon is kept just
            // past the deceived strategies' termination rounds.
            ModelCheck::new(
                Scenario::fsync(n, Algorithm::Unconscious),
                Objective::NoTermination,
                n as u64 + 6,
            ),
            false,
            |scenario| {
                scenario
                    .with_adversary(AdversaryKind::PreventMeeting)
                    .with_stop(StopCondition::RoundBudget)
                    .with_max_rounds(60 * n as u64)
            },
        ),
    ]
}

/// The Table 3 rows on a ring of `n ≥ 4` (the Theorem 19 row needs `n ≥ 5`
/// and is omitted below that): the only description of their scenarios,
/// which both the exhaustive search and the sampled
/// [`tables::table3`](crate::tables::table3) rows run. Every sampled run
/// plays a fixed budget of `80n` rounds.
#[must_use]
pub fn table3_cells(n: usize) -> Vec<TableCell> {
    assert!(n >= 4, "Table 3 cells need n >= 4");
    let mut cells = Vec::new();
    let scripted = |adversary: AdversaryKind| {
        move |scenario: Scenario| {
            scenario
                .with_adversary(adversary)
                .with_stop(StopCondition::RoundBudget)
                .with_max_rounds(80 * n as u64)
        }
    };

    // Theorem 9 (NS): under the first-mover scheduler no protocol ever moves;
    // the search proves no adversary-surviving play contains a single move.
    let ns_algorithms = [
        Algorithm::PtBoundChirality { upper_bound: n },
        Algorithm::EtUnconscious,
        Algorithm::PtBoundNoChirality { upper_bound: n },
    ];
    for (i, &algorithm) in ns_algorithms.iter().enumerate() {
        let mut scenario = Scenario::fsync(n, algorithm);
        scenario.synchrony =
            dynring_model::SynchronyModel::Ssync(dynring_model::TransportModel::NoSimultaneity);
        let scenario = scenario.with_scheduler(SchedulerKind::FirstMoverOnly);
        cells.push(TableCell::new(
            format!("MC-T3-R1{}(n={n})", char::from(b'a' + i as u8)),
            "Theorem 9",
            ModelCheck::new(scenario, Objective::AnyMove, 20 * n as u64),
            true,
            scripted(AdversaryKind::BlockFirstMover),
        ));
    }

    // Theorem 10 (PT, no common chirality): both agents can be kept on the
    // two ports of one missing edge forever.
    let mut scenario = Scenario::ssync(n, Algorithm::PtBoundChirality { upper_bound: n }, 5);
    scenario.orientations = vec![Handedness::LeftIsCw, Handedness::LeftIsCcw];
    scenario.starts = vec![1, 0];
    let scenario = scenario.with_scheduler(SchedulerKind::RoundRobin);
    cells.push(TableCell::new(
        format!("MC-T3-R2(n={n})"),
        "Theorem 10",
        ModelCheck::new(scenario, Objective::Explore, 8 * n as u64),
        true,
        scripted(AdversaryKind::BlockForever { edge: 0 }),
    ));

    // Theorem 11 (PT): explicit termination of both agents is impossible.
    let scenario = Scenario::ssync(n, Algorithm::PtBoundChirality { upper_bound: n }, 7)
        .with_scheduler(SchedulerKind::SleepBlocked { hold: 2 });
    cells.push(TableCell::new(
        format!("MC-T3-R3(n={n})"),
        "Theorem 11",
        // Against a benign schedule this cell fully terminates by round ~n
        // (measured: round n at n = 5..8), so surviving n + 4 rounds without
        // full termination is already a genuine impossibility certificate;
        // deeper horizons explode the PT state space.
        ModelCheck::new(scenario, Objective::ExploreAndFullTermination, n as u64 + 4),
        true,
        scripted(AdversaryKind::BlockForever { edge: n / 2 }),
    ));

    // Theorem 19 (ET, only a bound known): acting on a guessed size < n
    // terminates without exploring. Needs guess = n − 2 ≥ 3.
    if n >= 5 {
        let wrong_guess = n - 2;
        let mut scenario =
            Scenario::ssync(n, Algorithm::EtBoundNoChirality { ring_size: wrong_guess }, 3);
        scenario.starts = vec![0, 0, 0];
        let scenario =
            scenario.with_scheduler(SchedulerKind::EtFairRoundRobin { max_lag: 1 });
        cells.push(TableCell::new(
            format!("MC-T3-R4(n={n})"),
            "Theorem 19",
            ModelCheck::new(scenario, Objective::NoPrematureTermination, 12 * n as u64),
            true,
            scripted(AdversaryKind::Static),
        ));
    }
    cells
}

/// Every exhaustively checkable Table 1 + Table 3 cell for one ring size.
#[must_use]
pub fn infeasibility_cells(n: usize) -> Vec<TableCell> {
    let mut cells = table1_cells(n);
    cells.extend(table3_cells(n));
    cells
}

/// The Theorem 4 lower-bound cell: the correctly-parameterised `KnownBound`
/// strategy *is* feasible, and the search's worst discovered schedule is the
/// true worst case — `lower_bounds` consumes it, with Figure 2's hand script,
/// played on this cell's scenario, as the regression pin.
#[must_use]
pub fn theorem4_cell(n: usize) -> ModelCheck {
    assert!(n >= 5, "the Theorem 4 cell needs n >= 5");
    let scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
        .with_starts(vec![0, 1])
        .with_orientations(vec![Handedness::LeftIsCcw, Handedness::LeftIsCcw]);
    // Theorem 3 bounds exploration by 3n − 6; one extra round of slack keeps
    // the bound a strict over-approximation.
    ModelCheck::new(scenario, Objective::Explore, 3 * n as u64)
}

/// Runs every packaged cell for each ring size in one
/// [`SearchContext::from_env`] and returns the report rows (the
/// `model_check` example prints these).
#[must_use]
pub fn model_check_rows(sizes: &[usize]) -> Vec<RowResult> {
    let mut ctx = SearchContext::from_env();
    let mut rows = Vec::new();
    for &n in sizes {
        for cell in infeasibility_cells(n) {
            rows.push(cell.row(&mut ctx));
        }
    }
    rows
}

/// Cross-validation of the hand-scripted Figure 2 schedule against the
/// exhaustive search (satellite of the Theorem 4 rewiring): the discovered
/// worst schedule must be **at least as strong** as the hand script.
///
/// Returns `(discovered_worst_round, scripted_round)`.
///
/// # Panics
///
/// Panics (with a diff of the two schedules) if the hand script outlasts the
/// exhaustively discovered worst case — that would mean the script is not a
/// valid lower-bound pin.
#[must_use]
pub fn cross_validate_figure2(n: usize) -> (u64, u64) {
    let cell = theorem4_cell(n);
    let verdict = cell.run();
    let proof = verdict
        .feasible()
        .unwrap_or_else(|| panic!("Theorem 4 cell must be feasible at n={n}"));
    let scripted = figures::figure2(n);
    let scripted_round = scripted.explored_at.expect("Figure 2 explores");
    assert!(
        proof.worst_round >= scripted_round,
        "hand-scripted Figure 2 schedule is stronger than the exhaustive worst case at n={n}:\n  \
         scripted explores at round {scripted_round}, search worst round {}\n  \
         scripted schedule: {:?}\n  discovered schedule: {:?}",
        proof.worst_round,
        figures::figure2_schedule(&RingTopology::new(n).expect("valid ring")),
        proof.worst_schedule,
    );
    (proof.worst_round, scripted_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_check_n_parser_accepts_ring_sizes() {
        assert_eq!(parse_max_check_n("8"), Ok(8));
        assert_eq!(parse_max_check_n(" 10 "), Ok(10));
        assert_eq!(parse_max_check_n("4"), Ok(4));
    }

    #[test]
    fn max_check_n_parser_rejects_garbage() {
        for garbage in ["", "zero", "-3", "8.5", "0x10", "1e3"] {
            let err = parse_max_check_n(garbage).unwrap_err();
            assert!(
                err.contains("not a positive integer ring size"),
                "{garbage:?} should be rejected as non-integer, got: {err}"
            );
        }
        for too_small in ["0", "1", "3"] {
            let err = parse_max_check_n(too_small).unwrap_err();
            assert!(
                err.contains("smallest exhaustively checkable ring"),
                "{too_small:?} should be rejected as too small, got: {err}"
            );
        }
    }

    #[test]
    fn mc_threads_parser_rejects_garbage() {
        // `DYNRING_MC_THREADS` reuses the strict `DYNRING_THREADS` grammar.
        assert!(parse_thread_count("0").is_err());
        assert!(parse_thread_count("four").is_err());
        assert_eq!(parse_thread_count("4"), Ok(4));
    }

    #[test]
    fn key_table_dedups_and_survives_clear() {
        let mut table = KeyTable::default();
        assert!(table.insert(b"alpha"));
        assert!(table.insert(b"beta"));
        assert!(!table.insert(b"alpha"));
        assert_eq!(table.len(), 2);
        table.clear();
        assert_eq!(table.len(), 0);
        assert!(table.insert(b"alpha"), "cleared table must forget entries");
    }

    #[test]
    fn key_table_grows_without_losing_entries() {
        let mut table = KeyTable::default();
        // Insert enough distinct keys to force several grows past the 7/8
        // load factor, then verify every key is still found (byte-exactly).
        for i in 0u32..10_000 {
            assert!(table.insert(&i.to_le_bytes()), "key {i} should be new");
        }
        for i in 0u32..10_000 {
            assert!(!table.insert(&i.to_le_bytes()), "key {i} should be found");
        }
        assert_eq!(table.len(), 10_000);
    }

    #[test]
    fn key_table_distinguishes_equal_digest_prefixes() {
        // Keys sharing a long common prefix exercise the exact byte-compare
        // fallback path (and `entry_key`'s slicing of a shared arena).
        let mut table = KeyTable::default();
        assert!(table.insert(b"prefix-0"));
        assert!(table.insert(b"prefix-1"));
        assert!(table.insert(b"prefix"));
        assert!(!table.insert(b"prefix-0"));
        assert!(!table.insert(b"prefix"));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn key_table_keeps_keys_with_equal_digests_apart() {
        // Every key lands on one probe chain, so only the exact byte
        // comparison tells them apart.
        let keys: [&[u8]; 5] = [b"", b"\0", b"\0\0", b"alpha", b"alphb"];
        let mut table = KeyTable::default();
        for (i, key) in keys.iter().enumerate() {
            assert!(!table.contains_before(7, key, table.len()), "{key:?} is not in yet");
            assert!(table.insert_with_digest(7, key), "{key:?} is distinct");
            assert!(table.contains_before(7, key, table.len()));
            assert_eq!(table.entry(i), (7, *key));
        }
        for key in keys {
            assert!(!table.insert_with_digest(7, key), "{key:?} is already in");
        }
        assert_eq!(table.len(), keys.len());
        for (entry, key) in keys.iter().enumerate() {
            for limit in 0..=keys.len() {
                assert_eq!(table.contains_before(7, key, limit), entry < limit, "{key:?} before {limit}");
            }
        }
        assert!(!table.contains_before(7, b"beta", keys.len()));
        assert!(!table.contains_before(8, b"alpha", keys.len()), "a digest mismatch is a miss");
    }

    #[test]
    fn key_table_contains_agrees_with_insert() {
        let mut table = KeyTable::default();
        for i in 0u32..5_000 {
            // Every other key repeats an earlier one.
            let key = (i / 2 * 7919).to_le_bytes();
            let digest = word_digest(&key);
            let present = table.contains_before(digest, &key, table.len());
            assert_eq!(table.insert(&key), !present, "key {i}");
            assert!(table.contains_before(digest, &key, table.len()));
        }
        assert_eq!(table.len(), 2_500);
    }

    #[test]
    fn word_digest_reads_the_length_and_the_tail() {
        let digests = [&b""[..], b"\0", b"\0\0", b"01234567", b"012345670", b"012345671"]
            .map(word_digest);
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn one_context_per_matrix_scores_like_a_fresh_context_per_cell() {
        let sizes = [4, 5];
        let fresh: Vec<RowResult> = sizes
            .iter()
            .flat_map(|&n| infeasibility_cells(n))
            .map(|cell| cell.row(&mut SearchContext::from_env()))
            .collect();
        assert_eq!(model_check_rows(&sizes), fresh);
    }

    #[test]
    fn reused_parallel_context_retains_a_bounded_number_of_keys() {
        // The Theorem 10 cell at n = 7 peaks at a frontier of 78, past the
        // 32-wide threshold of the parallel path.
        let cell = table3_cells(7)
            .into_iter()
            .find(|cell| cell.id.starts_with("MC-T3-R2"))
            .expect("the Theorem 10 cell is packaged at n = 7");
        let mut ctx = SearchContext::new(2);
        let first = cell.check.run_in(&mut ctx);
        let stats = *first.stats();
        assert!(stats.peak_frontier >= PARALLEL_FRONTIER_MIN);
        // Which worker claims which chunk varies from run to run, but a key
        // table never holds more than one level's successors, however often
        // the context is reused.
        let level_successors = (cell.check.scenario.ring().size() + 1) * stats.peak_frontier;
        assert!(level_successors < usize::try_from(stats.visited).unwrap());
        for _ in 0..4 {
            assert_eq!(cell.check.run_in(&mut ctx).stats(), &stats);
            for table in ctx.tables.iter().flatten() {
                assert!(table.len() <= level_successors, "{} > {level_successors}", table.len());
            }
        }
    }

    /// The sequential search's store high-water mark
    /// ([`SearchContext::store_bytes`] after a run in a fresh context) of
    /// every packaged Table 1/3 cell and Theorem 4 cell at n = 4..=7, and of
    /// the widest of them, the Theorem 19 cell, at n = 8.
    #[rustfmt::skip]
    const STORE_PINS: &[(&str, usize)] = &[
        ("MC-T1-R1(n=4)", 9472),
        ("MC-T1-R2(n=4)", 8596),
        ("MC-T1-R3(n=4)", 704512),
        ("MC-T3-R1a(n=4)", 10550),
        ("MC-T3-R1b(n=4)", 10534),
        ("MC-T3-R1c(n=4)", 10598),
        ("MC-T3-R2(n=4)", 14784),
        ("MC-T3-R3(n=4)", 76032),
        ("MC-T1-R1(n=5)", 11888),
        ("MC-T1-R2(n=5)", 9968),
        ("MC-T1-R3(n=5)", 1118208),
        ("MC-T3-R1a(n=5)", 10550),
        ("MC-T3-R1b(n=5)", 10534),
        ("MC-T3-R1c(n=5)", 10598),
        ("MC-T3-R2(n=5)", 21376),
        ("MC-T3-R3(n=5)", 143872),
        ("MC-T3-R4(n=5)", 29760),
        ("theorem4(n=5)", 13824),
        ("MC-T1-R1(n=6)", 12144),
        ("MC-T1-R2(n=6)", 13216),
        ("MC-T1-R3(n=6)", 2203648),
        ("MC-T3-R1a(n=6)", 10550),
        ("MC-T3-R1b(n=6)", 10534),
        ("MC-T3-R1c(n=6)", 10598),
        ("MC-T3-R2(n=6)", 34560),
        ("MC-T3-R3(n=6)", 344064),
        ("MC-T3-R4(n=6)", 182784),
        ("theorem4(n=6)", 26304),
        ("MC-T1-R1(n=7)", 12144),
        ("MC-T1-R2(n=7)", 16672),
        ("MC-T1-R3(n=7)", 3080192),
        ("MC-T3-R1a(n=7)", 12700),
        ("MC-T3-R1b(n=7)", 12668),
        ("MC-T3-R1c(n=7)", 12796),
        ("MC-T3-R2(n=7)", 60928),
        ("MC-T3-R3(n=7)", 583680),
        ("MC-T3-R4(n=7)", 1462272),
        ("theorem4(n=7)", 53248),
        ("MC-T3-R4(n=8)", 11436032),
    ];

    #[test]
    fn store_high_water_of_every_recorded_cell_is_pinned() {
        // The sequential search's buffers grow deterministically, so their
        // high-water mark is exact: a memory regression fails here rather
        // than hiding in resident-size noise.
        let mut checks = Vec::new();
        for n in 4..=7 {
            checks.extend(
                infeasibility_cells(n)
                    .into_iter()
                    .map(|cell| (cell.id, cell.check)),
            );
            if n >= 5 {
                checks.push((format!("theorem4(n={n})"), theorem4_cell(n)));
            }
        }
        checks.extend(
            table3_cells(8)
                .into_iter()
                .filter(|cell| cell.id.starts_with("MC-T3-R4"))
                .map(|cell| (cell.id, cell.check)),
        );
        let measured: Vec<(String, usize)> = checks
            .into_iter()
            .map(|(id, check)| {
                let mut ctx = SearchContext::new(1);
                let _ = check.run_in(&mut ctx);
                (id, ctx.store_bytes())
            })
            .collect();
        let expected: Vec<(String, usize)> = STORE_PINS
            .iter()
            .map(|&(id, bytes)| (id.to_owned(), bytes))
            .collect();
        assert_eq!(measured, expected);
    }
}
