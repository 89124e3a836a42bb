//! `mc_matrix`: the `model_check --max-n 9` matrix — every exhaustively
//! checkable Table 1/3 cell for n = 4..=9 plus the Theorem 4 cell for
//! n = 5..=9 — on one recycled two-thread `SearchContext`.
//!
//! All of its time is checkpoint restore, forced steps, canonical keys, the
//! dedup table and parallel level expansion; it bypasses batching, the run
//! lifecycle and the journal.

use crate::{median, metric, nanos, ratio, secs, Checks, Metric, Work, Workload, THREADS};
use dynring_analysis::figures;
use dynring_analysis::model_check::{
    infeasibility_cells, theorem4_cell, SearchContext, SearchStats,
};
use dynring_analysis::{ModelCheck, Objective, Verdict};
use dynring_engine::{KeyScratch, SimCheckpoint, Simulation};
use dynring_graph::EdgeId;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Ring sizes of the matrix (`model_check --max-n 9`).
const SIZES: std::ops::RangeInclusive<usize> = 4..=9;

/// Ring sizes of the warm-up matrix.
const WARM_SIZES: std::ops::RangeInclusive<usize> = 4..=6;

/// A frontier of this width or more is expanded on the worker pool
/// (`2 × threads`, at least 32 — the model checker's own threshold).
const PARALLEL_FRONTIER_MIN: usize = 32;

/// One cell of the matrix with the verdict the paper predicts.
struct Cell {
    id: String,
    n: usize,
    check: ModelCheck,
    expect_infeasible: bool,
    /// For Theorem 4 cells: the round the hand-scripted Figure 2 schedule
    /// forces, which the discovered worst case must reach.
    figure2_round: Option<u64>,
}

fn matrix(sizes: std::ops::RangeInclusive<usize>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in sizes.clone() {
        for cell in infeasibility_cells(n) {
            cells.push(Cell {
                id: cell.id,
                n,
                check: cell.check,
                expect_infeasible: cell.expect_infeasible,
                figure2_round: None,
            });
        }
    }
    for n in sizes.filter(|&n| n >= 5) {
        cells.push(Cell {
            id: format!("MC-T4(n={n})"),
            n,
            check: theorem4_cell(n),
            expect_infeasible: false,
            figure2_round: figures::figure2(n).explored_at,
        });
    }
    cells
}

/// Checks one verdict against the paper; replays an infeasibility witness
/// through the scripted adversary. Returns the replayed rounds.
fn check_verdict(cell: &Cell, verdict: &Verdict, checks: &mut Checks) -> u64 {
    match (verdict, cell.expect_infeasible) {
        (Verdict::Infeasible(proof), true) => {
            let replay = cell.check.replay(&proof.witness);
            checks.check(cell.check.objective.defeated_in(&replay), || {
                format!("{}: witness replay does not defeat the objective", cell.id)
            });
            replay.rounds
        }
        (Verdict::Feasible(proof), false) => {
            let pin = cell.figure2_round.unwrap_or(0);
            checks.check(proof.worst_round >= pin, || {
                format!(
                    "{}: worst round {} below the Figure 2 pin {pin}",
                    cell.id, proof.worst_round
                )
            });
            0
        }
        (verdict, expected) => {
            checks.check(false, || {
                format!(
                    "{}: verdict {verdict:?} but expect_infeasible = {expected}",
                    cell.id
                )
            });
            0
        }
    }
}

/// The `mc_matrix` workload.
pub struct McMatrix {
    cells: Vec<Cell>,
}

impl McMatrix {
    /// Set-up: the cells and their Figure 2 pins, and the n ≤ 6 matrix as
    /// warm-up.
    pub fn setup(checks: &mut Checks) -> Self {
        let mut ctx = SearchContext::new(THREADS);
        for cell in matrix(WARM_SIZES) {
            let verdict = cell.check.run_in(&mut ctx);
            check_verdict(&cell, &verdict, checks);
        }
        McMatrix {
            cells: matrix(SIZES),
        }
    }
}

impl Workload for McMatrix {
    /// One recycled context serves every cell of a pass. Each pass starts a
    /// fresh one: a context recycled across passes keeps its checkpoint pool
    /// while parallel levels allocate new checkpoints, so its resident size
    /// grows by about a pass's peak every pass.
    fn pass(&mut self, checks: &mut Checks) -> Work {
        let mut ctx = SearchContext::new(THREADS);
        let mut work = Work::default();
        for cell in &self.cells {
            let verdict = cell.check.run_in(&mut ctx);
            let replayed = check_verdict(cell, &verdict, checks);
            let expanded = verdict.stats().expanded;
            work.states += expanded;
            work.rounds += expanded + replayed;
            work.cells += 1;
        }
        work
    }
}

/// The cost of one `Instant::now()`, subtracted from every span the replay
/// records so that timer overhead is not charged to a layer.
struct Timer {
    now_ns: f64,
}

impl Timer {
    /// Measures the timer's own cost.
    fn calibrate() -> Self {
        const CALLS: u32 = 200_000;
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..CALLS {
                    std::hint::black_box(Instant::now());
                }
                start.elapsed().as_nanos() as f64 / f64::from(CALLS)
            })
            .collect();
        Timer {
            now_ns: median(&samples),
        }
    }

    /// `total` nanoseconds over `spans` spans, minus the timer's share.
    fn net(&self, total: u64, spans: u64) -> f64 {
        (total as f64 - spans as f64 * self.now_ns).max(0.0)
    }
}

/// FNV-1a, the dedup set's hasher.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }
}

/// How one reached configuration scores against an objective — a copy of
/// the model checker's private classification.
enum Outcome {
    ProtocolWins,
    AdversaryWins,
    Undecided,
}

fn classify(objective: Objective, sim: &Simulation) -> Outcome {
    let explored = sim.explored();
    let alive = sim.alive_count();
    let partial = alive < sim.agent_count();
    match objective {
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
    }
}

/// Per-layer totals of one instrumented replay.
#[derive(Default)]
struct Replay {
    stats: SearchStats,
    restore_ns: u64,
    step_ns: u64,
    checkpoint_ns: u64,
    key_ns: u64,
    /// Successors that reached the dedup table (one checkpoint and one key
    /// each).
    probes: u64,
    key_bytes: u64,
    /// Levels wide enough for the parallel path.
    parallel_levels: u64,
    wall_ns: u64,
}

/// Re-runs the sequential search of `check` with a span around each engine
/// call: `restore`, `step_with_edge`, `checkpoint_into` and
/// `canonical_key_into`. The dedup table, classification and frontier
/// bookkeeping are the benchmark's own, so the library's (private) versions
/// of them are what `analysis.mc.unattributed_ns_per_state` measures.
fn replay(check: &ModelCheck) -> Replay {
    let start = Instant::now();
    let mut out = Replay::default();
    let mut sim = check.branchable_simulation();
    let ring = check.scenario.ring();
    let n = ring.size();
    if !matches!(classify(check.objective, &sim), Outcome::Undecided) {
        out.wall_ns = nanos(start);
        return out;
    }
    let mut frontier: Vec<SimCheckpoint> = Vec::new();
    let mut next: Vec<SimCheckpoint> = Vec::new();
    let mut pool: Vec<SimCheckpoint> = Vec::new();
    let mut seen: HashSet<Box<[u8]>, BuildHasherDefault<Fnv>> = HashSet::default();
    let mut scratch = SimCheckpoint::default();
    let mut key_scratch = KeyScratch::new();
    let mut key = Vec::new();
    let mut root = SimCheckpoint::default();
    sim.checkpoint_into(&mut root);
    frontier.push(root);
    let stats = &mut out.stats;
    'levels: for _ in 0..check.depth {
        if frontier.is_empty() {
            break;
        }
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
        if frontier.len() >= (2 * THREADS).max(PARALLEL_FRONTIER_MIN) {
            out.parallel_levels += 1;
        }
        seen.clear();
        for cp in frontier.drain(..) {
            for choice_index in 0..=n {
                let choice = (choice_index < n).then(|| EdgeId::new(choice_index));
                let t0 = Instant::now();
                sim.restore(&cp);
                let t1 = Instant::now();
                sim.step_with_edge(choice);
                let t2 = Instant::now();
                out.restore_ns += (t1 - t0).as_nanos() as u64;
                out.step_ns += (t2 - t1).as_nanos() as u64;
                stats.expanded += 1;
                match classify(check.objective, &sim) {
                    Outcome::AdversaryWins => {
                        stats.depth_reached = sim.round();
                        break 'levels;
                    }
                    Outcome::ProtocolWins => {}
                    Outcome::Undecided => {
                        let t3 = Instant::now();
                        sim.checkpoint_into(&mut scratch);
                        let t4 = Instant::now();
                        scratch.canonical_key_into(&ring, &mut key_scratch, &mut key);
                        let t5 = Instant::now();
                        out.checkpoint_ns += (t4 - t3).as_nanos() as u64;
                        out.key_ns += (t5 - t4).as_nanos() as u64;
                        out.probes += 1;
                        out.key_bytes += key.len() as u64;
                        if seen.insert(key.as_slice().into()) {
                            stats.visited += 1;
                            let fresh = pool.pop().unwrap_or_default();
                            next.push(std::mem::replace(&mut scratch, fresh));
                        }
                    }
                }
            }
            pool.push(cp);
        }
        std::mem::swap(&mut frontier, &mut next);
        stats.depth_reached += 1;
    }
    out.wall_ns = nanos(start);
    out
}

/// The model-check layers: each cell runs at two threads and at one, then
/// once more through the instrumented replay, whose counts must equal the
/// library's `SearchStats` exactly.
pub fn trace(checks: &mut Checks) -> Vec<Metric> {
    let timer = Timer::calibrate();
    let cells = matrix(SIZES);
    let mut ctx2 = SearchContext::new(THREADS);
    let mut ctx1 = SearchContext::new(1);
    // Σ wall clock per ring size at one and at two threads.
    let mut per_n: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut total = Replay::default();
    let (mut wall1_ns, mut rebuild_ns) = (0u64, 0f64);
    for cell in &cells {
        let t0 = Instant::now();
        let verdict2 = cell.check.run_in(&mut ctx2);
        let wall2 = secs(t0);
        let t0 = Instant::now();
        let verdict1 = cell.check.run_in(&mut ctx1);
        let wall1 = nanos(t0);
        check_verdict(cell, &verdict2, checks);
        checks.check(verdict1.stats() == verdict2.stats(), || {
            format!("{}: 1-thread and 2-thread stats differ", cell.id)
        });

        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(cell.check.branchable_simulation());
                nanos(t0) as f64
            })
            .collect();

        let traced = replay(&cell.check);
        checks.check(traced.stats == *verdict1.stats(), || {
            format!(
                "{}: replay counted {:?}, the model checker {:?}",
                cell.id,
                traced.stats,
                verdict1.stats()
            )
        });
        rebuild_ns += median(&builds) * traced.parallel_levels as f64 * THREADS as f64;
        wall1_ns += wall1;
        let walls = per_n.entry(cell.n).or_default();
        walls.0 += wall1 as f64 * 1e-9;
        walls.1 += wall2;
        total.stats.expanded += traced.stats.expanded;
        total.stats.visited += traced.stats.visited;
        total.stats.peak_frontier = total.stats.peak_frontier.max(traced.stats.peak_frontier);
        total.stats.depth_reached += traced.stats.depth_reached;
        total.restore_ns += traced.restore_ns;
        total.step_ns += traced.step_ns;
        total.checkpoint_ns += traced.checkpoint_ns;
        total.key_ns += traced.key_ns;
        total.probes += traced.probes;
        total.key_bytes += traced.key_bytes;
        total.wall_ns += traced.wall_ns;
    }
    let expanded = total.stats.expanded;
    let e = expanded as f64;
    let restore = timer.net(total.restore_ns, expanded);
    let step = timer.net(total.step_ns, expanded);
    let checkpoint = timer.net(total.checkpoint_ns, total.probes);
    let key = timer.net(total.key_ns, total.probes);
    let layers = restore + step + checkpoint + key;
    let (sum1, sum2) = per_n
        .values()
        .fold((0.0, 0.0), |(a, b), &(w1, w2)| (a + w1, b + w2));
    eprintln!(
        "mc trace: {} cells, {expanded} expansions, 1-thread {sum1:.3} s, 2-thread {sum2:.3} s, \
         replay {:.3} s, timer {:.1} ns",
        cells.len(),
        total.wall_ns as f64 * 1e-9,
        timer.now_ns
    );

    let mut metrics = vec![
        metric("engine.restore_ns", restore / e, "ns"),
        metric("engine.forced_step_ns", step / e, "ns"),
        metric("engine.checkpoint_ns", checkpoint / e, "ns"),
        metric("engine.canonical_key_ns", key / e, "ns"),
        metric(
            "engine.key_bytes",
            ratio(total.key_bytes as f64, total.probes as f64),
            "bytes",
        ),
        metric("analysis.mc.expanded", total.stats.expanded as f64, "count"),
        metric("analysis.mc.visited", total.stats.visited as f64, "count"),
        metric(
            "analysis.mc.dedup_ratio",
            ratio(total.stats.visited as f64, total.probes as f64),
            "ratio",
        ),
        metric(
            "analysis.mc.peak_frontier",
            total.stats.peak_frontier as f64,
            "count",
        ),
        metric(
            "analysis.mc.depth",
            total.stats.depth_reached as f64,
            "count",
        ),
        metric(
            "analysis.mc.unattributed_ns_per_state",
            (wall1_ns as f64 - layers) / e,
            "ns",
        ),
        metric("analysis.mc.parallel_speedup", sum1 / sum2, "ratio"),
    ];
    for (n, &(w1, w2)) in &per_n {
        metrics.push(metric(
            format!("analysis.mc.parallel_speedup.n{n}"),
            w1 / w2,
            "ratio",
        ));
    }
    metrics.push(metric("analysis.mc.sim_rebuild_ns", rebuild_ns, "ns"));
    metrics.push(metric(
        "bench.trace_overhead.mc_matrix",
        total.wall_ns as f64 / wall1_ns as f64,
        "ratio",
    ));
    metrics
}
