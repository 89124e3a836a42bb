//! Parallel execution of independent scenario batteries.
//!
//! The feasibility map runs thousands of independent [`Scenario`]s (ring
//! sizes × placements × orientations × adversaries). A [`BatchRunner`] fans
//! such a battery across OS threads with [`std::thread::scope`] (no external
//! dependency) and merges the results **in input order**, so every consumer —
//! sweeps, tables, the `feasibility_map` example — produces output
//! bit-identical to the sequential path regardless of thread count or
//! scheduling.
//!
//! The default thread count comes from the `DYNRING_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`]; a runner
//! with one thread runs inline on the caller's thread (no spawn at all), which
//! is the reference path the equivalence tests compare against.

use crate::scenario::{Scenario, ScenarioBatchRunner};
use dynring_engine::sim::RunReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A worker panic captured by [`BatchRunner::run_map_catching`], identifying
/// the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the input whose `work` call panicked.
    pub index: usize,
    /// The panic payload, if it was a string (the common `panic!` case);
    /// otherwise a placeholder.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked on input {}: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Fans independent work items across threads, merging results in input
/// order.
///
/// ```
/// use dynring_analysis::batch::BatchRunner;
///
/// let doubled = BatchRunner::new(4).run_map(&[1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner using `threads` worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        BatchRunner { threads: threads.max(1) }
    }

    /// The inline sequential runner (the reference path: no thread is ever
    /// spawned).
    #[must_use]
    pub fn sequential() -> Self {
        BatchRunner::new(1)
    }

    /// The default runner: `DYNRING_THREADS` if set (a positive integer),
    /// otherwise the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// An unparsable `DYNRING_THREADS` (e.g. `"8x"` or `"0"`) is a hard
    /// error: a typo'd knob silently falling back to all cores would skew
    /// every "sequential reference" comparison, so the misconfiguration
    /// aborts loudly instead.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = match std::env::var("DYNRING_THREADS") {
            Ok(raw) => match parse_thread_count(&raw) {
                Ok(t) => t,
                Err(message) => panic!("invalid DYNRING_THREADS: {message}"),
            },
            Err(std::env::VarError::NotPresent) => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("invalid DYNRING_THREADS: value is not valid unicode")
            }
        };
        BatchRunner::new(threads)
    }

    /// Number of worker threads this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `work` to every input and returns the results in input order.
    ///
    /// With more than one thread the items are handed out through a shared
    /// counter (work stealing — batteries mix cheap and expensive scenarios),
    /// and each result is reassembled into its input slot afterwards, so the
    /// output is deterministic whatever the interleaving.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic, identifying the offending input index in
    /// the message. The other inputs still run to completion first (see
    /// [`BatchRunner::run_map_catching`], which returns them instead).
    pub fn run_map<I, T, F>(&self, inputs: &[I], work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run_map_with(inputs, || (), |(), input| work(input))
    }

    /// [`BatchRunner::run_map`] with **per-worker mutable state**: every
    /// worker thread calls `state` once and threads the result through its
    /// share of the inputs. This is what lets a battery hold one recycled
    /// [`ScenarioRunner`](crate::scenario::ScenarioRunner) (and therefore
    /// one reusable `Simulation`) per
    /// thread without any cross-thread sharing; results are still merged in
    /// input order, so the output is identical whatever the thread count.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic, identifying the offending input index in
    /// the message.
    pub fn run_map_with<I, T, S, FS, F>(&self, inputs: &[I], state: FS, work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, &I) -> T + Sync,
    {
        self.run_map_catching(inputs, state, work)
            .into_iter()
            .map(|slot| match slot {
                Ok(result) => result,
                Err(panic) => panic!("batch {panic}"),
            })
            .collect()
    }

    /// [`BatchRunner::run_map_with`] with **per-cell panic isolation**: each
    /// `work` call runs under [`std::panic::catch_unwind`], so one panicking
    /// input no longer aborts the whole batch — its slot comes back as
    /// `Err(WorkerPanic)` (with the input index and panic message) and every
    /// other input still produces its `Ok` result.
    ///
    /// A panic may leave the per-worker state half-updated, so the worker
    /// **quarantines the poisoned state**: it drops its local `S` and builds
    /// a fresh one via `state` before touching the next input. Results after
    /// a panic are therefore exactly what a fresh worker would produce —
    /// this is what lets the service layer's supervisor trust the survivors
    /// of a poisoned battery.
    ///
    /// The panic still unwinds through the standard panic hook before being
    /// captured, so the usual `thread '…' panicked` line appears on stderr;
    /// only the *abort* is suppressed.
    pub fn run_map_catching<I, T, S, FS, F>(
        &self,
        inputs: &[I],
        state: FS,
        work: F,
    ) -> Vec<Result<T, WorkerPanic>>
    where
        I: Sync,
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, &I) -> T + Sync,
    {
        let caught = |local: &mut S, index: usize, input: &I| -> Result<T, WorkerPanic> {
            catch_unwind(AssertUnwindSafe(|| work(local, input))).map_err(|payload| {
                WorkerPanic { index, message: panic_message(payload.as_ref()) }
            })
        };
        let workers = self.threads.min(inputs.len());
        if workers <= 1 {
            let mut local = state();
            return inputs
                .iter()
                .enumerate()
                .map(|(index, input)| {
                    let result = caught(&mut local, index, input);
                    if result.is_err() {
                        local = state();
                    }
                    result
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, WorkerPanic>>> = Vec::with_capacity(inputs.len());
        slots.resize_with(inputs.len(), || None);
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = state();
                        let mut produced: Vec<(usize, Result<T, WorkerPanic>)> = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(input) = inputs.get(index) else { break };
                            let result = caught(&mut local, index, input);
                            if result.is_err() {
                                local = state();
                            }
                            produced.push((index, result));
                        }
                        produced
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().expect(
                        "batch workers catch work panics; a join failure is a harness bug",
                    )
                })
                .collect::<Vec<_>>()
        });
        for (index, result) in chunks.into_iter().flatten() {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every input index was claimed exactly once"))
            .collect()
    }

    /// Runs every scenario and returns the reports in input order.
    ///
    /// The battery is first partitioned into maximal runs of consecutive
    /// same-shape cells ([`group_ranges`], capped at
    /// [`batch_lanes_from_env`] cells); each group runs through a
    /// per-worker [`ScenarioBatchRunner`], which runs each cell solo on a
    /// recycled simulation. Results are merged in input order, so the output is
    /// byte-identical to the cell-by-cell sequential path whatever the
    /// thread or lane count.
    #[must_use]
    pub fn run_reports(&self, scenarios: &[Scenario]) -> Vec<RunReport> {
        let ranges = group_ranges(scenarios, |s| s, batch_lanes_from_env());
        self.run_map_with(&ranges, ScenarioBatchRunner::new, |runner, range| {
            runner.run_group(&scenarios[range.clone()])
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::from_env()
    }
}

/// Parses a `DYNRING_THREADS`-style value: a positive integer, rejecting
/// everything else with a human-readable message (the strict core behind
/// [`BatchRunner::from_env`], split out so it can be tested without touching
/// the process environment).
///
/// # Errors
///
/// Returns the message to show the user when the value is not a positive
/// integer.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "{trimmed:?} is zero; use a positive thread count (or unset the variable \
             to use all cores)"
        )),
        Ok(t) => Ok(t),
        Err(_) => Err(format!(
            "{raw:?} is not a positive integer thread count (examples: 1, 8)"
        )),
    }
}

/// The default number of cells per batched group — one unit of pool work
/// for a worker's [`ScenarioBatchRunner`], which runs each cell solo on a
/// recycled simulation, so the cap does not shape the round loop. 16 keeps
/// a unit large enough to amortise the pool's hand-off and small enough
/// that a battery's shape changes don't leave long ragged tails.
pub const DEFAULT_BATCH_LANES: usize = 16;

/// Parses a `DYNRING_BATCH_LANES`-style value: a positive integer or the
/// literal `solo` (= 1, turning every cell into a singleton group), rejecting
/// everything else
/// with a human-readable message — the same strict contract as
/// [`parse_thread_count`]: a typo'd knob must abort loudly, never fall back
/// silently.
///
/// # Errors
///
/// Returns the message to show the user when the value is not a positive
/// integer or `solo`.
pub fn parse_batch_lanes(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed == "solo" {
        return Ok(1);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "{trimmed:?} is zero; use a positive lane count (or unset the variable \
             for the default of {DEFAULT_BATCH_LANES})"
        )),
        Ok(lanes) => Ok(lanes),
        Err(_) => Err(format!(
            "{raw:?} is not a positive integer lane count, or the literal \"solo\" \
             (examples: 1, 16, solo)"
        )),
    }
}

/// The number of cells per batched group: `DYNRING_BATCH_LANES` if set (a
/// positive integer), otherwise [`DEFAULT_BATCH_LANES`]. A cap of 1 turns
/// every cell into a singleton group.
///
/// # Panics
///
/// An unparsable `DYNRING_BATCH_LANES` is a hard error, exactly like
/// `DYNRING_THREADS` in [`BatchRunner::from_env`].
#[must_use]
pub fn batch_lanes_from_env() -> usize {
    match std::env::var("DYNRING_BATCH_LANES") {
        Ok(raw) => match parse_batch_lanes(&raw) {
            Ok(lanes) => lanes,
            Err(message) => panic!("invalid DYNRING_BATCH_LANES: {message}"),
        },
        Err(std::env::VarError::NotPresent) => DEFAULT_BATCH_LANES,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid DYNRING_BATCH_LANES: value is not valid unicode")
        }
    }
}

/// Partitions a battery into maximal runs of **consecutive same-shape
/// cells** (capped at `max_lanes` per range, clamped to at least 1) — the
/// unit of pool work one [`ScenarioBatchRunner::run_group`] call executes
/// (trace-recording cells group like any other). Concatenating the ranges
/// always reproduces
/// `0..items.len()` in order, so merging per-range results in input order
/// is output-identical to the cell-by-cell path.
#[must_use]
pub fn group_ranges<T>(
    items: &[T],
    scenario_of: impl Fn(&T) -> &Scenario,
    max_lanes: usize,
) -> Vec<std::ops::Range<usize>> {
    let max_lanes = max_lanes.max(1);
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < items.len() {
        let first = scenario_of(&items[start]);
        let mut end = start + 1;
        while end < items.len()
            && end - start < max_lanes
            && first.same_batch_shape(scenario_of(&items[end]))
        {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversaryKind, ScenarioRunner};
    use dynring_core::Algorithm;

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7] {
            let out = BatchRunner::new(threads).run_map(&inputs, |x| x * 3);
            assert_eq!(out, inputs.iter().map(|x| x * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_reports_match_the_sequential_reference() {
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                Scenario::fsync(6 + i % 3, Algorithm::KnownBound { upper_bound: 6 + i % 3 })
                    .with_adversary(AdversaryKind::Sticky {
                        min_hold: 1,
                        max_hold: 6,
                        present: 0.25,
                        seed: i as u64,
                    })
            })
            .collect();
        let sequential = BatchRunner::sequential().run_reports(&scenarios);
        let parallel = BatchRunner::new(4).run_reports(&scenarios);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn thread_count_is_clamped_and_env_parse_is_safe() {
        assert_eq!(BatchRunner::new(0).threads(), 1);
        assert_eq!(BatchRunner::sequential().threads(), 1);
        assert!(BatchRunner::from_env().threads() >= 1);
    }

    #[test]
    fn empty_and_singleton_batches_run_inline() {
        let empty: Vec<usize> = Vec::new();
        assert!(BatchRunner::new(8).run_map(&empty, |x| *x).is_empty());
        assert_eq!(BatchRunner::new(8).run_map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn thread_count_parsing_is_strict() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 16 "), Ok(16));
        for bad in ["8x", "0", "-2", "", "all", "3.5"] {
            let err = parse_thread_count(bad).unwrap_err();
            assert!(
                err.contains("positive") || err.contains("zero"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn lane_count_parsing_is_strict_and_accepts_solo() {
        assert_eq!(parse_batch_lanes("8"), Ok(8));
        assert_eq!(parse_batch_lanes(" 16 "), Ok(16));
        assert_eq!(parse_batch_lanes("solo"), Ok(1));
        assert_eq!(parse_batch_lanes(" solo "), Ok(1));
        for bad in ["8x", "0", "-2", "", "all", "3.5", "SOLO"] {
            let err = parse_batch_lanes(bad).unwrap_err();
            assert!(
                err.contains("positive") || err.contains("zero"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn catching_map_quarantines_the_panicking_cell() {
        let inputs: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let results = BatchRunner::new(threads).run_map_catching(
                &inputs,
                || (),
                |(), x| {
                    assert!(*x != 17, "cell seventeen is poisoned");
                    x * 2
                },
            );
            assert_eq!(results.len(), inputs.len());
            for (i, result) in results.iter().enumerate() {
                if i == 17 {
                    let panic = result.as_ref().unwrap_err();
                    assert_eq!(panic.index, 17);
                    assert!(panic.message.contains("seventeen"), "{panic}");
                } else {
                    assert_eq!(result.as_ref().unwrap(), &(i * 2), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn catching_map_rebuilds_poisoned_worker_state() {
        // Sequential so one worker state sees both the panic and the
        // survivors: the counter must restart from zero after the panic,
        // proving the poisoned state was quarantined and rebuilt.
        let inputs: Vec<usize> = (0..6).collect();
        let results = BatchRunner::sequential().run_map_catching(
            &inputs,
            || 0usize,
            |count, x| {
                *count += 1;
                assert!(*x != 2, "poison");
                *count
            },
        );
        let counts: Vec<Option<usize>> = results.into_iter().map(Result::ok).collect();
        assert_eq!(counts, vec![Some(1), Some(2), None, Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn run_map_panics_name_the_offending_index() {
        let inputs: Vec<usize> = (0..8).collect();
        let outcome = std::panic::catch_unwind(|| {
            BatchRunner::new(2).run_map(&inputs, |x| {
                assert!(*x != 5, "boom");
                *x
            })
        });
        let payload = outcome.expect_err("a worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("propagated panic carries a formatted message");
        assert!(message.contains("input 5"), "{message}");
        assert!(message.contains("boom"), "{message}");
    }

    #[test]
    fn reports_survive_a_poisoned_sibling_cell() {
        // A battery where one scenario panics (start out of range) must
        // still produce every other report, identical to running them alone.
        let good = Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 });
        let bad = good.clone().with_starts(vec![99, 100]);
        let scenarios = vec![good.clone(), bad, good.clone()];
        let results = BatchRunner::new(2).run_map_catching(
            &scenarios,
            ScenarioRunner::new,
            |runner, scenario| runner.run(scenario),
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        let reference = good.run();
        assert_eq!(results[0].as_ref().unwrap(), &reference);
        assert_eq!(results[2].as_ref().unwrap(), &reference);
    }
}
