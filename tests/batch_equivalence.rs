//! Property-based equivalence of the parallel sweep executor and the
//! sequential reference path.
//!
//! The `BatchRunner` fans independent scenario runs across threads and merges
//! the results in input order, so a sweep (and everything built on sweeps:
//! the tables, the feasibility map) must be **bit-identical** to the
//! sequential execution for every ring size, seed count and thread count.

use dynring_analysis::batch::BatchRunner;
use dynring_analysis::scenario::Scenario;
use dynring_analysis::sweeps::{self, adversary_suite, PlacementDensity};
use dynring_analysis::{figures, lower_bounds, markdown_table, tables};
use dynring_core::Algorithm;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An FSYNC sweep folded from parallel reports equals the sequential one,
    /// point by point, for arbitrary small ring sizes and seed counts.
    #[test]
    fn fsync_sweep_is_thread_count_invariant(
        n in 5usize..10,
        extra in 0usize..3,
        seeds in 1u64..3,
        threads in 2usize..6,
    ) {
        let sizes = [n, n + extra + 1];
        let make = |n: usize| Algorithm::KnownBound { upper_bound: n };
        let sweep = |runner: &BatchRunner| {
            sweeps::sweep_fsync_battery(runner, make, &sizes, seeds, PlacementDensity::Standard)
        };
        let sequential = sweep(&BatchRunner::sequential());
        let parallel = sweep(&BatchRunner::new(threads));
        prop_assert_eq!(&sequential.points, &parallel.points);
        prop_assert_eq!(sequential.all_explored, parallel.all_explored);
        prop_assert_eq!(
            sequential.all_terminated_as_promised,
            parallel.all_terminated_as_promised
        );
    }

    /// Raw report batches come back in input order whatever the thread count.
    #[test]
    fn report_batches_are_input_ordered(
        n in 5usize..9,
        seed in 0u64..16,
        threads in 2usize..8,
    ) {
        let scenarios: Vec<Scenario> = adversary_suite(n, seed)
            .into_iter()
            .map(|adversary| {
                Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                    .with_adversary(adversary)
            })
            .collect();
        let sequential = BatchRunner::sequential().run_reports(&scenarios);
        let parallel = BatchRunner::new(threads).run_reports(&scenarios);
        prop_assert_eq!(sequential, parallel);
    }
}

/// An SSYNC sweep (stateful schedulers, sticky random adversaries) is also
/// invariant — every scenario owns its policies, so no state leaks between
/// parallel runs.
#[test]
fn ssync_sweep_is_thread_count_invariant() {
    let make = |n: usize| Algorithm::PtBoundChirality { upper_bound: n };
    let sweep = |runner: &BatchRunner| {
        sweeps::sweep_ssync_battery(runner, make, &[6], 1, PlacementDensity::Standard)
    };
    let sequential = sweep(&BatchRunner::sequential());
    let parallel = sweep(&BatchRunner::new(4));
    assert_eq!(sequential.points, parallel.points);
    assert_eq!(sequential.all_explored, parallel.all_explored);
    assert_eq!(
        sequential.all_terminated_as_promised,
        parallel.all_terminated_as_promised
    );
}

/// The rendered impossibility tables — the feasibility map's markdown output —
/// are byte-identical between the sequential and parallel paths.
#[test]
fn rendered_tables_are_byte_identical_across_runners() {
    let sequential_runner = BatchRunner::sequential();
    let parallel_runner = BatchRunner::new(4);
    let render = |runner: &BatchRunner| {
        let mut out = String::new();
        out.push_str(&markdown_table("Table 1", &tables::table1_with(runner, 12)));
        out.push_str(&markdown_table("Table 3", &tables::table3_with(runner, 8)));
        out
    };
    assert_eq!(render(&sequential_runner), render(&parallel_runner));
}

/// The figure battery fans seven independent experiments across threads;
/// merging in input order must make the rows byte-identical to the
/// sequential reference whatever the thread count (ROADMAP "Scale — batch
/// the figure/lower-bound experiments").
#[test]
fn figures_are_thread_count_invariant() {
    let sequential = figures::all_figures_with(&BatchRunner::sequential(), 8);
    for threads in [2, 4, 7] {
        let parallel = figures::all_figures_with(&BatchRunner::new(threads), 8);
        assert_eq!(sequential, parallel, "{threads} threads");
    }
}

/// The lower-bound sweeps route their batteries through the runner like the
/// tables; the folded rows must match the sequential reference.
#[test]
fn lower_bounds_are_thread_count_invariant() {
    let rows = |runner: &BatchRunner| {
        lower_bounds::theorem13_15_battery(runner, &[6], 1, PlacementDensity::Standard)
    };
    let sequential = rows(&BatchRunner::sequential());
    let parallel = rows(&BatchRunner::new(4));
    assert_eq!(sequential, parallel);
}
