//! Crash-safe sweep service: journaled job execution with resume, panic
//! isolation, and a deterministic fault-injection harness.
//!
//! Every other consumer of the engine is a fire-and-forget batch CLI: one
//! panicking cell aborts the whole battery, and a killed `--huge` sweep
//! restarts from zero. This crate is the robustness substrate under the
//! ROADMAP's sweep-service daemon:
//!
//! * [`job`] — a [`Job`] wraps any battery (sweeps, tables,
//!   figures, `--huge`) as an ordered list of [`Scenario`] cells, keyed by
//!   index plus a deterministic digest of the cell description;
//! * [`journal`] — an **append-only JSONL event store**
//!   (`job_started` / `cell_completed` / `cell_failed` / `cell_quarantined`
//!   / `job_finished`, fsync'd in batches) plus its replay/validation half;
//! * [`supervisor`] — the [`Supervisor`]: a
//!   worker-pool runtime with per-cell panic isolation
//!   (`BatchRunner::run_map_catching`), bounded immediate retry, a
//!   per-job failure budget that degrades to a partial result +
//!   failure report, and journal-driven **resume** — a crashed or killed
//!   sweep picks up at the last durable cell boundary instead of
//!   restarting;
//! * [`fault`] — a [`FaultPlan`]: seeded, deterministic
//!   injection of cell panics, journal I/O errors and worker kills, used by
//!   the proptests to assert that every interleaving either completes or
//!   resumes losslessly.
//!
//! Because every cell is deterministic (the engine's determinism pins),
//! a report replayed from the journal is byte-identical to a fresh run of
//! the same cell — which is what makes the kill-and-resume round-trip
//! checkable, and checked (`tests/fault_resume.rs`, plus the CI SIGKILL
//! smoke on `examples/sweep_service.rs`).
//!
//! ```
//! use dynring_analysis::Scenario;
//! use dynring_core::Algorithm;
//! use dynring_service::{Job, Supervisor};
//!
//! let cells: Vec<Scenario> = (0..4)
//!     .map(|i| Scenario::fsync(6 + i, Algorithm::KnownBound { upper_bound: 6 + i }))
//!     .collect();
//! let job = Job::new("doc-battery", cells);
//! let path = std::env::temp_dir().join(format!("dynring-doc-{}.jsonl", std::process::id()));
//! let _ = std::fs::remove_file(&path);
//! let outcome = Supervisor::new().run(&job, &path).unwrap();
//! assert_eq!(outcome.completed(), 4);
//! // A second run resumes from the journal: nothing is re-executed.
//! let resumed = Supervisor::new().run(&job, &path).unwrap();
//! assert_eq!(resumed.resumed, 4);
//! assert_eq!(resumed.render(&job), outcome.render(&job));
//! std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynring_analysis::Scenario;
use std::fmt;

pub mod fault;
pub mod job;
pub mod journal;
pub mod supervisor;

pub use fault::FaultPlan;
pub use job::{CellFailure, Job, JobOutcome, JobStatus};
pub use journal::{Journal, JournalEvent, Replay};
pub use supervisor::Supervisor;

/// Errors raised by the service layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// A journal I/O operation failed (includes injected faults).
    Io {
        /// What the service was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A journal line (other than a trailing partial line, which is the
    /// expected signature of a crash mid-write and is dropped) could not be
    /// parsed or replayed.
    Corrupt {
        /// 1-based line number in the journal.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The journal on disk belongs to a different job (id or cell list
    /// changed), so resuming from it would silently mix batteries.
    WrongJob {
        /// Fingerprint of the job being run.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// The fault plan killed a worker before the named cell (the simulated
    /// SIGKILL). The journal holds every cell completed so far; re-running
    /// the same job against the same journal resumes from there.
    Killed {
        /// The cell the killed worker was about to run.
        cell: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io { context, source } => {
                write!(f, "journal I/O failed while {context}: {source}")
            }
            ServiceError::Corrupt { line, message } => {
                write!(f, "journal line {line} is corrupt: {message}")
            }
            ServiceError::WrongJob { expected, found } => write!(
                f,
                "journal belongs to a different job (fingerprint {found:#018x}, \
                 this job is {expected:#018x}); delete it or point the job elsewhere"
            ),
            ServiceError::Killed { cell } => {
                write!(f, "worker killed by the fault plan before cell {cell}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit, the digest primitive behind every journal key (cell
/// digests, job fingerprints, report digests). Stable across processes and
/// platforms, which is what lets a resumed process validate a journal
/// written by a killed one.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The deterministic digest of one scenario cell: FNV-1a over the
/// scenario's canonical `Debug` rendering (which contains no addresses, so
/// it is identical across processes of the same build — the property the
/// resume contract relies on).
#[must_use]
pub fn scenario_digest(scenario: &Scenario) -> u64 {
    fnv1a(format!("{scenario:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_core::Algorithm;

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn scenario_digest_distinguishes_cells_and_is_repeatable() {
        let a = Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 });
        let b = Scenario::fsync(9, Algorithm::KnownBound { upper_bound: 9 });
        assert_eq!(scenario_digest(&a), scenario_digest(&a.clone()));
        assert_ne!(scenario_digest(&a), scenario_digest(&b));
    }

    #[test]
    fn errors_display_their_context() {
        let e = ServiceError::Io {
            context: "appending cell_completed".into(),
            source: std::io::Error::other("disk on fire"),
        };
        assert!(e.to_string().contains("appending cell_completed"));
        assert!(e.to_string().contains("disk on fire"));
        assert!(ServiceError::Corrupt { line: 3, message: "x".into() }.to_string().contains("3"));
        assert!(ServiceError::Killed { cell: 7 }.to_string().contains("7"));
        let wrong = ServiceError::WrongJob { expected: 1, found: 2 };
        assert!(wrong.to_string().contains("different job"));
    }
}
