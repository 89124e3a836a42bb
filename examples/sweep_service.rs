//! A resumable sweep: the crash-safe job runtime running a real battery.
//!
//! Wraps a feasibility-style battery (every catalog algorithm at several
//! ring sizes) as a [`Job`] and executes it under the [`Supervisor`],
//! journaling every cell to an append-only JSONL file. Kill the process at
//! any point — `kill -9` included — and re-run the same command: it
//! resumes from the journal, re-using every journaled cell, and the final
//! report is **byte-identical** to the uninterrupted one. That round-trip
//! is exactly what the CI crash-resume smoke does to this example.
//!
//! ```bash
//! cargo run --release --example sweep_service -- --journal /tmp/sweep.jsonl --report /tmp/report.md
//! # interrupt it however you like, then run the identical command again
//! ```
//!
//! `--throttle-ms N` slows every cell down (to widen the kill window for
//! the CI smoke); `--cells N` sizes the battery. The example exits 0 when
//! every cell completed, 3 on a degraded job (quarantined or skipped cells;
//! the report says which), 2 with a usage line on a bad argument and 1 on
//! a service error.

use dynring_core::Algorithm;
use dynring_service::{Job, JobOutcome, JobStatus, ServiceError, Supervisor};
use std::path::{Path, PathBuf};
use std::time::Duration;

use dynring_analysis::Scenario;

/// The example battery: every FSYNC catalog algorithm crossed with a range
/// of ring sizes, in a deterministic order (the same `cells` count always
/// produces the same job, which is what makes resume possible).
pub fn battery(cells: usize) -> Job {
    let algorithms = [
        |n: usize| Algorithm::KnownBound { upper_bound: n },
        |_n: usize| Algorithm::LandmarkChirality,
        |_n: usize| Algorithm::LandmarkNoChirality,
    ];
    let scenarios: Vec<Scenario> = (0..cells)
        .map(|i| {
            let n = 8 + (i / algorithms.len()) * 2;
            Scenario::fsync(n, algorithms[i % algorithms.len()](n))
        })
        .collect();
    Job::new("sweep-service-example", scenarios)
}

/// The example's core path: run (or resume) `job` against `journal`,
/// writing the rendered report to `report` when given, and returning the
/// outcome. Resume bookkeeping goes to stderr so the report file stays a
/// pure function of the cells' terminal states.
pub fn run(
    supervisor: &Supervisor,
    job: &Job,
    journal: &Path,
    report: Option<&Path>,
) -> Result<JobOutcome, ServiceError> {
    let outcome = supervisor.run(job, journal)?;
    eprintln!(
        "job {}: {} ({} of {} cells resumed from {})",
        outcome.job_id,
        outcome.status.label(),
        outcome.resumed,
        job.len(),
        journal.display(),
    );
    let rendered = outcome.render(job);
    match report {
        Some(path) => std::fs::write(path, &rendered).map_err(|source| ServiceError::Io {
            context: format!("writing report {}", path.display()),
            source,
        })?,
        None => print!("{rendered}"),
    }
    Ok(outcome)
}

/// The command line of the example.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// `--journal PATH`: the append-only JSONL journal to run or resume.
    pub journal: PathBuf,
    /// `--report PATH`: where the rendered report goes (stdout if absent).
    pub report: Option<PathBuf>,
    /// `--throttle-ms N`: sleep inside every cell, in milliseconds.
    pub throttle_ms: u64,
    /// `--cells N`: the battery size.
    pub cells: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            journal: PathBuf::from("sweep_service.journal.jsonl"),
            report: None,
            throttle_ms: 0,
            cells: 24,
        }
    }
}

/// The usage line printed on a bad argument.
const USAGE: &str = "usage: sweep_service [--journal PATH] [--report PATH] [--throttle-ms N] \
                     [--cells N]\nexits 0 when every cell completed, 3 on a degraded job \
                     (quarantined or skipped cells), 2 on a bad argument, 1 on a service error";

/// The exit code of a bad argument.
pub const EXIT_USAGE: i32 = 2;

/// The exit code of a job that ran to `status`: 0 when every cell
/// completed, 3 when some were quarantined or skipped.
pub fn exit_code(status: JobStatus) -> i32 {
    match status {
        JobStatus::Complete => 0,
        JobStatus::CompleteWithFailures | JobStatus::Partial => 3,
    }
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a message for an unknown argument, a flag without its value, or
/// a `--throttle-ms`/`--cells` value that is not a non-negative integer.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--journal" => parsed.journal = PathBuf::from(value()?),
            "--report" => parsed.report = Some(PathBuf::from(value()?)),
            "--throttle-ms" => {
                let text = value()?;
                parsed.throttle_ms =
                    text.parse().map_err(|e| format!("--throttle-ms {text:?}: {e}"))?;
            }
            "--cells" => {
                let text = value()?;
                parsed.cells = text.parse().map_err(|e| format!("--cells {text:?}: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("sweep_service: {message}\n{USAGE}");
        std::process::exit(EXIT_USAGE);
    });
    let job = battery(args.cells);
    let supervisor =
        Supervisor::new().chunk(4).throttle(Duration::from_millis(args.throttle_ms));
    match run(&supervisor, &job, &args.journal, args.report.as_deref()) {
        Ok(outcome) => std::process::exit(exit_code(outcome.status)),
        Err(error) => {
            eprintln!("sweep service failed: {error}");
            std::process::exit(1);
        }
    }
}
