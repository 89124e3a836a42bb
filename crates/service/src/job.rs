//! Jobs: a battery wrapped as an ordered list of digest-keyed cells, plus
//! the outcome/reporting types the supervisor produces.

use crate::{fnv1a, scenario_digest};
use dynring_analysis::Scenario;
use dynring_engine::sim::RunReport;

/// A named battery of scenario cells, the unit of journaled execution.
///
/// Anything the analysis layer runs — sweeps, tables, figures, the `--huge`
/// grid — is a list of [`Scenario`]s, so wrapping the list (in input order)
/// is enough to make the battery journal-able: each cell is keyed by its
/// index plus [`scenario_digest`], and the whole job by a fingerprint over
/// the id and every cell digest. The fingerprint is what stops a journal
/// written for one battery from being resumed against another.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    id: String,
    cells: Vec<Scenario>,
}

impl Job {
    /// Wraps a battery. The cell order is the report order and must be
    /// deterministic (it is part of the fingerprint).
    #[must_use]
    pub fn new(id: impl Into<String>, cells: Vec<Scenario>) -> Self {
        Job { id: id.into(), cells }
    }

    /// The job id (used in the journal and the report header).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The battery, in report order.
    #[must_use]
    pub fn cells(&self) -> &[Scenario] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the battery is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The job fingerprint: FNV-1a over the id and every cell digest, in
    /// order. Identical across processes of the same build, so a resumed
    /// process can verify the journal on disk describes *this* battery.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.id.len() + 8 * self.cells.len());
        bytes.extend_from_slice(self.id.as_bytes());
        for cell in &self.cells {
            bytes.extend_from_slice(&scenario_digest(cell).to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// A quarantined cell: it exhausted its retry budget and the batch went on
/// without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell index.
    pub index: usize,
    /// How many attempts were made.
    pub attempts: u32,
    /// The last panic message.
    pub error: String,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Every cell completed successfully.
    Complete,
    /// Every cell reached a terminal state, but some were quarantined
    /// (within the failure budget).
    CompleteWithFailures,
    /// The failure budget was exhausted; the remaining cells were skipped
    /// and the outcome is a partial result.
    Partial,
}

impl JobStatus {
    /// The label used in reports and the journal.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Complete => "complete",
            JobStatus::CompleteWithFailures => "complete-with-failures",
            JobStatus::Partial => "partial",
        }
    }
}

/// The result of a supervised job run (possibly assembled partly from the
/// journal on resume).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id.
    pub job_id: String,
    /// Per-cell reports in cell order; `None` for quarantined or skipped
    /// cells.
    pub reports: Vec<Option<RunReport>>,
    /// The quarantined cells, in cell order.
    pub failures: Vec<CellFailure>,
    /// Cells never attempted because the failure budget ran out, in order.
    pub skipped: Vec<usize>,
    /// How many cells were loaded from the journal instead of executed.
    pub resumed: usize,
    /// How the job ended.
    pub status: JobStatus,
}

impl JobOutcome {
    /// Number of cells that completed successfully.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.reports.iter().filter(|r| r.is_some()).count()
    }

    /// A digest over every cell's terminal state (report digests for
    /// completed cells, markers for quarantined/skipped ones), in cell
    /// order. Two runs of the same job — interrupted or not — that reached
    /// the same terminal states have the same digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(9 * self.reports.len());
        for (index, report) in self.reports.iter().enumerate() {
            match report {
                Some(report) => {
                    bytes.push(b'c');
                    bytes.extend_from_slice(&crate::journal::report_digest(report).to_le_bytes());
                }
                None if self.skipped.contains(&index) => bytes.push(b's'),
                None => bytes.push(b'q'),
            }
        }
        fnv1a(&bytes)
    }

    /// Renders the deterministic final report: one row per cell plus a
    /// failure report. Everything in it is a pure function of the cells'
    /// terminal states — resume counts, timing and thread counts are
    /// deliberately excluded — so an interrupted-and-resumed run renders
    /// **byte-identically** to an uninterrupted one (the property the CI
    /// kill-and-resume smoke diffs for).
    #[must_use]
    pub fn render(&self, job: &Job) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Job report: {}", self.job_id);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "status: {} — {} cells, {} completed, {} quarantined, {} skipped",
            self.status.label(),
            self.reports.len(),
            self.completed(),
            self.failures.len(),
            self.skipped.len(),
        );
        let _ = writeln!(out, "outcome digest: {:#018x}", self.digest());
        let _ = writeln!(out);
        let _ = writeln!(out, "| cell | scenario | rounds | explored_at | moves | digest |");
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for (index, report) in self.reports.iter().enumerate() {
            let label = job.cells().get(index).map_or_else(String::new, Scenario::label);
            match report {
                Some(report) => {
                    let explored = report
                        .explored_at
                        .map_or_else(|| "-".to_owned(), |r| r.to_string());
                    let _ = writeln!(
                        out,
                        "| {index} | {label} | {} | {explored} | {} | {:#018x} |",
                        report.rounds,
                        report.total_moves,
                        crate::journal::report_digest(report),
                    );
                }
                None if self.skipped.contains(&index) => {
                    let _ = writeln!(out, "| {index} | {label} | SKIPPED | - | - | - |");
                }
                None => {
                    let _ = writeln!(out, "| {index} | {label} | QUARANTINED | - | - | - |");
                }
            }
        }
        if !self.failures.is_empty() || !self.skipped.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Failure report");
            let _ = writeln!(out);
            for failure in &self.failures {
                let _ = writeln!(
                    out,
                    "- cell {} quarantined after {} attempt(s): {}",
                    failure.index, failure.attempts, failure.error
                );
            }
            for index in &self.skipped {
                let _ = writeln!(out, "- cell {index} skipped (failure budget exhausted)");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_core::Algorithm;

    fn tiny_job() -> Job {
        let cells: Vec<Scenario> = (0..3)
            .map(|i| Scenario::fsync(6 + i, Algorithm::KnownBound { upper_bound: 6 + i }))
            .collect();
        Job::new("tiny", cells)
    }

    #[test]
    fn fingerprint_tracks_id_and_cells() {
        let job = tiny_job();
        assert_eq!(job.fingerprint(), tiny_job().fingerprint());
        let renamed = Job::new("other", job.cells().to_vec());
        assert_ne!(job.fingerprint(), renamed.fingerprint());
        let mut fewer = job.cells().to_vec();
        fewer.pop();
        assert_ne!(job.fingerprint(), Job::new("tiny", fewer).fingerprint());
    }

    #[test]
    fn outcome_render_is_deterministic_and_marks_failures() {
        let job = tiny_job();
        let report = job.cells()[0].run();
        let outcome = JobOutcome {
            job_id: "tiny".into(),
            reports: vec![Some(report), None, None],
            failures: vec![CellFailure { index: 1, attempts: 3, error: "boom".into() }],
            skipped: vec![2],
            resumed: 0,
            status: JobStatus::Partial,
        };
        let rendered = outcome.render(&job);
        assert_eq!(rendered, outcome.render(&job));
        assert!(rendered.contains("QUARANTINED"));
        assert!(rendered.contains("SKIPPED"));
        assert!(rendered.contains("boom"));
        assert!(rendered.contains("status: partial"));
        // The resume count must not leak into the render (byte-identity
        // across interrupted and uninterrupted runs).
        let resumed = JobOutcome { resumed: 2, ..outcome.clone() };
        assert_eq!(rendered, resumed.render(&job));
    }

    #[test]
    fn outcome_digest_separates_terminal_states() {
        let job = tiny_job();
        let report = job.cells()[0].run();
        let complete = JobOutcome {
            job_id: "tiny".into(),
            reports: vec![Some(report.clone()), Some(report.clone()), Some(report.clone())],
            failures: vec![],
            skipped: vec![],
            resumed: 0,
            status: JobStatus::Complete,
        };
        let quarantined = JobOutcome {
            reports: vec![Some(report.clone()), None, Some(report.clone())],
            failures: vec![CellFailure { index: 1, attempts: 1, error: "x".into() }],
            status: JobStatus::CompleteWithFailures,
            ..complete.clone()
        };
        let skipped = JobOutcome {
            reports: vec![Some(report.clone()), None, Some(report)],
            failures: vec![],
            skipped: vec![1],
            status: JobStatus::Partial,
            ..complete.clone()
        };
        assert_ne!(complete.digest(), quarantined.digest());
        assert_ne!(quarantined.digest(), skipped.digest());
    }

    #[test]
    fn status_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            JobStatus::Complete,
            JobStatus::CompleteWithFailures,
            JobStatus::Partial,
        ]
        .into_iter()
        .map(JobStatus::label)
        .collect();
        assert_eq!(labels.len(), 3);
    }
}
