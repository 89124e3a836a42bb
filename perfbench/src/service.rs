//! `service_resume`: a journaled sweep job of a few thousand short cells,
//! killed near its midpoint by the fault plan and resumed to completion
//! under a two-thread `Supervisor`.
//!
//! Many short runs make compile, recycle and lane load matter more than
//! rounds, and this is the only workload on the service's write path
//! (journal append and fsync) and read path (`journal::replay`).

use crate::huge::push_sweep_cells;
use crate::{
    median, metric, nanos, ratio, secs, splitmix64, Checks, Metric, Work, Workload, THREADS,
};
use dynring_analysis::sweeps::start_placements;
use dynring_analysis::{BatchRunner, ScenarioRunner};
use dynring_core::Algorithm;
use dynring_engine::RunReport;
use dynring_service::journal::{
    self, report_digest, report_from_json, report_to_json, FileSink, JournalSink,
};
use dynring_service::{
    FaultPlan, Job, JobOutcome, JobStatus, Journal, JournalEvent, ServiceError, Supervisor,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ring sizes of the job's cells.
const SIZES: std::ops::RangeInclusive<usize> = 6..=16;

/// Cells per supervisor wave (the `Supervisor` default), mirrored by the
/// journal probe.
const WAVE: usize = 16;

/// Events per fsync batch (the `Supervisor` default).
const FSYNC_EVERY: usize = 8;

/// The seed-derived inputs: the job and the cell the first run is killed
/// before.
fn job_for(seed: u64) -> (Job, usize) {
    let mut state = seed ^ 0x5eed_5eed_5eed_5eed;
    let adversary_seed = splitmix64(&mut state);
    let scheduler_seed = splitmix64(&mut state);
    type MakeAlgorithm = fn(usize) -> Algorithm;
    let algorithms: [(MakeAlgorithm, bool); 9] = [
        (|n| Algorithm::KnownBound { upper_bound: n }, false),
        (|_| Algorithm::LandmarkChirality, false),
        (|_| Algorithm::LandmarkNoChirality, false),
        (|n| Algorithm::PtBoundChirality { upper_bound: n }, true),
        (|_| Algorithm::PtLandmarkChirality, true),
        (|n| Algorithm::PtBoundNoChirality { upper_bound: n }, true),
        (|_| Algorithm::PtLandmarkNoChirality, true),
        (|n| Algorithm::EtBoundNoChirality { ring_size: n }, true),
        (|_| Algorithm::EtUnconscious, true),
    ];
    let scheduler = |index: usize| scheduler_seed.wrapping_add(index as u64);
    let mut cells = Vec::new();
    for n in SIZES {
        for (make, ssync) in algorithms {
            push_sweep_cells(
                &mut cells,
                make(n),
                n,
                adversary_seed.wrapping_add(n as u64),
                &start_placements,
                ssync.then_some(&scheduler as &dyn Fn(usize) -> u64),
            );
        }
    }
    let len = cells.len();
    let kill = len / 2 - len / 8 + (splitmix64(&mut state) as usize) % (len / 4);
    (Job::new("perfbench-service-resume", cells), kill)
}

/// The uninterrupted reference render, computed without the service layer.
fn reference_render(job: &Job, reports: Vec<RunReport>) -> String {
    JobOutcome {
        job_id: job.id().to_owned(),
        reports: reports.into_iter().map(Some).collect(),
        failures: Vec::new(),
        skipped: Vec::new(),
        resumed: 0,
        status: JobStatus::Complete,
    }
    .render(job)
}

fn supervisor() -> Supervisor {
    Supervisor::new().threads(THREADS)
}

/// Runs the job into a fresh journal until the fault plan kills it before
/// `kill`; returns whether it died exactly there.
fn run_killed(job: &Job, kill: usize, path: &Path) -> bool {
    let _ = std::fs::remove_file(path);
    let plan = FaultPlan::none().with_kill_before(kill);
    matches!(
        supervisor().fault_plan(plan).run(job, path),
        Err(ServiceError::Killed { cell }) if cell == kill
    )
}

/// Kill, then resume: one pass of the workload. Returns the resumed outcome.
fn kill_and_resume(job: &Job, kill: usize, path: &Path, checks: &mut Checks) -> Option<JobOutcome> {
    let killed = run_killed(job, kill, path);
    checks.check(killed, || {
        format!("the job was not killed before cell {kill}")
    });
    match supervisor().run(job, path) {
        Ok(outcome) => Some(outcome),
        Err(error) => {
            checks.check(false, || format!("resume failed: {error}"));
            None
        }
    }
}

/// The `service_resume` workload.
pub struct ServiceResume {
    job: Job,
    kill: usize,
    reference: String,
    journal: PathBuf,
}

impl ServiceResume {
    /// Set-up: the seed's job and the uninterrupted reference render (whose
    /// `BatchRunner::run_reports` pass doubles as the warm-up).
    pub fn setup(seed: u64, scratch: &Path) -> Self {
        let (job, kill) = job_for(seed);
        let reports = BatchRunner::new(THREADS).run_reports(job.cells());
        let reference = reference_render(&job, reports);
        ServiceResume {
            job,
            kill,
            reference,
            journal: scratch.join("resume.jsonl"),
        }
    }
}

impl Workload for ServiceResume {
    fn pass(&mut self, checks: &mut Checks) -> Work {
        let Some(outcome) = kill_and_resume(&self.job, self.kill, &self.journal, checks) else {
            return Work::default();
        };
        checks.check(
            outcome.status == JobStatus::Complete && outcome.resumed > 0,
            || {
                format!(
                    "resume ended {:?} with {} cells resumed",
                    outcome.status, outcome.resumed
                )
            },
        );
        checks.check(outcome.render(&self.job) == self.reference, || {
            "the resumed render differs from the uninterrupted reference".to_owned()
        });
        let rounds = outcome.reports.iter().flatten().map(|r| r.rounds).sum();
        Work {
            rounds,
            states: rounds,
            cells: outcome.completed() as u64,
        }
    }
}

/// A file sink that counts and times its fsyncs.
struct CountingSink {
    inner: FileSink,
    syncs: Arc<AtomicU64>,
    sync_ns: Arc<AtomicU64>,
}

impl JournalSink for CountingSink {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.inner.append(line)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t0 = Instant::now();
        let result = self.inner.sync();
        self.sync_ns.fetch_add(nanos(t0), Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        result
    }
}

/// The service layers and the engine's per-cell costs on the job's cells.
pub fn trace(seed: u64, scratch: &Path, checks: &mut Checks) -> Vec<Metric> {
    let (job, kill) = job_for(seed);
    let cells = job.cells();
    let count = cells.len() as f64;

    // Engine: compile, then a recycled solo run, per cell.
    let mut compile_ns = 0u64;
    for cell in cells {
        let t0 = Instant::now();
        std::hint::black_box(cell.compile());
        compile_ns += nanos(t0);
    }
    let mut solo = ScenarioRunner::new();
    let mut run_ns = 0u64;
    let mut reports = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut report = RunReport::default();
        let t0 = Instant::now();
        solo.run_into(cell, &mut report);
        run_ns += nanos(t0);
        reports.push(report);
    }

    // Compute share: the same cells with and without the service around them.
    let t0 = Instant::now();
    let batched = BatchRunner::new(THREADS).run_reports(cells);
    let compute_s = secs(t0);
    checks.check(batched == reports, || {
        "run_reports differs from solo runs".to_owned()
    });
    let reference = reference_render(&job, reports.clone());
    let path = scratch.join("trace.jsonl");
    let _ = std::fs::remove_file(&path);
    let t0 = Instant::now();
    let uninterrupted = supervisor().run(&job, &path);
    let supervised_s = secs(t0);
    checks.check(
        uninterrupted
            .as_ref()
            .is_ok_and(|o| o.render(&job) == reference),
        || "the uninterrupted supervised render differs from the reference".to_owned(),
    );

    // Journal: the job's completion events, appended in supervisor waves.
    let _ = std::fs::remove_file(&path);
    let syncs = Arc::new(AtomicU64::new(0));
    let sync_ns = Arc::new(AtomicU64::new(0));
    let sink = CountingSink {
        inner: FileSink::open(&path).expect("scratch journal opens"),
        syncs: Arc::clone(&syncs),
        sync_ns: Arc::clone(&sync_ns),
    };
    let mut journal = Journal::new(Box::new(sink), FSYNC_EVERY);
    let (mut append_ns, mut commit_ns, mut commits) = (0u64, 0u64, 0u64);
    let mut io_ok = true;
    for (wave, chunk) in reports.chunks(WAVE).enumerate() {
        for (offset, report) in chunk.iter().enumerate() {
            let event = JournalEvent::CellCompleted {
                index: wave * WAVE + offset,
                attempt: 1,
                digest: report_digest(report),
                report: report.clone(),
            };
            let t0 = Instant::now();
            io_ok &= journal.append(&event).is_ok();
            append_ns += nanos(t0);
        }
        let t0 = Instant::now();
        io_ok &= journal.commit().is_ok();
        commit_ns += nanos(t0);
        commits += 1;
    }
    drop(journal);
    checks.check(io_ok, || "the journal probe hit an I/O error".to_owned());
    let journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

    // Codec: report_to_json plus the writer, the parser plus report_from_json.
    let mut encode_ns = 0u64;
    let mut lines = Vec::with_capacity(reports.len());
    for report in &reports {
        let t0 = Instant::now();
        let line = report_to_json(report).to_string();
        encode_ns += nanos(t0);
        lines.push(line);
    }
    let mut decode_ns = 0u64;
    let mut decoded_ok = true;
    for (line, report) in lines.iter().zip(&reports) {
        let t0 = Instant::now();
        let decoded = line
            .parse::<Value>()
            .map_err(|e| e.to_string())
            .and_then(|v| report_from_json(&v));
        decode_ns += nanos(t0);
        decoded_ok &= decoded.as_ref() == Ok(report);
    }
    checks.check(decoded_ok, || {
        "a report did not survive the JSON round trip".to_owned()
    });

    // Replay of the kill-point journal.
    let killed = run_killed(&job, kill, &path);
    let t0 = Instant::now();
    let replayed = journal::replay(&path, &job);
    let replay_s = secs(t0);
    checks.check(
        killed && replayed.is_ok_and(|r| !r.completed.is_empty() && !r.finished),
        || "the kill-point journal did not replay to a partial job".to_owned(),
    );

    // The two supervisor runs of a pass, each in its own span, alternated
    // with untraced passes for the tracing overhead.
    let (mut plain, mut spanned, mut kill_runs, mut resume_runs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        let outcome = kill_and_resume(&job, kill, &path, checks);
        plain.push(secs(t0));
        checks.check(outcome.is_some_and(|o| o.render(&job) == reference), || {
            "a resumed render differs from the reference".to_owned()
        });
        let t0 = Instant::now();
        let killed = run_killed(&job, kill, &path);
        kill_runs.push(secs(t0));
        let t1 = Instant::now();
        let resumed = supervisor().run(&job, &path);
        resume_runs.push(secs(t1));
        spanned.push(secs(t0));
        checks.check(
            killed && resumed.is_ok_and(|o| o.render(&job) == reference),
            || "a traced kill-and-resume render differs from the reference".to_owned(),
        );
    }
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "service trace: {} cells (kill before {kill}), run_reports {compute_s:.3} s, \
         supervisor {supervised_s:.3} s, journal {journal_bytes} bytes",
        cells.len()
    );

    let fsyncs = syncs.load(Ordering::Relaxed);
    vec![
        metric("engine.compile_ns", compile_ns as f64 / count, "ns"),
        metric("engine.run_ns_per_cell", run_ns as f64 / count, "ns"),
        metric("service.journal.append_ns", append_ns as f64 / count, "ns"),
        metric(
            "service.journal.commit_ns",
            ratio(commit_ns as f64, commits as f64),
            "ns",
        ),
        metric(
            "service.journal.fsync_ns",
            ratio(sync_ns.load(Ordering::Relaxed) as f64, fsyncs as f64),
            "ns",
        ),
        metric(
            "service.journal.bytes_per_cell",
            journal_bytes as f64 / count,
            "bytes",
        ),
        metric("service.journal.fsyncs", fsyncs as f64, "count"),
        metric("service.encode_ns", encode_ns as f64 / count, "ns"),
        metric("service.decode_ns", decode_ns as f64 / count, "ns"),
        metric("service.replay_s", replay_s, "s"),
        metric("service.kill_run_s", median(&kill_runs), "s"),
        metric("service.resume_run_s", median(&resume_runs), "s"),
        metric("service.compute_frac", compute_s / supervised_s, "ratio"),
        metric(
            "bench.trace_overhead.service_resume",
            median(&spanned) / median(&plain),
            "ratio",
        ),
    ]
}
