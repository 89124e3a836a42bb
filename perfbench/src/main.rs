//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <huge_battery|mc_matrix|service_resume> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload's timed pass repeats until the passes
//! add up to `--seconds`, and its set-up runs [`SETUP_REPS`] times spread
//! among them; the end-to-end metrics are medians over those repetitions. With `--trace 1` every layer
//! probe runs (all three workloads' layers, whatever `--workload` names) and
//! the per-layer metrics are printed instead. Either way the last line of
//! stdout is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! and any wrong output makes the command exit non-zero.
//!
//! Every layer is timed from outside, around calls into the public API of
//! `dynring-analysis`, `dynring-engine` and `dynring-service`; no library
//! code is instrumented. See `perfbench/README.md` for what each workload
//! loads and bypasses and which end-to-end metric each layer metric moves.

mod huge;
mod mc;
mod service;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of every pool the benchmark drives (asserted to fit the
/// host's available parallelism).
pub const THREADS: usize = 2;

/// How many times a run repeats its workload's set-up; `setup_s` is the
/// median.
const SETUP_REPS: usize = 15;

/// The workloads. `BENCHMARK.json` lists the last two; `huge_battery` runs
/// the same way but is left out of it, because its wall clock follows the
/// speed of both host CPUs too closely to gate a change by (see
/// `perfbench/README.md`).
const WORKLOADS: [&str; 3] = ["huge_battery", "mc_matrix", "service_resume"];

/// Work done by one timed pass, the numerators of the throughput metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Engine rounds stepped (simulation rounds, or forced model-check steps
    /// plus witness-replay rounds).
    pub rounds: u64,
    /// Successor configurations produced (model-check expansions; for the
    /// simulation workloads one per round).
    pub states: u64,
    /// Independent cells completed (scenario runs, model-check cells or
    /// committed job cells).
    pub cells: u64,
}

/// One workload of the end-to-end run.
pub trait Workload {
    /// One timed pass; every output it produces is checked into `checks`.
    fn pass(&mut self, checks: &mut Checks) -> Work;

    /// Completes the pass counters after the timed loop, for counts a pass
    /// cannot observe without extra work (see `huge::HugeBattery`).
    fn finish(&mut self, work: Work, _checks: &mut Checks) -> Work {
        work
    }
}

/// The correctness ledger: every check a run makes, and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let message = what();
            eprintln!("CHECK FAILED: {message}");
            self.failures.push(message);
        }
    }
}

/// One printed metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `start`.
pub fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64, the deterministic generator every seed-derived input uses.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit the checkout was made from, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_owned();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|hash| hash.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs the named workload end to end and returns the end-to-end metrics.
///
/// The passes run on the first set-up. The other set-ups are timed and
/// dropped, spread evenly over the passes, so that `setup_s` and `wall_s`
/// sample the same stretch of the host's time; the host's speed shifts from
/// one second to the next.
fn end_to_end(args: &Args, scratch: &Path, checks: &mut Checks) -> Vec<Metric> {
    let set_up = |checks: &mut Checks| -> (Box<dyn Workload>, f64) {
        let start = Instant::now();
        let built: Box<dyn Workload> = match args.workload.as_str() {
            "huge_battery" => Box::new(huge::HugeBattery::setup(checks)),
            "mc_matrix" => Box::new(mc::McMatrix::setup(checks)),
            _ => Box::new(service::ServiceResume::setup(args.seed, scratch)),
        };
        (built, secs(start))
    };
    let (mut workload, first_setup) = set_up(checks);
    let mut setups = vec![first_setup];

    let mut walls = Vec::new();
    let mut work: Option<Work> = None;
    loop {
        let start = Instant::now();
        let done = workload.pass(checks);
        walls.push(secs(start));
        // Every pass does the same deterministic work.
        if let Some(first) = work {
            checks.check(first == done, || {
                format!("pass work changed: {first:?} then {done:?}")
            });
        }
        work = Some(done);
        // `--seconds` counts pass time only; set-ups come on top.
        let share = (walls.iter().sum::<f64>() / args.seconds).min(1.0);
        let due = 1 + (share * (SETUP_REPS - 1) as f64).round() as usize;
        while setups.len() < due {
            setups.push(set_up(checks).1);
        }
        if share >= 1.0 {
            break;
        }
    }
    let work = workload.finish(work.expect("at least one pass"), checks);
    let wall = median(&walls);
    let setup = median(&setups);
    eprintln!(
        "{}: passes {walls:.3?} s, median {wall:.4} s; setups {setups:.3?} s; {work:?}",
        args.workload
    );
    vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", setup, "s"),
        metric("rounds_per_s", work.rounds as f64 / wall, "1/s"),
        metric("states_per_s", work.states as f64 / wall, "1/s"),
        metric("cells_per_s", work.cells as f64 / wall, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Runs every layer probe and returns the per-layer metrics.
fn traced(args: &Args, scratch: &Path, checks: &mut Checks) -> Vec<Metric> {
    let mut metrics = huge::trace(checks);
    metrics.extend(mc::trace(checks));
    metrics.extend(service::trace(args.seed, scratch, checks));
    metrics
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    // The knobs below change what the library runs (thread and lane counts);
    // a benchmark run with any of them set would not measure the workload
    // `BENCHMARK.json` describes.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DYNRING_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: unset {knobs:?}; the benchmark fixes its own configuration");
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if THREADS > nproc {
        eprintln!("perfbench: needs {THREADS} hardware threads, host has {nproc}");
        std::process::exit(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} threads={THREADS} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );

    let scratch = PathBuf::from(".perfbench-scratch").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, &scratch, &mut checks)
    } else {
        end_to_end(&args, &scratch, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-scratch");

    for m in &metrics {
        println!("{:<44} {:>20} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failures.len(),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
