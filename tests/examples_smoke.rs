//! Smoke tests keeping `examples/` honest: each example's core path is
//! compiled into this test crate (via `#[path]` includes) and exercised with
//! small parameters, so a change that breaks an example fails `cargo test`
//! instead of rotting silently until someone runs `cargo run --example`.

use dynring::prelude::*;

#[path = "../examples/quickstart.rs"]
#[allow(dead_code)]
mod quickstart;

#[path = "../examples/feasibility_map.rs"]
#[allow(dead_code)]
mod feasibility_map;

#[path = "../examples/landmark_termination.rs"]
#[allow(dead_code)]
mod landmark_termination;

#[path = "../examples/ssync_transport_models.rs"]
#[allow(dead_code)]
mod ssync_transport_models;

#[path = "../examples/worst_case_schedule.rs"]
#[allow(dead_code)]
mod worst_case_schedule;

#[path = "../examples/model_check.rs"]
#[allow(dead_code)]
mod model_check;

#[path = "../examples/sweep_service.rs"]
#[allow(dead_code)]
mod sweep_service;

#[test]
fn quickstart_explores_and_terminates() {
    let report = quickstart::run(12).expect("quickstart example must succeed");
    assert!(report.explored());
    assert!(report.all_terminated);
}

#[test]
fn feasibility_map_rows_all_hold() {
    let config = feasibility_map::MapConfig {
        fsync_sizes: vec![6, 9],
        ssync_sizes: vec![6],
        seeds: 1,
        impossibility_n: 12,
        ssync_impossibility_n: 8,
        lower_bound_n: 12,
        figures_n: 12,
        density: dynring_analysis::PlacementDensity::Standard,
    };
    assert!(feasibility_map::run(&config), "feasibility map inconsistent with the paper");
}

#[test]
fn feasibility_map_huge_config_holds_at_smoke_scale() {
    // The `--huge` battery (dense placements, extra seeds) on smoke-scale
    // rings, exactly as the CI job runs it — the configuration cannot rot
    // even when nobody runs the full-size battery.
    let mut config = feasibility_map::MapConfig::small();
    config.density = dynring_analysis::PlacementDensity::Dense;
    assert!(feasibility_map::run(&config), "huge battery inconsistent with the paper");
}

#[test]
fn feasibility_map_parses_huge_smoke_strictly() {
    assert_eq!(feasibility_map::parse_huge_smoke(None), Ok(false));
    assert_eq!(feasibility_map::parse_huge_smoke(Some("")), Ok(false));
    assert_eq!(feasibility_map::parse_huge_smoke(Some("0")), Ok(false));
    assert_eq!(feasibility_map::parse_huge_smoke(Some("1")), Ok(true));
    for bad in ["false", "true", "yes", " 1", "2"] {
        let err = feasibility_map::parse_huge_smoke(Some(bad)).unwrap_err();
        assert!(err.contains("invalid DYNRING_HUGE_SMOKE"), "{bad:?}: {err}");
    }
}

#[test]
fn landmark_termination_always_terminates() {
    for (label, adv_label, report) in landmark_termination::run(10) {
        assert!(report.explored(), "{label} vs {adv_label}");
        assert!(report.all_terminated, "{label} vs {adv_label}");
    }
}

#[test]
fn ssync_transport_models_match_the_theorems() {
    let n = 9;
    // Theorem 9: NS freezes the team forever.
    let ns = ssync_transport_models::run(TransportModel::NoSimultaneity, n);
    assert!(!ns.explored());
    assert_eq!(ns.total_moves, 0);
    // Theorems 16 and 20: PT and ET explore with partial termination.
    for model in [TransportModel::PassiveTransport, TransportModel::EventualTransport] {
        let report = ssync_transport_models::run(model, n);
        assert!(report.explored(), "{model}");
        assert!(report.partially_terminated(), "{model}");
    }
}

#[test]
fn worst_case_schedule_reproduces_figure2() {
    let outcome = worst_case_schedule::run(10);
    assert!(outcome.matches(), "Figure 2 outcome diverged from 3n − 6");
}

#[test]
fn model_check_rows_hold_at_smoke_scale() {
    // n ≤ 5 keeps the exhaustive search in test-suite territory; the full
    // n ≤ 8 matrix runs in tests/model_check.rs and the CI smoke step.
    assert!(model_check::run(5), "a model-checked Table 1/3 row failed to hold");
}

#[test]
fn model_check_example_parses_max_n_strictly() {
    let parse = |args: &[&str]| model_check::parse_args(args.iter().map(|arg| arg.to_string()));
    assert_eq!(parse(&[]), Ok(model_check::DEFAULT_MAX_N));
    assert_eq!(parse(&["--max-n", "4"]), Ok(4));
    assert_eq!(parse(&["--max-n", "10"]), Ok(model_check::MAX_N_CEILING));
    let rejected = [
        (&["--max-n", "12"][..], "above the ceiling of 10"),
        (&["--max-n", "3"], "smallest exhaustively checkable ring"),
        (&["--max-n", "nine"], "not a positive integer"),
        (&["--max-n"], "needs a ring size"),
        (&["--max"], "unknown argument --max"),
    ];
    for (args, message) in rejected {
        let err = parse(args).unwrap_err();
        assert!(err.contains(message), "{args:?} should fail with {message:?}, got {err:?}");
    }
}

#[test]
fn sweep_service_example_parses_arguments_strictly() {
    let parse =
        |args: &[&str]| sweep_service::parse_args(args.iter().map(|arg| arg.to_string()));
    assert_eq!(parse(&[]), Ok(sweep_service::Args::default()));
    // The CI crash-resume smoke's command line.
    let parsed = parse(&[
        "--cells",
        "18",
        "--throttle-ms",
        "500",
        "--journal",
        "killed.journal.jsonl",
        "--report",
        "killed.report.md",
    ])
    .unwrap();
    assert_eq!(
        parsed,
        sweep_service::Args {
            journal: "killed.journal.jsonl".into(),
            report: Some("killed.report.md".into()),
            throttle_ms: 500,
            cells: 18,
        }
    );
    let rejected = [
        (&["--cells", "many"][..], "--cells \"many\""),
        (&["--cells", "-1"], "--cells \"-1\""),
        (&["--throttle-ms", "1.5"], "--throttle-ms \"1.5\""),
        (&["--journal"], "--journal needs a value"),
        (&["--report"], "--report needs a value"),
        (&["--cells"], "--cells needs a value"),
        (&["--verbose"], "unknown argument --verbose"),
    ];
    for (args, message) in rejected {
        let err = parse(args).unwrap_err();
        assert!(err.contains(message), "{args:?} should fail with {message:?}, got {err:?}");
    }
}

#[test]
fn sweep_service_example_runs_and_resumes_byte_identically() {
    let job = sweep_service::battery(6);
    let supervisor = dynring::service::Supervisor::new().threads(2).chunk(2);
    let journal = std::env::temp_dir()
        .join(format!("dynring-smoke-sweep-service-{}.jsonl", std::process::id()));
    let report = std::env::temp_dir()
        .join(format!("dynring-smoke-sweep-service-{}.md", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let outcome = sweep_service::run(&supervisor, &job, &journal, Some(&report))
        .expect("sweep service example must succeed");
    assert_eq!(outcome.completed(), 6);
    let first = std::fs::read_to_string(&report).unwrap();
    // Re-running the identical command resumes from the journal and writes
    // the byte-identical report.
    let resumed = sweep_service::run(&supervisor, &job, &journal, Some(&report))
        .expect("resume must succeed");
    assert_eq!(resumed.resumed, 6);
    assert_eq!(std::fs::read_to_string(&report).unwrap(), first);
    assert_eq!(sweep_service::exit_code(resumed.status), 0);
    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&report).unwrap();
}

#[test]
fn sweep_service_example_exit_codes_tell_usage_from_degradation() {
    use dynring::service::{FaultPlan, JobStatus, Supervisor};
    // A cell that panics on every attempt is quarantined: the job finishes
    // degraded, which exits 3, not the usage code 2.
    let job = sweep_service::battery(3);
    let supervisor = Supervisor::new()
        .threads(1)
        .max_attempts(2)
        .fault_plan(FaultPlan::none().with_persistent_panic(1, 2));
    let journal = std::env::temp_dir()
        .join(format!("dynring-smoke-sweep-service-degraded-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let outcome = sweep_service::run(&supervisor, &job, &journal, None).expect("the job runs");
    assert_eq!(outcome.status, JobStatus::CompleteWithFailures);
    assert_eq!(sweep_service::exit_code(outcome.status), 3);
    assert_eq!(sweep_service::exit_code(JobStatus::Partial), 3);
    assert_eq!(sweep_service::exit_code(JobStatus::Complete), 0);
    assert_eq!(sweep_service::EXIT_USAGE, 2);
    std::fs::remove_file(&journal).unwrap();
}
