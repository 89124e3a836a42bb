//! Exhaustively model-checks the Table 1/3 impossibility rows for small
//! rings: every adversary edge-removal choice at every round is explored, and
//! each discovered witness schedule is replayed through a scripted adversary.
//!
//! ```text
//! cargo run --release --example model_check -- --max-n 6
//! ```
//!
//! `--max-n` (default 8) takes a ring size from 4 to 10. The example exits
//! 2 on a bad argument and 1 if a row fails to hold.

use dynring_analysis::model_check::{self, cross_validate_figure2};
use dynring_analysis::report::markdown_table;

/// The largest `--max-n`: the largest size whose full matrix the packed
/// canonical keys and hashed frontier complete in minutes (the widest cell
/// alone expands tens of millions of states there).
pub const MAX_N_CEILING: usize = 10;

/// The `--max-n` used when the flag is absent.
pub const DEFAULT_MAX_N: usize = 8;

/// Parses the command line (without the program name) into `--max-n`.
///
/// # Errors
///
/// Returns a message for an unknown argument, a missing value, a value
/// [`model_check::parse_max_check_n`] rejects, or one above
/// [`MAX_N_CEILING`].
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<usize, String> {
    let mut max_n = DEFAULT_MAX_N;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-n" => {
                let value = args.next().ok_or("--max-n needs a ring size")?;
                max_n = model_check::parse_max_check_n(&value)
                    .map_err(|message| format!("--max-n: {message}"))?;
                if max_n > MAX_N_CEILING {
                    return Err(format!(
                        "--max-n: {max_n} is above the ceiling of {MAX_N_CEILING}"
                    ));
                }
            }
            other => return Err(format!("unknown argument {other} (supported: --max-n N)")),
        }
    }
    Ok(max_n)
}

/// Runs the exhaustive battery for ring sizes `4..=max_n` plus the Figure 2
/// cross-validation, prints the rows and returns whether every row holds.
///
/// # Panics
///
/// Panics unless `4 <= max_n <= MAX_N_CEILING`.
pub fn run(max_n: usize) -> bool {
    assert!((4..=MAX_N_CEILING).contains(&max_n), "--max-n {max_n} is out of range");
    let sizes: Vec<usize> = (4..=max_n).collect();
    let rows = model_check::model_check_rows(&sizes);
    println!(
        "{}",
        markdown_table("Exhaustive model checking — Tables 1/3 impossibility rows", &rows)
    );
    let mut ok = rows.iter().all(|r| r.holds);

    println!("\n## Figure 2 cross-validation (discovered worst case vs hand script)\n");
    for n in sizes.iter().copied().filter(|&n| n >= 5) {
        let (discovered, scripted) = cross_validate_figure2(n);
        let holds = discovered >= scripted;
        ok &= holds;
        println!(
            "- n={n}: exhaustive worst exploration round {discovered}, Figure 2 script {scripted} {}",
            if holds { "(script confirmed as a valid pin)" } else { "(SCRIPT TOO STRONG)" }
        );
    }
    ok
}

fn main() {
    let max_n = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("model_check: {message}");
        std::process::exit(2);
    });
    if !run(max_n) {
        std::process::exit(1);
    }
}
