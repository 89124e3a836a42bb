//! Structured experiment results and markdown rendering.

use serde::{Deserialize, Serialize};

/// The outcome of one row of a reproduced table (or of one figure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowResult {
    /// Experiment identifier (e.g. `"T2-R1"`, `"F2"`).
    pub id: String,
    /// Which claim of the paper the row reproduces (e.g. `"Theorem 3"`).
    pub claim: String,
    /// The scenario assumptions, in the wording of the paper's tables.
    pub assumptions: String,
    /// What the paper states for this row.
    pub paper: String,
    /// What was measured.
    pub observed: String,
    /// Whether the measurement is consistent with the paper's claim.
    pub holds: bool,
    /// Number of individual runs aggregated into this row.
    pub runs: usize,
}

impl RowResult {
    /// Creates a row.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: impl Into<String>,
        claim: impl Into<String>,
        assumptions: impl Into<String>,
        paper: impl Into<String>,
        observed: impl Into<String>,
        holds: bool,
        runs: usize,
    ) -> Self {
        RowResult {
            id: id.into(),
            claim: claim.into(),
            assumptions: assumptions.into(),
            paper: paper.into(),
            observed: observed.into(),
            holds,
            runs,
        }
    }
}

/// Renders rows as a GitHub-flavoured markdown table mirroring the layout of
/// the paper's tables.
#[must_use]
pub fn markdown_table(title: &str, rows: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str("| id | claim | assumptions | paper | measured | holds | runs |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            row.id,
            row.claim,
            row.assumptions,
            row.paper,
            row.observed,
            if row.holds { "yes" } else { "NO" },
            row.runs
        ));
    }
    out
}

/// A single point of a complexity sweep (cost as a function of the ring size).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Worst observed number of rounds until exploration.
    pub worst_rounds: u64,
    /// Worst observed number of rounds until the relevant termination.
    pub worst_termination: u64,
    /// Worst observed total number of edge traversals.
    pub worst_moves: u64,
    /// Number of runs behind this point.
    pub runs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_contains_all_rows_and_flags_violations() {
        let rows = vec![
            RowResult::new("T2-R1", "Theorem 3", "known N", "3N-6", "18 <= 18", true, 12),
            RowResult::new("T2-R2", "Theorem 6", "landmark", "O(n)", "violated", false, 3),
        ];
        let md = markdown_table("Table 2", &rows);
        assert!(md.contains("### Table 2"));
        assert!(md.contains("T2-R1"));
        assert!(md.contains("| yes |"));
        assert!(md.contains("| NO |"));
        assert_eq!(md.lines().count(), 2 + 2 + 2); // title + blank + header + sep + 2 rows
    }
}
