//! ASCII rendering of rings, rounds and traces.
//!
//! Used by the examples to show what a run looked like, in the spirit of the
//! schedule drawings of Figures 2, 15 and 16 of the paper.

use crate::trace::{RoundRecord, Trace};
use dynring_graph::{NodeId, RingTopology};

/// Renders one round as a single line: each node is a cell, `*` marks the
/// landmark, letters mark agents (uppercase = in the node, lowercase = on a
/// port), and `x` marks the missing edge.
#[must_use]
pub fn render_round(ring: &RingTopology, record: &RoundRecord) -> String {
    let n = ring.size();
    let mut cells: Vec<String> = (0..n)
        .map(|i| {
            let node = NodeId::new(i);
            let mut cell = String::new();
            if ring.is_landmark(node) {
                cell.push('*');
            }
            for agent in &record.agents {
                if agent.node_after == node {
                    let letter = (b'A' + (agent.id.index() % 26) as u8) as char;
                    if agent.held_port_after.is_some() {
                        cell.push(letter.to_ascii_lowercase());
                    } else {
                        cell.push(letter);
                    }
                }
            }
            if cell.is_empty() {
                cell.push('.');
            }
            cell
        })
        .collect();

    // Pad cells to equal width for alignment.
    let width = cells.iter().map(String::len).max().unwrap_or(1);
    for cell in &mut cells {
        while cell.len() < width {
            cell.push(' ');
        }
    }

    let mut line = format!("r{:>4} ", record.round);
    for (i, cell) in cells.iter().enumerate() {
        line.push('[');
        line.push_str(cell);
        line.push(']');
        let edge_missing = record.missing_edge.is_some_and(|e| e.index() == i);
        line.push(if edge_missing { 'x' } else { '-' });
    }
    line.push_str(&format!(" visited={}", record.visited_count));
    line
}

/// Renders a whole trace, one line per round, subsampled to at most
/// `max_lines` lines (a `max_lines` of 0 counts as 1). A subsampled trace
/// shows evenly spaced rounds from the first to the last; with room for a
/// single line only, it shows the last round.
#[must_use]
pub fn render_trace(ring: &RingTopology, trace: &Trace, max_lines: usize) -> String {
    if trace.is_empty() {
        return String::from("(empty trace)");
    }
    let last = trace.len() - 1;
    let lines = trace.len().min(max_lines.max(1));
    let mut out = String::new();
    for line in 0..lines {
        let index = if lines == 1 { last } else { line * last / (lines - 1) };
        let record = trace.round_at(index).expect("index within the trace");
        out.push_str(&render_round(ring, &record));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{label, record, record_row};
    use crate::trace::AgentRoundRecord;
    use dynring_graph::{AgentId, EdgeId, GlobalDirection};
    use dynring_model::PriorOutcome;

    fn sample_trace() -> (RingTopology, Trace) {
        let ring = RingTopology::with_landmark(5, NodeId::new(0)).unwrap();
        let mut trace = Trace::new();
        let row = RoundRecord {
            round: 1,
            missing_edge: Some(EdgeId::new(2)),
            active: vec![AgentId::new(0), AgentId::new(1)],
            agents: vec![
                AgentRoundRecord {
                    id: AgentId::new(0),
                    active: true,
                    node_before: NodeId::new(0),
                    node_after: NodeId::new(1),
                    held_port_after: None,
                    decision: None,
                    outcome: PriorOutcome::Moved,
                    terminated: false,
                    state_label: label(0),
                },
                AgentRoundRecord {
                    id: AgentId::new(1),
                    active: true,
                    node_before: NodeId::new(3),
                    node_after: NodeId::new(3),
                    held_port_after: Some(GlobalDirection::Ccw),
                    decision: None,
                    outcome: PriorOutcome::BlockedOnPort,
                    terminated: false,
                    state_label: label(0),
                },
            ],
            visited_count: 3,
        };
        record_row(&mut trace, &row);
        (ring, trace)
    }

    #[test]
    fn round_rendering_contains_agents_landmark_and_missing_edge() {
        let (ring, trace) = sample_trace();
        let line = render_round(&ring, &trace.round_at(0).unwrap());
        assert!(line.contains('A'), "agent 0 in a node: {line}");
        assert!(line.contains('b'), "agent 1 waiting on a port: {line}");
        assert!(line.contains('*'), "landmark marker: {line}");
        assert!(line.contains('x'), "missing edge marker: {line}");
        assert!(line.contains("visited=3"));
    }

    /// A trace of `len` rounds.
    fn trace_of(len: usize) -> Trace {
        let mut trace = Trace::new();
        for round in 1..=len as u64 {
            record_row(&mut trace, &record(round, 2));
        }
        trace
    }

    #[test]
    fn subsampled_traces_keep_the_first_and_last_rounds_within_the_limit() {
        let ring = RingTopology::with_landmark(5, NodeId::new(0)).unwrap();
        for max in [1, 10, 40] {
            for len in [1, max - 1, max, max + 1, 2 * max - 1, 79] {
                let trace = trace_of(len);
                let text = render_trace(&ring, &trace, max);
                if len == 0 {
                    assert_eq!(text, "(empty trace)");
                    continue;
                }
                let rounds: Vec<usize> =
                    text.lines().map(|line| line[1..5].trim().parse().unwrap()).collect();
                let case = format!("len {len}, max {max}: rounds {rounds:?}");
                assert_eq!(rounds.len(), len.min(max), "{case}");
                assert!(rounds.windows(2).all(|pair| pair[0] < pair[1]), "{case}");
                assert_eq!(rounds.last(), Some(&len), "{case}");
                if max > 1 {
                    assert_eq!(rounds[0], 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn trace_rendering_emits_one_line_per_round() {
        let (ring, trace) = sample_trace();
        let text = render_trace(&ring, &trace, 10);
        assert_eq!(text.lines().count(), 1);
        assert_eq!(render_trace(&ring, &Trace::new(), 10), "(empty trace)");
    }
}
