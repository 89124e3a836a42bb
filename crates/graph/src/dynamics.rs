//! Edge-presence dynamics: 1-interval-connected edge schedules.
//!
//! The paper's adversary may remove *at most one* edge of the ring in each
//! round (1-interval connectivity). During a live simulation the missing edge
//! is usually chosen adaptively by an adversary object in the engine crate;
//! this module provides the *offline* representation of such a choice — an
//! [`EdgeSchedule`] — which is used to
//!
//! * replay recorded executions,
//! * express the hand-crafted worst-case schedules drawn in the paper's
//!   figures (e.g. Figure 2), and
//! * validate that any execution respected 1-interval connectivity.

use crate::error::GraphError;
use crate::ids::EdgeId;
use crate::ring::RingTopology;
use serde::{Deserialize, Serialize};

/// A fixed (offline) 1-interval-connected edge-presence schedule.
///
/// `missing[t]` is the edge removed in round `t+1` (rounds are 1-based in the
/// engine, the vector is 0-based), or `None` when every edge is present.
/// Past the fixed horizon every edge is present.
///
/// # Example
///
/// ```
/// use dynring_graph::{EdgeSchedule, EdgeId, RingTopology};
///
/// let ring = RingTopology::new(5).unwrap();
/// let schedule = EdgeSchedule::from_missing(
///     &ring,
///     vec![Some(EdgeId::new(0)), None, Some(EdgeId::new(3))],
/// ).unwrap();
/// assert_eq!(schedule.missing_at(1), Some(EdgeId::new(0)));
/// assert_eq!(schedule.missing_at(2), None);
/// assert!(schedule.is_present(2, EdgeId::new(3)));
/// assert!(!schedule.is_present(3, EdgeId::new(3)));
/// // beyond the horizon every edge is present
/// assert_eq!(schedule.missing_at(100), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeSchedule {
    ring_size: usize,
    missing: Vec<Option<EdgeId>>,
}

impl EdgeSchedule {
    /// Creates a schedule in which no edge is ever missing.
    #[must_use]
    pub fn always_present(ring: &RingTopology) -> Self {
        EdgeSchedule { ring_size: ring.size(), missing: Vec::new() }
    }

    /// Creates a schedule from the per-round missing edge choices.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfRange`] if any prescribed edge does not
    /// exist in `ring`.
    pub fn from_missing(
        ring: &RingTopology,
        missing: Vec<Option<EdgeId>>,
    ) -> Result<Self, GraphError> {
        for e in missing.iter().flatten() {
            ring.check_edge(*e)?;
        }
        Ok(EdgeSchedule { ring_size: ring.size(), missing })
    }

    /// Size of the ring the schedule refers to.
    #[must_use]
    pub const fn ring_size(&self) -> usize {
        self.ring_size
    }

    /// Number of rounds explicitly covered by the schedule.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.missing.len() as u64
    }

    /// The edge missing in the given (1-based) round, if any; `None` past
    /// the horizon.
    ///
    /// # Panics
    ///
    /// Panics if `round` is 0.
    #[must_use]
    pub fn missing_at(&self, round: u64) -> Option<EdgeId> {
        assert!(round >= 1, "rounds are 1-based");
        self.missing.get((round - 1) as usize).copied().flatten()
    }

    /// Whether `edge` is present in the given round.
    #[must_use]
    pub fn is_present(&self, round: u64, edge: EdgeId) -> bool {
        self.missing_at(round) != Some(edge)
    }

    /// Validates 1-interval connectivity of the whole fixed horizon. Always
    /// succeeds for schedules built through this type (they cannot express
    /// more than one missing edge per round); provided for symmetry with
    /// recorded traces.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfRange`] if a prescribed edge is invalid
    /// for a ring of `ring_size` nodes.
    pub fn validate(&self) -> Result<(), GraphError> {
        for e in self.missing.iter().flatten() {
            if e.index() >= self.ring_size {
                return Err(GraphError::EdgeOutOfRange { index: e.index(), ring_size: self.ring_size });
            }
        }
        Ok(())
    }

    /// Total number of rounds within the horizon in which some edge is
    /// missing.
    #[must_use]
    pub fn removal_count(&self) -> usize {
        self.missing.iter().filter(|m| m.is_some()).count()
    }
}

/// Incremental builder for hand-crafted schedules (used for the figures).
///
/// Rounds are appended in order; gaps can be filled with
/// [`ScheduleBuilder::all_present_for`].
///
/// ```
/// use dynring_graph::{ScheduleBuilder, RingTopology, EdgeId};
/// let ring = RingTopology::new(6).unwrap();
/// let schedule = ScheduleBuilder::new(&ring)
///     .remove_for(EdgeId::new(2), 3)
///     .all_present_for(2)
///     .remove_for(EdgeId::new(5), 1)
///     .build();
/// assert_eq!(schedule.horizon(), 6);
/// assert_eq!(schedule.missing_at(6), Some(EdgeId::new(5)));
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    ring_size: usize,
    missing: Vec<Option<EdgeId>>,
}

impl ScheduleBuilder {
    /// Starts a new builder for the given ring.
    #[must_use]
    pub fn new(ring: &RingTopology) -> Self {
        ScheduleBuilder { ring_size: ring.size(), missing: Vec::new() }
    }

    /// Appends `rounds` rounds in which `edge` is missing.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range for the ring.
    #[must_use]
    pub fn remove_for(mut self, edge: EdgeId, rounds: u64) -> Self {
        assert!(edge.index() < self.ring_size, "edge {edge} out of range");
        self.missing.extend(std::iter::repeat_n(Some(edge), rounds as usize));
        self
    }

    /// Appends `rounds` rounds in which every edge is present.
    #[must_use]
    pub fn all_present_for(mut self, rounds: u64) -> Self {
        self.missing.extend(std::iter::repeat_n(None, rounds as usize));
        self
    }

    /// Appends a single round with the given (possibly absent) missing edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge is out of range for the ring.
    #[must_use]
    pub fn round(mut self, missing: Option<EdgeId>) -> Self {
        if let Some(e) = missing {
            assert!(e.index() < self.ring_size, "edge {e} out of range");
        }
        self.missing.push(missing);
        self
    }

    /// Number of rounds accumulated so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.missing.len() as u64
    }

    /// Whether no rounds have been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty()
    }

    /// Finalises the schedule (all edges present after the horizon).
    #[must_use]
    pub fn build(self) -> EdgeSchedule {
        EdgeSchedule { ring_size: self.ring_size, missing: self.missing }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).unwrap()
    }

    #[test]
    fn always_present_has_no_removals() {
        let s = EdgeSchedule::always_present(&ring(4));
        assert_eq!(s.horizon(), 0);
        assert_eq!(s.removal_count(), 0);
        for r in 1..10 {
            assert_eq!(s.missing_at(r), None);
        }
    }

    #[test]
    fn from_missing_validates_edges() {
        let r = ring(4);
        assert!(EdgeSchedule::from_missing(&r, vec![Some(EdgeId::new(4))]).is_err());
        assert!(EdgeSchedule::from_missing(&r, vec![Some(EdgeId::new(3)), None]).is_ok());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn round_zero_is_rejected() {
        let s = EdgeSchedule::always_present(&ring(4));
        let _ = s.missing_at(0);
    }

    #[test]
    fn builder_composes_segments() {
        let r = RingTopology::with_landmark(7, NodeId::new(0)).unwrap();
        let s = ScheduleBuilder::new(&r)
            .remove_for(EdgeId::new(0), 2)
            .all_present_for(1)
            .round(Some(EdgeId::new(6)))
            .round(None)
            .build();
        assert_eq!(s.horizon(), 5);
        assert_eq!(s.missing_at(1), Some(EdgeId::new(0)));
        assert_eq!(s.missing_at(2), Some(EdgeId::new(0)));
        assert_eq!(s.missing_at(3), None);
        assert_eq!(s.missing_at(4), Some(EdgeId::new(6)));
        assert_eq!(s.missing_at(5), None);
        assert_eq!(s.removal_count(), 3);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn builder_len_and_is_empty() {
        let r = ring(4);
        let b = ScheduleBuilder::new(&r);
        assert!(b.is_empty());
        let b = b.all_present_for(3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn is_present_is_consistent_with_missing_at() {
        let r = ring(6);
        let s = EdgeSchedule::from_missing(&r, vec![Some(EdgeId::new(2))]).unwrap();
        for e in r.edges() {
            assert_eq!(s.is_present(1, e), e != EdgeId::new(2));
            assert!(s.is_present(2, e));
        }
    }
}
