//! ID-driven direction sequences (Section 3.2.3, Figure 11, Lemma 3).
//!
//! Once an agent has computed its identifier, it follows a predetermined
//! direction pattern: rounds are grouped into phases (`phase(j)` contains the
//! rounds `2^j ≤ r < 2^{j+1}`), the string `S(ID) = 10 ∘ b(ID) ∘ 0` is
//! stretched by duplicating every character `2^{j - j̄}` times in phase `j`,
//! and the agent moves left on `0` and right on `1`. Lemma 3 guarantees that
//! two agents with *different* identifiers eventually share the same
//! direction for any desired number `c·n` of consecutive rounds, within
//! `32·((len(ID) + 3)·c·n) + 1` rounds.

use dynring_model::LocalDirection;
use serde::{Deserialize, Serialize};

/// The per-phase direction schedule derived from an agent identifier.
///
/// ```
/// use dynring_core::fsync::DirectionSequence;
/// use dynring_model::LocalDirection;
///
/// let seq = DirectionSequence::new(1);
/// // S(1) = "10" ∘ "1" ∘ "0" = "1010", so the base phase has length 4.
/// assert_eq!(seq.base_string(), "1010");
/// assert_eq!(seq.base_phase(), 2);
/// // Rounds in phases j ≤ j̄ go left.
/// assert_eq!(seq.direction(1), LocalDirection::Left);
/// assert_eq!(seq.direction(7), LocalDirection::Left);
/// // Phase 3 follows Dup("1010", 2) = "11001100".
/// assert_eq!(seq.direction(8), LocalDirection::Right);
/// assert_eq!(seq.direction(10), LocalDirection::Left);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DirectionSequence {
    id: u64,
    base: Vec<u8>,
    base_phase: u32,
}

// Manual `Clone` so that `clone_from` reuses the capacity of `base`: the
// engine refreshes its prediction probes, checkpoint slots and trace labels
// through `CatalogProtocol::clone_from` every round.
impl Clone for DirectionSequence {
    fn clone(&self) -> Self {
        DirectionSequence { id: self.id, base: self.base.clone(), base_phase: self.base_phase }
    }

    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.base.clone_from(&source.base);
        self.base_phase = source.base_phase;
    }
}

/// Minimal binary representation of `value`.
fn binary_string(value: u64) -> Vec<u8> {
    if value == 0 {
        return vec![0];
    }
    let len = 64 - value.leading_zeros() as usize;
    (0..len).rev().map(|i| ((value >> i) & 1) as u8).collect()
}

/// `Dup(S, k)`: repeat each character of `S` exactly `k` times.
fn duplicate(bits: &[u8], factor: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() * factor);
    for &b in bits {
        out.extend(std::iter::repeat_n(b, factor));
    }
    out
}

/// The phase of a (1-based) round: `phase(j)` contains rounds `2^j ≤ r < 2^{j+1}`.
fn phase_of(round: u64) -> u32 {
    debug_assert!(round >= 1, "rounds are 1-based");
    63 - round.leading_zeros()
}

impl DirectionSequence {
    /// Builds the direction schedule for the given identifier value.
    #[must_use]
    pub fn new(id: u64) -> Self {
        // S(ID) = "10" ∘ b(ID) ∘ "0"
        let mut s = vec![1u8, 0u8];
        s.extend(binary_string(id));
        s.push(0);
        // j̄ = min j with 2^j ≥ len(S); pad S with leading zeros to length 2^j̄.
        let mut base_phase = 0u32;
        while (1usize << base_phase) < s.len() {
            base_phase += 1;
        }
        let mut base = vec![0u8; (1usize << base_phase) - s.len()];
        base.extend_from_slice(&s);
        DirectionSequence { id, base, base_phase }
    }

    /// The identifier this sequence was built from.
    #[must_use]
    pub const fn id(&self) -> u64 {
        self.id
    }

    /// Appends a packed, injective encoding of the sequence to `out`. The
    /// base string and base phase are pure functions of the identifier (the
    /// only constructor is [`DirectionSequence::new`]), so emitting the
    /// identifier alone is injective on the whole struct.
    pub fn write_state_key(&self, out: &mut Vec<u8>) {
        dynring_model::statekey::push_u64(out, self.id);
    }

    /// `j̄`: the first phase whose length accommodates `S(ID)`.
    #[must_use]
    pub const fn base_phase(&self) -> u32 {
        self.base_phase
    }

    /// The unpadded base string `S(ID) = 10 ∘ b(ID) ∘ 0` as text (for
    /// inspection and tests). `S(ID)` always starts with `1`, so stripping the
    /// padding zeros recovers it exactly.
    #[must_use]
    pub fn base_string(&self) -> String {
        let s: String = self.base.iter().map(|&b| if b == 1 { '1' } else { '0' }).collect();
        s.trim_start_matches('0').to_string()
    }

    /// The direction string `d(ID, j)` of a phase `j > j̄`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≤ j̄` (those phases use the fixed direction `left`).
    #[must_use]
    pub fn phase_string(&self, phase: u32) -> Vec<u8> {
        assert!(phase > self.base_phase, "phase {phase} uses the fixed left direction");
        duplicate(&self.base, 1usize << (phase - self.base_phase))
    }

    /// The direction prescribed for the given (1-based) round.
    ///
    /// # Panics
    ///
    /// Panics if `round` is 0.
    #[must_use]
    pub fn direction(&self, round: u64) -> LocalDirection {
        assert!(round >= 1, "rounds are 1-based");
        let phase = phase_of(round);
        if phase <= self.base_phase {
            return LocalDirection::Left;
        }
        let within = (round - (1u64 << phase)) as usize;
        let stretched = self.phase_string(phase);
        if stretched[within % stretched.len()] == 0 {
            LocalDirection::Left
        } else {
            LocalDirection::Right
        }
    }

    /// Whether the direction changes between `round − 1` and `round`
    /// (the `switch(Ttime)` test of Figure 8). The first round never switches.
    #[must_use]
    pub fn switches_at(&self, round: u64) -> bool {
        if round <= 1 {
            return false;
        }
        self.direction(round) != self.direction(round - 1)
    }

    /// Length of the longest run of identical directions shared by `self` and
    /// `other` within rounds `1..=horizon` (used to validate Lemma 3).
    #[must_use]
    pub fn longest_common_run(&self, other: &DirectionSequence, horizon: u64) -> u64 {
        let mut best = 0u64;
        let mut current = 0u64;
        for r in 1..=horizon {
            if self.direction(r) == other.direction(r) {
                current += 1;
                best = best.max(current);
            } else {
                current = 0;
            }
        }
        best
    }

    /// The bound of Lemma 3: `32·((len + 3)·c·n) + 1`, where `len` is the
    /// length of the binary representation of the larger identifier.
    #[must_use]
    pub fn lemma3_horizon(id_a: u64, id_b: u64, c_times_n: u64) -> u64 {
        let len = binary_string(id_a.max(id_b)).len() as u64;
        32 * ((len + 3) * c_times_n) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_of_rounds() {
        assert_eq!(phase_of(1), 0);
        assert_eq!(phase_of(2), 1);
        assert_eq!(phase_of(3), 1);
        assert_eq!(phase_of(4), 2);
        assert_eq!(phase_of(7), 2);
        assert_eq!(phase_of(8), 3);
    }

    #[test]
    fn duplication_matches_paper_example() {
        // Dup(1010, 2) = 11001100
        assert_eq!(duplicate(&[1, 0, 1, 0], 2), vec![1, 1, 0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn base_string_for_id_one() {
        let seq = DirectionSequence::new(1);
        assert_eq!(seq.base_string(), "1010");
        assert_eq!(seq.base_phase(), 2);
        assert_eq!(seq.id(), 1);
    }

    #[test]
    fn early_phases_go_left() {
        let seq = DirectionSequence::new(5);
        for r in 1..8 {
            // For ID = 5, S = 10 101 0 (len 6), so j̄ = 3 and phases 0..3
            // (rounds 1..15) are all `left`.
            assert_eq!(seq.direction(r), LocalDirection::Left, "round {r}");
        }
    }

    #[test]
    fn phase_string_has_phase_length() {
        let seq = DirectionSequence::new(1);
        for phase in (seq.base_phase() + 1)..(seq.base_phase() + 5) {
            assert_eq!(seq.phase_string(phase).len() as u64, 1u64 << phase);
        }
    }

    #[test]
    #[should_panic(expected = "fixed left direction")]
    fn phase_string_rejects_base_phases() {
        let _ = DirectionSequence::new(1).phase_string(1);
    }

    #[test]
    fn directions_in_first_active_phase_follow_the_base_string() {
        let seq = DirectionSequence::new(1);
        // Phase 3 covers rounds 8..15 and follows Dup("1010", 2) = 11001100.
        let expected = [1, 1, 0, 0, 1, 1, 0, 0];
        for (i, &bit) in expected.iter().enumerate() {
            let dir = seq.direction(8 + i as u64);
            let want = if bit == 1 { LocalDirection::Right } else { LocalDirection::Left };
            assert_eq!(dir, want, "round {}", 8 + i);
        }
    }

    #[test]
    fn switch_detection() {
        let seq = DirectionSequence::new(1);
        assert!(!seq.switches_at(1));
        // Within phase 3 (rounds 8..15 = 11001100): switches at rounds 10, 12, 14.
        assert!(!seq.switches_at(9));
        assert!(seq.switches_at(10));
        assert!(!seq.switches_at(11));
        assert!(seq.switches_at(12));
    }

    #[test]
    fn lemma3_common_run_exists_for_distinct_ids() {
        // For several pairs of distinct IDs and a small c·n, a common run of
        // length c·n appears within the Lemma 3 horizon.
        let pairs = [(1u64, 2u64), (3, 7), (48, 164), (42, 304), (5, 6)];
        let c_n = 20u64;
        for (a, b) in pairs {
            let sa = DirectionSequence::new(a);
            let sb = DirectionSequence::new(b);
            let horizon = DirectionSequence::lemma3_horizon(a, b, c_n);
            let run = sa.longest_common_run(&sb, horizon);
            assert!(
                run >= c_n,
                "ids {a} and {b}: common run {run} < {c_n} within horizon {horizon}"
            );
        }
    }

    #[test]
    fn each_sequence_eventually_uses_both_directions_for_long_runs() {
        // Last claim of Lemma 3: each agent moves in both directions for runs
        // of length at least c·n by the horizon.
        let c_n = 16u64;
        for id in [1u64, 2, 9, 48, 164] {
            let seq = DirectionSequence::new(id);
            let horizon = DirectionSequence::lemma3_horizon(id, id, c_n);
            let mut left_run = 0u64;
            let mut right_run = 0u64;
            let mut best_left = 0u64;
            let mut best_right = 0u64;
            for r in 1..=horizon {
                match seq.direction(r) {
                    LocalDirection::Left => {
                        left_run += 1;
                        right_run = 0;
                    }
                    LocalDirection::Right => {
                        right_run += 1;
                        left_run = 0;
                    }
                }
                best_left = best_left.max(left_run);
                best_right = best_right.max(right_run);
            }
            assert!(best_left >= c_n, "id {id}: left run {best_left}");
            assert!(best_right >= c_n, "id {id}: right run {best_right}");
        }
    }
}
