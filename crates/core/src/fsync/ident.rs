//! Identifier construction by bit interleaving (Section 3.2.3, Figures 9–10).
//!
//! When two agents without chirality start from the landmark, each derives a
//! (hopefully distinct) identifier from the rounds at which it was first
//! blocked (`r1`), blocked for the second time (`r2`) and, in between, the
//! round at which it first crossed the landmark (`r3`, or 0 if it did not).
//! From these it computes
//!
//! * `k1 = r1`,
//! * `k2 = r2 − max(r1, r3)`,
//! * `k3 = max(0, r3 − r1)`,
//!
//! and the identifier is obtained by interleaving the bits of `k1`, `k2` and
//! `k3` (each padded with leading zeros to the length of the longest) —
//! taking, for every bit position, the bit of `k1`, then of `k2`, then of
//! `k3`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimal binary representation of `value` (at least one digit).
fn to_bits(value: u64) -> Vec<u8> {
    if value == 0 {
        return vec![0];
    }
    let len = 64 - value.leading_zeros() as usize;
    (0..len).rev().map(|i| ((value >> i) & 1) as u8).collect()
}

/// Interleaves the bits of `k1`, `k2`, `k3` (each padded with a prefix of
/// zeros to the length of the longest), producing the identifier's bit string
/// and its numeric value (leading zeros are ignored for the value, as in
/// Figure 9).
///
/// ```
/// use dynring_core::fsync::interleave_id;
///
/// // Figure 9, agent a: k1 = 2 (10), k2 = 2 (10), k3 = 0 (00)
/// let (bits, value) = interleave_id(2, 2, 0);
/// assert_eq!(bits, "110000");
/// assert_eq!(value, 48);
///
/// // Figure 9, agent b: k1 = 3 (011), k2 = 4 (100), k3 = 0 (000)
/// let (bits, value) = interleave_id(3, 4, 0);
/// assert_eq!(bits, "010100100");
/// assert_eq!(value, 164);
/// ```
#[must_use]
pub fn interleave_id(k1: u64, k2: u64, k3: u64) -> (String, u64) {
    let (b1, b2, b3) = (to_bits(k1), to_bits(k2), to_bits(k3));
    let width = b1.len().max(b2.len()).max(b3.len());
    let pad = |bits: &[u8]| -> Vec<u8> {
        let mut padded = vec![0u8; width - bits.len()];
        padded.extend_from_slice(bits);
        padded
    };
    let (b1, b2, b3) = (pad(&b1), pad(&b2), pad(&b3));
    let mut bits = String::with_capacity(3 * width);
    let mut value: u64 = 0;
    for i in 0..width {
        for bit in [b1[i], b2[i], b3[i]] {
            bits.push(if bit == 1 { '1' } else { '0' });
            value = (value << 1) | u64::from(bit);
        }
    }
    (bits, value)
}

/// The identifier an agent computes from its blocking history
/// (`StartFromLandmarkNoChirality`, state `Ready`).
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AgentIdentifier {
    k1: u64,
    k2: u64,
    k3: u64,
    bits: String,
    value: u64,
}

// Manual `Clone` so that `clone_from` reuses the capacity of `bits`: the
// engine refreshes its prediction probes, checkpoint slots and trace labels
// through `CatalogProtocol::clone_from` every round.
impl Clone for AgentIdentifier {
    fn clone(&self) -> Self {
        AgentIdentifier {
            k1: self.k1,
            k2: self.k2,
            k3: self.k3,
            bits: self.bits.clone(),
            value: self.value,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.k1 = source.k1;
        self.k2 = source.k2;
        self.k3 = source.k3;
        self.bits.clone_from(&source.bits);
        self.value = source.value;
    }
}

impl AgentIdentifier {
    /// Builds the identifier from the three counters of Figure 8.
    #[must_use]
    pub fn from_counters(k1: u64, k2: u64, k3: u64) -> Self {
        let (bits, value) = interleave_id(k1, k2, k3);
        AgentIdentifier { k1, k2, k3, bits, value }
    }

    /// Builds the identifier from the raw blocking rounds `r1`, `r2`, `r3`
    /// (with `r3 = 0` meaning "the landmark was not crossed between `r1` and
    /// `r2`"), applying the formulas of Section 3.2.3.
    #[must_use]
    pub fn from_rounds(r1: u64, r2: u64, r3: u64) -> Self {
        let k1 = r1;
        let k2 = r2.saturating_sub(r1.max(r3));
        let k3 = r3.saturating_sub(r1);
        Self::from_counters(k1, k2, k3)
    }

    /// The numeric value of the identifier (leading zeros ignored).
    #[must_use]
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// The full interleaved bit string, including leading zeros.
    #[must_use]
    pub fn bits(&self) -> &str {
        &self.bits
    }

    /// The component `k1`.
    #[must_use]
    pub const fn k1(&self) -> u64 {
        self.k1
    }

    /// The component `k2`.
    #[must_use]
    pub const fn k2(&self) -> u64 {
        self.k2
    }

    /// The component `k3`.
    #[must_use]
    pub const fn k3(&self) -> u64 {
        self.k3
    }

    /// Appends a packed, injective encoding of the identifier to `out`. The
    /// bit string and numeric value are pure functions of `(k1, k2, k3)`
    /// (every constructor derives them via [`interleave_id`]), so emitting
    /// the three components alone is injective on the whole struct.
    pub fn write_state_key(&self, out: &mut Vec<u8>) {
        use dynring_model::statekey::push_u64;
        push_u64(out, self.k1);
        push_u64(out, self.k2);
        push_u64(out, self.k3);
    }
}

impl fmt::Display for AgentIdentifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ID({}={})", self.bits, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_binary_representation() {
        assert_eq!(to_bits(0), vec![0]);
        assert_eq!(to_bits(1), vec![1]);
        assert_eq!(to_bits(6), vec![1, 1, 0]);
        assert_eq!(to_bits(8), vec![1, 0, 0, 0]);
    }

    #[test]
    fn figure_9_agent_a() {
        // r1 = 2, r2 = 4, r3 = 0  =>  k1 = 2, k2 = 2, k3 = 0, ID = 110000b = 48
        // (the figure prints the k's with an extra leading zero; the
        // interleaving pads to the longest of the three, which is 2 bits, and
        // the resulting numeric value 48 matches the figure exactly).
        let id = AgentIdentifier::from_rounds(2, 4, 0);
        assert_eq!(id.k1(), 2);
        assert_eq!(id.k2(), 2);
        assert_eq!(id.k3(), 0);
        assert_eq!(id.bits(), "110000");
        assert_eq!(id.value(), 48);
    }

    #[test]
    fn figure_9_agent_b() {
        // r1 = 3, r2 = 7, r3 = 0  =>  k1 = 3, k2 = 4, k3 = 0, ID = 10100100b = 164
        let id = AgentIdentifier::from_rounds(3, 7, 0);
        assert_eq!((id.k1(), id.k2(), id.k3()), (3, 4, 0));
        assert_eq!(id.bits(), "010100100");
        assert_eq!(id.value(), 164);
    }

    #[test]
    fn figure_10_agent_a() {
        // r1 = 2, r2 = 5, r3 = 4  =>  k1 = 2 (10), k2 = 1 (01), k3 = 2 (10), ID = 101010b = 42
        let id = AgentIdentifier::from_rounds(2, 5, 4);
        assert_eq!((id.k1(), id.k2(), id.k3()), (2, 1, 2));
        assert_eq!(id.bits(), "101010");
        assert_eq!(id.value(), 42);
    }

    #[test]
    fn figure_10_agent_b() {
        // r1 = 6, r2 = 8, r3 = 0  =>  k1 = 6 (110), k2 = 2 (010), k3 = 0 (000), ID = 100110000b = 304
        let id = AgentIdentifier::from_rounds(6, 8, 0);
        assert_eq!((id.k1(), id.k2(), id.k3()), (6, 2, 0));
        assert_eq!(id.bits(), "100110000");
        assert_eq!(id.value(), 304);
    }

    #[test]
    fn ids_are_equal_iff_components_are_equal() {
        // Exhaustive check over a small grid, as claimed in Section 3.2.3:
        // "two IDs are equal if and only if their ki's are equal".
        let mut seen = std::collections::HashMap::new();
        for k1 in 0..6u64 {
            for k2 in 0..6u64 {
                for k3 in 0..6u64 {
                    let id = AgentIdentifier::from_counters(k1, k2, k3);
                    if let Some(prev) = seen.insert(id.bits().to_owned(), (k1, k2, k3)) {
                        assert_eq!(prev, (k1, k2, k3), "collision between {prev:?} and {:?}", (k1, k2, k3));
                    }
                }
            }
        }
    }

    #[test]
    fn display_contains_bits_and_value() {
        let id = AgentIdentifier::from_counters(1, 0, 0);
        let s = id.to_string();
        assert!(s.contains("100"));
        assert!(s.contains('='));
    }

    #[test]
    fn zero_identifier_is_well_formed() {
        let id = AgentIdentifier::from_counters(0, 0, 0);
        assert_eq!(id.bits(), "000");
        assert_eq!(id.value(), 0);
    }
}
