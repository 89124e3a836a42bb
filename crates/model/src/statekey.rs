//! Packed binary encodings of protocol state for canonical keys.
//!
//! The exhaustive model checker (in `dynring-analysis`) deduplicates search
//! states by a canonical byte key. Historically that key serialised every
//! agent's protocol state by `format!`-ing its `Debug` representation — a
//! per-state `String` allocation on the hottest path of the search. The
//! [`Protocol::write_state_key`](crate::Protocol::write_state_key) hook
//! replaces the string with a compact binary encoding built from the helpers
//! in this module, and the engine writes the integer fields of its own
//! key prefix through the same helpers, so this is the one module that
//! knows the integer encoding.
//!
//! # Injectivity contract
//!
//! The only property the model checker needs is that the encoding is
//! **injective**: two protocol instances emit the same bytes *iff* their
//! observable state (everything that can influence any future decision) is
//! identical. Equality of canonical keys is then exactly equality of
//! configurations, so the exhaustive proofs stay proofs. The helpers keep
//! injectivity compositional by making every field **prefix-free** — no
//! field's encoding is a proper prefix of another value's encoding of the
//! same field, so a concatenation of fields splits back into its fields in
//! exactly one way:
//!
//! * unsigned integers are LEB128 varints: seven value bits per byte, low
//!   group first, the high bit set on every byte but the last. The state
//!   fields hold small numbers, so most take one byte;
//! * signed integers are zigzag-mapped (`0, −1, 1, −2, …` ↦ `0, 1, 2, 3, …`)
//!   onto unsigned varints;
//! * optional fields carry an explicit presence tag byte;
//! * variable-length payloads are length-prefixed via [`push_prefixed`],
//!   with the length as a varint.
//!
//! Implementors must emit **every** field that `Debug` would show (the
//! engine's `packed_key_classes_match_debug_key_classes` proptest, in
//! `crates/engine/src/checkpoint.rs`, compares the equivalence classes
//! induced by the two encodings).
//!
//! # Round trip
//!
//! The model checker keeps its frontier as keys alone and rebuilds each
//! parent from its key, so an encoding must also **decode**: every field
//! written by a `push_*` helper is read back, in the same order, by the
//! matching [`KeyReader`] method, and the state read back emits the same
//! bytes again. Injectivity is what makes the round trip possible: a key
//! that splits into its fields one way only names one state.

/// Appends a `u64` as an LEB128 varint (1 byte below 128, at most 10).
#[inline]
pub fn push_u64(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Appends an `i64` zigzag-mapped onto an LEB128 varint, so values near
/// zero of either sign take one byte.
#[inline]
pub fn push_i64(out: &mut Vec<u8>, value: i64) {
    push_u64(out, ((value << 1) ^ (value >> 63)) as u64);
}

/// Appends an `Option<u64>` as a presence tag byte followed by the value
/// (absent values emit tag `0` and no payload).
#[inline]
pub fn push_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            push_u64(out, v);
        }
        None => out.push(0),
    }
}

/// Appends an `Option<i64>` as a presence tag byte followed by the value.
#[inline]
pub fn push_opt_i64(out: &mut Vec<u8>, value: Option<i64>) {
    match value {
        Some(v) => {
            out.push(1);
            push_i64(out, v);
        }
        None => out.push(0),
    }
}

/// Appends what `write` appends, prefixed by its varint length (the bytes
/// of a varint length followed by the payload), without a second buffer. The
/// payload is written in place after a one-byte prefix and shifted right
/// when its length needs a longer one (128 bytes or more), so the call
/// allocates only if `out` has to grow.
#[inline]
pub fn push_prefixed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.push(0);
    write(out);
    let len = out.len() - len_at - 1;
    if len < 0x80 {
        out[len_at] = len as u8;
    } else {
        // Append the full varint, then move the payload right over its
        // first bytes and put the saved varint in front.
        let end = out.len();
        push_u64(out, len as u64);
        let width = out.len() - end;
        let mut prefix = [0u8; 10];
        prefix[..width].copy_from_slice(&out[end..]);
        out.copy_within(len_at + 1..end, len_at + width);
        out[len_at..len_at + width].copy_from_slice(&prefix[..width]);
        out.truncate(end + width - 1);
    }
}

/// Reads a key back field by field: the inverse of the `push_*` helpers,
/// called in the order the fields were written.
///
/// Keys are only ever read back by the code that wrote them, so every
/// method panics on bytes the matching writer cannot have written: a key
/// that ends inside a field, or a presence tag other than `0` or `1`.
#[derive(Debug, Clone)]
pub struct KeyReader<'a> {
    rest: &'a [u8],
}

impl<'a> KeyReader<'a> {
    /// A reader at the front of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        KeyReader { rest: bytes }
    }

    /// The bytes not read yet.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Reads one raw byte (a tag or flags byte).
    pub fn byte(&mut self) -> u8 {
        let (&byte, rest) = self.rest.split_first().expect("key ends inside a field");
        self.rest = rest;
        byte
    }

    /// Reads `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> &'a [u8] {
        assert!(len <= self.rest.len(), "key ends inside a field");
        let (bytes, rest) = self.rest.split_at(len);
        self.rest = rest;
        bytes
    }

    /// Reads a varint written by [`push_u64`].
    pub fn u64(&mut self) -> u64 {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte();
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return value;
            }
        }
        panic!("varint is longer than ten bytes")
    }

    /// Reads a value written by [`push_i64`].
    pub fn i64(&mut self) -> i64 {
        let zigzag = self.u64();
        ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64)
    }

    /// Reads a presence tag byte: `0` absent, `1` present.
    pub fn present(&mut self) -> bool {
        match self.byte() {
            0 => false,
            1 => true,
            tag => panic!("presence tag {tag} is neither 0 nor 1"),
        }
    }

    /// Reads a value written by [`push_opt_u64`].
    pub fn opt_u64(&mut self) -> Option<u64> {
        self.present().then(|| self.u64())
    }

    /// Reads a value written by [`push_opt_i64`].
    pub fn opt_i64(&mut self) -> Option<i64> {
        self.present().then(|| self.i64())
    }

    /// Splits off the payload of a section written by [`push_prefixed`]: a
    /// reader over exactly its bytes, and this reader moves past it.
    pub fn prefixed(&mut self) -> KeyReader<'a> {
        let len = usize::try_from(self.u64()).expect("section length fits in memory");
        KeyReader::new(self.bytes(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference length prefix [`push_prefixed`] is checked against: a
    /// varint length, then the bytes.
    fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        push_u64(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }

    fn encoded(push: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        push(&mut out);
        out
    }

    #[test]
    fn unsigned_integers_are_leb128_varints() {
        let cases: [(u64, &[u8]); 6] = [
            (0, &[0x00]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (16383, &[0xFF, 0x7F]),
            (16384, &[0x80, 0x80, 0x01]),
            (u64::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
        ];
        for (value, bytes) in cases {
            assert_eq!(encoded(|out| push_u64(out, value)), bytes, "{value}");
        }
    }

    #[test]
    fn signed_integers_are_zigzag_varints() {
        let cases: [(i64, &[u8]); 5] = [
            (0, &[0x00]),
            (-1, &[0x01]),
            (1, &[0x02]),
            (i64::MAX, &[0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
            (i64::MIN, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
        ];
        for (value, bytes) in cases {
            assert_eq!(encoded(|out| push_i64(out, value)), bytes, "{value}");
        }
        let tagged = encoded(|out| {
            push_opt_i64(out, Some(-7));
            push_opt_i64(out, None);
            push_opt_u64(out, Some(300));
            push_opt_u64(out, None);
        });
        assert_eq!(tagged, [1, 13, 0, 1, 0xAC, 0x02, 0]);
    }

    #[test]
    fn concatenated_fields_split_back_uniquely() {
        // Every field is prefix-free, so a concatenation decodes back to
        // exactly the values written: distinct field lists never share
        // bytes.
        let unsigned = [0, 1, 127, 128, 300, 16383, 16384, 1 << 35, u64::MAX - 1, u64::MAX];
        let signed = [0, -1, 1, -64, 64, i64::MIN, i64::MAX, -300];
        let mut out = Vec::new();
        for &value in &unsigned {
            push_u64(&mut out, value);
        }
        for &value in &signed {
            push_i64(&mut out, value);
        }
        let mut key = KeyReader::new(&out);
        for &value in &unsigned {
            assert_eq!(key.u64(), value);
        }
        for &value in &signed {
            assert_eq!(key.i64(), value);
        }
        assert!(key.rest().is_empty());
        // A varint is never a proper prefix of another: every proper
        // prefix of an encoding ends on a continuation byte.
        for &value in &unsigned {
            let bytes = encoded(|out| push_u64(out, value));
            for cut in 0..bytes.len() {
                let mut cut_key = KeyReader::new(&bytes[..cut]);
                let read = std::panic::catch_unwind(move || cut_key.u64());
                assert!(read.is_err(), "{value} cut at {cut}");
            }
        }
    }

    #[test]
    fn optional_fields_and_sections_read_back() {
        let out = encoded(|out| {
            push_opt_i64(out, Some(-7));
            push_opt_i64(out, None);
            push_opt_u64(out, Some(300));
            push_opt_u64(out, None);
            push_prefixed(out, |out| push_u64(out, 5));
            out.push(0xAB);
        });
        let mut key = KeyReader::new(&out);
        assert_eq!((key.opt_i64(), key.opt_i64()), (Some(-7), None));
        assert_eq!((key.opt_u64(), key.opt_u64()), (Some(300), None));
        let mut section = key.prefixed();
        assert_eq!((section.u64(), section.rest()), (5, &[][..]));
        assert_eq!((key.byte(), key.rest()), (0xAB, &[][..]));
    }

    #[test]
    fn byte_payloads_are_length_prefixed() {
        // Without the prefix "ab" + "c" and "a" + "bc" would collide.
        let mut left = Vec::new();
        push_bytes(&mut left, b"ab");
        push_bytes(&mut left, b"c");
        let mut right = Vec::new();
        push_bytes(&mut right, b"a");
        push_bytes(&mut right, b"bc");
        assert_ne!(left, right);
    }

    #[test]
    fn prefixed_sections_match_push_bytes_at_every_prefix_width() {
        for len in [0, 1, 127, 128, 200, 16383, 16384] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let direct = encoded(|out| {
                out.push(0xEE);
                push_bytes(out, &payload);
            });
            let mut in_place = vec![0xEE];
            push_prefixed(&mut in_place, |out| out.extend_from_slice(&payload));
            assert_eq!(in_place, direct, "payload of {len} bytes");
            let mut key = KeyReader::new(&in_place[1..]);
            assert_eq!(key.prefixed().rest(), payload.as_slice());
            assert!(key.rest().is_empty());
        }
    }
}
