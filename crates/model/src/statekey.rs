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

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one varint at the front of `bytes`, returning it and the rest;
    /// `None` if `bytes` ends inside it.
    fn read_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
        let mut value = 0u64;
        for (i, &byte) in bytes.iter().enumerate().take(10) {
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte < 0x80 {
                return Some((value, &bytes[i + 1..]));
            }
        }
        None
    }

    fn unzigzag(value: u64) -> i64 {
        ((value >> 1) as i64) ^ -((value & 1) as i64)
    }

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
        let mut rest = out.as_slice();
        for &value in &unsigned {
            let (decoded, tail) = read_u64(rest).expect("a whole varint");
            assert_eq!(decoded, value);
            rest = tail;
        }
        for &value in &signed {
            let (decoded, tail) = read_u64(rest).expect("a whole varint");
            assert_eq!(unzigzag(decoded), value);
            rest = tail;
        }
        assert!(rest.is_empty());
        // A varint is never a proper prefix of another: every proper
        // prefix of an encoding ends on a continuation byte.
        for &value in &unsigned {
            let bytes = encoded(|out| push_u64(out, value));
            for cut in 0..bytes.len() {
                assert!(read_u64(&bytes[..cut]).is_none(), "{value} cut at {cut}");
            }
        }
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
            let (decoded, rest) = read_u64(&in_place[1..]).expect("a whole length");
            assert_eq!((decoded, rest), (len as u64, payload.as_slice()));
        }
    }
}
