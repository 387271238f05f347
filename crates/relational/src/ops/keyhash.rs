//! The join-key hash: a small multiply-rotate hash fed a row's key values
//! where they lie, with no projected key tuple in between.
//!
//! It is deterministic (no per-process seed), so a build table's layout is
//! a pure function of its rows. The same fold, finalised, is every tuple's
//! cached row hash ([`row_hash`]), which content digests add up and every
//! tuple-keyed map buckets by.
//!
//! Rows do come from clients: `INGEST` loads base rows a client chose, and
//! join keys, group keys and whole rows derive from them. Since no seed is
//! secret, a client can pick rows whose hashes collide. That only slows the
//! maps and chains those rows land in, down to a linear walk per lookup: a
//! lookup still compares values after hashes, so a collision never merges
//! or loses a row. `std`'s SipHash would resist it, at most of a probe's
//! cost on every row of every window.

use crate::tuple::Tuple;
use crate::value::Value;

/// The odd multiplier of Fibonacci hashing (2^64 / φ).
pub(crate) const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One word into the running hash. The product carries every input bit into
/// the high bits, which is where [`super::join`] takes its bucket index.
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MUL)
}

/// One value into the running hash: its type tag, then its payload.
fn mix_value(h: u64, value: &Value) -> u64 {
    match value {
        Value::Int(v) => mix(mix(h, 1), *v as u64),
        Value::Decimal(v) => mix(mix(h, 2), *v as u64),
        Value::Date(v) => mix(mix(h, 3), *v as u64),
        Value::Str(s) => {
            // The length goes in first, so zero padding is unambiguous.
            let mut h = mix(mix(h, 4), s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(word));
            }
            h
        }
    }
}

/// The hash of `row`'s values at `cols`, in that order. Equal values hash
/// equally; each type mixes in its own tag, so `Int(k)`, `Decimal(k)` and
/// `Date(k)` hash apart. An empty column list hashes to `0`.
pub(super) fn key_hash(row: &Tuple, cols: &[usize]) -> u64 {
    cols.iter().fold(0, |h, &c| mix_value(h, row.get(c)))
}

/// The hash of a whole row, every column in order: what a [`Tuple`]
/// carries, and what content digests add up one per row. `mix`
/// leaves its low bits depending on few input bits, which a sum or a
/// bucket mask would keep; MurmurHash3's `fmix64` finaliser spreads every
/// input bit over the whole word first.
pub(crate) fn row_hash(values: &[Value]) -> u64 {
    let mut h = values.iter().fold(0, mix_value);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn equal_values_hash_equally_at_any_position() {
        let a = tup![Value::Int(7), Value::str("ab"), Value::Date(3)];
        let b = tup![Value::Date(3), Value::Int(7), Value::str("ab")];
        assert_eq!(key_hash(&a, &[0, 1, 2]), key_hash(&b, &[1, 2, 0]));
        assert_eq!(key_hash(&a, &[]), 0);
    }

    #[test]
    fn types_lengths_and_column_splits_hash_apart() {
        let t = tup![
            Value::Int(5),
            Value::Decimal(5),
            Value::Date(5),
            Value::str("abcdefgh"),
            Value::str("abcdefgh\0"),
            Value::str("ab"),
            Value::str("c"),
            Value::str("a"),
            Value::str("bc"),
        ];
        let h = |cols: &[usize]| key_hash(&t, cols);
        assert_ne!(h(&[0]), h(&[1]));
        assert_ne!(h(&[0]), h(&[2]));
        assert_ne!(h(&[1]), h(&[2]));
        assert_ne!(h(&[3]), h(&[4]));
        assert_ne!(h(&[5, 6]), h(&[7, 8]));
    }
}
