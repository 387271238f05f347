//! Hash partitioning of signed batches by join-key value.
//!
//! Rows whose key projections are equal land in the same partition, and the
//! two sides of a join can name their keys at different positions: the hash
//! is over the projected key **values**, not column indices. The engine does
//! not partition by hash — it builds one table per operand and cuts the
//! probe side into contiguous slices (`uww_core`'s partition-parallel
//! path) — so what is left here is the reference split the benchmark
//! prices as `ops.split_ns_per_row`.
//!
//! * **stability** — the hash is FNV-1a over the canonical wire form of
//!   each key value ([`value_to_wire`]), so a row's partition is a pure
//!   function of its key values: identical across runs, platforms, and the
//!   two sides of one join. `std`'s `RandomState` is per-process seeded and
//!   would break both.
//! * **degenerate identity** — at `parts == 1` (and for empty key lists)
//!   [`Partitioner::split`] returns the input as one chunk in original order.

use super::SignedRows;
use crate::snapshot::value_to_wire;
use crate::tuple::Tuple;

/// The partition of `t` under `keys`: FNV-1a over the wire forms of the
/// projected key values, reduced modulo `parts`. Rows with equal key
/// projections always share a partition; `parts <= 1` or empty `keys`
/// always map to partition 0.
pub fn part_of(t: &Tuple, keys: &[usize], parts: usize) -> usize {
    if parts <= 1 || keys.is_empty() {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &k in keys {
        for b in value_to_wire(t.get(k)).as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Column separator so ("ab","c") and ("a","bc") hash apart.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % parts as u64) as usize
}

/// Splits [`SignedRows`] batches into chunks by key hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    parts: usize,
}

impl Partitioner {
    /// A partitioner producing `parts` chunks (floored at 1).
    pub fn new(parts: usize) -> Partitioner {
        Partitioner {
            parts: parts.max(1),
        }
    }

    /// Splits `rows` into `parts` chunks by [`part_of`] over `keys`. The
    /// split is stable: rows keep their input order within each chunk, and
    /// `parts == 1` (or an empty key list, which has nothing to hash)
    /// returns the whole batch as chunk 0.
    pub fn split(&self, rows: &SignedRows, keys: &[usize]) -> Vec<SignedRows> {
        if self.parts == 1 || keys.is_empty() {
            let mut out = vec![Vec::new(); self.parts];
            out[0] = rows.clone();
            return out;
        }
        let mut out: Vec<SignedRows> =
            vec![Vec::with_capacity(rows.len() / self.parts + 1); self.parts];
        for (t, m) in rows {
            out[part_of(t, keys, self.parts)].push((t.clone(), *m));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::value::Value;

    fn rows(n: i64) -> SignedRows {
        (0..n)
            .map(|i| {
                (
                    tup![
                        Value::Int(i % 7),
                        Value::str(format!("r{i}")),
                        Value::Int(i)
                    ],
                    if i % 5 == 0 { -1 } else { 1 + i % 3 },
                )
            })
            .collect()
    }

    fn sorted(mut r: SignedRows) -> SignedRows {
        r.sort();
        r
    }

    #[test]
    fn split_is_a_stable_partition_of_the_input() {
        let input = rows(100);
        for parts in [1, 2, 3, 8] {
            let chunks = Partitioner::new(parts).split(&input, &[0]);
            assert_eq!(chunks.len(), parts);
            // Every row lands in exactly one chunk; concatenation is a
            // permutation of the input.
            let total: usize = chunks.iter().map(Vec::len).sum();
            assert_eq!(total, input.len());
            let mut flat: SignedRows = chunks.iter().flatten().cloned().collect();
            flat.sort();
            assert_eq!(flat, sorted(input.clone()));
            // Stability: within each chunk, input order is preserved.
            for chunk in &chunks {
                for w in chunk.windows(2) {
                    let pos = |r: &(Tuple, i64)| input.iter().position(|x| x == r).unwrap();
                    assert!(pos(&w[0]) < pos(&w[1]));
                }
            }
        }
    }

    #[test]
    fn equal_keys_co_partition_across_sides_and_positions() {
        // The build side keys on column 0, the probe side on column 2: equal
        // *values* must land in the same partition regardless of position.
        let build = rows(50);
        let probe: SignedRows = (0..50)
            .map(|i| (tup![Value::str("x"), Value::Int(7), Value::Int(i % 7)], 1))
            .collect();
        let p = Partitioner::new(4);
        let bc = p.split(&build, &[0]);
        let pc = p.split(&probe, &[2]);
        for (bi, chunk) in bc.iter().enumerate() {
            for (t, _) in chunk {
                let key = t.get(0).clone();
                for (pi, pchunk) in pc.iter().enumerate() {
                    for (pt, _) in pchunk {
                        if pt.get(2) == &key {
                            assert_eq!(bi, pi, "key {key:?} split across partitions");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn part_of_is_stable_and_degenerate_on_empty_keys() {
        let t = tup![Value::Int(42), Value::str("k")];
        let p = part_of(&t, &[0, 1], 8);
        assert_eq!(p, part_of(&t, &[0, 1], 8));
        assert_eq!(part_of(&t, &[], 8), 0);
        assert_eq!(part_of(&t, &[0], 1), 0);
        // Empty keys route the whole batch to chunk 0.
        let chunks = Partitioner::new(4).split(&rows(9), &[]);
        assert_eq!(chunks[0].len(), 9);
        assert!(chunks[1..].iter().all(Vec::is_empty));
    }
}
