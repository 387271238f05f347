//! Hash partitioning of signed batches for partition-parallel joins.
//!
//! A `Comp` term's hash joins are embarrassingly partitionable by join key:
//! rows whose key projections are equal must land in the same partition, so
//! splitting the build and probe sides with the *same* hash over the
//! projected key **values** (not column indices — the two sides name their
//! keys at different positions) yields `P` completely independent
//! build/probe sub-joins whose concatenated output is multiset-identical to
//! the unpartitioned join.
//!
//! Three invariants the partition-parallel engine relies on:
//!
//! * **stability** — the hash is FNV-1a over the canonical wire form of
//!   each key value ([`value_to_wire`]), so a row's partition is a pure
//!   function of its key values: identical across runs, platforms, and the
//!   build/probe sides of one join. `std`'s `RandomState` is per-process
//!   seeded and would break both cross-run determinism and co-partitioning.
//! * **degenerate identity** — at `parts == 1` (and for empty key lists,
//!   the cross-join fallback) [`Partitioner::split`] returns the input as
//!   one chunk in original order, so the partitioned code path is
//!   byte-identical to the sequential one, not merely multiset-equal.
//! * **meter identity** — a partitioned build charges exactly one
//!   [`WorkMeter::hash_build`] over the *total* input (the same pass the
//!   sequential build performs, split across chunks), and each chunk probe
//!   charges its own emit; every counter therefore sums to precisely the
//!   sequential meter, partition count notwithstanding.

use super::join::{probe_table, BuiltTable};
use super::SignedRows;
use crate::error::RelResult;
use crate::meter::WorkMeter;
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

/// Splits [`SignedRows`] batches into co-partitionable chunks by key hash.
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

    /// Number of chunks every split produces.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Splits `rows` into `parts` chunks by [`part_of`] over `keys`. The
    /// split is stable: rows keep their input order within each chunk, and
    /// `parts == 1` (or an empty key list — the cross-join fallback, which
    /// has no key to co-partition on) returns the whole batch as chunk 0.
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

    /// Splits `rows` into `parts` contiguous chunks, ignoring keys — for
    /// operators that need no co-partitioning (cross joins iterate one side
    /// freely; aggregation merges commutatively). Chunk order concatenates
    /// back to the input order exactly.
    pub fn split_contiguous(&self, rows: &SignedRows) -> Vec<SignedRows> {
        if self.parts == 1 {
            return vec![rows.clone()];
        }
        let chunk = rows.len().div_ceil(self.parts).max(1);
        let mut out: Vec<SignedRows> = rows.chunks(chunk).map(|c| c.to_vec()).collect();
        out.resize(self.parts, Vec::new());
        out
    }
}

/// A hash-join build table split into co-partitioned chunks, owning the
/// build rows each chunk indexes. Like [`BuiltTable`] it has no lifetime
/// tie, so the shared-operand engine interns it (in an `Arc`) and probes it
/// from many terms — and because the partition count is baked into the
/// structure, a table built at one partitioning can never silently serve a
/// differently-partitioned probe.
#[derive(Debug)]
pub struct PartitionedTable {
    keys: Vec<usize>,
    chunks: Vec<(SignedRows, BuiltTable)>,
}

impl PartitionedTable {
    /// Assembles a table from pre-indexed chunks (as produced by a worker
    /// pool indexing [`Partitioner::split`] output). No metering: the
    /// caller charges the single aggregate build pass.
    pub fn from_indexed(keys: Vec<usize>, chunks: Vec<(SignedRows, BuiltTable)>) -> Self {
        PartitionedTable { keys, chunks }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.chunks.len()
    }

    /// The build-key column indices this table was partitioned and indexed
    /// on.
    pub fn keys(&self) -> &[usize] {
        &self.keys
    }

    /// The build rows of chunk `i`.
    pub fn chunk_rows(&self, i: usize) -> &SignedRows {
        &self.chunks[i].0
    }

    /// Total build rows across all chunks.
    pub fn total_rows(&self) -> usize {
        self.chunks.iter().map(|(r, _)| r.len()).sum()
    }

    /// Probes chunk `i` with `probe` rows already co-partitioned onto it
    /// (split with the same hash over `probe_keys`). Emission within the
    /// chunk is byte-identical to [`probe_table`] over that chunk.
    pub fn probe_chunk(
        &self,
        i: usize,
        probe: &SignedRows,
        probe_keys: &[usize],
        build_is_left: bool,
        meter: &mut WorkMeter,
    ) -> RelResult<SignedRows> {
        let (rows, table) = &self.chunks[i];
        probe_table(rows, table, probe, probe_keys, build_is_left, meter)
    }
}

/// Builds a partitioned table over `rows`, indexing each hash chunk
/// separately but charging exactly one [`WorkMeter::hash_build`] over the
/// total input — the same single pass the sequential [`build_table`]
/// performs, so partitioned and sequential meters are byte-identical.
///
/// [`build_table`]: super::join::build_table
pub fn build_partitioned(
    rows: &SignedRows,
    keys: &[usize],
    parts: usize,
    meter: &mut WorkMeter,
) -> PartitionedTable {
    let chunks = Partitioner::new(parts)
        .split(rows, keys)
        .into_iter()
        .map(|chunk| {
            let table = BuiltTable::index(&chunk, keys);
            (chunk, table)
        })
        .collect();
    meter.hash_build(rows.len() as u64);
    PartitionedTable {
        keys: keys.to_vec(),
        chunks,
    }
}

/// Sequential reference for the partition-parallel probe: co-partitions
/// `probe` onto the table's chunks and probes them in partition order.
/// Multiset-identical to [`probe_table`] over the unpartitioned build (and
/// byte-identical at one partition); the meter matches exactly — each chunk
/// charges its own emit and the emits sum to the sequential total.
pub fn probe_partitioned(
    table: &PartitionedTable,
    probe: &SignedRows,
    probe_keys: &[usize],
    build_is_left: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    let chunks = Partitioner::new(table.parts()).split(probe, probe_keys);
    let mut out = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        out.extend(table.probe_chunk(i, chunk, probe_keys, build_is_left, meter)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::join::{build_table, probe_table};
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
    fn single_partition_is_byte_identical_to_sequential() {
        let build = rows(40);
        let probe = rows(60);
        let mut seq = WorkMeter::new();
        let table = build_table(&build, &[0], &mut seq);
        let direct = probe_table(&build, &table, &probe, &[0], true, &mut seq).unwrap();
        let mut par = WorkMeter::new();
        let pt = build_partitioned(&build, &[0], 1, &mut par);
        let via = probe_partitioned(&pt, &probe, &[0], true, &mut par).unwrap();
        assert_eq!(direct, via); // order included
        assert_eq!(seq, par);
    }

    #[test]
    fn partitioned_probe_is_multiset_identical_with_equal_meter() {
        let build = rows(40);
        let probe = rows(60);
        let mut seq = WorkMeter::new();
        let table = build_table(&build, &[0], &mut seq);
        let direct = probe_table(&build, &table, &probe, &[0], true, &mut seq).unwrap();
        for parts in [2, 3, 4, 8] {
            let mut par = WorkMeter::new();
            let pt = build_partitioned(&build, &[0], parts, &mut par);
            assert_eq!(pt.parts(), parts);
            assert_eq!(pt.total_rows(), build.len());
            let via = probe_partitioned(&pt, &probe, &[0], true, &mut par).unwrap();
            assert_eq!(sorted(direct.clone()), sorted(via));
            // One aggregate build charge + summed emits = sequential meter.
            assert_eq!(seq, par, "meter diverged at {parts} partitions");
        }
        // Flipped orientation too.
        let mut seq2 = WorkMeter::new();
        let t2 = build_table(&probe, &[0], &mut seq2);
        let d2 = probe_table(&probe, &t2, &build, &[0], false, &mut seq2).unwrap();
        let mut par2 = WorkMeter::new();
        let pt2 = build_partitioned(&probe, &[0], 3, &mut par2);
        let v2 = probe_partitioned(&pt2, &build, &[0], false, &mut par2).unwrap();
        assert_eq!(sorted(d2), sorted(v2));
        assert_eq!(seq2, par2);
    }

    #[test]
    fn contiguous_split_concatenates_back_in_order() {
        let input = rows(10);
        for parts in [1, 3, 4, 16] {
            let chunks = Partitioner::new(parts).split_contiguous(&input);
            assert_eq!(chunks.len(), parts);
            let flat: SignedRows = chunks.into_iter().flatten().collect();
            assert_eq!(flat, input);
        }
    }

    #[test]
    fn part_of_is_stable_and_degenerate_on_empty_keys() {
        let t = tup![Value::Int(42), Value::str("k")];
        let p = part_of(&t, &[0, 1], 8);
        assert_eq!(p, part_of(&t, &[0, 1], 8));
        assert_eq!(part_of(&t, &[], 8), 0);
        assert_eq!(part_of(&t, &[0], 1), 0);
        // Empty keys route the whole batch to chunk 0 (cross-join fallback).
        let chunks = Partitioner::new(4).split(&rows(9), &[]);
        assert_eq!(chunks[0].len(), 9);
        assert!(chunks[1..].iter().all(Vec::is_empty));
    }
}
