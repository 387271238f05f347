//! Join operators on signed row batches.

use super::keyhash::key_hash;
use super::SignedRows;
use crate::error::{RelError, RelResult};
use crate::meter::WorkMeter;
use crate::tuple::Tuple;

/// Hash equi-join.
///
/// Joins `left` and `right` on `left[left_keys[i]] == right[right_keys[i]]`
/// for all `i`, concatenating matching tuples (left columns first) and
/// multiplying their signed multiplicities ([`RelError::Overflow`] when a
/// product leaves `i64`). Builds the hash table on the smaller batch. Key
/// lists of different lengths are a [`RelError::SchemaMismatch`].
pub fn hash_join(
    left: &[(Tuple, i64)],
    left_keys: &[usize],
    right: &[(Tuple, i64)],
    right_keys: &[usize],
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    check_key_arity(left_keys.len(), right_keys.len())?;
    if left_keys.is_empty() {
        return cross_join(left, right, meter);
    }
    // Build on the smaller side to bound memory; probe with the larger.
    let build_left = left.len() <= right.len();
    let (build, build_keys, probe, probe_keys) = if build_left {
        (left, left_keys, right, right_keys)
    } else {
        (right, right_keys, left, left_keys)
    };
    let table = build_table(build, build_keys, meter);
    probe_table(build, &table, probe, probe_keys, build_left, meter)
}

/// The signed multiplicity of a joined row: the product of its inputs'.
fn joined_multiplicity(a: i64, b: i64) -> RelResult<i64> {
    a.checked_mul(b)
        .ok_or_else(|| RelError::Overflow("join multiplicity".to_string()))
}

/// Two join sides must name the same number of key columns.
fn check_key_arity(a: usize, b: usize) -> RelResult<()> {
    if a == b {
        return Ok(());
    }
    Err(RelError::SchemaMismatch {
        detail: format!("join key arity mismatch: {a} key columns against {b}"),
    })
}

/// The end of a chain in [`BuiltTable`]'s `heads` and `next`.
pub(super) const NIL: usize = usize::MAX;

/// A hash-join build table decoupled from the batch it indexes: chains of
/// indices into the build batch, one chain per bucket, each in batch order.
/// Because it holds indices rather than row references it has no lifetime
/// tie and can be interned (e.g. in an `Arc`) and probed many times, from
/// any number of threads at once — the shared-operand term engine reuses
/// one table across every term that joins the same operand on the same key
/// columns, and probes it with contiguous slices of the probe side in
/// parallel.
///
/// The layout is flat: one key hash and one `next` link per build row, and
/// a power-of-two `heads` array with at least two buckets per row, indexed
/// by a hash's top bits. A probe hashes its key columns in place, walks one
/// chain and compares key columns only on an equal hash; neither side ever
/// materializes a key tuple.
#[derive(Debug)]
pub struct BuiltTable {
    /// Key columns of the build rows.
    keys: Vec<usize>,
    /// `key_hash` of each build row.
    hashes: Vec<u64>,
    /// The first row of each bucket's chain, or [`NIL`].
    heads: Vec<usize>,
    /// The row after each row in its bucket's chain, or [`NIL`].
    next: Vec<usize>,
}

impl BuiltTable {
    fn index(rows: &[(Tuple, i64)], keys: &[usize]) -> BuiltTable {
        let hashes: Vec<u64> = rows.iter().map(|(t, _)| key_hash(t, keys)).collect();
        let mut heads = vec![NIL; (2 * rows.len()).next_power_of_two().max(2)];
        let mut next = vec![NIL; rows.len()];
        let shift = bucket_shift(heads.len());
        // Back to front: each row goes on the head of its chain, so every
        // chain lists its rows in batch order.
        for (i, &h) in hashes.iter().enumerate().rev() {
            let b = (h >> shift) as usize;
            next[i] = heads[b];
            heads[b] = i;
        }
        BuiltTable {
            keys: keys.to_vec(),
            hashes,
            heads,
            next,
        }
    }
}

/// The right shift that turns a hash into an index into `buckets` (a power
/// of two, at least 2) buckets: its top bits, where the hash mixes best.
pub(super) fn bucket_shift(buckets: usize) -> u32 {
    u64::BITS - buckets.trailing_zeros()
}

/// Indexes `rows` by their values at `keys`. Charges one
/// [`WorkMeter::hash_build`] over the input size — a physical pass the
/// paper's logical metric does not model separately.
///
/// An **empty** key list degenerates to a single bucket holding every row:
/// a disguised cross join, not a hash build. It is metered as a plain
/// physical pass ([`WorkMeter::touch`]) so `hash_tables_built` counts only
/// genuine keyed builds — the quantity the static sharing plan predicts and
/// the conformance oracle compares against ([`hash_join`] never reaches
/// this path; it routes empty keys to [`cross_join`] outright).
pub fn build_table(rows: &[(Tuple, i64)], keys: &[usize], meter: &mut WorkMeter) -> BuiltTable {
    if keys.is_empty() {
        meter.touch(rows.len() as u64);
    } else {
        meter.hash_build(rows.len() as u64);
    }
    BuiltTable::index(rows, keys)
}

/// Probes `table` (built over `build` — the same batch, same order) with
/// `probe`, concatenating matches with the build columns on the left when
/// `build_is_left`. Emission order and content are byte-identical to the
/// equivalent [`hash_join`] call. Output follows probe order, so probing
/// contiguous slices of `probe` and concatenating the results in slice order
/// reproduces one call over the whole batch exactly, meter included.
/// `probe_keys` must name as many columns as the table was built on
/// ([`RelError::SchemaMismatch`] otherwise).
pub fn probe_table(
    build: &[(Tuple, i64)],
    table: &BuiltTable,
    probe: &[(Tuple, i64)],
    probe_keys: &[usize],
    build_is_left: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    debug_assert_eq!(
        build.len(),
        table.hashes.len(),
        "table built over another batch"
    );
    let chains = Chains {
        keys: &table.keys,
        hashes: &table.hashes,
        heads: &table.heads,
        next: &table.next,
    };
    probe_chains(build, chains, probe, probe_keys, build_is_left, meter)
}

/// Hash chains over a build batch, as [`probe_chains`] walks them: the key
/// columns, each build row's key hash and chain link, and the bucket heads.
pub(super) struct Chains<'a> {
    pub(super) keys: &'a [usize],
    pub(super) hashes: &'a [u64],
    pub(super) heads: &'a [usize],
    pub(super) next: &'a [usize],
}

/// The probe loop of [`probe_table`] and of a maintained index: per probe
/// row, hash its key columns in place, walk one chain and compare key
/// columns only on an equal hash.
pub(super) fn probe_chains(
    build: &[(Tuple, i64)],
    chains: Chains<'_>,
    probe: &[(Tuple, i64)],
    probe_keys: &[usize],
    build_is_left: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    check_key_arity(probe_keys.len(), chains.keys.len())?;
    let shift = bucket_shift(chains.heads.len());
    let mut out = Vec::new();
    for (t, m) in probe {
        let h = key_hash(t, probe_keys);
        let mut bi = chains.heads[(h >> shift) as usize];
        while bi != NIL {
            let (bt, bm) = &build[bi];
            let same_key = || {
                let mut pairs = chains.keys.iter().zip(probe_keys);
                pairs.all(|(&bk, &pk)| bt.get(bk) == t.get(pk))
            };
            if chains.hashes[bi] == h && same_key() {
                let row = if build_is_left {
                    bt.concat(t)
                } else {
                    t.concat(bt)
                };
                out.push((row, joined_multiplicity(*m, *bm)?));
            }
            bi = chains.next[bi];
        }
    }
    meter.emit(out.len() as u64);
    Ok(out)
}

/// Cross product, multiplying multiplicities. Used only when a view
/// definition genuinely has no equi-join between two source groups. Like
/// [`probe_table`] it emits in `left` order, so contiguous slices of `left`
/// concatenate back to the whole product.
pub fn cross_join(
    left: &[(Tuple, i64)],
    right: &[(Tuple, i64)],
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for (lt, lm) in left {
        for (rt, rm) in right {
            out.push((lt.concat(rt), joined_multiplicity(*lm, *rm)?));
        }
    }
    meter.emit(out.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::value::Value;

    fn l() -> SignedRows {
        vec![
            (tup![Value::Int(1), Value::str("a")], 1),
            (tup![Value::Int(2), Value::str("b")], 2),
            (tup![Value::Int(3), Value::str("c")], -1),
        ]
    }

    fn r() -> SignedRows {
        vec![
            (tup![Value::Int(1), Value::Int(100)], 1),
            (tup![Value::Int(2), Value::Int(200)], -1),
            (tup![Value::Int(2), Value::Int(201)], 1),
            (tup![Value::Int(9), Value::Int(900)], 1),
        ]
    }

    #[test]
    fn equi_join_multiplies_signs() {
        let mut m = WorkMeter::new();
        let mut out = hash_join(&l(), &[0], &r(), &[0], &mut m).unwrap();
        out.sort();
        // key 1: 1*1 = +1 row; key 2: 2*-1 and 2*1; key 3 and 9 unmatched.
        assert_eq!(out.len(), 3);
        let find = |k: i64, v: i64| {
            out.iter()
                .find(|(t, _)| t.get(0).as_int() == Some(k) && t.get(3).as_int() == Some(v))
                .map(|(_, m)| *m)
        };
        assert_eq!(find(1, 100), Some(1));
        assert_eq!(find(2, 200), Some(-2));
        assert_eq!(find(2, 201), Some(2));
        // Left columns come first regardless of build side.
        assert_eq!(out[0].0.arity(), 4);
        assert_eq!(out[0].0.get(1).as_str(), Some("a"));
    }

    #[test]
    fn column_order_stable_when_build_side_flips() {
        let mut m = WorkMeter::new();
        let small = vec![(tup![Value::Int(1), Value::str("x")], 1)];
        // left smaller -> build left; left bigger -> build right. Both must
        // emit left-columns-first.
        let a = hash_join(&small, &[0], &r(), &[0], &mut m).unwrap();
        let big_left: SignedRows = (0..10)
            .map(|i| (tup![Value::Int(i % 2), Value::str("y")], 1))
            .collect();
        let b = hash_join(&big_left, &[0], &r(), &[0], &mut m).unwrap();
        assert_eq!(a[0].0.get(1).as_str(), Some("x"));
        assert!(b.iter().all(|(t, _)| t.get(1).as_str() == Some("y")));
    }

    #[test]
    fn multi_column_keys() {
        let mut m = WorkMeter::new();
        let a = vec![(tup![Value::Int(1), Value::Int(2)], 1)];
        let b = vec![
            (tup![Value::Int(1), Value::Int(2)], 3),
            (tup![Value::Int(1), Value::Int(9)], 5),
        ];
        let out = hash_join(&a, &[0, 1], &b, &[0, 1], &mut m).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, 3);
    }

    #[test]
    fn cross_product() {
        let mut m = WorkMeter::new();
        let out = cross_join(&l(), &r(), &mut m).unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(m.rows_emitted, 12);
    }

    #[test]
    fn empty_key_list_is_cross_join() {
        let mut m = WorkMeter::new();
        let out = hash_join(&l(), &[], &r(), &[], &mut m).unwrap();
        assert_eq!(out.len(), 12);
    }

    #[test]
    fn cross_degeneration_keeps_operand_scan_accounting() {
        // Operand scans are charged by the scan operators (`scan_table` /
        // `scan_delta`), never inside a join — so the keyed path and the
        // empty-key cross degeneration must agree: neither touches
        // `operand_rows_scanned`, both charge their output as emitted. The
        // keyed path additionally charges its build pass as physical work;
        // the cross path builds no table and must charge none.
        let mut keyed = WorkMeter::new();
        hash_join(&l(), &[0], &r(), &[0], &mut keyed).unwrap();
        let mut cross = WorkMeter::new();
        let out = hash_join(&l(), &[], &r(), &[], &mut cross).unwrap();
        assert_eq!(keyed.operand_rows_scanned, 0);
        assert_eq!(cross.operand_rows_scanned, 0);
        assert_eq!(cross.rows_emitted, out.len() as u64);
        assert_eq!(keyed.hash_tables_built, 1);
        assert_eq!(keyed.physical_rows_touched, 3); // build side = smaller l()
        assert_eq!(cross.hash_tables_built, 0);
        assert_eq!(cross.physical_rows_touched, 0);
    }

    #[test]
    fn empty_key_build_meters_as_scan_not_hash_build() {
        // A degenerate single-bucket "build" is a disguised cross join: it
        // must charge the pass as physical rows touched, never as a hash
        // build the conformance oracle would expect the static plan to have
        // predicted.
        let mut m = WorkMeter::new();
        let t = build_table(&l(), &[], &mut m);
        assert_eq!(m.hash_tables_built, 0);
        assert_eq!(m.physical_rows_touched, l().len() as u64);
        // The single bucket still probes correctly (every probe row matches).
        let out = probe_table(&l(), &t, &r(), &[], true, &mut m).unwrap();
        assert_eq!(out.len(), l().len() * r().len());
        // A keyed build over the same rows does charge a build.
        let mut k = WorkMeter::new();
        build_table(&l(), &[0], &mut k);
        assert_eq!(k.hash_tables_built, 1);
        assert_eq!(k.physical_rows_touched, l().len() as u64);
    }

    #[test]
    fn multiplicity_overflow_is_a_typed_error() {
        // Two rows of multiplicity i64::MAX join to a product outside i64:
        // a typed error on every path, never a debug panic or a release wrap.
        let big = vec![(tup![Value::Int(1)], i64::MAX)];
        let overflow = Err(RelError::Overflow("join multiplicity".to_string()));
        let mut m = WorkMeter::new();
        assert_eq!(hash_join(&big, &[0], &big, &[0], &mut m), overflow);
        assert_eq!(cross_join(&big, &big, &mut m), overflow);
        let table = build_table(&big, &[0], &mut m);
        assert_eq!(
            probe_table(&big, &table, &big, &[0], true, &mut m),
            overflow
        );
        // The largest representable product still joins.
        let one = vec![(tup![Value::Int(1)], -1)];
        let out = hash_join(&big, &[0], &one, &[0], &mut m).unwrap();
        assert_eq!(out[0].1, -i64::MAX);
    }

    #[test]
    fn hash_join_key_arity_mismatch_is_a_typed_error() {
        // Including one empty side, which must not pass for a cross join.
        let mut m = WorkMeter::new();
        for (lk, rk) in [(&[0][..], &[0, 1][..]), (&[], &[0])] {
            let out = hash_join(&l(), lk, &r(), rk, &mut m);
            assert!(
                matches!(out, Err(RelError::SchemaMismatch { .. })),
                "{out:?}"
            );
        }
        assert_eq!(m, WorkMeter::new());
    }

    #[test]
    fn probe_key_arity_mismatch_is_a_typed_error() {
        // Keyed on two columns; probe keys of one or none would otherwise
        // compare a prefix of the key, or nothing, and mis-match.
        let table = build_table(&r(), &[0, 1], &mut WorkMeter::new());
        let mut m = WorkMeter::new();
        for probe_keys in [&[0][..], &[]] {
            let out = probe_table(&r(), &table, &l(), probe_keys, false, &mut m);
            assert!(
                matches!(out, Err(RelError::SchemaMismatch { .. })),
                "{out:?}"
            );
        }
        assert_eq!(m, WorkMeter::new());
    }

    #[test]
    fn prebuilt_probe_matches_hash_join_bytes() {
        // probe_table over an interned BuiltTable must reproduce hash_join
        // exactly — same rows, same multiplicities, same emission order —
        // for both build-side orientations.
        let mut m1 = WorkMeter::new();
        let direct = hash_join(&l(), &[0], &r(), &[0], &mut m1).unwrap();
        let mut m2 = WorkMeter::new();
        // l() is smaller, so hash_join built on the left.
        let table = build_table(&l(), &[0], &mut m2);
        let via_table = probe_table(&l(), &table, &r(), &[0], true, &mut m2).unwrap();
        assert_eq!(direct, via_table);
        assert_eq!(m1.rows_emitted, m2.rows_emitted);
        // Flipped orientation: build on the right batch.
        let mut m3 = WorkMeter::new();
        let big_left: SignedRows = (0..10)
            .map(|i| (tup![Value::Int(i % 2), Value::str("y")], 1))
            .collect();
        let direct_flip = hash_join(&big_left, &[0], &r(), &[0], &mut m3).unwrap();
        let mut m4 = WorkMeter::new();
        let rt = build_table(&r(), &[0], &mut m4);
        let via_flip = probe_table(&r(), &rt, &big_left, &[0], false, &mut m4).unwrap();
        assert_eq!(direct_flip, via_flip);
    }

    #[test]
    fn chunking_the_probe_side_is_invisible_order_included() {
        // One table over the whole build side; the probe side cut into
        // contiguous chunks, each probed on its own meter. Concatenated in
        // chunk order the outputs equal one call byte for byte, and the
        // meters sum to its meter — for both orientations and the cross join.
        let rows = |n: i64| -> SignedRows {
            (0..n)
                .map(|i| {
                    let m = if i % 5 == 0 { -1 } else { 1 + i % 3 };
                    (tup![Value::Int(i % 7), Value::str(format!("r{i}"))], m)
                })
                .collect()
        };
        let (build, probe) = (rows(40), rows(60));
        let table = build_table(&build, &[0], &mut WorkMeter::new());
        // `op` over the whole probe side versus over its chunks.
        fn check(
            what: &str,
            probe: &[(Tuple, i64)],
            op: impl Fn(&[(Tuple, i64)], &mut WorkMeter) -> SignedRows,
        ) {
            for chunks in [1, 2, 3, probe.len()] {
                let mut whole = WorkMeter::new();
                let direct = op(probe, &mut whole);
                let (mut via, mut parts) = (Vec::new(), WorkMeter::new());
                for c in probe.chunks(probe.len().div_ceil(chunks)) {
                    let mut own = WorkMeter::new();
                    via.extend(op(c, &mut own));
                    parts.absorb(&own);
                }
                assert_eq!(direct, via, "{what}, {chunks} chunks");
                assert_eq!(whole, parts, "{what}, {chunks} chunks");
            }
        }
        check("build left", &probe, |c, m| {
            probe_table(&build, &table, c, &[0], true, m).unwrap()
        });
        check("build right", &probe, |c, m| {
            probe_table(&build, &table, c, &[0], false, m).unwrap()
        });
        check("cross join", &probe, |c, m| cross_join(c, &l(), m).unwrap());
    }
}
