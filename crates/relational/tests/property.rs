//! Property-based tests for the relational substrate: the algebraic laws
//! the maintenance engine depends on.

use proptest::prelude::*;
use std::collections::BTreeMap;
use uww_relational::ops::{self, SignedRows};
use uww_relational::{
    catalog_digest, catalog_from_image, catalog_from_str, catalog_to_string, delta_digest,
    delta_from_str, delta_to_string, deltas_digest, deltas_from_image, table_digest,
    write_catalog_image, write_deltas_image, Catalog, DeltaRelation, Predicate, ScalarExpr, Schema,
    Table, Tuple, Value, ValueType, WorkMeter,
};

fn schema() -> Schema {
    Schema::of(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

fn tuple(k: i64, x: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(x)])
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..20i64, 0..10i64), 0..30)
}

fn arb_delta() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0..20i64, 0..10i64, -3..3i64), 0..30)
}

fn table_of(rows: &[(i64, i64)]) -> Table {
    let mut t = Table::new("T", schema());
    for (k, x) in rows {
        t.insert(tuple(*k, *x)).unwrap();
    }
    t
}

fn delta_of(entries: &[(i64, i64, i64)]) -> DeltaRelation {
    let mut d = DeltaRelation::new(schema());
    for (k, x, m) in entries {
        d.add(tuple(*k, *x), *m);
    }
    d
}

/// Restricts a delta so applying it to `t` never goes negative.
fn feasible_delta(t: &Table, entries: &[(i64, i64, i64)]) -> DeltaRelation {
    let mut d = DeltaRelation::new(schema());
    for (k, x, m) in entries {
        let tp = tuple(*k, *x);
        let available = t.multiplicity(&tp) as i64 + d.multiplicity(&tp);
        let m = (*m).max(-available);
        d.add(tp, m);
    }
    d
}

/// Join-side rows: a type tag (Int, Decimal or Date), that value's payload
/// and a string key, each from a domain of about four, then a payload and a
/// signed multiplicity.
fn arb_join_rows() -> impl Strategy<Value = Vec<(u8, i64, usize, i64, i64)>> {
    prop::collection::vec((0..3u8, 0..4i64, 0..4usize, 0..10i64, -3..4i64), 0..24)
}

/// The typed key of a join row: equal payloads under different tags must
/// never match.
fn typed_key(tag: u8, payload: i64) -> Value {
    match tag {
        0 => Value::Int(payload),
        1 => Value::Decimal(payload),
        _ => Value::Date(payload as i32),
    }
}

/// String keys shorter than, exactly and longer than one 8-byte word.
const STR_KEYS: [&str; 4] = ["", "a", "abcdefgh", "abcdefghi"];

/// Left rows are `(typed, str, x)`; right rows `(x, str, typed)`, so the two
/// sides name equal keys at different positions.
fn join_side(rows: &[(u8, i64, usize, i64, i64)], left: bool) -> SignedRows {
    rows.iter()
        .map(|&(tag, payload, s, x, m)| {
            let (k, s, x) = (
                typed_key(tag, payload),
                Value::str(STR_KEYS[s]),
                Value::Int(x),
            );
            let t = if left { vec![k, s, x] } else { vec![x, s, k] };
            (Tuple::new(t), m)
        })
        .collect()
}

/// The join by definition: every probe row against every build row, emitting
/// in probe order, then build order.
fn nested_loop(
    build: &[(Tuple, i64)],
    build_keys: &[usize],
    probe: &[(Tuple, i64)],
    probe_keys: &[usize],
    build_is_left: bool,
) -> SignedRows {
    let mut out = Vec::new();
    for (pt, pm) in probe {
        for (bt, bm) in build {
            if build_keys
                .iter()
                .zip(probe_keys)
                .all(|(&b, &p)| bt.get(b) == pt.get(p))
            {
                let row = if build_is_left {
                    bt.concat(pt)
                } else {
                    pt.concat(bt)
                };
                out.push((row, pm * bm));
            }
        }
    }
    out
}

/// A mixed-type row for the digest properties: strings of several lengths,
/// one with a character the snapshot escapes.
fn mixed_tuple(k: i64, s: usize) -> Tuple {
    const STRS: [&str; 4] = ["", "a", "tab\there", "longer than one eight-byte word"];
    Tuple::new(vec![Value::Int(k), Value::str(STRS[s % STRS.len()])])
}

fn mixed_schema() -> Schema {
    Schema::of(&[("k", ValueType::Int), ("s", ValueType::Str)])
}

/// One step against a table: `0` inserts, `1` deletes (refused when too few
/// copies are held), `2` installs a signed delta of the step and its two
/// neighbours (refused when a row would go negative), `3` inserts or
/// installs near `i64::MAX` copies (refused on overflow once a row or the
/// length would pass it).
fn digest_step(t: &mut Table, (op, k, s, m): (u8, i64, usize, i64)) -> bool {
    let row = mixed_tuple(k, s);
    match op {
        0 => t.insert_n(row, m.unsigned_abs()).is_ok(),
        1 => t.delete_n(&row, m.unsigned_abs()).is_ok(),
        2 => {
            let mut d = DeltaRelation::new(mixed_schema());
            d.add(row, m);
            d.add(mixed_tuple(k + 1, s + 1), -m);
            d.add(mixed_tuple(k, s + 2), m.abs());
            t.install(&d).is_ok()
        }
        _ if m % 2 == 0 => t.insert_n(row, i64::MAX as u64 - m.unsigned_abs()).is_ok(),
        _ => {
            let mut d = DeltaRelation::new(mixed_schema());
            d.add(row, i64::MAX - m.abs());
            t.install(&d).is_ok()
        }
    }
}

fn arb_digest_steps() -> impl Strategy<Value = Vec<(u8, i64, usize, i64)>> {
    prop::collection::vec((0..4u8, 0..6i64, 0..4usize, -3..4i64), 0..40)
}

/// Strings empty, one byte, exactly one 8-byte word, one byte past it (9
/// bytes, twice), and one with a character the snapshot escapes.
const HASH_STRS: [&str; 6] = ["", "a", "abcdefgh", "abcdefghi", "ninebytes", "tab\there"];

fn typed_schema() -> Schema {
    Schema::of(&[
        ("i", ValueType::Int),
        ("d", ValueType::Decimal),
        ("t", ValueType::Date),
        ("s", ValueType::Str),
        ("u", ValueType::Str),
    ])
}

/// `(i, d, t, s, u, m)`: one value of each type, two strings, a count.
type TypedRow = (i64, i64, i64, usize, usize, i64);

fn arb_typed_rows() -> impl Strategy<Value = Vec<TypedRow>> {
    prop::collection::vec(
        (-2..3i64, -2..3i64, -2..3i64, 0..6usize, 0..6usize, -3..4i64),
        0..20,
    )
}

fn typed_tuple(&(i, d, t, s, u, _): &TypedRow) -> Tuple {
    Tuple::new(vec![
        Value::Int(i),
        Value::Decimal(d),
        Value::Date(t as i32),
        Value::str(HASH_STRS[s]),
        Value::str(HASH_STRS[u]),
    ])
}

/// The cached hash is the hash of the values it sits beside.
fn hash_is_fresh(t: &Tuple) -> bool {
    t.row_hash() == Tuple::row_hash_of(t.values())
}

/// Integers at the ends of the image's varints (one, two and ten bytes) and
/// dates at the ends of their range.
const EDGE_INTS: [i64; 8] = [i64::MIN, -65, -1, 0, 1, 64, 300, i64::MAX];
const EDGE_DATES: [i32; 4] = [i32::MIN, -1, 0, i32::MAX];

/// Strings empty, 9 bytes, multibyte, tab- or newline-bearing, and longer
/// than a one-byte length.
fn edge_str(i: usize) -> String {
    match i {
        0 => String::new(),
        1 => "ninebytes".to_string(),
        2 => "naïve ☃ 日本".to_string(),
        3 => "tab\there".to_string(),
        4 => "new\nline \\".to_string(),
        _ => "long ".repeat(40),
    }
}

/// `(int, decimal, date, string, count)`, each value an index into the
/// edge lists above.
type EdgeRow = (usize, usize, usize, usize, i64);

fn arb_edge_rows() -> impl Strategy<Value = Vec<EdgeRow>> {
    prop::collection::vec(
        (0..8usize, 0..8usize, 0..4usize, 0..6usize, -3..4i64),
        0..24,
    )
}

fn edge_tuple(&(i, d, t, s, _): &EdgeRow) -> Tuple {
    Tuple::new(vec![
        Value::Int(EDGE_INTS[i]),
        Value::Decimal(EDGE_INTS[d]),
        Value::Date(EDGE_DATES[t]),
        Value::str(edge_str(s)),
    ])
}

fn edge_schema() -> Schema {
    Schema::of(&[
        ("i", ValueType::Int),
        ("d", ValueType::Decimal),
        ("t", ValueType::Date),
        ("s", ValueType::Str),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Catalogs and change batches survive the binary image: contents, kept
    /// digests, `catalog_digest` and `deltas_digest` are equal after the
    /// round trip, at the edges of every encoding and whatever order the
    /// rows went in.
    #[test]
    fn snapshot_images_round_trip(rows in arb_edge_rows()) {
        let mut forward = Table::new("T", edge_schema());
        let mut backward = Table::new("T", edge_schema());
        let mut delta = DeltaRelation::new(edge_schema());
        for row in &rows {
            forward.insert_n(edge_tuple(row), row.4.unsigned_abs()).unwrap();
            delta.add(edge_tuple(row), row.4);
        }
        for row in rows.iter().rev() {
            backward.insert_n(edge_tuple(row), row.4.unsigned_abs()).unwrap();
        }
        let mut widest = Table::new("W", edge_schema());
        widest.insert_n(edge_tuple(&(7, 0, 3, 5, 0)), i64::MAX as u64).unwrap();

        for table in [&forward, &backward] {
            let mut catalog = Catalog::new();
            for t in [table, &widest, &Table::new("E", edge_schema())] {
                catalog.register(t.clone()).unwrap();
            }
            let mut image = Vec::new();
            write_catalog_image(&mut image, &catalog).unwrap();
            let back = catalog_from_image(&image).unwrap();
            prop_assert_eq!(back.len(), 3);
            prop_assert_eq!(catalog_digest(&back), catalog_digest(&catalog));
            for t in catalog.iter() {
                let b = back.get(t.name()).unwrap();
                prop_assert!(b.same_contents(t));
                prop_assert_eq!(b.digest(), t.digest());
                prop_assert_eq!(b.schema(), t.schema());
            }
            // Rows that went in in either order decode to the same content.
            prop_assert!(back.get("T").unwrap().same_contents(&forward));
        }

        let mut widest = DeltaRelation::new(edge_schema());
        widest.add(edge_tuple(&(0, 7, 0, 2, 0)), -i64::MAX);
        widest.add(edge_tuple(&(7, 0, 3, 0, 0)), i64::MAX);
        let mut batch = BTreeMap::new();
        batch.insert("A".to_string(), delta);
        batch.insert("B".to_string(), widest);
        batch.insert("C".to_string(), DeltaRelation::new(edge_schema()));
        let named = || batch.iter().map(|(n, d)| (n.as_str(), d));
        let mut image = Vec::new();
        write_deltas_image(&mut image, named()).unwrap();
        let back = deltas_from_image(&image).unwrap();
        prop_assert_eq!(
            deltas_digest(back.iter().map(|(n, d)| (n.as_str(), d))),
            deltas_digest(named())
        );
        prop_assert_eq!(back.len(), batch.len());
        for (name, d) in &batch {
            prop_assert_eq!(back[name].sorted_rows(), d.sorted_rows());
            prop_assert_eq!(back[name].schema(), d.schema());
        }
    }

    /// However a tuple is built — `new`, `project`, `concat`, read back from
    /// a snapshot or from delta text — its cached hash equals a fresh fold
    /// over its values; equal tuples hash equally; and `Int(k)`,
    /// `Decimal(k)` and `Date(k)` rows hash apart.
    #[test]
    fn the_cached_row_hash_is_never_stale(rows in arb_typed_rows()) {
        let mut table = Table::new("T", typed_schema());
        let mut delta = DeltaRelation::new(typed_schema());
        let joined_schema = Schema::of(&[
            ("a", ValueType::Str),
            ("b", ValueType::Int),
            ("c", ValueType::Str),
        ])
        .concat(&typed_schema())
        .unwrap();
        let mut joined_delta = DeltaRelation::new(joined_schema.clone());
        let mut built_delta = DeltaRelation::new(joined_schema);
        for row in &rows {
            let t = typed_tuple(row);
            prop_assert!(hash_is_fresh(&t));
            prop_assert_eq!(t.row_hash(), typed_tuple(row).row_hash());
            let projected = t.project(&[4, 0, 3]);
            prop_assert!(hash_is_fresh(&projected));
            let rebuilt = Tuple::new(vec![t.get(4).clone(), t.get(0).clone(), t.get(3).clone()]);
            prop_assert_eq!(&projected, &rebuilt);
            prop_assert_eq!(projected.row_hash(), rebuilt.row_hash());
            let joined = projected.concat(&t);
            prop_assert!(hash_is_fresh(&joined));
            prop_assert_eq!(joined.project(&[3, 4, 5, 6, 7]), t.clone());

            let (i, k) = (row.0, Value::Int(row.0));
            let typed = [k, Value::Decimal(i), Value::Date(i as i32)].map(|v| Tuple::new(vec![v]));
            prop_assert_ne!(typed[0].row_hash(), typed[1].row_hash());
            prop_assert_ne!(typed[0].row_hash(), typed[2].row_hash());
            prop_assert_ne!(typed[1].row_hash(), typed[2].row_hash());

            table.insert_n(t.clone(), row.5.unsigned_abs()).unwrap();
            delta.add(t, row.5);
            // A joined row carries no hash until a delta keeps it.
            joined_delta.add(joined.clone(), row.5);
            built_delta.add(Tuple::new(joined.values().to_vec()), row.5);
        }
        prop_assert_eq!(delta_digest(&joined_delta), delta_digest(&built_delta));
        for (t, m) in joined_delta.iter() {
            prop_assert!(hash_is_fresh(t));
            prop_assert_eq!(built_delta.multiplicity(t), m);
        }

        let mut catalog = Catalog::new();
        catalog.register(table.clone()).unwrap();
        let back = catalog_from_str(&catalog_to_string(&catalog)).unwrap();
        let back = back.get("T").unwrap();
        prop_assert!(back.same_contents(&table));
        prop_assert_eq!(back.digest(), table.digest());
        for (t, _) in back.iter() {
            prop_assert!(hash_is_fresh(t));
        }

        let read = delta_from_str(&delta_to_string(&delta)).unwrap();
        prop_assert_eq!(read.sorted_rows(), delta.sorted_rows());
        for (t, m) in read.iter() {
            prop_assert!(hash_is_fresh(t));
            prop_assert_eq!(delta.multiplicity(t), m);
        }
    }

    /// The hash-join kernel is the nested-loop join, byte for byte and meter
    /// for meter: `probe_table` over either side's build table, and
    /// `hash_join`, whichever side it builds on — over no key, the typed
    /// key, the string key, or both.
    #[test]
    fn join_kernel_equals_nested_loop(
        left in arb_join_rows(),
        right in arb_join_rows(),
        keys in 0..4usize,
    ) {
        let (l, r) = (join_side(&left, true), join_side(&right, false));
        let key_choices: [(&[usize], &[usize]); 4] =
            [(&[], &[]), (&[0], &[2]), (&[1], &[1]), (&[0, 1], &[2, 1])];
        let (lk, rk) = key_choices[keys];
        // A build charges a keyed build, or a plain pass over no key.
        let built = |n: usize, emitted: usize| {
            let mut m = WorkMeter::new();
            if lk.is_empty() { m.touch(n as u64) } else { m.hash_build(n as u64) }
            m.emit(emitted as u64);
            m
        };
        for build_is_left in [true, false] {
            let (build, bk, probe, pk) =
                if build_is_left { (&l, lk, &r, rk) } else { (&r, rk, &l, lk) };
            let mut m = WorkMeter::new();
            let table = ops::build_table(build, bk, &mut m);
            let out = ops::probe_table(build, &table, probe, pk, build_is_left, &mut m).unwrap();
            prop_assert_eq!(&out, &nested_loop(build, bk, probe, pk, build_is_left));
            prop_assert_eq!(m, built(build.len(), out.len()));
        }
        // hash_join builds on the smaller side; over no key it is the cross
        // product in left order, which is the nested loop probing with left.
        let mut m = WorkMeter::new();
        let out = ops::hash_join(&l, lk, &r, rk, &mut m).unwrap();
        let mut expected = WorkMeter::new();
        expected.emit(out.len() as u64);
        if lk.is_empty() || l.len() > r.len() {
            prop_assert_eq!(&out, &nested_loop(&r, rk, &l, lk, false));
        } else {
            prop_assert_eq!(&out, &nested_loop(&l, lk, &r, rk, true));
        }
        if !lk.is_empty() {
            expected.hash_build(l.len().min(r.len()) as u64);
        }
        prop_assert_eq!(m, expected);
    }

    /// Installing a merged delta equals installing the parts in sequence.
    #[test]
    fn install_is_homomorphic(rows in arb_rows(), d1 in arb_delta(), d2 in arb_delta()) {
        let t = table_of(&rows);
        let a = feasible_delta(&t, &d1);
        // b must be feasible against t+a.
        let t_after_a = a.applied_to(&t).unwrap();
        let b = feasible_delta(&t_after_a, &d2);

        // Sequential installs.
        let seq = b.applied_to(&t_after_a).unwrap();

        // Merged install (may be infeasible intermediate-free; merged is
        // feasible because net counts match the sequential result).
        let mut merged = a.clone();
        merged.merge(&b);
        match merged.applied_to(&t) {
            Ok(together) => prop_assert!(together.same_contents(&seq)),
            Err(_) => {
                // Merging can only fail feasibility if some tuple's combined
                // negative exceeds t's stock, which cannot happen since the
                // sequential path succeeded with the same net counts.
                prop_assert!(false, "merged install must succeed");
            }
        }
    }

    /// `len`, `net_count`, `plus_len`, `minus_len` are consistent.
    #[test]
    fn delta_size_invariants(d in arb_delta()) {
        let d = delta_of(&d);
        prop_assert_eq!(d.len(), d.plus_len() + d.minus_len());
        prop_assert_eq!(d.net_count(), d.plus_len() as i64 - d.minus_len() as i64);
        prop_assert!(d.distinct_len() as u64 <= d.len());
    }

    /// Join distributes over signed union:
    /// (a ∪ b) ⋈ c == (a ⋈ c) ∪ (b ⋈ c) as signed multisets.
    #[test]
    fn join_distributes_over_union(a in arb_delta(), b in arb_delta(), c in arb_rows()) {
        let mut m = WorkMeter::new();
        let ra: SignedRows = delta_of(&a).iter().map(|(t, n)| (t.clone(), n)).collect();
        let rb: SignedRows = delta_of(&b).iter().map(|(t, n)| (t.clone(), n)).collect();
        let rc: SignedRows = table_of(&c).iter().map(|(t, n)| (t.clone(), n as i64)).collect();

        let mut union = ra.clone();
        union.extend(rb.clone());
        let joined_union = ops::consolidate(ops::hash_join(&union, &[0], &rc, &[0], &mut m).unwrap());

        let mut parts = ops::hash_join(&ra, &[0], &rc, &[0], &mut m).unwrap();
        parts.extend(ops::hash_join(&rb, &[0], &rc, &[0], &mut m).unwrap());
        let joined_parts = ops::consolidate(parts);

        let mut ju = joined_union;
        let mut jp = joined_parts;
        ju.sort();
        jp.sort();
        prop_assert_eq!(ju, jp);
    }

    /// Filter commutes with consolidation and preserves multiplicities.
    #[test]
    fn filter_commutes_with_consolidate(d in arb_delta()) {
        let pred = Predicate::col_lt("k", Value::Int(10)).bind(&schema()).unwrap();
        let rows: SignedRows = delta_of(&d).iter().map(|(t, n)| (t.clone(), n)).collect();
        let mut a = ops::consolidate(ops::filter(rows.clone(), &pred).unwrap());
        let mut b = ops::filter(ops::consolidate(rows), &pred).unwrap();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Signed grouping is additive: grouping a concatenation equals merging
    /// the groupings (the foundation of piecemeal Comp accumulation).
    #[test]
    fn grouping_is_additive(a in arb_delta(), b in arb_delta()) {
        let spec = ops::AggSpec {
            group_by: vec![ScalarExpr::col("k").bind(&schema()).unwrap()],
            aggs: vec![(
                ops::AggFunc::Sum,
                ScalarExpr::col("x").bind(&schema()).unwrap(),
                ValueType::Int,
            )],
        };
        let ra: SignedRows = delta_of(&a).iter().map(|(t, n)| (t.clone(), n)).collect();
        let rb: SignedRows = delta_of(&b).iter().map(|(t, n)| (t.clone(), n)).collect();
        let mut concat = ra.clone();
        concat.extend(rb.clone());

        let whole = ops::group_rows(&concat, &spec).unwrap();

        let ga = ops::group_rows(&ra, &spec).unwrap();
        let gb = ops::group_rows(&rb, &spec).unwrap();
        let mut merged = ga;
        for (k, acc) in gb {
            use std::collections::hash_map::Entry;
            match merged.entry(k) {
                Entry::Occupied(mut e) => {
                    e.get_mut().merge(&acc);
                    if e.get().is_identity() {
                        e.remove();
                    }
                }
                Entry::Vacant(e) => { e.insert(acc); }
            }
        }
        prop_assert_eq!(whole, merged);
    }

    /// `install` then inverse-install restores the table.
    #[test]
    fn install_roundtrip(rows in arb_rows(), d in arb_delta()) {
        let t = table_of(&rows);
        let delta = feasible_delta(&t, &d);
        let mut inverse = DeltaRelation::new(schema());
        for (tp, m) in delta.iter() {
            inverse.add(tp.clone(), -m);
        }
        let forward = delta.applied_to(&t).unwrap();
        let back = inverse.applied_to(&forward).unwrap();
        prop_assert!(back.same_contents(&t));
    }

    /// The digest a table keeps through `insert_n`, `delete_n` and `install`
    /// — refused calls included — is the digest a walk over its rows
    /// computes; a clone carries it; it does not depend on insertion order;
    /// and a row more, a row fewer or a copy fewer changes it.
    #[test]
    fn kept_digest_is_the_walked_content_digest(steps in arb_digest_steps()) {
        let mut t = Table::new("T", mixed_schema());
        for step in steps {
            let before = t.digest();
            if !digest_step(&mut t, step) {
                prop_assert_eq!(t.digest(), before, "a refused call moved the digest");
            }
            prop_assert_eq!(t.digest(), table_digest(&t));
        }
        prop_assert_eq!(t.clone().digest(), t.digest());

        let mut rows: Vec<(Tuple, u64)> = t.iter().map(|(r, m)| (r.clone(), m)).collect();
        rows.sort();
        let mut reversed = Table::new("R", mixed_schema());
        for (r, m) in rows.iter().rev() {
            // Split each multiplicity over two calls, the larger half last.
            reversed.insert_n(r.clone(), m / 2).unwrap();
            reversed.insert_n(r.clone(), m - m / 2).unwrap();
        }
        prop_assert!(reversed.same_contents(&t));
        prop_assert_eq!(reversed.digest(), t.digest());

        if t.len() < u64::MAX {
            let mut one_row_more = t.clone();
            one_row_more.insert(mixed_tuple(-1, 0)).unwrap();
            prop_assert_ne!(one_row_more.digest(), t.digest());
        }
        if let Some((r, m)) = rows.first() {
            let mut one_row_less = t.clone();
            one_row_less.delete_n(r, *m).unwrap();
            prop_assert_ne!(one_row_less.digest(), t.digest());
            let mut one_copy_less = t.clone();
            one_copy_less.delete_n(r, 1).unwrap();
            prop_assert_ne!(one_copy_less.digest(), t.digest());
        }
    }
}

/// The row hash is a format, not a detail: WAL `ID` records and manifests
/// pin table digests, which add it up. One fixed table's digest, by value.
#[test]
fn a_fixed_tables_digest_is_pinned() {
    let mut t = Table::new("T", typed_schema());
    for row in [
        (1, 250, 9_000, 0, 3, 2),
        (-7, -1, 0, 4, 1, 1),
        (i64::MAX, i64::MIN, -1, 2, 5, 3),
    ] {
        t.insert_n(typed_tuple(&row), row.5 as u64).unwrap();
    }
    assert_eq!(t.digest(), table_digest(&t));
    assert_eq!(t.digest(), 0x49b2_6f83_a5e7_0a3e);
}
