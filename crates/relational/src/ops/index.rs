//! Maintained join indexes: a stored extent's filtered rows, kept current
//! by the deltas installed into it, with hash chains on the key columns
//! maintenance terms probe it by.
//!
//! A [`BuiltTable`](super::BuiltTable) indexes one batch once. A
//! [`MaintainedIndex`] is built once over a table's rows that pass some
//! pushed-down filters and then edited row by row by every install
//! ([`MaintainedIndex::apply`]), so a term that joins the stored extent
//! probes it at a cost proportional to its other inputs, not to the extent.
//!
//! The layout is [`BuiltTable`](super::BuiltTable)'s, made editable: the
//! rows are dense, each distinct row once with its multiplicity; every
//! chain set has one hash and one `next` link per row and a power-of-two
//! `heads` array with at least two buckets per row. One chain set per key
//! column list is what probes walk. An *editable* index also has a chain
//! set on the whole row, which finds a row to edit, and a `prev` link per
//! row in every chain set: a row leaves every chain in O(1) through it —
//! never by walking its key's chain, which on a low-cardinality key holds a
//! large share of the extent — and the last row moves into the freed slot,
//! as `Vec::swap_remove` does. An index becomes editable at its first edit,
//! so one that is only ever probed never hashes whole rows.

use super::join::{bucket_shift, probe_chains, Chains as ChainView, NIL};
use super::keyhash::{key_hash, row_hash};
use super::SignedRows;
use crate::delta::DeltaRelation;
use crate::error::{RelError, RelResult};
use crate::expr::BoundPredicate;
use crate::meter::WorkMeter;
use crate::table::Table;
use crate::tuple::Tuple;
use std::collections::BTreeMap;

/// Hash chains over a dense slot array, doubly linked once editable.
#[derive(Clone, Debug)]
struct Chains {
    /// The hash of each slot.
    hashes: Vec<u64>,
    /// The first slot of each bucket's chain, or [`NIL`].
    heads: Vec<usize>,
    /// The slot after each slot in its chain, or [`NIL`].
    next: Vec<usize>,
    /// The slot before each slot in its chain, or [`NIL`]; empty until
    /// [`Chains::link_back`].
    prev: Vec<usize>,
}

impl Chains {
    /// Singly linked chains over `hashes`, each in slot order.
    fn new(hashes: Vec<u64>) -> Chains {
        let n = hashes.len();
        let mut chains = Chains {
            hashes,
            heads: vec![NIL; (2 * n).next_power_of_two().max(2)],
            next: vec![NIL; n],
            prev: Vec::new(),
        };
        for slot in (0..n).rev() {
            let b = chains.bucket(chains.hashes[slot]);
            chains.next[slot] = chains.heads[b];
            chains.heads[b] = slot;
        }
        chains
    }

    /// Adds the `prev` links that make the chains editable.
    fn link_back(&mut self) {
        self.prev = vec![NIL; self.next.len()];
        for (slot, &n) in self.next.iter().enumerate() {
            if n != NIL {
                self.prev[n] = slot;
            }
        }
    }

    /// Rebuilds every (editable) chain over `buckets` buckets, each in slot
    /// order.
    fn relink(&mut self, buckets: usize) {
        self.heads = vec![NIL; buckets];
        for slot in (0..self.hashes.len()).rev() {
            self.link(slot);
        }
    }

    fn bucket(&self, h: u64) -> usize {
        (h >> bucket_shift(self.heads.len())) as usize
    }

    /// The first slot of the chain `h` hashes to, or [`NIL`].
    fn first(&self, h: u64) -> usize {
        self.heads[self.bucket(h)]
    }

    /// Puts `slot` at the head of its chain.
    fn link(&mut self, slot: usize) {
        let b = self.bucket(self.hashes[slot]);
        let head = self.heads[b];
        self.next[slot] = head;
        self.prev[slot] = NIL;
        if head != NIL {
            self.prev[head] = slot;
        }
        self.heads[b] = slot;
    }

    /// Points the links that led to the row just moved into `slot` — its
    /// chain neighbours' or its bucket head — at `slot`; the row's own
    /// links are already right.
    fn relink_neighbours(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            let b = self.bucket(self.hashes[slot]);
            self.heads[b] = slot;
        } else {
            self.next[p] = slot;
        }
        if n != NIL {
            self.prev[n] = slot;
        }
    }

    /// Appends a slot hashing to `h`, doubling the buckets when there would
    /// be fewer than two per slot.
    fn push(&mut self, h: u64) {
        self.hashes.push(h);
        self.next.push(NIL);
        self.prev.push(NIL);
        if 2 * self.hashes.len() > self.heads.len() {
            self.relink(2 * self.heads.len());
        } else {
            self.link(self.hashes.len() - 1);
        }
    }

    /// Unlinks `slot` and moves the last slot into its place.
    fn swap_remove(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            let b = self.bucket(self.hashes[slot]);
            self.heads[b] = n;
        } else {
            self.next[p] = n;
        }
        if n != NIL {
            self.prev[n] = p;
        }
        let last = self.hashes.len() - 1;
        if slot != last {
            self.hashes[slot] = self.hashes[last];
            self.next[slot] = self.next[last];
            self.prev[slot] = self.prev[last];
            self.relink_neighbours(slot);
        }
        self.hashes.pop();
        self.next.pop();
        self.prev.pop();
    }

    /// The length of the longest chain.
    #[cfg(test)]
    fn longest(&self) -> usize {
        let walk = |mut slot: usize| {
            let mut n = 0;
            while slot != NIL {
                (n, slot) = (n + 1, self.next[slot]);
            }
            n
        };
        self.heads.iter().map(|&h| walk(h)).max().unwrap_or(0)
    }

    /// Checks the chains are sound and hash `want`: every slot on exactly
    /// one chain, the one its hash selects, with consistent back links when
    /// editable.
    fn audit(&self, want: impl Iterator<Item = u64>, what: &str) -> Result<(), String> {
        let n = self.hashes.len();
        if !self.hashes.iter().copied().eq(want) {
            return Err(format!("{what}: a slot's hash is not its row's"));
        }
        if !self.heads.len().is_power_of_two() || self.heads.len() < (2 * n).max(2) {
            return Err(format!("{what}: {} buckets for {n} rows", self.heads.len()));
        }
        let mut seen = vec![false; n];
        for (b, &head) in self.heads.iter().enumerate() {
            let (mut prev, mut slot) = (NIL, head);
            while slot != NIL {
                let linked_back = self.prev.is_empty() || self.prev[slot] == prev;
                if slot >= n || seen[slot] || !linked_back {
                    return Err(format!("{what}: chain {b} is broken at slot {slot}"));
                }
                if self.bucket(self.hashes[slot]) != b {
                    return Err(format!("{what}: slot {slot} is on the wrong chain"));
                }
                seen[slot] = true;
                (prev, slot) = (slot, self.next[slot]);
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(slot) => Err(format!("{what}: slot {slot} is on no chain")),
            None => Ok(()),
        }
    }
}

/// The rows of a stored extent that pass some pushed-down filters, each
/// distinct row once with its multiplicity, hash-chained on the whole row
/// and on every key column list it was asked to index; see the module docs.
///
/// Build it with [`MaintainedIndex::build`], add key indexes with
/// [`MaintainedIndex::index_keys`], feed it every delta installed into the
/// table with [`MaintainedIndex::apply`], and probe it with
/// [`MaintainedIndex::probe`]. Its rows and per-key row sets then always
/// equal a fresh build's over the current table ([`MaintainedIndex::audit`]);
/// only their order may differ.
#[derive(Clone, Debug)]
pub struct MaintainedIndex {
    /// Pushed-down filters, bound to the table's columns.
    filters: Vec<BoundPredicate>,
    /// The live rows, densely packed, with positive multiplicities.
    rows: SignedRows,
    /// Chains on the whole row, where [`MaintainedIndex::apply`] finds a
    /// row: present once the index is editable.
    by_row: Option<Chains>,
    /// One chain set per indexed key column list.
    by_key: Vec<(Vec<usize>, Chains)>,
}

fn passes(filters: &[BoundPredicate], t: &Tuple) -> RelResult<bool> {
    for f in filters {
        if !f.eval(t)? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl MaintainedIndex {
    /// Indexes the rows of `table` that pass every filter, with no key
    /// chains yet. Charges one [`WorkMeter::touch`] over the table's
    /// distinct rows: the filter pass.
    pub fn build(
        table: &Table,
        filters: Vec<BoundPredicate>,
        meter: &mut WorkMeter,
    ) -> RelResult<MaintainedIndex> {
        meter.touch(table.distinct_len() as u64);
        let mut rows = Vec::new();
        for (t, m) in table.iter() {
            if passes(&filters, t)? {
                rows.push((t.clone(), m as i64));
            }
        }
        Ok(MaintainedIndex {
            filters,
            rows,
            by_row: None,
            by_key: Vec::new(),
        })
    }

    /// Number of distinct rows held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row passes the filters.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows held, each distinct row once with its multiplicity, in no
    /// particular order.
    pub fn rows(&self) -> &[(Tuple, i64)] {
        &self.rows
    }

    /// The position of the key index on `keys`, if there is one.
    pub fn key_set(&self, keys: &[usize]) -> Option<usize> {
        self.by_key.iter().position(|(k, _)| k == keys)
    }

    /// The position of the key index on `keys`, building it first when
    /// there is none — one [`WorkMeter::hash_build`] over the rows held.
    pub fn index_keys(&mut self, keys: &[usize], meter: &mut WorkMeter) -> usize {
        if let Some(at) = self.key_set(keys) {
            return at;
        }
        meter.hash_build(self.rows.len() as u64);
        let hashes = self.rows.iter().map(|(t, _)| key_hash(t, keys)).collect();
        let mut chains = Chains::new(hashes);
        if self.by_row.is_some() {
            chains.link_back();
        }
        self.by_key.push((keys.to_vec(), chains));
        self.by_key.len() - 1
    }

    /// Joins `probe` against the key index at `key_set`: every probe row
    /// with every held row whose key columns equal its `probe_keys`, probe
    /// columns first, multiplicities multiplied. Output follows probe order,
    /// so contiguous slices of `probe` concatenate back to one call, meter
    /// included. `probe_keys` must name as many columns as the index.
    pub fn probe(
        &self,
        key_set: usize,
        probe: &[(Tuple, i64)],
        probe_keys: &[usize],
        meter: &mut WorkMeter,
    ) -> RelResult<SignedRows> {
        let (keys, chains) = &self.by_key[key_set];
        let view = ChainView {
            keys,
            hashes: &chains.hashes,
            heads: &chains.heads,
            next: &chains.next,
        };
        probe_chains(&self.rows, view, probe, probe_keys, false, meter)
    }

    /// Applies a delta just installed into the indexed table: each row that
    /// passes the filters has its multiplicity moved by its signed count,
    /// entering or leaving every chain when it crosses zero. An error
    /// (a row driven negative, a filter that cannot be evaluated) leaves the
    /// index part-edited; drop it.
    pub fn apply(&mut self, delta: &DeltaRelation) -> RelResult<()> {
        if self.by_row.is_none() {
            let mut by_row = Chains::new(self.rows.iter().map(|(t, _)| t.row_hash()).collect());
            by_row.link_back();
            self.by_row = Some(by_row);
            self.by_key.iter_mut().for_each(|(_, c)| c.link_back());
        }
        for (t, m) in delta.iter() {
            if m != 0 && passes(&self.filters, t)? {
                self.add(t, m)?;
            }
        }
        Ok(())
    }

    /// Moves `t`'s multiplicity by `m`; the row chains are built.
    fn add(&mut self, t: &Tuple, m: i64) -> RelResult<()> {
        let h = t.row_hash();
        let negative = || RelError::NegativeMultiplicity {
            relation: "maintained index".into(),
        };
        let Some(by_row) = &mut self.by_row else {
            unreachable!("apply builds the row chains first");
        };
        let mut found = by_row.first(h);
        while found != NIL && !(by_row.hashes[found] == h && self.rows[found].0 == *t) {
            found = by_row.next[found];
        }
        if found == NIL {
            if m < 0 {
                return Err(negative());
            }
            self.rows.push((t.clone(), m));
            by_row.push(h);
            for (keys, chains) in &mut self.by_key {
                chains.push(key_hash(t, keys));
            }
            return Ok(());
        }
        let slot = found;
        let held = (self.rows[slot].1.checked_add(m))
            .ok_or_else(|| RelError::Overflow("multiplicity of an indexed row".into()))?;
        if held < 0 {
            return Err(negative());
        }
        if held > 0 {
            self.rows[slot].1 = held;
            return Ok(());
        }
        self.rows.swap_remove(slot);
        by_row.swap_remove(slot);
        for (_, chains) in &mut self.by_key {
            chains.swap_remove(slot);
        }
        Ok(())
    }

    /// Compares the index with a fresh filter-and-build over `table` (which
    /// it must index): the same rows with the same multiplicities, every
    /// chain sound, and — per indexed key column list and per key value —
    /// the same rows on that key's chain. The first difference, described.
    pub fn audit(&self, table: &Table) -> Result<(), String> {
        let fresh = MaintainedIndex::build(table, self.filters.clone(), &mut WorkMeter::new())
            .map_err(|e| format!("fresh build failed: {e}"))?;
        let sorted = |rows: &[(Tuple, i64)]| {
            let mut v = rows.to_vec();
            v.sort();
            v
        };
        if sorted(&self.rows) != sorted(&fresh.rows) {
            return Err(format!(
                "rows differ from a fresh build: {} held, {} fresh",
                self.rows.len(),
                fresh.rows.len()
            ));
        }
        if let Some(by_row) = &self.by_row {
            // A fresh fold, so a stale cached hash shows as a broken chain.
            let fresh = self.rows.iter().map(|(t, _)| row_hash(t.values()));
            by_row.audit(fresh, "row chains")?;
        }
        for (keys, chains) in &self.by_key {
            let what = format!("key chains {keys:?}");
            chains.audit(self.rows.iter().map(|(t, _)| key_hash(t, keys)), &what)?;
            let mut want: BTreeMap<Tuple, SignedRows> = BTreeMap::new();
            for row in &fresh.rows {
                want.entry(row.0.project(keys))
                    .or_default()
                    .push(row.clone());
            }
            for (key, rows) in want {
                let mut got = Vec::new();
                let mut slot = chains.first(key_hash(&rows[0].0, keys));
                while slot != NIL {
                    if self.rows[slot].0.project(keys) == key {
                        got.push(self.rows[slot].clone());
                    }
                    slot = chains.next[slot];
                }
                if sorted(&got) != sorted(&rows) {
                    return Err(format!("{what}: key {key:?} reaches other rows"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use crate::ops::{build_table, probe_table};
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    fn schema() -> Schema {
        Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    fn table(rows: impl IntoIterator<Item = (i64, i64)>) -> Table {
        let mut t = Table::new("T", schema());
        for (k, v) in rows {
            t.insert(Tuple::new(vec![Value::Int(k), Value::Int(v)]))
                .unwrap();
        }
        t
    }

    fn row(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    /// Installs `changes` into `t` and `index` alike.
    fn install(t: &mut Table, index: &mut MaintainedIndex, changes: &[((i64, i64), i64)]) {
        let mut d = DeltaRelation::new(schema());
        for &((k, v), m) in changes {
            d.add(row(k, v), m);
        }
        t.install(&d).unwrap();
        index.apply(&d).unwrap();
    }

    #[test]
    fn probing_equals_a_fresh_build_and_probe() {
        let t = table((0..40).map(|i| (i % 7, i)));
        let mut index = MaintainedIndex::build(&t, Vec::new(), &mut WorkMeter::new()).unwrap();
        let mut m = WorkMeter::new();
        let ks = index.index_keys(&[0], &mut m);
        assert_eq!((m.hash_tables_built, m.physical_rows_touched), (1, 40));
        assert_eq!(
            index.index_keys(&[0], &mut m),
            ks,
            "a key set is built once"
        );
        let probe: SignedRows = (0..10).map(|i| (row(i % 9, -i), 1 + i % 2)).collect();

        let (mut via_index, mut via_table) = (WorkMeter::new(), WorkMeter::new());
        let mut got = index.probe(ks, &probe, &[0], &mut via_index).unwrap();
        let rows = index.rows().to_vec();
        let built = build_table(&rows, &[0], &mut WorkMeter::new());
        let mut want = probe_table(&rows, &built, &probe, &[0], false, &mut via_table).unwrap();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(via_index, via_table);
    }

    #[test]
    fn installs_keep_the_index_equal_to_a_fresh_build() {
        let odd = Predicate::col_ge("T.v", Value::Int(5))
            .bind(&schema().qualified("T"))
            .unwrap();
        let mut t = table((0..30).map(|i| (i % 4, i)));
        let mut index = MaintainedIndex::build(&t, vec![odd], &mut WorkMeter::new()).unwrap();
        index.index_keys(&[0], &mut WorkMeter::new());
        index.index_keys(&[1, 0], &mut WorkMeter::new());
        assert_eq!(index.len(), 25);
        index.audit(&t).unwrap();
        // Deletes (one filtered out), a multiplicity bump and new rows,
        // then every row of key 1 gone.
        install(
            &mut t,
            &mut index,
            &[((0, 8), -1), ((1, 1), -1), ((2, 6), 2), ((9, 90), 3)],
        );
        index.audit(&t).unwrap();
        let key1: Vec<_> = (t.iter())
            .filter(|(r, _)| r.get(0) == &Value::Int(1))
            .map(|(r, m)| (r.clone(), -(m as i64)))
            .collect();
        let mut d = DeltaRelation::new(schema());
        for (r, m) in key1 {
            d.add(r, m);
        }
        t.install(&d).unwrap();
        index.apply(&d).unwrap();
        index.audit(&t).unwrap();
        assert!(index.rows().iter().all(|(r, _)| r.get(0) != &Value::Int(1)));
    }

    #[test]
    fn a_row_the_table_does_not_hold_is_a_typed_error() {
        let t = table([(1, 1)]);
        let mut index = MaintainedIndex::build(&t, Vec::new(), &mut WorkMeter::new()).unwrap();
        let mut d = DeltaRelation::new(schema());
        d.add(row(2, 2), -1);
        assert!(matches!(
            index.apply(&d),
            Err(RelError::NegativeMultiplicity { .. })
        ));
    }

    #[test]
    fn deleting_from_one_long_key_chain_never_walks_it() {
        // Every row shares key 0, so its key chain is the whole extent. A
        // delete walks only the row chain that finds its row — a handful of
        // rows long — and leaves the key chain through its back link.
        let n = 4096;
        let mut t = table((0..n).map(|i| (0, i)));
        let mut index = MaintainedIndex::build(&t, Vec::new(), &mut WorkMeter::new()).unwrap();
        index.index_keys(&[0], &mut WorkMeter::new());
        install(&mut t, &mut index, &[]);
        assert_eq!(index.by_key[0].1.longest(), n as usize);
        let longest = index.by_row.as_ref().map(Chains::longest);
        assert!(longest.is_some_and(|l| l <= 8), "{longest:?}");
        for i in 0..n {
            install(&mut t, &mut index, &[((0, i), -1)]);
            if i % 1024 == 0 {
                index.audit(&t).unwrap();
            }
        }
        assert!(index.is_empty());
        index.audit(&t).unwrap();
        install(&mut t, &mut index, &[((0, 7), 1)]);
        index.audit(&t).unwrap();
    }
}
