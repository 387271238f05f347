//! The warehouse's maintained join indexes: the stored role of every term
//! operand, kept current by `Inst` instead of rebuilt by every `Comp`.
//!
//! The paper measured its strategies on an RDBMS whose indexes `Inst`
//! maintains as a matter of course, so a 1-way term costs about `|ΔV|`.
//! Here each stored-role operand a term engine build is keyed by — the
//! source view, its rendered pushed-down filters, the key columns — is a
//! key index of one [`MaintainedIndex`] per `(view, filters)` extent:
//!
//! * the first `Comp` that needs an extent or key index builds it
//!   ([`IndexSet::ensure_extent`], [`IndexSet::ensure_keys`]), under
//!   `&mut Warehouse` before its terms run, so term evaluation stays a pure
//!   read that a stage's concurrent `Comp`s share;
//! * every install hands its delta to every index over the installed view
//!   ([`IndexSet::install`], called from the single install funnel), so
//!   batch, staged, carried and recovered windows all keep them current.
//!   The index is edited row by row with the deltas queued since it was
//!   last read just before the next `Comp` reads it: an index no later
//!   expression or window probes — every index a dual-stage window builds
//!   — costs its installs nothing. One whose queued rows outnumber its
//!   table's (and a floor) is dropped instead, the next reader's rebuild
//!   being cheaper than the replay;
//! * restoring a snapshot drops them all, and a cold window (the ingest
//!   scheduler without carry) starts by dropping them.
//!
//! Indexes live beside the catalog, not in `Table`, so a table's clone,
//! publish, snapshot and WAL bytes are untouched by them. A warehouse clone
//! shares them until one side installs.

use std::collections::HashMap;
use std::sync::Arc;
use uww_relational::ops::MaintainedIndex;
use uww_relational::{
    BoundPredicate, Catalog, DeltaRelation, RelError, RelResult, Table, WorkMeter,
};

/// The queued delta rows an index always keeps rather than be dropped: a
/// queue this short replays in well under a millisecond, and bounds what an
/// index nothing reads holds on to over a small table.
const QUEUE_FLOOR: usize = 4096;

/// An extent's identity: the source view and its rendered pushed-down
/// filters, in definition order.
pub(crate) type ExtentKey = (String, Vec<String>);

/// Who built an extent or key index: the strategy position of the `Comp`
/// that did, or `None` when it existed before the running window began.
pub(crate) type Producer = Option<usize>;

#[derive(Clone)]
struct Entry {
    index: Arc<MaintainedIndex>,
    built_by: Producer,
    /// One per key index of `index`, in its order.
    keys: Vec<KeyState>,
    /// Deltas installed into the view since the index was last brought up
    /// to date, oldest first, and their distinct rows in all.
    queued: Vec<Arc<DeltaRelation>>,
    queued_rows: usize,
}

impl Entry {
    /// The index with every queued delta applied to it, each delta's filter
    /// pass charged to `meter`.
    fn flushed(&mut self, meter: &mut WorkMeter) -> RelResult<&Arc<MaintainedIndex>> {
        if !self.queued.is_empty() {
            let index = Arc::make_mut(&mut self.index);
            for delta in self.queued.drain(..) {
                meter.touch(delta.distinct_len() as u64);
                index.apply(&delta)?;
            }
            self.queued_rows = 0;
        }
        Ok(&self.index)
    }
}

#[derive(Clone, Copy)]
struct KeyState {
    built_by: Producer,
    /// Probed by a `Comp` of this window since its view last changed.
    warm: bool,
}

/// Every maintained index of a warehouse, by extent.
#[derive(Clone, Default)]
pub(crate) struct IndexSet {
    entries: HashMap<ExtentKey, Entry>,
}

impl IndexSet {
    /// Marks everything held as built before the window that starts now.
    pub(crate) fn start_window(&mut self) {
        for e in self.entries.values_mut() {
            e.built_by = None;
            e.keys.fill(KeyState {
                built_by: None,
                warm: false,
            });
        }
    }

    /// Drops every index.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// `(key indexes, extents)` held.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let keys = self.entries.values().map(|e| e.keys.len()).sum();
        (keys, self.entries.len())
    }

    /// The index over `key`'s extent, if built. Up to date once
    /// [`IndexSet::ensure_extent`] has run for it.
    pub(crate) fn get(&self, key: &ExtentKey) -> Option<&Arc<MaintainedIndex>> {
        self.entries.get(key).map(|e| &e.index)
    }

    /// The extent `key` over `table`, brought up to date with the deltas
    /// queued on it, or built on a miss under producer `at` with the
    /// filters `bind` returns (the filter passes charged to `meter`).
    /// Returns the extent's producer.
    pub(crate) fn ensure_extent(
        &mut self,
        key: &ExtentKey,
        table: &Table,
        bind: impl FnOnce() -> RelResult<Vec<BoundPredicate>>,
        at: usize,
        meter: &mut WorkMeter,
    ) -> RelResult<Producer> {
        if let Some(e) = self.entries.get_mut(key) {
            if let Err(err) = e.flushed(meter) {
                self.entries.remove(key);
                return Err(err);
            }
            return Ok(e.built_by);
        }
        let index = MaintainedIndex::build(table, bind()?, meter)?;
        let entry = Entry {
            index: Arc::new(index),
            built_by: Some(at),
            keys: Vec::new(),
            queued: Vec::new(),
            queued_rows: 0,
        };
        self.entries.insert(key.clone(), entry);
        Ok(Some(at))
    }

    /// The key index on `cols` over the (already ensured) extent `key`,
    /// built on a miss under producer `at` (one hash build charged to
    /// `meter`). Returns its position in the index, its producer, and
    /// whether it is warm: probed by a `Comp` of this window since its view
    /// last changed ([`IndexSet::warm`], [`IndexSet::cool`]).
    pub(crate) fn ensure_keys(
        &mut self,
        key: &ExtentKey,
        cols: &[usize],
        at: usize,
        meter: &mut WorkMeter,
    ) -> Option<(usize, Producer, bool)> {
        let e = self.entries.get_mut(key)?;
        if let Some(pos) = e.index.key_set(cols) {
            let k = e.keys[pos];
            return Some((pos, k.built_by, k.warm));
        }
        let pos = Arc::make_mut(&mut e.index).index_keys(cols, meter);
        e.keys.push(KeyState {
            built_by: Some(at),
            warm: false,
        });
        Some((pos, Some(at), false))
    }

    /// Marks the key index at `pos` over `key` as probed by a `Comp`.
    pub(crate) fn warm(&mut self, key: &ExtentKey, pos: usize) {
        if let Some(k) = self.entries.get_mut(key).and_then(|e| e.keys.get_mut(pos)) {
            k.warm = true;
        }
    }

    /// Marks every key index over `view` as not probed since it changed.
    pub(crate) fn cool(&mut self, view: &str) {
        for ((v, _), e) in self.entries.iter_mut() {
            if v == view {
                e.keys.iter_mut().for_each(|k| k.warm = false);
            }
        }
    }

    /// Queues `delta`, just installed into `view`'s `table`, on every index
    /// over it, dropping each whose queue then holds more rows than the
    /// table and more than [`QUEUE_FLOOR`].
    pub(crate) fn install(&mut self, view: &str, delta: &Arc<DeltaRelation>, table: &Table) {
        self.entries.retain(|(v, _), e| {
            if v != view || delta.is_empty() {
                return true;
            }
            e.queued.push(Arc::clone(delta));
            e.queued_rows += delta.distinct_len();
            e.queued_rows <= table.distinct_len().max(QUEUE_FLOOR)
        });
    }

    /// Checks every index, as its next reader will find it (its queued
    /// deltas applied, on a copy), against a fresh filter-and-build over
    /// its view's current extent in `state` ([`MaintainedIndex::audit`]).
    pub(crate) fn audit(&self, state: &Catalog) -> Result<(), String> {
        let mut keys: Vec<&ExtentKey> = self.entries.keys().collect();
        keys.sort();
        for key in keys {
            let at = |e: String| format!("index over {} {:?}: {e}", key.0, key.1);
            let table = state.get(&key.0).map_err(|e| e.to_string())?;
            let mut entry = self.entries[key].clone();
            let flushed = entry.flushed(&mut WorkMeter::new());
            let index = flushed.map_err(|e: RelError| at(e.to_string()))?;
            index.audit(table).map_err(at)?;
        }
        Ok(())
    }
}
