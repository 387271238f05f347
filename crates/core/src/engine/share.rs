//! Shared-operand term evaluation and its static sharing plan.
//!
//! Within one `Comp(W, Y)` no `Inst` intervenes, so the stored extents and
//! pending deltas every maintenance term scans are *identical* across the
//! `2^|Y| − 1` terms. The paper's model (and [`super::eval::eval_term`])
//! nevertheless charges — and the naive executor performs — a full operand
//! scan and a fresh hash-table build per term. This module is the executor's
//! answer: an [`OperandCache`] materializes each `(source, role)` operand
//! once (single-source filters pushed down and applied once) and interns
//! hash-join build tables keyed by `(source, role, key columns)`, then
//! every term evaluates against the cache, one after another (intra-`Comp`
//! parallelism is [`PartitionOptions`]' job).
//!
//! **The intern decision is static.** Because the greedy join order sizes
//! operands by their *cached* (filtered) lengths — never by the accumulated
//! intermediate — every term's join sequence is fully determined before any
//! term runs. [`OperandCache::build`] simulates those sequences and marks a
//! build key **shared** when it occurs in two or more join steps across the
//! `Comp`'s terms; [`join_term`] then interns exactly the shared keys and
//! builds every unshared step fresh. The resulting
//! `hash_tables_built`/`hash_tables_reused` counters equal the plan's
//! [`CompSharingPlan::predicted_builds`]/[`CompSharingPlan::predicted_reuses`]
//! *exactly*, independent of data and of the partition count — the conformance oracle
//! `uww analyze --sharing --verify-against` replays traces against.
//!
//! Three invariants make the cache safe to enable by default:
//!
//! * **output identity** — the cached evaluator replays `eval_term`'s exact
//!   greedy join order and residual filters, and join output is an
//!   orientation-independent multiset, so every term's consolidated
//!   fragment, the merged `ΔW`, the final state, and the WAL `CD` payload
//!   (canonically sorted) are byte-identical to the per-term reference
//!   ([`eval::reference_comp_fragment`]);
//! * **logical-meter identity** — each term still charges
//!   [`WorkMeter::scan_logical`] for the full raw operand it *would* have
//!   scanned, so `operand_rows_scanned` (the planner's linear metric) and
//!   `rows_emitted` are unchanged; only `physical_rows_touched` and the
//!   hash-table counters reveal the savings;
//! * **static conformance** — unlike the per-term reference, the shared path
//!   performs every planned join step even when an intermediate empties
//!   (joining an empty side costs nothing and emits nothing), so the
//!   hash-table counters never drift below the static prediction.
//!
//! **Strategy scope.** A [`StrategyCache`] lifts both reuse axes across
//! `Comp` boundaries: raw `(view, role)` materializations and hash-join
//! build tables keyed by [`SharedIdentity`] survive from one expression to
//! the next until an expression *modifies* the underlying operand —
//! decided by `uww_analysis::modifies_operand`, the same liveness predicate
//! the `UWW012` analyzer rule prices. Which keys consume an earlier table
//! and which publish one for later expressions is fixed statically by
//! [`plan_strategy_sharing`] (a lookahead over the replayed per-`Comp`
//! plans), so the cross-expression counters are exact by construction and
//! the executed bytes never depend on cache state: equal identity over an
//! unmodified operand means element-identical filtered rows, hence an
//! interchangeable build table.

use crate::engine::eval;
use crate::engine::exec::meter_attrs;
use crate::engine::pool::{self, PartitionOptions};
use crate::engine::warehouse::{scan_operand, PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uww_obs as obs;
use uww_relational::ops::{self, GroupAcc, PartitionedTable, Partitioner, SignedRows};
use uww_relational::{
    BoundPredicate, Catalog, RelResult, Schema, Tuple, ViewDef, ViewOutput, WorkMeter,
};
use uww_vdag::{Strategy, UpdateExpr, Vdag, ViewId};

/// One materialized operand: the filtered rows every term sees, plus the
/// raw (pre-filter) extent size the logical metric charges per term.
struct CachedOperand {
    rows: Arc<SignedRows>,
    raw_len: u64,
}

/// Intern key for a build table: `(source index, as_delta, key columns)`.
type TableKey = (usize, bool, Vec<usize>);

/// One distinct keyed build inside a `Comp`'s term set — a node of the
/// sharing-opportunity graph. Two uses share a hash table exactly when
/// their whole `(source position, role, key columns)` key matches; the
/// analyzer's `UWW013` flags uses equal modulo the source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandUse {
    /// Source view name.
    pub source: String,
    /// Source alias (distinct for self-join aliases).
    pub alias: String,
    /// Source position in the view definition — the cache-key component
    /// that distinguishes aliases of one view.
    pub source_idx: usize,
    /// True when the operand is the delta form of the source.
    pub as_delta: bool,
    /// Build-key column names, in key order.
    pub key_cols: Vec<String>,
    /// Rendered pushed-down filters applied to this operand.
    pub filters: Vec<String>,
    /// Filtered operand cardinality (rows one build scans).
    pub rows: u64,
    /// Keyed join steps using this exact key across the `Comp`'s terms.
    pub occurrences: u64,
}

/// The strategy-scope sharing identity of a keyed build: everything the
/// table's contents depend on — source view, role, key column names (alias
/// qualified), and the rendered pushed-down filters — but *not* the source
/// position, so identical uses from different view definitions match. Two
/// uses with equal identity over an operand no expression modified in
/// between materialize element-identical filtered rows and therefore build
/// interchangeable hash tables.
pub type SharedIdentity = (String, bool, Vec<String>, Vec<String>);

impl OperandUse {
    /// This use's strategy-scope sharing identity.
    pub fn identity(&self) -> SharedIdentity {
        (
            self.source.clone(),
            self.as_delta,
            self.key_cols.clone(),
            self.filters.clone(),
        )
    }
}

/// The static sharing plan of one `Comp`: the exact hash-table counters the
/// shared engine will produce, plus every distinct keyed operand use.
#[derive(Clone, Debug, Default)]
pub struct CompSharingPlan {
    /// Surviving terms the plan covers (footnote-5 filter applied).
    pub terms: usize,
    /// Hash tables the shared engine will build — one per distinct key.
    pub predicted_builds: u64,
    /// Reuses the shared engine will record — extra uses of shared keys.
    pub predicted_reuses: u64,
    /// Of `predicted_reuses`, join steps served from a hash table built by
    /// an *earlier expression* (strategy scope only; zero otherwise).
    pub cross_reuses: u64,
    /// Raw operand reads served from the strategy-scope cache instead of
    /// re-scanning the stored/delta extent (strategy scope only).
    pub cached_reads: u64,
    /// Filtered rows of the consumed keys — the hash builds this `Comp`
    /// avoids by probing earlier expressions' tables, which is what
    /// [`CostModel::cross_share_saving`](crate::cost::CostModel::cross_share_saving)
    /// prices (strategy scope only).
    pub cross_saved_rows: u64,
    /// Distinct raw `(view, as-delta)` reads the materialization performs,
    /// sorted — the strategy cache's unit of materialization reuse.
    pub reads: Vec<(String, bool)>,
    /// One entry per distinct keyed build, sorted by key.
    pub operands: Vec<OperandUse>,
}

/// The statically planned cache directives for one strategy expression:
/// which build identities this `Comp` serves from an earlier expression's
/// table, and which it must intern and publish because a later live
/// expression will consume them. Empty for `Inst` and for every
/// expression when strategy-scope sharing is off.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompCacheDirectives {
    /// Identities served from a table built by an earlier expression.
    consume: HashSet<SharedIdentity>,
    /// Identities to intern locally and publish for later expressions.
    publish: HashSet<SharedIdentity>,
    /// Raw `(view, as-delta)` reads served from the strategy cache instead
    /// of re-scanning. Like `consume`, fixed statically so the measured
    /// `operand_reads_cached` equals the plan by construction.
    raw_consume: HashSet<(String, bool)>,
}

/// Strategy-scope operand cache: raw materializations and build tables
/// that survive across `Comp` boundaries until the operand is modified.
///
/// The cache is *directive-driven*: [`plan_strategy_sharing`] fixes, per
/// expression, exactly which identities consume and which publish, so the
/// measured cross-expression counters equal the static plan by
/// construction. After every executed expression the owner must call
/// [`StrategyCache::invalidate_after`], which drops entries through the
/// same `uww_analysis::modifies_operand` predicate the `UWW012` analyzer
/// rule prices — an operand an `Inst` (or delta-extending `Comp`) touched
/// can never serve a stale copy.
/// Live raw `(view, as-delta)` materializations, with the raw extent
/// length the logical metric charges per term and a flag marking entries
/// carried in from a previous update window.
type RawCache = HashMap<(String, bool), (Arc<SignedRows>, u64, bool)>;

/// Build tables and raw operand materializations that outlived one update
/// window: every entry's operand provably went unmodified by the window
/// that built it (the `UWW012` liveness predicate dropped everything else,
/// and delta-role entries never cross a window boundary — the next batch
/// replaces every pending delta). Feed it to
/// [`Warehouse::execute_carried`](crate::engine::Warehouse::execute_carried)
/// to seed the next window's strategy cache, or drop it (always do so after
/// crash recovery — a recovered window rebuilds from the WAL snapshot and
/// carries nothing).
#[derive(Default)]
pub struct WindowCarry {
    tables: HashMap<SharedIdentity, Arc<PartitionedTable>>,
    raws: HashMap<(String, bool), (Arc<SignedRows>, u64)>,
    /// The partition count the carried tables were built at. A carry only
    /// seeds a window run at the *same* partitioning — the executor drops a
    /// mismatched carry before planning, so a table split `P` ways can never
    /// serve a probe split `Q` ways (a cross-partition stale hit).
    partitions: usize,
}

impl std::fmt::Debug for WindowCarry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowCarry")
            .field("tables", &self.tables.len())
            .field("raws", &self.raws.len())
            .field("partitions", &self.partitions)
            .finish()
    }
}

impl WindowCarry {
    /// A carry with no surviving entries (what the first window starts from).
    pub fn empty() -> WindowCarry {
        WindowCarry::default()
    }

    /// True when nothing survived the previous window.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.raws.is_empty()
    }

    /// The partition count the carried build tables were split at.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of carried hash-join build tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of carried raw operand materializations.
    pub fn raws(&self) -> usize {
        self.raws.len()
    }

    /// The carried identity sets, for seeding the next window's liveness walk.
    pub(crate) fn seed(&self) -> (HashSet<SharedIdentity>, HashSet<(String, bool)>) {
        (
            self.tables.keys().cloned().collect(),
            self.raws.keys().cloned().collect(),
        )
    }
}

pub(crate) struct StrategyCache {
    /// Per-expression directives, indexed by strategy position.
    directives: Vec<CompCacheDirectives>,
    /// Live build tables by identity; the flag marks carried-in entries.
    tables: Mutex<HashMap<SharedIdentity, (Arc<PartitionedTable>, bool)>>,
    raws: Mutex<RawCache>,
    /// Conformance counters: cross-reuses / cached reads served from an
    /// entry carried in from the previous window (per use, like the meter).
    carried_table_hits: AtomicU64,
    carried_raw_hits: AtomicU64,
}

impl StrategyCache {
    /// A cache primed with the plan's directives plus the previous window's
    /// surviving entries (flagged so carried hits are counted separately).
    pub(crate) fn with_carry(
        directives: Vec<CompCacheDirectives>,
        carry: WindowCarry,
    ) -> StrategyCache {
        StrategyCache {
            directives,
            tables: Mutex::new(
                carry
                    .tables
                    .into_iter()
                    .map(|(id, t)| (id, (t, true)))
                    .collect(),
            ),
            raws: Mutex::new(
                carry
                    .raws
                    .into_iter()
                    .map(|(k, (rows, len))| (k, (rows, len, true)))
                    .collect(),
            ),
            carried_table_hits: AtomicU64::new(0),
            carried_raw_hits: AtomicU64::new(0),
        }
    }

    fn directives(&self, idx: usize) -> Option<&CompCacheDirectives> {
        self.directives.get(idx)
    }

    /// The cached raw read for `(view, as_delta)` — served only when this
    /// expression's plan directs it (so measured `operand_reads_cached`
    /// equals the static prediction even when the runtime cache happens to
    /// retain more than the conservative static walk assumed).
    fn raw_get(&self, idx: usize, view: &str, as_delta: bool) -> Option<(Arc<SignedRows>, u64)> {
        let key = (view.to_string(), as_delta);
        if !self
            .directives(idx)
            .is_some_and(|d| d.raw_consume.contains(&key))
        {
            return None;
        }
        let map = self.raws.lock().unwrap_or_else(|e| e.into_inner());
        let (rows, len, carried) = map.get(&key)?;
        if *carried {
            self.carried_raw_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((Arc::clone(rows), *len))
    }

    fn raw_put(&self, key: (String, bool), entry: (Arc<SignedRows>, u64)) {
        self.raws
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, (entry.0, entry.1, false));
    }

    fn table_get(&self, id: &SharedIdentity) -> Option<Arc<PartitionedTable>> {
        let map = self.tables.lock().unwrap_or_else(|e| e.into_inner());
        let (t, carried) = map.get(id)?;
        if *carried {
            self.carried_table_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(Arc::clone(t))
    }

    fn table_put(&self, id: SharedIdentity, t: Arc<PartitionedTable>) {
        self.tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, (t, false));
    }

    /// Measured `(table hits, raw hits)` served from carried-in entries.
    pub(crate) fn carried_hits(&self) -> (u64, u64) {
        (
            self.carried_table_hits.load(Ordering::Relaxed),
            self.carried_raw_hits.load(Ordering::Relaxed),
        )
    }

    /// Drops every cached entry whose operand `e` modified — the executor
    /// calls this after each expression completes, mirroring the liveness
    /// walk the static plan performed. (The executor skips the call for an
    /// `Inst` that installed nothing: a no-op install leaves every operand
    /// bit-identical, and consumption is directive-driven, so the laxer
    /// runtime retention can never serve an unplanned entry — it only lets
    /// more entries survive into the next window's carry.)
    pub(crate) fn invalidate_after(&self, g: &Vdag, e: &UpdateExpr) {
        self.tables
            .lock()
            .unwrap_or_else(|er| er.into_inner())
            .retain(|id, _| !uww_analysis::modifies_operand(g, e, &id.0, id.1));
        self.raws
            .lock()
            .unwrap_or_else(|er| er.into_inner())
            .retain(|key, _| !uww_analysis::modifies_operand(g, e, &key.0, key.1));
    }

    /// Consumes the cache into the entries that may cross into the next
    /// window: everything still live, minus every delta-role entry (the
    /// next batch replaces all pending deltas, so a carried delta read
    /// would be stale by construction). The carry is stamped with the
    /// partition count this window ran at — a future window at a different
    /// partitioning must drop it rather than probe mis-split tables.
    pub(crate) fn harvest(self, partitions: usize) -> WindowCarry {
        WindowCarry {
            partitions,
            tables: self
                .tables
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_iter()
                .filter(|(id, _)| !id.1)
                .map(|(id, (t, _))| (id, t))
                .collect(),
            raws: self
                .raws
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_iter()
                .filter(|(key, _)| !key.1)
                .map(|(key, (rows, len, _))| (key, (rows, len)))
                .collect(),
        }
    }
}

/// Per-`Comp` cache of materialized operands and interned build tables.
///
/// Built once per `Comp` from the terms that will actually run, so a
/// `Comp` whose every term is skipped (empty deltas, footnote 5) still
/// costs nothing.
/// When a [`StrategyCache`] is attached, raw reads are served from (and
/// published to) it, and the plan's consume/publish directives route keyed
/// builds through the strategy-scope table store.
pub(crate) struct OperandCache<'a> {
    /// Qualified schema per source, as `eval_term` computes it.
    qschemas: Vec<Schema>,
    /// Indices into `def.filters` that span multiple sources — applied
    /// per term after the joins, exactly like the per-term path.
    residual: Vec<usize>,
    /// `[stored, delta]` slot per source index; `None` when no surviving
    /// term uses that role.
    slots: Vec<[Option<CachedOperand>; 2]>,
    /// Build keys the static plan marked shared (≥ 2 uses across terms, or
    /// published for later expressions); only these route through the
    /// intern table.
    shared: HashSet<TableKey>,
    /// Keys served from the strategy cache: every use is a cross-reuse and
    /// no local build happens.
    consume: HashMap<TableKey, SharedIdentity>,
    /// Keys whose first (local, interned) build is also published to the
    /// strategy cache for later expressions.
    publish: HashMap<TableKey, SharedIdentity>,
    /// The attached strategy-scope cache, when strategy sharing is on.
    strategy: Option<&'a StrategyCache>,
    /// Partition-parallel configuration every interned build is split at.
    partition: PartitionOptions,
    /// The static plan itself, for prediction consumers.
    plan: CompSharingPlan,
    /// Interned build tables: `(source, as_delta, key columns)` → table.
    tables: Mutex<HashMap<TableKey, Arc<PartitionedTable>>>,
}

impl<'a> OperandCache<'a> {
    /// Materializes every operand role the surviving `terms` need and
    /// simulates every term's join sequence to fix the shared-key set. The
    /// returned meter carries the *physical* cost of materialization; the
    /// logical scans are charged per term during evaluation. Operands are
    /// read once per distinct `(view, role)` — aliased self-join sources
    /// share the raw read and diverge only in their pushed-down filters.
    ///
    /// With `strategy = Some((cache, idx))`, raw reads consult and feed the
    /// strategy cache, and the expression's planned directives decide which
    /// keyed builds consume an earlier table or publish their own.
    pub(crate) fn build(
        w: &Warehouse,
        def: &ViewDef,
        terms: &[BTreeSet<String>],
        strategy: Option<(&'a StrategyCache, usize)>,
        partition: PartitionOptions,
    ) -> CoreResult<(OperandCache<'a>, WorkMeter)> {
        let n = def.sources.len();
        let state = w.state();
        let pending = w.pending_map();

        let mut qschemas = Vec::with_capacity(n);
        for s in &def.sources {
            qschemas.push(
                state
                    .get(&s.view)
                    .map(|t| t.schema().clone())
                    .map_err(CoreError::Rel)?
                    .qualified(&s.alias),
            );
        }

        let mut local: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut residual = Vec::new();
        for (fi, f) in def.filters.iter().enumerate() {
            match eval::single_source_of(def, f) {
                Some(i) => local[i].push(fi),
                None => residual.push(fi),
            }
        }

        let mut need = vec![[false, false]; n];
        for t in terms {
            for (i, s) in def.sources.iter().enumerate() {
                need[i][usize::from(t.contains(&s.view))] = true;
            }
        }

        let mut meter = WorkMeter::new();
        // Raw reads deduplicated by (view, role).
        let mut raw: HashMap<(String, bool), (Arc<SignedRows>, u64)> = HashMap::new();
        let mut slots: Vec<[Option<CachedOperand>; 2]> = Vec::with_capacity(n);
        for (i, s) in def.sources.iter().enumerate() {
            let mut pair: [Option<CachedOperand>; 2] = [None, None];
            for (role, slot) in pair.iter_mut().enumerate() {
                if !need[i][role] {
                    continue;
                }
                let as_delta = role == 1;
                let key = (s.view.clone(), as_delta);
                let (rows, raw_len) = match raw.get(&key) {
                    Some(hit) => hit.clone(),
                    None => {
                        // A live strategy-cache entry is the same raw read an
                        // earlier expression performed (nothing modified the
                        // operand since, or it would have been invalidated).
                        let entry = match strategy
                            .and_then(|(sc, idx)| sc.raw_get(idx, &s.view, as_delta))
                        {
                            Some(hit) => {
                                meter.cached_read();
                                hit
                            }
                            None => {
                                // The probe meter captures the raw extent
                                // size; only its physical side is real — the
                                // logical charge is made per term to keep the
                                // paper's metric intact.
                                let mut probe = WorkMeter::new();
                                let rows = scan_operand_pooled(
                                    partition, state, pending, &s.view, as_delta, &mut probe,
                                )
                                .map_err(CoreError::Rel)?;
                                meter.physical_rows_touched += probe.physical_rows_touched;
                                let entry = (Arc::new(rows), probe.operand_rows_scanned);
                                if let Some((sc, _)) = strategy {
                                    sc.raw_put(key.clone(), entry.clone());
                                }
                                entry
                            }
                        };
                        raw.insert(key.clone(), entry.clone());
                        entry
                    }
                };
                let rows = if local[i].is_empty() {
                    rows
                } else {
                    let mut bounds = Vec::with_capacity(local[i].len());
                    for &fi in &local[i] {
                        bounds.push(def.filters[fi].bind(&qschemas[i]).map_err(CoreError::Rel)?);
                    }
                    Arc::new(filter_pooled(partition, &rows, &bounds).map_err(CoreError::Rel)?)
                };
                *slot = Some(CachedOperand { rows, raw_len });
            }
            slots.push(pair);
        }

        // Static join-plan simulation: the greedy order sizes operands by
        // their cached lengths only, so every term's keyed steps are known
        // here, before any term runs.
        let size_of = |i: usize, as_delta: bool| -> usize {
            slots[i][usize::from(as_delta)]
                .as_ref()
                .map_or(usize::MAX, |op| op.rows.len())
        };
        let mut uses: BTreeMap<TableKey, u64> = BTreeMap::new();
        let mut keyed_steps = 0u64;
        for t in terms {
            for key in plan_term_steps(def, &qschemas, &size_of, t)
                .map_err(CoreError::Rel)?
                .into_iter()
                .flatten()
            {
                *uses.entry(key).or_insert(0) += 1;
                keyed_steps += 1;
            }
        }
        let operands: Vec<OperandUse> = uses
            .iter()
            .map(|(key, &occurrences)| {
                let (i, as_delta, cols) = key;
                let s = &def.sources[*i];
                OperandUse {
                    source: s.view.clone(),
                    alias: s.alias.clone(),
                    source_idx: *i,
                    as_delta: *as_delta,
                    key_cols: cols
                        .iter()
                        .map(|&c| qschemas[*i].column(c).name.clone())
                        .collect(),
                    filters: local[*i]
                        .iter()
                        .map(|&fi| format!("{:?}", def.filters[fi]))
                        .collect(),
                    rows: size_of(*i, *as_delta) as u64,
                    occurrences,
                }
            })
            .collect();

        // Apply the strategy plan's directives: a consumed key never builds
        // locally (every use is a cross-reuse), a published key is interned
        // even at one local occurrence so its first build can be shared.
        let dir = strategy.and_then(|(sc, idx)| sc.directives(idx));
        let mut consume: HashMap<TableKey, SharedIdentity> = HashMap::new();
        let mut publish: HashMap<TableKey, SharedIdentity> = HashMap::new();
        let mut cross_reuses = 0u64;
        let mut cross_saved_rows = 0u64;
        if let Some(d) = dir {
            for (use_, (key, &occ)) in operands.iter().zip(uses.iter()) {
                let id = use_.identity();
                if d.consume.contains(&id) {
                    cross_reuses += occ;
                    cross_saved_rows += use_.rows;
                    consume.insert(key.clone(), id);
                } else if d.publish.contains(&id) {
                    publish.insert(key.clone(), id);
                }
            }
        }
        let shared: HashSet<TableKey> = uses
            .iter()
            .filter(|(key, &count)| count >= 2 || publish.contains_key(*key))
            .filter(|(key, _)| !consume.contains_key(*key))
            // Defense in depth for the empty-key degenerate: a keyless build
            // is a disguised cross join whose "table" is one giant bucket —
            // never worth interning or publishing. `plan_term_steps` already
            // yields `None` for those steps, so nothing here should match.
            .filter(|(key, _)| !key.2.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        let mut reads: Vec<(String, bool)> = raw.keys().cloned().collect();
        reads.sort();
        let predicted_builds = (uses.len() - consume.len()) as u64;
        let plan = CompSharingPlan {
            terms: terms.len(),
            predicted_builds,
            predicted_reuses: keyed_steps - predicted_builds,
            cross_reuses,
            cached_reads: meter.operand_reads_cached,
            cross_saved_rows,
            reads,
            operands,
        };

        Ok((
            OperandCache {
                qschemas,
                residual,
                slots,
                shared,
                consume,
                publish,
                strategy: strategy.map(|(sc, _)| sc),
                partition,
                plan,
                tables: Mutex::new(HashMap::new()),
            },
            meter,
        ))
    }

    fn operand(&self, i: usize, as_delta: bool) -> &CachedOperand {
        self.slots[i][usize::from(as_delta)]
            .as_ref()
            .expect("operand role materialized for every surviving term")
    }

    /// The interned build table for operand `i` in role `as_delta` over
    /// `keys`: built (and charged) once, reused (and counted) thereafter.
    /// A key the plan marked for publication pushes its first build into
    /// the strategy cache for later expressions.
    fn table(
        &self,
        i: usize,
        as_delta: bool,
        keys: &[usize],
        meter: &mut WorkMeter,
    ) -> Arc<PartitionedTable> {
        let mut map = self.tables.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&(i, as_delta, keys.to_vec())) {
            Some(t) => {
                meter.hash_reuse();
                Arc::clone(t)
            }
            None => {
                let t = Arc::new(build_pooled(
                    self.partition,
                    &self.operand(i, as_delta).rows,
                    keys,
                    meter,
                ));
                map.insert((i, as_delta, keys.to_vec()), Arc::clone(&t));
                if let (Some(sc), Some(id)) = (
                    self.strategy,
                    self.publish.get(&(i, as_delta, keys.to_vec())),
                ) {
                    sc.table_put(id.clone(), Arc::clone(&t));
                }
                t
            }
        }
    }

    /// The strategy-cache table for a consumed key, counting the hit as a
    /// cross-expression reuse. `None` when the key is not consumed. A
    /// planned-but-missing table falls back to the local intern path (and
    /// the conformance check will surface the divergence).
    fn cross_table(&self, key: &TableKey, meter: &mut WorkMeter) -> Option<Arc<PartitionedTable>> {
        let id = self.consume.get(key)?;
        let sc = self.strategy?;
        match sc.table_get(id) {
            Some(t) => {
                // Partition counts are run-constant and mismatched carries
                // are dropped before planning, so a cached table always
                // matches this run's split.
                debug_assert_eq!(t.parts(), self.partition.partitions.max(1));
                meter.hash_cross_reuse();
                Some(t)
            }
            None => {
                debug_assert!(false, "planned cross-reuse missing from strategy cache");
                None
            }
        }
    }
}

/// Fans `n` partition tasks out over the work-stealing pool, concatenating
/// the per-partition row outputs **in partition order** and folding each
/// worker's local meter into `meter`. Every task gets its own `Operator`
/// span (parented explicitly — workers don't inherit the spawner's span
/// stack) tagged with its partition index, so traces expose per-partition
/// skew and the bench can reconstruct the critical path on any machine.
fn pooled_rows<F>(
    popt: PartitionOptions,
    parent: u64,
    label: &'static str,
    n: usize,
    f: F,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows>
where
    F: Fn(usize, &mut WorkMeter) -> RelResult<SignedRows> + Sync,
{
    let results = pool::run_tasks(n, popt.workers(n), popt.steal, |i| {
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("{label}[p{i}]"));
        let mut m = WorkMeter::new();
        let out = f(i, &mut m)?;
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, out.len() as u64);
        Ok((out, m))
    });
    let results = results.into_iter().collect::<RelResult<Vec<_>>>()?;
    let mut rows = Vec::with_capacity(results.iter().map(|(r, _)| r.len()).sum());
    for (out, m) in results {
        rows.extend(out);
        meter.absorb(&m);
    }
    Ok(rows)
}

/// Probes a partitioned table with `probe` rows, co-partitioning them onto
/// the table's chunks and probing every chunk through the pool. At one
/// partition this is byte-identical (order included) to the sequential
/// [`ops::probe_table`]; at `P` partitions the concatenated output is the
/// same multiset and the meter is byte-identical (each chunk charges its
/// own emit; the emits sum to the sequential total).
fn probe_pooled(
    popt: PartitionOptions,
    table: &PartitionedTable,
    probe: &SignedRows,
    probe_keys: &[usize],
    build_is_left: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    let mut sp = obs::span(obs::SpanKind::Operator, "hash_probe");
    let out = if table.parts() > 1 {
        sp.attr_u64(obs::keys::PARTITIONS, table.parts() as u64);
        let chunks = split_pooled(popt, table.parts(), probe, probe_keys);
        let parent = obs::current_span_id();
        pooled_rows(
            popt,
            parent,
            "hash_probe",
            table.parts(),
            |i, m| table.probe_chunk(i, &chunks[i], probe_keys, build_is_left, m),
            meter,
        )?
    } else {
        table.probe_chunk(0, probe, probe_keys, build_is_left, meter)?
    };
    sp.attr_u64(obs::keys::ROWS, out.len() as u64);
    Ok(out)
}

/// [`scan_operand`], chunk-parallel over the pool for base-extent reads.
/// Cloning each stored tuple is row-independent, so contiguous ranges of
/// the extent clone concurrently and concatenate back in iteration order —
/// the output bytes and the meter charge (one `scan` of the full extent)
/// are identical to the sequential scan. Delta reads stay sequential: they
/// are a window's worth of rows, far below the extent sizes that make the
/// fan-out pay.
fn scan_operand_pooled(
    popt: PartitionOptions,
    state: &Catalog,
    pending: &BTreeMap<String, PendingDelta>,
    view: &str,
    as_delta: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    if as_delta || !popt.parallel() {
        return scan_operand(state, pending, view, as_delta, meter);
    }
    let table = state.get(view)?;
    let entries: Vec<(&Tuple, u64)> = table.iter().collect();
    if entries.len() < 2 {
        return scan_operand(state, pending, view, as_delta, meter);
    }
    meter.scan(table.len());
    let parent = obs::current_span_id();
    let parts = popt.partitions;
    let chunk = entries.len().div_ceil(parts);
    let cloned = pool::run_tasks(parts, popt.workers(parts), popt.steal, |i| {
        let lo = (i * chunk).min(entries.len());
        let hi = (lo + chunk).min(entries.len());
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("scan[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, (hi - lo) as u64);
        entries[lo..hi]
            .iter()
            .map(|&(t, m)| (t.clone(), m as i64))
            .collect::<SignedRows>()
    });
    Ok(cloned.concat())
}

/// Materializes a filtered operand from `rows`, chunk-parallel: each worker
/// clones only the rows of its contiguous range that pass every pushed-down
/// filter, and ranges concatenate back in input order — byte-identical to
/// cloning the raw extent and filtering it, without ever materializing the
/// unfiltered clone.
fn filter_pooled(
    popt: PartitionOptions,
    rows: &SignedRows,
    bounds: &[BoundPredicate],
) -> RelResult<SignedRows> {
    let keep = |(t, m): &(Tuple, i64)| -> RelResult<Option<(Tuple, i64)>> {
        for b in bounds {
            if !b.eval(t)? {
                return Ok(None);
            }
        }
        Ok(Some((t.clone(), *m)))
    };
    if !popt.parallel() || rows.len() < 2 {
        let mut out = Vec::new();
        for r in rows {
            if let Some(x) = keep(r)? {
                out.push(x);
            }
        }
        return Ok(out);
    }
    let parent = obs::current_span_id();
    let parts = popt.partitions;
    let chunk = rows.len().div_ceil(parts);
    let chunks = pool::run_tasks(parts, popt.workers(parts), popt.steal, |i| {
        let lo = (i * chunk).min(rows.len());
        let hi = (lo + chunk).min(rows.len());
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("filter[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, (hi - lo) as u64);
        let mut out = Vec::new();
        for r in &rows[lo..hi] {
            if let Some(x) = keep(r)? {
                out.push(x);
            }
        }
        Ok(out)
    });
    let mut out = Vec::new();
    for c in chunks {
        out.extend(c?);
    }
    Ok(out)
}

/// [`Partitioner::split`], chunk-parallel: each worker buckets one
/// contiguous range of `rows` by key hash, and per-partition buckets
/// concatenate in range order — the same stable row order the sequential
/// split produces. The per-row cost (key serialization, FNV, tuple clone)
/// is what makes large splits expensive, and all of it runs inside the
/// fan-out.
fn split_pooled(
    popt: PartitionOptions,
    parts: usize,
    rows: &SignedRows,
    keys: &[usize],
) -> Vec<SignedRows> {
    if !popt.parallel() || keys.is_empty() || rows.len() < 2 {
        return Partitioner::new(parts).split(rows, keys);
    }
    let parent = obs::current_span_id();
    let chunk = rows.len().div_ceil(parts);
    let bucketed = pool::run_tasks(parts, popt.workers(parts), popt.steal, |i| {
        let lo = (i * chunk).min(rows.len());
        let hi = (lo + chunk).min(rows.len());
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("split[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, (hi - lo) as u64);
        let mut buckets: Vec<SignedRows> = vec![Vec::new(); parts];
        for (t, m) in &rows[lo..hi] {
            buckets[ops::part_of(t, keys, parts)].push((t.clone(), *m));
        }
        buckets
    });
    let mut out: Vec<SignedRows> = vec![Vec::new(); parts];
    for buckets in bucketed {
        for (j, b) in buckets.into_iter().enumerate() {
            out[j].extend(b);
        }
    }
    out
}

/// Builds a partitioned table over `rows`, splitting by key hash and
/// indexing the chunks through the pool. Charges exactly one
/// [`WorkMeter::hash_build`] over the total input, so the meter equals the
/// sequential build's at any partition count.
fn build_pooled(
    popt: PartitionOptions,
    rows: &SignedRows,
    keys: &[usize],
    meter: &mut WorkMeter,
) -> PartitionedTable {
    if !popt.parallel() || keys.is_empty() {
        return ops::build_partitioned(rows, keys, 1, meter);
    }
    let parent = obs::current_span_id();
    let chunks = split_pooled(popt, popt.partitions, rows, keys);
    let indexed = pool::run_tasks(chunks.len(), popt.workers(chunks.len()), popt.steal, |i| {
        let mut span = obs::span_under_dyn(obs::SpanKind::Operator, parent, || {
            format!("hash_build[p{i}]")
        });
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, chunks[i].len() as u64);
        ops::BuiltTable::index(&chunks[i], keys)
    });
    meter.hash_build(rows.len() as u64);
    PartitionedTable::from_indexed(keys.to_vec(), chunks.into_iter().zip(indexed).collect())
}

/// Simulates one term's greedy join sequence against the cached operand
/// sizes, returning the build key of every step — `None` for cross joins.
/// Mirrors [`join_term`] exactly: start from the smallest operand, then
/// repeatedly join the smallest connected one, sizing joined operands as
/// `usize::MAX`; the intermediate's size never participates.
fn plan_term_steps(
    def: &ViewDef,
    qschemas: &[Schema],
    size_of: &dyn Fn(usize, bool) -> usize,
    subset: &BTreeSet<String>,
) -> RelResult<Vec<Option<TableKey>>> {
    let n = def.sources.len();
    let role: Vec<bool> = def
        .sources
        .iter()
        .map(|s| subset.contains(&s.view))
        .collect();
    let mut in_set = vec![false; n];
    let size = |in_set: &[bool], i: usize| {
        if in_set[i] {
            usize::MAX
        } else {
            size_of(i, role[i])
        }
    };
    let start = (0..n)
        .min_by_key(|&i| size(&in_set, i))
        .expect("at least one source");
    let mut joined_schema = qschemas[start].clone();
    in_set[start] = true;
    let mut steps = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let next = eval::pick_next(def, &in_set, |i| size(&in_set, i));
        let (lk, rk) = eval::join_keys(def, &in_set, next, &joined_schema, &qschemas[next])?;
        steps.push(if lk.is_empty() {
            None
        } else {
            Some((next, role[next], rk))
        });
        joined_schema = joined_schema.concat(&qschemas[next])?;
        in_set[next] = true;
    }
    Ok(steps)
}

/// A term's projected (or grouped) output, ready to fold into the `Comp`'s
/// pending fragment.
enum TermOut {
    /// Consolidated projection delta (non-aggregate views).
    Rows(SignedRows),
    /// Per-group accumulator deltas (aggregate views).
    Groups(HashMap<Tuple, GroupAcc>),
}

/// Evaluates one maintenance term against the cache — the output-identical
/// mirror of [`eval::eval_term`] plus the downstream projection/grouping.
fn eval_term_cached(
    def: &ViewDef,
    cache: &OperandCache,
    subset: &BTreeSet<String>,
    meter: &mut WorkMeter,
) -> CoreResult<TermOut> {
    let (schema, rows) = join_term(def, cache, subset, meter).map_err(CoreError::Rel)?;
    match &def.output {
        ViewOutput::Project(_) => {
            let out = eval::project_output(def, &schema, &rows, meter).map_err(CoreError::Rel)?;
            Ok(TermOut::Rows(ops::consolidate(out)))
        }
        ViewOutput::Aggregate { .. } => {
            let popt = cache.partition;
            if popt.parallel() && rows.len() > 1 {
                // Grouping is commutative and associative: group contiguous
                // chunks through the pool and merge — identical accumulator
                // map to the sequential pass (merge order cannot matter).
                let spec = eval::agg_spec(def, &schema).map_err(CoreError::Rel)?;
                let mut sp = obs::span(obs::SpanKind::Operator, "group_merge");
                sp.attr_u64(obs::keys::PARTITIONS, popt.partitions as u64);
                let chunks = Partitioner::new(popt.partitions).split_contiguous(&rows);
                let parent = obs::current_span_id();
                let parts =
                    pool::run_tasks(chunks.len(), popt.workers(chunks.len()), popt.steal, |i| {
                        let mut span = obs::span_under_dyn(obs::SpanKind::Operator, parent, || {
                            format!("group[p{i}]")
                        });
                        span.attr_u64(obs::keys::PARTITION, i as u64);
                        span.attr_u64(obs::keys::ROWS, chunks[i].len() as u64);
                        ops::group_rows(&chunks[i], &spec)
                    });
                let mut maps = Vec::with_capacity(parts.len());
                for p in parts {
                    maps.push(p.map_err(CoreError::Rel)?);
                }
                let groups = ops::merge_groups(maps);
                sp.attr_u64(obs::keys::ROWS, groups.len() as u64);
                Ok(TermOut::Groups(groups))
            } else {
                let groups = eval::group_output(def, &schema, &rows).map_err(CoreError::Rel)?;
                Ok(TermOut::Groups(groups))
            }
        }
    }
}

fn join_term(
    def: &ViewDef,
    cache: &OperandCache,
    subset: &BTreeSet<String>,
    meter: &mut WorkMeter,
) -> RelResult<(Schema, SignedRows)> {
    meter.term();
    let n = def.sources.len();

    // Charge the logical scans the per-term path performs when it loads
    // each operand, and pin the role each source plays in this term.
    let mut role = Vec::with_capacity(n);
    let mut avail: Vec<Option<&CachedOperand>> = Vec::with_capacity(n);
    for s in &def.sources {
        let as_delta = subset.contains(&s.view);
        let op = cache.operand(role.len(), as_delta);
        meter.scan_logical(op.raw_len);
        role.push(as_delta);
        avail.push(Some(op));
    }

    let size = |avail: &[Option<&CachedOperand>], i: usize| {
        avail[i].map_or(usize::MAX, |op| op.rows.len())
    };
    let start = (0..n)
        .min_by_key(|&i| size(&avail, i))
        .expect("at least one source");
    let mut joined_schema = cache.qschemas[start].clone();
    let mut joined_rows: SignedRows = (*avail[start].take().expect("start operand").rows).clone();
    let mut in_set = vec![false; n];
    in_set[start] = true;

    for _ in 1..n {
        let next = eval::pick_next(def, &in_set, |i| size(&avail, i));
        let (lk, rk) = eval::join_keys(def, &in_set, next, &joined_schema, &cache.qschemas[next])?;
        let popt = cache.partition;
        let right = avail[next].take().expect("operand joined twice");
        joined_rows = if lk.is_empty() {
            // Cross join: no key to co-partition on, so fan out over
            // contiguous chunks of the intermediate — chunk order
            // concatenates back to the sequential output byte-for-byte.
            let mut sp = obs::span(obs::SpanKind::Operator, "cross_join");
            let out = if popt.parallel() && joined_rows.len() > 1 {
                sp.attr_u64(obs::keys::PARTITIONS, popt.partitions as u64);
                let chunks = Partitioner::new(popt.partitions).split_contiguous(&joined_rows);
                let parent = obs::current_span_id();
                pooled_rows(
                    popt,
                    parent,
                    "cross_join",
                    chunks.len(),
                    |i, m| ops::cross_join(&chunks[i], &right.rows, m),
                    meter,
                )?
            } else {
                ops::cross_join(&joined_rows, &right.rows, meter)?
            };
            sp.attr_u64(obs::keys::ROWS, out.len() as u64);
            out
        } else if let Some(table) = cache.cross_table(&(next, role[next], rk.clone()), meter) {
            // The strategy plan marked this key consumed: the table was
            // built by an earlier expression over identity-equal rows and
            // nothing modified the operand since — probe it directly, no
            // local build at all.
            {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_table_cross");
                sp.attr_u64(obs::keys::ROWS, right.rows.len() as u64);
            }
            probe_pooled(popt, &table, &joined_rows, &lk, false, meter)?
        } else if cache.shared.contains(&(next, role[next], rk.clone())) {
            // The static plan marked this (source, role, keys) as repeating
            // across the Comp's terms: intern the pure-operand table — the
            // first use builds, every other use reuses, regardless of how
            // large the accumulated intermediate happens to be.
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_table_intern");
                sp.attr_u64(obs::keys::ROWS, right.rows.len() as u64);
                cache.table(next, role[next], &rk, meter)
            };
            probe_pooled(popt, &table, &joined_rows, &lk, false, meter)?
        } else if joined_rows.len() <= right.rows.len() {
            // Unshared step, intermediate smaller: build fresh exactly as
            // hash_join would — one build, no reuse, either orientation.
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_build");
                sp.attr_u64(obs::keys::ROWS, joined_rows.len() as u64);
                build_pooled(popt, &joined_rows, &lk, meter)
            };
            probe_pooled(popt, &table, &right.rows, &rk, true, meter)?
        } else {
            // Unshared step, operand smaller: build fresh over the operand
            // without interning — the key occurs once, so a cache entry
            // would never be reused.
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_build");
                sp.attr_u64(obs::keys::ROWS, right.rows.len() as u64);
                build_pooled(popt, &right.rows, &rk, meter)
            };
            probe_pooled(popt, &table, &joined_rows, &lk, false, meter)?
        };
        joined_schema = joined_schema.concat(&cache.qschemas[next])?;
        in_set[next] = true;
        // Deliberately no empty-intermediate short circuit here (the
        // per-term reference keeps it): the static plan prices every step,
        // and joining an empty intermediate emits nothing and touches only
        // the planned build — so the hash-table counters match the
        // prediction exactly while the output bytes are unaffected.
    }

    if !cache.residual.is_empty() {
        let mut sp = obs::span(obs::SpanKind::Operator, "filter");
        for &fi in &cache.residual {
            let bound = def.filters[fi].bind(&joined_schema)?;
            joined_rows = ops::filter(joined_rows, &bound)?;
        }
        sp.attr_u64(obs::keys::ROWS, joined_rows.len() as u64);
    }
    Ok((joined_schema, joined_rows))
}

/// Display label for a maintenance term: the delta subset it scans.
fn term_label(subset: &BTreeSet<String>) -> String {
    let mut out = String::from("d{");
    for (i, v) in subset.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Computes the delta fragment a `Comp(view, over)` expression contributes,
/// **without mutating the warehouse**: all `2^|over| − 1` maintenance terms
/// evaluated, in term order, against the current state and pending deltas
/// through a fresh [`OperandCache`] and accumulated into a fresh
/// [`PendingDelta`]; the meter folds cache materialization and every term.
/// Terms whose delta subset includes a view with an empty pending delta are
/// skipped (footnote 5 of the paper), costing nothing — for *every* strategy
/// alike; the same filter backs the static sharing prediction, so plans and
/// execution always agree on the term set.
///
/// Pure over `&Warehouse`, so independent `Comp` expressions of one parallel
/// stage can run on separate threads (Section 9). `strategy` attaches the
/// strategy-scope cache together with this expression's strategy position
/// (for its planned directives). The fragment bytes and logical meter equal
/// [`eval::reference_comp_fragment`]'s; only the physical counters differ.
pub(crate) fn comp_fragment(
    w: &Warehouse,
    view: ViewId,
    over: &BTreeSet<ViewId>,
    partition: PartitionOptions,
    strategy: Option<(&StrategyCache, usize)>,
) -> CoreResult<(PendingDelta, WorkMeter)> {
    let name = w.vdag().name(view);
    let def = w
        .def(name)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {name}")))?;
    let terms = surviving_terms(w, &w.view_names(over));
    let mut fragment = w.empty_pending_for(name)?;
    let (cache, mut total) = {
        let mut sp = obs::span(obs::SpanKind::Operator, "materialize_operands");
        let (cache, meter) = OperandCache::build(w, def, &terms, strategy, partition)?;
        sp.attr_u64(obs::keys::PHYSICAL_ROWS, meter.physical_rows_touched);
        sp.attr_u64(
            obs::keys::PREDICTED_HASH_BUILDS,
            cache.plan.predicted_builds,
        );
        sp.attr_u64(
            obs::keys::PREDICTED_HASH_REUSES,
            cache.plan.predicted_reuses,
        );
        sp.attr_u64(
            obs::keys::PREDICTED_HASH_CROSS_REUSES,
            cache.plan.cross_reuses,
        );
        sp.attr_u64(obs::keys::PREDICTED_CACHED_READS, cache.plan.cached_reads);
        (cache, meter)
    };
    for subset in &terms {
        let mut span = obs::span_dyn(obs::SpanKind::Term, || term_label(subset));
        let mut meter = WorkMeter::new();
        let out = eval_term_cached(def, &cache, subset, &mut meter);
        meter_attrs(&mut span, &meter);
        total.absorb(&meter);
        match (out?, &mut fragment) {
            (TermOut::Rows(rows), PendingDelta::Rows(acc)) => {
                for (t, m) in rows {
                    acc.add(t, m);
                }
            }
            (TermOut::Groups(groups), PendingDelta::Summary(acc)) => acc.merge_groups(groups),
            _ => unreachable!("empty_pending_for matches the output shape"),
        }
    }
    Ok((fragment, total))
}

/// The surviving terms of a `Comp` over `over_names` under the footnote-5
/// empty-delta filter — exactly the term set the executor evaluates, and
/// therefore the term set every static prediction must cover.
pub fn surviving_terms(w: &Warehouse, over_names: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
    eval::nonempty_subsets(over_names)
        .into_iter()
        .filter(|subset| {
            subset
                .iter()
                .all(|v| w.pending(v).is_some_and(|d| !d.is_empty()))
        })
        .collect()
}

/// Statically predicts the shared engine's hash-table counters and operand
/// uses for one `Comp(view, over)` against the warehouse's **current**
/// state and pending deltas. The prediction is exact: executing that
/// `Comp` next (at any partition count) produces precisely
/// `predicted_builds`/`predicted_reuses`.
pub fn predict_comp_sharing(
    w: &Warehouse,
    view: &str,
    over_names: &BTreeSet<String>,
) -> CoreResult<CompSharingPlan> {
    let def = w
        .def(view)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {view}")))?
        .clone();
    let terms = surviving_terms(w, over_names);
    // Predictions are partition-independent: the partitioned engine's
    // logical and hash-table meters are byte-identical to sequential.
    let (cache, _) = OperandCache::build(w, &def, &terms, None, PartitionOptions::default())?;
    Ok(cache.plan)
}

/// The static sharing prediction for one strategy expression.
#[derive(Clone, Debug)]
pub struct ExprSharingPrediction {
    /// Target view name.
    pub view: String,
    /// `"comp"` or `"inst"` — matches the `expr_kind` span attribute.
    pub kind: &'static str,
    /// The `Comp`'s plan; zeroed for `Inst` (installs build no tables).
    pub plan: CompSharingPlan,
}

/// Predicts the shared engine's per-expression hash-table counters for a
/// whole strategy by replaying it on a scratch clone: each `Comp` is
/// planned against the state the preceding expressions produce (derived
/// deltas — and hence operand sizes and join orders — depend on it), then
/// the expression executes to advance the clone. Validation is skipped on
/// the single-expression steps; the strategy itself is not judged here.
pub fn predict_strategy_sharing(
    w: &Warehouse,
    strategy: &Strategy,
) -> CoreResult<Vec<ExprSharingPrediction>> {
    Ok(plan_strategy_sharing(w, strategy, SharingScope::Comp)?.exprs)
}

/// Which cache scope a sharing plan targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingScope {
    /// Per-`Comp` caching only — PR 4/6 behavior, the default.
    Comp,
    /// Strategy-wide caching: materializations and build tables survive
    /// across expressions until the operand is modified.
    Strategy,
}

/// The strategy-scope sharing plan: exact per-expression predictions plus
/// the runtime consume/publish directives the executor realizes.
pub struct StrategySharingPlan {
    /// Per-expression predictions, in strategy order. Under
    /// [`SharingScope::Strategy`] the build/reuse counters are adjusted
    /// for cross-expression service and `cross_reuses`/`cached_reads`
    /// are populated.
    pub exprs: Vec<ExprSharingPrediction>,
    /// Predicted hash-table uses served from a *previous window's* carried
    /// table (zero unless the plan was seeded with a [`WindowCarry`]).
    /// Subset of the total predicted cross-reuses.
    pub carried_table_hits: u64,
    /// Predicted raw operand reads served from a previous window's carried
    /// materialization. Subset of the total predicted cached reads.
    pub carried_raw_hits: u64,
    /// Per-expression cache directives (empty under [`SharingScope::Comp`]).
    pub(crate) directives: Vec<CompCacheDirectives>,
}

impl StrategySharingPlan {
    /// Total predicted cross-expression hash-table reuses.
    pub fn cross_reuses(&self) -> u64 {
        self.exprs.iter().map(|e| e.plan.cross_reuses).sum()
    }

    /// Total predicted strategy-cache-served raw operand reads.
    pub fn cached_reads(&self) -> u64 {
        self.exprs.iter().map(|e| e.plan.cached_reads).sum()
    }

    /// Total filtered rows of consumed keys across the strategy — the
    /// build-avoidance quantity the shared planner objective prices.
    pub fn cross_saved_rows(&self) -> u64 {
        self.exprs.iter().map(|e| e.plan.cross_saved_rows).sum()
    }

    /// A runtime cache primed with this plan's directives plus the previous
    /// window's surviving entries. Only meaningful when the plan was built
    /// by [`plan_strategy_sharing_carried`] over the *same* carry, so the
    /// directives and the seeded entries agree.
    pub(crate) fn cache_with(&self, carry: WindowCarry) -> StrategyCache {
        StrategyCache::with_carry(self.directives.clone(), carry)
    }
}

/// Plans a whole strategy's sharing at the requested scope.
///
/// The replay first produces every `Comp`'s per-expression plan (exactly
/// [`predict_strategy_sharing`]); under [`SharingScope::Strategy`] a second,
/// purely static pass walks those plans in order with the `UWW012` liveness
/// predicate: a keyed build whose [`SharedIdentity`] is live (built by an
/// earlier expression, operand unmodified since) is marked **consume**, and
/// a first build whose identity a later live expression will use again is
/// marked **publish**. The per-expression counters are adjusted to what the
/// directive-driven executor will measure — consumed keys build nothing and
/// turn every use into a cross-reuse; raw reads present in the live set
/// become `cached_reads`.
pub fn plan_strategy_sharing(
    w: &Warehouse,
    strategy: &Strategy,
    scope: SharingScope,
) -> CoreResult<StrategySharingPlan> {
    plan_strategy_sharing_seeded(w, strategy, scope, None)
}

/// [`plan_strategy_sharing`] at strategy scope, seeded with the previous
/// window's [`WindowCarry`]: the liveness walk starts with the carried
/// identities live, so expressions at the *front* of the strategy can
/// consume tables (and raw materializations) built by the previous window.
/// The plan's `carried_table_hits`/`carried_raw_hits` predict exactly how
/// many uses the carried entries will serve — the conformance quantity
/// [`Warehouse::execute_carried`](crate::engine::Warehouse::execute_carried)
/// checks against the measured counters.
pub fn plan_strategy_sharing_carried(
    w: &Warehouse,
    strategy: &Strategy,
    carry: &WindowCarry,
) -> CoreResult<StrategySharingPlan> {
    plan_strategy_sharing_seeded(w, strategy, SharingScope::Strategy, Some(carry))
}

fn plan_strategy_sharing_seeded(
    w: &Warehouse,
    strategy: &Strategy,
    scope: SharingScope,
    carry: Option<&WindowCarry>,
) -> CoreResult<StrategySharingPlan> {
    let mut scratch = w.clone();
    // The replay is a prediction, not part of the run: keep its spans out of
    // any installed trace (a traced `--strategy-sharing` run plans first).
    let _quiet = obs::suppress();
    let mut exprs = Vec::with_capacity(strategy.exprs.len());
    for expr in &strategy.exprs {
        let pred = match expr {
            UpdateExpr::Comp { view, over } => {
                let name = scratch.vdag().name(*view).to_string();
                let plan = predict_comp_sharing(&scratch, &name, &scratch.view_names(over))?;
                ExprSharingPrediction {
                    view: name,
                    kind: "comp",
                    plan,
                }
            }
            UpdateExpr::Inst(v) => ExprSharingPrediction {
                view: scratch.vdag().name(*v).to_string(),
                kind: "inst",
                plan: CompSharingPlan::default(),
            },
        };
        exprs.push(pred);
        scratch.execute_with(
            &Strategy::from_exprs(vec![expr.clone()]),
            crate::engine::exec::ExecOptions {
                validate: false,
                ..Default::default()
            },
        )?;
    }

    let mut directives: Vec<CompCacheDirectives> = (0..exprs.len())
        .map(|_| CompCacheDirectives::default())
        .collect();
    let mut carried_table_hits = 0u64;
    let mut carried_raw_hits = 0u64;
    if scope == SharingScope::Strategy {
        let g = w.vdag();
        // Does any Comp after `j` use `id` before an expression modifies
        // its operand? Reads happen before an expression's own writes, so
        // usage at `p` is checked before `p`'s modification.
        let wanted_later = |exprs: &[ExprSharingPrediction], j: usize, id: &SharedIdentity| {
            for (p, pred) in exprs.iter().enumerate().skip(j + 1) {
                if pred.plan.operands.iter().any(|o| o.identity() == *id) {
                    return true;
                }
                if uww_analysis::modifies_operand(g, &strategy.exprs[p], &id.0, id.1) {
                    return false;
                }
            }
            false
        };
        // The liveness walk starts from the previous window's survivors
        // (empty without a carry); the carried subsets are tracked through
        // the same retention so a carried entry that dies mid-strategy
        // stops being counted exactly when the runtime cache drops it.
        let (mut live_tables, mut live_raws) = carry.map_or_else(
            || (HashSet::new(), HashSet::new()),
            |c| {
                let (t, r) = c.seed();
                (t, r)
            },
        );
        let mut carried_tables: HashSet<SharedIdentity> = live_tables.clone();
        let mut carried_raws: HashSet<(String, bool)> = live_raws.clone();
        for j in 0..exprs.len() {
            let d = &mut directives[j];
            let mut cross_reuses = 0u64;
            let mut consumed_keys = 0u64;
            let mut cross_saved_rows = 0u64;
            for o in &exprs[j].plan.operands {
                let id = o.identity();
                if live_tables.contains(&id) {
                    cross_reuses += o.occurrences;
                    consumed_keys += 1;
                    cross_saved_rows += o.rows;
                    if carried_tables.contains(&id) {
                        carried_table_hits += o.occurrences;
                    }
                    d.consume.insert(id);
                } else if wanted_later(&exprs, j, &id) {
                    d.publish.insert(id);
                }
            }
            let plan = &mut exprs[j].plan;
            let keyed_steps = plan.predicted_builds + plan.predicted_reuses;
            plan.predicted_builds -= consumed_keys;
            plan.predicted_reuses = keyed_steps - plan.predicted_builds;
            plan.cross_reuses = cross_reuses;
            plan.cross_saved_rows = cross_saved_rows;
            d.raw_consume = plan
                .reads
                .iter()
                .filter(|r| live_raws.contains(*r))
                .cloned()
                .collect();
            plan.cached_reads = d.raw_consume.len() as u64;
            carried_raw_hits += plan
                .reads
                .iter()
                .filter(|r| carried_raws.contains(*r))
                .count() as u64;
            // Publishes land during execution; the expression's own
            // modifications apply after — in that order, matching the
            // executor (a Comp never modifies its own sources' operands).
            live_raws.extend(plan.reads.iter().cloned());
            live_tables.extend(d.publish.iter().cloned());
            live_tables
                .retain(|id| !uww_analysis::modifies_operand(g, &strategy.exprs[j], &id.0, id.1));
            live_raws.retain(|r| !uww_analysis::modifies_operand(g, &strategy.exprs[j], &r.0, r.1));
            carried_tables
                .retain(|id| !uww_analysis::modifies_operand(g, &strategy.exprs[j], &id.0, id.1));
            carried_raws
                .retain(|r| !uww_analysis::modifies_operand(g, &strategy.exprs[j], &r.0, r.1));
        }
    }
    Ok(StrategySharingPlan {
        exprs,
        carried_table_hits,
        carried_raw_hits,
        directives,
    })
}
