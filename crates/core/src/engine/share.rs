//! Shared-operand term evaluation: maintained indexes and one operand store.
//!
//! Within one `Comp(W, Y)` no `Inst` intervenes, so the stored extents and
//! pending deltas every maintenance term scans are *identical* across the
//! `2^|Y| − 1` terms. The paper's model (and [`super::eval::eval_term`])
//! nevertheless charges — and the naive executor performs — a full operand
//! scan and a fresh hash-table build per term. This module is the executor's
//! answer, one structure per operand role:
//!
//! * **the stored role reads the warehouse's maintained indexes**
//!   ([`super::index`]): the filtered extent of each `(view, filters)` and a
//!   key index per key column list a join step probes it by, built by the
//!   first `Comp` that needs them and kept current by every `Inst` since. A
//!   keyed step into a stored operand probes its key index with the
//!   intermediate; a stored start or cross-join operand iterates the
//!   extent's rows. So a 1-way term costs about its delta, as on the
//!   paper's RDBMS, and nothing over a stored operand is rebuilt when an
//!   `Inst` changes it;
//! * **the delta role goes through an [`OperandStore`]**: each raw pending
//!   delta materialization and each hash-join build table over one, keyed
//!   by [`SharedIdentity`], every entry tagged with the expression that
//!   produced it.
//!
//! **Plan, ensure, evaluate.** A `Comp` is first planned and its indexes
//! ensured under `&mut Warehouse` ([`prepare_comp`]): delta operands read
//! and filtered, stored extents looked up or built, every term's join
//! sequence fixed, and every key index a step will probe looked up or
//! built. Its terms then evaluate against `&Warehouse` alone
//! ([`comp_fragment`]), so the concurrent `Comp`s of a stage share the
//! indexes read-only.
//!
//! **The store is driven by lookups.** A raw read or keyed build that finds
//! its entry reuses it; one that misses reads or builds, and inserts. The
//! producer tag is what the meter reports: a hit on an entry — or a probe
//! of a key index — this `Comp` built is a `hash_tables_reused`, a hit on
//! an earlier expression's is also a `hash_tables_cross_reused` (an extent
//! an earlier expression built is an `operand_reads_cached`), and a probe
//! of an index that existed when the window began is additionally a carried
//! hit. A miss never changes a byte of state, delta or WAL — equal identity
//! over an unmodified operand means element-identical filtered rows, hence
//! an interchangeable build table.
//!
//! **Scope is a lifetime.** The window runner keeps one store and decides
//! how long its entries live: emptied after each `Comp` when
//! `ExecOptions::strategy_sharing` is off, kept while a later expression of
//! the window can read them when it is on. Two rules bound an entry's life:
//!
//! * **liveness** — an entry is dropped when an executed expression actually
//!   changed its operand: [`modifies_operand`] holds *and* the
//!   install or fragment was non-empty ([`OperandStore::expr_done`]);
//! * **retention** — an entry outlives the `Comp` that used it only if a
//!   later expression of the window reads its delta before one modifies it
//!   ([`read_later`], decided from the view definitions and the strategy
//!   without executing anything). Nothing outlives the window: the next
//!   batch replaces every pending delta, so the [`WindowCarry`] a window
//!   hands on is empty and what carries over is the warehouse's indexes.
//!
//! **Which keys go through the store is static per `Comp`.** Because the
//! greedy join order sizes operands by their *filtered* lengths — never by
//! the accumulated intermediate — every term's join sequence is determined
//! before any term runs. [`CompInputs::build`] simulates those sequences; a
//! delta-role build key goes through the store when the store already
//! holds it, when it occurs in two or more join steps across the `Comp`'s
//! terms, or when retention will keep it for a later expression. Every
//! other delta-role step builds fresh on its smaller side, exactly like
//! `hash_join`. The resulting counters are independent of the partition
//! count.
//!
//! **Partitions cut inputs, never tables.** At every partition count an
//! operand is read once and a build table or key index covers the whole of
//! it; `P` partitions cut the input of each pushed-down filter, probe, cross
//! join and grouping into `P` contiguous slices that run on the pool against
//! the same rows and table ([`chunked`]), and the outputs join back in slice
//! order. Output, meter and store are therefore byte-identical to `P = 1`.
//!
//! Three invariants make the engine safe to enable by default:
//!
//! * **output identity** — the cached evaluator replays `eval_term`'s exact
//!   greedy join order and residual filters, and join output is an
//!   orientation-independent multiset, so every term's consolidated
//!   fragment, the merged `ΔW`, the final state, and the WAL `CD` payload
//!   (canonically sorted) are byte-identical to the per-term reference
//!   ([`eval::reference_comp_fragment`]); only emission order may differ;
//! * **logical-meter identity** — each term still charges
//!   [`WorkMeter::scan_logical`] for the full raw operand it *would* have
//!   scanned, so `operand_rows_scanned` (the planner's linear metric) and
//!   `rows_emitted` are unchanged; only `physical_rows_touched` and the
//!   hash-table counters reveal the savings;
//! * **every planned step runs** — unlike the per-term reference, the shared
//!   path performs every join step even when an intermediate empties
//!   (joining an empty side costs nothing and emits nothing), so the
//!   hash-table counters depend on the join sequences alone.
//!
//! **There is no predictor.** What a `Comp` did — each term's join order
//! and every distinct keyed operand use — leaves [`comp_fragment`] as an
//! [`ExprSharingProfile`] beside the meter; describing a window offline is
//! running it on a scratch clone
//! ([`plan_strategy_sharing`](crate::engine::plan_strategy_sharing)).

use crate::engine::eval;
use crate::engine::exec::{meter_attrs, Item};
use crate::engine::index::{ExtentKey, Producer};
use crate::engine::pool::{self, PartitionOptions};
use crate::engine::profile::{modifies_operand, ExprSharingProfile, OperandProfile, TermProfile};
use crate::engine::warehouse::{scan_operand, PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use uww_obs as obs;
use uww_relational::ops::{self, BuiltTable, GroupMap, MaintainedIndex, SignedRows};
use uww_relational::{BoundPredicate, RelResult, Schema, Tuple, ViewDef, ViewOutput, WorkMeter};
use uww_vdag::{UpdateExpr, Vdag, ViewId};

/// One operand role of one source, as the `Comp`'s terms read it, with the
/// raw (pre-filter) extent size the logical metric charges per term.
enum Operand {
    /// The filtered pending delta, read through the store.
    Delta(Arc<SignedRows>, u64),
    /// The warehouse's maintained index over the filtered stored extent.
    Stored(Arc<MaintainedIndex>, u64),
}

impl Operand {
    /// The filtered rows every term sees.
    fn rows(&self) -> &[(Tuple, i64)] {
        match self {
            Operand::Delta(rows, _) => rows,
            Operand::Stored(index, _) => index.rows(),
        }
    }

    fn raw_len(&self) -> u64 {
        match self {
            Operand::Delta(_, n) | Operand::Stored(_, n) => *n,
        }
    }
}

/// A `Comp`-local build key: `(source index, as_delta, key columns)`.
type TableKey = (usize, bool, Vec<usize>);

/// The store key of a keyed build over a delta: everything the table's
/// contents depend on — source view, role, key column names (alias
/// qualified), and the rendered pushed-down filters — but *not* the source
/// position, so identical uses from different view definitions match. Two
/// uses with equal identity over an operand no expression modified in
/// between materialize element-identical filtered rows and therefore build
/// interchangeable hash tables.
type SharedIdentity = (String, bool, Vec<String>, Vec<String>);

/// `use_`'s store key.
fn identity(use_: &OperandProfile) -> SharedIdentity {
    (
        use_.source.clone(),
        use_.as_delta,
        use_.key_cols.clone(),
        use_.filters.clone(),
    )
}

/// The delta-role operand cache: raw pending-delta materializations (with
/// the raw length the logical metric charges per term) and hash-join build
/// tables keyed by [`SharedIdentity`] — each with the filtered rows it
/// indexes — every entry tagged with the strategy position of the `Comp`
/// that produced it. It also counts, for the window, the probes and extent
/// reads the maintained indexes served from before the window began.
///
/// Its scope is how long the window runner keeps it (module docs). Handed
/// back by [`Warehouse::execute_carried`](crate::engine::Warehouse::execute_carried)
/// it is the [`WindowCarry`], which holds nothing: no pending delta outlives
/// its window, and the stored role carries over as the warehouse's indexes.
#[derive(Clone, Default)]
pub struct OperandStore {
    tables: HashMap<SharedIdentity, (Arc<SignedRows>, Arc<BuiltTable>, usize)>,
    raws: HashMap<String, (Arc<SignedRows>, u64)>,
    /// Key-index probes and extent reads served by indexes that existed
    /// when the window began.
    carried_table_hits: u64,
    carried_raw_hits: u64,
}

/// The [`OperandStore`] as it crosses from one update window to the next.
pub type WindowCarry = OperandStore;

impl std::fmt::Debug for OperandStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperandStore")
            .field("tables", &self.tables.len())
            .field("raws", &self.raws.len())
            .finish()
    }
}

impl OperandStore {
    /// A store with no entries (what the first window starts from).
    pub fn empty() -> OperandStore {
        OperandStore::default()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.raws.is_empty()
    }

    /// The store a window starts from: the previous window's `carry` with
    /// its hit counters reset, or nothing when there is none.
    pub(crate) fn start_window(carry: Option<WindowCarry>) -> OperandStore {
        let mut store = carry.unwrap_or_default();
        (store.carried_table_hits, store.carried_raw_hits) = (0, 0);
        store
    }

    /// Measured `(table hits, raw hits)` served from carried-in indexes.
    pub(crate) fn carried_hits(&self) -> (u64, u64) {
        (self.carried_table_hits, self.carried_raw_hits)
    }

    /// Keeps the entries `keep` accepts: a raw materialization is asked
    /// about by its view, a build table by its view and whole identity.
    fn retain(&mut self, keep: impl Fn(&str, Option<&SharedIdentity>) -> bool) {
        self.tables.retain(|id, _| keep(&id.0, Some(id)));
        self.raws.retain(|view, _| keep(view, None));
    }

    /// The liveness rule, applied after every executed expression: when `e`
    /// `changed` anything (a non-empty fragment or install), every entry
    /// over a delta it modifies is dropped. An expression that changed
    /// nothing left every operand bit-identical, so its entries stay.
    pub(crate) fn expr_done(&mut self, g: &Vdag, e: &UpdateExpr, changed: bool) {
        if changed {
            self.retain(|view, _| !modifies_operand(g, e, view, true));
        }
    }

    /// The stored build table for `id` with the rows it indexes, over an
    /// operand's filtered `rows` keyed on `keys`: a miss builds (and
    /// charges) it once under producer `at`; a hit counts a reuse — a
    /// cross-expression one, under its own span, when an earlier expression
    /// produced the entry.
    fn table(
        &mut self,
        at: usize,
        id: &SharedIdentity,
        (rows, keys): (&Arc<SignedRows>, &[usize]),
        meter: &mut WorkMeter,
    ) -> (Arc<SignedRows>, Arc<BuiltTable>) {
        let held = self.tables.get(id).cloned();
        let cross = held.as_ref().is_some_and(|(.., by)| *by != at);
        let label = if cross {
            "hash_table_cross"
        } else {
            "hash_table_intern"
        };
        let mut sp = obs::span(obs::SpanKind::Operator, label);
        sp.attr_u64(obs::keys::ROWS, rows.len() as u64);
        let Some((indexed, table, _)) = held else {
            let table = Arc::new(ops::build_table(rows, keys, meter));
            self.tables
                .insert(id.clone(), (Arc::clone(rows), Arc::clone(&table), at));
            return (Arc::clone(rows), table);
        };
        if cross {
            meter.hash_cross_reuse();
        } else {
            meter.hash_reuse();
        }
        (indexed, table)
    }
}

/// How long a `Comp` leaves entries in the store: `None` drops them all when
/// it is done (per-`Comp` scope); `Some(later)` keeps what the window's
/// remaining expressions `later` can still read.
pub(crate) type Retention<'a> = Option<&'a [Item<'a>]>;

/// The retention rule: can one of `later` — the window's remaining
/// expressions, in order — read the pending delta of `view` (through the
/// build table `table` names, when given) before one modifies it? Decided
/// from the view definitions, the strategy and which base views have
/// nothing pending, without executing anything. A base view with nothing
/// pending is idle: its `Inst` modifies nothing, and every term that scans
/// its delta is skipped (footnote 5). Of `Comp(W, Y)`, the surviving terms
/// read the delta of every non-idle source in `Y`; a build table is only
/// ever probed through a source of the same alias and pushed-down filters.
fn read_later(
    w: &Warehouse,
    retention: Retention<'_>,
    view: &str,
    table: Option<&SharedIdentity>,
) -> bool {
    let Some(later) = retention else {
        return false;
    };
    let g = w.vdag();
    let idle = |v: ViewId| g.is_base(v) && w.pending(g.name(v)).is_none_or(|d| d.is_empty());
    for &(_, _, e) in later {
        match e {
            UpdateExpr::Comp { view: target, over } => {
                let in_live = over.iter().any(|&v| g.name(v) == view && !idle(v));
                let probes = |def: &ViewDef| {
                    def.sources.iter().enumerate().any(|(i, s)| {
                        s.view == view && table.is_none_or(|id| same_operand(def, i, id))
                    })
                };
                if in_live && w.def(g.name(*target)).is_some_and(probes) {
                    return true;
                }
            }
            UpdateExpr::Inst(v) if idle(*v) => continue,
            UpdateExpr::Inst(_) => {}
        }
        if modifies_operand(g, e, view, true) {
            return false;
        }
    }
    false
}

/// Whether a build over source `i` of `def` can have identity `id`: the key
/// columns are that source's alias', and its pushed-down filters render the
/// same.
fn same_operand(def: &ViewDef, i: usize, id: &SharedIdentity) -> bool {
    let (_, _, keys, filters) = id;
    let alias = &def.sources[i].alias;
    if !(keys.iter()).all(|k| k.split_once('.').is_some_and(|(a, _)| a == alias)) {
        return false;
    }
    rendered_filters(def, i) == *filters
}

/// The pushed-down filters of source `i` of `def`: the indices into
/// `def.filters` of those that name that source alone.
fn local_filters(def: &ViewDef, i: usize) -> Vec<usize> {
    (0..def.filters.len())
        .filter(|&fi| eval::single_source_of(def, &def.filters[fi]) == Some(i))
        .collect()
}

/// Source `i`'s pushed-down filters as the store and the indexes key them.
fn rendered_filters(def: &ViewDef, i: usize) -> Vec<String> {
    (local_filters(def, i).into_iter())
        .map(|fi| format!("{:?}", def.filters[fi]))
        .collect()
}

/// A stored-role build key's key index: its position in the extent's
/// index, who built it, and a `Comp`-local number shared by every build key
/// that resolves to the same key index.
type Indexed = (usize, Producer, usize);

/// The operands one `Comp`'s terms evaluate against — every `(source, role)`
/// a surviving term needs — plus its surviving terms' join sequences and
/// which delta build keys go through the [`OperandStore`].
///
/// Built once per `Comp` from the terms that will actually run, so a
/// `Comp` whose every term is skipped (empty deltas, footnote 5) still
/// costs nothing.
pub(crate) struct CompInputs {
    /// The view the `Comp` computes a delta for.
    view: String,
    /// The surviving terms' delta subsets, in term order.
    terms: Vec<BTreeSet<String>>,
    /// Indices into `def.filters` that span multiple sources — applied
    /// per term after the joins, exactly like the per-term path.
    residual: Vec<usize>,
    /// `[stored, delta]` slot per source index; `None` when no surviving
    /// term uses that role.
    slots: Vec<[Option<Operand>; 2]>,
    /// Each surviving term's join sequence, in term order.
    steps: Vec<TermSteps>,
    /// Delta build keys that go through the store, with their store key:
    /// held already, used by ≥ 2 join steps of this `Comp`, or retained for
    /// a later expression. Every other delta keyed step builds fresh.
    stored: HashMap<TableKey, SharedIdentity>,
    /// Every stored-role build key, with the key index it probes.
    indexed: HashMap<TableKey, Indexed>,
    /// How many slices each filter, probe, cross join and grouping input is
    /// cut into.
    partition: PartitionOptions,
    /// Every distinct keyed build of the `Comp`'s terms, sorted by key.
    operands: Vec<OperandProfile>,
}

impl CompInputs {
    /// Plans `Comp(view, over)` and ensures its indexes. Every delta role
    /// the surviving terms need is read — looked up in, and on a miss
    /// inserted into, `store` under producer `at` — and filtered; every
    /// stored role's maintained extent is looked up or built; every term's
    /// join sequence is simulated from the filtered sizes; then each key
    /// index a stored-role step will probe is looked up or built, and each
    /// delta key is decided for the store. The returned meter carries the
    /// *physical* cost of all that; the logical scans are charged per term
    /// during evaluation. A delta is read once per view — aliased self-join
    /// sources share the raw read and diverge only in their filters.
    fn build(
        w: &mut Warehouse,
        (view, over): (ViewId, &BTreeSet<ViewId>),
        partition: PartitionOptions,
        store: &mut OperandStore,
        at: usize,
        retention: Retention<'_>,
    ) -> CoreResult<(CompInputs, WorkMeter)> {
        let name = w.vdag().name(view).to_string();
        let def = (w.def(&name).cloned())
            .ok_or_else(|| CoreError::Warehouse(format!("no definition for {name}")))?;
        let terms = surviving_terms(w, &w.view_names(over));
        let n = def.sources.len();

        let mut qschemas = Vec::with_capacity(n);
        for s in &def.sources {
            qschemas.push(w.state().get(&s.view)?.schema().qualified(&s.alias));
        }
        let local: Vec<Vec<usize>> = (0..n).map(|i| local_filters(&def, i)).collect();
        let residual = (0..def.filters.len())
            .filter(|&fi| eval::single_source_of(&def, &def.filters[fi]).is_none())
            .collect();
        let bind = |i: usize| -> RelResult<Vec<BoundPredicate>> {
            (local[i].iter())
                .map(|&fi| def.filters[fi].bind(&qschemas[i]))
                .collect()
        };

        let mut need = vec![[false, false]; n];
        for t in terms.iter() {
            for (i, s) in def.sources.iter().enumerate() {
                need[i][usize::from(t.contains(&s.view))] = true;
            }
        }

        let mut meter = WorkMeter::new();
        let mut extents: Vec<Option<(ExtentKey, u64)>> = vec![None; n];
        let mut deltas: Vec<Option<(Arc<SignedRows>, u64)>> = vec![None; n];
        let (mut extent_reads, mut delta_reads) = (BTreeSet::new(), BTreeSet::new());
        for (i, s) in def.sources.iter().enumerate() {
            if need[i][0] {
                // An extent an earlier expression or window built is a read
                // served from maintained state.
                let key: ExtentKey = (s.view.clone(), rendered_filters(&def, i));
                let (state, indexes) = w.index_parts();
                let table = state.get(&s.view)?;
                let _sp = indexes.get(&key).is_none().then(|| {
                    let mut sp = obs::span(obs::SpanKind::Operator, "scan");
                    sp.attr_u64(obs::keys::ROWS, table.distinct_len() as u64);
                    sp
                });
                let by = indexes.ensure_extent(&key, table, || bind(i), at, &mut meter)?;
                if extent_reads.insert(key.clone()) && by != Some(at) {
                    meter.cached_read();
                    store.carried_raw_hits += u64::from(by.is_none());
                }
                extents[i] = Some((key, table.len()));
            }
            if need[i][1] {
                let first_read = delta_reads.insert(s.view.as_str());
                let (rows, raw_len) = match store.raws.get(&s.view) {
                    // A held entry is the same raw read an earlier source or
                    // expression performed: nothing modified the delta
                    // since, or the entry would have been dropped.
                    Some((rows, raw_len)) => {
                        if first_read {
                            meter.cached_read();
                        }
                        (Arc::clone(rows), *raw_len)
                    }
                    None => {
                        // The probe meter captures the raw delta size; only
                        // its physical side is real — the logical charge is
                        // made per term to keep the paper's metric intact.
                        let mut probe = WorkMeter::new();
                        let rows =
                            scan_operand(w.state(), w.pending_map(), &s.view, true, &mut probe)?;
                        let rows = Arc::new(rows);
                        meter.physical_rows_touched += probe.physical_rows_touched;
                        let entry = (Arc::clone(&rows), probe.operand_rows_scanned);
                        store.raws.insert(s.view.clone(), entry);
                        (rows, probe.operand_rows_scanned)
                    }
                };
                let rows = if local[i].is_empty() {
                    rows
                } else {
                    let bounds = bind(i)?;
                    meter.touch(rows.len() as u64);
                    let kept = chunked(partition, "filter", &rows, &mut meter, |c, _| {
                        filtered(c, &bounds)
                    })?;
                    Arc::new(concat(kept))
                };
                deltas[i] = Some((rows, raw_len));
            }
        }

        // The greedy order sizes operands by their filtered lengths only, so
        // every term's keyed steps are known here, before any term runs.
        let mut sizes = vec![[usize::MAX; 2]; n];
        for i in 0..n {
            if let Some(index) = (extents[i].as_ref()).and_then(|(k, _)| w.indexes().get(k)) {
                sizes[i][0] = index.len();
            }
            if let Some((rows, _)) = &deltas[i] {
                sizes[i][1] = rows.len();
            }
        }
        let size_of = |i: usize, as_delta: bool| sizes[i][usize::from(as_delta)];
        let mut steps = Vec::with_capacity(terms.len());
        let mut uses: BTreeMap<TableKey, u64> = BTreeMap::new();
        for t in &terms {
            let term = plan_term_steps(&def, &qschemas, &size_of, t)?;
            for (next, _, rk) in term.steps.iter().filter(|(_, lk, _)| !lk.is_empty()) {
                let role = t.contains(&def.sources[*next].view);
                *uses.entry((*next, role, rk.clone())).or_insert(0) += 1;
            }
            steps.push(term);
        }

        let mut operands = Vec::with_capacity(uses.len());
        let mut stored: HashMap<TableKey, SharedIdentity> = HashMap::new();
        let mut indexed: HashMap<TableKey, Indexed> = HashMap::new();
        let mut numbers: BTreeMap<(ExtentKey, usize), usize> = BTreeMap::new();
        for (key, &occurrences) in &uses {
            let (i, as_delta, cols) = key;
            let s = &def.sources[*i];
            let mut use_ = OperandProfile {
                source: s.view.clone(),
                as_delta: *as_delta,
                key_cols: cols
                    .iter()
                    .map(|&c| qschemas[*i].column(c).name.clone())
                    .collect(),
                filters: rendered_filters(&def, *i),
                rows: size_of(*i, *as_delta) as u64,
                held: false,
            };
            if *as_delta {
                // A key the store holds never builds here: every use probes
                // the earlier table. One it does not hold is built once and
                // stored when this `Comp` uses it again or a later
                // expression can.
                let id = identity(&use_);
                use_.held = store.tables.contains_key(&id);
                if use_.held || occurrences >= 2 || read_later(w, retention, &s.view, Some(&id)) {
                    stored.insert(key.clone(), id);
                }
            } else {
                // Every stored-role step probes the extent's key index on
                // its columns, built here when no expression built it yet.
                let extent = &extents[*i]
                    .as_ref()
                    .expect("a stored step's role is needed")
                    .0;
                let missing = (w.indexes().get(extent)).is_some_and(|x| x.key_set(cols).is_none());
                let _sp = missing.then(|| {
                    let mut sp = obs::span(obs::SpanKind::Operator, "hash_build");
                    sp.attr_u64(obs::keys::ROWS, use_.rows);
                    sp
                });
                let (pos, by, warm) =
                    (w.indexes_mut().ensure_keys(extent, cols, at, &mut meter))
                        .ok_or_else(|| CoreError::Warehouse(format!("no index over {}", s.view)))?;
                let count = numbers.len();
                let number = *numbers.entry((extent.clone(), pos)).or_insert(count);
                // Held as the window-scope store held a build table: an
                // earlier `Comp` of the window probed it, and no `Inst` has
                // changed its view since.
                use_.held = warm && retention.is_some();
                indexed.insert(key.clone(), (pos, by, number));
            }
            operands.push(use_);
        }

        for ((extent, pos), _) in numbers {
            w.indexes_mut().warm(&extent, pos);
        }
        let mut slots = Vec::with_capacity(n);
        for (extent, delta) in extents.into_iter().zip(deltas) {
            let stored = match extent {
                Some((key, raw_len)) => {
                    let index = (w.indexes().get(&key))
                        .ok_or_else(|| CoreError::Warehouse(format!("no index over {}", key.0)))?;
                    Some(Operand::Stored(Arc::clone(index), raw_len))
                }
                None => None,
            };
            slots.push([
                stored,
                delta.map(|(rows, raw_len)| Operand::Delta(rows, raw_len)),
            ]);
        }

        Ok((
            CompInputs {
                view: name,
                terms,
                residual,
                slots,
                steps,
                stored,
                indexed,
                partition,
                operands,
            },
            meter,
        ))
    }

    /// Term `ti` (over delta subset `subset`) as it will run: its operands
    /// in join order, each with the filtered size the order was chosen by.
    fn term_profile(&self, def: &ViewDef, ti: usize, subset: &BTreeSet<String>) -> TermProfile {
        let plan = &self.steps[ti];
        let order = std::iter::once(plan.start).chain(plan.steps.iter().map(|s| s.0));
        TermProfile {
            delta_sources: subset.iter().cloned().collect(),
            join_order: order
                .map(|i| {
                    let view = &def.sources[i].view;
                    let as_delta = subset.contains(view);
                    let rows = (self.slots[i][usize::from(as_delta)].as_ref())
                        .map_or(0, |op| op.rows().len());
                    let role = if as_delta { "Δ" } else { "" };
                    format!("{role}{view}({rows})")
                })
                .collect(),
        }
    }

    fn operand(&self, i: usize, as_delta: bool) -> CoreResult<&Operand> {
        self.slots[i][usize::from(as_delta)]
            .as_ref()
            .ok_or_else(|| {
                CoreError::Warehouse(format!(
                    "operand {i} (delta form: {as_delta}) was not materialized for its term"
                ))
            })
    }
}

/// Runs `f` over `items` cut into one contiguous slice per partition, on
/// the pool, and returns the outputs in slice order — the term engine's one
/// fan-out. Each slice gets a `label[pI]` span (parented explicitly: workers
/// don't inherit the spawner's span stack) and a meter of its own, folded
/// into `meter` in slice order. With one partition or fewer than two items
/// `f` runs once, inline, over all of `items` and on `meter` itself.
fn chunked<T, R, F>(
    popt: PartitionOptions,
    label: &'static str,
    items: &[T],
    meter: &mut WorkMeter,
    f: F,
) -> RelResult<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut WorkMeter) -> RelResult<R> + Sync,
{
    if !popt.parallel() || items.len() < 2 {
        return Ok(vec![f(items, meter)?]);
    }
    let slices: Vec<&[T]> = items
        .chunks(items.len().div_ceil(popt.partitions))
        .collect();
    let parent = obs::current_span_id();
    let results = pool::run_tasks(slices.len(), popt.workers(slices.len()), |i| {
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("{label}[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, slices[i].len() as u64);
        let mut m = WorkMeter::new();
        f(slices[i], &mut m).map(|out| (out, m))
    });
    let mut outs = Vec::with_capacity(results.len());
    for result in results {
        let (out, m) = result?;
        meter.absorb(&m);
        outs.push(out);
    }
    Ok(outs)
}

/// Row batches [`chunked`] produced, joined back in slice order; the first
/// batch is the accumulator, so a single one comes back without a copy.
fn concat(parts: Vec<SignedRows>) -> SignedRows {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        out.extend(part);
    }
    out
}

/// The rows of `rows` that pass every pushed-down filter in `bounds`,
/// cloned in input order.
fn filtered(rows: &[(Tuple, i64)], bounds: &[BoundPredicate]) -> RelResult<SignedRows> {
    let mut out = Vec::new();
    'rows: for (t, m) in rows {
        for b in bounds {
            if !b.eval(t)? {
                continue 'rows;
            }
        }
        out.push((t.clone(), *m));
    }
    Ok(out)
}

/// [`chunked`] for a step whose slices emit rows, under one `label` span
/// that records the joined-back output's length.
fn sliced_rows<F>(
    popt: PartitionOptions,
    label: &'static str,
    items: &[(Tuple, i64)],
    meter: &mut WorkMeter,
    f: F,
) -> RelResult<SignedRows>
where
    F: Fn(&[(Tuple, i64)], &mut WorkMeter) -> RelResult<SignedRows> + Sync,
{
    let mut sp = obs::span(obs::SpanKind::Operator, label);
    let out = concat(chunked(popt, label, items, meter, f)?);
    sp.attr_u64(obs::keys::ROWS, out.len() as u64);
    Ok(out)
}

/// One term's greedy join sequence, fixed before the term runs.
struct TermSteps {
    /// The operand the term starts from: its smallest.
    start: usize,
    /// Per join step: the operand joined, the intermediate's key columns and
    /// the operand's. Empty keys mark a cross join.
    steps: Vec<(usize, Vec<usize>, Vec<usize>)>,
    /// Schema of the joined result the residual filters and output bind to.
    schema: Schema,
}

/// Plans one term's join sequence from the filtered operand sizes alone:
/// start from the smallest operand, then repeatedly join the smallest
/// connected one ([`eval::eval_term`]'s order); the intermediate's size
/// never participates, so the sequence is known before anything is joined.
fn plan_term_steps(
    def: &ViewDef,
    qschemas: &[Schema],
    size_of: &dyn Fn(usize, bool) -> usize,
    subset: &BTreeSet<String>,
) -> CoreResult<TermSteps> {
    let n = def.sources.len();
    let mut in_set = vec![false; n];
    let size = |in_set: &[bool], i: usize| {
        if in_set[i] {
            usize::MAX
        } else {
            size_of(i, subset.contains(&def.sources[i].view))
        }
    };
    let start = (0..n)
        .min_by_key(|&i| size(&in_set, i))
        .ok_or_else(|| CoreError::Warehouse(format!("view {} has no sources", def.name)))?;
    let mut schema = qschemas[start].clone();
    in_set[start] = true;
    let mut steps = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let next = eval::pick_next(def, &in_set, |i| size(&in_set, i));
        let (lk, rk) = eval::join_keys(def, &in_set, next, &schema, &qschemas[next])?;
        steps.push((next, lk, rk));
        schema = schema.concat(&qschemas[next])?;
        in_set[next] = true;
    }
    Ok(TermSteps {
        start,
        steps,
        schema,
    })
}

/// A term's projected (or grouped) output, ready to fold into the `Comp`'s
/// pending fragment.
enum TermOut {
    /// Consolidated projection delta (non-aggregate views).
    Rows(SignedRows),
    /// Per-group accumulator deltas (aggregate views).
    Groups(GroupMap),
}

/// What a `Comp`'s terms share as they run one after another: its inputs,
/// the store, and the key indexes this `Comp` built that no step has
/// probed yet (a build's first probe is the build, not a reuse).
struct TermCtx<'a> {
    def: &'a ViewDef,
    inputs: &'a CompInputs,
    store: &'a mut OperandStore,
    at: usize,
    unprobed: BTreeSet<usize>,
}

/// Evaluates term `ti` of the `Comp` — the output-identical mirror of
/// [`eval::eval_term`] plus the downstream projection/grouping.
fn eval_term_cached(
    cx: &mut TermCtx<'_>,
    (ti, subset): (usize, &BTreeSet<String>),
    meter: &mut WorkMeter,
) -> CoreResult<TermOut> {
    let def = cx.def;
    let schema = &cx.inputs.steps[ti].schema;
    let rows = join_term(cx, (ti, subset), meter)?;
    match &def.output {
        ViewOutput::Project(_) => {
            let out = eval::project_output(def, schema, &rows, meter)?;
            Ok(TermOut::Rows(ops::consolidate(out)))
        }
        ViewOutput::Aggregate { .. } => {
            // Grouping is commutative and associative: contiguous slices
            // group separately and merge into the accumulator map one pass
            // would build.
            let spec = eval::agg_spec(def, schema)?;
            let maps = chunked(cx.inputs.partition, "group", &rows, meter, |c, _| {
                ops::group_rows(c, &spec)
            })?;
            Ok(TermOut::Groups(ops::merge_groups(maps)))
        }
    }
}

/// Runs term `ti`'s planned join sequence and residual filters.
fn join_term(
    cx: &mut TermCtx<'_>,
    (ti, subset): (usize, &BTreeSet<String>),
    meter: &mut WorkMeter,
) -> CoreResult<SignedRows> {
    meter.term();
    let (def, inputs) = (cx.def, cx.inputs);

    // Charge the logical scans the per-term path performs when it loads
    // each operand, and pin the role each source plays in this term.
    let mut operands = Vec::with_capacity(def.sources.len());
    for (i, s) in def.sources.iter().enumerate() {
        let as_delta = subset.contains(&s.view);
        let op = inputs.operand(i, as_delta)?;
        meter.scan_logical(op.raw_len());
        operands.push((as_delta, op));
    }

    let popt = inputs.partition;
    let plan = &inputs.steps[ti];
    let mut joined_rows: SignedRows = operands[plan.start].1.rows().to_vec();
    for (next, lk, rk) in &plan.steps {
        let (as_delta, right) = operands[*next];
        let key = (*next, as_delta, rk.clone());
        joined_rows = if lk.is_empty() {
            sliced_rows(popt, "cross_join", &joined_rows, meter, |c, m| {
                ops::cross_join(c, right.rows(), m)
            })?
        } else if let (Some(&(pos, by, number)), Operand::Stored(index, _)) =
            (inputs.indexed.get(&key), right)
        {
            // A stored operand: probe its maintained key index with the
            // intermediate, whatever their sizes.
            if by != Some(cx.at) {
                meter.hash_cross_reuse();
                cx.store.carried_table_hits += u64::from(by.is_none());
            } else if !cx.unprobed.remove(&number) {
                meter.hash_reuse();
            }
            sliced_rows(popt, "hash_probe", &joined_rows, meter, |c, m| {
                index.probe(pos, c, lk, m)
            })?
        } else if let (Some(id), Operand::Delta(rows, _)) = (inputs.stored.get(&key), right) {
            // This delta key goes through the store: probe the pure-operand
            // table — built by the first use, here or in an earlier
            // expression — regardless of how large the accumulated
            // intermediate happens to be.
            let (rows, table) = cx.store.table(cx.at, id, (rows, rk), meter);
            sliced_rows(popt, "hash_probe", &joined_rows, meter, |c, m| {
                ops::probe_table(&rows, &table, c, lk, false, m)
            })?
        } else {
            // A delta step nothing else uses: build fresh on the smaller
            // side, exactly as hash_join would — one build, no reuse.
            let right = right.rows();
            let build_left = joined_rows.len() <= right.len();
            let (build, build_keys, probe_rows, probe_keys) = if build_left {
                (&joined_rows[..], lk, right, rk)
            } else {
                (right, rk, &joined_rows[..], lk)
            };
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_build");
                sp.attr_u64(obs::keys::ROWS, build.len() as u64);
                ops::build_table(build, build_keys, meter)
            };
            sliced_rows(popt, "hash_probe", probe_rows, meter, |c, m| {
                ops::probe_table(build, &table, c, probe_keys, build_left, m)
            })?
        };
        // Deliberately no empty-intermediate short circuit here (the
        // per-term reference keeps it): the plan prices every step, and
        // joining an empty intermediate emits nothing and touches only the
        // planned build — so the hash-table counters match the plan exactly
        // while the output bytes are unaffected.
    }

    if !inputs.residual.is_empty() {
        let mut sp = obs::span(obs::SpanKind::Operator, "filter");
        for &fi in &inputs.residual {
            let bound = def.filters[fi].bind(&plan.schema)?;
            joined_rows = ops::filter(joined_rows, &bound)?;
        }
        sp.attr_u64(obs::keys::ROWS, joined_rows.len() as u64);
    }
    Ok(joined_rows)
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

/// Plans `Comp(view, over)` and ensures the maintained indexes its terms
/// will probe — the one step of a `Comp` that needs `&mut Warehouse`
/// ([`CompInputs::build`]), under a `materialize_operands` span. `at` is
/// the expression's strategy position (the producer tag of what it builds
/// or inserts); `retention` decides which delta entries it may build for
/// later expressions. The meter is what planning and ensuring cost.
pub(crate) fn prepare_comp(
    w: &mut Warehouse,
    (view, over): (ViewId, &BTreeSet<ViewId>),
    partition: PartitionOptions,
    store: &mut OperandStore,
    at: usize,
    retention: Retention<'_>,
) -> CoreResult<(CompInputs, WorkMeter)> {
    let mut sp = obs::span(obs::SpanKind::Operator, "materialize_operands");
    let (inputs, meter) = CompInputs::build(w, (view, over), partition, store, at, retention)?;
    sp.attr_u64(obs::keys::PHYSICAL_ROWS, meter.physical_rows_touched);
    Ok((inputs, meter))
}

/// Computes the delta fragment a prepared `Comp` contributes, **without
/// mutating the warehouse**: all its surviving maintenance terms evaluated,
/// in term order, against the current state, the maintained indexes and
/// the pending deltas through `store`, and accumulated into a fresh
/// [`PendingDelta`]. Terms whose delta subset includes a view with an empty
/// pending delta were skipped when the `Comp` was prepared (footnote 5 of
/// the paper), costing nothing — for *every* strategy alike.
///
/// `meter` is what preparing cost; the returned meter adds every term.
/// Everything [`read_later`] rejects under `retention` is dropped from the
/// store before returning, so without a `retention` the store is
/// per-`Comp`. Pure over `&Warehouse`, so independent `Comp` expressions of
/// one parallel stage can run on separate threads (Section 9), each with a
/// store of its own. The fragment bytes and logical meter equal
/// [`eval::reference_comp_fragment`]'s; only the physical counters differ.
/// The profile is what ran: each surviving term's join order and every
/// distinct keyed operand use.
pub(crate) fn comp_fragment(
    w: &Warehouse,
    inputs: CompInputs,
    mut total: WorkMeter,
    store: &mut OperandStore,
    at: usize,
    retention: Retention<'_>,
) -> CoreResult<(PendingDelta, WorkMeter, ExprSharingProfile)> {
    let name = inputs.view.as_str();
    let def = w
        .def(name)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {name}")))?;
    let mut fragment = w.empty_pending_for(name)?;
    let unprobed = (inputs.indexed.values())
        .filter(|(_, by, _)| *by == Some(at))
        .map(|&(.., number)| number)
        .collect();
    let mut cx = TermCtx {
        def,
        inputs: &inputs,
        store,
        at,
        unprobed,
    };
    for (ti, subset) in inputs.terms.iter().enumerate() {
        let mut span = obs::span_dyn(obs::SpanKind::Term, || term_label(subset));
        let mut meter = WorkMeter::new();
        let out = eval_term_cached(&mut cx, (ti, subset), &mut meter);
        meter_attrs(&mut span, &meter);
        total.absorb(&meter);
        match (out?, &mut fragment) {
            (TermOut::Rows(rows), PendingDelta::Rows(acc)) => {
                for (t, m) in rows {
                    acc.add(t, m);
                }
            }
            (TermOut::Groups(groups), PendingDelta::Summary(acc)) => acc.merge_groups(groups),
            _ => {
                return Err(CoreError::Warehouse(format!(
                    "term output shape does not match {name}'s pending delta"
                )))
            }
        }
    }
    store.retain(|view, table| read_later(w, retention, view, table));
    let profile = ExprSharingProfile {
        terms: (inputs.terms.iter().enumerate())
            .map(|(ti, subset)| inputs.term_profile(def, ti, subset))
            .collect(),
        operands: inputs.operands,
    };
    Ok((fragment, total, profile))
}

/// The surviving terms of a `Comp` over `over_names` under the footnote-5
/// empty-delta filter — exactly the term set the executor evaluates.
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
