//! Shared-operand term evaluation: one operand store.
//!
//! Within one `Comp(W, Y)` no `Inst` intervenes, so the stored extents and
//! pending deltas every maintenance term scans are *identical* across the
//! `2^|Y| − 1` terms. The paper's model (and [`super::eval::eval_term`])
//! nevertheless charges — and the naive executor performs — a full operand
//! scan and a fresh hash-table build per term. This module is the executor's
//! answer: an [`OperandStore`] holds each raw `(view, role)` materialization
//! and each hash-join build table keyed by [`SharedIdentity`], every entry
//! tagged with the expression (or previous window) that produced it, and
//! every term evaluates against it, one after another (intra-`Comp`
//! parallelism is [`PartitionOptions`]' job).
//!
//! **The store is driven by lookups.** A raw read or keyed build that finds
//! its entry reuses it; one that misses reads or builds, and inserts. The
//! producer tag is what the meter reports: a hit on an entry this `Comp`
//! built is a `hash_tables_reused`, a hit on an earlier expression's entry
//! is also a `hash_tables_cross_reused` / `operand_reads_cached`, and a hit
//! on a previous window's entry is additionally a carried hit. Nothing is
//! planned before the window runs, and a miss never changes a byte of
//! state, delta or WAL — equal identity over an unmodified operand means
//! element-identical filtered rows, hence an interchangeable build table.
//!
//! **Scope is a lifetime.** The window runner keeps one store and decides
//! how long entries live: emptied after each `Comp` when
//! `ExecOptions::strategy_sharing` is off, kept to the end of the window
//! when it is on, and handed back as the [`WindowCarry`] — the same type —
//! by `Warehouse::execute_carried`. Two rules bound an entry's life:
//!
//! * **liveness** — an entry is dropped when an executed expression actually
//!   changed its operand: [`modifies_operand`] holds *and* the
//!   install or fragment was non-empty ([`OperandStore::expr_done`]);
//! * **retention** — an entry outlives the `Comp` that used it only if a
//!   later expression of the window reads its `(view, role)` before one
//!   modifies it ([`read_later`], decided from the view definitions and the
//!   strategy without executing anything). Past the window's end only a
//!   requested carry keeps entries, and only stored-role ones: the next
//!   batch replaces every pending delta.
//!
//! **Which keys go through the store is static per `Comp`.** Because the
//! greedy join order sizes operands by their *filtered* lengths — never by
//! the accumulated intermediate — every term's join sequence is determined
//! before any term runs. [`CompInputs::build`] simulates those sequences; a
//! build key goes through the store when the store already holds it, when
//! it occurs in two or more join steps across the `Comp`'s terms, or when
//! retention will keep it for a later expression. Every other step builds
//! fresh on its smaller side, exactly like `hash_join`. The resulting
//! counters are independent of the partition count.
//!
//! **Partitions cut inputs, never tables.** At every partition count an
//! operand is read once and a build table indexes the whole of it; `P`
//! partitions cut the input of each pushed-down filter, probe, cross join
//! and grouping into `P` contiguous slices that run on the pool against the
//! same rows and table ([`chunked`]), and the outputs join back in slice
//! order. Output, meter and store are therefore byte-identical to `P = 1`,
//! row order included, and an entry serves a window at any partition count.
//!
//! Three invariants make the store safe to enable by default:
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
use crate::engine::pool::{self, PartitionOptions};
use crate::engine::profile::{modifies_operand, ExprSharingProfile, OperandProfile, TermProfile};
use crate::engine::warehouse::{scan_operand, PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use uww_obs as obs;
use uww_relational::ops::{self, BuiltTable, GroupAcc, SignedRows};
use uww_relational::{BoundPredicate, RelResult, Schema, Tuple, ViewDef, ViewOutput, WorkMeter};
use uww_vdag::{UpdateExpr, Vdag, ViewId};

/// One materialized operand: the filtered rows every term sees, plus the
/// raw (pre-filter) extent size the logical metric charges per term.
struct CachedOperand {
    rows: Arc<SignedRows>,
    raw_len: u64,
}

/// A `Comp`-local build key: `(source index, as_delta, key columns)`.
type TableKey = (usize, bool, Vec<usize>);

/// The store key of a keyed build: everything the table's contents depend
/// on — source view, role, key column names (alias qualified), and the
/// rendered pushed-down filters — but *not* the source position, so
/// identical uses from different view definitions match. Two uses with
/// equal identity over an operand no expression modified in between
/// materialize element-identical filtered rows and therefore build
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

/// Who produced a store entry: the strategy position of the `Comp` that
/// read or built it, or `None` for the previous update window.
type Producer = Option<usize>;

/// The one operand cache: raw `(view, as-delta)` materializations (with the
/// raw extent length the logical metric charges per term) and hash-join
/// build tables keyed by [`SharedIdentity`] — each with the filtered rows it
/// indexes — every entry tagged with its producer.
///
/// Its scope is how long the window runner keeps it (module docs). Handed
/// back by [`Warehouse::execute_carried`](crate::engine::Warehouse::execute_carried)
/// it is the [`WindowCarry`]: every entry's operand provably went unmodified
/// since it was produced, and no delta-role entry is among them. Feed it to
/// the next window's `execute_carried`, or drop it (always do so after crash
/// recovery — a recovered window rebuilds from the WAL snapshot and carries
/// nothing).
#[derive(Clone, Default)]
pub struct OperandStore {
    tables: HashMap<SharedIdentity, (Arc<SignedRows>, Arc<BuiltTable>, Producer)>,
    raws: HashMap<(String, bool), (Arc<SignedRows>, u64, Producer)>,
    /// Per-use hits on entries the previous window produced.
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

    /// Number of stored hash-join build tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of stored raw operand materializations.
    pub fn raws(&self) -> usize {
        self.raws.len()
    }

    /// The store a window starts from: the previous window's `carry` with
    /// every entry re-tagged as carried in, or nothing when there is none.
    pub(crate) fn start_window(carry: Option<WindowCarry>) -> OperandStore {
        let mut store = carry.unwrap_or_default();
        (store.carried_table_hits, store.carried_raw_hits) = (0, 0);
        store.tables.values_mut().for_each(|e| e.2 = None);
        store.raws.values_mut().for_each(|e| e.2 = None);
        store
    }

    /// Measured `(table hits, raw hits)` served from carried-in entries.
    pub(crate) fn carried_hits(&self) -> (u64, u64) {
        (self.carried_table_hits, self.carried_raw_hits)
    }

    /// Keeps the entries `keep` accepts: a raw materialization is asked
    /// about by `(view, as-delta)`, a build table by its whole identity.
    fn retain(&mut self, keep: impl Fn(&str, bool, Option<&SharedIdentity>) -> bool) {
        self.tables.retain(|id, _| keep(&id.0, id.1, Some(id)));
        self.raws.retain(|key, _| keep(&key.0, key.1, None));
    }

    /// The liveness rule, applied after every executed expression: when `e`
    /// `changed` anything (a non-empty fragment or install), every entry
    /// over an operand it modifies is dropped. An expression that changed
    /// nothing left every operand bit-identical, so its entries stay.
    pub(crate) fn expr_done(&mut self, g: &Vdag, e: &UpdateExpr, changed: bool) {
        if changed {
            self.retain(|view, as_delta, _| !modifies_operand(g, e, view, as_delta));
        }
    }

    /// The stored build table for `id` with the rows it indexes, over an
    /// operand's filtered `rows` keyed on `keys`: a miss builds (and
    /// charges) it once under producer `at`; a hit counts a reuse — a
    /// cross-expression one, under its own span, when an earlier expression
    /// or window produced the entry.
    fn table(
        &mut self,
        at: usize,
        id: &SharedIdentity,
        (rows, keys): (&Arc<SignedRows>, &[usize]),
        meter: &mut WorkMeter,
    ) -> (Arc<SignedRows>, Arc<BuiltTable>) {
        let held = self.tables.get(id).cloned();
        let cross = held.as_ref().is_some_and(|(.., by)| *by != Some(at));
        let label = if cross {
            "hash_table_cross"
        } else {
            "hash_table_intern"
        };
        let mut sp = obs::span(obs::SpanKind::Operator, label);
        sp.attr_u64(obs::keys::ROWS, rows.len() as u64);
        let Some((indexed, table, by)) = held else {
            let table = Arc::new(ops::build_table(rows, keys, meter));
            let entry = (Arc::clone(rows), Arc::clone(&table), Some(at));
            self.tables.insert(id.clone(), entry);
            return (Arc::clone(rows), table);
        };
        if cross {
            meter.hash_cross_reuse();
            self.carried_table_hits += u64::from(by.is_none());
        } else {
            meter.hash_reuse();
        }
        (indexed, table)
    }
}

/// Whether a store entry is worth having once the running `Comp` is done.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Keep {
    /// Nothing can read it before it is modified or the window ends.
    No,
    /// Only the next window can: kept when present, never built for.
    Carry,
    /// A later expression of this window can read it: kept, and a build
    /// table worth building over the whole operand for.
    Reader,
}

/// How long a `Comp` leaves entries in the store: `None` drops them all when
/// it is done (per-`Comp` scope); `Some((later, carried))` keeps what the
/// window's remaining expressions `later` can still read — and, in a
/// `carried` window, what the next window can.
pub(crate) type Retention<'a> = Option<(&'a [Item<'a>], bool)>;

/// The retention rule: can one of `later` — the window's remaining
/// expressions, in order — read the entry over `(view, as-delta)` before one
/// modifies it? Decided from the view definitions, the strategy and which
/// base views have nothing pending, without executing anything. A base view
/// with nothing pending is idle: its `Inst` modifies nothing, and every
/// term that scans its delta is skipped (footnote 5). Of `Comp(W, Y)` with
/// `Y'` the non-idle part of `Y`, the surviving terms read the delta role of
/// every source in `Y'` and the stored role of every source outside `Y'` or
/// beside another member of it; a build table (`table` names it) is only
/// ever probed through a source of the same alias and pushed-down filters.
/// Past the window's end a `carried` window hands stored-role entries to the
/// next one.
fn read_later(
    w: &Warehouse,
    retention: Retention<'_>,
    (view, as_delta, table): (&str, bool, Option<&SharedIdentity>),
) -> Keep {
    let Some((later, carried)) = retention else {
        return Keep::No;
    };
    let g = w.vdag();
    let idle = |v: ViewId| g.is_base(v) && w.pending(g.name(v)).is_none_or(|d| d.is_empty());
    for &(_, _, e) in later {
        match e {
            UpdateExpr::Comp { view: target, over } => {
                let live = over.iter().filter(|&&v| !idle(v)).count();
                let in_live = over.iter().any(|&v| g.name(v) == view && !idle(v));
                let role_read = if as_delta {
                    in_live
                } else {
                    live > usize::from(in_live)
                };
                let probes = |def: &ViewDef| {
                    def.sources.iter().enumerate().any(|(i, s)| {
                        s.view == view && table.is_none_or(|id| same_operand(def, i, id))
                    })
                };
                if role_read && w.def(g.name(*target)).is_some_and(probes) {
                    return Keep::Reader;
                }
            }
            UpdateExpr::Inst(v) if idle(*v) => continue,
            UpdateExpr::Inst(_) => {}
        }
        if modifies_operand(g, e, view, as_delta) {
            return Keep::No;
        }
    }
    if carried && !as_delta {
        Keep::Carry
    } else {
        Keep::No
    }
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
    let local: Vec<_> = (def.filters.iter())
        .filter(|f| eval::single_source_of(def, f) == Some(i))
        .collect();
    local.len() == filters.len()
        && local
            .iter()
            .zip(filters)
            .all(|(f, r)| format!("{f:?}") == *r)
}

/// The operands one `Comp`'s terms evaluate against: every `(source, role)`
/// a surviving term needs, filtered once, plus which build keys go through
/// the [`OperandStore`].
///
/// Built once per `Comp` from the terms that will actually run, so a
/// `Comp` whose every term is skipped (empty deltas, footnote 5) still
/// costs nothing.
struct CompInputs {
    /// Indices into `def.filters` that span multiple sources — applied
    /// per term after the joins, exactly like the per-term path.
    residual: Vec<usize>,
    /// `[stored, delta]` slot per source index; `None` when no surviving
    /// term uses that role.
    slots: Vec<[Option<CachedOperand>; 2]>,
    /// Each surviving term's join sequence, in term order.
    steps: Vec<TermSteps>,
    /// Build keys that go through the store, with their store key: held
    /// already, used by ≥ 2 join steps of this `Comp`, or retained for a
    /// later expression. Every other keyed step builds fresh.
    stored: HashMap<TableKey, SharedIdentity>,
    /// How many slices each filter, probe, cross join and grouping input is
    /// cut into.
    partition: PartitionOptions,
    /// Every distinct keyed build of the `Comp`'s terms, sorted by key.
    operands: Vec<OperandProfile>,
}

impl CompInputs {
    /// Materializes every operand role the surviving `terms` need — raw
    /// reads looked up in, and on a miss inserted into, `store` under
    /// producer `at` — and simulates every term's join sequence to fix which
    /// keys go through the store. The returned meter carries the *physical*
    /// cost of materialization; the logical scans are charged per term
    /// during evaluation. Operands are read once per distinct `(view,
    /// role)` — aliased self-join sources share the raw read and diverge
    /// only in their pushed-down filters.
    fn build(
        w: &Warehouse,
        def: &ViewDef,
        terms: &[BTreeSet<String>],
        partition: PartitionOptions,
        store: &mut OperandStore,
        at: usize,
        retention: Retention<'_>,
    ) -> CoreResult<(CompInputs, WorkMeter)> {
        let n = def.sources.len();
        let state = w.state();

        let mut qschemas = Vec::with_capacity(n);
        for s in &def.sources {
            qschemas.push(state.get(&s.view)?.schema().qualified(&s.alias));
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
        let mut reads: BTreeSet<(String, bool)> = BTreeSet::new();
        let mut slots: Vec<[Option<CachedOperand>; 2]> = Vec::with_capacity(n);
        for (i, s) in def.sources.iter().enumerate() {
            let mut pair: [Option<CachedOperand>; 2] = [None, None];
            for (role, slot) in pair.iter_mut().enumerate() {
                if !need[i][role] {
                    continue;
                }
                let as_delta = role == 1;
                let key = (s.view.clone(), as_delta);
                let first_read = reads.insert(key.clone());
                let (rows, raw_len) = match store.raws.get(&key) {
                    // A held entry is the same raw read an earlier source,
                    // expression or window performed: nothing modified the
                    // operand since, or the entry would have been dropped.
                    Some((rows, raw_len, by)) => {
                        if first_read {
                            meter.cached_read();
                            store.carried_raw_hits += u64::from(by.is_none());
                        }
                        (Arc::clone(rows), *raw_len)
                    }
                    None => {
                        // The probe meter captures the raw extent size; only
                        // its physical side is real — the logical charge is
                        // made per term to keep the paper's metric intact.
                        let mut probe = WorkMeter::new();
                        let pending = w.pending_map();
                        let rows =
                            Arc::new(scan_operand(state, pending, &s.view, as_delta, &mut probe)?);
                        meter.physical_rows_touched += probe.physical_rows_touched;
                        let entry = (Arc::clone(&rows), probe.operand_rows_scanned, Some(at));
                        store.raws.insert(key, entry);
                        (rows, probe.operand_rows_scanned)
                    }
                };
                let rows = if local[i].is_empty() {
                    rows
                } else {
                    let mut bounds = Vec::with_capacity(local[i].len());
                    for &fi in &local[i] {
                        bounds.push(def.filters[fi].bind(&qschemas[i])?);
                    }
                    let kept = chunked(partition, "filter", &rows, &mut meter, |c, _| {
                        filtered(c, &bounds)
                    })?;
                    Arc::new(concat(kept))
                };
                *slot = Some(CachedOperand { rows, raw_len });
            }
            slots.push(pair);
        }

        // The greedy order sizes operands by their filtered lengths only, so
        // every term's keyed steps are known here, before any term runs.
        let size_of = |i: usize, as_delta: bool| -> usize {
            slots[i][usize::from(as_delta)]
                .as_ref()
                .map_or(usize::MAX, |op| op.rows.len())
        };
        let mut steps = Vec::with_capacity(terms.len());
        let mut uses: BTreeMap<TableKey, u64> = BTreeMap::new();
        for t in terms {
            let term = plan_term_steps(def, &qschemas, &size_of, t)?;
            for (next, _, rk) in term.steps.iter().filter(|(_, lk, _)| !lk.is_empty()) {
                let role = t.contains(&def.sources[*next].view);
                *uses.entry((*next, role, rk.clone())).or_insert(0) += 1;
            }
            steps.push(term);
        }

        let mut operands = Vec::with_capacity(uses.len());
        let mut stored: HashMap<TableKey, SharedIdentity> = HashMap::new();
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
                filters: local[*i]
                    .iter()
                    .map(|&fi| format!("{:?}", def.filters[fi]))
                    .collect(),
                rows: size_of(*i, *as_delta) as u64,
                held: false,
            };
            let id = identity(&use_);
            // A key the store holds never builds here: every use probes the
            // earlier table. One it does not hold is built once and stored
            // when this `Comp` uses it again or a later expression can.
            use_.held = store.tables.contains_key(&id);
            let entry = (s.view.as_str(), *as_delta, Some(&id));
            if use_.held || occurrences >= 2 || read_later(w, retention, entry) == Keep::Reader {
                stored.insert(key.clone(), id);
            }
            operands.push(use_);
        }

        Ok((
            CompInputs {
                residual,
                slots,
                steps,
                stored,
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
                        .map_or(0, |op| op.rows.len());
                    let role = if as_delta { "Δ" } else { "" };
                    format!("{role}{view}({rows})")
                })
                .collect(),
        }
    }

    fn operand(&self, i: usize, as_delta: bool) -> CoreResult<&CachedOperand> {
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
    Groups(HashMap<Tuple, GroupAcc>),
}

/// Evaluates term `ti` of the `Comp` against its inputs and the store — the
/// output-identical mirror of [`eval::eval_term`] plus the downstream
/// projection/grouping.
fn eval_term_cached(
    def: &ViewDef,
    inputs: &CompInputs,
    store: &mut OperandStore,
    at: usize,
    (ti, subset): (usize, &BTreeSet<String>),
    meter: &mut WorkMeter,
) -> CoreResult<TermOut> {
    let schema = &inputs.steps[ti].schema;
    let rows = join_term(def, inputs, store, at, (ti, subset), meter)?;
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
            let maps = chunked(inputs.partition, "group", &rows, meter, |c, _| {
                ops::group_rows(c, &spec)
            })?;
            Ok(TermOut::Groups(ops::merge_groups(maps)))
        }
    }
}

/// Runs term `ti`'s planned join sequence and residual filters.
fn join_term(
    def: &ViewDef,
    inputs: &CompInputs,
    store: &mut OperandStore,
    at: usize,
    (ti, subset): (usize, &BTreeSet<String>),
    meter: &mut WorkMeter,
) -> CoreResult<SignedRows> {
    meter.term();

    // Charge the logical scans the per-term path performs when it loads
    // each operand, and pin the role each source plays in this term.
    let mut operands = Vec::with_capacity(def.sources.len());
    for (i, s) in def.sources.iter().enumerate() {
        let as_delta = subset.contains(&s.view);
        let op = inputs.operand(i, as_delta)?;
        meter.scan_logical(op.raw_len);
        operands.push((as_delta, op));
    }

    let popt = inputs.partition;
    let plan = &inputs.steps[ti];
    let mut joined_rows: SignedRows = (*operands[plan.start].1.rows).clone();
    for (next, lk, rk) in &plan.steps {
        let (as_delta, right) = operands[*next];
        joined_rows = if lk.is_empty() {
            sliced_rows(popt, "cross_join", &joined_rows, meter, |c, m| {
                ops::cross_join(c, &right.rows, m)
            })?
        } else if let Some(id) = inputs.stored.get(&(*next, as_delta, rk.clone())) {
            // This (source, role, keys) goes through the store: probe the
            // pure-operand table — built by the first use, here or in an
            // earlier expression — regardless of how large the accumulated
            // intermediate happens to be.
            let (rows, table) = store.table(at, id, (&right.rows, rk), meter);
            sliced_rows(popt, "hash_probe", &joined_rows, meter, |c, m| {
                ops::probe_table(&rows, &table, c, lk, false, m)
            })?
        } else {
            // A step nothing else uses: build fresh on the smaller side,
            // exactly as hash_join would — one build, no reuse.
            let build_left = joined_rows.len() <= right.rows.len();
            let (build, build_keys, probe_rows, probe_keys) = if build_left {
                (&joined_rows, lk, &*right.rows, rk)
            } else {
                (&*right.rows, rk, &joined_rows, lk)
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

/// Computes the delta fragment a `Comp(view, over)` expression contributes,
/// **without mutating the warehouse**: all `2^|over| − 1` maintenance terms
/// evaluated, in term order, against the current state and pending deltas
/// through `store` and accumulated into a fresh [`PendingDelta`]; the meter
/// folds operand materialization and every term. Terms whose delta subset
/// includes a view with an empty pending delta are skipped (footnote 5 of
/// the paper), costing nothing — for *every* strategy alike.
///
/// `at` is this expression's strategy position (the producer tag of what it
/// inserts) and `retention` decides which entries it leaves behind:
/// everything [`read_later`] rejects is dropped before returning, so without
/// a `retention` the store is per-`Comp`. Pure over `&Warehouse`, so
/// independent `Comp` expressions of one parallel stage can run on separate
/// threads (Section 9), each with a store of its own. The fragment bytes and
/// logical meter equal [`eval::reference_comp_fragment`]'s; only the
/// physical counters differ. The profile is what ran: each surviving term's
/// join order and every distinct keyed operand use.
pub(crate) fn comp_fragment(
    w: &Warehouse,
    view: ViewId,
    over: &BTreeSet<ViewId>,
    partition: PartitionOptions,
    store: &mut OperandStore,
    at: usize,
    retention: Retention<'_>,
) -> CoreResult<(PendingDelta, WorkMeter, ExprSharingProfile)> {
    let name = w.vdag().name(view);
    let def = w
        .def(name)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {name}")))?;
    let terms = surviving_terms(w, &w.view_names(over));
    let mut fragment = w.empty_pending_for(name)?;
    let (inputs, mut total) = {
        let mut sp = obs::span(obs::SpanKind::Operator, "materialize_operands");
        let (inputs, meter) = CompInputs::build(w, def, &terms, partition, store, at, retention)?;
        sp.attr_u64(obs::keys::PHYSICAL_ROWS, meter.physical_rows_touched);
        (inputs, meter)
    };
    for (ti, subset) in terms.iter().enumerate() {
        let mut span = obs::span_dyn(obs::SpanKind::Term, || term_label(subset));
        let mut meter = WorkMeter::new();
        let out = eval_term_cached(def, &inputs, store, at, (ti, subset), &mut meter);
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
    store.retain(|view, as_delta, table| {
        read_later(w, retention, (view, as_delta, table)) != Keep::No
    });
    let profile = ExprSharingProfile {
        terms: (terms.iter().enumerate())
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
