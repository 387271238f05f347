//! Strategy execution: one window runner behind four entry points.
//!
//! An update window is a sequence of `(manifest idx, stage, expression)`
//! items. `Warehouse::run_window` is the only code that validates one,
//! opens and commits its WAL, opens its run/stage/expression spans, journals
//! its records, folds its meters and builds its report; `execute`,
//! `execute_with`, `execute_carried`, `execute_staged` and
//! [`crate::recovery`] differ only in the items they hand it — and
//! [`plan_strategy_sharing`] only in running it on a scratch clone.

use crate::engine::pool::PartitionOptions;
use crate::engine::profile::{ExprSharingProfile, SharingProfile};
use crate::engine::publish::InstallPhase;
use crate::engine::share::{self, OperandStore, WindowCarry};
use crate::engine::warehouse::{PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use crate::parallel::{canonical_stage_order, ParallelStrategy};
use crate::wal::{
    encode_pending, Manifest, ManifestExpr, RecordBody, WalConfig, WalWriter, CHANGES_SNAP,
    LOG_FILE, MANIFEST_FILE, STATE_SNAP,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uww_obs as obs;
use uww_relational::{catalog_digest, deltas_digest, digest64, WorkMeter};
use uww_vdag::{analyze_parallel, check_vdag_strategy, Strategy, UpdateExpr, ViewId};

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Check conditions C1–C8 before executing (default: on). The error
    /// names the first violated rule; `uww_vdag::analyze` lists them all.
    pub validate: bool,
    /// Journal execution to an install WAL so a crashed run can be resumed
    /// by [`crate::recovery::recover`] (default: off).
    pub wal: Option<WalConfig>,
    /// Keep the operand store — raw materializations and hash-join build
    /// tables — to the end of the window instead of emptying it after each
    /// `Comp` (default: off). An entry is dropped when an expression changes
    /// its operand, so deltas, WAL bytes, and the logical meter are
    /// byte-identical to per-`Comp` scope — only `physical_rows_touched`,
    /// `hash_tables_cross_reused`, and `operand_reads_cached` move.
    /// Sequential windows only: [`Warehouse::execute_staged`] refuses it.
    pub strategy_sharing: bool,
    /// Partition-parallel execution within each term: every filter, probe,
    /// cross join and grouping input cut into contiguous slices that run on
    /// a work-stealing pool against one shared build table (default: one
    /// partition — the sequential engine). Final states, WAL bytes, the full
    /// meter and the operand store are byte-identical at any partition
    /// count; only wall-clock (and per-partition trace spans) change.
    pub partition: PartitionOptions,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            validate: true,
            wal: None,
            strategy_sharing: false,
            partition: PartitionOptions::default(),
        }
    }
}

/// Measurements for one executed expression.
#[derive(Clone, Debug)]
pub struct ExprReport {
    /// The expression.
    pub expr: UpdateExpr,
    /// Work done by this expression alone.
    pub work: WorkMeter,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// True when recovery replayed this expression from the WAL instead of
    /// executing it fresh (`Comp`s merge their journaled ΔV fragment with no
    /// scan work; `Inst`s are redone against the restored snapshot).
    pub replayed: bool,
}

/// Measurements for a whole strategy execution: the update window.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Per-expression breakdown, in execution (manifest) order.
    pub per_expr: Vec<ExprReport>,
    /// Wall-clock time of each §9 stage of a staged run (its `Comp`s ran
    /// concurrently, so this is close to the slowest `Comp` plus the serial
    /// installs). Empty for sequential and recovered runs.
    pub stage_walls: Vec<Duration>,
}

impl ExecutionReport {
    /// Total work across all expressions.
    pub fn total_work(&self) -> WorkMeter {
        let mut total = WorkMeter::new();
        for e in &self.per_expr {
            total.absorb(&e.work);
        }
        total
    }

    /// Total wall-clock time: the measured update window. A staged run's
    /// `Comp`s overlap, so its window is the sum of its stage walls (the
    /// measured makespan) rather than of its expressions' walls.
    pub fn wall(&self) -> Duration {
        if self.stage_walls.is_empty() {
            self.per_expr.iter().map(|e| e.wall).sum()
        } else {
            self.stage_walls.iter().sum()
        }
    }

    /// The paper's measured linear work (scanned + installed rows).
    pub fn linear_work(&self) -> u64 {
        self.total_work().linear_work()
    }

    /// Renders the report as a JSON object (no external dependencies),
    /// resolving view ids against `g`. This is the one schema every consumer
    /// (`uww run --json`, the serve/bench tooling) reads, so it carries the
    /// full meter — including `rows_emitted` — and each expression's
    /// `replayed` flag.
    pub fn to_json(&self, g: &uww_vdag::Vdag) -> String {
        fn meter_json(m: &WorkMeter) -> String {
            format!(
                "{{\"operand_rows_scanned\":{},\"rows_installed\":{},\"rows_emitted\":{},\
                 \"terms_evaluated\":{},\"comp_expressions\":{},\"inst_expressions\":{},\
                 \"physical_rows_touched\":{},\"hash_tables_built\":{},\
                 \"hash_tables_reused\":{},\"hash_tables_cross_reused\":{},\
                 \"operand_reads_cached\":{}}}",
                m.operand_rows_scanned,
                m.rows_installed,
                m.rows_emitted,
                m.terms_evaluated,
                m.comp_expressions,
                m.inst_expressions,
                m.physical_rows_touched,
                m.hash_tables_built,
                m.hash_tables_reused,
                m.hash_tables_cross_reused,
                m.operand_reads_cached
            )
        }
        use obs::json::escape;

        let mut out = String::from("{\"per_expr\":[");
        for (n, e) in self.per_expr.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let (kind, view, over): (&str, ViewId, Vec<ViewId>) = match &e.expr {
                UpdateExpr::Comp { view, over } => ("comp", *view, over.iter().copied().collect()),
                UpdateExpr::Inst(view) => ("inst", *view, Vec::new()),
            };
            out.push_str(&format!(
                "{{\"expr\":\"{}\",\"kind\":\"{kind}\",\"view\":\"{}\",\"over\":[",
                escape(&e.expr.display(g).to_string()),
                escape(g.name(view)),
            ));
            for (m, v) in over.iter().enumerate() {
                if m > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", escape(g.name(*v))));
            }
            out.push_str(&format!(
                "],\"elapsed_us\":{},\"replayed\":{},\"work\":{}}}",
                e.wall.as_micros(),
                e.replayed,
                meter_json(&e.work)
            ));
        }
        out.push_str(&format!(
            "],\"total\":{},\"elapsed_us\":{},\"linear_work\":{},\"replayed_exprs\":{}}}",
            meter_json(&self.total_work()),
            self.wall().as_micros(),
            self.linear_work(),
            self.per_expr.iter().filter(|e| e.replayed).count()
        ));
        out
    }
}

/// What the operand store and the maintained indexes served during one
/// window, as the meter and the producer tags measured it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarryConformance {
    /// Hash-table uses served by an earlier expression's or window's table
    /// or key index.
    pub measured_cross_reuses: u64,
    /// Operand reads served by an earlier expression's materialization or
    /// an earlier expression's or window's maintained extent.
    pub measured_cached_reads: u64,
    /// Key-index probes served by indexes that existed when the window
    /// began (subset of `measured_cross_reuses`).
    pub measured_carried_table_hits: u64,
    /// Stored operand reads served by extents that existed when the window
    /// began (subset of `measured_cached_reads`).
    pub measured_carried_raw_hits: u64,
}

/// Result of one carried window: the execution report, the store entries
/// that survived into the next window, and what the store and the indexes
/// served.
#[derive(Debug)]
pub struct WindowOutcome {
    /// Per-expression measurements, exactly as [`Warehouse::execute_with`]
    /// would report them.
    pub report: ExecutionReport,
    /// Store entries that outlived this window: none, since every entry is
    /// over a pending delta the next batch replaces. What carries over is
    /// the warehouse's maintained indexes
    /// ([`Warehouse::drop_indexes`] runs the next window cold).
    pub carry: WindowCarry,
    /// What the operand store and the indexes served during this window.
    pub conformance: CarryConformance,
    /// What each expression this run executed did beside its meter — every
    /// `Comp`'s term join orders and keyed operand uses — in execution
    /// order (a recovered window's replayed prefix is not among them).
    pub profile: SharingProfile,
}

/// How long the operand store of a described window keeps its entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingScope {
    /// Emptied after each `Comp` — the default.
    Comp,
    /// Kept to the end of the window: materializations and build tables
    /// survive across expressions until the operand is modified.
    Strategy,
}

/// Describes the window `strategy` would be on `w` without running it for
/// real: a scratch clone — publisher detached, spans suppressed, no
/// validation, no WAL — goes through the one window runner at the requested
/// store scope, and the outcome is the description. Per-expression meters,
/// term join orders and operand uses are therefore exactly what executing
/// the strategy next reports. Offline: as costly as running the window.
pub fn plan_strategy_sharing(
    w: &Warehouse,
    strategy: &Strategy,
    scope: SharingScope,
) -> CoreResult<WindowOutcome> {
    describe(w, strategy, scope, None)
}

/// [`plan_strategy_sharing`] for a carried window: the scratch run's store
/// starts from `carry`, at window scope, as [`Warehouse::execute_carried`]
/// does.
pub fn plan_strategy_sharing_carried(
    w: &Warehouse,
    strategy: &Strategy,
    carry: &WindowCarry,
) -> CoreResult<WindowOutcome> {
    describe(w, strategy, SharingScope::Strategy, Some(carry))
}

fn describe(
    w: &Warehouse,
    strategy: &Strategy,
    scope: SharingScope,
    carry: Option<&WindowCarry>,
) -> CoreResult<WindowOutcome> {
    let mut scratch = w.clone();
    // A description must not reach online readers or an installed trace.
    scratch.detach_publisher();
    let _quiet = obs::suppress();
    let opts = ExecOptions {
        validate: false,
        strategy_sharing: scope == SharingScope::Strategy,
        ..ExecOptions::default()
    };
    scratch.run_window(&serial_items(strategy), None, &opts, None, carry.cloned())
}

/// One window item: `(manifest idx, §9 stage, expression)`.
pub(crate) type Item<'a> = (usize, usize, &'a UpdateExpr);

/// A sequential strategy as window items: one serial stage.
pub(crate) fn serial_items(strategy: &Strategy) -> Vec<Item<'_>> {
    strategy
        .exprs
        .iter()
        .enumerate()
        .map(|(i, e)| (i, 0, e))
        .collect()
}

/// The journal, install phase, store and report of the window in flight.
struct Run<'a> {
    opts: &'a ExecOptions,
    wal: Option<WalWriter>,
    phase: InstallPhase<'a>,
    store: OperandStore,
    /// The store's scope: emptied after each `Comp`, or kept while a later
    /// expression of the window can read an entry.
    window_scope: bool,
    /// The items not yet finished, the running one first.
    rest: &'a [Item<'a>],
    report: ExecutionReport,
    /// One entry per `report.per_expr` entry.
    profile: SharingProfile,
}

impl Run<'_> {
    /// Appends `body` when the window is journaled.
    fn journal(&mut self, body: RecordBody) -> CoreResult<()> {
        if let Some(w) = &mut self.wal {
            w.append(&body)?;
        }
        Ok(())
    }
}

impl Warehouse {
    /// Executes a VDAG strategy with default options.
    pub fn execute(&mut self, strategy: &Strategy) -> CoreResult<ExecutionReport> {
        self.execute_with(strategy, ExecOptions::default())
    }

    /// Executes a VDAG strategy: one serial stage.
    pub fn execute_with(
        &mut self,
        strategy: &Strategy,
        opts: ExecOptions,
    ) -> CoreResult<ExecutionReport> {
        let items = serial_items(strategy);
        Ok(self.run_window(&items, None, &opts, None, None)?.report)
    }

    /// Executes one continuous-mode window: like [`Warehouse::execute_with`]
    /// with `strategy_sharing` forced on, but the operand store starts from
    /// `carry` and is handed back afterwards, with what the store and the
    /// carried-in maintained indexes served. Deltas, WAL bytes, and the
    /// logical meter are byte-identical to any other run; only the physical
    /// sharing counters move.
    pub fn execute_carried(
        &mut self,
        strategy: &Strategy,
        opts: ExecOptions,
        carry: WindowCarry,
    ) -> CoreResult<WindowOutcome> {
        let items = serial_items(strategy);
        self.run_window(&items, None, &opts, None, Some(carry))
    }

    /// Executes a §9 parallel strategy: within each stage, every `Comp`'s
    /// fragment is computed on its own thread against the frozen stage-entry
    /// state (fragments are pure reads), then the fragments merge and the
    /// stage's `Inst`s apply serially at the stage boundary — through the
    /// same install funnel as a sequential window, so an attached
    /// [`InstallPublisher`](crate::engine::InstallPublisher) publishes the
    /// window at its commit.
    ///
    /// The WAL manifest records [`canonical_stage_order`]: a `STG` record
    /// opens each stage, every `CS` lands before the threads spawn, each
    /// `CD` (log-ahead) as the fragments merge after the join, and `IS`/`ID`
    /// bracket each install — so a crash at any record boundary resumes from
    /// the exact expression it interrupted. To run the stages one expression
    /// at a time instead, `execute` the strategy's `linearize()`.
    pub fn execute_staged(
        &mut self,
        p: &ParallelStrategy,
        opts: ExecOptions,
    ) -> CoreResult<ExecutionReport> {
        let canonical = canonical_stage_order(p);
        let items: Vec<Item<'_>> = canonical
            .iter()
            .enumerate()
            .map(|(i, (stage, e))| (i, *stage, e))
            .collect();
        Ok(self.run_window(&items, Some(p), &opts, None, None)?.report)
    }

    /// Runs one update window — the single executor every entry point
    /// adapts to.
    ///
    /// `items` are the window's expressions in manifest order. Consecutive
    /// items of one stage form a group; a `STG` record marks every stage
    /// change. With `staged` set the window came from that parallel
    /// strategy: it is race-checked, each group gets a stage span, and the
    /// group's leading `Comp`s fan out over threads; otherwise every item
    /// runs on its own. `resume` continues a recovered window on its
    /// reopened journal from the stage its replayed prefix ended in, and the
    /// install phase its replay opened (recovery has already gated prefix +
    /// suffix and holds the run span open). `carry` starts the operand store
    /// from the previous window's survivors and forces `strategy_sharing`
    /// on.
    pub(crate) fn run_window(
        &mut self,
        items: &[Item<'_>],
        staged: Option<&ParallelStrategy>,
        opts: &ExecOptions,
        resume: Option<(Option<usize>, WalWriter, InstallPhase<'_>)>,
        carry: Option<WindowCarry>,
    ) -> CoreResult<WindowOutcome> {
        let fresh = resume.is_none();
        let publisher = self.publisher().cloned();
        let (mut last_stage, wal, phase) = match resume {
            Some((last_stage, wal, phase)) => (last_stage, Some(wal), phase),
            None => {
                if opts.validate {
                    let linear = match staged {
                        Some(p) => p.linearize(),
                        None => Strategy::from_exprs(items.iter().map(|i| i.2.clone()).collect()),
                    };
                    check_vdag_strategy(self.vdag(), &linear)?;
                }
                if let Some(p) = staged {
                    // The linearized check cannot see stage races: a
                    // same-stage pair like `Comp(V5, {V4}); Comp(V4, ..)`
                    // linearizes to a C8-legal order yet computes against
                    // the frozen stage-entry state here, silently dropping
                    // ΔV4's contribution. `analyze_parallel` (UWW001) can
                    // — and it also underwrites the WAL manifest's
                    // canonical order, so it always runs.
                    let lint = analyze_parallel(self.vdag(), &p.stages);
                    if !lint.is_clean() {
                        return Err(CoreError::Analysis(Box::new(lint)));
                    }
                    if opts.strategy_sharing {
                        return Err(CoreError::Warehouse(
                            "strategy_sharing is not supported by execute_staged: the operand \
                             store serves one expression after another, and a stage's Comps \
                             run concurrently"
                                .into(),
                        ));
                    }
                }
                let wal = match &opts.wal {
                    Some(cfg) => Some(self.wal_begin(cfg, items)?),
                    None => None,
                };
                (None, wal, InstallPhase::new(publisher.as_ref()))
            }
        };

        // Nothing about sharing is planned: the store is driven by lookups,
        // and its scope is how long this window keeps it. Every index held
        // now was built before this window.
        let carried = carry.is_some();
        let store = OperandStore::start_window(carry);
        self.indexes_mut().start_window();

        // The staged label predates `execute_staged`; trace diffs key on it.
        let _run_span = fresh.then(|| {
            let (label, key, n) = match staged {
                Some(p) => ("execute_parallel_threaded", "stages", p.stages.len()),
                None => ("execute", "expressions", items.len()),
            };
            let mut span = obs::span(obs::SpanKind::Run, label);
            span.attr_u64(key, n as u64);
            span
        });
        let start_meter = *self.meter();
        let mut run = Run {
            opts,
            wal,
            phase,
            store,
            window_scope: carried || opts.strategy_sharing,
            rest: items,
            report: ExecutionReport::default(),
            profile: SharingProfile::default(),
        };
        for group in items.chunk_by(|a, b| a.1 == b.1) {
            let stage = group[0].1;
            let t0 = Instant::now();
            let _stage_span = staged.map(|_| {
                let mut span = obs::span_dyn(obs::SpanKind::Stage, || format!("stage {stage}"));
                span.attr_u64(obs::keys::STAGE, stage as u64);
                span
            });
            if last_stage != Some(stage) {
                run.journal(RecordBody::Stage(stage))?;
                last_stage = Some(stage);
            }
            // Canonical order puts a stage's Comps first; they all read the
            // frozen stage-entry state, so a staged window runs them as one
            // concurrent batch.
            let is_comp = |i: &&Item<'_>| matches!(i.2, UpdateExpr::Comp { .. });
            let fan = staged.map_or(0, |_| group.iter().take_while(is_comp).count());
            self.run_comps(&group[..fan], &mut run)?;
            for item in &group[fan..] {
                match item.2 {
                    UpdateExpr::Comp { .. } => {
                        self.run_comps(std::slice::from_ref(item), &mut run)?
                    }
                    UpdateExpr::Inst(_) => self.run_inst(item, &mut run)?,
                }
            }
            if staged.is_some() {
                run.report.stage_walls.push(t0.elapsed());
            }
        }
        run.journal(RecordBody::Commit)?;
        self.publish_window(run.phase)?;

        let measured = self.meter().since(&start_meter);
        let (measured_carried_table_hits, measured_carried_raw_hits) = run.store.carried_hits();
        Ok(WindowOutcome {
            report: run.report,
            carry: run.store,
            conformance: CarryConformance {
                measured_cross_reuses: measured.hash_tables_cross_reused,
                measured_cached_reads: measured.operand_reads_cached,
                measured_carried_table_hits,
                measured_carried_raw_hits,
            },
            profile: run.profile,
        })
    }

    /// Opens the expression span of `expr` under `parent`, with its static
    /// attributes.
    fn expr_span(&self, parent: u64, expr: &UpdateExpr) -> obs::Span {
        let g = self.vdag();
        let mut span = obs::span_under_dyn(obs::SpanKind::Expression, parent, || {
            expr.display(g).to_string()
        });
        expr_attrs(&mut span, g, expr);
        span
    }

    /// Runs a batch of `Comp`s against the current state: a `CS` for each
    /// (log-ahead intent); each planned, its indexes ensured, in turn; the
    /// fragments — concurrently when there are several, each a pure read of
    /// `self` — then, in manifest order, each fragment's `CD` (journaled
    /// *before* the merge, so a `CD` record guarantees the fragment is
    /// durably reproducible) and its merge into the view's pending delta.
    fn run_comps(&mut self, batch: &[Item<'_>], run: &mut Run<'_>) -> CoreResult<()> {
        let parent = obs::current_span_id();
        // A lone Comp's span covers its planning, journal records and merge
        // too; a fanned-out Comp's span lives on its worker thread.
        let mut solo = match batch {
            [one] => Some(self.expr_span(parent, one.2)),
            _ => None,
        };
        let t0 = Instant::now();
        for item in batch {
            run.journal(RecordBody::CompStart(item.0))?;
        }
        let partition = run.opts.partition;
        type Computed = (PendingDelta, WorkMeter, ExprSharingProfile, Duration);
        let results: Vec<CoreResult<Computed>> = match batch {
            [one] => {
                let retention = run.window_scope.then(|| &run.rest[1..]);
                let t = Instant::now();
                let (view, over) = comp_of(one.2)?;
                let (inputs, meter) = share::prepare_comp(
                    self,
                    (view, over),
                    partition,
                    &mut run.store,
                    one.0,
                    retention,
                )?;
                let out =
                    share::comp_fragment(self, inputs, meter, &mut run.store, one.0, retention);
                vec![out.map(|(fragment, work, profile)| (fragment, work, profile, t.elapsed()))]
            }
            // Concurrent Comps share nothing but the indexes, ensured for
            // all of them before any runs: each reads through a store of
            // its own, emptied when it is done.
            _ => {
                let mut jobs = Vec::with_capacity(batch.len());
                for item in batch {
                    let t = Instant::now();
                    let mut store = OperandStore::empty();
                    let (view, over) = comp_of(item.2)?;
                    let (inputs, meter) = share::prepare_comp(
                        self,
                        (view, over),
                        partition,
                        &mut store,
                        item.0,
                        None,
                    )?;
                    jobs.push((item, store, inputs, meter, t.elapsed()));
                }
                let this: &Warehouse = self;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = jobs
                        .into_iter()
                        .map(|(item, mut store, inputs, meter, prep)| {
                            scope.spawn(move || {
                                let mut span = this.expr_span(parent, item.2);
                                let t = Instant::now();
                                let out = share::comp_fragment(
                                    this, inputs, meter, &mut store, item.0, None,
                                );
                                if let Ok((_, work, _)) = &out {
                                    meter_attrs(&mut span, work);
                                }
                                out.map(|(fragment, work, profile)| {
                                    (fragment, work, profile, prep + t.elapsed())
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join().unwrap_or_else(|_| {
                                Err(CoreError::Warehouse("a Comp's thread panicked".into()))
                            })
                        })
                        .collect()
                })
            }
        };
        for (&(idx, _, expr), result) in batch.iter().zip(results) {
            let (fragment, mut work, profile, wall) = result?;
            if let Some(w) = &mut run.wal {
                let payload = encode_pending(&fragment);
                w.append(&RecordBody::CompDone {
                    idx,
                    digest: digest64(&payload),
                    payload,
                })?;
            }
            let name = self.vdag().name(expr.subject()).to_string();
            let changed = !fragment.is_empty();
            self.merge_fragment(&name, fragment)?;
            work.comp_expressions = 1;
            self.meter_mut().absorb(&work);
            run.store.expr_done(self.vdag(), expr, changed);
            let wall = match &mut solo {
                Some(span) => {
                    meter_attrs(span, &work);
                    t0.elapsed()
                }
                None => wall,
            };
            run.report.per_expr.push(ExprReport {
                expr: expr.clone(),
                work,
                wall,
                replayed: false,
            });
            run.profile.exprs.push(profile);
        }
        run.rest = &run.rest[batch.len()..];
        Ok(())
    }

    /// Runs `Inst(view)` between its `IS`/`ID` records. The `ID` record
    /// carries the installed row count and the content digest the view's
    /// table keeps, which recovery verifies after redoing the install.
    fn run_inst(&mut self, item: &Item<'_>, run: &mut Run<'_>) -> CoreResult<()> {
        let &(idx, _, expr) = item;
        let view = expr.subject();
        let mut span = self.expr_span(obs::current_span_id(), expr);
        let start_meter = *self.meter();
        let t0 = Instant::now();
        run.journal(RecordBody::InstStart(idx))?;
        let delta_len = self.exec_inst(view, &mut run.phase)?;
        if let Some(w) = &mut run.wal {
            let post_digest = self.table(self.vdag().name(view))?.digest();
            w.append(&RecordBody::InstDone {
                idx,
                delta_len,
                post_digest,
            })?;
        }
        run.store.expr_done(self.vdag(), expr, delta_len != 0);
        let work = self.meter().since(&start_meter);
        meter_attrs(&mut span, &work);
        drop(span);
        run.report.per_expr.push(ExprReport {
            expr: expr.clone(),
            work,
            wall: t0.elapsed(),
            replayed: false,
        });
        run.profile.exprs.push(ExprSharingProfile::default());
        run.rest = &run.rest[1..];
        Ok(())
    }

    /// Snapshots the warehouse into a fresh WAL directory and writes the
    /// manifest for the window's items (canonical execution order).
    ///
    /// Fails if any derived view already has an in-flight delta: the WAL
    /// journals a whole update window, so it must start from a clean batch
    /// of base-view changes.
    fn wal_begin(&self, cfg: &WalConfig, items: &[Item<'_>]) -> CoreResult<WalWriter> {
        let mut span = obs::span(obs::SpanKind::WalRecord, "snapshot");
        let mut changes = Vec::new();
        for (name, p) in self.pending_map() {
            let id = self.vdag().id_of(name)?;
            match p {
                PendingDelta::Rows(d) if self.vdag().is_base(id) => {
                    changes.push((name.as_str(), d));
                }
                _ => {
                    return Err(CoreError::Wal(format!(
                        "cannot begin a WAL mid-window: {name} has an in-flight derived delta"
                    )))
                }
            }
        }
        let manifest = Manifest {
            vdag_fingerprint: self.vdag().fingerprint(),
            state_digest: catalog_digest(self.state()),
            changes_digest: deltas_digest(changes.iter().copied()),
            fsync: cfg.fsync,
            ctx: cfg.ctx.clone(),
            exprs: items
                .iter()
                .map(|&(_, stage, e)| ManifestExpr::from_expr(self.vdag(), stage, e))
                .collect(),
        };
        let writer = WalWriter::create(cfg, &manifest, self.state(), &changes)?;
        if span.is_recording() {
            // What `create` wrote: both snapshots, the manifest and `BEGIN`.
            let bytes = [STATE_SNAP, CHANGES_SNAP, MANIFEST_FILE, LOG_FILE]
                .iter()
                .filter_map(|f| std::fs::metadata(cfg.dir.join(f)).ok())
                .map(|m| m.len())
                .sum();
            span.attr_u64(obs::keys::BYTES, bytes);
        }
        Ok(writer)
    }

    /// Folds a computed fragment into `view`'s pending accumulator.
    pub(crate) fn merge_fragment(&mut self, view: &str, fragment: PendingDelta) -> CoreResult<()> {
        if !self.pending_map().contains_key(view) {
            let empty = self.empty_pending_for(view)?;
            self.pending_map_mut().insert(view.to_string(), empty);
        }
        match (self.pending_map_mut().get_mut(view), fragment) {
            (Some(PendingDelta::Rows(acc)), PendingDelta::Rows(d)) => acc.merge(&d),
            (Some(PendingDelta::Summary(acc)), PendingDelta::Summary(s)) => acc.merge(&s),
            _ => {
                return Err(CoreError::Warehouse(format!(
                    "fragment shape mismatch for {view}"
                )))
            }
        }
        Ok(())
    }

    /// Executes `Inst(view)`: installs the pending delta (a no-op when no
    /// delta is pending, e.g. an unchanged base view). Returns the number of
    /// delta rows installed.
    ///
    /// This is the single funnel through which *every* install lands (the
    /// window runner and recovery's replay both reach it), so `phase` sees
    /// every install the window's publish must carry, and every maintained
    /// index over the view is handed the same delta.
    pub(crate) fn exec_inst(&mut self, view: ViewId, phase: &mut InstallPhase) -> CoreResult<u64> {
        let name = self.vdag().name(view).to_string();
        self.meter_mut().inst_expressions += 1;
        let pending = self.pending_map_mut().remove(&name);
        phase.inst(&name, pending.is_some());
        if !self.vdag().is_base(view) || pending.as_ref().is_some_and(|p| !p.is_empty()) {
            self.indexes_mut().cool(&name);
        }
        let Some(pending) = pending else {
            return Ok(0);
        };
        let delta = match pending {
            PendingDelta::Rows(d) => d,
            PendingDelta::Summary(s) => s.to_delta(self.table(&name)?).map_err(CoreError::Rel)?,
        };
        let len = delta.len();
        let delta = Arc::new(delta);
        let (state, indexes) = self.index_parts();
        let table = state.get_mut(&name)?;
        table.install(&delta).map_err(CoreError::Rel)?;
        indexes.install(&name, &delta, table);
        self.meter_mut().install(len);
        Ok(len)
    }
}

/// The target and delta set of a `Comp`; an `Inst` scheduled among a
/// stage's `Comp`s is an error.
fn comp_of(e: &UpdateExpr) -> CoreResult<(ViewId, &std::collections::BTreeSet<ViewId>)> {
    match e {
        UpdateExpr::Comp { view, over } => Ok((*view, over)),
        UpdateExpr::Inst(_) => Err(CoreError::Warehouse(
            "an Inst was scheduled among a stage's Comps".into(),
        )),
    }
}

/// Attaches the static expression attributes (kind, target view) to a span.
pub(crate) fn expr_attrs(span: &mut obs::Span, g: &uww_vdag::Vdag, expr: &UpdateExpr) {
    if !span.is_recording() {
        return;
    }
    let (kind, view) = match expr {
        UpdateExpr::Comp { view, .. } => ("comp", *view),
        UpdateExpr::Inst(view) => ("inst", *view),
    };
    span.attr_str(obs::keys::EXPR_KIND, kind);
    span.attr_str(obs::keys::VIEW, g.name(view));
}

/// Attaches a `WorkMeter` delta to a span as the standard measured-work
/// attributes (the full logical/physical split plus the paper's linear
/// metric under [`obs::keys::MEASURED_WORK`]).
pub(crate) fn meter_attrs(span: &mut obs::Span, work: &WorkMeter) {
    if !span.is_recording() {
        return;
    }
    span.attr_u64(obs::keys::MEASURED_WORK, work.linear_work());
    span.attr_u64(obs::keys::ROWS_SCANNED, work.operand_rows_scanned);
    span.attr_u64(obs::keys::ROWS_INSTALLED, work.rows_installed);
    span.attr_u64(obs::keys::ROWS_EMITTED, work.rows_emitted);
    span.attr_u64(obs::keys::TERMS, work.terms_evaluated);
    span.attr_u64(obs::keys::PHYSICAL_ROWS, work.physical_rows_touched);
    span.attr_u64(obs::keys::HASH_BUILDS, work.hash_tables_built);
    span.attr_u64(obs::keys::HASH_REUSES, work.hash_tables_reused);
    span.attr_u64(obs::keys::HASH_CROSS_REUSES, work.hash_tables_cross_reused);
    span.attr_u64(obs::keys::CACHED_READS, work.operand_reads_cached);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::warehouse::Warehouse;
    use std::collections::BTreeMap;
    use uww_relational::{
        tup, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, ScalarExpr, Schema,
        Table, Value, ValueType, ViewDef, ViewOutput, ViewSource,
    };

    fn base_r() -> Table {
        let mut t = Table::new(
            "R",
            Schema::of(&[("rk", ValueType::Int), ("rv", ValueType::Decimal)]),
        );
        for i in 0..6 {
            t.insert(tup![Value::Int(i), Value::Decimal(100 * (i + 1))])
                .unwrap();
        }
        t
    }

    fn base_s() -> Table {
        let mut t = Table::new(
            "S",
            Schema::of(&[("sk", ValueType::Int), ("grp", ValueType::Int)]),
        );
        for i in 0..6 {
            t.insert(tup![Value::Int(i), Value::Int(i % 2)]).unwrap();
        }
        t
    }

    fn agg_def() -> ViewDef {
        ViewDef {
            name: "V".into(),
            sources: vec![ViewSource::named("R"), ViewSource::named("S")],
            joins: vec![EquiJoin::new("R.rk", "S.sk")],
            filters: vec![],
            output: ViewOutput::Aggregate {
                group_by: vec![OutputColumn::col("grp", "S.grp")],
                aggregates: vec![AggregateColumn {
                    name: "total".into(),
                    func: AggFunc::Sum,
                    input: ScalarExpr::col("R.rv"),
                }],
            },
        }
    }

    fn warehouse_with_changes() -> Warehouse {
        let mut w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .build()
            .unwrap();
        // Delete R row 0 (group 0) and S row 1 (group 1, joins R row 1).
        let mut dr = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        dr.add(tup![Value::Int(0), Value::Decimal(100)], -1);
        let mut ds = DeltaRelation::new(w.table("S").unwrap().schema().clone());
        ds.add(tup![Value::Int(1), Value::Int(1)], -1);
        let mut m = BTreeMap::new();
        m.insert("R".to_string(), dr);
        m.insert("S".to_string(), ds);
        w.load_changes(m).unwrap();
        w
    }

    fn strategy_1way_rs(w: &Warehouse) -> Strategy {
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ])
    }

    fn strategy_dual_stage(w: &Warehouse) -> Strategy {
        uww_vdag::dual_stage_strategy(w.vdag())
    }

    #[test]
    fn one_way_strategy_reaches_expected_state() {
        let mut w = warehouse_with_changes();
        let expected = w.expected_final_state().unwrap();
        let strategy = strategy_1way_rs(&w);
        let report = w.execute(&strategy).unwrap();
        assert!(w.diff_state(&expected).is_empty(), "state mismatch");
        assert!(report.linear_work() > 0);
        assert_eq!(report.per_expr.len(), 5);
    }

    #[test]
    fn dual_stage_strategy_reaches_same_state() {
        let mut w1 = warehouse_with_changes();
        let mut w2 = warehouse_with_changes();
        let expected = w1.expected_final_state().unwrap();
        w1.execute(&strategy_1way_rs(&w1)).unwrap();
        w2.execute(&strategy_dual_stage(&w2)).unwrap();
        assert!(w1.diff_state(&expected).is_empty());
        assert!(w2.diff_state(&expected).is_empty());
        assert!(w1.table("V").unwrap().same_contents(w2.table("V").unwrap()));
    }

    #[test]
    fn reverse_one_way_order_also_correct() {
        let mut w = warehouse_with_changes();
        let expected = w.expected_final_state().unwrap();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        let strategy = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::inst(v),
        ]);
        w.execute(&strategy).unwrap();
        assert!(w.diff_state(&expected).is_empty());
    }

    #[test]
    fn incorrect_strategy_rejected_by_validation() {
        let mut w = warehouse_with_changes();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        // Installs R before propagating it.
        let bad = Strategy::from_exprs(vec![
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        assert!(w.execute(&bad).is_err());
        // Without validation the engine executes it and produces the WRONG
        // state — the reason the correctness conditions exist.
        let mut w2 = warehouse_with_changes();
        let expected = w2.expected_final_state().unwrap();
        w2.execute_with(
            &bad,
            ExecOptions {
                validate: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert!(!w2.diff_state(&expected).is_empty());
    }

    #[test]
    fn staged_execution_refuses_strategy_sharing_before_touching_anything() {
        // The staged path used to drop `strategy_sharing` without a word.
        let mut w = warehouse_with_changes();
        let before = uww_relational::catalog_to_string(w.state());
        let p = crate::parallel::parallelize(w.vdag(), &strategy_dual_stage(&w));
        let dir = std::env::temp_dir().join(format!("uww-staged-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExecOptions {
            strategy_sharing: true,
            wal: Some(WalConfig::new(&dir)),
            ..ExecOptions::default()
        };
        match w.execute_staged(&p, opts) {
            Err(CoreError::Warehouse(msg)) => assert!(msg.contains("strategy_sharing"), "{msg}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert!(!dir.exists(), "refusal must precede the WAL snapshot");
        assert_eq!(uww_relational::catalog_to_string(w.state()), before);
        assert_eq!(w.meter().linear_work(), 0);
        // Without the option the same schedule runs.
        w.execute_staged(&p, ExecOptions::default()).unwrap();
    }

    #[test]
    fn indexes_outlive_the_window_and_store_entries_do_not() {
        // R changes, S does not. Whatever the scope, the window hands on no
        // store entry, and the warehouse keeps the indexes its terms probed,
        // current: the next window probes them instead of building.
        let mut w = warehouse_with_changes();
        w.pending_map_mut().remove("S");
        let strategy = strategy_1way_rs(&w);
        let items = serial_items(&strategy);
        let shared = ExecOptions {
            strategy_sharing: true,
            ..ExecOptions::default()
        };
        for (opts, carry) in [
            (&shared, None),
            (&shared, Some(WindowCarry::empty())),
            (&ExecOptions::default(), None),
        ] {
            let mut run = w.clone();
            let out = run.run_window(&items, None, opts, None, carry).unwrap();
            assert!(out.carry.is_empty());
            assert_eq!(run.index_counts(), (1, 1), "Comp(V,{{R}}) probes S on sk");
            run.check_indexes().unwrap();
        }
        w.execute(&strategy).unwrap();
        let mut d = DeltaRelation::new(w.table("S").unwrap().schema().clone());
        d.add(tup![Value::Int(2), Value::Int(0)], -1);
        let mut d2 = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        d2.add(tup![Value::Int(2), Value::Decimal(300)], -1);
        w.load_changes(BTreeMap::from([
            ("S".to_string(), d),
            ("R".to_string(), d2),
        ]))
        .unwrap();
        let expected = w.expected_final_state().unwrap();
        let second = w.run_window(&items, None, &shared, None, None).unwrap();
        assert!(w.diff_state(&expected).is_empty());
        w.check_indexes().unwrap();
        let probe = second.report.per_expr[0].work;
        assert_eq!(probe.hash_tables_built, 0, "{probe}");
        assert_eq!(second.conformance.measured_carried_table_hits, 1);
    }

    #[test]
    fn empty_delta_comp_is_free() {
        let mut w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .build()
            .unwrap();
        // No changes loaded at all.
        let strategy = strategy_1way_rs(&w);
        let report = w.execute(&strategy).unwrap();
        assert_eq!(report.total_work().operand_rows_scanned, 0);
        assert_eq!(report.total_work().rows_installed, 0);
    }

    #[test]
    fn dual_stage_scans_more_than_one_way() {
        // The core effect of the paper: with shrinking views, the dual-stage
        // strategy's multi-delta terms scan more operand rows.
        let mut w1 = warehouse_with_changes();
        let mut w2 = warehouse_with_changes();
        let r1 = w1.execute(&strategy_1way_rs(&w1)).unwrap();
        let r2 = w2.execute(&strategy_dual_stage(&w2)).unwrap();
        assert!(
            r2.total_work().operand_rows_scanned > r1.total_work().operand_rows_scanned,
            "dual-stage {} <= one-way {}",
            r2.total_work().operand_rows_scanned,
            r1.total_work().operand_rows_scanned
        );
    }

    #[test]
    fn foreign_and_malformed_expressions_rejected() {
        let mut w = warehouse_with_changes();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        // Comp on a base view.
        let bad = Strategy::from_exprs(vec![UpdateExpr::comp1(r, v)]);
        assert!(w.execute(&bad).is_err());
        // Expression over an out-of-range view id.
        let bad = Strategy::from_exprs(vec![UpdateExpr::inst(ViewId(99))]);
        assert!(w.execute(&bad).is_err());
        // Duplicate expression (C6).
        let s = w.view_id("S").unwrap();
        let bad = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        assert!(w.execute(&bad).is_err());
        // Nothing was applied by the failed attempts.
        assert_eq!(w.meter().rows_installed, 0);
    }

    #[test]
    fn second_execution_is_a_noop() {
        let mut w = warehouse_with_changes();
        let strategy = strategy_1way_rs(&w);
        let first = w.execute(&strategy).unwrap();
        assert!(first.linear_work() > 0);
        let snapshot = w.table("V").unwrap().clone();
        // Pendings were consumed; running again changes nothing and costs
        // nothing.
        let second = w.execute(&strategy).unwrap();
        assert_eq!(second.linear_work(), 0);
        assert!(w.table("V").unwrap().same_contents(&snapshot));
    }

    #[test]
    fn report_json_carries_full_meter_and_replay_flags() {
        let mut w = warehouse_with_changes();
        let report = w.execute(&strategy_1way_rs(&w)).unwrap();
        let json = report.to_json(w.vdag());
        // One schema for all consumers: rows_emitted and replayed included.
        assert!(json.contains("\"rows_emitted\":"));
        assert!(json.contains("\"replayed\":false"));
        assert!(json.contains("\"replayed_exprs\":0"));
        assert!(json.contains("\"kind\":\"comp\""));
        assert!(json.contains("\"kind\":\"inst\""));
        assert!(json.contains("\"view\":\"V\""));
        assert!(json.contains(&format!("\"linear_work\":{}", report.linear_work())));
        // Emitted rows actually flow through to the total.
        let emitted = report.total_work().rows_emitted;
        assert!(json.contains(&format!("\"rows_emitted\":{emitted}")));
    }

    #[test]
    fn report_aggregates_match_sum_of_parts() {
        let mut w = warehouse_with_changes();
        let report = w.execute(&strategy_1way_rs(&w)).unwrap();
        let total = report.total_work();
        let sum_scanned: u64 = report
            .per_expr
            .iter()
            .map(|e| e.work.operand_rows_scanned)
            .sum();
        assert_eq!(total.operand_rows_scanned, sum_scanned);
        assert_eq!(total.comp_expressions, 2);
        assert_eq!(total.inst_expressions, 3);
    }
}
