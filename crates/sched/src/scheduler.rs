//! The continuous micro-batch ingest scheduler.
//!
//! [`IngestScheduler`] turns a [`DeltaSource`](crate::DeltaSource) timeline
//! into a sequence of update windows against one warehouse. Per window it:
//!
//! 1. asks the [`Policy`] for the accumulation span and drains every event
//!    that arrived since the last drain (including during the previous
//!    window's processing);
//! 2. folds the queued events into one change batch per base view and
//!    loads it;
//! 3. plans the window — sizes are re-estimated, the strategy re-picked
//!    (`minwork` or the sharing-aware `shared` objective) — and converts
//!    the predicted linear work into processing ticks via the SLA's
//!    service rate;
//! 4. executes through the existing WAL + operand-store machinery
//!    ([`Warehouse::execute_carried`]), the warehouse's maintained join
//!    indexes carried into the next window, or dropped before each window
//!    when `carry` is off;
//! 5. advances the virtual clock past the processing span, so arrivals
//!    during processing land in the *next* batch.
//!
//! Virtual time is deterministic: the clock advances by *predicted*
//! processing ticks, never wall time, so the same seed yields the same
//! window sequence on every machine — and a crashed run resumes through
//! the identical schedule ([`resume_after_crash`]).

use crate::policy::SlaConfig;
use crate::source::{DeltaEvent, DeltaSource};
use crate::Policy;
use std::collections::BTreeMap;
use std::path::PathBuf;
use uww_core::{
    min_work, min_work_shared, recover, CarryConformance, CoreError, CoreResult, CostModel,
    ExecOptions, ExecutionReport, FaultPlan, FsyncPolicy, PartitionOptions, RecoveryOutcome,
    SizeCatalog, WalConfig, Warehouse, WindowCarry,
};
use uww_obs as obs;
use uww_relational::DeltaRelation;
use uww_vdag::{Strategy, UpdateExpr};

/// Which planner picks each window's strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowPlanner {
    /// MinWork under the plain linear objective.
    MinWork,
    /// The sharing-aware objective ([`min_work_shared`]).
    Shared,
}

impl WindowPlanner {
    /// Parses a CLI planner name.
    pub fn parse(s: &str) -> Result<WindowPlanner, String> {
        match s {
            "minwork" => Ok(WindowPlanner::MinWork),
            "shared" => Ok(WindowPlanner::Shared),
            other => Err(format!(
                "unknown window planner: {other} (expected minwork|shared)"
            )),
        }
    }
}

/// Scheduler configuration: policy, SLA, durability, and fault injection.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Window-cut policy.
    pub policy: Policy,
    /// Staleness target and service rate.
    pub sla: SlaConfig,
    /// Window span in ticks under `fixed`; `greedy` ignores it.
    pub window: u64,
    /// Stop once every event at or before this tick is processed.
    pub horizon: u64,
    /// Keep the warehouse's maintained join indexes across windows; off,
    /// every window starts by dropping them and runs cold.
    pub carry: bool,
    /// Per-window strategy planner.
    pub planner: WindowPlanner,
    /// Root directory for per-window WAL subdirectories (`window_K`);
    /// `None` runs without journaling.
    pub wal_root: Option<PathBuf>,
    /// Fsync policy for each window's WAL.
    pub fsync: FsyncPolicy,
    /// Inject this fault plan into window K's WAL — the crash-matrix hook.
    pub fault: Option<(usize, FaultPlan)>,
    /// Partition-parallel execution for every window. The window-cost model
    /// divides predicted processing ticks by the *configured* partition
    /// count (never the machine's core count), so the virtual-time schedule
    /// stays deterministic across machines.
    pub partition: PartitionOptions,
    /// Append one flight-recorder record per completed window to this JSONL
    /// file (`None` disables the ledger). Records are written only *after*
    /// the window's WAL commit, so a crashed window has a WAL directory but
    /// no ledger line — recovery replays reconcile exactly. Pure
    /// observability: enabling it never changes states, WAL bytes, or the
    /// window schedule.
    pub ledger: Option<PathBuf>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            policy: Policy::Fixed,
            sla: SlaConfig::default(),
            window: 16,
            horizon: 200,
            carry: true,
            planner: WindowPlanner::MinWork,
            wal_root: None,
            fsync: FsyncPolicy::Never,
            fault: None,
            partition: PartitionOptions::default(),
            ledger: None,
        }
    }
}

impl SchedConfig {
    /// The effective service rate: the SLA's per-worker rate scaled by the
    /// configured partition count — how fast the virtual clock says
    /// partitioned windows drain.
    pub fn effective_rate(&self) -> f64 {
        self.sla.service_rate * self.partition.partitions.max(1) as f64
    }
}

/// The WAL configuration window `idx` of a continuous run uses. Public so
/// the differential tests (and `uww recover`) can rebuild the *identical*
/// config for a one-shot replay — WAL bytes only compare equal when the
/// manifest context matches.
pub fn window_wal_config(root: &std::path::Path, idx: usize, fsync: FsyncPolicy) -> WalConfig {
    WalConfig::new(root.join(format!("window_{idx:04}")))
        .with_fsync(fsync)
        .with_ctx("mode", "ingest")
        .with_ctx("window", idx.to_string())
}

/// Everything one executed window produced — enough to replay it as an
/// independent one-shot run (the differential property the tests assert).
#[derive(Debug)]
pub struct WindowReport {
    /// Window index (0-based, global across resume).
    pub index: usize,
    /// Tick the batch was cut at.
    pub cut: u64,
    /// Ticks the window accumulated for.
    pub window_ticks: u64,
    /// Tick the install completed at (`cut` + processing ticks).
    pub done: u64,
    /// Events in the batch.
    pub events: u64,
    /// The exact change batch loaded, by base view.
    pub batch: BTreeMap<String, DeltaRelation>,
    /// The strategy the per-window planner picked.
    pub strategy: Strategy,
    /// Planner-predicted linear work.
    pub predicted_work: f64,
    /// Measured linear work.
    pub measured_work: u64,
    /// Mean event staleness in ticks (arrival → install).
    pub staleness: f64,
    /// Effective service rate μ (per-worker rate × partitions).
    pub service_rate: f64,
    /// `(key indexes, extents)` of the maintained join indexes the window
    /// started with ([`Warehouse::index_counts`]).
    pub carry_in: (usize, usize),
    /// What the operand store served during the window.
    pub conformance: CarryConformance,
    /// This window's WAL directory, when journaling.
    pub wal_dir: Option<PathBuf>,
    /// Full per-expression execution report.
    pub report: ExecutionReport,
}

/// State needed to resume after a mid-window crash: the post-window clock
/// is computed *before* execution (it depends only on the plan), so the
/// resumed schedule continues exactly where the uninterrupted one would be.
#[derive(Clone, Debug)]
pub struct CrashState {
    /// The window that crashed.
    pub window: usize,
    /// Its WAL directory, for [`recover`].
    pub wal_dir: PathBuf,
    /// Virtual clock after the crashed window completes (recovery finishes
    /// it from the journal).
    pub clock_after: u64,
    /// Events were drained through this tick before the crash.
    pub drained_through: u64,
    /// The injected error, for reporting.
    pub error: String,
}

/// The result of a continuous run.
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Completed windows, in order.
    pub windows: Vec<WindowReport>,
    /// Set when a fault-injected window crashed; pass to
    /// [`resume_after_crash`].
    pub crashed: Option<CrashState>,
    /// Final virtual clock.
    pub clock: u64,
}

impl IngestOutcome {
    /// Total events processed.
    pub fn events(&self) -> u64 {
        self.windows.iter().map(|w| w.events).sum()
    }

    /// Event-weighted mean staleness across all windows, in ticks.
    pub fn mean_staleness(&self) -> f64 {
        let events = self.events();
        if events == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .windows
            .iter()
            .map(|w| w.staleness * w.events as f64)
            .sum();
        weighted / events as f64
    }

    /// Rows installed per tick of virtual time.
    pub fn throughput(&self) -> f64 {
        if self.clock == 0 {
            return 0.0;
        }
        let installed: u64 = self
            .windows
            .iter()
            .map(|w| w.report.total_work().rows_installed)
            .sum();
        installed as f64 / self.clock as f64
    }
}

/// The continuous scheduler: owns the source and the virtual clock;
/// borrows the warehouse per run.
pub struct IngestScheduler<S> {
    cfg: SchedConfig,
    source: S,
    clock: u64,
    drained_through: u64,
    next_index: usize,
}

impl<S: DeltaSource> IngestScheduler<S> {
    /// A scheduler starting at tick 0, window 0.
    pub fn new(cfg: SchedConfig, source: S) -> IngestScheduler<S> {
        IngestScheduler::with_state(cfg, source, 0, 0, 0)
    }

    /// A scheduler resumed mid-stream (used by [`resume_after_crash`]).
    pub fn with_state(
        cfg: SchedConfig,
        source: S,
        clock: u64,
        drained_through: u64,
        next_index: usize,
    ) -> IngestScheduler<S> {
        IngestScheduler {
            cfg,
            source,
            clock,
            drained_through,
            next_index,
        }
    }

    /// Runs the schedule to completion (or to the first injected crash).
    pub fn run(&mut self, w: &mut Warehouse) -> CoreResult<IngestOutcome> {
        self.run_with_observer(w, &mut |_| {})
    }

    /// [`run`](IngestScheduler::run), invoking `observer` after each
    /// completed window — the hook the serve metrics wiring uses.
    pub fn run_with_observer(
        &mut self,
        w: &mut Warehouse,
        observer: &mut dyn FnMut(&WindowReport),
    ) -> CoreResult<IngestOutcome> {
        let rate = self.cfg.effective_rate();
        if !(rate.is_finite() && rate > 0.0) {
            return Err(CoreError::Warehouse(format!(
                "service rate must be finite and positive, got {}",
                self.cfg.sla.service_rate
            )));
        }
        let mut out = IngestOutcome::default();
        let mut queue: Vec<DeltaEvent> = Vec::new();
        loop {
            if queue.is_empty()
                && self.drained_through >= self.cfg.horizon
                && self.source.exhausted_after(self.drained_through)
            {
                break;
            }
            let window_ticks = self.cfg.policy.next_span(self.cfg.window);
            let cut = self
                .clock
                .checked_add(window_ticks)
                .ok_or_else(|| clock_overflow(self.clock, window_ticks))?;
            queue.extend(self.source.drain(self.drained_through, cut));
            self.drained_through = cut;
            self.clock = cut;
            if queue.is_empty() {
                continue;
            }

            let idx = self.next_index;
            let events = std::mem::take(&mut queue);
            let batch = batch_of(w, &events)?;
            w.load_changes(batch.clone())?;
            if !self.cfg.carry {
                w.drop_indexes();
            }
            let carry_in = w.index_counts();

            // Plan: sizes re-estimated against the freshly loaded batch.
            let sizes = SizeCatalog::estimate(w)?;
            let model = CostModel::new(w.vdag(), &sizes);
            let strategy = match self.cfg.planner {
                WindowPlanner::MinWork => min_work(w.vdag(), &sizes)?.strategy,
                WindowPlanner::Shared => min_work_shared(w, &model)?.strategy,
            };
            let predicted = model.strategy_work(&strategy);
            // The per-expression split is only ever read by the ledger.
            let per_expr = self
                .cfg
                .ledger
                .is_some()
                .then(|| model.per_expression_work(&strategy));
            let processing = (predicted / rate).ceil() as u64;
            let done = cut
                .checked_add(processing)
                .ok_or_else(|| clock_overflow(cut, processing))?;
            let staleness =
                events.iter().map(|e| (done - e.at) as f64).sum::<f64>() / events.len() as f64;

            let wal_dir = self
                .cfg
                .wal_root
                .as_ref()
                .map(|r| r.join(format!("window_{idx:04}")));
            let faulted = matches!(&self.cfg.fault, Some((k, _)) if *k == idx);
            let wal_cfg = self.cfg.wal_root.as_ref().map(|r| {
                let mut c = window_wal_config(r, idx, self.cfg.fsync);
                if let Some((k, plan)) = &self.cfg.fault {
                    if *k == idx {
                        c = c.with_faults(*plan);
                    }
                }
                c
            });
            let opts = ExecOptions {
                wal: wal_cfg,
                strategy_sharing: true,
                partition: self.cfg.partition,
                ..ExecOptions::default()
            };

            let mut span = obs::span_dyn(obs::SpanKind::Run, || format!("window {idx}"));
            if span.is_recording() {
                span.attr_u64(obs::keys::WINDOW, idx as u64);
                span.attr_u64(obs::keys::WINDOW_TICKS, window_ticks);
                span.attr_u64(obs::keys::EVENTS, events.len() as u64);
                span.attr_u64(obs::keys::QUEUE_DEPTH, events.len() as u64);
                span.attr_f64(obs::keys::STALENESS, staleness);
            }

            // Ledger enrichment only: the span tail recorded during this
            // window's execution yields the partition critical path.
            let spans_before = if self.cfg.ledger.is_some() {
                obs::subscriber().map(|b| b.span_count())
            } else {
                None
            };
            match w.execute_carried(&strategy, opts, WindowCarry::empty()) {
                Ok(outcome) => {
                    if span.is_recording() {
                        span.attr_u64(obs::keys::MEASURED_WORK, outcome.report.linear_work());
                    }
                    drop(span);
                    self.clock = done;
                    let report = WindowReport {
                        index: idx,
                        cut,
                        window_ticks,
                        done,
                        events: events.len() as u64,
                        batch,
                        strategy,
                        predicted_work: predicted,
                        measured_work: outcome.report.linear_work(),
                        staleness,
                        service_rate: rate,
                        carry_in,
                        conformance: outcome.conformance,
                        wal_dir,
                        report: outcome.report,
                    };
                    // The ledger record is appended strictly after the
                    // window's WAL commit (execute_carried returned Ok), so
                    // a crash always leaves WAL ⊇ ledger — never a ledger
                    // line for work the journal cannot replay.
                    if let (Some(path), Some(per_expr)) = (&self.cfg.ledger, &per_expr) {
                        let rec = ledger_record(w, &self.cfg, &report, per_expr, spans_before);
                        obs::ledger::append_record(
                            path,
                            &rec,
                            matches!(self.cfg.fsync, FsyncPolicy::Always),
                        )
                        .map_err(|e| CoreError::Wal(format!("ledger append: {e}")))?;
                    }
                    observer(&report);
                    out.windows.push(report);
                    self.next_index += 1;
                }
                Err(err) if faulted => {
                    drop(span);
                    out.crashed = Some(CrashState {
                        window: idx,
                        wal_dir: wal_dir.ok_or_else(|| {
                            CoreError::Wal("fault injection requires a wal_root".into())
                        })?,
                        clock_after: done,
                        drained_through: self.drained_through,
                        error: err.to_string(),
                    });
                    out.clock = self.clock;
                    return Ok(out);
                }
                Err(err) => return Err(err),
            }
        }
        out.clock = self.clock;
        Ok(out)
    }
}

fn clock_overflow(at: u64, span: u64) -> CoreError {
    CoreError::Warehouse(format!(
        "virtual clock overflow: tick {at} plus a span of {span} ticks"
    ))
}

/// Builds one flight-recorder record from a completed window. All inputs
/// are deterministic except `wall_us`/`critical_path_us`, which are
/// explicitly wall-clock enrichment — nothing downstream of the ledger
/// feeds back into scheduling.
fn ledger_record(
    w: &Warehouse,
    cfg: &SchedConfig,
    report: &WindowReport,
    per_expr_pred: &[f64],
    spans_before: Option<u64>,
) -> obs::ledger::LedgerRecord {
    let g = w.vdag();
    let m = report.report.total_work();
    let wall_us = report.report.wall().as_micros() as u64;
    // With tracing live, the spans recorded during this window (the ring
    // tail since the pre-execution snapshot) yield the partition critical
    // path; untraced windows fall back to wall time (exact for P=1).
    let critical_path_us = match (obs::subscriber(), spans_before) {
        (Some(buf), Some(before)) => {
            let recs = buf.records();
            let fresh = buf.span_count().saturating_sub(before) as usize;
            let tail = &recs[recs.len().saturating_sub(fresh)..];
            obs::critical::critical_path_us(wall_us, tail)
        }
        _ => wall_us,
    };
    let per_expr = report
        .report
        .per_expr
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let (kind, view) = match &e.expr {
                UpdateExpr::Comp { view, .. } => ("comp", *view),
                UpdateExpr::Inst(view) => ("inst", *view),
            };
            obs::ledger::LedgerExpr {
                expr: e.expr.display(g).to_string(),
                kind: kind.to_string(),
                view: g.name(view).to_string(),
                predicted: per_expr_pred.get(i).copied().unwrap_or(0.0),
                scanned: e.work.operand_rows_scanned,
                installed: e.work.rows_installed,
                physical: e.work.physical_rows_touched,
                wall_us: e.wall.as_micros() as u64,
            }
        })
        .collect();
    let pool = m.hash_tables_built + m.hash_tables_reused;
    obs::ledger::LedgerRecord {
        version: obs::ledger::LEDGER_VERSION,
        window: report.index as u64,
        cut: report.cut,
        window_ticks: report.window_ticks,
        done: report.done,
        events: report.events,
        staleness: report.staleness,
        policy: cfg.policy.as_str().to_string(),
        service_rate: report.service_rate,
        predicted_work: report.predicted_work,
        measured_work: report.measured_work,
        meter: obs::ledger::LedgerMeter {
            operand_rows_scanned: m.operand_rows_scanned,
            rows_installed: m.rows_installed,
            rows_emitted: m.rows_emitted,
            terms_evaluated: m.terms_evaluated,
            comp_expressions: m.comp_expressions,
            inst_expressions: m.inst_expressions,
            physical_rows_touched: m.physical_rows_touched,
            hash_tables_built: m.hash_tables_built,
            hash_tables_reused: m.hash_tables_reused,
            hash_tables_cross_reused: m.hash_tables_cross_reused,
            operand_reads_cached: m.operand_reads_cached,
        },
        per_expr,
        carry_in_tables: report.carry_in.0 as u64,
        carry_in_raws: report.carry_in.1 as u64,
        cross_reuses: report.conformance.measured_cross_reuses,
        cached_reads: report.conformance.measured_cached_reads,
        carried_table_hits: report.conformance.measured_carried_table_hits,
        carried_raw_hits: report.conformance.measured_carried_raw_hits,
        cache_hit_rate: if pool == 0 {
            0.0
        } else {
            m.hash_tables_reused as f64 / pool as f64
        },
        partitions: cfg.partition.partitions as u64,
        wall_us,
        critical_path_us,
        wal_dir: report.wal_dir.as_ref().map(|p| p.display().to_string()),
    }
}

/// Recovers the crashed window from its WAL (completing it exactly as the
/// uninterrupted run would have) and runs the rest of the schedule. The
/// resumed run starts with no maintained index — a recovered window rebuilds
/// from the journal snapshot, so nothing survives the crash boundary.
pub fn resume_after_crash<S: DeltaSource>(
    cfg: SchedConfig,
    source: S,
    w: &mut Warehouse,
    crash: &CrashState,
) -> CoreResult<(RecoveryOutcome, IngestOutcome)> {
    let rec = recover(w, &crash.wal_dir)?;
    let mut cfg = cfg;
    cfg.fault = None;
    let mut sched = IngestScheduler::with_state(
        cfg,
        source,
        crash.clock_after,
        crash.drained_through,
        crash.window + 1,
    );
    let out = sched.run(w)?;
    Ok((rec, out))
}

/// Folds events into one [`DeltaRelation`] per base view, schemas taken
/// from the warehouse. Insert-then-delete of the same row within one batch
/// cancels — exactly the multiset semantics `load_changes` expects.
pub fn batch_of(
    w: &Warehouse,
    events: &[DeltaEvent],
) -> CoreResult<BTreeMap<String, DeltaRelation>> {
    let mut out: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for e in events {
        let d = match out.entry(e.view.clone()) {
            std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                let table = w.table(&e.view).map_err(|_| {
                    CoreError::Warehouse(format!("ingest event for unknown base view {}", e.view))
                })?;
                if !w.vdag().is_base(w.view_id(&e.view)?) {
                    return Err(CoreError::Warehouse(format!(
                        "ingest event targets derived view {}",
                        e.view
                    )));
                }
                v.insert(DeltaRelation::new(table.schema().clone()))
            }
        };
        if d.schema().columns().len() != e.row.values().len() {
            return Err(CoreError::Warehouse(format!(
                "ingest row arity {} does not match {} ({} columns)",
                e.row.values().len(),
                e.view,
                d.schema().columns().len()
            )));
        }
        d.try_add(e.row.clone(), e.count)?;
    }
    // A batch that fully cancels on some view still loads fine (empty
    // delta); drop nothing so the WAL records the caller's exact intent.
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_core::CoreError;
    use uww_relational::{RelError, Schema, Table, Tuple, Value, ValueType};

    fn warehouse() -> Warehouse {
        let a = Table::new("A", Schema::of(&[("k", ValueType::Int)]));
        Warehouse::builder().base_table(a).build().unwrap()
    }

    fn event(k: i64, count: i64) -> DeltaEvent {
        DeltaEvent {
            at: 1,
            view: "A".into(),
            row: Tuple::new(vec![Value::Int(k)]),
            count,
        }
    }

    #[test]
    fn counts_that_overflow_together_are_a_typed_error() {
        let w = warehouse();
        // Each count fits; their sum would wrap to -2, deleting two copies.
        let events = [event(1, i64::MAX), event(1, i64::MAX)];
        let err = batch_of(&w, &events).unwrap_err();
        assert!(
            matches!(err, CoreError::Rel(RelError::Overflow(_))),
            "{err}"
        );
        let err = batch_of(&w, &[event(2, i64::MIN), event(2, -1)]).unwrap_err();
        assert!(
            matches!(err, CoreError::Rel(RelError::Overflow(_))),
            "{err}"
        );
        // Opposite counts still net out, and the largest count still loads.
        let batch = batch_of(&w, &[event(1, i64::MAX), event(1, i64::MIN)]).unwrap();
        assert_eq!(
            batch["A"].multiplicity(&Tuple::new(vec![Value::Int(1)])),
            -1
        );
        let batch = batch_of(&w, &[event(1, i64::MAX)]).unwrap();
        assert_eq!(batch["A"].len(), i64::MAX as u64);
    }
}
