//! The three workloads and the seven operations every one of them times.
//!
//! A workload is a warehouse and a change batch; an operation is one way a
//! user runs that batch through the system. Everything here goes through
//! `pub` items of the `uww` crates.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use uww::core::{
    min_work, CoreResult, ExecOptions, ExecutionReport, FsyncPolicy, PartitionOptions, SizeCatalog,
    WalConfig, Warehouse,
};
use uww::obs::{self, SpanKind};
use uww::relational::{Catalog, DeltaRelation};
use uww::scenario::TpcdScenario;
use uww::sched::{
    batch_of, IngestScheduler, Policy, SchedConfig, SeededSource, SeededSourceConfig, SlaConfig,
    WindowPlanner,
};
use uww::serve::{Isolation, MetricsSnapshot};
use uww::serving::{run_live, LiveRunConfig};
use uww::tpcd::ChangeSpec;
use uww::vdag::Strategy;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig4Batch,
    Q3Churn,
    IngestStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Batch,
        Workload::Q3Churn,
        Workload::IngestStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Batch => "fig4_batch",
            Workload::Q3Churn => "q3_churn",
            Workload::IngestStream => "ingest_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// TPC-D scale factor: big enough that the operators dominate a window,
    /// except on `ingest_stream`, which is about per-window fixed cost.
    pub fn scale(self) -> f64 {
        match self {
            Workload::IngestStream => 0.001,
            _ => 0.01,
        }
    }

    /// Ticks of the seeded timeline the `Ingest` operation drains: about a
    /// hundred windows against `ingest_stream`'s small tables, a few against
    /// the big ones, where every window rescans them.
    fn ingest_horizon(self) -> u64 {
        match self {
            Workload::IngestStream => 200,
            _ => 20,
        }
    }
}

/// One way of running the workload's batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `ExecOptions::default()` under the MinWork strategy.
    Window,
    /// The dual-stage strategy, the paper's baseline.
    Dual,
    /// MinWork with the strategy-scope cache (`--strategy-sharing`).
    Shared,
    /// MinWork on two hash partitions with work stealing (`--partitions 2`).
    Part,
    /// MinWork journaled to a fresh WAL, fsync on every record.
    Durable,
    /// A seeded event timeline drained through `IngestScheduler::run`.
    Ingest,
    /// MinWork through `run_live` with one closed-loop MVCC reader.
    Live,
}

impl Op {
    pub const ALL: [Op; 7] = [
        Op::Window,
        Op::Dual,
        Op::Shared,
        Op::Part,
        Op::Durable,
        Op::Ingest,
        Op::Live,
    ];

    /// The operations of the end-to-end pass, each with the metric its wall
    /// is reported as. `Live` runs in the traced pass only: three busy
    /// threads on two cores land differently every run, and its window
    /// spreads by up to a fifth, more than a gated metric may.
    pub const END_TO_END: [(Op, &'static str); 6] = [
        (Op::Window, "window_ms"),
        (Op::Dual, "window_dual_ms"),
        (Op::Shared, "window_shared_ms"),
        (Op::Part, "window_part_ms"),
        (Op::Durable, "window_durable_ms"),
        (Op::Ingest, "ingest_window_ms"),
    ];
}

fn source_config(seed: u64, horizon: u64) -> SeededSourceConfig {
    SeededSourceConfig {
        seed,
        rate_milli: 8000,
        delete_milli: 250,
        horizon,
    }
}

/// The CLI's continuous-ingest defaults, with a service rate high enough
/// that a window is cut about every two ticks.
fn sched_config(horizon: u64) -> SchedConfig {
    SchedConfig {
        policy: Policy::Greedy,
        planner: WindowPlanner::MinWork,
        carry: true,
        horizon,
        sla: SlaConfig {
            service_rate: 100_000.0,
            ..SlaConfig::default()
        },
        ..SchedConfig::default()
    }
}

/// One closed-loop reader beside the updater: with the server's worker that
/// is never more than two runnable threads, the core count of the box the
/// baseline was taken on.
fn live_config() -> LiveRunConfig {
    LiveRunConfig {
        isolation: Isolation::Mvcc,
        readers: 1,
        workers: 1,
        hold: Duration::ZERO,
        latency_buckets: None,
    }
}

/// Milliseconds the set-up steps the layer pass reports took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTiming {
    pub batch_ms: f64,
    pub oracle_ms: f64,
}

/// A workload after set-up: the warehouse before and after its change batch
/// was loaded, the strategies its windows execute, and the recompute
/// oracle's answer for that batch.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub pristine: Warehouse,
    pub loaded: Warehouse,
    pub min_work: Strategy,
    pub dual_stage: Strategy,
    pub expected: Catalog,
    pub timing: SetupTiming,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Opens a harness-side span around one call into a layer; inert unless the
/// traced pass installed a subscriber.
fn bench_span(name: &str) -> obs::Span {
    obs::span(SpanKind::Run, name)
}

/// Generate, load the batch, plan, compute the oracle's final state.
pub fn prepare(workload: Workload, seed: u64, scale: f64) -> CoreResult<Prepared> {
    let mut timing = SetupTiming::default();

    let builder = TpcdScenario::builder().scale(scale).seed(seed);
    let mut scenario = match workload {
        Workload::Q3Churn => builder
            .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
            .views([uww::tpcd::q3_def()])
            .build()?,
        _ => builder.views(uww::tpcd::all_query_defs()).build()?,
    };
    let pristine = scenario.warehouse.clone();

    let t = Instant::now();
    match workload {
        Workload::Fig4Batch => scenario.load_paper_changes(0.10)?,
        Workload::Q3Churn => {
            let spec = ChangeSpec {
                delete_frac: 0.05,
                insert_frac: 0.15,
            };
            let batch = scenario.uniform_batch(&["CUSTOMER", "ORDER", "LINEITEM"], spec);
            scenario.load_batch(&batch)?;
        }
        Workload::IngestStream => {
            // The timeline's first twenty ticks as one batch: about 160 rows,
            // enough that every base view gets some whatever the seed.
            let source = SeededSource::new(&pristine, source_config(seed, 20));
            let batch = batch_of(&pristine, source.events())?;
            scenario.warehouse.load_changes(batch)?;
        }
    }
    timing.batch_ms = ms(t.elapsed());
    let loaded = scenario.warehouse;

    let min_work = min_work(loaded.vdag(), &SizeCatalog::estimate(&loaded)?)?.strategy;
    let dual_stage = uww::vdag::dual_stage_strategy(loaded.vdag());

    let t = Instant::now();
    let expected = loaded.expected_final_state()?;
    timing.oracle_ms = ms(t.elapsed());

    Ok(Prepared {
        workload,
        seed,
        pristine,
        loaded,
        min_work,
        dual_stage,
        expected,
        timing,
    })
}

/// The loaded batch, by base view.
pub fn pending_base_deltas(w: &Warehouse) -> CoreResult<BTreeMap<String, DeltaRelation>> {
    let g = w.vdag();
    let mut out = BTreeMap::new();
    for v in g.base_views() {
        let delta = w.pending_rows(g.name(v))?;
        if !delta.is_empty() {
            out.insert(g.name(v).to_string(), delta);
        }
    }
    Ok(out)
}

/// A directory under the benchmark's own, removed when the run ends; the
/// benchmark writes nowhere else.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        // Unit tests run as threads of one process, each with its own.
        static INSTANCES: AtomicU32 = AtomicU32::new(0);
        let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("{}_{instance}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A path no earlier call returned; the WAL writer creates it.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("wal_{:05}", self.next))
    }

    pub fn remove(&self, dir: &Path) {
        // Best effort: a leftover directory is removed with the root.
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // And `.scratch` itself, unless another run still has its own in it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Options of a durable window: journaled to `dir`, fsync on every record.
pub fn durable_options(dir: PathBuf) -> ExecOptions {
    ExecOptions {
        wal: Some(WalConfig::new(dir).with_fsync(FsyncPolicy::Always)),
        ..ExecOptions::default()
    }
}

/// What the scheduler reported over one drained timeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    pub windows: u64,
    pub events: u64,
    pub exec_ms: f64,
    pub carry_hits: u64,
    pub staleness_ticks: f64,
    pub source_gen_ms: f64,
}

/// One timed run of one operation.
#[derive(Default)]
pub struct Round {
    /// Timed wall of the operation: the update window, or for `Ingest` the
    /// whole drained timeline.
    pub wall_s: f64,
    /// Every expression the operation executed.
    pub report: ExecutionReport,
    pub clone_ms: f64,
    /// The WAL a durable window left; the caller removes it.
    pub wal_dir: Option<PathBuf>,
    pub sched: Option<SchedStats>,
    pub live: Option<MetricsSnapshot>,
    pub attempted: u64,
    pub failed: u64,
}

impl Round {
    fn failed_op(why: &str) -> Round {
        eprintln!("e2e: operation failed: {why}");
        Round {
            attempted: 1,
            failed: 1,
            ..Round::default()
        }
    }
}

/// One update window on a fresh clone of `p.loaded`, checked against the
/// oracle outside the timed region.
fn batch_window(p: &Prepared, strategy: &Strategy, opts: ExecOptions) -> Round {
    let wal_dir = opts.wal.as_ref().map(|c| c.dir.clone());
    let t = Instant::now();
    let mut w = {
        let _s = bench_span("bench:clone");
        p.loaded.clone()
    };
    let clone_ms = ms(t.elapsed());
    let t = Instant::now();
    let result = {
        let _s = bench_span("bench:execute");
        w.execute_with(strategy, opts)
    };
    let wall = t.elapsed();
    let report = match result {
        Ok(report) => report,
        Err(e) => return Round::failed_op(&e.to_string()),
    };
    let wrong = {
        let _s = bench_span("bench:verify");
        w.diff_state(&p.expected)
    };
    if !wrong.is_empty() {
        eprintln!("e2e: window left wrong state in {wrong:?}");
    }
    Round {
        wall_s: wall.as_secs_f64(),
        report,
        clone_ms,
        wal_dir,
        attempted: 1,
        failed: u64::from(!wrong.is_empty()),
        ..Round::default()
    }
}

/// Drains a seeded timeline through `IngestScheduler::run` on a clone of
/// `p.pristine`. The timed wall includes the scheduler's planning and
/// bookkeeping around every `execute`.
fn ingest_run(p: &Prepared) -> Round {
    let horizon = p.workload.ingest_horizon();
    let mut w = p.pristine.clone();
    let t = Instant::now();
    let source = SeededSource::new(&w, source_config(p.seed, horizon));
    let source_gen_ms = ms(t.elapsed());
    let timeline = source.len() as u64;
    let mut scheduler = IngestScheduler::new(sched_config(horizon), source);

    let t = Instant::now();
    let result = {
        let _s = bench_span("bench:execute");
        scheduler.run(&mut w)
    };
    let wall = t.elapsed();
    let out = match result {
        Ok(out) => out,
        Err(e) => return Round::failed_op(&e.to_string()),
    };

    // Nothing is pending after the last window, so the oracle recomputes
    // every derived view from the final base tables.
    let state_wrong = {
        let _s = bench_span("bench:verify");
        match w.expected_final_state() {
            Ok(expected) => !w.diff_state(&expected).is_empty(),
            Err(_) => true,
        }
    };
    let unprocessed = timeline.saturating_sub(out.events());
    if state_wrong || unprocessed > 0 || out.crashed.is_some() {
        eprintln!("e2e: ingest run: wrong state {state_wrong}, {unprocessed} events unprocessed");
    }
    let mut report = ExecutionReport::default();
    let mut sched = SchedStats {
        windows: out.windows.len() as u64,
        events: out.events(),
        staleness_ticks: out.mean_staleness(),
        source_gen_ms,
        ..SchedStats::default()
    };
    for window in out.windows {
        sched.exec_ms += ms(window.report.wall());
        sched.carry_hits += window.conformance.measured_carried_table_hits
            + window.conformance.measured_carried_raw_hits;
        report.per_expr.extend(window.report.per_expr);
    }
    Round {
        wall_s: wall.as_secs_f64(),
        report,
        sched: Some(sched),
        // Every event of the timeline, and the final state.
        attempted: timeline + 1,
        failed: unprocessed + u64::from(state_wrong || out.crashed.is_some()),
        ..Round::default()
    }
}

/// One update window through `run_live`, which checks the final and the
/// published state against the oracle and fails on any reader error.
fn live_window(p: &Prepared) -> Round {
    let result = {
        let _s = bench_span("bench:execute");
        run_live(&p.loaded, &p.min_work, &live_config())
    };
    match result {
        Ok(out) => Round {
            wall_s: out.window.as_secs_f64(),
            report: out.report,
            attempted: 1 + out.metrics.queries,
            failed: out.metrics.errors,
            live: Some(out.metrics),
            ..Round::default()
        },
        Err(e) => Round::failed_op(&e.to_string()),
    }
}

/// Runs `op` once on the prepared workload.
pub fn run_op(p: &Prepared, op: Op, scratch: &mut Scratch) -> Round {
    match op {
        Op::Window => batch_window(p, &p.min_work, ExecOptions::default()),
        Op::Dual => batch_window(p, &p.dual_stage, ExecOptions::default()),
        Op::Shared => batch_window(
            p,
            &p.min_work,
            ExecOptions {
                strategy_sharing: true,
                ..ExecOptions::default()
            },
        ),
        Op::Part => batch_window(
            p,
            &p.min_work,
            ExecOptions {
                partition: PartitionOptions::with_partitions(2),
                ..ExecOptions::default()
            },
        ),
        Op::Durable => batch_window(p, &p.min_work, durable_options(scratch.fresh_dir())),
        Op::Live => live_window(p),
        Op::Ingest => ingest_run(p),
    }
}
