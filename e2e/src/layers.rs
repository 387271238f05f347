//! The traced pass: where a workload's wall goes, layer by layer.
//!
//! Three sources, all outside the library crates: the span tree of traced
//! rounds (alternating with untraced ones, which also gives the tracing
//! overhead), the engine's own per-expression reports and work counters, and
//! public calls of single layers timed on the workload's own tables.

use crate::measure::{rotation, run_plain, Samples};
use crate::spans::{attribute, Attribution, LABELS};
use crate::stats::median;
use crate::workload::{
    durable_options, ms, pending_base_deltas, prepare, run_op, Op, Prepared, Scratch, Workload,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uww::core::{
    min_work, min_work_shared, plan_strategy_sharing, prune, recover, CoreResult, CostModel,
    FaultPlan, SharingScope, SizeCatalog, WalLog,
};
use uww::obs::{self, SpanRecord, TraceBuffer};
use uww::relational::ops::{self, AggSpec, Partitioner};
use uww::relational::{deltas_to_string, AggFunc, ScalarExpr, VersionedCatalog, WorkMeter};
use uww::serve::{Client, Isolation, Server, ServerConfig};
use uww::tpcd::{TpcdConfig, TpcdGenerator};
use uww::vdag::{check_vdag_strategy, UpdateExpr};

/// Share of `--seconds` spent on alternating untraced and traced rounds; the
/// rest is left for the single-layer timings, whose length is fixed.
const ROUNDS_SHARE: f64 = 0.4;
/// One untraced and one traced round of every operation, twice.
const MIN_ROUNDS: usize = 4;
/// TPC-D scale `min_work_shared` is timed at: its cost is per candidate
/// ordering, and at a workload's own scale one call outlasts the run.
const SHARED_PLAN_SCALE: f64 = 0.0002;
/// Enough for every span of an operation; `obs.dropped` counts those lost.
const TRACE_CAPACITY: usize = 1 << 20;
/// Round trips timed on the idle server.
const IDLE_READS: usize = 2000;

/// The per-layer metrics of one run, and the operations behind them.
#[derive(Default)]
pub struct LayerRun {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl LayerRun {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn fail(&mut self, why: &str) {
        eprintln!("e2e: {why}");
        self.attempted += 1;
        self.failed += 1;
    }
}

/// What the subscriber recorded during one traced operation.
struct Trace {
    op: Op,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

/// Median seconds of `reps` calls of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

pub fn measure_layers(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    chrome: Option<&Path>,
) -> Result<LayerRun, String> {
    let mut scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let p = prepare(workload, seed, scale).map_err(|e| format!("set-up failed: {e}"))?;
    let mut t = LayerRun::default();

    let (plain, traced, traces) =
        alternating_rounds(&mut t, &p, &mut scratch, seconds * ROUNDS_SHARE)
            .map_err(|e| format!("cannot read a WAL the run wrote: {e}"))?;
    for round in plain.all().chain(traced.all()) {
        t.attempted += round.attempted;
        t.failed += round.failed;
    }
    if let Some(path) = chrome {
        let window = traces.iter().rev().find(|t| t.op == Op::Window);
        let spans = window.map_or(&[][..], |t| &t.spans);
        std::fs::write(path, obs::chrome::chrome_trace(spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let err = |e: uww::core::CoreError| format!("layer timing failed: {e}");
    engine_layer(&mut t, &plain);
    obs_layer(&mut t, &plain, &traced, &traces);
    sched_layer(&mut t, &plain);
    serve_layer(&mut t, &p, &plain)?;
    tpcd_layer(&mut t, &p, scale);
    ops_layer(&mut t, &p).map_err(err)?;
    table_layer(&mut t, &p, &plain).map_err(err)?;
    planner_layer(&mut t, &p).map_err(err)?;
    recovery_layer(&mut t, &p, &mut scratch).map_err(err)?;
    Ok(t)
}

/// One untimed warm-up round, then rounds of every operation in rotated
/// order, even rounds untraced and odd rounds traced, until `budget_s` has
/// passed. Sets the `wal.*` size metrics from the last durable window.
fn alternating_rounds(
    t: &mut LayerRun,
    p: &Prepared,
    scratch: &mut Scratch,
    budget_s: f64,
) -> CoreResult<(Samples, Samples, Vec<Trace>)> {
    for op in Op::ALL {
        run_plain(p, op, scratch);
    }
    let budget = Duration::from_secs_f64(budget_s);
    let start = Instant::now();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut traces = Vec::new();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        for i in rotation(Op::ALL.len(), round / 2) {
            let op = Op::ALL[i];
            if round % 2 == 0 {
                let mut sample = run_op(p, op, scratch);
                if let Some(dir) = sample.wal_dir.take() {
                    wal_size(t, p, &dir)?;
                    scratch.remove(&dir);
                }
                plain.push(op, sample);
            } else {
                let buffer = Arc::new(TraceBuffer::new(TRACE_CAPACITY));
                obs::install(Arc::clone(&buffer));
                let sample = run_plain(p, op, scratch);
                obs::uninstall();
                traced.push(op, sample);
                traces.push(Trace {
                    op,
                    dropped: buffer.dropped(),
                    spans: buffer.take_records(),
                });
            }
        }
        round += 1;
    }
    Ok((plain, traced, traces))
}

/// What a durable window wrote, against the batch it journaled.
fn wal_size(t: &mut LayerRun, p: &Prepared, dir: &Path) -> CoreResult<()> {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let batch_bytes = deltas_to_string(&pending_base_deltas(&p.loaded)?).len();
    t.set("wal.bytes_per_window", bytes as f64);
    t.set(
        "wal.write_amplification",
        bytes as f64 / batch_bytes.max(1) as f64,
    );
    t.set("wal.records", WalLog::open(dir)?.records.len() as f64);
    Ok(())
}

/// The engine's own account of its windows: per-expression walls by kind and
/// the work meter, per operation. The counts come from seeded inputs and
/// must repeat exactly from round to round; an operation whose rounds
/// disagree is a failure.
fn engine_layer(t: &mut LayerRun, plain: &Samples) {
    let wall_of = |comp: bool| {
        plain.values(Op::Window, |r| {
            r.report
                .per_expr
                .iter()
                .filter(|e| matches!(e.expr, UpdateExpr::Comp { .. }) == comp)
                .map(|e| ms(e.wall))
                .sum()
        })
    };
    t.set("engine.comp_ms", median(&wall_of(true)));
    t.set("engine.inst_ms", median(&wall_of(false)));
    let outside = plain.values(Op::Window, |r| r.wall_s * 1e3 - ms(r.report.wall()));
    t.set("engine.unattributed_ms", median(&outside));

    let mut work = Vec::new();
    for op in Op::ALL {
        let rounds = plain.of(op);
        let first = rounds[0].report.total_work();
        if rounds.iter().any(|r| r.report.total_work() != first) {
            t.fail(&format!("work counters of {op:?} differ between rounds"));
        }
        work.push(first);
    }
    let of = |op: Op| work[op as usize];
    let window = of(Op::Window);
    t.set("engine.linear_work", window.linear_work() as f64);
    t.set("engine.terms", window.terms_evaluated as f64);
    t.set("ops.physical_rows", window.physical_rows_touched as f64);
    t.set("ops.hash_tables_built", window.hash_tables_built as f64);
    t.set("ops.hash_tables_reused", window.hash_tables_reused as f64);
    t.set("ops.rows_emitted", window.rows_emitted as f64);
    t.set("engine.dual_linear_work", of(Op::Dual).linear_work() as f64);
    let shared = of(Op::Shared);
    let tables = shared.hash_tables_built + shared.hash_tables_reused;
    t.set(
        "engine.cache_hit_ratio",
        shared.hash_tables_reused as f64 / tables.max(1) as f64,
    );
    t.set(
        "engine.cross_reuses",
        shared.hash_tables_cross_reused as f64,
    );
    t.set("engine.cached_reads", shared.operand_reads_cached as f64);
    t.set(
        "engine.shared_physical_rows",
        shared.physical_rows_touched as f64,
    );
    t.set(
        "wal.overhead_ms",
        median(&plain.wall_ms(Op::Durable)) - median(&plain.wall_ms(Op::Window)),
    );
}

/// The operation whose traces a span label's share is read from: the default
/// window, unless only another operation records spans of that kind.
fn home_op(label: &str) -> Op {
    match label {
        "scan" | "split" | "group" => Op::Part,
        "wal_record" => Op::Durable,
        "serve_request" => Op::Live,
        _ => Op::Window,
    }
}

/// Self time per span label as a share of its operation's wall (median over
/// traced rounds), how much of each operation's wall the spans explain, and
/// what recording them cost. Lanes of a partition fan-out overlap, so shares
/// of `Part` can sum past one. `Live` has no coverage figure: `run_live`
/// starts a server, sleeps and verifies around the window it times.
fn obs_layer(t: &mut LayerRun, plain: &Samples, traced: &Samples, traces: &[Trace]) {
    let attributions: Vec<(Op, Attribution)> =
        traces.iter().map(|t| (t.op, attribute(&t.spans))).collect();
    let med = |op: Op, f: &dyn Fn(&Attribution) -> f64| {
        let of_op = attributions.iter().filter(|(o, _)| *o == op);
        median(&of_op.map(|(_, a)| f(a)).collect::<Vec<_>>())
    };
    for label in LABELS {
        let share = |a: &Attribution| a.self_ms.get(label).copied().unwrap_or(0.0) / a.op_wall_ms;
        t.set(&format!("span.{label}_share"), med(home_op(label), &share));
    }
    for (op, name) in [
        (Op::Window, "obs.coverage"),
        (Op::Dual, "obs.coverage_dual"),
        (Op::Shared, "obs.coverage_shared"),
        (Op::Part, "obs.coverage_part"),
        (Op::Durable, "obs.coverage_durable"),
        (Op::Ingest, "obs.coverage_ingest"),
    ] {
        t.set(name, med(op, &|a| a.attributed_ms / a.op_wall_ms));
    }
    t.set(
        "obs.unattributed_ms",
        med(Op::Window, &|a| a.op_wall_ms - a.attributed_ms),
    );
    t.set("obs.spans", med(Op::Window, &|a| a.spans as f64));
    t.set(
        "obs.dropped",
        traces.iter().map(|t| t.dropped).sum::<u64>() as f64,
    );
    let fanouts = traces
        .iter()
        .find(|t| t.op == Op::Part)
        .map_or(0, |t| obs::critical::fan_out_count(&t.spans));
    t.set("engine.part_fanouts", fanouts as f64);
    t.set(
        "obs.trace_overhead_pct",
        (median(&traced.wall_ms(Op::Window)) / median(&plain.wall_ms(Op::Window)) - 1.0) * 100.0,
    );
}

/// The scheduler's share of a continuous-ingest window.
fn sched_layer(t: &mut LayerRun, plain: &Samples) {
    let stat = |f: &dyn Fn(&crate::workload::SchedStats, f64) -> f64| {
        median(&plain.values(Op::Ingest, |r| {
            r.sched.as_ref().map_or(0.0, |s| f(s, r.wall_s * 1e3))
        }))
    };
    t.set("sched.windows", stat(&|s, _| s.windows as f64));
    t.set("sched.events", stat(&|s, _| s.events as f64));
    t.set("sched.carry_hits", stat(&|s, _| s.carry_hits as f64));
    t.set(
        "sched.events_per_s",
        stat(&|s, wall_ms| s.events as f64 * 1e3 / wall_ms),
    );
    t.set("sched.staleness_ticks", stat(&|s, _| s.staleness_ticks));
    t.set("sched.source_gen_ms", stat(&|s, _| s.source_gen_ms));
    t.set(
        "sched.exec_ms_per_window",
        stat(&|s, _| s.exec_ms / s.windows.max(1) as f64),
    );
    t.set(
        "sched.overhead_ms_per_window",
        stat(&|s, wall_ms| (wall_ms - s.exec_ms) / s.windows.max(1) as f64),
    );
}

/// The serving path: client round trips on an idle server over this
/// workload's tables, and what running beside a reader costs the window.
fn serve_layer(t: &mut LayerRun, p: &Prepared, plain: &Samples) -> Result<(), String> {
    let catalog = Arc::new(VersionedCatalog::from_catalog(p.loaded.state()));
    let config = ServerConfig {
        isolation: Isolation::Mvcc,
        workers: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::start(catalog, config).map_err(|e| format!("cannot start query server: {e}"))?;
    let g = p.loaded.vdag();
    let targets: Vec<&str> = g.derived_views().into_iter().map(|v| g.name(v)).collect();
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("cannot connect: {e}"))?;
    let mut rtt_us = Vec::with_capacity(IDLE_READS);
    let mut errors = 0;
    for i in 0..IDLE_READS {
        let view = targets[i % targets.len()];
        let start = Instant::now();
        let reply = client.query(view);
        rtt_us.push(start.elapsed().as_secs_f64() * 1e6);
        if !matches!(reply, Ok(r) if r.view == view) {
            errors += 1;
        }
    }
    // The server counts its own errors; a failed QUIT only loses the goodbye.
    let _ = client.quit();
    errors += server.shutdown().errors;
    t.attempted += IDLE_READS as u64;
    t.failed += errors;
    t.set("serve.idle_rtt_us", median(&rtt_us));

    // The server keeps whole microseconds and one p99 per window, so windows
    // are averaged, not pooled. Its median is a handful of microseconds and
    // reads the same every time: the reader's typical wait is its rate.
    let live: Vec<_> = plain
        .of(Op::Live)
        .iter()
        .filter_map(|r| r.live.as_ref())
        .collect();
    if live.is_empty() {
        return Err("no live window completed".into());
    }
    let windows = live.len() as f64;
    let queries = live.iter().map(|m| m.queries).sum::<u64>() as f64;
    let uptime_s: f64 = live.iter().map(|m| m.uptime_us as f64 / 1e6).sum();
    let live_ms = median(&plain.wall_ms(Op::Live));
    t.set("serve.window_live_ms", live_ms);
    t.set(
        "serve.read_p99_us",
        live.iter().map(|m| m.p99_us as f64).sum::<f64>() / windows,
    );
    t.set("serve.reads_per_s", queries / uptime_s);
    t.set("serve.queries_per_window", queries / windows);
    t.set(
        "serve.window_slowdown",
        live_ms / median(&plain.wall_ms(Op::Window)),
    );
    Ok(())
}

fn tpcd_layer(t: &mut LayerRun, p: &Prepared, scale: f64) {
    let generator = TpcdGenerator::new(TpcdConfig {
        scale,
        seed: p.seed,
    });
    t.set("tpcd.generate_ms", timed(1, || generator.generate()) * 1e3);
    t.set("tpcd.batch_ms", p.timing.batch_ms);
    t.set("oracle.recompute_ms", p.timing.oracle_ms);
}

/// Single operators over the workload's own LINEITEM and ORDER tables.
fn ops_layer(t: &mut LayerRun, p: &Prepared) -> CoreResult<()> {
    const REPS: usize = 3;
    let lineitem = p.loaded.table("LINEITEM")?;
    let order = p.loaded.table("ORDER")?;
    let l_key = [lineitem.schema().index_of("l_orderkey")?];
    let o_key = [order.schema().index_of("o_orderkey")?];
    let mut meter = WorkMeter::new();
    let per_row = |secs: f64, rows: usize| secs * 1e9 / rows.max(1) as f64;

    let l_rows = ops::scan_table(lineitem, &mut meter);
    let o_rows = ops::scan_table(order, &mut meter);
    let scan = timed(REPS, || ops::scan_table(lineitem, &mut WorkMeter::new()));
    t.set("ops.scan_ns_per_row", per_row(scan, l_rows.len()));

    let built = ops::build_table(&o_rows, &o_key, &mut meter);
    let build = timed(REPS, || {
        ops::build_table(&o_rows, &o_key, &mut WorkMeter::new())
    });
    t.set("ops.build_ns_per_row", per_row(build, o_rows.len()));

    let probe = timed(REPS, || {
        ops::probe_table(
            &o_rows,
            &built,
            &l_rows,
            &l_key,
            true,
            &mut WorkMeter::new(),
        )
    });
    t.set("ops.probe_ns_per_row", per_row(probe, l_rows.len()));

    // Q3's shape: revenue summed per order.
    let price = ScalarExpr::col("l_extendedprice");
    let spec = AggSpec {
        group_by: vec![ScalarExpr::col("l_orderkey").bind(lineitem.schema())?],
        aggs: vec![(
            AggFunc::Sum,
            price.bind(lineitem.schema())?,
            price.output_type(lineitem.schema())?,
        )],
    };
    let group = timed(REPS, || ops::group_rows(&l_rows, &spec));
    t.set("ops.group_ns_per_row", per_row(group, l_rows.len()));

    let split = timed(REPS, || Partitioner::new(2).split(&l_rows, &l_key));
    t.set("ops.split_ns_per_row", per_row(split, l_rows.len()));
    Ok(())
}

/// Installing the batch's largest base delta, cloning the warehouse, and the
/// MVCC publish and pin the serving path adds to an install.
fn table_layer(t: &mut LayerRun, p: &Prepared, plain: &Samples) -> CoreResult<()> {
    const REPS: usize = 5;
    let deltas = pending_base_deltas(&p.loaded)?;
    let (view, delta) = deltas
        .iter()
        .max_by_key(|(_, d)| d.len())
        .expect("every workload loads a batch");
    let table = p.loaded.table(view)?;
    // Copies are made ahead, so only the install and the publish are timed.
    let mut copies = vec![table.clone(); 2 * REPS];
    let install = timed(REPS, || {
        let mut copy = copies.pop().expect("a copy per repetition");
        copy.install(delta).map(|_| copy)
    });
    t.set(
        "table.install_ns_per_row",
        install * 1e9 / delta.len().max(1) as f64,
    );
    t.set(
        "table.clone_us",
        median(&plain.values(Op::Window, |r| r.clone_ms * 1e3)),
    );

    let catalog = VersionedCatalog::from_catalog(p.loaded.state());
    let publish = timed(REPS, || {
        catalog.publish(copies.pop().expect("a copy per repetition"))
    });
    t.set("versioned.publish_us", publish * 1e6);
    let pinned = timed(1, || {
        for _ in 0..1000 {
            black_box(catalog.read_pinned(view).is_ok());
        }
    });
    t.set("versioned.read_pinned_ns", pinned * 1e9 / 1000.0);
    Ok(())
}

/// What a window pays before it executes: size estimates, the planner, the
/// strategy check, and the sharing prediction `min_work_shared` replays once
/// per candidate ordering.
fn planner_layer(t: &mut LayerRun, p: &Prepared) -> CoreResult<()> {
    const REPS: usize = 5;
    let w = &p.loaded;
    let g = w.vdag();
    let sizes = SizeCatalog::estimate(w)?;
    let model = CostModel::new(g, &sizes);
    t.set(
        "planner.estimate_us",
        timed(REPS, || SizeCatalog::estimate(w)) * 1e6,
    );
    t.set(
        "planner.min_work_us",
        timed(REPS, || min_work(g, &sizes)) * 1e6,
    );
    t.set("planner.prune_ms", timed(1, || prune(g, &model)) * 1e3);
    t.set(
        "vdag.check_strategy_us",
        timed(REPS, || check_vdag_strategy(g, &p.min_work)) * 1e6,
    );
    t.set(
        "engine.predict_sharing_ms",
        timed(1, || {
            plan_strategy_sharing(w, &p.min_work, SharingScope::Strategy)
        }) * 1e3,
    );

    // `min_work_shared` on this workload's warehouse rebuilt small.
    let small = prepare(p.workload, p.seed, SHARED_PLAN_SCALE)?.loaded;
    let sizes = SizeCatalog::estimate(&small)?;
    let model = CostModel::new(small.vdag(), &sizes);
    let start = Instant::now();
    let outcome = min_work_shared(&small, &model)?;
    t.set("planner.shared_plan_ms", ms(start.elapsed()));
    t.set("planner.shared_candidates", outcome.candidates as f64);
    Ok(())
}

/// A durable window crashed before its middle record, then recovered from
/// the journal into the oracle's state.
fn recovery_layer(t: &mut LayerRun, p: &Prepared, scratch: &mut Scratch) -> CoreResult<()> {
    let records = t.metrics.get("wal.records").copied().unwrap_or(0.0);
    let dir = scratch.fresh_dir();
    let mut opts = durable_options(dir.clone());
    if let Some(wal) = &mut opts.wal {
        wal.faults = FaultPlan::crash_before(records as u64 / 2);
    }
    let mut crashed = p.loaded.clone();
    if crashed.execute_with(&p.min_work, opts).is_ok() {
        t.fail("the injected crash did not fire");
    }
    let mut recovered = p.loaded.clone();
    let start = Instant::now();
    recover(&mut recovered, &dir)?;
    t.set("wal.recover_ms", ms(start.elapsed()));
    t.attempted += 1;
    if !recovered.diff_state(&p.expected).is_empty() {
        t.fail("recovery left wrong state");
    }
    scratch.remove(&dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    #[test]
    fn the_traced_pass_measures_every_catalogued_metric() {
        let run = measure_layers(Workload::Q3Churn, 7, 0.0, 0.0005, None).unwrap();
        assert_eq!(run.failed, 0);
        for def in &PER_LAYER {
            let value = run.metrics.get(def.name);
            assert!(
                value.is_some_and(|v| v.is_finite()),
                "{}: {value:?}",
                def.name
            );
        }
        assert_eq!(run.metrics.len(), PER_LAYER.len());
        assert!(run.metrics["wal.records"] > 0.0);
        assert!(run.metrics["obs.coverage"] > 0.0);
    }
}
