//! Tracing-overhead report: run the same dual-stage strategy with tracing
//! disabled and enabled (default sampling), interleaved, and compare
//! min-of-K wall times. The span engine's budget is < 5% overhead when
//! enabled; when *disabled* it is a single relaxed atomic load per
//! instrumentation point, which this report demonstrates by construction
//! (the disabled runs ARE the baseline).
//!
//! The same protocol gates the window-health flight recorder: an
//! interleaved continuous-ingest schedule with the ledger off vs on must
//! also stay under the 5% budget — journaling one JSON line per window
//! may not meaningfully widen the window it records.
//!
//! Interleaving the two modes and taking the minimum per mode cancels page
//! cache, allocator and frequency-scaling drift — the standard min-of-K
//! protocol for sub-millisecond comparisons.
//!
//! Output: a summary on stdout whose last line is one JSON object with
//! every number (the convention `e2e` uses); no file is written. Row count
//! per base view defaults to 2000 (`UWW_TRACE_ROWS` overrides; CI uses a
//! smaller value), iteration count defaults to 7 (`UWW_TRACE_ITERS`); a
//! set but unusable value of either is an error.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use uww::core::{ExecOptions, Warehouse};
use uww::obs::TraceBuffer;
use uww::relational::{
    DeltaRelation, EquiJoin, OutputColumn, Predicate, Schema, Table, Tuple, Value, ValueType,
    ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{Strategy, UpdateExpr};

/// `name` as a positive count, `default` when unset. A set but unusable
/// value ends the process: a mistyped override must not run at the default.
fn env_usize(name: &str, default: usize) -> usize {
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    match raw.to_str().and_then(|s| s.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("bad {name} {raw:?}: expected a positive integer");
            std::process::exit(2);
        }
    }
}

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

/// Three bases joined into one view: the dual-stage `Comp` expands to seven
/// terms, so the run produces a realistic mix of expression, term, and
/// operator spans.
fn workload(rows: usize) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let schema = Schema::of(COLS);
    let mut builder = Warehouse::builder();
    let mut sources = Vec::new();
    let mut joins = Vec::new();
    for i in 1..=3usize {
        let name = format!("A{i}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..rows {
            t.insert(Tuple::new(vec![
                Value::Int(k as i64),
                Value::Int(((k * 7 + i) % 100) as i64),
                Value::Int((k % 3) as i64),
            ]))
            .unwrap();
        }
        builder = builder.base_table(t);
        sources.push(ViewSource {
            view: name,
            alias: format!("S{i}"),
        });
        if i > 1 {
            joins.push(EquiJoin::new("S1.k", format!("S{i}.k")));
        }
    }
    builder = builder.view(ViewDef {
        name: "V".into(),
        sources,
        joins,
        filters: vec![Predicate::col_gt("S1.v", Value::Int(10))],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", "S1.k"),
            OutputColumn::col("v", "S3.v"),
            OutputColumn::col("g", "S1.g"),
        ]),
    });
    let w = builder.build().expect("workload warehouse");

    let mut changes = BTreeMap::new();
    for i in 1..=3usize {
        let mut delta = DeltaRelation::new(schema.clone());
        for k in 0..rows / 4 {
            delta.add(
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::Int(((k * 13 + i) % 100) as i64),
                    Value::Int(1),
                ]),
                1,
            );
        }
        changes.insert(format!("A{i}"), delta);
    }
    (w, changes)
}

fn dual_stage(w: &Warehouse) -> Strategy {
    let g = w.vdag();
    let mut exprs = Vec::new();
    for v in g.view_ids() {
        if !g.is_base(v) {
            exprs.push(UpdateExpr::comp(v, g.sources(v).iter().copied()));
        }
    }
    for v in g.view_ids() {
        exprs.push(UpdateExpr::inst(v));
    }
    Strategy::from_exprs(exprs)
}

fn one_run(w: &Warehouse, changes: &BTreeMap<String, DeltaRelation>, strategy: &Strategy) -> u128 {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).expect("load changes");
    let start = Instant::now();
    clone
        .execute_with(strategy, ExecOptions::default())
        .expect("execute");
    start.elapsed().as_micros()
}

/// One continuous-ingest schedule on the tiny Q3 scenario, optionally
/// journaling the window-health ledger; returns wall micros.
fn one_ingest(ledger: Option<&std::path::Path>) -> u128 {
    use uww::sched::{
        IngestScheduler, Policy, SchedConfig, SeededSource, SeededSourceConfig, SlaConfig,
        WindowPlanner,
    };
    let mut w = uww::scenario::q3_scenario(0.0005)
        .expect("q3 scenario")
        .warehouse;
    let source = SeededSource::new(
        &w,
        SeededSourceConfig {
            seed: 0x5757_1999,
            rate_milli: 1500,
            horizon: 24,
            ..SeededSourceConfig::default()
        },
    );
    let cfg = SchedConfig {
        policy: Policy::Greedy,
        sla: SlaConfig {
            target_staleness: 24.0,
            service_rate: 400.0,
        },
        window: 12,
        horizon: 24,
        carry: true,
        planner: WindowPlanner::Shared,
        ledger: ledger.map(|p| p.to_path_buf()),
        ..SchedConfig::default()
    };
    let start = Instant::now();
    IngestScheduler::new(cfg, source)
        .run(&mut w)
        .expect("ingest schedule");
    start.elapsed().as_micros()
}

pub fn run() {
    let rows = env_usize("UWW_TRACE_ROWS", 2000);
    let iters = env_usize("UWW_TRACE_ITERS", 7);
    let (w, changes) = workload(rows);
    let strategy = dual_stage(&w);

    // Warm-up, untimed: fault in the page cache and the allocator.
    one_run(&w, &changes, &strategy);

    let mut disabled_min = u128::MAX;
    let mut enabled_min = u128::MAX;
    let mut spans_recorded: u64 = 0;
    let mut dropped: u64 = 0;
    for _ in 0..iters {
        disabled_min = disabled_min.min(one_run(&w, &changes, &strategy));

        let buf = Arc::new(TraceBuffer::new(uww::obs::DEFAULT_CAPACITY));
        uww::obs::install(Arc::clone(&buf));
        let us = one_run(&w, &changes, &strategy);
        uww::obs::uninstall();
        enabled_min = enabled_min.min(us);
        spans_recorded = buf.span_count();
        dropped = buf.dropped();
    }
    assert!(spans_recorded > 0, "enabled runs must record spans");

    let overhead_pct = (enabled_min as f64 - disabled_min as f64) / disabled_min as f64 * 100.0;
    println!(
        "trace overhead: rows={rows} iters={iters} disabled_min={disabled_min}µs \
         enabled_min={enabled_min}µs overhead={overhead_pct:.2}% \
         spans={spans_recorded} dropped={dropped}"
    );

    // The flight recorder rides the same budget: interleaved min-of-K over
    // a continuous-ingest schedule, ledger off vs on.
    let ledger_path =
        std::env::temp_dir().join(format!("uww-overhead-ledger-{}.jsonl", std::process::id()));
    one_ingest(None); // warm-up, untimed
    let mut ingest_min = u128::MAX;
    let mut ledger_min = u128::MAX;
    for _ in 0..iters {
        ingest_min = ingest_min.min(one_ingest(None));
        let _ = std::fs::remove_file(&ledger_path);
        ledger_min = ledger_min.min(one_ingest(Some(&ledger_path)));
    }
    let ledger_text = std::fs::read_to_string(&ledger_path).expect("read ledger");
    let ledger_windows = uww::obs::ledger::validate_ledger(&ledger_text)
        .expect("overhead-run ledger must validate")
        .records;
    let _ = std::fs::remove_file(&ledger_path);
    let ledger_pct = (ledger_min as f64 - ingest_min as f64) / ingest_min as f64 * 100.0;
    println!(
        "ledger overhead: ingest_min={ingest_min}µs ledger_min={ledger_min}µs \
         overhead={ledger_pct:.2}% windows={ledger_windows}"
    );

    println!(
        "{{\"rows_per_base\":{rows},\"iterations\":{iters},\
         \"disabled_us_min\":{disabled_min},\"enabled_us_min\":{enabled_min},\
         \"overhead_pct\":{overhead_pct:.4},\"spans_recorded\":{spans_recorded},\
         \"dropped\":{dropped},\"ingest_us_min\":{ingest_min},\
         \"ledger_us_min\":{ledger_min},\"ledger_overhead_pct\":{ledger_pct:.4},\
         \"ledger_windows\":{ledger_windows}}}"
    );

    // The budget: < 5% at default sampling. Below ~2ms of window the 5%
    // bound dips under scheduler/timer noise, so tiny CI workloads get an
    // absolute 100µs allowance instead.
    let delta_us = enabled_min.saturating_sub(disabled_min);
    assert!(
        overhead_pct < 5.0 || (disabled_min < 2_000 && delta_us < 100),
        "tracing overhead {overhead_pct:.2}% exceeds the 5% budget \
         (disabled {disabled_min}µs, enabled {enabled_min}µs)"
    );

    // Same budget for the ledger, same small-window allowance.
    let ledger_delta_us = ledger_min.saturating_sub(ingest_min);
    assert!(ledger_windows > 0, "ledger runs must record windows");
    assert!(
        ledger_pct < 5.0 || (ingest_min < 2_000 && ledger_delta_us < 100),
        "ledger overhead {ledger_pct:.2}% exceeds the 5% budget \
         (off {ingest_min}µs, on {ledger_min}µs)"
    );
}
