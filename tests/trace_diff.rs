//! Trace-to-trace regression-localization golden tests.
//!
//! The differ's CI contract: two traced runs of the *same* seed and
//! configuration must diff to **zero deltas** (the self-comparison gate) —
//! which worker took which chunk differs between the twins and must be
//! invisible to every deterministic quantity the differ tracks (span
//! structure and row counters) — and a genuine configuration change must be
//! *localized* — every structural delta names a span path that the change
//! actually touched, not a smear across unrelated siblings.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use uww::core::{ExecOptions, PartitionOptions, Warehouse};
use uww::obs::{self, diff::DiffConfig, TraceBuffer};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Schema, Table, Tuple, Value,
    ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{Strategy, UpdateExpr};

/// The span subscriber is process-global; traced tests serialize here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const COLS: &[(&str, ValueType)] = &[("k", ValueType::Int), ("v", ValueType::Int)];

/// A two-base join warehouse with enough rows that partitioned fan-outs
/// actually open per-partition spans.
fn fixture() -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let schema = Schema::of(COLS);
    let mut builder = Warehouse::builder();
    for b in 0..2 {
        let name = format!("B{b}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..64i64 {
            t.insert(Tuple::new(vec![Value::Int(k), Value::Int(k * 7 % 13)]))
                .unwrap();
        }
        builder = builder.base_table(t);
    }
    let w = builder
        .view(ViewDef {
            name: "J".into(),
            sources: vec![
                ViewSource {
                    view: "B0".into(),
                    alias: "A".into(),
                },
                ViewSource {
                    view: "B1".into(),
                    alias: "B".into(),
                },
            ],
            joins: vec![EquiJoin::new("A.k", "B.k")],
            filters: vec![],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "A.k"),
                OutputColumn::col("v", "B.v"),
            ]),
        })
        .build()
        .unwrap();
    let mut changes = BTreeMap::new();
    for b in 0..2 {
        let mut delta = DeltaRelation::new(schema.clone());
        for i in 0..16i64 {
            delta.add(Tuple::new(vec![Value::Int(200 + i), Value::Int(i)]), 1);
        }
        delta.add(Tuple::new(vec![Value::Int(b), Value::Int(b * 7 % 13)]), -1);
        changes.insert(format!("B{b}"), delta);
    }
    (w, changes)
}

fn dual_stage(w: &Warehouse) -> Strategy {
    let g = w.vdag();
    let mut exprs: Vec<UpdateExpr> = Vec::new();
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

/// Executes the fixture once under tracing and returns the Chrome trace
/// plus the final catalog rendering.
fn traced_run(partitions: usize) -> (String, String) {
    let (w, changes) = fixture();
    let strategy = dual_stage(&w);

    let mut clone = w.clone();
    clone.load_changes(changes).unwrap();
    let buf = Arc::new(TraceBuffer::new(1 << 16));
    obs::install(Arc::clone(&buf));
    let result = clone.execute_with(
        &strategy,
        ExecOptions {
            strategy_sharing: true,
            partition: PartitionOptions::with_partitions(partitions),
            ..ExecOptions::default()
        },
    );
    obs::uninstall();
    result.unwrap();
    assert_eq!(buf.dropped(), 0, "trace ring overflowed");
    let trace = obs::chrome::chrome_trace(&buf.take_records());
    (trace, catalog_to_string(clone.state()))
}

/// A diff config with the wall gates opened wide: only deterministic
/// quantities (structure, rows) can produce deltas, which is exactly what
/// golden tests may assert on a shared machine.
fn deterministic_cfg() -> DiffConfig {
    DiffConfig {
        wall_rel_threshold: 1e9,
        wall_abs_floor_us: u64::MAX,
    }
}

/// Same seed, same configuration → zero deltas: the `uww diff` CI gate.
#[test]
fn same_seed_runs_diff_to_zero_deltas() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (a, state_a) = traced_run(2);
    let (b, state_b) = traced_run(2);
    assert_eq!(state_a, state_b);

    let d = obs::diff::diff_traces(&a, &b, &deterministic_cfg()).unwrap();
    assert_eq!(d.spans_a, d.spans_b, "span counts diverged between twins");
    assert!(
        d.is_empty(),
        "same-seed runs must diff empty, got {:?}",
        d.deltas
    );
    assert!(d.deterministic_match());

    // The self-diff verdict survives the machine-readable round trip the
    // CI gate greps for.
    let json = d.to_json();
    assert!(json.contains("\"deterministic_match\":true"), "{json}");
}

/// Raising the partition count opens new `[pN]` fan-out spans; the differ
/// must localize every structural delta to a partitioned span path rather
/// than smearing the change across the tree.
#[test]
fn partition_count_change_localizes_to_fan_out_spans() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (two, state_two) = traced_run(2);
    let (four, state_four) = traced_run(4);
    assert_eq!(state_two, state_four, "partitioning changed the data");

    let d = obs::diff::diff_traces(&two, &four, &deterministic_cfg()).unwrap();
    let structural: Vec<_> = d.deltas.iter().filter(|x| x.structural()).collect();
    assert!(
        !structural.is_empty(),
        "doubling the partition count must open new fan-out spans"
    );
    for delta in &structural {
        assert!(
            delta.path.contains("[p"),
            "structural delta off the fan-out paths: {}",
            delta.path
        );
    }
    // Spans unique to the 4-partition side are exactly the extra chunks.
    assert!(structural
        .iter()
        .any(|x| x.count.0 == 0 && x.count.1 > 0 && x.path.contains("[p")));
}
