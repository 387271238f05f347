//! Property tests for the span engine: over random warehouses × random
//! valid strategies, the recorded span tree must be structurally sound —
//! every child nested inside its parent's interval, term spans summing to
//! no more than their expression span, every expression span's meter
//! attributes equal to the report's meter for that expression at one and
//! at two partitions — and tracing must be observationally free: a run with no subscriber installed produces byte-identical state,
//! byte-identical WAL bytes, an identical logical `WorkMeter`, and records
//! zero spans. Two traced runs of one seed record the same spans, whichever
//! worker ran which partition slice.
//!
//! Seeded like the other sweeps: set `UWW_TERM_SEED` to shift the whole
//! sweep to a different deterministic slice.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use uww::core::{
    all_one_way_vdag_strategies, ExecOptions, FsyncPolicy, PartitionOptions, WalConfig, Warehouse,
};
use uww::obs::{keys, SpanKind, SpanRecord, TraceBuffer};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Predicate, Schema, Table, Tuple,
    Value, ValueType, ViewDef, ViewOutput, ViewSource, WorkMeter,
};
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

/// The subscriber is process-global; every test that installs one must hold
/// this lock so parallel test threads never race on it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn seed_base() -> u64 {
    std::env::var("UWW_TERM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-span-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

/// A random warehouse with a guaranteed three-way join (so dual-stage
/// `Comp`s expand to seven terms) plus a random filter view, and a random
/// deletion+insertion batch on every base.
fn random_warehouse(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x5BA9));
    let schema = Schema::of(COLS);

    let mut builder = Warehouse::builder();
    for b in 0..3 {
        let name = format!("B{b}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..10 + rng.below(8) {
            t.insert(Tuple::new(vec![
                Value::Int(k as i64),
                Value::Int(rng.below(100) as i64),
                Value::Int((k % 3) as i64),
            ]))
            .unwrap();
        }
        builder = builder.base_table(t);
    }
    builder = builder.view(ViewDef {
        name: "J3".into(),
        sources: vec![
            ViewSource {
                view: "B0".into(),
                alias: "A".into(),
            },
            ViewSource {
                view: "B1".into(),
                alias: "B".into(),
            },
            ViewSource {
                view: "B2".into(),
                alias: "C".into(),
            },
        ],
        joins: vec![EquiJoin::new("A.k", "B.k"), EquiJoin::new("A.k", "C.k")],
        filters: vec![Predicate::col_gt("B.v", Value::Int(rng.below(40) as i64))],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", "A.k"),
            OutputColumn::col("v", "C.v"),
            OutputColumn::col("g", "B.g"),
        ]),
    });
    builder = builder.view(ViewDef {
        name: "F0".into(),
        sources: vec![ViewSource {
            view: format!("B{}", rng.below(3)),
            alias: "S".into(),
        }],
        joins: vec![],
        filters: vec![Predicate::col_gt("S.v", Value::Int(rng.below(60) as i64))],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", "S.k"),
            OutputColumn::col("v", "S.v"),
            OutputColumn::col("g", "S.g"),
        ]),
    });
    let w = builder.build().unwrap();

    let mut changes: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for b in 0..3 {
        let name = format!("B{b}");
        let mut delta = DeltaRelation::new(schema.clone());
        for (tup, cnt) in w.table(&name).unwrap().iter() {
            if rng.below(4) == 0 {
                delta.add(tup.clone(), -(cnt as i64));
            }
        }
        for i in 0..2 + rng.below(4) {
            delta.add(
                Tuple::new(vec![
                    Value::Int(1000 + i as i64),
                    Value::Int(rng.below(100) as i64),
                    Value::Int(rng.below(3) as i64),
                ]),
                1,
            );
        }
        changes.insert(name, delta);
    }
    (w, changes)
}

/// Seeded strategy picks plus the dual-stage strategy when valid.
fn random_strategies(w: &Warehouse, rng: &mut SplitMix64, count: usize) -> Vec<Strategy> {
    let g = w.vdag();
    let one_way = all_one_way_vdag_strategies(g).unwrap();
    assert!(!one_way.is_empty());
    let mut out: Vec<Strategy> = (0..count)
        .map(|_| one_way[rng.below(one_way.len() as u64) as usize].clone())
        .collect();
    let mut dual: Vec<UpdateExpr> = Vec::new();
    for v in g.view_ids() {
        if !g.is_base(v) {
            dual.push(UpdateExpr::comp(v, g.sources(v).iter().copied()));
        }
    }
    for v in g.view_ids() {
        dual.push(UpdateExpr::inst(v));
    }
    let dual = Strategy::from_exprs(dual);
    if check_vdag_strategy(g, &dual).is_ok() {
        out.push(dual);
    }
    out
}

struct RunOutcome {
    state: String,
    wal_bytes: Vec<u8>,
    logical: Vec<WorkMeter>,
    total: WorkMeter,
    /// The full meter of each expression, in execution order.
    per_expr: Vec<WorkMeter>,
}

/// One sequential journaled run over `partitions` slices per term input;
/// when `trace` is set the run happens under an installed subscriber and
/// the recorded spans come back too.
fn run_once(
    w: &Warehouse,
    changes: &BTreeMap<String, DeltaRelation>,
    strategy: &Strategy,
    tag: &str,
    trace: bool,
    partitions: usize,
) -> (RunOutcome, Vec<SpanRecord>) {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    let dir = wal_dir(tag);
    let opts = ExecOptions {
        wal: Some(WalConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        partition: PartitionOptions::with_partitions(partitions),
        ..ExecOptions::default()
    };
    let buf = Arc::new(TraceBuffer::new(1 << 16));
    if trace {
        uww::obs::install(Arc::clone(&buf));
    }
    let report = clone.execute_with(strategy, opts);
    if trace {
        uww::obs::uninstall();
    }
    let report = report.unwrap();
    let wal_bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let records = buf.take_records();
    assert_eq!(buf.dropped(), 0, "ring must not evict at test scale");
    (
        RunOutcome {
            state: catalog_to_string(clone.state()),
            wal_bytes,
            logical: report.per_expr.iter().map(|e| e.work.logical()).collect(),
            total: report.total_work().logical(),
            per_expr: report.per_expr.iter().map(|e| e.work).collect(),
        },
        records,
    )
}

/// A meter as the `(key, value)` pairs an expression span should carry.
fn meter_attrs(m: &WorkMeter) -> Vec<(&'static str, Option<u64>)> {
    [
        (keys::MEASURED_WORK, m.linear_work()),
        (keys::ROWS_SCANNED, m.operand_rows_scanned),
        (keys::ROWS_INSTALLED, m.rows_installed),
        (keys::ROWS_EMITTED, m.rows_emitted),
        (keys::TERMS, m.terms_evaluated),
        (keys::PHYSICAL_ROWS, m.physical_rows_touched),
        (keys::HASH_BUILDS, m.hash_tables_built),
        (keys::HASH_REUSES, m.hash_tables_reused),
        (keys::HASH_CROSS_REUSES, m.hash_tables_cross_reused),
        (keys::CACHED_READS, m.operand_reads_cached),
    ]
    .into_iter()
    .map(|(k, v)| (k, Some(v)))
    .collect()
}

/// Child intervals nest exactly inside their parents (the engine reads the
/// monotone clock for a parent's end only after all children ended, so no
/// tolerance is needed), and every non-root parent id resolves.
fn assert_tree_sound(records: &[SpanRecord]) {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    for r in records {
        assert!(
            r.end_us >= r.start_us,
            "span {} ends before it starts",
            r.id
        );
        if r.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&r.parent)
            .unwrap_or_else(|| panic!("span {} has unknown parent {}", r.id, r.parent));
        assert!(
            r.start_us >= p.start_us && r.end_us <= p.end_us,
            "span {} [{}, {}] escapes parent {} [{}, {}]",
            r.id,
            r.start_us,
            r.end_us,
            p.id,
            p.start_us,
            p.end_us
        );
    }
}

#[test]
fn span_tree_invariants_hold_over_random_runs() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = seed_base();
    let mut saw_terms = false;
    for round in 0..3u64 {
        let seed = base.wrapping_mul(257).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0x5157_AB42);
        let strategies = random_strategies(&w, &mut rng, 2);
        for ((si, strategy), parts) in strategies.iter().enumerate().flat_map(|s| [(s, 1), (s, 2)])
        {
            let tag = format!("tree-{round}-{si}-p{parts}");
            let (out, records) = run_once(&w, &changes, strategy, &tag, true, parts);
            assert!(!records.is_empty());
            assert_tree_sound(&records);

            // Exactly one root: the run span, covering every expression.
            let runs: Vec<&SpanRecord> =
                records.iter().filter(|r| r.kind == SpanKind::Run).collect();
            assert_eq!(runs.len(), 1, "expected exactly one run span");
            // Span ids are handed out in creation order, and a sequential
            // window opens its expression spans in execution order.
            let mut exprs: Vec<&SpanRecord> = records
                .iter()
                .filter(|r| r.kind == SpanKind::Expression)
                .collect();
            exprs.sort_by_key(|r| r.id);
            assert_eq!(
                exprs.len(),
                strategy.len(),
                "one expression span per strategy expression"
            );

            // Sequential execution: the terms of one expression run one
            // after another inside it, so their durations sum to at most
            // the expression's.
            for e in &exprs {
                let term_sum: u64 = records
                    .iter()
                    .filter(|r| r.kind == SpanKind::Term && r.parent == e.id)
                    .map(SpanRecord::dur_us)
                    .sum();
                assert!(
                    term_sum <= e.dur_us(),
                    "term spans ({term_sum} µs) exceed expression span ({} µs)",
                    e.dur_us()
                );
                if term_sum > 0 {
                    saw_terms = true;
                }
            }

            // Every expression span carries exactly the meter the report
            // holds for that expression.
            for (e, m) in exprs.iter().zip(&out.per_expr) {
                let want = meter_attrs(m);
                let got: Vec<_> = want.iter().map(|&(k, _)| (k, e.attr_u64(k))).collect();
                assert_eq!(
                    got, want,
                    "expression span {:?} at P={parts} disagrees with its report meter",
                    e.name
                );
            }
        }
    }
    assert!(saw_terms, "sweep never produced a Comp with term spans");
}

#[test]
fn disabled_tracing_is_byte_identical_and_records_nothing() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = seed_base();
    for round in 0..2u64 {
        let seed = base.wrapping_mul(613).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0x0FF0_57AB);
        for (si, strategy) in random_strategies(&w, &mut rng, 1).iter().enumerate() {
            let tag = |mode: &str| format!("eq-{round}-{si}-{mode}");
            let (plain, no_spans) = run_once(&w, &changes, strategy, &tag("plain"), false, 1);
            let (traced, spans) = run_once(&w, &changes, strategy, &tag("traced"), true, 1);

            // With no subscriber installed, instrumentation is a single
            // relaxed atomic load: nothing is recorded anywhere.
            assert!(!uww::obs::enabled());
            assert_eq!(no_spans.len(), 0, "untraced run must record zero spans");
            assert!(!spans.is_empty(), "traced run must record spans");

            // And tracing is observationally free: same state bytes, same
            // WAL bytes, same logical meters expression by expression.
            assert_eq!(plain.state, traced.state, "state diverged under tracing");
            assert_eq!(
                plain.wal_bytes, traced.wal_bytes,
                "wal bytes diverged under tracing"
            );
            assert_eq!(plain.logical, traced.logical);
            assert_eq!(plain.total, traced.total);
        }
    }
}

/// A span as a same-seed rerun must reproduce it: kind, name and every
/// attribute. Ids, parents, lanes and times are the run's own.
fn span_identity(r: &SpanRecord) -> String {
    format!("{:?} {} {:?}", r.kind, r.name, r.attrs)
}

#[test]
fn same_seed_partitioned_runs_record_the_same_spans() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = seed_base();
    let seed = base.wrapping_mul(811);
    let (w, changes) = random_warehouse(seed);
    let mut rng = SplitMix64::new(seed ^ 0x0D1F_F000);
    for (si, strategy) in random_strategies(&w, &mut rng, 1).iter().enumerate() {
        let twin = |t: u32| {
            let tag = format!("twin-{si}-{t}");
            let (out, records) = run_once(&w, &changes, strategy, &tag, true, 3);
            let mut spans: Vec<String> = records.iter().map(span_identity).collect();
            spans.sort_unstable();
            (out.state, spans)
        };
        let (state_a, spans_a) = twin(0);
        let (state_b, spans_b) = twin(1);
        assert_eq!(state_a, state_b, "strategy {si}: state diverged");
        assert!(
            spans_a.iter().any(|s| s.contains(keys::PARTITION)),
            "strategy {si}: no partition fan-out was traced"
        );
        assert_eq!(spans_a, spans_b, "strategy {si}: same-seed spans diverged");
    }
}
