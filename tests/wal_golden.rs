//! Golden bytes for the journaled window: `digest64` of `wal.log` and of the
//! final catalog for each way a window can run — sequential, staged (§9),
//! carried across two windows, and crashed-then-recovered.
//!
//! The digests were recorded at the commit *before* the four executors were
//! folded into one stage loop and are committed unchanged, so "byte-identical"
//! is checked against history rather than variant ≡ variant. A legitimate
//! change to the WAL format or the fixture must re-record them and say so.
//! The `wal.log` digests were re-recorded once, when `ID` records switched
//! to the content digest each table keeps; the final-catalog digests have
//! not moved since they were first recorded.

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::{
    min_work, parallelize, plan_strategy_sharing_carried, recover, ExecOptions, FaultPlan,
    FsyncPolicy, SizeCatalog, WalConfig, WalLog, Warehouse, WindowCarry,
};
use uww::relational::{
    catalog_to_string, digest64, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn,
    Predicate, ScalarExpr, Schema, Table, Tuple, Value, ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{dual_stage_strategy, SplitMix64, Strategy};

const SEED: u64 = 0x5EED_0012;

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

fn source(view: &str, alias: &str) -> ViewSource {
    ViewSource {
        view: view.into(),
        alias: alias.into(),
    }
}

/// Three bases, a three-way join, an aggregate, and a second-level filter
/// over the join: the dual-stage schedule has a stage with several `Comp`s,
/// a seven-term `Comp`, and both fragment shapes (rows and summary).
fn warehouse() -> Warehouse {
    let mut rng = SplitMix64::new(SEED);
    let schema = Schema::of(COLS);
    let mut builder = Warehouse::builder();
    for b in 0..3 {
        let mut t = Table::new(format!("B{b}"), schema.clone());
        for k in 0..20i64 {
            t.insert(Tuple::new(vec![
                Value::Int(k),
                Value::Int(rng.below(100) as i64),
                Value::Int(k % 3),
            ]))
            .unwrap();
        }
        builder = builder.base_table(t);
    }
    builder
        .view(ViewDef {
            name: "J3".into(),
            sources: vec![source("B0", "A"), source("B1", "B"), source("B2", "C")],
            joins: vec![EquiJoin::new("A.k", "B.k"), EquiJoin::new("A.k", "C.k")],
            filters: vec![Predicate::col_gt("B.v", Value::Int(20))],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "A.k"),
                OutputColumn::col("v", "C.v"),
                OutputColumn::col("g", "B.g"),
            ]),
        })
        .view(ViewDef {
            name: "AGG".into(),
            sources: vec![source("B0", "S")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Aggregate {
                group_by: vec![OutputColumn::col("g", "S.g")],
                aggregates: vec![
                    AggregateColumn {
                        name: "total".into(),
                        func: AggFunc::Sum,
                        input: ScalarExpr::col("S.v"),
                    },
                    AggregateColumn {
                        name: "n".into(),
                        func: AggFunc::Count,
                        input: ScalarExpr::col("S.k"),
                    },
                ],
            },
        })
        .view(ViewDef {
            name: "TOP".into(),
            sources: vec![source("J3", "J")],
            joins: vec![],
            filters: vec![Predicate::col_gt("J.v", Value::Int(40))],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "J.k"),
                OutputColumn::col("v", "J.v"),
            ]),
        })
        .build()
        .unwrap()
}

/// The `n`-th change batch against `w`: every base loses about a quarter of
/// its current rows and gains a few fresh keys.
fn batch(w: &Warehouse, n: u64) -> BTreeMap<String, DeltaRelation> {
    let mut rng = SplitMix64::new(SEED ^ (n + 1).wrapping_mul(0x9E37_79B9));
    let mut changes = BTreeMap::new();
    for b in 0..3 {
        let name = format!("B{b}");
        let table = w.table(&name).unwrap();
        let mut rows: Vec<(Tuple, u64)> = table.iter().map(|(t, c)| (t.clone(), c)).collect();
        rows.sort();
        let mut delta = DeltaRelation::new(table.schema().clone());
        for (t, c) in rows {
            if rng.below(4) == 0 {
                delta.add(t, -(c as i64));
            }
        }
        for i in 0..4i64 {
            delta.add(
                Tuple::new(vec![
                    Value::Int(1000 * (n as i64 + 1) + i),
                    Value::Int(rng.below(100) as i64),
                    Value::Int(rng.below(3) as i64),
                ]),
                1,
            );
        }
        changes.insert(name, delta);
    }
    changes
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uww-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &PathBuf) -> ExecOptions {
    ExecOptions {
        wal: Some(WalConfig::new(dir).with_fsync(FsyncPolicy::Never)),
        ..ExecOptions::default()
    }
}

fn loaded() -> Warehouse {
    let mut w = warehouse();
    let changes = batch(&w, 0);
    w.load_changes(changes).unwrap();
    w
}

fn min_work_strategy(w: &Warehouse) -> Strategy {
    let sizes = SizeCatalog::estimate(w).unwrap();
    min_work(w.vdag(), &sizes).unwrap().strategy
}

/// `(digest of the journal bytes, digest of the final catalog)`.
fn digests(w: &Warehouse, dirs: &[PathBuf]) -> (u64, u64) {
    let mut log = String::new();
    for dir in dirs {
        log.push_str(&std::fs::read_to_string(dir.join("wal.log")).unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }
    (digest64(&log), digest64(&catalog_to_string(w.state())))
}

#[test]
fn sequential_min_work_window() {
    let mut w = loaded();
    let expected = w.expected_final_state().unwrap();
    let strategy = min_work_strategy(&w);
    let dir = wal_dir("seq");
    w.execute_with(&strategy, durable(&dir)).unwrap();
    assert!(w.diff_state(&expected).is_empty());
    assert_eq!(
        digests(&w, &[dir]),
        (0x2eae7ea1372ca290, 0xd81633b025999a82)
    );
}

#[test]
fn staged_dual_stage_window() {
    let mut w = loaded();
    let expected = w.expected_final_state().unwrap();
    let p = parallelize(w.vdag(), &dual_stage_strategy(w.vdag()));
    assert!(p.stages.iter().any(|s| s.len() > 1), "no stage fans out");
    let dir = wal_dir("staged");
    w.execute_staged(&p, durable(&dir)).unwrap();
    assert!(w.diff_state(&expected).is_empty());
    assert_eq!(
        digests(&w, &[dir]),
        (0xdafef3c6add68671, 0xd81633b025999a82)
    );
}

#[test]
fn two_carried_windows() {
    let mut w = warehouse();
    let mut carry = WindowCarry::empty();
    let mut dirs = Vec::new();
    for n in 0..2 {
        let changes = batch(&w, n);
        w.load_changes(changes).unwrap();
        let expected = w.expected_final_state().unwrap();
        let strategy = min_work_strategy(&w);
        let dir = wal_dir(&format!("carried-{n}"));
        let plan = plan_strategy_sharing_carried(&w, &strategy, &carry).unwrap();
        let out = w.execute_carried(&strategy, durable(&dir), carry).unwrap();
        assert!(w.diff_state(&expected).is_empty());
        assert_eq!(plan.conformance, out.conformance);
        carry = out.carry;
        dirs.push(dir);
    }
    assert_eq!(digests(&w, &dirs), (0x5472423348240876, 0xdc90bd1333ddd937));
}

#[test]
fn crash_before_the_middle_record_then_recover() {
    let base = loaded();
    let expected = base.expected_final_state().unwrap();
    let strategy = min_work_strategy(&base);

    let clean = wal_dir("crash-clean");
    base.clone()
        .execute_with(&strategy, durable(&clean))
        .unwrap();
    let records = WalLog::open(&clean).unwrap().records.len() as u64;
    let _ = std::fs::remove_dir_all(&clean);

    let dir = wal_dir("crash");
    let mut opts = durable(&dir);
    opts.wal.as_mut().unwrap().faults = FaultPlan::crash_before(records / 2);
    assert!(base.clone().execute_with(&strategy, opts).is_err());

    let mut w = base.clone();
    let outcome = recover(&mut w, &dir).unwrap();
    assert!(outcome.replayed_comps + outcome.replayed_insts > 0);
    assert!(outcome.resumed > 0);
    assert!(w.diff_state(&expected).is_empty());
    assert_eq!(
        digests(&w, &[dir]),
        (0x2eae7ea1372ca290, 0xd81633b025999a82)
    );
}
