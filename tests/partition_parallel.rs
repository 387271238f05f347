//! Differential property tests for partition-parallel term execution.
//!
//! Over random warehouses × random valid strategies, the partitioned
//! executor (one build table per operand, with every filter, probe, cross
//! join and grouping input cut into contiguous slices on the work-stealing
//! pool) must be **fully byte-identical** to the sequential shared engine:
//! final state, WAL journal, and the complete `WorkMeter` — physical
//! counters included — at every partition count and under strategy-scope
//! sharing. Unlike the sharing sweeps (which only pin the *logical* meter),
//! partitioning is pure plumbing: it changes which thread probes a row,
//! never what is built, emitted or charged.
//!
//! Seeded like the other sweeps: `UWW_PART_SEED` shifts the whole sweep to
//! a different deterministic slice, and `UWW_PARTS` (comma-separated, e.g.
//! `3,8`) overrides the partition counts — the CI matrix drives both.

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::{
    all_one_way_vdag_strategies, plan_strategy_sharing, ExecOptions, ExecutionReport, FsyncPolicy,
    PartitionOptions, SharingScope, WalConfig, Warehouse,
};
use uww::relational::{
    catalog_to_string, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, Predicate,
    ScalarExpr, Schema, Table, Tuple, Value, ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

fn seed_base() -> u64 {
    std::env::var("UWW_PART_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Partition counts under test: `UWW_PARTS` (comma-separated), default 2,4.
fn partition_counts() -> Vec<usize> {
    std::env::var("UWW_PARTS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .filter(|&p| p > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![2, 4])
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-part-{tag}-{}-{}",
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

/// Same shape as the `term_sharing` sweep — three bases, a guaranteed
/// three-way join whose dual-stage `Comp` expands to seven terms — plus a
/// *cross-join* view (two sources, no equijoin), so every sweep exercises
/// the empty-key path alongside the keyed joins. Every base gets a random
/// deletion+insertion batch.
fn random_warehouse(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x9A27));
    let schema = Schema::of(COLS);

    let mut builder = Warehouse::builder();
    for b in 0..3 {
        let name = format!("B{b}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..15 + rng.below(10) {
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

    // The empty-key degenerate: no equijoin connects the sources, so every
    // term takes the cross-join path. The filters keep the output small.
    builder = builder.view(ViewDef {
        name: "X2".into(),
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
        joins: vec![],
        filters: vec![
            Predicate::col_gt("A.v", Value::Int(50 + rng.below(30) as i64)),
            Predicate::col_gt("B.v", Value::Int(50 + rng.below(30) as i64)),
        ],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", "A.k"),
            OutputColumn::col("v", "B.v"),
            OutputColumn::col("g", "A.g"),
        ]),
    });

    // An aggregate over the join, so chunked group/merge runs every sweep.
    builder = builder.view(ViewDef {
        name: "AGG".into(),
        sources: vec![ViewSource {
            view: "J3".into(),
            alias: "S".into(),
        }],
        joins: vec![],
        filters: vec![],
        output: ViewOutput::Aggregate {
            group_by: vec![OutputColumn::col("k", "S.g")],
            aggregates: vec![
                AggregateColumn {
                    name: "v".into(),
                    func: AggFunc::Sum,
                    input: ScalarExpr::col("S.v"),
                },
                AggregateColumn {
                    name: "g".into(),
                    func: AggFunc::Count,
                    input: ScalarExpr::col("S.k"),
                },
            ],
        },
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
        for i in 0..3 + rng.below(4) {
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

/// Seeded picks from the exhaustive 1-way enumeration plus the dual-stage
/// strategy (the one with multi-delta terms) when valid.
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

#[derive(Clone, Copy)]
struct Mode {
    partitions: usize,
    strategy_sharing: bool,
}

struct RunOutcome {
    state: String,
    report: ExecutionReport,
    wal_bytes: Vec<u8>,
}

fn run_mode(
    w: &Warehouse,
    changes: &BTreeMap<String, DeltaRelation>,
    strategy: &Strategy,
    tag: &str,
    mode: Mode,
) -> RunOutcome {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    let dir = wal_dir(tag);
    let opts = ExecOptions {
        wal: Some(WalConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        strategy_sharing: mode.strategy_sharing,
        partition: PartitionOptions::with_partitions(mode.partitions),
        ..ExecOptions::default()
    };
    let report = clone.execute_with(strategy, opts).unwrap();
    let wal_bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    RunOutcome {
        state: catalog_to_string(clone.state()),
        report,
        wal_bytes,
    }
}

/// Full-meter equality, expression by expression — the partition engine's
/// headline invariant. `scan`-level sharing tests only pin the logical
/// meter; here even `physical_rows_touched` and the hash-table counters
/// must match, because every table is built once over its whole operand
/// and per-slice probes sum back to the sequential totals.
fn assert_meters_identical(a: &ExecutionReport, b: &ExecutionReport, what: &str) {
    assert_eq!(a.per_expr.len(), b.per_expr.len(), "{what}: expr count");
    for (x, y) in a.per_expr.iter().zip(b.per_expr.iter()) {
        assert_eq!(x.work, y.work, "{what}: meter diverged for {:?}", x.expr);
    }
}

#[test]
fn partitioned_execution_is_byte_identical_to_sequential() {
    let base = seed_base();
    let parts = partition_counts();
    for round in 0..3u64 {
        let seed = base.wrapping_mul(193).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0x9A27_0FF1);
        for (si, strategy) in random_strategies(&w, &mut rng, 2).iter().enumerate() {
            let tag = |mode: &str| format!("{round}-{si}-{mode}");
            let sequential = Mode {
                partitions: 1,
                strategy_sharing: false,
            };
            let reference = run_mode(&w, &changes, strategy, &tag("seq"), sequential);

            for &p in &parts {
                let run = run_mode(
                    &w,
                    &changes,
                    strategy,
                    &tag(&format!("p{p}")),
                    Mode {
                        partitions: p,
                        ..sequential
                    },
                );
                let what = format!("partitions={p} (seed {seed})");
                assert_eq!(reference.state, run.state, "{what}: state diverged");
                assert_eq!(
                    reference.wal_bytes, run.wal_bytes,
                    "{what}: wal bytes diverged"
                );
                assert_meters_identical(&reference.report, &run.report, &what);
            }

            // Partitioning composes with strategy-scope sharing: a stored
            // table indexes its whole operand at any partition count, so
            // the partitioned sharing run equals the sequential sharing run
            // on the full meter (which differs from the unshared reference
            // only in physical counters).
            let shared_seq = run_mode(
                &w,
                &changes,
                strategy,
                &tag("share-seq"),
                Mode {
                    strategy_sharing: true,
                    ..sequential
                },
            );
            let shared_part = run_mode(
                &w,
                &changes,
                strategy,
                &tag("share-part"),
                Mode {
                    partitions: *parts.last().unwrap(),
                    strategy_sharing: true,
                },
            );
            assert_eq!(
                shared_seq.state, shared_part.state,
                "strategy sharing: state diverged"
            );
            assert_eq!(
                reference.state, shared_seq.state,
                "strategy sharing: state diverged from unshared"
            );
            assert_eq!(
                shared_seq.wal_bytes, shared_part.wal_bytes,
                "strategy sharing: wal bytes diverged"
            );
            assert_meters_identical(&shared_seq.report, &shared_part.report, "strategy sharing");
        }
    }
}

/// The empty-key degenerate, end to end (the bugfix satellite): a
/// keyless build is a disguised cross join, so the engine meters it as a
/// scan + emit — never a hash build — and the offline description agrees
/// exactly, at any partition count.
#[test]
fn empty_key_cross_join_conforms_and_never_interns() {
    let (w, changes) = random_warehouse(seed_base().wrapping_mul(71).wrapping_add(5));
    let g = w.vdag();
    let mut dual: Vec<UpdateExpr> = Vec::new();
    for v in g.view_ids() {
        if !g.is_base(v) {
            dual.push(UpdateExpr::comp(v, g.sources(v).iter().copied()));
        }
    }
    for v in g.view_ids() {
        dual.push(UpdateExpr::inst(v));
    }
    let strategy = Strategy::from_exprs(dual);
    check_vdag_strategy(g, &strategy).unwrap();

    let mut loaded = w.clone();
    loaded.load_changes(changes.clone()).unwrap();
    let described = plan_strategy_sharing(&loaded, &strategy, SharingScope::Comp).unwrap();
    let predictions = &described.report.per_expr;

    // The pure cross-join Comp does zero hash builds: every join step is
    // keyless, so nothing is internable.
    let x2 = (strategy.exprs.iter())
        .position(|e| matches!(e, UpdateExpr::Comp { view, .. } if g.name(*view) == "X2"))
        .expect("X2 comp description");
    assert!(described.profile.exprs[x2].operands.is_empty());
    assert_eq!(
        predictions[x2].work.hash_tables_built, 0,
        "cross join built"
    );
    assert_eq!(
        predictions[x2].work.hash_tables_reused, 0,
        "cross join reused"
    );

    for partitions in [1usize, 3] {
        let mut run = w.clone();
        run.load_changes(changes.clone()).unwrap();
        let report = run
            .execute_with(
                &strategy,
                ExecOptions {
                    partition: PartitionOptions::with_partitions(partitions),
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        assert_eq!(predictions.len(), report.per_expr.len());
        for (p, e) in predictions.iter().zip(&report.per_expr) {
            assert_eq!(
                p.work.hash_tables_built, e.work.hash_tables_built,
                "partitions={partitions}: builds diverged for {:?}",
                e.expr
            );
            assert_eq!(
                p.work.hash_tables_reused, e.work.hash_tables_reused,
                "partitions={partitions}: reuses diverged for {:?}",
                e.expr
            );
        }
    }
}
