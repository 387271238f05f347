//! Differential property tests for the strategy-global shared-operand
//! cache: over random warehouses × random valid strategies, the
//! strategy-scope cached path must produce byte-identical state,
//! byte-identical WAL journals, and identical logical `WorkMeter`s to the
//! per-`Comp` cached path — while touching no more physical rows — and
//! every per-expression hash-table counter (builds, reuses, cross-reuses,
//! cached raw reads) must equal `plan_strategy_sharing`'s offline
//! prediction exactly.
//!
//! Seeded like the crash matrix: set `UWW_SHARE_SEED` to shift the whole
//! sweep to a different deterministic slice.

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::{
    all_one_way_vdag_strategies, plan_strategy_sharing, ExecOptions, ExecutionReport, FsyncPolicy,
    SharingScope, WalConfig, Warehouse,
};
use uww::relational::{
    catalog_to_string, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, Predicate,
    ScalarExpr, Schema, Table, Tuple, Value, ValueType, ViewDef, ViewOutput, ViewSource, WorkMeter,
};
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

fn seed_base() -> u64 {
    std::env::var("UWW_SHARE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-xshare-{tag}-{}-{}",
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

/// A random warehouse biased toward *operand overlap across views*: three
/// bases, a guaranteed three-way join, and 1–2 extra views sourcing the
/// same bases, so dual-stage strategies put the same `(operand, delta-form,
/// key)` identity in front of several different `Comp`s. Every base gets a
/// random deletion+insertion batch.
fn random_warehouse(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x5AC3));
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

    // The tentpole case: a three-way join whose operands also feed the
    // extra views below, under the *same aliases and join keys*, so the
    // strategy cache sees equal `SharedIdentity`s across expressions.
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
        filters: vec![],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", "A.k"),
            OutputColumn::col("v", "C.v"),
            OutputColumn::col("g", "B.g"),
        ]),
    });

    for d in 0..1 + rng.below(2) {
        let name = format!("D{d}");
        let def = match rng.below(3) {
            0 => ViewDef {
                // Two-way join over the same operands/aliases as J3.
                name: name.clone(),
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
                    OutputColumn::col("v", "A.v"),
                    OutputColumn::col("g", "B.v"),
                ]),
            },
            1 => ViewDef {
                name: name.clone(),
                sources: vec![ViewSource {
                    view: format!("B{}", rng.below(3)),
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
            },
            _ => ViewDef {
                // Same pair as J3's B/C legs, same aliases and key.
                name: name.clone(),
                sources: vec![
                    ViewSource {
                        view: "B1".into(),
                        alias: "B".into(),
                    },
                    ViewSource {
                        view: "B2".into(),
                        alias: "C".into(),
                    },
                ],
                joins: vec![EquiJoin::new("B.k", "C.k")],
                filters: vec![Predicate::col_gt("C.v", Value::Int(rng.below(40) as i64))],
                output: ViewOutput::Project(vec![
                    OutputColumn::col("k", "B.k"),
                    OutputColumn::col("v", "C.v"),
                    OutputColumn::col("g", "B.g"),
                ]),
            },
        };
        builder = builder.view(def);
    }
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
/// strategy — the one that keeps operands live across many `Comp`s — when
/// valid.
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

/// The warehouse with the change batch loaded — the state
/// `plan_strategy_sharing` must be asked about (operand sizes, and hence
/// build sides and join orders, depend on the loaded deltas).
fn loaded(w: &Warehouse, changes: &BTreeMap<String, DeltaRelation>) -> Warehouse {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    clone
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
    strategy_cache: bool,
) -> RunOutcome {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    let dir = wal_dir(tag);
    let opts = ExecOptions {
        wal: Some(WalConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        strategy_sharing: strategy_cache,
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

fn logical(meter: &WorkMeter) -> WorkMeter {
    meter.logical()
}

/// The differential tentpole: per-`Comp` cached ≡ strategy-scope cached on
/// final state, WAL bytes, and per-expression logical meters — and the
/// meters of both scopes equal the offline description's *exactly*,
/// expression by expression. (Per-`Comp` cached ≡ the uncached
/// per-term reference is `tests/term_sharing.rs`.)
#[test]
fn strategy_scope_cache_is_byte_identical_and_exactly_predicted() {
    let base = seed_base();
    let mut cross_ever = false;
    let mut cached_read_ever = false;
    for round in 0..4u64 {
        let seed = base.wrapping_mul(193).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0xC405_57A7);
        for (si, strategy) in random_strategies(&w, &mut rng, 2).iter().enumerate() {
            let tag = |mode: &str| format!("{round}-{si}-{mode}");
            let percomp = run_mode(&w, &changes, strategy, &tag("percomp"), false);
            let strat = run_mode(&w, &changes, strategy, &tag("strategy"), true);

            // Byte-identical deltas (the WAL's CD payloads) and final state
            // at both cache scopes.
            assert_eq!(percomp.state, strat.state, "state diverged");
            assert_eq!(percomp.wal_bytes, strat.wal_bytes, "wal bytes diverged");
            assert_eq!(percomp.report.per_expr.len(), strat.report.per_expr.len());
            for (b, o) in percomp
                .report
                .per_expr
                .iter()
                .zip(strat.report.per_expr.iter())
            {
                assert_eq!(
                    logical(&b.work),
                    logical(&o.work),
                    "logical meter diverged at {:?}",
                    b.expr
                );
            }

            // The physical ladder: strategy scope never touches more rows
            // than per-Comp scope.
            let phys_pc = percomp.report.total_work().physical_rows_touched;
            let phys_st = strat.report.total_work().physical_rows_touched;
            assert!(
                phys_st <= phys_pc,
                "strategy scope regressed: {phys_st} > {phys_pc}"
            );
            assert!(
                strat.report.total_work().hash_tables_built
                    <= percomp.report.total_work().hash_tables_built
            );
            // The maintained indexes serve later Comps at either scope; the
            // window-scope store only adds delta-role service on top.
            let pc = percomp.report.total_work();
            let st = strat.report.total_work();
            assert!(pc.hash_tables_cross_reused <= st.hash_tables_cross_reused);
            assert!(pc.operand_reads_cached <= st.operand_reads_cached);

            // The description is the run: at either scope, every expression's
            // full meter equals what then really executing the window reports.
            for (scope, real) in [
                (SharingScope::Comp, &percomp),
                (SharingScope::Strategy, &strat),
            ] {
                let described =
                    plan_strategy_sharing(&loaded(&w, &changes), strategy, scope).unwrap();
                assert_eq!(described.report.per_expr.len(), real.report.per_expr.len());
                assert_eq!(described.profile.exprs.len(), real.report.per_expr.len());
                for (d, e) in described.report.per_expr.iter().zip(&real.report.per_expr) {
                    assert_eq!(d.expr, e.expr);
                    assert_eq!(d.work, e.work, "{scope:?}: meter diverged at {:?}", e.expr);
                }
                // Cross-reuses are a subset of reuses, and a `Comp` found a
                // key already held only where it recorded cross-reuses.
                for (p, e) in described.profile.exprs.iter().zip(&real.report.per_expr) {
                    assert!(e.work.hash_tables_cross_reused <= e.work.hash_tables_reused);
                    let held = p.operands.iter().any(|o| o.held);
                    assert!(e.work.hash_tables_cross_reused > 0 || !held);
                }
            }

            if st.hash_tables_cross_reused > 0 {
                cross_ever = true;
            }
            if st.operand_reads_cached > 0 {
                cached_read_ever = true;
            }
        }
    }
    // The sweep always contains dual-stage strategies over overlapping
    // views, so the strategy cache must have served something somewhere.
    assert!(
        cross_ever,
        "strategy cache never served a cross-expression hash reuse across the sweep"
    );
    assert!(
        cached_read_ever,
        "strategy cache never served a cached raw operand read across the sweep"
    );
}
