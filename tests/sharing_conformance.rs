//! Property tests for the sharing description & the stage-race gate.
//!
//! Two contracts across the stack:
//!
//! 1. **Sharing conformance**: over random warehouses × random valid
//!    strategies, the offline description's per-expression hash-table
//!    build/reuse counts equal the shared executor's measured
//!    `hash_tables_built`/`hash_tables_reused` *exactly* — describing a
//!    window is running it on a scratch clone, not an estimate.
//! 2. **Stage-race soundness**: `analyze_parallel` (`UWW001` over the
//!    scheduler's dependence relation) is the staged executor's gate — it
//!    refuses exactly the schedules the lint flags — and every schedule it
//!    lets through runs staged to the sequential final state, byte for
//!    byte.
//!
//! Seeded like the other property sweeps: set `UWW_TERM_SEED` to shift the
//! whole sweep to a different deterministic slice.

use std::collections::BTreeMap;

use uww::core::{
    all_one_way_vdag_strategies, parallelize, plan_strategy_sharing, ExecOptions, ParallelStrategy,
    SharingScope, Warehouse,
};
use uww::relational::{
    catalog_to_string, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, Predicate,
    ScalarExpr, Schema, Table, Tuple, Value, ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{analyze_parallel, check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

fn seed_base() -> u64 {
    std::env::var("UWW_TERM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

/// Same shape as the `term_sharing` sweep: three bases, a guaranteed
/// three-way join (whose dual-stage `Comp` expands to seven terms sharing
/// operands), plus 1–2 random filter/aggregate/join views, and a random
/// deletion+insertion batch on every base.
fn random_warehouse(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x517A));
    let schema = Schema::of(COLS);

    let mut builder = Warehouse::builder();
    let mut names: Vec<String> = Vec::new();
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
        names.push(name);
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
    names.push("J3".into());

    for d in 0..1 + rng.below(2) {
        let name = format!("D{d}");
        let src = names[rng.below(3) as usize].clone();
        let def = match rng.below(3) {
            0 => ViewDef {
                name: name.clone(),
                sources: vec![ViewSource {
                    view: src,
                    alias: "S".into(),
                }],
                joins: vec![],
                filters: vec![Predicate::col_gt("S.v", Value::Int(rng.below(60) as i64))],
                output: ViewOutput::Project(vec![
                    OutputColumn::col("k", "S.k"),
                    OutputColumn::col("v", "S.v"),
                    OutputColumn::col("g", "S.g"),
                ]),
            },
            1 => ViewDef {
                name: name.clone(),
                sources: vec![ViewSource {
                    view: src,
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
            _ => {
                let other = format!("B{}", (rng.below(2) + 1) % 3);
                ViewDef {
                    name: name.clone(),
                    sources: vec![
                        ViewSource {
                            view: "B0".into(),
                            alias: "A".into(),
                        },
                        ViewSource {
                            view: other,
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
                }
            }
        };
        builder = builder.view(def);
        names.push(name);
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

fn loaded(w: &Warehouse, changes: &BTreeMap<String, DeltaRelation>) -> Warehouse {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    clone
}

#[test]
fn description_matches_measured_hash_counters_exactly() {
    let base = seed_base();
    let mut reuse_ever_predicted = false;
    for round in 0..4u64 {
        let seed = base.wrapping_mul(151).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0x5A5A_0FF1);
        for strategy in random_strategies(&w, &mut rng, 2) {
            let described =
                plan_strategy_sharing(&loaded(&w, &changes), &strategy, SharingScope::Comp)
                    .unwrap();
            let mut run = loaded(&w, &changes);
            let report = run.execute(&strategy).unwrap();
            assert_eq!(described.report.per_expr.len(), report.per_expr.len());
            for (p, e) in described.report.per_expr.iter().zip(&report.per_expr) {
                assert_eq!(
                    p.work.hash_tables_built, e.work.hash_tables_built,
                    "builds diverged for {:?} (seed {seed})",
                    e.expr
                );
                assert_eq!(
                    p.work.hash_tables_reused, e.work.hash_tables_reused,
                    "reuses diverged for {:?} (seed {seed})",
                    e.expr
                );
                if p.work.hash_tables_reused > 0 {
                    reuse_ever_predicted = true;
                }
            }
        }
    }
    // The sweep always contains a dual-stage strategy over the three-way
    // join, so the description must have found real sharing somewhere —
    // otherwise this test is vacuous.
    assert!(
        reuse_ever_predicted,
        "no strategy in the sweep predicted any hash-table reuse"
    );
}

/// Randomly coalesces a valid sequential strategy into stages: every
/// expression either joins the current stage or opens a new one. The
/// linearization is always the original (valid) strategy, so the only thing
/// that can go wrong is a same-stage race.
fn random_stagings(s: &Strategy, rng: &mut SplitMix64, count: usize) -> Vec<ParallelStrategy> {
    (0..count)
        .map(|_| {
            let mut stages: Vec<Vec<UpdateExpr>> = vec![vec![s.exprs[0].clone()]];
            for e in &s.exprs[1..] {
                if rng.below(2) == 0 {
                    stages.last_mut().unwrap().push(e.clone());
                } else {
                    stages.push(vec![e.clone()]);
                }
            }
            ParallelStrategy { stages }
        })
        .collect()
}

#[test]
fn stage_race_lint_is_the_staged_executors_gate() {
    let base = seed_base();
    let (mut rejected, mut accepted) = (0usize, 0usize);
    for round in 0..3u64 {
        let seed = base.wrapping_mul(173).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0x14AC_E5D1);
        for strategy in random_strategies(&w, &mut rng, 1) {
            for p in random_stagings(&strategy, &mut rng, 4) {
                let static_clean = analyze_parallel(w.vdag(), &p.stages).is_clean();
                let mut threaded = loaded(&w, &changes);
                match threaded.execute_staged(&p, ExecOptions::default()) {
                    Err(_) => {
                        rejected += 1;
                        assert!(
                            !static_clean,
                            "executor rejected a schedule the lint passed clean (seed {seed}):\n{:?}",
                            p.stages
                        );
                    }
                    Ok(_) => {
                        accepted += 1;
                        assert!(
                            static_clean,
                            "executor ran a schedule the lint rejects (seed {seed}):\n{:?}",
                            p.stages
                        );
                        // A schedule the gate lets through matches
                        // sequential execution byte for byte.
                        let mut seq = loaded(&w, &changes);
                        seq.execute(&p.linearize()).unwrap();
                        assert_eq!(
                            catalog_to_string(seq.state()),
                            catalog_to_string(threaded.state()),
                            "threaded state diverged on a lint-clean schedule (seed {seed})"
                        );
                    }
                }
            }
        }
    }
    // The random stagings must exercise both sides of the contract.
    assert!(rejected > 0, "no staging was ever dynamically rejected");
    assert!(accepted > 0, "no staging was ever dynamically accepted");
}

#[test]
fn parallelized_schedules_run_staged_byte_identical() {
    let base = seed_base();
    for round in 0..3u64 {
        let seed = base.wrapping_mul(197).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0x0BADF00D);
        for strategy in random_strategies(&w, &mut rng, 2) {
            let g = w.vdag();
            let p = parallelize(g, &strategy);
            // The scheduler's output passes the stage-race lint...
            assert!(analyze_parallel(g, &p.stages).is_clean());
            // ...so staged execution is byte-identical to the sequential
            // linearization.
            let mut seq = loaded(&w, &changes);
            let mut par = loaded(&w, &changes);
            seq.execute(&p.linearize()).unwrap();
            par.execute_staged(&p, ExecOptions::default()).unwrap();
            assert_eq!(
                catalog_to_string(seq.state()),
                catalog_to_string(par.state()),
                "seed {seed}"
            );
        }
    }
}
