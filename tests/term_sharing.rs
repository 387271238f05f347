//! Property tests for the shared-operand term engine against its reference:
//! over random warehouses × random valid strategies, every `Comp` the engine
//! journals must carry the byte-identical ΔV fragment, and report the
//! *identical logical* `WorkMeter`, that the uncached per-term evaluator
//! (`eval::reference_comp_fragment`) computes from the same state — while
//! the engine touches no more physical rows — and the final state must equal
//! the from-scratch recompute.
//!
//! Seeded like the crash matrix: set `UWW_TERM_SEED` to shift the whole
//! sweep to a different deterministic slice.

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::engine::eval::reference_comp_fragment;
use uww::core::wal::{encode_pending, RecordBody};
use uww::core::{
    all_one_way_vdag_strategies, ExecOptions, ExecutionReport, FsyncPolicy, WalConfig, WalLog,
    Warehouse,
};
use uww::relational::{
    catalog_to_string, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, Predicate,
    ScalarExpr, Schema, Table, Tuple, Value, ValueType, ViewDef, ViewOutput, ViewSource, WorkMeter,
};
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

fn seed_base() -> u64 {
    std::env::var("UWW_TERM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-term-{tag}-{}-{}",
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

/// A random warehouse biased toward multi-source views, so dual-stage
/// strategies produce `Comp`s with up to `2^3 − 1` terms: three bases, one
/// guaranteed three-way join, plus 1–2 random filter/aggregate/join views.
/// Every base gets a random deletion+insertion batch, so no term is skipped
/// for an empty delta.
fn random_warehouse(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x7E57));
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

    // The tentpole case: a three-way join whose dual-stage Comp expands to
    // seven terms sharing three operands in both roles.
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

/// One strategy run both ways: the engine's report, and the reference
/// evaluator's summed meter over the same `Comp`s.
struct Differential {
    shared: ExecutionReport,
    reference: WorkMeter,
}

/// Runs `strategy` journaled through the engine, then steps a shadow
/// warehouse through it one expression at a time: before each `Comp` the
/// reference evaluator computes the fragment from the shadow's state, which
/// must equal the engine's journaled `CD` payload byte for byte and its
/// logical meter counter for counter.
fn run_against_reference(
    w: &Warehouse,
    changes: &BTreeMap<String, DeltaRelation>,
    strategy: &Strategy,
    tag: &str,
) -> Differential {
    let mut engine = w.clone();
    engine.load_changes(changes.clone()).unwrap();
    let mut shadow = engine.clone();
    let expected = engine.expected_final_state().unwrap();

    let dir = wal_dir(tag);
    let opts = ExecOptions {
        wal: Some(WalConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        ..ExecOptions::default()
    };
    let shared = engine.execute_with(strategy, opts).unwrap();
    let log = WalLog::open(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let journaled: BTreeMap<usize, &String> = log
        .records
        .iter()
        .filter_map(|r| match &r.body {
            RecordBody::CompDone { idx, payload, .. } => Some((*idx, payload)),
            _ => None,
        })
        .collect();
    assert!(
        engine.diff_state(&expected).is_empty(),
        "engine state diverged from the recompute"
    );

    let mut reference = WorkMeter::new();
    assert_eq!(shared.per_expr.len(), strategy.len());
    for (idx, expr) in strategy.exprs.iter().enumerate() {
        if let UpdateExpr::Comp { view, over } = expr {
            let (fragment, mut meter) = reference_comp_fragment(&shadow, *view, over).unwrap();
            assert_eq!(
                journaled[&idx],
                &encode_pending(&fragment),
                "CD payload diverged at {expr:?}"
            );
            meter.comp_expressions = 1;
            assert_eq!(
                meter.logical(),
                shared.per_expr[idx].work.logical(),
                "logical meter diverged at {expr:?}"
            );
            reference.absorb(&meter);
        }
        let step = ExecOptions {
            validate: false,
            ..ExecOptions::default()
        };
        shadow
            .execute_with(&Strategy::from_exprs(vec![expr.clone()]), step)
            .unwrap();
    }
    assert_eq!(
        catalog_to_string(shadow.state()),
        catalog_to_string(engine.state())
    );
    Differential { shared, reference }
}

#[test]
fn shared_term_evaluation_is_byte_identical_to_the_per_term_reference() {
    let base = seed_base();
    let mut shared_ever_cheaper = false;
    for round in 0..4u64 {
        let seed = base.wrapping_mul(131).wrapping_add(round);
        let (w, changes) = random_warehouse(seed);
        let mut rng = SplitMix64::new(seed ^ 0xABCD_EF01);
        for (si, strategy) in random_strategies(&w, &mut rng, 2).iter().enumerate() {
            let d = run_against_reference(&w, &changes, strategy, &format!("{round}-{si}"));
            // Sharing never touches more rows than re-scanning per term.
            let phys_shared = d.shared.total_work().physical_rows_touched;
            let phys_reference = d.reference.physical_rows_touched;
            assert!(
                phys_shared <= phys_reference,
                "shared touched more rows: {phys_shared} > {phys_reference}"
            );
            if phys_shared < phys_reference {
                shared_ever_cheaper = true;
            }
        }
    }
    // The sweep always contains a dual-stage strategy over the three-way
    // join, so sharing must have paid off somewhere.
    assert!(
        shared_ever_cheaper,
        "operand sharing never reduced physical rows across the sweep"
    );
}

#[test]
fn shared_engine_counts_hash_table_reuse() {
    // Deterministic single case sized so the build-on-smaller-side rule
    // repeatedly picks the *same pure operand* as build side: deltas are an
    // order of magnitude larger than stored operands, so by the time the
    // greedy order reaches ΔB2 the intermediate has fanned out past it in
    // several terms of Comp(J, {B0,B1,B2}). The shared engine must intern
    // that table and report reuses; the per-term reference reports none.
    let schema = Schema::of(COLS);
    let mut builder = Warehouse::builder();
    for (b, dup) in [(0usize, 4i64), (1, 2), (2, 2)] {
        let name = format!("B{b}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..5i64 {
            for j in 0..dup {
                t.insert(Tuple::new(vec![
                    Value::Int(k),
                    Value::Int(j),
                    Value::Int(0),
                ]))
                .unwrap();
            }
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
        })
        .build()
        .unwrap();
    let mut changes: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for b in 0..3 {
        let mut delta = DeltaRelation::new(schema.clone());
        for k in 0..5i64 {
            for j in 0..20i64 {
                delta.add(
                    Tuple::new(vec![Value::Int(k), Value::Int(100 + j), Value::Int(1)]),
                    1,
                );
            }
        }
        changes.insert(format!("B{b}"), delta);
    }
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
    let dual = Strategy::from_exprs(dual);
    check_vdag_strategy(g, &dual).unwrap();

    let d = run_against_reference(&w, &changes, &dual, "reuse");
    let shared = d.shared.total_work();
    assert_eq!(d.reference.hash_tables_reused, 0);
    assert!(shared.hash_tables_reused > 0);
    assert!(shared.hash_tables_built < d.reference.hash_tables_built);
    // Seven terms re-scan each operand four times without sharing.
    let ratio = d.reference.physical_rows_touched as f64 / shared.physical_rows_touched as f64;
    assert!(ratio >= 1.5, "physical reduction {ratio:.2}x < 1.5x");
}
