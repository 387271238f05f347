//! Multi-level VDAGs: views defined over other derived views, exercising
//! summary-delta expansion (a consumer reading ΔV of an aggregate view
//! before `Inst(V)`), level-2 maintenance, and Section 9 flattening.

use uww::core::{flatten_def, min_work, parallelize, SizeCatalog, Warehouse};
use uww::relational::{
    AggFunc, AggregateColumn, OutputColumn, Predicate, ScalarExpr, Value, ViewDef, ViewOutput,
    ViewSource,
};
use uww::scenario::TpcdScenario;
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy};

/// Level-2 aggregate over Q3: revenue per order date.
fn daily_def() -> ViewDef {
    ViewDef {
        name: "DAILY".into(),
        sources: vec![ViewSource {
            view: "Q3".into(),
            alias: "Q".into(),
        }],
        joins: vec![],
        filters: vec![],
        output: ViewOutput::Aggregate {
            group_by: vec![OutputColumn::col("day", "Q.o_orderdate")],
            aggregates: vec![AggregateColumn {
                name: "day_revenue".into(),
                func: AggFunc::Sum,
                input: ScalarExpr::col("Q.revenue"),
            }],
        },
    }
}

/// Level-2 projection over Q3: hot orders above a revenue threshold.
fn hot_def() -> ViewDef {
    ViewDef {
        name: "HOT".into(),
        sources: vec![ViewSource {
            view: "Q3".into(),
            alias: "Q".into(),
        }],
        joins: vec![],
        filters: vec![Predicate::col_gt("Q.revenue", Value::Decimal(10_000_000))],
        output: ViewOutput::Project(vec![
            OutputColumn::col("okey", "Q.l_orderkey"),
            OutputColumn::col("revenue", "Q.revenue"),
        ]),
    }
}

fn two_level_scenario() -> TpcdScenario {
    TpcdScenario::builder()
        .scale(0.0005)
        .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
        .views([uww::tpcd::q3_def(), daily_def(), hot_def()])
        .build()
        .unwrap()
}

#[test]
fn two_level_vdag_classified_correctly() {
    let sc = two_level_scenario();
    let g = sc.warehouse.vdag();
    assert_eq!(g.max_level(), 2);
    // Every derived view sits exactly one level above all its sources, so
    // the VDAG is uniform — MinWork is guaranteed optimal (Theorem 5.4).
    assert!(g.is_uniform());
    assert!(!g.is_tree()); // Q3 feeds both DAILY and HOT.
    assert_eq!(g.level(g.id_of("DAILY").unwrap()), 2);
}

#[test]
fn minwork_updates_two_level_vdag_correctly() {
    let mut sc = two_level_scenario();
    sc.load_col_changes(0.10).unwrap();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let plan = min_work(sc.warehouse.vdag(), &sizes).unwrap();
    check_vdag_strategy(sc.warehouse.vdag(), &plan.strategy).unwrap();
    sc.run(&plan.strategy).unwrap();
}

#[test]
fn dual_stage_updates_two_level_vdag_correctly() {
    let mut sc = two_level_scenario();
    sc.load_col_changes(0.10).unwrap();
    sc.run(&sc.dual_stage_strategy()).unwrap();
}

#[test]
fn insertions_flow_up_two_levels() {
    let mut sc = two_level_scenario();
    let batch = sc.uniform_batch(
        &["ORDER", "LINEITEM"],
        uww::tpcd::ChangeSpec {
            delete_frac: 0.05,
            insert_frac: 0.05,
        },
    );
    sc.load_batch(&batch).unwrap();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let plan = min_work(sc.warehouse.vdag(), &sizes).unwrap();
    sc.run(&plan.strategy).unwrap();
}

/// `base` with one to three seeded mutations, each a swap, a drop or a
/// duplicate of an expression.
fn perturbed(base: &Strategy, rng: &mut SplitMix64) -> Strategy {
    let mut exprs = base.exprs.clone();
    for _ in 0..1 + rng.below(3) {
        let i = rng.below(exprs.len() as u64) as usize;
        let j = rng.below(exprs.len() as u64) as usize;
        match rng.below(3) {
            0 => exprs.swap(i, j),
            1 => {
                exprs.remove(i);
            }
            _ => exprs.insert(j, exprs[i].clone()),
        }
    }
    Strategy::from_exprs(exprs)
}

#[test]
fn every_perturbed_strategy_the_checker_accepts_recomputes_the_views() {
    // C7/C8 held to the recompute oracle, not to another checker: whatever
    // `check_vdag_strategy` lets through must leave every view equal to a
    // from-scratch rebuild.
    let mut sc = two_level_scenario();
    sc.load_col_changes(0.10).unwrap();
    let expected = sc.warehouse.expected_final_state().unwrap();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let min_work = min_work(sc.warehouse.vdag(), &sizes).unwrap().strategy;
    let (mut accepted, mut rejected) = (0, 0);
    for (seed, base) in [(1, min_work), (2, sc.dual_stage_strategy())] {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..150 {
            let s = perturbed(&base, &mut rng);
            if check_vdag_strategy(sc.warehouse.vdag(), &s).is_err() {
                rejected += 1;
                continue;
            }
            accepted += 1;
            let mut w = sc.warehouse.clone();
            w.execute(&s).unwrap();
            let diffs = w.diff_state(&expected);
            assert!(
                diffs.is_empty(),
                "{} diverges on {diffs:?}",
                s.display(w.vdag())
            );
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn parallelized_strategy_matches_sequential_on_two_levels() {
    let mut sc = two_level_scenario();
    sc.load_col_changes(0.10).unwrap();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let plan = min_work(sc.warehouse.vdag(), &sizes).unwrap();
    let p = parallelize(sc.warehouse.vdag(), &plan.strategy);
    assert!(p.depth() <= plan.strategy.len());

    let mut w = sc.warehouse.clone();
    let expected = w.expected_final_state().unwrap();
    w.execute(&p.linearize()).unwrap();
    assert!(w.diff_state(&expected).is_empty());
}

#[test]
fn flattened_view_materializes_identically() {
    // Chain: bases -> P (projection over LINEITEM) -> W (aggregate over P).
    let p_def = ViewDef {
        name: "P".into(),
        sources: vec![ViewSource {
            view: "LINEITEM".into(),
            alias: "L".into(),
        }],
        joins: vec![],
        filters: vec![Predicate::col_eq("L.l_returnflag", Value::str("R"))],
        output: ViewOutput::Project(vec![
            OutputColumn::col("okey", "L.l_orderkey"),
            OutputColumn::new(
                "rev",
                ScalarExpr::col("L.l_extendedprice")
                    .mul(ScalarExpr::lit(Value::Decimal(100)).sub(ScalarExpr::col("L.l_discount"))),
            ),
        ]),
    };
    let w_def = ViewDef {
        name: "W".into(),
        sources: vec![ViewSource {
            view: "P".into(),
            alias: "P".into(),
        }],
        joins: vec![],
        filters: vec![],
        output: ViewOutput::Aggregate {
            group_by: vec![OutputColumn::col("okey", "P.okey")],
            aggregates: vec![AggregateColumn {
                name: "total".into(),
                func: AggFunc::Sum,
                input: ScalarExpr::col("P.rev"),
            }],
        },
    };
    let flat_w = flatten_def(&w_def, &p_def).unwrap();
    assert_eq!(flat_w.source_views(), vec!["LINEITEM"]);

    let data = uww::tpcd::TpcdGenerator::new(uww::tpcd::TpcdConfig::at_scale(0.0005)).generate();
    let chained = Warehouse::builder()
        .base_table(data.get("LINEITEM").unwrap().clone())
        .view(p_def)
        .view(w_def)
        .build()
        .unwrap();
    let flattened = Warehouse::builder()
        .base_table(data.get("LINEITEM").unwrap().clone())
        .view(flat_w)
        .build()
        .unwrap();
    assert!(chained
        .table("W")
        .unwrap()
        .same_contents(flattened.table("W").unwrap()));
    // Flattening removes a level.
    assert_eq!(chained.vdag().max_level(), 2);
    assert_eq!(flattened.vdag().max_level(), 1);
}

#[test]
fn flattened_vdag_maintains_correctly_and_parallelizes_wider() {
    // The Section 9 trade-off, end to end: flattening removes the C8
    // dependency, widening the parallel schedule, at the price of more
    // total work for the flattened view's comps.
    let p_def = ViewDef {
        name: "P".into(),
        sources: vec![ViewSource {
            view: "LINEITEM".into(),
            alias: "L".into(),
        }],
        joins: vec![],
        filters: vec![Predicate::col_eq("L.l_returnflag", Value::str("R"))],
        output: ViewOutput::Project(vec![
            OutputColumn::col("okey", "L.l_orderkey"),
            OutputColumn::col("price", "L.l_extendedprice"),
        ]),
    };
    let w_def = ViewDef {
        name: "W".into(),
        sources: vec![ViewSource {
            view: "P".into(),
            alias: "P".into(),
        }],
        joins: vec![],
        filters: vec![],
        output: ViewOutput::Aggregate {
            group_by: vec![OutputColumn::col("okey", "P.okey")],
            aggregates: vec![AggregateColumn {
                name: "total".into(),
                func: AggFunc::Sum,
                input: ScalarExpr::col("P.price"),
            }],
        },
    };
    let flat = flatten_def(&w_def, &p_def).unwrap();

    let data = uww::tpcd::TpcdGenerator::new(uww::tpcd::TpcdConfig::at_scale(0.0005)).generate();
    let build = |defs: Vec<ViewDef>| {
        Warehouse::builder()
            .base_table(data.get("LINEITEM").unwrap().clone())
            .base_table(data.get("ORDER").unwrap().clone())
            .view_all(defs)
            .build()
            .unwrap()
    };
    let mut chained = build(vec![p_def.clone(), w_def.clone()]);
    let mut flattened = build(vec![p_def, flat]);

    // Same deletions on LINEITEM for both.
    let mut delta =
        uww::relational::DeltaRelation::new(chained.table("LINEITEM").unwrap().schema().clone());
    for (i, (t, _)) in chained
        .table("LINEITEM")
        .unwrap()
        .sorted_rows()
        .iter()
        .enumerate()
    {
        if i % 10 == 0 {
            delta.add(t.clone(), -1);
        }
    }
    let changes: std::collections::BTreeMap<_, _> =
        [("LINEITEM".to_string(), delta)].into_iter().collect();
    chained.load_changes(changes.clone()).unwrap();
    flattened.load_changes(changes).unwrap();

    for w in [&mut chained, &mut flattened] {
        let sizes = SizeCatalog::estimate(w).unwrap();
        let plan = min_work(w.vdag(), &sizes).unwrap();
        let expected = w.expected_final_state().unwrap();
        w.execute(&plan.strategy).unwrap();
        assert!(w.diff_state(&expected).is_empty());
    }
    // Both warehouses agree on W's content.
    assert!(chained
        .table("W")
        .unwrap()
        .same_contents(flattened.table("W").unwrap()));
}
