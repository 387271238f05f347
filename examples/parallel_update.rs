//! Section 9: parallel update strategies.
//!
//! Demonstrates the total-work vs makespan trade-off the paper sketches:
//! 1-way strategies minimize total work but chain their dependencies, while
//! dual-stage strategies parallelize into shallow schedules at the price of
//! more work. Also shows VDAG flattening removing a C8 dependency.
//!
//! Run with: `cargo run --release --example parallel_update`

use uww::core::{
    flatten_def, makespan, min_work, parallelize, total_work, CostModel, ExecOptions, SizeCatalog,
    Warehouse,
};
use uww::relational::{
    AggFunc, AggregateColumn, OutputColumn, Predicate, ScalarExpr, Value, ViewDef, ViewOutput,
    ViewSource,
};
use uww::scenario::figure4_scenario;
use uww::vdag::dual_stage_strategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sc = figure4_scenario(0.001)?;
    sc.load_paper_changes(0.10)?;
    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse)?;
    let model = CostModel::new(g, &sizes);

    let plan = min_work(g, &sizes)?;
    let p_one_way = parallelize(g, &plan.strategy);
    let p_dual = parallelize(g, &dual_stage_strategy(g));

    println!(
        "{:<12} {:>8} {:>8} {:>14} {:>14}",
        "strategy", "exprs", "stages", "total work", "makespan"
    );
    for (label, p) in [("MinWork", &p_one_way), ("dual-stage", &p_dual)] {
        println!(
            "{:<12} {:>8} {:>8} {:>14.0} {:>14.0}",
            label,
            p.expression_count(),
            p.depth(),
            total_work(&model, p),
            makespan(&model, p)
        );
    }
    println!(
        "\nDual-stage exposes {}x more parallelism (stage depth {} vs {}),",
        p_one_way.depth() / p_dual.depth().max(1),
        p_dual.depth(),
        p_one_way.depth()
    );
    println!(
        "but incurs {:.1}x the total work — the paper's Section 9 trade-off.",
        total_work(&model, &p_dual) / total_work(&model, &p_one_way)
    );

    // Both parallel schedules still produce the correct state.
    for p in [&p_one_way, &p_dual] {
        let mut w = sc.warehouse.clone();
        let expected = w.expected_final_state()?;
        w.execute_staged(p, ExecOptions::default())?;
        assert!(w.diff_state(&expected).is_empty());
    }
    println!("Both parallel schedules verified against a from-scratch rebuild.");

    // --- Flattening demo -------------------------------------------------
    // P projects returned lineitems; W aggregates P. Flattening W removes
    // the Comp(W,{P}) -> Comp(P,{LINEITEM}) dependency.
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
    let flat = flatten_def(&w_def, &p_def)?;
    println!("\nFlattening W over P:");
    println!("  before: W defined over {:?}", w_def.source_views());
    println!("  after : W defined over {:?}", flat.source_views());

    let lineitem = sc.warehouse.table("LINEITEM")?.clone();
    let chained = Warehouse::builder()
        .base_table(lineitem.clone())
        .view(p_def.clone())
        .view(w_def)
        .build()?;
    let sizes_c = SizeCatalog::estimate(&chained)?;
    let plan_c = min_work(chained.vdag(), &sizes_c)?;
    let depth_chained = parallelize(chained.vdag(), &plan_c.strategy).depth();

    let flattened = Warehouse::builder()
        .base_table(lineitem)
        .view(p_def)
        .view(flat)
        .build()?;
    let sizes_f = SizeCatalog::estimate(&flattened)?;
    let plan_f = min_work(flattened.vdag(), &sizes_f)?;
    let depth_flat = parallelize(flattened.vdag(), &plan_f.strategy).depth();
    println!(
        "  parallel depth: {} (chained) vs {} (flattened)",
        depth_chained, depth_flat
    );
    Ok(())
}
