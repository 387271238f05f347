//! Cross-`Comp` sharing report: proves the window-scope operand store and
//! the sharing-aware planner objective on two workloads.
//!
//! **Figure-4 warehouse** (all TPC-D summary views, paper change batch):
//! the MinWork strategy is executed with the store at per-`Comp` scope and
//! at window scope. The final state and the logical (paper-metric)
//! `WorkMeter` must be identical at both scopes; the window scope must record
//! cross-expression hash-table reuses (> 0) and cached raw reads, touch no
//! more physical rows than the per-`Comp` scope, and match what
//! `plan_strategy_sharing` — called here, offline; no window calls it —
//! predicts *exactly*, counter by counter, expression by expression.
//! `MinWorkShared`'s choice must cost no more than MinWork's under the
//! objective the planner minimises, `strategy_work − cross_share_saving`;
//! that objective does not bound physical rows, so none is asserted.
//!
//! **Objective fixture** (`V1 = A ⋈ B`, `V2 = B ⋈ C`, delta sizes chosen
//! so the linear and shared rankings disagree — see
//! `tests/planner_objective.rs`): `MinWorkShared` must select a different
//! strategy than plain MinWork, strictly cheaper under its objective, and
//! on this fixture the flip also pays off in *measured* physical rows,
//! strictly.
//!
//! Violations abort the run, so this binary doubles as a CI smoke check.
//! Output: a summary on stdout plus `BENCH_cross_sharing.json` in the
//! current directory. Scale comes from `UWW_SCALE` (default 0.002).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use uww::core::{
    min_work, min_work_shared, plan_strategy_sharing, CostModel, ExecOptions, SharingScope,
    SizeCatalog, StrategySharingPlan, Warehouse,
};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Schema, Table, Tuple, Value,
    ValueType, ViewDef, ViewOutput, ViewSource, WorkMeter,
};
use uww::vdag::Strategy;
use uww_bench::{bench_scale, figure4_with_changes};

struct Run {
    work: WorkMeter,
    per_expr: Vec<WorkMeter>,
    state: String,
    wall_us: u128,
}

fn run(w: &Warehouse, strategy: &Strategy, cache: bool) -> Run {
    let mut clone = w.clone();
    let opts = ExecOptions {
        strategy_sharing: cache,
        ..ExecOptions::default()
    };
    let start = Instant::now();
    let report = clone.execute_with(strategy, opts).expect("execute");
    let wall_us = start.elapsed().as_micros();
    Run {
        work: report.total_work(),
        per_expr: report.per_expr.iter().map(|e| e.work).collect(),
        state: catalog_to_string(clone.state()),
        wall_us,
    }
}

/// Asserts predicted == measured for every hash-table counter of every
/// expression — the conformance gate, no tolerance.
fn assert_conformant(tag: &str, plan: &StrategySharingPlan, run: &Run) {
    assert_eq!(
        plan.exprs.len(),
        run.per_expr.len(),
        "{tag}: expression count"
    );
    for (i, (p, m)) in plan.exprs.iter().zip(run.per_expr.iter()).enumerate() {
        assert_eq!(
            p.plan.predicted_builds, m.hash_tables_built,
            "{tag} expr {i} ({}): builds diverged",
            p.view
        );
        assert_eq!(
            p.plan.predicted_reuses, m.hash_tables_reused,
            "{tag} expr {i} ({}): reuses diverged",
            p.view
        );
        assert_eq!(
            p.plan.cross_reuses, m.hash_tables_cross_reused,
            "{tag} expr {i} ({}): cross-reuses diverged",
            p.view
        );
        assert_eq!(
            p.plan.cached_reads, m.operand_reads_cached,
            "{tag} expr {i} ({}): cached reads diverged",
            p.view
        );
    }
}

// ---------------------------------------------------------------------------
// The objective fixture (mirrors tests/planner_objective.rs)
// ---------------------------------------------------------------------------

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

fn base(name: &str, rows: i64) -> Table {
    let mut t = Table::new(name, Schema::of(COLS));
    for k in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(k % 20),
            Value::Int(k),
            Value::Int(k % 3),
        ]))
        .unwrap();
    }
    t
}

fn join2(name: &str, a: (&str, &str), b: (&str, &str)) -> ViewDef {
    ViewDef {
        name: name.into(),
        sources: vec![
            ViewSource {
                view: a.0.into(),
                alias: a.1.into(),
            },
            ViewSource {
                view: b.0.into(),
                alias: b.1.into(),
            },
        ],
        joins: vec![EquiJoin::new(format!("{}.k", a.1), format!("{}.k", b.1))],
        filters: vec![],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", format!("{}.k", a.1)),
            OutputColumn::col("v", format!("{}.v", a.1)),
            OutputColumn::col("g", format!("{}.v", b.1)),
        ]),
    }
}

fn inserts(rows: i64, v_base: i64) -> DeltaRelation {
    let mut delta = DeltaRelation::new(Schema::of(COLS));
    for i in 0..rows {
        delta.add(
            Tuple::new(vec![
                Value::Int(i % 20),
                Value::Int(v_base + i),
                Value::Int(i % 3),
            ]),
            1,
        );
    }
    delta
}

fn objective_fixture() -> Warehouse {
    let mut w = Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 50))
        .view(join2("V1", ("A", "A"), ("B", "B")))
        .view(join2("V2", ("B", "B"), ("C", "C")))
        .build()
        .unwrap();
    let changes = BTreeMap::from([
        ("A".to_string(), inserts(25, 500)),
        ("B".to_string(), inserts(30, 600)),
        ("C".to_string(), inserts(40, 700)),
    ]);
    w.load_changes(changes).unwrap();
    w
}

fn main() {
    let scale = bench_scale();
    println!("Cross-Comp sharing report (figure-4 warehouse, scale = {scale})");

    // -- Figure-4 warehouse ------------------------------------------------
    let sc = figure4_with_changes(0.10);
    let w = &sc.warehouse;
    let sizes = SizeCatalog::estimate(w).expect("sizes");
    let strategy = min_work(w.vdag(), &sizes).expect("min_work").strategy;

    let percomp = run(w, &strategy, false);
    let strat = run(w, &strategy, true);

    assert_eq!(percomp.state, strat.state, "fig4: state diverged");
    assert_eq!(
        percomp.work.logical(),
        strat.work.logical(),
        "fig4: logical work moved"
    );
    assert!(
        strat.work.physical_rows_touched <= percomp.work.physical_rows_touched,
        "fig4: strategy cache touched more rows than per-Comp"
    );
    assert!(
        strat.work.hash_tables_built <= percomp.work.hash_tables_built,
        "fig4: strategy cache built more tables than per-Comp"
    );
    assert!(
        strat.work.hash_tables_cross_reused > 0,
        "fig4: strategy cache served no cross-expression reuse"
    );

    let plan = plan_strategy_sharing(w, &strategy, SharingScope::Strategy).expect("plan");
    assert_conformant("fig4", &plan, &strat);

    let model = CostModel::new(w.vdag(), &sizes);
    let outcome = min_work_shared(w, &model).expect("min_work_shared");
    let fig4_chosen = run(w, &outcome.strategy, true);
    assert_eq!(
        percomp.state, fig4_chosen.state,
        "fig4: shared choice diverged"
    );
    // What the planner promises: its choice is no worse than the plain
    // winner's under the objective it minimises.
    let baseline_plan =
        plan_strategy_sharing(w, &outcome.baseline, SharingScope::Strategy).expect("baseline plan");
    let baseline_objective =
        outcome.baseline_cost - model.cross_share_saving(baseline_plan.cross_saved_rows());
    assert!(
        outcome.cost <= baseline_objective + 1e-9,
        "fig4: MinWorkShared's objective {} exceeds MinWork's {baseline_objective}",
        outcome.cost
    );

    let ratio = percomp.work.physical_rows_touched as f64 / strat.work.physical_rows_touched as f64;
    println!(
        "  physical rows: per-Comp {} | strategy {} ({ratio:.2}x vs per-Comp)",
        percomp.work.physical_rows_touched, strat.work.physical_rows_touched,
    );
    println!(
        "  hash tables:   per-Comp {} built / {} reused | strategy {} built / {} reused ({} cross) | {} cached reads",
        percomp.work.hash_tables_built,
        percomp.work.hash_tables_reused,
        strat.work.hash_tables_built,
        strat.work.hash_tables_reused,
        strat.work.hash_tables_cross_reused,
        strat.work.operand_reads_cached,
    );
    println!(
        "  MinWorkShared: differs = {} (saving {:.0} rows priced; measured {} vs {})",
        outcome.differs,
        outcome.cross_saving,
        fig4_chosen.work.physical_rows_touched,
        strat.work.physical_rows_touched,
    );

    // -- Objective fixture -------------------------------------------------
    let fx = objective_fixture();
    let fx_sizes = SizeCatalog::estimate(&fx).expect("fixture sizes");
    let fx_model = CostModel::new(fx.vdag(), &fx_sizes);
    let fx_outcome = min_work_shared(&fx, &fx_model).expect("fixture min_work_shared");
    assert!(
        fx_outcome.differs,
        "fixture: MinWorkShared must flip away from plain MinWork"
    );
    let fx_plan = plan_strategy_sharing(&fx, &fx_outcome.baseline, SharingScope::Strategy)
        .expect("fixture baseline plan");
    let fx_baseline_objective =
        fx_outcome.baseline_cost - fx_model.cross_share_saving(fx_plan.cross_saved_rows());
    assert!(
        fx_outcome.cost < fx_baseline_objective,
        "fixture: the flip must be strictly cheaper under the shared objective"
    );
    let fx_chosen = run(&fx, &fx_outcome.strategy, true);
    let fx_base = run(&fx, &fx_outcome.baseline, true);
    assert_eq!(
        fx_chosen.state, fx_base.state,
        "fixture: strategies diverged"
    );
    assert!(
        fx_chosen.work.physical_rows_touched < fx_base.work.physical_rows_touched,
        "fixture: the flip must strictly reduce measured physical rows"
    );
    println!(
        "  objective fixture: flip confirmed — measured physical {} (shared choice) < {} (MinWork), priced saving {:.0}",
        fx_chosen.work.physical_rows_touched,
        fx_base.work.physical_rows_touched,
        fx_outcome.cross_saving,
    );

    // -- JSON --------------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {scale},");
    json.push_str("  \"fig4\": {\n");
    let _ = writeln!(
        json,
        "    \"physical_rows_per_comp\": {},",
        percomp.work.physical_rows_touched
    );
    let _ = writeln!(
        json,
        "    \"physical_rows_strategy\": {},",
        strat.work.physical_rows_touched
    );
    let _ = writeln!(json, "    \"physical_reduction_vs_per_comp\": {ratio:.4},");
    let _ = writeln!(
        json,
        "    \"hash_builds_per_comp\": {},",
        percomp.work.hash_tables_built
    );
    let _ = writeln!(
        json,
        "    \"hash_builds_strategy\": {},",
        strat.work.hash_tables_built
    );
    let _ = writeln!(
        json,
        "    \"hash_cross_reuses\": {},",
        strat.work.hash_tables_cross_reused
    );
    let _ = writeln!(
        json,
        "    \"operand_reads_cached\": {},",
        strat.work.operand_reads_cached
    );
    let _ = writeln!(
        json,
        "    \"predicted_cross_reuses\": {},",
        plan.cross_reuses()
    );
    let _ = writeln!(
        json,
        "    \"predicted_cached_reads\": {},",
        plan.cached_reads()
    );
    let _ = writeln!(
        json,
        "    \"cross_saved_rows\": {},",
        plan.cross_saved_rows()
    );
    let _ = writeln!(json, "    \"logical_identical\": true,");
    let _ = writeln!(json, "    \"states_identical\": true,");
    let _ = writeln!(json, "    \"minwork_shared_differs\": {},", outcome.differs);
    let _ = writeln!(
        json,
        "    \"shared_objective_chosen\": {:.2},",
        outcome.cost
    );
    let _ = writeln!(
        json,
        "    \"shared_objective_baseline\": {baseline_objective:.2},"
    );
    let _ = writeln!(
        json,
        "    \"physical_rows_shared_choice\": {},",
        fig4_chosen.work.physical_rows_touched
    );
    let _ = writeln!(json, "    \"wall_us_per_comp\": {},", percomp.wall_us);
    let _ = writeln!(json, "    \"wall_us_strategy\": {}", strat.wall_us);
    json.push_str("  },\n");
    json.push_str("  \"objective_fixture\": {\n");
    let _ = writeln!(json, "    \"differs\": {},", fx_outcome.differs);
    let _ = writeln!(
        json,
        "    \"linear_cost_chosen\": {:.2},",
        fx_outcome.linear_cost
    );
    let _ = writeln!(
        json,
        "    \"linear_cost_baseline\": {:.2},",
        fx_outcome.baseline_cost
    );
    let _ = writeln!(
        json,
        "    \"cross_saving\": {:.2},",
        fx_outcome.cross_saving
    );
    let _ = writeln!(json, "    \"shared_cost\": {:.2},", fx_outcome.cost);
    let _ = writeln!(
        json,
        "    \"shared_cost_baseline\": {fx_baseline_objective:.2},"
    );
    let _ = writeln!(
        json,
        "    \"physical_rows_chosen\": {},",
        fx_chosen.work.physical_rows_touched
    );
    let _ = writeln!(
        json,
        "    \"physical_rows_baseline\": {},",
        fx_base.work.physical_rows_touched
    );
    let _ = writeln!(json, "    \"strictly_lower\": true");
    json.push_str("  }\n}\n");

    std::fs::write("BENCH_cross_sharing.json", &json).expect("write BENCH_cross_sharing.json");
    println!("\nWrote BENCH_cross_sharing.json");
}
