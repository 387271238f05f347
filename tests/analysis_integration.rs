//! End-to-end regression tests for the rule-coded strategy checker.
//!
//! The contract across the stack: a parallel schedule the analyzer passes
//! clean (no `UWW001` race, no sequential defect in its linearization) is
//! safe to run on the threaded executor — it passes the dynamic checks and
//! produces exactly the same final state as sequential execution.

use uww::core::{min_work, parallelize, ExecOptions, SizeCatalog};
use uww::scenario::TpcdScenario;
use uww::vdag::{analyze, analyze_parallel, check_vdag_strategy};

fn q3_scenario() -> TpcdScenario {
    let mut sc = TpcdScenario::builder()
        .scale(0.0005)
        .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
        .views([uww::tpcd::q3_def()])
        .build()
        .unwrap();
    sc.load_col_changes(0.10).unwrap();
    sc
}

#[test]
fn clean_parallel_strategy_linearizes_and_executes_identically() {
    let sc = q3_scenario();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let plan = min_work(sc.warehouse.vdag(), &sizes).unwrap();
    let p = parallelize(sc.warehouse.vdag(), &plan.strategy);

    // The analyzer passes the schedule clean, both in parallel form and as
    // its linearization...
    let report = analyze_parallel(sc.warehouse.vdag(), &p.stages);
    assert!(report.is_clean(), "{}", report.render_text());
    let linear = p.linearize();
    assert!(analyze(sc.warehouse.vdag(), &linear).is_clean());

    // ...so the dynamic checker accepts the linearization...
    check_vdag_strategy(sc.warehouse.vdag(), &linear).unwrap();

    // ...and threaded and sequential execution agree with each other and
    // with the from-scratch rebuild.
    let mut seq = sc.warehouse.clone();
    let mut par = sc.warehouse.clone();
    let expected = seq.expected_final_state().unwrap();
    let seq_report = seq.execute(&p.linearize()).unwrap();
    let par_report = par.execute_staged(&p, ExecOptions::default()).unwrap();
    assert!(seq.diff_state(&expected).is_empty());
    assert!(par.diff_state(&expected).is_empty());
    assert!(seq
        .table("Q3")
        .unwrap()
        .same_contents(par.table("Q3").unwrap()));
    assert_eq!(
        seq_report.total_work().rows_installed,
        par_report.total_work().rows_installed
    );
}

#[test]
fn planner_strategies_lint_clean_for_tpcd() {
    // Acceptance bar: every planner-produced MinWork strategy for the TPC-D
    // VDAG lints clean, with changes loaded and without.
    for loaded in [false, true] {
        let mut sc = TpcdScenario::builder()
            .scale(0.0005)
            .views(uww::tpcd::all_query_defs())
            .build()
            .unwrap();
        if loaded {
            sc.load_paper_changes(0.10).unwrap();
        }
        let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
        let plan = min_work(sc.warehouse.vdag(), &sizes).unwrap();
        let report = analyze(sc.warehouse.vdag(), &plan.strategy);
        assert!(
            report.is_clean(),
            "loaded={loaded}:\n{}",
            report.render_text()
        );
        // And the parallelized form is race-free.
        let p = parallelize(sc.warehouse.vdag(), &plan.strategy);
        let report = analyze_parallel(sc.warehouse.vdag(), &p.stages);
        assert!(
            report.is_clean(),
            "loaded={loaded}:\n{}",
            report.render_text()
        );
    }
}
