//! Regenerates **Figure 14** (Experiment 3): Q3 update window for
//! MinWorkSingle, the best 2-way strategy, and the dual-stage strategy, as
//! the deletion percentage on CUSTOMER, ORDER and LINEITEM sweeps 2%..10%.

use uww::vdag::{view_strategies, UpdateExpr};
use uww_bench::{bench_scale, minwork_single_strategy, q3_with_changes, strategy_kind};

pub fn run() {
    println!("== Figure 14: Q3 strategies under different change percentages ==");
    println!("   paper: MinWorkSingle < Best2Way < dual-stage over the whole 2..10% sweep");
    println!("scale={}\n", bench_scale());
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>22}",
        "p%", "MinWorkSingle", "Best2Way", "dual-stage", "(measured work rows)"
    );

    let mut ok = true;
    for p in [2, 4, 6, 8, 10] {
        let sc = q3_with_changes(p as f64 / 100.0);
        let g = sc.warehouse.vdag();
        let q3 = g.id_of("Q3").unwrap();
        let n = g.sources(q3).len();

        let mws = sc.run(&minwork_single_strategy(&sc)).unwrap().linear_work();

        let mut best_2way = u64::MAX;
        let mut dual = 0u64;
        for s in view_strategies(g, q3) {
            let kind = strategy_kind(&s, n);
            let has_pair = s
                .exprs
                .iter()
                .any(|e| matches!(e, UpdateExpr::Comp { over, .. } if over.len() == 2));
            if kind == "dual-stage" {
                dual = sc.run(&sc.complete_strategy(&s)).unwrap().linear_work();
            } else if has_pair {
                let w = sc.run(&sc.complete_strategy(&s)).unwrap().linear_work();
                best_2way = best_2way.min(w);
            }
        }
        ok &= mws <= best_2way && best_2way <= dual;
        println!("{p:>4} {mws:>14} {best_2way:>14} {dual:>14}");
    }
    println!(
        "\nFigure 14 {}: MinWorkSingle <= Best2Way <= dual-stage at every p.",
        if ok { "REPRODUCED" } else { "MISMATCH" }
    );
    assert!(ok);
}
