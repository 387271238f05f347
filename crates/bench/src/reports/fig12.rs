//! Regenerates **Figure 12** (Experiment 1): all 13 strategy classes for
//! the Q3 view, run against identical warehouse state; 10% deletions on
//! CUSTOMER, ORDER, LINEITEM.

use uww::core::{CostModel, SizeCatalog};
use uww::vdag::view_strategies;
use uww_bench::{
    bench_scale, grouping_label, measure, minwork_single_strategy, print_rows, q3_with_changes,
    strategy_kind, ReportRow,
};

pub fn run() {
    let sc = q3_with_changes(0.10);
    println!(
        "scale={} (LINEITEM = {} rows)\n",
        bench_scale(),
        sc.warehouse.table("LINEITEM").unwrap().len()
    );
    let g = sc.warehouse.vdag();
    let q3 = g.id_of("Q3").unwrap();
    let n = g.sources(q3).len();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let model = CostModel::new(g, &sizes);

    let mws = minwork_single_strategy(&sc);
    let mut rows: Vec<ReportRow> = Vec::new();
    for s in view_strategies(g, q3) {
        let full = sc.complete_strategy(&s);
        let mut label = grouping_label(&sc, &s);
        if full == mws {
            label.push_str("  <- MinWorkSingle");
        }
        rows.push(measure(&sc, &model, &label, strategy_kind(&s, n), &full));
    }
    print_rows(
        "Figure 12: Q3 view strategies (13 classes)",
        "1-way strategies cheapest; dual-stage 46.25s vs best 20.91s (2.2x); \
         MinWorkSingle very close to optimal",
        rows,
    );
}
