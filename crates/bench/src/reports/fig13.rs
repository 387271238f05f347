//! Regenerates **Figure 13** (Experiment 2): the Q5 view (defined over all
//! six base views) under the MinWorkSingle strategy vs the dual-stage
//! strategy; 10% deletions on every base view but REGION.

use uww::core::{CostModel, SizeCatalog};
use uww_bench::{bench_scale, measure, minwork_single_strategy, print_rows, q5_with_changes};

pub fn run() {
    let sc = q5_with_changes(0.10);
    println!(
        "scale={} (LINEITEM = {} rows)\n",
        bench_scale(),
        sc.warehouse.table("LINEITEM").unwrap().len()
    );
    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let model = CostModel::new(g, &sizes);

    let mws = minwork_single_strategy(&sc);
    let dual = sc.dual_stage_strategy();

    let rows = vec![
        measure(&sc, &model, "MinWorkSingle", "1-way", &mws),
        measure(&sc, &model, "dual-stage", "dual-stage", &dual),
    ];
    print_rows(
        "Figure 13: Q5 view strategies",
        "dual-stage 422.25s vs MinWorkSingle 69.65s (6.1x) — the gap grows \
         with fan-in (2^6-1 = 63 maintenance terms vs 6)",
        rows,
    );
}
