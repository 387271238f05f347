//! Regenerates the **Section 9** analysis (parallel strategies — the
//! paper's sketched future work): total work vs makespan for the MinWork
//! 1-way strategy and the dual-stage strategy on the Figure 4 warehouse.

use uww::core::{makespan, min_work, parallelize, total_work, CostModel, ExecOptions, SizeCatalog};
use uww_bench::{bench_scale, figure4_with_changes};

pub fn run() {
    let sc = figure4_with_changes(0.10);
    println!("== Section 9: parallel strategies ==");
    println!(
        "   paper: dual-stage exposes parallelism but 'any benefit ... may be \
         offset by an increase in total work'"
    );
    println!("scale={}\n", bench_scale());

    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let model = CostModel::new(g, &sizes);

    let plan = min_work(g, &sizes).unwrap();
    let one_way = parallelize(g, &plan.strategy);
    let dual = parallelize(g, &sc.dual_stage_strategy());

    println!(
        "{:<12} {:>7} {:>7} {:>14} {:>14} {:>9}",
        "strategy", "exprs", "stages", "total work", "makespan", "speedup"
    );
    for (label, p) in [("MinWork", &one_way), ("dual-stage", &dual)] {
        let tw = total_work(&model, p);
        let ms = makespan(&model, p);
        println!(
            "{:<12} {:>7} {:>7} {:>14.0} {:>14.0} {:>8.2}x",
            label,
            p.expression_count(),
            p.depth(),
            tw,
            ms,
            tw / ms
        );
    }

    let tw1 = total_work(&model, &one_way);
    let msd = makespan(&model, &dual);
    println!(
        "\nCrossover: the dual-stage makespan ({msd:.0}) {} the 1-way total work \
         ({tw1:.0}) — with unlimited parallel workers dual-stage {}.",
        if msd < tw1 { "beats" } else { "still exceeds" },
        if msd < tw1 {
            "would win"
        } else {
            "still loses"
        },
    );

    // Execute both parallel schedules with REAL threads and verify.
    println!();
    for (label, p) in [("MinWork", &one_way), ("dual-stage", &dual)] {
        let mut seq = sc.warehouse.clone();
        let expected = seq.expected_final_state().unwrap();
        let seq_report = seq.execute(&p.linearize()).unwrap();
        assert!(seq.diff_state(&expected).is_empty());

        let mut par = sc.warehouse.clone();
        let par_report = par.execute_staged(p, ExecOptions::default()).unwrap();
        assert!(par.diff_state(&expected).is_empty());

        println!(
            "{label}: {} stages | work {} rows | wall sequential {:>8.1?} vs threaded {:>8.1?}",
            p.depth(),
            par_report.linear_work(),
            seq_report.wall(),
            par_report.wall(),
        );
    }
    println!(
        "\n(The threaded executor overlaps each stage's Comp expressions on\n\
         real threads; installs land serially at stage boundaries.)"
    );
}
