//! Warehouse-design companion (Section 8: "our algorithms can be combined
//! with design algorithms"): greedy view selection over TPC-D candidate
//! summary tables, with maintenance cost computed by planning each design's
//! update window with MinWork.

use uww::core::{greedy_select, Candidate};
use uww::tpcd::{ChangeBatch, TpcdConfig, TpcdGenerator};
use uww_bench::bench_scale;

pub fn run() {
    let generator = TpcdGenerator::new(TpcdConfig::at_scale(bench_scale()));
    let data = generator.generate();
    let base_tables: Vec<_> = uww::tpcd::BASE_VIEWS
        .iter()
        .map(|n| data.get(n).unwrap().clone())
        .collect();

    let candidates = vec![
        Candidate {
            def: uww::tpcd::q1_def(),
            query_frequency: 8.0,
        },
        Candidate {
            def: uww::tpcd::q3_def(),
            query_frequency: 5.0,
        },
        Candidate {
            def: uww::tpcd::q5_def(),
            query_frequency: 2.0,
        },
        Candidate {
            def: uww::tpcd::q10_def(),
            query_frequency: 3.0,
        },
    ];

    let batch_gen = |w: &uww::core::Warehouse| {
        ChangeBatch::paper_default(0.10, 0x5757_1999).generate(w.state(), &generator)
    };

    println!("== Warehouse design: greedy selection under maintenance budgets ==");
    println!("candidates: Q1 (freq 8), Q3 (freq 5), Q5 (freq 2), Q10 (freq 3)\n");
    println!(
        "{:>14} {:<28} {:>16} {:>14}",
        "budget", "selected", "maintenance", "query benefit"
    );
    for budget in [5_000.0, 50_000.0, 150_000.0, 1e9] {
        let out = greedy_select(&base_tables, &candidates, budget, &batch_gen).expect("selection");
        println!(
            "{:>14.0} {:<28} {:>16.0} {:>14.0}",
            budget,
            if out.selected.is_empty() {
                "(none)".to_string()
            } else {
                out.selected.join(", ")
            },
            out.maintenance_work,
            out.query_benefit
        );
    }
    println!(
        "\nEach design's maintenance column is the MinWork-planned window for\n\
         the paper's 10% deletion batch — the design algorithm and the update\n\
         planner share one cost model, as Section 8 suggests."
    );
}
