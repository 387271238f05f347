//! Scale sensitivity of the headline gaps.
//!
//! Under the linear work metric the measured-work ratios are *scale
//! invariant* — every term's operand sizes scale by the same factor when
//! the warehouse does (with proportional change batches), so who-wins and
//! by-what-factor are properties of the VDAG and change profile, not of the
//! data volume. Wall-clock ratios drift with scale as join costs leave the
//! strictly linear regime. The residual gap to the paper's absolute factors
//! (6.1x / 5-6x) comes from its substrate (disk-resident SQL Server), not
//! from scale.

use uww::core::{min_work, SizeCatalog};
use uww::scenario::{figure4_scenario, q5_scenario};

pub fn run() {
    println!("== Scale sensitivity of the headline gaps ==\n");
    println!(
        "{:>9} {:>10} {:>14} {:>14} {:>14} {:>14}",
        "scale", "LINEITEM", "fig13 work", "fig13 wall", "fig15 work", "fig15 wall"
    );
    for scale in [0.0005, 0.001, 0.002, 0.004] {
        // Figure 13 gap (Q5 warehouse).
        let mut q5 = q5_scenario(scale).expect("q5 scenario");
        q5.load_paper_changes(0.10).expect("changes");
        let g = q5.warehouse.vdag();
        let view = g.derived_views()[0];
        let sizes = SizeCatalog::estimate(&q5.warehouse).unwrap();
        let mws = q5.complete_strategy(&uww::core::min_work_single(g, view, &sizes));
        let q5_dual = q5.run(&q5.dual_stage_strategy()).unwrap();
        let q5_mws = q5.run(&mws).unwrap();
        let fig13 = q5_dual.linear_work() as f64 / q5_mws.linear_work() as f64;
        let fig13_wall = q5_dual.wall().as_secs_f64() / q5_mws.wall().as_secs_f64();

        // Figure 15 gap (full warehouse).
        let mut f4 = figure4_scenario(scale).expect("fig4 scenario");
        f4.load_paper_changes(0.10).expect("changes");
        let sizes = SizeCatalog::estimate(&f4.warehouse).unwrap();
        let plan = min_work(f4.warehouse.vdag(), &sizes).unwrap();
        let f4_dual = f4.run(&f4.dual_stage_strategy()).unwrap();
        let f4_mw = f4.run(&plan.strategy).unwrap();
        let fig15 = f4_dual.linear_work() as f64 / f4_mw.linear_work() as f64;
        let fig15_wall = f4_dual.wall().as_secs_f64() / f4_mw.wall().as_secs_f64();

        let lineitem = f4.warehouse.table("LINEITEM").unwrap().len();
        println!(
            "{scale:>9} {lineitem:>10} {fig13:>13.2}x {fig13_wall:>13.2}x {fig15:>13.2}x {fig15_wall:>13.2}x"
        );
    }
    println!(
        "\nWork ratios are constant across scale (the linear metric is\n\
         1-homogeneous); the paper's larger absolute factors (6.1x / 5-6x)\n\
         reflect its disk-resident substrate, not its data volume."
    );
}
