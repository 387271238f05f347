//! Describing a window offline must not reach online readers.
//!
//! `plan_strategy_sharing`, the shared planner objective and `explain` all
//! run the strategy on a scratch clone of the warehouse. The clone used to
//! keep the live `InstallPublisher`, so every candidate ordering the planner
//! priced published its installs to the serving catalog before any window
//! had run or journaled. The scratch clone now detaches its publisher; these
//! tests pin that from both ends — the offline calls alone, and a served
//! continuous run under the shared planner.
//!
//! Seeded with the serving matrix: `UWW_SERVE_SEED` shifts the continuous
//! run's event stream.

use std::sync::Arc;

use uww::core::{
    min_work, min_work_shared, plan_strategy_sharing, plan_strategy_sharing_carried, CostModel,
    InstallPublisher, SharingScope, SizeCatalog, WindowCarry,
};
use uww::relational::VersionedCatalog;
use uww::scenario::q3_scenario;
use uww::sched::{SchedConfig, SeededSourceConfig, WindowPlanner};
use uww::serving::{run_continuous, ContinuousRunConfig};

fn seed_base() -> u64 {
    std::env::var("UWW_SERVE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn offline_descriptions_never_publish() {
    let mut sc = q3_scenario(0.0005).unwrap();
    sc.load_col_changes(0.10).unwrap();
    let mut w = sc.warehouse;
    let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
    w.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), false));
    let views: Vec<String> = w.state().iter().map(|t| t.name().to_string()).collect();
    let pin = |view: &String| versioned.read_pinned(view).unwrap();
    let before: Vec<_> = views.iter().map(pin).collect();

    let sizes = SizeCatalog::estimate(&w).unwrap();
    let model = CostModel::new(w.vdag(), &sizes);
    let strategy = min_work(w.vdag(), &sizes).unwrap().strategy;
    for scope in [SharingScope::Comp, SharingScope::Strategy] {
        plan_strategy_sharing(&w, &strategy, scope).unwrap();
    }
    plan_strategy_sharing_carried(&w, &strategy, &WindowCarry::empty()).unwrap();
    assert!(min_work_shared(&w, &model).unwrap().candidates > 1);
    w.explain(&strategy, &model).unwrap();

    assert_eq!(versioned.epoch(), 0, "a description published an install");
    for (view, (extent, epoch)) in views.iter().zip(&before) {
        let (now, now_epoch) = pin(view);
        assert!(Arc::ptr_eq(extent, &now), "{view}'s pinned extent moved");
        assert_eq!(*epoch, now_epoch);
    }

    // The warehouse itself still serves: really running the window publishes
    // it, once, and lands on the recompute oracle's state.
    let oracle = w.expected_final_state().unwrap();
    w.execute(&strategy).unwrap();
    assert!(w.diff_state(&oracle).is_empty());
    assert_eq!(versioned.epoch(), 1);
    for table in w.state().iter() {
        let (published, _) = versioned.read_pinned(table.name()).unwrap();
        assert!(published.same_contents(table), "{}", table.name());
    }
}

#[test]
fn a_shared_planner_run_publishes_only_its_real_installs() {
    let sc = q3_scenario(0.0003).unwrap();
    let horizon = 40;
    let cfg = ContinuousRunConfig {
        readers: 1,
        sched: SchedConfig {
            horizon,
            window: 10,
            planner: WindowPlanner::Shared,
            ..SchedConfig::default()
        },
        source: SeededSourceConfig {
            seed: SeededSourceConfig::default().seed ^ seed_base(),
            horizon,
            rate_milli: 1500,
            ..SeededSourceConfig::default()
        },
        ..ContinuousRunConfig::default()
    };
    let out = run_continuous(&sc.warehouse, &cfg, &[]).unwrap();
    assert!(out.ingest.windows.len() > 1);
    assert!(
        out.queries_per_reader[0] > 0,
        "the reader never got through"
    );

    // The installs that really happened: the recorded windows re-run
    // one-shot, publishing to a catalog of their own.
    let mut replay = sc.warehouse.clone();
    let versioned = Arc::new(VersionedCatalog::from_catalog(replay.state()));
    replay.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), false));
    for window in &out.ingest.windows {
        replay.load_changes(window.batch.clone()).unwrap();
        let oracle = replay.expected_final_state().unwrap();
        replay.execute(&window.strategy).unwrap();
        assert!(replay.diff_state(&oracle).is_empty());
    }
    assert_eq!(versioned.epoch(), out.ingest.windows.len() as u64);
    assert_eq!(
        out.epochs,
        versioned.epoch(),
        "the planner's candidate orderings reached online readers"
    );
}
