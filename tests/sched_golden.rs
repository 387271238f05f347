//! Golden schedules for the two window policies: one seeded `fixed` and one
//! seeded `greedy` run over the Q3 fixture, rendered window by window —
//! `(index, cut, window_ticks, events, done)`, the strategy the planner
//! picked, `digest64` of the window's `wal.log` — plus the digest of the
//! final catalog.
//!
//! `tests/golden/sched_schedules.txt` was recorded at the commit *before* the
//! adaptive window controller was deleted and is committed unchanged, so
//! "the cut rule still produces the same schedule" is checked against
//! history rather than variant ≡ variant. A legitimate change to the WAL
//! format, the planner or the fixture must re-record it (run with
//! `UWW_RECORD_GOLDEN=1`) and say so.

use std::fmt::Write as _;
use std::path::PathBuf;

use uww::core::{FsyncPolicy, Warehouse};
use uww::relational::{catalog_to_string, digest64};
use uww::sched::{
    IngestScheduler, Policy, SchedConfig, SeededSource, SeededSourceConfig, SlaConfig,
    WindowPlanner,
};

const HORIZON: u64 = 60;
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sched_schedules.txt"
);

fn fixture() -> Warehouse {
    uww::scenario::q3_scenario(0.0005)
        .expect("q3 scenario")
        .warehouse
}

/// Runs one journaled schedule and renders everything the golden pins.
fn render(policy: Policy) -> String {
    let root: PathBuf = std::env::temp_dir().join(format!(
        "uww-sched-golden-{}-{}",
        policy.as_str(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = SchedConfig {
        policy,
        sla: SlaConfig {
            service_rate: 2000.0,
            ..SlaConfig::default()
        },
        window: 12,
        horizon: HORIZON,
        carry: true,
        planner: WindowPlanner::Shared,
        wal_root: Some(root.clone()),
        fsync: FsyncPolicy::Never,
        ..SchedConfig::default()
    };
    let mut w = fixture();
    let source = SeededSource::new(
        &w,
        SeededSourceConfig {
            seed: 0x5757_1999,
            rate_milli: 1500,
            horizon: HORIZON,
            ..SeededSourceConfig::default()
        },
    );
    let out = IngestScheduler::new(cfg, source)
        .run(&mut w)
        .expect("continuous run");
    assert!(out.crashed.is_none());

    let mut s = format!("policy {}\n", policy.as_str());
    for wr in &out.windows {
        let wal = std::fs::read_to_string(wr.wal_dir.as_ref().expect("journaled").join("wal.log"))
            .expect("read wal.log");
        writeln!(
            s,
            "window {} cut {} ticks {} events {} done {} wal {:016x}\n  {}",
            wr.index,
            wr.cut,
            wr.window_ticks,
            wr.events,
            wr.done,
            digest64(&wal),
            wr.strategy.display(w.vdag()),
        )
        .unwrap();
    }
    writeln!(
        s,
        "clock {} state {:016x}",
        out.clock,
        digest64(&catalog_to_string(w.state()))
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    s
}

#[test]
fn fixed_and_greedy_schedules_match_the_recorded_golden() {
    let got = format!("{}{}", render(Policy::Fixed), render(Policy::Greedy));
    if std::env::var_os("UWW_RECORD_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read golden");
    assert_eq!(got, want, "schedule, WAL bytes or final state changed");
}
