//! Flight-recorder ledger tests: pure observation, same-seed determinism,
//! and crash reconciliation.
//!
//! The ledger is a passive tap on the continuous scheduler: enabling it
//! must not perturb a single byte of what the schedule computes — final
//! state, per-window WAL journals, and every deterministic field of every
//! window report are compared against a ledger-free twin run. The crash
//! tests pin the recorder's durability contract: a record is appended only
//! *after* the window's WAL commit, so at every crash point the journal
//! covers at least the ledger (`WAL windows ⊇ ledger windows`) and the
//! crashed window has a WAL directory but no ledger line.

use std::path::PathBuf;

use uww::core::{FaultPlan, FsyncPolicy, WalLog};
use uww::obs::ledger::{read_ledger, validate_ledger, LedgerRecord};
use uww::relational::catalog_to_string;
use uww::sched::{
    resume_after_crash, IngestOutcome, IngestScheduler, Policy, SchedConfig, SeededSource,
    SeededSourceConfig, SlaConfig, WindowPlanner, WindowReport,
};

/// Base seed for the suite; CI shifts it via `UWW_INGEST_SEED` like the
/// other ingest sweeps.
fn seed_base() -> u64 {
    std::env::var("UWW_INGEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn stream_seed() -> u64 {
    0x5757_1999u64.wrapping_add(seed_base().wrapping_mul(0x9E37_79B9))
}

/// A fresh scratch directory under the system tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-ledger-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture() -> uww::core::Warehouse {
    uww::scenario::q3_scenario(0.0005)
        .expect("q3 scenario")
        .warehouse
}

fn source_cfg(horizon: u64) -> SeededSourceConfig {
    SeededSourceConfig {
        seed: stream_seed(),
        rate_milli: 1500,
        horizon,
        ..SeededSourceConfig::default()
    }
}

/// `greedy` by default: its spans are uneven (each is whatever the previous
/// window's processing let queue up), so records differ window to window.
fn sched_cfg(horizon: u64, wal_root: Option<PathBuf>, ledger: Option<PathBuf>) -> SchedConfig {
    SchedConfig {
        policy: Policy::Greedy,
        sla: SlaConfig {
            target_staleness: 24.0,
            service_rate: 400.0,
        },
        window: 12,
        horizon,
        carry: true,
        planner: WindowPlanner::Shared,
        wal_root,
        ledger,
        fsync: FsyncPolicy::Never,
        fault: None,
        ..SchedConfig::default()
    }
}

fn run(cfg: SchedConfig, horizon: u64) -> (IngestOutcome, String) {
    let mut w = fixture();
    let source = SeededSource::new(&w, source_cfg(horizon));
    let out = IngestScheduler::new(cfg, source)
        .run(&mut w)
        .expect("continuous run");
    assert!(out.crashed.is_none(), "no fault was injected");
    (out, catalog_to_string(w.state()))
}

/// Every deterministic field two twin windows must agree on.
fn assert_windows_identical(a: &[WindowReport], b: &[WindowReport], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: window counts diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{tag}: index");
        assert_eq!(x.cut, y.cut, "{tag}: window {} cut", x.index);
        assert_eq!(
            x.window_ticks, y.window_ticks,
            "{tag}: window {} ticks",
            x.index
        );
        assert_eq!(x.done, y.done, "{tag}: window {} done", x.index);
        assert_eq!(x.events, y.events, "{tag}: window {} events", x.index);
        // DeltaRelation has no equality; compare the batch shape instead
        // (the WAL byte comparison pins the batch contents).
        let shape = |b: &std::collections::BTreeMap<String, uww::relational::DeltaRelation>| {
            b.iter()
                .map(|(k, d)| (k.clone(), d.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            shape(&x.batch),
            shape(&y.batch),
            "{tag}: window {} batch shape",
            x.index
        );
        assert_eq!(
            x.predicted_work, y.predicted_work,
            "{tag}: window {} predicted",
            x.index
        );
        assert_eq!(
            x.measured_work, y.measured_work,
            "{tag}: window {} measured",
            x.index
        );
        assert_eq!(
            x.staleness, y.staleness,
            "{tag}: window {} staleness",
            x.index
        );
        assert_eq!(
            x.report.total_work(),
            y.report.total_work(),
            "{tag}: window {} work meter",
            x.index
        );
    }
}

fn assert_wal_bytes_identical(a: &std::path::Path, b: &std::path::Path, windows: &[WindowReport]) {
    for wr in windows {
        let name = format!("window_{:04}", wr.index);
        let fa = std::fs::read(a.join(&name).join("wal.log"))
            .unwrap_or_else(|e| panic!("read {}/{name}/wal.log: {e}", a.display()));
        let fb = std::fs::read(b.join(&name).join("wal.log"))
            .unwrap_or_else(|e| panic!("read {}/{name}/wal.log: {e}", b.display()));
        assert_eq!(fa, fb, "window {}: WAL bytes diverged", wr.index);
    }
}

// ---------------------------------------------------------------------------
// Pure observation
// ---------------------------------------------------------------------------

/// Ledger on vs ledger off, under `greedy` and under `fixed` at two spans:
/// identical final state, identical WAL bytes, identical deterministic
/// window reports — and the ledger validates and reconciles field-by-field
/// with the reports it shadowed.
#[test]
fn ledger_is_pure_observation_and_reconciles_with_reports() {
    for (policy, window) in [
        (Policy::Greedy, 12),
        (Policy::Fixed, 12),
        (Policy::Fixed, 5),
    ] {
        ledger_shadows_the_schedule(policy, window);
    }
}

fn ledger_shadows_the_schedule(policy: Policy, window: u64) {
    const HORIZON: u64 = 48;
    let tag = format!("{}{window}", policy.as_str());
    let cfg = |wal_root, ledger| SchedConfig {
        policy,
        window,
        ..sched_cfg(HORIZON, wal_root, ledger)
    };
    let root_led = scratch(&format!("pure-on-{tag}"));
    let root_off = scratch(&format!("pure-off-{tag}"));
    let ledger_path = root_led.join("window_ledger.jsonl");

    let (with, state_with) = run(
        cfg(Some(root_led.clone()), Some(ledger_path.clone())),
        HORIZON,
    );
    let (without, state_without) = run(cfg(Some(root_off.clone()), None), HORIZON);

    assert!(!with.windows.is_empty(), "the stream produced no windows");
    assert_eq!(
        state_with, state_without,
        "ledger perturbed the final state"
    );
    assert_windows_identical(&with.windows, &without.windows, "ledger-on vs off");
    assert_wal_bytes_identical(&root_led, &root_off, &with.windows);

    // The ledger validates and its totals reconcile with the outcome.
    let text = std::fs::read_to_string(&ledger_path).expect("read ledger");
    let summary = validate_ledger(&text).expect("ledger must validate");
    assert_eq!(summary.records, with.windows.len());
    assert_eq!(summary.events, with.events());
    assert!((summary.mean_staleness - with.mean_staleness()).abs() < 1e-9);

    // Record-by-record: the ledger shadows the window reports exactly.
    let records = read_ledger(&text).expect("parse ledger");
    for (rec, wr) in records.iter().zip(&with.windows) {
        assert_eq!(rec.window, wr.index as u64);
        assert_eq!(rec.cut, wr.cut);
        assert_eq!(rec.window_ticks, wr.window_ticks);
        assert_eq!(rec.events, wr.events);
        assert_eq!(rec.predicted_work, wr.predicted_work);
        assert_eq!(rec.measured_work, wr.measured_work);
        assert_eq!(rec.staleness, wr.staleness);
        assert_eq!(rec.policy, policy.as_str());
        let c = &wr.conformance;
        assert_eq!(rec.cross_reuses, c.measured_cross_reuses);
        assert_eq!(rec.cached_reads, c.measured_cached_reads);
        assert_eq!(rec.carried_table_hits, c.measured_carried_table_hits);
        assert_eq!(rec.carried_raw_hits, c.measured_carried_raw_hits);
        assert_eq!(
            rec.wal_dir.as_deref(),
            wr.wal_dir.as_ref().and_then(|p| p.to_str()),
            "window {}: wal_dir mismatch",
            wr.index
        );
    }

    // A second run of the same seed writes the same ledger, wall clock and
    // WAL location aside.
    let again = scratch(&format!("pure-again-{tag}"));
    let ledger_again = again.join("window_ledger.jsonl");
    run(
        cfg(Some(again.clone()), Some(ledger_again.clone())),
        HORIZON,
    );
    let records_again =
        read_ledger(&std::fs::read_to_string(&ledger_again).expect("read")).expect("parse");
    assert_eq!(
        records.iter().map(deterministic).collect::<Vec<_>>(),
        records_again.iter().map(deterministic).collect::<Vec<_>>(),
        "same-seed ledgers diverged"
    );

    for d in [root_led, root_off, again] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// `r` with the fields a re-run may change zeroed: wall-clock times (the
/// window's, its critical path, every expression's) and the WAL directory.
fn deterministic(r: &LedgerRecord) -> LedgerRecord {
    let mut r = r.clone();
    r.wall_us = 0;
    r.critical_path_us = 0;
    r.wal_dir = None;
    for e in &mut r.per_expr {
        e.wall_us = 0;
    }
    r
}

// ---------------------------------------------------------------------------
// Crash reconciliation
// ---------------------------------------------------------------------------

/// Crashes window 1 before every WAL record it writes; at every crash
/// point the ledger must contain exactly the completed pre-crash windows
/// (never the crashed one), and after recovery + resume the journal must
/// cover every ledger line (`WAL ⊇ ledger`) with only the recovered
/// window's line missing.
#[test]
fn crash_matrix_reconciles_ledger_with_wal() {
    const HORIZON: u64 = 60;
    const FAULT_WINDOW: usize = 1;

    let ref_root = scratch("crash-ref");
    let (ref_out, ref_state) = run(sched_cfg(HORIZON, Some(ref_root.clone()), None), HORIZON);
    assert!(
        ref_out.windows.len() > FAULT_WINDOW + 1,
        "fixture too small: got {} windows",
        ref_out.windows.len()
    );
    let total = WalLog::open(&ref_root.join(format!("window_{FAULT_WINDOW:04}")))
        .expect("open reference WAL")
        .records
        .len() as u64;
    assert!(
        total > 2,
        "window {FAULT_WINDOW} wrote only {total} records"
    );

    for k in 0..total {
        let root = scratch(&format!("crash-{k}"));
        let ledger_path = root.join("ledger.jsonl");
        let mut cfg = sched_cfg(HORIZON, Some(root.clone()), Some(ledger_path.clone()));
        cfg.fault = Some((FAULT_WINDOW, FaultPlan::crash_before(k)));

        let mut w = fixture();
        let source = SeededSource::new(&w, source_cfg(HORIZON));
        let out = IngestScheduler::new(cfg.clone(), source)
            .run(&mut w)
            .expect("faulted run");
        let crash = out
            .crashed
            .as_ref()
            .unwrap_or_else(|| panic!("crash point {k}: schedule did not crash"));
        assert_eq!(crash.window, FAULT_WINDOW);

        // At the crash: the journal has the crashed window's directory, the
        // ledger does not have its line — WAL strictly ⊇ ledger.
        assert!(
            root.join(format!("window_{FAULT_WINDOW:04}")).is_dir(),
            "crash point {k}: crashed window left no WAL directory"
        );
        let text = std::fs::read_to_string(&ledger_path).unwrap_or_default();
        let records = read_ledger(&text).expect("parse mid-crash ledger");
        let ledger_windows: Vec<u64> = records.iter().map(|r| r.window).collect();
        assert_eq!(
            ledger_windows,
            (0..FAULT_WINDOW as u64).collect::<Vec<_>>(),
            "crash point {k}: ledger does not hold exactly the completed windows"
        );

        // Recover + resume with the same ledger path: resumed windows are
        // appended; the recovered window (completed from the journal, not
        // re-executed) stays absent by design.
        cfg.fault = None;
        let resume_source = SeededSource::new(&fixture(), source_cfg(HORIZON));
        let (_rec, resumed) = resume_after_crash(cfg, resume_source, &mut w, crash)
            .unwrap_or_else(|e| panic!("crash point {k}: resume failed: {e}"));
        assert!(resumed.crashed.is_none());
        assert_eq!(
            catalog_to_string(w.state()),
            ref_state,
            "crash point {k}: recovered state diverged"
        );

        let text = std::fs::read_to_string(&ledger_path).expect("read post-resume ledger");
        let records = read_ledger(&text).expect("parse post-resume ledger");
        let ledger_windows: Vec<u64> = records.iter().map(|r| r.window).collect();
        let expected: Vec<u64> = (0..FAULT_WINDOW as u64)
            .chain(resumed.windows.iter().map(|wr| wr.index as u64))
            .collect();
        assert_eq!(
            ledger_windows, expected,
            "crash point {k}: post-resume ledger windows"
        );
        // The gapped ledger still validates, and every ledger line has a
        // matching WAL directory.
        validate_ledger(&text)
            .unwrap_or_else(|e| panic!("crash point {k}: post-resume ledger invalid: {e}"));
        for r in &records {
            assert!(
                root.join(format!("window_{:04}", r.window)).is_dir(),
                "crash point {k}: ledger window {} has no WAL directory",
                r.window
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&ref_root);
}

// ---------------------------------------------------------------------------
// Workload sensitivity
// ---------------------------------------------------------------------------

/// A faster event stream re-cuts the schedule, and the ledger shows it in
/// a deterministic quantity: some window's measured work changes.
#[test]
fn ledger_diff_localizes_a_workload_change() {
    const HORIZON: u64 = 36;
    let run_with_rate = |tag: &str, rate_milli: u64| {
        let root = scratch(tag);
        let ledger = root.join("ledger.jsonl");
        let cfg = sched_cfg(HORIZON, None, Some(ledger.clone()));
        let mut w = fixture();
        let source = SeededSource::new(
            &w,
            SeededSourceConfig {
                seed: stream_seed(),
                rate_milli,
                horizon: HORIZON,
                ..SeededSourceConfig::default()
            },
        );
        IngestScheduler::new(cfg, source)
            .run(&mut w)
            .expect("continuous run");
        let records = read_ledger(&std::fs::read_to_string(&ledger).expect("read")).expect("parse");
        let _ = std::fs::remove_dir_all(&root);
        records
    };

    let base = run_with_rate("rate-base", 1500);
    let fast = run_with_rate("rate-fast", 3000);
    assert!(!base.is_empty() && !fast.is_empty());
    assert!(
        base.iter().any(|b| fast
            .iter()
            .any(|f| f.window == b.window && f.measured_work != b.measured_work)),
        "doubling the arrival rate left every window's measured work unchanged"
    );
}
