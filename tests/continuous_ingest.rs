//! Differential and crash-matrix tests for the continuous micro-batch
//! ingest scheduler (`uww-sched`).
//!
//! The headline property: for any seeded event stream, the continuous
//! scheduler — either policy, carry on or off — must land in a final state
//! **byte-identical** to replaying the very same micro-batches as
//! independent one-shot windows, and journal **byte-identical** per-window
//! WAL files while doing it. Staleness and window sizing are allowed to
//! differ between policies; the data is not.
//!
//! The crash matrix re-runs the schedule with a crash injected before
//! every WAL record of a chosen window and asserts recovery + resume
//! reproduce the uninterrupted run exactly: window sequence, per-window WAL
//! bytes and final state.
//!
//! The matrix is seeded; set `UWW_INGEST_SEED` to shift the whole suite to
//! a different deterministic slice (CI runs several).

use std::path::PathBuf;

use uww::core::{
    plan_strategy_sharing_carried, CoreError, ExecOptions, FaultPlan, FsyncPolicy, WalLog,
    Warehouse, WindowCarry,
};
use uww::relational::catalog_to_string;
use uww::sched::{
    resume_after_crash, window_wal_config, IngestOutcome, IngestScheduler, Policy, SchedConfig,
    SeededSource, SeededSourceConfig, SlaConfig, WindowPlanner,
};

/// Base seed for the whole suite; CI shifts it via `UWW_INGEST_SEED`.
fn seed_base() -> u64 {
    std::env::var("UWW_INGEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The stream seed: the paper-year default, displaced by the CI matrix.
fn stream_seed() -> u64 {
    0x5757_1999u64.wrapping_add(seed_base().wrapping_mul(0x9E37_79B9))
}

/// A fresh per-test WAL root under the system tmpdir.
fn wal_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-ingest-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The shared fixture: the Q3 scenario at tiny scale (multi-view, so the
/// sharing planner and the carry cache have something to chew on).
fn fixture() -> Warehouse {
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

/// `greedy` cuts uneven spans — each is whatever the previous window's
/// processing let queue up — so it is the rule the carry tests run under.
const GREEDY: (Policy, u64) = (Policy::Greedy, 12);

/// The cut rules the suite sweeps: `greedy`, and `fixed` at two spans.
const CUTS: [(Policy, u64); 3] = [GREEDY, (Policy::Fixed, 12), (Policy::Fixed, 5)];

fn sched_cfg(
    (policy, window): (Policy, u64),
    carry: bool,
    horizon: u64,
    wal_root: Option<PathBuf>,
) -> SchedConfig {
    SchedConfig {
        policy,
        sla: SlaConfig {
            target_staleness: 24.0,
            service_rate: 400.0,
        },
        window,
        horizon,
        carry,
        planner: WindowPlanner::Shared,
        wal_root,
        fsync: FsyncPolicy::Never,
        fault: None,
        ..SchedConfig::default()
    }
}

/// Runs a continuous schedule on a fresh fixture, returning the outcome
/// and the final catalog rendering.
fn run_continuous(cfg: SchedConfig, horizon: u64) -> (IngestOutcome, String) {
    let mut w = fixture();
    let source = SeededSource::new(&w, source_cfg(horizon));
    let out = IngestScheduler::new(cfg, source)
        .run(&mut w)
        .expect("continuous run");
    assert!(out.crashed.is_none(), "no fault was injected");
    (out, catalog_to_string(w.state()))
}

/// Replays a continuous outcome's recorded micro-batches as independent
/// one-shot windows (empty carry every time) against a fresh fixture,
/// journaling each window under `root`, and returns the final catalog.
fn replay_one_shot(out: &IngestOutcome, root: &std::path::Path) -> String {
    let mut w = fixture();
    for wr in &out.windows {
        w.load_changes(wr.batch.clone()).expect("load batch");
        let opts = ExecOptions {
            wal: Some(window_wal_config(root, wr.index, FsyncPolicy::Never)),
            strategy_sharing: true,
            ..ExecOptions::default()
        };
        w.execute_carried(&wr.strategy, opts, WindowCarry::empty())
            .expect("one-shot window");
    }
    catalog_to_string(w.state())
}

/// Re-drives `out`'s windows by hand through `execute_carried` on a fresh
/// fixture, asking for the offline description before each one: its
/// cross-reuses, cached reads, carried table hits, carried raw hits and
/// per-expression meters must equal what the window then measures — and
/// what the scheduler's own run of it measured — and every window must land
/// on the recompute oracle's state.
fn assert_sharing_predicted(out: &IngestOutcome, carry_on: bool, tag: &str) {
    let mut w = fixture();
    let mut carry = WindowCarry::empty();
    for wr in &out.windows {
        let at = format!("{tag}: window {}", wr.index);
        w.load_changes(wr.batch.clone()).expect("load batch");
        if !carry_on {
            // What the scheduler does to run a window cold.
            w.drop_indexes();
        }
        let expected = w.expected_final_state().expect("oracle");
        let described = plan_strategy_sharing_carried(&w, &wr.strategy, &carry).expect("describe");
        let opts = ExecOptions {
            strategy_sharing: true,
            ..ExecOptions::default()
        };
        let outcome = w
            .execute_carried(&wr.strategy, opts, carry)
            .expect("carried window");
        assert!(w.diff_state(&expected).is_empty(), "{at}: wrong state");
        let c = outcome.conformance;
        assert_eq!(described.conformance, c, "{at}");
        // The description is the run: every expression's full meter.
        let real = outcome.report.per_expr.iter();
        for (d, e) in described.report.per_expr.iter().zip(real) {
            assert_eq!((&d.expr, d.work), (&e.expr, e.work), "{at}");
        }
        assert_eq!(
            c, wr.conformance,
            "{at}: the scheduler's run measured otherwise"
        );
        carry = if carry_on {
            outcome.carry
        } else {
            WindowCarry::empty()
        };
    }
}

/// Byte-compares the named windows' `wal.log` under the two roots.
fn assert_wal_bytes_identical(
    a: &std::path::Path,
    b: &std::path::Path,
    windows: impl Iterator<Item = usize>,
) {
    for idx in windows {
        let name = format!("window_{idx:04}");
        let fa = std::fs::read(a.join(&name).join("wal.log"))
            .unwrap_or_else(|e| panic!("read {}/{name}/wal.log: {e}", a.display()));
        let fb = std::fs::read(b.join(&name).join("wal.log"))
            .unwrap_or_else(|e| panic!("read {}/{name}/wal.log: {e}", b.display()));
        assert_eq!(
            fa, fb,
            "window {idx}: continuous and one-shot WAL bytes diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Differential one-shot equivalence
// ---------------------------------------------------------------------------

/// Every cut rule × carry setting: continuous mode must be indistinguishable
/// — final state and WAL bytes — from one-shot replays of its own batches.
#[test]
fn continuous_mode_equals_one_shot_replay() {
    const HORIZON: u64 = 36;
    for cut in CUTS {
        for carry in [true, false] {
            let tag = format!("diff-{}{}-{}", cut.0.as_str(), cut.1, carry);
            let root_c = wal_root(&tag);
            let root_r = wal_root(&format!("{tag}-replay"));
            let cfg = sched_cfg(cut, carry, HORIZON, Some(root_c.clone()));
            let (out, state) = run_continuous(cfg, HORIZON);
            assert!(
                !out.windows.is_empty(),
                "{tag}: the stream produced no windows"
            );
            assert_sharing_predicted(&out, carry, &tag);
            let replayed = replay_one_shot(&out, &root_r);
            assert_eq!(
                state, replayed,
                "{tag}: continuous and one-shot final states diverged"
            );
            assert_wal_bytes_identical(&root_c, &root_r, 0..out.windows.len());
            let _ = std::fs::remove_dir_all(&root_c);
            let _ = std::fs::remove_dir_all(&root_r);
        }
    }
}

/// The batches a schedule cuts are a partition of the seeded timeline:
/// policies may slice differently but must process the same event set and
/// land in the same state.
#[test]
fn policies_agree_on_the_final_state() {
    const HORIZON: u64 = 36;
    let [(greedy, greedy_state), (fixed, fixed_state), (short, short_state)] =
        CUTS.map(|cut| run_continuous(sched_cfg(cut, true, HORIZON, None), HORIZON));
    assert_eq!(fixed.events(), greedy.events());
    assert_eq!(fixed.events(), short.events());
    assert_eq!(fixed_state, greedy_state, "greedy state diverged");
    assert_eq!(fixed_state, short_state, "fixed/5 state diverged");
    // Greedy cuts at least as many windows as fixed ever can.
    assert!(greedy.windows.len() >= fixed.windows.len());
}

// ---------------------------------------------------------------------------
// Carry-over conformance
// ---------------------------------------------------------------------------

/// No window predicts its own sharing; the offline description is asked
/// for here instead. Over a stream cut into at least eight windows, what
/// `plan_strategy_sharing_carried` says before each hand-driven
/// `execute_carried` is what the window measures, no tolerance, and every
/// window ends in the oracle's state.
#[test]
fn predicted_sharing_equals_measured_on_every_carried_window() {
    const HORIZON: u64 = 60;
    // A service rate at which greedy cuts a window every few ticks.
    let mut cfg = sched_cfg(GREEDY, true, HORIZON, None);
    cfg.sla.service_rate = 4000.0;
    let (out, _) = run_continuous(cfg, HORIZON);
    assert!(
        out.windows.len() >= 8,
        "only {} windows were cut",
        out.windows.len()
    );
    assert_sharing_predicted(&out, true, "greedy");
}

/// With carry on, at least one later window must be seeded from its
/// predecessor's cache, and every carried hit must have been predicted
/// (exactly, no tolerance).
#[test]
fn carry_over_is_predicted_exactly() {
    const HORIZON: u64 = 60;
    let (out, _) = run_continuous(sched_cfg(GREEDY, true, HORIZON, None), HORIZON);
    assert_sharing_predicted(&out, true, "greedy");
    assert!(
        out.windows.iter().any(|w| w.carry_in != (0, 0)),
        "no window was seeded from the previous window's cache"
    );
    let carried_hits: u64 = out
        .windows
        .iter()
        .map(|w| {
            w.conformance.measured_carried_table_hits + w.conformance.measured_carried_raw_hits
        })
        .sum();
    assert!(
        carried_hits > 0,
        "carried cache entries never served a hit across {} windows",
        out.windows.len()
    );
    // With carry off, no window may report carried entries or carried hits.
    let (bare, _) = run_continuous(sched_cfg(GREEDY, false, HORIZON, None), HORIZON);
    assert_sharing_predicted(&bare, false, "greedy, no carry");
    for w in &bare.windows {
        assert_eq!(
            w.carry_in,
            (0, 0),
            "carry off but window {} carried",
            w.index
        );
        assert_eq!(w.conformance.measured_carried_table_hits, 0);
        assert_eq!(w.conformance.measured_carried_raw_hits, 0);
    }
}

// ---------------------------------------------------------------------------
// Crash matrix at window boundaries
// ---------------------------------------------------------------------------

/// Crashes window 1 before **every** WAL record it writes, under each cut
/// rule; recovery must complete the window from the journal and the resumed
/// schedule must be byte-identical to the uninterrupted run — the same
/// window sequence, the same bytes in every other window's WAL, the same
/// final state. The scheduler carries no state past the clock, the drain point
/// and the window index, so there is no exception.
#[test]
fn crash_matrix_resumes_byte_identical() {
    const HORIZON: u64 = 60;
    const FAULT_WINDOW: usize = 1;
    let sequence = |ws: &[uww::sched::WindowReport]| -> Vec<(usize, u64, u64, u64, u64)> {
        ws.iter()
            .map(|wr| (wr.index, wr.cut, wr.window_ticks, wr.events, wr.done))
            .collect()
    };

    for cut in CUTS {
        let policy = format!("{}{}", cut.0.as_str(), cut.1);
        // Uninterrupted reference run, journaled so we can count window 1's
        // WAL records (= the crash points).
        let ref_root = wal_root(&format!("crash-ref-{policy}"));
        let cfg = sched_cfg(cut, true, HORIZON, Some(ref_root.clone()));
        let (ref_out, ref_state) = run_continuous(cfg, HORIZON);
        assert!(
            ref_out.windows.len() > FAULT_WINDOW + 1,
            "{policy}: need windows after the fault window, got {}",
            ref_out.windows.len()
        );
        let total = WalLog::open(&ref_root.join(format!("window_{FAULT_WINDOW:04}")))
            .expect("open reference WAL")
            .records
            .len() as u64;
        assert!(
            total > 2,
            "{policy}: window {FAULT_WINDOW} wrote only {total} records"
        );

        for k in 0..total {
            let at = format!("{policy}, crash point {k}");
            let root = wal_root(&format!("crash-{policy}-{k}"));
            let mut cfg = sched_cfg(cut, true, HORIZON, Some(root.clone()));
            cfg.fault = Some((FAULT_WINDOW, FaultPlan::crash_before(k)));

            let mut w = fixture();
            let source = SeededSource::new(&w, source_cfg(HORIZON));
            let out = IngestScheduler::new(cfg.clone(), source)
                .run(&mut w)
                .expect("faulted run");
            let crash = out
                .crashed
                .as_ref()
                .unwrap_or_else(|| panic!("{at}: schedule did not crash"));
            assert_eq!(crash.window, FAULT_WINDOW);
            assert_eq!(
                sequence(&out.windows),
                sequence(&ref_out.windows[..FAULT_WINDOW]),
                "{at}: pre-crash windows diverged"
            );

            cfg.fault = None;
            let resume_source = SeededSource::new(&fixture(), source_cfg(HORIZON));
            let (rec, resumed) = resume_after_crash(cfg, resume_source, &mut w, crash)
                .unwrap_or_else(|e| panic!("{at}: resume failed: {e}"));
            assert!(
                rec.replayed_comps + rec.replayed_insts + rec.resumed > 0 || rec.already_committed,
                "{at}: recovery did no work"
            );
            assert!(resumed.crashed.is_none());
            assert_eq!(
                sequence(&resumed.windows),
                sequence(&ref_out.windows[FAULT_WINDOW + 1..]),
                "{at}: resumed windows diverged from the uninterrupted schedule"
            );
            assert_eq!(resumed.clock, ref_out.clock, "{at}: final clock");
            assert_eq!(
                catalog_to_string(w.state()),
                ref_state,
                "{at}: recovered state diverged from the uninterrupted run"
            );
            // The fault window's own journal is recovery's: it re-journals
            // the interrupted expression's start record, which
            // `tests/crash_recovery.rs` pins. Every other window's is the
            // scheduler's and must not differ by a byte.
            let others = (0..ref_out.windows.len()).filter(|&i| i != FAULT_WINDOW);
            assert_wal_bytes_identical(&ref_root, &root, others);
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&ref_root);
    }
}

// ---------------------------------------------------------------------------
// The virtual clock rejects what it cannot represent
// ---------------------------------------------------------------------------

/// A service rate that is not finite and positive has no processing time:
/// `run` refuses it as a typed error before cutting a window, instead of
/// overflowing the clock (`predicted / 0 = ∞`) or running at "zero cost".
#[test]
fn non_positive_service_rates_are_a_typed_error() {
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut cfg = sched_cfg(GREEDY, true, 12, None);
        cfg.sla.service_rate = rate;
        let mut w = fixture();
        let before = catalog_to_string(w.state());
        let source = SeededSource::new(&w, source_cfg(12));
        let err = IngestScheduler::new(cfg, source)
            .run(&mut w)
            .expect_err("a bad service rate must be refused");
        assert!(
            matches!(&err, CoreError::Warehouse(m) if m.contains("service rate")),
            "service rate {rate}: {err}"
        );
        assert_eq!(catalog_to_string(w.state()), before, "a window ran");
    }
}

/// A prediction too large for the clock is the same typed error, never a
/// debug-build panic or a release-build wrap.
#[test]
fn clock_overflow_is_a_typed_error() {
    let mut cfg = sched_cfg(GREEDY, true, 12, None);
    cfg.sla.service_rate = f64::MIN_POSITIVE;
    let mut w = fixture();
    let source = SeededSource::new(&w, source_cfg(12));
    let err = IngestScheduler::new(cfg, source)
        .run(&mut w)
        .expect_err("the clock cannot hold this window");
    assert!(
        matches!(&err, CoreError::Warehouse(m) if m.contains("clock overflow")),
        "{err}"
    );
}
