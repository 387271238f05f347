//! Serving-under-update stress tests: concurrent readers against a live
//! query server while the update strategy executes — including runs that
//! crash at **every** WAL record boundary — must never observe a torn
//! extent. Every `QUERY` response carries a digest of the extent it was
//! answered from; because each view is installed exactly once per strategy
//! (C6), the only legal digests are the pre-update and post-update extents.
//!
//! A window publishes once, at its commit, so the guarantee is stronger
//! than per view: every `SNAPSHOT` — the digest of every view at one epoch —
//! is, as a whole, the catalog after exactly `epoch` committed windows.
//! Batch, staged, carried and crashed-then-recovered windows are all held
//! to that, and every recovered window to the recompute oracle.
//!
//! The matrix is seeded; set `UWW_SERVE_SEED` to shift reader interleavings
//! and the strict/mvcc alternation to a different deterministic slice (CI
//! runs several).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use uww::core::{
    min_work, parallelize, recover, CoreError, ExecOptions, FaultPlan, FsyncPolicy,
    InstallPublisher, SizeCatalog, WalConfig, WalLog, Warehouse,
};
use uww::relational::{table_digest, Catalog, VersionedCatalog};
use uww::scenario::TpcdScenario;
use uww::sched::{IngestScheduler, SchedConfig, SeededSource, SeededSourceConfig};
use uww::serve::{Client, Isolation, Server, ServerConfig};
use uww::vdag::{SplitMix64, Strategy};

/// Base seed for the whole matrix; CI shifts it via `UWW_SERVE_SEED`.
fn seed_base() -> u64 {
    std::env::var("UWW_SERVE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A fresh per-test WAL directory under the system tmpdir.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-serve-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn q3_warehouse_and_plan() -> (TpcdScenario, Strategy) {
    let mut sc = TpcdScenario::builder()
        .scale(0.0003)
        .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
        .views([uww::tpcd::q3_def()])
        .build()
        .unwrap();
    sc.load_col_changes(0.10).unwrap();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let plan = min_work(sc.warehouse.vdag(), &sizes).unwrap();
    (sc, plan.strategy)
}

/// The digest of every view of a catalog, by name.
type Digests = BTreeMap<String, u64>;

/// The digests of every view of `catalog`.
fn digests(catalog: &Catalog) -> Digests {
    catalog
        .iter()
        .map(|t| (t.name().to_string(), table_digest(t)))
        .collect()
}

/// The published epoch and the digests of every published view.
fn published(versioned: &VersionedCatalog) -> (u64, Digests) {
    let snap = versioned.snapshot();
    let views = snap.iter().map(|t| (t.name().to_string(), table_digest(t)));
    (snap.epoch(), views.collect())
}

/// `isolation` for the `k`-th run of a matrix, shifted by the seed.
fn isolation_of(k: u64) -> Isolation {
    if (k + seed_base()).is_multiple_of(2) {
        Isolation::Strict
    } else {
        Isolation::Mvcc
    }
}

/// Publishes `w`'s windows to a fresh versioned copy of its state, pausing
/// `hold` before each publish, and starts a server on that copy.
fn serve(
    w: &mut Warehouse,
    isolation: Isolation,
    hold: Duration,
) -> (Arc<VersionedCatalog>, Server) {
    let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
    let strict = isolation == Isolation::Strict;
    w.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), strict).with_hold(hold));
    let config = ServerConfig {
        isolation,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&versioned), config).unwrap();
    (versioned, server)
}

/// One recorded reader observation: which view, which extent, which epoch.
type Observation = (String, u64, u64);

/// Spawns `n` readers against `addr`, each picking views in a seeded
/// pseudo-random order and recording every (view, digest, epoch) it is
/// served, until `stop` is raised. Panics in the reader surface on join.
fn spawn_readers(
    addr: SocketAddr,
    targets: &[String],
    n: usize,
    seed: u64,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Result<Vec<Observation>, String>>> {
    (0..n)
        .map(|i| {
            let stop = Arc::clone(stop);
            let targets = targets.to_vec();
            let mut rng = SplitMix64::new(seed ^ (0xD1CE + i as u64));
            std::thread::spawn(move || -> Result<Vec<Observation>, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let view = &targets[rng.below(targets.len() as u64) as usize];
                    let reply = client.query(view).map_err(|e| e.to_string())?;
                    if reply.view != *view {
                        return Err(format!("asked for {view}, got {}", reply.view));
                    }
                    seen.push((reply.view, reply.digest, reply.epoch));
                }
                client.quit().map_err(|e| e.to_string())?;
                Ok(seen)
            })
        })
        .collect()
}

/// Every observation must match the pre- or post-update extent of its view,
/// and epochs must be non-decreasing along each reader's connection.
fn check_observations(
    tag: &str,
    per_reader: Vec<Vec<Observation>>,
    pre: &BTreeMap<String, u64>,
    post: &BTreeMap<String, u64>,
) -> u64 {
    let mut total = 0;
    for (r, seen) in per_reader.into_iter().enumerate() {
        let mut last_epoch = 0;
        for (view, digest, epoch) in seen {
            assert!(
                digest == pre[&view] || digest == post[&view],
                "{tag} reader {r}: torn read of {view} (digest {digest:016x} is \
                 neither pre {:016x} nor post {:016x})",
                pre[&view],
                post[&view]
            );
            assert!(
                epoch >= last_epoch,
                "{tag} reader {r}: epoch went backwards ({epoch} after {last_epoch})"
            );
            last_epoch = epoch;
            total += 1;
        }
    }
    total
}

/// Full clean runs under both isolation regimes: every response is a
/// pre- or post-update extent, and the published catalog ends identical to
/// the engine's verified final state, one epoch after the load.
#[test]
fn readers_only_see_pre_or_post_extents_across_a_full_run() {
    let (sc, strategy) = q3_warehouse_and_plan();
    let pre = digests(sc.warehouse.state());
    let expected = sc.warehouse.expected_final_state().unwrap();
    let post = digests(&expected);
    let targets: Vec<String> = pre.keys().cloned().collect();

    for isolation in [Isolation::Strict, Isolation::Mvcc] {
        let mut w = sc.warehouse.clone();
        let (versioned, server) = serve(&mut w, isolation, Duration::from_millis(2));

        let stop = Arc::new(AtomicBool::new(false));
        let readers = spawn_readers(server.local_addr(), &targets, 3, seed_base(), &stop);
        std::thread::sleep(Duration::from_millis(10));
        w.execute(&strategy).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);

        let per_reader: Vec<Vec<Observation>> = readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked").expect("reader failed"))
            .collect();
        let metrics = server.shutdown();
        assert_eq!(metrics.errors, 0);

        let tag = format!("full/{}", isolation.label());
        let n = check_observations(&tag, per_reader, &pre, &post);
        assert!(n > 0, "{tag}: readers must actually observe something");

        // The run verified AND the published catalog is the final state.
        assert!(w.diff_state(&expected).is_empty());
        assert_eq!(published(&versioned), (1, post.clone()), "{tag}");
    }
}

/// The tentpole stress matrix: readers hammer the server while the
/// journaled run crashes at **every** WAL record boundary (alternating
/// strict/mvcc). No crash point may expose a torn extent, and a crashed
/// window publishes nothing: the published catalog stays at the pre-window
/// epoch and extents, whatever prefix of installs the engine had made.
#[test]
fn readers_survive_every_crash_point_without_torn_reads() {
    let (sc, strategy) = q3_warehouse_and_plan();
    let pre = digests(sc.warehouse.state());
    let expected = sc.warehouse.expected_final_state().unwrap();
    let post = digests(&expected);
    let targets: Vec<String> = pre.keys().cloned().collect();
    let total = record_count(&sc.warehouse, &strategy, "ref");

    for k in 0..total {
        let isolation = isolation_of(k);
        let mut w = sc.warehouse.clone();
        let (versioned, server) = serve(&mut w, isolation, Duration::from_millis(1));

        let stop = Arc::new(AtomicBool::new(false));
        let readers = spawn_readers(
            server.local_addr(),
            &targets,
            2,
            seed_base().wrapping_mul(31).wrapping_add(k),
            &stop,
        );
        std::thread::sleep(Duration::from_millis(5));

        let dir = wal_dir(&format!("k{k}"));
        crash_at(&mut w, &strategy, &dir, k);

        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Relaxed);
        let per_reader: Vec<Vec<Observation>> = readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked").expect("reader failed"))
            .collect();
        let metrics = server.shutdown();
        assert_eq!(metrics.errors, 0, "crash point {k}");

        let tag = format!("crash-{k}/{}", isolation.label());
        check_observations(&tag, per_reader, &pre, &post);
        assert_eq!(
            published(&versioned),
            (0, pre.clone()),
            "{tag}: a crashed window reached readers"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The number of WAL records a clean journaled run of `strategy` writes:
/// the crash-point range. `tag` keeps concurrent tests' directories apart.
fn record_count(w: &Warehouse, strategy: &Strategy, tag: &str) -> u64 {
    let dir = wal_dir(tag);
    let opts = ExecOptions {
        wal: Some(WalConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        ..ExecOptions::default()
    };
    w.clone().execute_with(strategy, opts).unwrap();
    let total = WalLog::open(&dir).unwrap().records.len() as u64;
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total >= 3, "BEGIN + at least one record + COMMIT");
    total
}

/// Runs `strategy` journaled into `dir`, crashing before record `k`.
fn crash_at(w: &mut Warehouse, strategy: &Strategy, dir: &std::path::Path, k: u64) {
    let wal = WalConfig::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_faults(FaultPlan::crash_before(k));
    let opts = ExecOptions {
        wal: Some(wal),
        ..ExecOptions::default()
    };
    let err = w
        .execute_with(strategy, opts)
        .expect_err("injected crash must abort the run");
    assert!(
        matches!(err, CoreError::InjectedCrash { record } if record == k),
        "crash point {k}: unexpected {err}"
    );
}

/// One `SNAPSHOT` a reader was served: its epoch and every view's digest.
type Snapshot = (u64, Digests);

/// Readers issuing `SNAPSHOT` back to back against one served warehouse.
struct Snapshotters {
    versioned: Arc<VersionedCatalog>,
    server: Server,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<Result<Vec<Snapshot>, String>>>,
}

impl Snapshotters {
    /// Serves `w` under `isolation` and starts two snapshot readers.
    fn start(w: &mut Warehouse, isolation: Isolation) -> Snapshotters {
        let (versioned, server) = serve(w, isolation, Duration::from_millis(2));
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..2)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> Result<Vec<Snapshot>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let snap = client.snapshot().map_err(|e| e.to_string())?;
                        let views = snap.views.into_iter().map(|(v, _, d)| (v, d));
                        seen.push((snap.epoch, views.collect()));
                    }
                    client.quit().map_err(|e| e.to_string())?;
                    Ok(seen)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        Snapshotters {
            versioned,
            server,
            stop,
            threads,
        }
    }

    /// Stops the readers and checks what they saw. `states[e]` is the
    /// warehouse after `e` committed windows: every snapshot at epoch `e`
    /// must equal it view for view, epochs never go backwards on one
    /// connection, and the catalog ends published at the last state.
    fn finish(self, tag: &str, states: &[Digests]) {
        std::thread::sleep(Duration::from_millis(5));
        self.stop.store(true, Ordering::Relaxed);
        let mut total = 0;
        for (r, reader) in self.threads.into_iter().enumerate() {
            let seen = reader
                .join()
                .expect("reader panicked")
                .expect("reader failed");
            let mut last_epoch = 0;
            for (epoch, views) in seen {
                assert!(
                    epoch >= last_epoch,
                    "{tag} reader {r}: epoch went backwards"
                );
                last_epoch = epoch;
                let state = states.get(epoch as usize);
                assert!(
                    state == Some(&views),
                    "{tag} reader {r}: the snapshot at epoch {epoch} is not the catalog \
                     after {epoch} committed windows"
                );
                total += 1;
            }
        }
        assert!(total > 0, "{tag}: readers must actually observe something");
        assert_eq!(self.server.shutdown().errors, 0, "{tag}");
        let last = states.len() as u64 - 1;
        let at_end = (last, states[states.len() - 1].clone());
        assert_eq!(published(&self.versioned), at_end, "{tag}");
    }
}

/// Snapshot readers during a batch MinWork window, a dual-stage
/// `execute_staged` window and a run of carried windows: every snapshot is
/// the whole catalog of the committed window its epoch names, and the epoch
/// advances by exactly one per committed window.
#[test]
fn every_snapshot_is_a_whole_committed_window() {
    let (sc, min_work) = q3_warehouse_and_plan();
    let pre = digests(sc.warehouse.state());
    let expected = sc.warehouse.expected_final_state().unwrap();
    let post = digests(&expected);
    let states = [pre.clone(), post];

    let mut w = sc.warehouse.clone();
    let watch = Snapshotters::start(&mut w, isolation_of(0));
    w.execute(&min_work).unwrap();
    assert!(w.diff_state(&expected).is_empty());
    watch.finish("batch", &states);

    let mut w = sc.warehouse.clone();
    let watch = Snapshotters::start(&mut w, isolation_of(1));
    let staged = parallelize(w.vdag(), &sc.dual_stage_strategy());
    w.execute_staged(&staged, ExecOptions::default()).unwrap();
    assert!(w.diff_state(&expected).is_empty());
    watch.finish("staged", &states);

    // Carried windows: the continuous scheduler over a seeded stream, each
    // window's carry seeding the next. The states are the recorded windows
    // replayed one-shot, each checked against the recompute oracle.
    let horizon = 40;
    let mut w = sc.warehouse.clone();
    let watch = Snapshotters::start(&mut w, isolation_of(2));
    let source_cfg = SeededSourceConfig {
        seed: SeededSourceConfig::default().seed ^ seed_base(),
        horizon,
        rate_milli: 1500,
        ..SeededSourceConfig::default()
    };
    let sched = SchedConfig {
        horizon,
        window: 10,
        ..SchedConfig::default()
    };
    let source = SeededSource::new(&w, source_cfg);
    let out = IngestScheduler::new(sched, source).run(&mut w).unwrap();
    assert!(out.windows.len() > 1, "a run of several windows");
    let mut replay = sc.warehouse.clone();
    let mut states = vec![pre];
    for window in &out.windows {
        replay.load_changes(window.batch.clone()).unwrap();
        let oracle = replay.expected_final_state().unwrap();
        replay.execute(&window.strategy).unwrap();
        assert!(replay.diff_state(&oracle).is_empty());
        states.push(digests(replay.state()));
    }
    assert_eq!(digests(w.state()), states[states.len() - 1]);
    watch.finish("carried", &states);
}

/// Snapshot readers while the journaled window crashes before each WAL
/// record in turn, is recovered, and is recovered once more from its
/// committed log. The crash publishes nothing; the recovery publishes the
/// whole window once, ending in the recompute oracle's state; the
/// already-committed replay publishes it again, unchanged.
#[test]
fn every_snapshot_is_a_whole_window_across_crash_and_recovery() {
    let (sc, strategy) = q3_warehouse_and_plan();
    let pre = digests(sc.warehouse.state());
    let expected = sc.warehouse.expected_final_state().unwrap();
    let post = digests(&expected);
    let states = [pre.clone(), post.clone(), post];

    for k in 0..record_count(&sc.warehouse, &strategy, "recover-ref") {
        let isolation = isolation_of(k);
        let tag = format!("recover-{k}/{}", isolation.label());
        let mut w = sc.warehouse.clone();
        let watch = Snapshotters::start(&mut w, isolation);

        let dir = wal_dir(&format!("recover-k{k}"));
        crash_at(&mut w, &strategy, &dir, k);
        assert_eq!(published(&watch.versioned), (0, pre.clone()), "{tag}");

        let outcome = recover(&mut w, &dir).unwrap();
        assert!(!outcome.already_committed, "{tag}");
        assert!(w.diff_state(&expected).is_empty(), "{tag}");
        assert!(recover(&mut w, &dir).unwrap().already_committed, "{tag}");
        assert!(w.diff_state(&expected).is_empty(), "{tag}");

        watch.finish(&tag, &states);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
