//! Deterministic fault-injection tests for the install WAL and recovery
//! path: random warehouses × random valid strategies × **every** crash
//! point, sequential and threaded, must recover to a catalog byte-identical
//! to the uncrashed run.
//!
//! The crash matrix is seeded; set `UWW_CRASH_SEED` to shift the whole
//! matrix to a different deterministic slice (CI runs several).

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::{
    all_one_way_vdag_strategies, canonical_stage_order, parallelize, recover, recover_with,
    CoreError, ExecOptions, FaultPlan, FsyncPolicy, PartitionOptions, SizeCatalog, WalConfig,
    WalLog, Warehouse,
};
use uww::relational::{
    catalog_from_image, catalog_to_string, deltas_to_string, digest64, write_catalog_image,
    AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, Predicate, ScalarExpr, Schema,
    Table, Tuple, Value, ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::scenario::TpcdScenario;
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

/// Base seed for the whole matrix; CI shifts it via `UWW_CRASH_SEED`.
fn seed_base() -> u64 {
    std::env::var("UWW_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A fresh per-test WAL directory under the system tmpdir.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-crash-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_opts(cfg: WalConfig) -> ExecOptions {
    ExecOptions {
        wal: Some(cfg),
        ..ExecOptions::default()
    }
}

fn cfg(dir: &PathBuf) -> WalConfig {
    WalConfig::new(dir).with_fsync(FsyncPolicy::Never)
}

// ---------------------------------------------------------------------------
// Random warehouses
// ---------------------------------------------------------------------------

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

/// A random small warehouse (2–3 base views, 2–3 derived views mixing
/// filters, group-by aggregates, and equi-joins — all closed over the same
/// three-column schema so any view can source any later one) plus a random
/// deletion+insertion batch for every base view.
fn random_warehouse(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xC2A5));
    let schema = Schema::of(COLS);
    let n_bases = 2 + rng.below(2) as usize;
    let n_derived = 2 + rng.below(2) as usize;

    let mut builder = Warehouse::builder();
    let mut names: Vec<String> = Vec::new();
    for b in 0..n_bases {
        let name = format!("B{b}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..12 + rng.below(12) {
            t.insert(Tuple::new(vec![
                Value::Int(k as i64),
                Value::Int(rng.below(100) as i64),
                Value::Int((k % 3) as i64),
            ]))
            .unwrap();
        }
        builder = builder.base_table(t);
        names.push(name);
    }
    for d in 0..n_derived {
        let name = format!("D{d}");
        let src = names[rng.below(names.len() as u64) as usize].clone();
        let def = match rng.below(3) {
            0 => ViewDef {
                name: name.clone(),
                sources: vec![ViewSource {
                    view: src,
                    alias: "S".into(),
                }],
                joins: vec![],
                filters: vec![Predicate::col_gt("S.v", Value::Int(rng.below(60) as i64))],
                output: ViewOutput::Project(vec![
                    OutputColumn::col("k", "S.k"),
                    OutputColumn::col("v", "S.v"),
                    OutputColumn::col("g", "S.g"),
                ]),
            },
            1 => ViewDef {
                name: name.clone(),
                sources: vec![ViewSource {
                    view: src,
                    alias: "S".into(),
                }],
                joins: vec![],
                filters: vec![],
                output: ViewOutput::Aggregate {
                    group_by: vec![OutputColumn::col("k", "S.g")],
                    aggregates: vec![
                        AggregateColumn {
                            name: "v".into(),
                            func: AggFunc::Sum,
                            input: ScalarExpr::col("S.v"),
                        },
                        AggregateColumn {
                            name: "g".into(),
                            func: AggFunc::Count,
                            input: ScalarExpr::col("S.k"),
                        },
                    ],
                },
            },
            _ => {
                let mut other = names[rng.below(names.len() as u64) as usize].clone();
                if other == src {
                    other = names
                        [(names.iter().position(|n| *n == src).unwrap() + 1) % names.len()]
                    .clone();
                }
                ViewDef {
                    name: name.clone(),
                    sources: vec![
                        ViewSource {
                            view: src,
                            alias: "A".into(),
                        },
                        ViewSource {
                            view: other,
                            alias: "B".into(),
                        },
                    ],
                    joins: vec![EquiJoin::new("A.k", "B.k")],
                    filters: vec![],
                    output: ViewOutput::Project(vec![
                        OutputColumn::col("k", "A.k"),
                        OutputColumn::col("v", "A.v"),
                        OutputColumn::col("g", "B.v"),
                    ]),
                }
            }
        };
        builder = builder.view(def);
        names.push(name);
    }
    let w = builder.build().unwrap();

    let mut changes: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for b in 0..n_bases {
        let name = format!("B{b}");
        let mut delta = DeltaRelation::new(schema.clone());
        for (tup, cnt) in w.table(&name).unwrap().iter() {
            if rng.below(4) == 0 {
                delta.add(tup.clone(), -(cnt as i64));
            }
        }
        for i in 0..3 + rng.below(4) {
            delta.add(
                Tuple::new(vec![
                    Value::Int(1000 + i as i64),
                    Value::Int(rng.below(100) as i64),
                    Value::Int(rng.below(3) as i64),
                ]),
                1 + rng.below(2) as i64,
            );
        }
        changes.insert(name, delta);
    }
    (w, changes)
}

/// A few random valid strategies for `g`: seeded picks from the exhaustive
/// 1-way enumeration plus the classic dual-stage strategy (all `Comp`s in
/// topological order, then all `Inst`s) when it is correct for `g`.
fn random_strategies(w: &Warehouse, rng: &mut SplitMix64, count: usize) -> Vec<Strategy> {
    let g = w.vdag();
    let one_way = all_one_way_vdag_strategies(g).unwrap();
    assert!(!one_way.is_empty());
    let mut out: Vec<Strategy> = (0..count)
        .map(|_| one_way[rng.below(one_way.len() as u64) as usize].clone())
        .collect();

    let mut dual: Vec<UpdateExpr> = Vec::new();
    for v in g.view_ids() {
        if !g.is_base(v) {
            dual.push(UpdateExpr::comp(v, g.sources(v).iter().copied()));
        }
    }
    for v in g.view_ids() {
        dual.push(UpdateExpr::inst(v));
    }
    let dual = Strategy::from_exprs(dual);
    if check_vdag_strategy(g, &dual).is_ok() {
        out.push(dual);
    }
    out
}

/// Runs `strategy` on a clone of `w` journaling into `dir`; returns the
/// error (if any) and removes nothing.
fn run_journaled(
    w: &Warehouse,
    strategy: &Strategy,
    dir: &PathBuf,
    faults: FaultPlan,
    partitions: usize,
) -> Result<String, CoreError> {
    let mut clone = w.clone();
    let mut opts = wal_opts(cfg(dir).with_faults(faults));
    opts.partition = PartitionOptions::with_partitions(partitions);
    clone.execute_with(strategy, opts)?;
    Ok(catalog_to_string(clone.state()))
}

// ---------------------------------------------------------------------------
// The crash matrix
// ---------------------------------------------------------------------------

/// Tentpole property: for random warehouses × random valid strategies ×
/// every crash point k, the recovered catalog is byte-identical to the
/// uncrashed run's.
#[test]
fn every_crash_point_recovers_to_identical_catalog() {
    for s in 0..3u64 {
        let seed = seed_base().wrapping_mul(31).wrapping_add(s);
        let (mut w, changes) = random_warehouse(seed);
        w.load_changes(changes).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x51AB);

        for strategy in random_strategies(&w, &mut rng, 2) {
            // Uncrashed journaled run: the reference catalog and the record
            // count that defines the crash-point range.
            let dir = wal_dir(&format!("matrix-{seed}"));
            let expected = run_journaled(&w, &strategy, &dir, FaultPlan::none(), 1).unwrap();
            let total = WalLog::open(&dir).unwrap().records.len() as u64;
            std::fs::remove_dir_all(&dir).unwrap();
            assert!(total >= 3, "BEGIN + at least one record + COMMIT");

            for k in 0..total {
                let dir = wal_dir(&format!("matrix-{seed}-k{k}"));
                let err = run_journaled(&w, &strategy, &dir, FaultPlan::crash_before(k), 1)
                    .expect_err("injected crash must abort the run");
                assert!(
                    matches!(err, CoreError::InjectedCrash { record } if record == k),
                    "crash point {k}: unexpected {err}"
                );

                let mut recovered = w.clone();
                let outcome = recover(&mut recovered, &dir)
                    .unwrap_or_else(|e| panic!("recover at crash point {k}: {e}"));
                assert_eq!(
                    catalog_to_string(recovered.state()),
                    expected,
                    "seed {seed} crash point {k}: recovered catalog diverges"
                );
                assert_eq!(
                    outcome.report.per_expr.len(),
                    strategy.len(),
                    "seed {seed} crash point {k}: report must cover the whole strategy"
                );
                // Replayed prefix then fresh suffix, in order.
                let first_fresh = outcome
                    .report
                    .per_expr
                    .iter()
                    .position(|r| !r.replayed)
                    .unwrap_or(strategy.len());
                assert!(outcome.report.per_expr[..first_fresh]
                    .iter()
                    .all(|r| r.replayed));
                assert!(outcome.report.per_expr[first_fresh..]
                    .iter()
                    .all(|r| !r.replayed));
                assert_eq!(outcome.resumed, strategy.len() - first_fresh);

                // Recovery is idempotent: the committed log replays fully.
                let mut again = w.clone();
                let second = recover(&mut again, &dir).unwrap();
                assert!(second.already_committed);
                assert_eq!(second.resumed, 0);
                assert_eq!(catalog_to_string(again.state()), expected);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

/// The crash matrix with the partition engine on: a 4-partition run
/// journals a WAL byte-identical to the sequential run's, so every crash
/// point of the partitioned run recovers — through the default recovery
/// path — to the identical catalog.
#[test]
fn partitioned_crashes_recover_to_identical_catalog() {
    let seed = seed_base().wrapping_mul(31).wrapping_add(11);
    let (mut w, changes) = random_warehouse(seed);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x9A27);

    for strategy in random_strategies(&w, &mut rng, 2) {
        let dir = wal_dir(&format!("part1-{seed}"));
        let expected = run_journaled(&w, &strategy, &dir, FaultPlan::none(), 1).unwrap();
        let seq_wal = std::fs::read(dir.join("wal.log")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = wal_dir(&format!("part4-{seed}"));
        let partitioned = run_journaled(&w, &strategy, &dir, FaultPlan::none(), 4).unwrap();
        assert_eq!(partitioned, expected, "partitioned final state diverged");
        assert_eq!(
            std::fs::read(dir.join("wal.log")).unwrap(),
            seq_wal,
            "partitioned WAL bytes diverged from sequential"
        );
        let total = WalLog::open(&dir).unwrap().records.len() as u64;
        std::fs::remove_dir_all(&dir).unwrap();

        for k in 0..total {
            let dir = wal_dir(&format!("part4-{seed}-k{k}"));
            let err = run_journaled(&w, &strategy, &dir, FaultPlan::crash_before(k), 4)
                .expect_err("injected crash must abort the run");
            assert!(
                matches!(err, CoreError::InjectedCrash { record } if record == k),
                "crash point {k}: unexpected {err}"
            );
            let mut recovered = w.clone();
            recover(&mut recovered, &dir)
                .unwrap_or_else(|e| panic!("recover at partitioned crash point {k}: {e}"));
            assert_eq!(
                catalog_to_string(recovered.state()),
                expected,
                "seed {seed} partitions=4 crash point {k}: recovered catalog diverges"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A torn final record (half-written line) is dropped and its expression
/// re-executed; the recovered catalog is still byte-identical.
#[test]
fn torn_final_record_is_dropped_and_redone() {
    let seed = seed_base().wrapping_mul(31).wrapping_add(7);
    let (mut w, changes) = random_warehouse(seed);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x7042);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);

    let dir = wal_dir("torn-ref");
    let expected = run_journaled(&w, &strategy, &dir, FaultPlan::none(), 1).unwrap();
    let total = WalLog::open(&dir).unwrap().records.len() as u64;
    std::fs::remove_dir_all(&dir).unwrap();

    for k in 0..total {
        let dir = wal_dir(&format!("torn-k{k}"));
        let err = run_journaled(&w, &strategy, &dir, FaultPlan::torn_at(k), 1)
            .expect_err("torn write must abort the run");
        assert!(matches!(err, CoreError::InjectedCrash { .. }), "{err}");

        let log = WalLog::open(&dir).unwrap();
        assert!(
            log.torn_tail || k == 0,
            "crash point {k}: half-written record must be detected as torn"
        );
        assert_eq!(log.records.len() as u64, k, "torn record must be dropped");

        let mut recovered = w.clone();
        recover(&mut recovered, &dir).unwrap();
        assert_eq!(catalog_to_string(recovered.state()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A duplicated record does not abort the run, and the reader collapses the
/// duplicate so replay stays idempotent.
#[test]
fn duplicate_record_is_collapsed_idempotently() {
    let seed = seed_base().wrapping_mul(31).wrapping_add(11);
    let (mut w, changes) = random_warehouse(seed);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x0D0B);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);

    let ref_dir = wal_dir("dup-ref");
    let expected = run_journaled(&w, &strategy, &ref_dir, FaultPlan::none(), 1).unwrap();
    let total = WalLog::open(&ref_dir).unwrap().records.len() as u64;
    std::fs::remove_dir_all(&ref_dir).unwrap();

    for k in (0..total).step_by(3) {
        let dir = wal_dir(&format!("dup-k{k}"));
        let got = run_journaled(&w, &strategy, &dir, FaultPlan::duplicate_at(k), 1)
            .expect("a duplicated record must not fail the writer");
        assert_eq!(got, expected);

        let log = WalLog::open(&dir).unwrap();
        assert_eq!(log.records.len() as u64, total, "duplicate must collapse");
        assert!(log.committed);

        let mut recovered = w.clone();
        let outcome = recover(&mut recovered, &dir).unwrap();
        assert!(outcome.already_committed);
        assert_eq!(catalog_to_string(recovered.state()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An interior corrupted record (flipped checksum byte, not at the tail) is
/// a typed `WalCorrupt` error, never a panic or a silent skip.
#[test]
fn interior_corruption_is_refused_with_a_typed_error() {
    let seed = seed_base().wrapping_mul(31).wrapping_add(13);
    let (mut w, changes) = random_warehouse(seed);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0xBAD);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);

    let dir = wal_dir("corrupt");
    run_journaled(&w, &strategy, &dir, FaultPlan::none(), 1).unwrap();

    // Flip one byte in the middle of the second record's body.
    let log_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&log_path).unwrap();
    let second_line = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
    let third_line = second_line
        + bytes[second_line..]
            .iter()
            .position(|b| *b == b'\n')
            .unwrap();
    let mid = (second_line + third_line) / 2;
    bytes[mid] = if bytes[mid] == b'x' { b'y' } else { b'x' };
    std::fs::write(&log_path, bytes).unwrap();

    let err = WalLog::open(&dir).expect_err("interior damage must be refused");
    assert!(matches!(err, CoreError::WalCorrupt { .. }), "{err}");
    let mut recovered = w.clone();
    let err = recover(&mut recovered, &dir).expect_err("recover must refuse damage");
    assert!(matches!(err, CoreError::WalCorrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cheap `ID` digest still catches a divergent redo: an `ID` record
/// whose post-install digest was rewritten — with its record checksum
/// recomputed, so the log itself reads clean — is refused when replaying
/// that `Inst` yields a different extent.
#[test]
fn a_rewritten_inst_digest_is_refused_as_a_diverged_replay() {
    let seed = seed_base().wrapping_mul(37).wrapping_add(17);
    let (mut w, changes) = random_warehouse(seed);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x1D);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);
    let dir = wal_dir("id-digest");
    run_journaled(&w, &strategy, &dir, FaultPlan::none(), 1).unwrap();

    let log_path = dir.join("wal.log");
    let text = std::fs::read_to_string(&log_path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.split(' ').nth(3) == Some("ID"))
        .expect("the run journaled an Inst");
    // `R <seq> <checksum> ID <idx> <rows> <post-digest>`: flip the digest's
    // last bit and checksum the new body.
    let mut fields = lines[at].splitn(4, ' ');
    let seq = fields.nth(1).unwrap();
    let (kept, digest) = fields.nth(1).unwrap().rsplit_once(' ').unwrap();
    let body = format!(
        "{kept} {:016x}",
        u64::from_str_radix(digest, 16).unwrap() ^ 1
    );
    let record = format!("R {seq} {:016x} {body}", digest64(&body));
    lines[at] = &record;
    std::fs::write(&log_path, lines.join("\n") + "\n").unwrap();

    assert!(
        WalLog::open(&dir).is_ok(),
        "the rewritten record must read clean"
    );
    let err = recover(&mut w.clone(), &dir).expect_err("a diverged replay must be refused");
    assert!(
        matches!(&err, CoreError::WalCorrupt { detail, .. }
            if detail.starts_with("replay of Inst(") && detail.contains("diverged")),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `state.snap` is checked against the manifest's content digest when the
/// log is opened: one row's multiplicity edited is refused before recovery
/// restores anything.
#[test]
fn an_edited_state_snapshot_is_refused_before_anything_is_restored() {
    let seed = seed_base().wrapping_mul(41).wrapping_add(19);
    let (mut w, changes) = random_warehouse(seed);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x5A);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);
    let dir = wal_dir("state-snap");
    let err = run_journaled(&w, &strategy, &dir, FaultPlan::crash_before(3), 1);
    assert!(matches!(err, Err(CoreError::InjectedCrash { .. })));

    // Decode the image, add one to one stored row's multiplicity, re-encode.
    let snap_path = dir.join("state.snap");
    let mut state = catalog_from_image(&std::fs::read(&snap_path).unwrap()).unwrap();
    let stored = state.iter().find(|t| !t.is_empty()).expect("a stored row");
    let name = stored.name().to_string();
    let table = state.get_mut(&name).unwrap();
    let row = table.iter().next().unwrap().0.clone();
    table.insert(row).unwrap();
    let mut edited = Vec::new();
    write_catalog_image(&mut edited, &state).unwrap();
    std::fs::write(&snap_path, edited).unwrap();

    let err = WalLog::open(&dir).expect_err("an edited snapshot must be refused");
    assert!(matches!(err, CoreError::Wal(_)), "{err}");
    let mut recovered = w.clone();
    let err = recover(&mut recovered, &dir).expect_err("recover must refuse it too");
    assert!(matches!(err, CoreError::Wal(_)), "{err}");
    assert_eq!(
        catalog_to_string(recovered.state()),
        catalog_to_string(w.state()),
        "nothing may be restored from a refused snapshot"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The snapshot images are read back whole or refused. `state.snap` and
/// `changes.snap` cut at every byte, and seeded single-byte flips in each,
/// either open to the journaled content (and recover to the uncrashed run's
/// catalog) or are a typed `CoreError::Wal` that leaves the warehouse
/// untouched. No damage may panic the decoder.
#[test]
fn damaged_snapshot_images_are_read_whole_or_refused() {
    let seed = seed_base().wrapping_mul(43).wrapping_add(23);
    let (mut w, changes) = random_warehouse(seed);
    let batch = deltas_to_string(&changes);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x1A6E);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);
    let reference = wal_dir("image-ref");
    let expected = run_journaled(&w, &strategy, &reference, FaultPlan::none(), 1).unwrap();
    std::fs::remove_dir_all(&reference).unwrap();

    let dir = wal_dir("image-fuzz");
    let err = run_journaled(&w, &strategy, &dir, FaultPlan::crash_before(3), 1);
    assert!(matches!(err, Err(CoreError::InjectedCrash { .. })));
    let files: Vec<(&str, Vec<u8>)> = ["manifest", "state.snap", "changes.snap", "wal.log"]
        .into_iter()
        .map(|f| (f, std::fs::read(dir.join(f)).unwrap()))
        .collect();
    let untouched = catalog_to_string(w.state());
    let (mut read_whole, mut refused) = (0, 0);
    let mut try_damaged = |name: &str, bytes: &[u8], what: &str| {
        for (f, b) in &files {
            std::fs::write(dir.join(f), b).unwrap();
        }
        std::fs::write(dir.join(name), bytes).unwrap();
        let mut recovered = w.clone();
        match WalLog::open(&dir) {
            Ok(log) => {
                assert_eq!(catalog_to_string(&log.state), untouched, "{what}");
                assert_eq!(deltas_to_string(&log.changes), batch, "{what}");
                recover(&mut recovered, &dir).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(catalog_to_string(recovered.state()), expected, "{what}");
                read_whole += 1;
            }
            Err(e) => {
                assert!(matches!(e, CoreError::Wal(_)), "{what}: {e}");
                let e = recover(&mut recovered, &dir).expect_err(what);
                assert!(matches!(e, CoreError::Wal(_)), "{what}: {e}");
                assert_eq!(catalog_to_string(recovered.state()), untouched, "{what}");
                refused += 1;
            }
        }
    };
    for (name, image) in files[1..3].iter().cloned() {
        for cut in 0..image.len() {
            try_damaged(name, &image[..cut], &format!("{name} cut at {cut}"));
        }
        for flip in 0..64 {
            let mut damaged = image.clone();
            let at = rng.below(image.len() as u64) as usize;
            damaged[at] ^= 1 + rng.below(255) as u8;
            try_damaged(name, &damaged, &format!("{name} flip {flip} at {at}"));
        }
        try_damaged(name, &image, &format!("{name} as written"));
    }
    assert!(
        read_whole >= 2 && refused > read_whole,
        "{read_whole} read, {refused} refused"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A directory written before the snapshots became images (manifest `v2`
/// beside text snapshots) is refused with a typed error, never misread; so
/// is a text `state.snap` beside a current manifest.
#[test]
fn a_v2_directory_with_text_snapshots_is_refused() {
    let seed = seed_base().wrapping_mul(47).wrapping_add(29);
    let (mut w, changes) = random_warehouse(seed);
    let batch = deltas_to_string(&changes);
    w.load_changes(changes).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x0502);
    let strategy = random_strategies(&w, &mut rng, 1).remove(0);
    let dir = wal_dir("v2");
    let err = run_journaled(&w, &strategy, &dir, FaultPlan::crash_before(3), 1);
    assert!(matches!(err, Err(CoreError::InjectedCrash { .. })));

    std::fs::write(dir.join("state.snap"), catalog_to_string(w.state())).unwrap();
    std::fs::write(dir.join("changes.snap"), batch).unwrap();
    let err = WalLog::open(&dir).expect_err("a text state.snap");
    assert!(
        matches!(&err, CoreError::Wal(d) if d.starts_with("state.snap")),
        "{err}"
    );

    let manifest = std::fs::read_to_string(dir.join("manifest")).unwrap();
    let v2 = manifest.replacen("# uww wal manifest v3", "# uww wal manifest v2", 1);
    assert_ne!(v2, manifest);
    std::fs::write(dir.join("manifest"), v2).unwrap();
    let err = WalLog::open(&dir).expect_err("a v2 manifest");
    assert!(
        matches!(&err, CoreError::Wal(d) if d.contains("header")),
        "{err}"
    );
    let mut recovered = w.clone();
    let err = recover(&mut recovered, &dir).expect_err("recover must refuse it too");
    assert!(matches!(err, CoreError::Wal(_)), "{err}");
    assert_eq!(
        catalog_to_string(recovered.state()),
        catalog_to_string(w.state())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Threaded executor crashes
// ---------------------------------------------------------------------------

/// Crashing the threaded parallel executor at every record boundary and
/// recovering **sequentially** reproduces the clean threaded run exactly.
#[test]
fn threaded_crashes_recover_sequentially_to_the_same_catalog() {
    let mut sc = TpcdScenario::builder()
        .scale(0.0003)
        .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
        .views([uww::tpcd::q3_def()])
        .build()
        .unwrap();
    sc.load_col_changes(0.10).unwrap();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let plan = uww::core::min_work(sc.warehouse.vdag(), &sizes).unwrap();
    let p = parallelize(sc.warehouse.vdag(), &plan.strategy);
    assert!(p.stages.len() > 1, "want a genuinely staged strategy");

    // Clean threaded run (journaled, no faults): the reference catalog.
    let dir = wal_dir("thr-ref");
    let mut clean = sc.warehouse.clone();
    clean.execute_staged(&p, wal_opts(cfg(&dir))).unwrap();
    let expected = catalog_to_string(clean.state());
    let total = WalLog::open(&dir).unwrap().records.len() as u64;
    std::fs::remove_dir_all(&dir).unwrap();

    // The sequential linearization agrees with the threaded run.
    let order: Vec<UpdateExpr> = canonical_stage_order(&p)
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    let mut seq = sc.warehouse.clone();
    seq.execute(&Strategy::from_exprs(order)).unwrap();
    assert_eq!(catalog_to_string(seq.state()), expected);

    for k in 0..total {
        let dir = wal_dir(&format!("thr-k{k}"));
        let mut crashed = sc.warehouse.clone();
        let err = crashed
            .execute_staged(
                &p,
                wal_opts(cfg(&dir).with_faults(FaultPlan::crash_before(k))),
            )
            .expect_err("injected crash must abort the threaded run");
        assert!(matches!(err, CoreError::InjectedCrash { .. }), "{err}");

        let mut recovered = sc.warehouse.clone();
        let outcome = recover(&mut recovered, &dir)
            .unwrap_or_else(|e| panic!("recover threaded crash point {k}: {e}"));
        assert_eq!(
            catalog_to_string(recovered.state()),
            expected,
            "threaded crash point {k}: recovered catalog diverges"
        );
        assert!(!outcome.already_committed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// The recovery gate
// ---------------------------------------------------------------------------

/// Builds the q3 scenario with a hand-rolled strategy whose crash points
/// are easy to name: Comp(Q3,{C,O,L}); Inst(C); Inst(O); Inst(L); Inst(Q3).
fn gate_scenario() -> (TpcdScenario, Strategy) {
    let mut sc = TpcdScenario::builder()
        .scale(0.0003)
        .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
        .views([uww::tpcd::q3_def()])
        .build()
        .unwrap();
    sc.load_col_changes(0.10).unwrap();
    let g = sc.warehouse.vdag();
    let c = g.id_of("CUSTOMER").unwrap();
    let o = g.id_of("ORDER").unwrap();
    let l = g.id_of("LINEITEM").unwrap();
    let q3 = g.id_of("Q3").unwrap();
    let strategy = Strategy::from_exprs(vec![
        UpdateExpr::comp(q3, [c, o, l]),
        UpdateExpr::inst(c),
        UpdateExpr::inst(o),
        UpdateExpr::inst(l),
        UpdateExpr::inst(q3),
    ]);
    check_vdag_strategy(g, &strategy).unwrap();
    (sc, strategy)
}

/// A suffix override invalidated by the partial install — a `Comp` reading
/// a delta the prefix already installed — is refused with a typed
/// diagnostic, and the warehouse is left restored but unmodified.
#[test]
fn recovery_gate_refuses_a_suffix_invalidated_by_the_prefix() {
    let (sc, strategy) = gate_scenario();
    let g = sc.warehouse.vdag();
    let c = g.id_of("CUSTOMER").unwrap();
    let o = g.id_of("ORDER").unwrap();
    let l = g.id_of("LINEITEM").unwrap();
    let q3 = g.id_of("Q3").unwrap();

    // Crash before record 6 = BEGIN, STG, CS, CD, IS, ID — so the prefix is
    // Comp(Q3,{C,O,L}); Inst(CUSTOMER).
    let dir = wal_dir("gate");
    let err = sc
        .run_with(
            &strategy,
            wal_opts(cfg(&dir).with_faults(FaultPlan::crash_before(6))),
        )
        .expect_err("injected crash");
    assert!(err.to_string().contains("injected crash"), "{err}");

    // The bad suffix re-propagates CUSTOMER's (already installed) delta.
    let bad = vec![
        UpdateExpr::comp1(q3, c),
        UpdateExpr::inst(o),
        UpdateExpr::inst(l),
        UpdateExpr::inst(q3),
    ];
    let mut recovered = sc.warehouse.clone();
    let err = recover_with(&mut recovered, &dir, Some(&bad))
        .expect_err("the gate must refuse the invalidated suffix");
    assert!(
        matches!(err, CoreError::Vdag(_) | CoreError::Analysis(_)),
        "want a C-rule or UWW diagnostic, got: {err}"
    );

    // A valid override (reordered installs) is accepted, the manifest is
    // rewritten, and both it and a plain re-recovery converge.
    let good = vec![
        UpdateExpr::inst(l),
        UpdateExpr::inst(o),
        UpdateExpr::inst(q3),
    ];
    let mut recovered = sc.warehouse.clone();
    let outcome = recover_with(&mut recovered, &dir, Some(&good)).unwrap();
    assert_eq!(outcome.resumed, 3);
    assert!(
        !dir.join("manifest.tmp").exists(),
        "the rewrite left its temp file"
    );
    let expected = sc.warehouse.expected_final_state().unwrap();
    assert!(recovered.diff_state(&expected).is_empty());

    let mut again = sc.warehouse.clone();
    let second = recover(&mut again, &dir).unwrap();
    assert!(second.already_committed, "override must commit the log");
    assert!(again.diff_state(&expected).is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash between writing `manifest.tmp` and renaming it over `manifest`
/// leaves the old manifest whole: the directory still opens and recovers to
/// the oracle, and the stray temp file is never read.
#[test]
fn a_stray_manifest_temp_file_beside_an_intact_manifest_is_ignored() {
    let (sc, strategy) = gate_scenario();
    let dir = wal_dir("stray-tmp");
    let err = sc
        .run_with(
            &strategy,
            wal_opts(cfg(&dir).with_faults(FaultPlan::crash_before(6))),
        )
        .expect_err("injected crash");
    assert!(err.to_string().contains("injected crash"), "{err}");
    let manifest = std::fs::read_to_string(dir.join("manifest")).unwrap();
    std::fs::write(dir.join("manifest.tmp"), &manifest[..manifest.len() / 2]).unwrap();

    WalLog::open(&dir).expect("the intact manifest opens");
    let mut recovered = sc.warehouse.clone();
    let outcome = recover(&mut recovered, &dir).unwrap();
    assert_eq!(outcome.resumed, 3);
    let expected = sc.warehouse.expected_final_state().unwrap();
    assert!(recovered.diff_state(&expected).is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery against a warehouse built over a *different* VDAG is refused up
/// front by the manifest fingerprint check.
#[test]
fn recovery_refuses_a_mismatched_vdag() {
    let (sc, strategy) = gate_scenario();
    let dir = wal_dir("fingerprint");
    let err = sc
        .run_with(
            &strategy,
            wal_opts(cfg(&dir).with_faults(FaultPlan::crash_before(4))),
        )
        .expect_err("injected crash");
    assert!(err.to_string().contains("injected crash"), "{err}");

    let (other, _) = random_warehouse(seed_base());
    let mut other = other;
    let err = recover(&mut other, &dir).expect_err("fingerprint mismatch");
    assert!(
        matches!(&err, CoreError::Wal(d) if d.contains("fingerprint")),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
