//! Maintained-index property and liveness adversaries.
//!
//! **The property.** Every stored operand a term joins is read through a
//! join index the warehouse maintains across `Inst`s and windows. After
//! every `Inst` — in batch, staged and carried windows, and in windows
//! crashed before any WAL record and then recovered — each maintained
//! index must equal a fresh filter-and-build over the view's current
//! extent: the same rows and multiplicities, and the same rows on every
//! key's chain ([`Warehouse::check_indexes`]). The fixture includes a base
//! whose rows all share one join key, so one key chain is the whole
//! extent and every delete comes off it.
//!
//! **The adversaries.** A strategy that `Inst`s a base view *between* two
//! `Comp`s reading it is the worst case for cross-expression sharing: a
//! table built over the pre-install extent would silently corrupt the view
//! if served to the post-install reader. The reader instead probes the
//! index the `Inst` kept current — run straight through, or resumed from a
//! crash at **every** WAL record boundary — and lands byte-identical to the
//! per-`Comp` engine and to the from-scratch recompute.
//!
//! Seeded: set `UWW_SHARE_SEED` to shift the delta batches.

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::{
    all_one_way_vdag_strategies, parallelize, plan_strategy_sharing, recover, CoreError,
    ExecOptions, FaultPlan, FsyncPolicy, PartitionOptions, SharingScope, WalConfig, WalLog,
    Warehouse, WindowCarry,
};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Predicate, Schema, Table, Tuple,
    Value, ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{check_vdag_strategy, dual_stage_strategy, SplitMix64, Strategy, UpdateExpr};

fn seed_base() -> u64 {
    std::env::var("UWW_SHARE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-live-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

fn base(name: &str, rows: i64) -> Table {
    let schema = Schema::of(COLS);
    let mut t = Table::new(name, schema);
    for k in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(k % 20),
            Value::Int(k),
            Value::Int(k % 3),
        ]))
        .unwrap();
    }
    t
}

fn join2(name: &str, (src_a, alias_a): (&str, &str), (src_b, alias_b): (&str, &str)) -> ViewDef {
    ViewDef {
        name: name.into(),
        sources: vec![
            ViewSource {
                view: src_a.into(),
                alias: alias_a.into(),
            },
            ViewSource {
                view: src_b.into(),
                alias: alias_b.into(),
            },
        ],
        joins: vec![EquiJoin::new(
            format!("{alias_a}.k"),
            format!("{alias_b}.k"),
        )],
        filters: vec![],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", format!("{alias_a}.k")),
            OutputColumn::col("v", format!("{alias_a}.v")),
            OutputColumn::col("g", format!("{alias_b}.v")),
        ]),
    }
}

/// `V1 = A ⋈ B`, `V2 = B ⋈ C`, with `B` (20 rows) the smallest — and hence
/// hash-build — operand of both views. Seeded deltas: every base gets
/// inserts on random join keys; `B` additionally gets deletions of random
/// existing rows, so its pre- and post-install extents disagree on *both*
/// sides (a stale cached table yields phantom and missing join matches).
fn fixture(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x11FE));
    let schema = Schema::of(COLS);
    let w = Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 50))
        .view(join2("V1", ("A", "A"), ("B", "B")))
        .view(join2("V2", ("B", "B"), ("C", "C")))
        .build()
        .unwrap();

    let mut changes: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for (name, inserts) in [("A", 8), ("B", 6), ("C", 7)] {
        let mut delta = DeltaRelation::new(schema.clone());
        if name == "B" {
            for (tup, cnt) in w.table("B").unwrap().iter() {
                if rng.below(3) == 0 {
                    delta.add(tup.clone(), -(cnt as i64));
                }
            }
        }
        for i in 0..inserts {
            delta.add(
                Tuple::new(vec![
                    Value::Int(rng.below(20) as i64),
                    Value::Int(2000 + 100 * i + rng.below(50) as i64),
                    Value::Int(rng.below(3) as i64),
                ]),
                1,
            );
        }
        changes.insert(name.to_string(), delta);
    }
    (w, changes)
}

/// The adversarial strategy: `Inst(B)` lands between the two stored-`B`
/// readers. Both readers hash-build over the *same* `SharedIdentity`
/// (`B`, stored, key `B.k` — `B` is the larger side of both joins, so it
/// is the keyed build in each), and only the liveness predicate stands
/// between the second reader and the first reader's pre-install table.
/// Returns the strategy and the index of the post-invalidation reader,
/// `Comp(V2,{C})`.
fn adversarial_strategy(w: &Warehouse) -> (Strategy, usize) {
    let g = w.vdag();
    let a = g.id_of("A").unwrap();
    let b = g.id_of("B").unwrap();
    let c = g.id_of("C").unwrap();
    let v1 = g.id_of("V1").unwrap();
    let v2 = g.id_of("V2").unwrap();
    let strategy = Strategy::from_exprs(vec![
        UpdateExpr::comp1(v1, a), // reads stored B (pre-install): builds its table
        UpdateExpr::inst(a),
        UpdateExpr::comp1(v1, b),
        UpdateExpr::comp1(v2, b),
        UpdateExpr::inst(b),      // kills every cached B extent
        UpdateExpr::comp1(v2, c), // reads stored B (post-install): must rebuild
        UpdateExpr::inst(c),
        UpdateExpr::inst(v1),
        UpdateExpr::inst(v2),
    ]);
    check_vdag_strategy(g, &strategy).unwrap();
    (strategy, 5)
}

/// The control: same expressions, but `Inst(B)` comes *before* both
/// stored-`B` readers, so the identical `SharedIdentity` is live between
/// them and the share is legitimately taken. Returns the strategy and the
/// index of the consuming reader, `Comp(V2,{C})`.
fn control_strategy(w: &Warehouse) -> (Strategy, usize) {
    let g = w.vdag();
    let a = g.id_of("A").unwrap();
    let b = g.id_of("B").unwrap();
    let c = g.id_of("C").unwrap();
    let v1 = g.id_of("V1").unwrap();
    let v2 = g.id_of("V2").unwrap();
    let strategy = Strategy::from_exprs(vec![
        UpdateExpr::comp1(v1, b),
        UpdateExpr::comp1(v2, b),
        UpdateExpr::inst(b),
        UpdateExpr::comp1(v1, a), // reads stored B': builds and publishes
        UpdateExpr::inst(a),
        UpdateExpr::comp1(v2, c), // reads stored B': consumes the live table
        UpdateExpr::inst(c),
        UpdateExpr::inst(v1),
        UpdateExpr::inst(v2),
    ]);
    check_vdag_strategy(g, &strategy).unwrap();
    (strategy, 5)
}

fn opts(dir: &PathBuf, strategy_cache: bool, faults: FaultPlan) -> ExecOptions {
    ExecOptions {
        wal: Some(
            WalConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_faults(faults),
        ),
        strategy_sharing: strategy_cache,
        ..ExecOptions::default()
    }
}

fn run(
    w: &Warehouse,
    changes: &BTreeMap<String, DeltaRelation>,
    strategy: &Strategy,
    dir: &PathBuf,
    strategy_cache: bool,
    faults: FaultPlan,
) -> Result<String, CoreError> {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    clone.execute_with(strategy, opts(dir, strategy_cache, faults))?;
    Ok(catalog_to_string(clone.state()))
}

/// The per-`Comp` cached run of `strategy` — the reference catalog — checked
/// against the from-scratch recompute.
fn reference(
    w: &Warehouse,
    changes: &BTreeMap<String, DeltaRelation>,
    strategy: &Strategy,
    dir: &PathBuf,
) -> String {
    let got = run(w, changes, strategy, dir, false, FaultPlan::none()).unwrap();
    let mut loaded = w.clone();
    loaded.load_changes(changes.clone()).unwrap();
    let oracle = loaded.expected_final_state().unwrap();
    assert_eq!(got, catalog_to_string(&oracle), "reference run is wrong");
    got
}

/// An `Inst` changing a stored operand mid-strategy never serves stale
/// reuse: the strategy-scope engine is byte-identical to the reference, the
/// post-install reader probes the index the `Inst` kept current instead of
/// rebuilding, and every index ends equal to a fresh build.
#[test]
fn invalidated_operand_is_never_served_stale() {
    for round in 0..4u64 {
        let seed = seed_base().wrapping_mul(67).wrapping_add(round);
        let (w, changes) = fixture(seed);
        let (strategy, post_inval) = adversarial_strategy(&w);

        let dir = wal_dir(&format!("ref-{round}"));
        let expected = reference(&w, &changes, &strategy, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = wal_dir(&format!("cached-{round}"));
        let got = run(&w, &changes, &strategy, &dir, true, FaultPlan::none()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            got, expected,
            "seed {seed}: strategy cache served stale data"
        );

        // The plan itself: the post-Inst(B) reader probes the B index the
        // first reader built and Inst(B) kept current — it builds nothing.
        let mut loaded = w.clone();
        loaded.load_changes(changes.clone()).unwrap();
        let plan = plan_strategy_sharing(&loaded, &strategy, SharingScope::Strategy).unwrap();
        let post = &plan.report.per_expr[post_inval].work;
        assert!(
            post.hash_tables_cross_reused > 0 && post.hash_tables_built == 0,
            "seed {seed}: Comp(V2,{{C}}) must probe the maintained B index: {post}"
        );
        let mut ran = loaded.clone();
        ran.execute_with(&strategy, shared(1)).unwrap();
        assert_fresh(&ran, &format!("seed {seed}, adversarial"));

        // The control: Inst(B) precedes both readers, and the second one
        // consumes what the first built.
        let (control, consumer) = control_strategy(&w);
        let cplan = plan_strategy_sharing(&loaded, &control, SharingScope::Strategy).unwrap();
        assert!(
            cplan.report.per_expr[consumer]
                .work
                .hash_tables_cross_reused
                > 0,
            "seed {seed}: the control ordering must consume the live stored-B table"
        );
        let dir = wal_dir(&format!("control-ref-{round}"));
        let cexpected = reference(&w, &changes, &control, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = wal_dir(&format!("control-{round}"));
        let got = run(&w, &changes, &control, &dir, true, FaultPlan::none()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            got, cexpected,
            "seed {seed}: legitimate consume diverged from the reference"
        );
    }
}

/// The crash matrix over the adversarial strategy: crashing the cached run
/// before **every** WAL record and recovering lands on a catalog
/// byte-identical to the reference — a resumed suffix never observes a
/// stale index either (restoring the snapshot drops every index).
#[test]
fn every_crash_point_of_the_cached_run_recovers_to_the_reference_catalog() {
    let seed = seed_base().wrapping_mul(67).wrapping_add(11);
    let (w, changes) = fixture(seed);
    let (strategy, _) = adversarial_strategy(&w);

    let dir = wal_dir("crash-ref");
    let expected = reference(&w, &changes, &strategy, &dir);
    let total = WalLog::open(&dir).unwrap().records.len() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(total >= 3, "BEGIN + at least one record + COMMIT");

    let mut loaded = w.clone();
    loaded.load_changes(changes.clone()).unwrap();

    for k in 0..total {
        let dir = wal_dir(&format!("crash-k{k}"));
        let err = run(
            &w,
            &changes,
            &strategy,
            &dir,
            true,
            FaultPlan::crash_before(k),
        )
        .expect_err("injected crash must abort the cached run");
        assert!(
            matches!(err, CoreError::InjectedCrash { record } if record == k),
            "crash point {k}: unexpected {err}"
        );

        let mut recovered = loaded.clone();
        uww::core::recover(&mut recovered, &dir)
            .unwrap_or_else(|e| panic!("recover crash point {k}: {e}"));
        assert_eq!(
            catalog_to_string(recovered.state()),
            expected,
            "crash point {k}: recovered catalog diverges from the reference"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// The single liveness rule, case by case
// ---------------------------------------------------------------------------

/// Inserts on `views` only; every other base has nothing pending.
fn inserts_on(views: &[&str], v_base: i64) -> BTreeMap<String, DeltaRelation> {
    let mut changes = BTreeMap::new();
    for (n, name) in views.iter().enumerate() {
        let mut delta = DeltaRelation::new(Schema::of(COLS));
        for i in 0..5 {
            delta.add(
                Tuple::new(vec![
                    Value::Int((3 * i + n as i64) % 20),
                    Value::Int(v_base + 10 * n as i64 + i),
                    Value::Int(i % 3),
                ]),
                1,
            );
        }
        changes.insert(name.to_string(), delta);
    }
    changes
}

fn shared(partitions: usize) -> ExecOptions {
    ExecOptions {
        strategy_sharing: true,
        partition: PartitionOptions::with_partitions(partitions),
        ..ExecOptions::default()
    }
}

/// An index outlives every install and stays current. With nothing
/// pending on `B`, the `Inst(B)` between the two stored-`B` readers
/// installs nothing; with a non-empty ΔB the same `Inst` hands the index its
/// delta. Either way the second reader probes the first reader's index and
/// builds nothing, and the window ends in the oracle's state with every
/// index equal to a fresh build.
#[test]
fn an_index_survives_every_install_and_stays_current() {
    let (w, full) = fixture(seed_base().wrapping_mul(67).wrapping_add(3));
    let (strategy, post_inst) = adversarial_strategy(&w);
    let mut idle_b = full.clone();
    idle_b.remove("B");

    for changes in [idle_b, full] {
        let mut loaded = w.clone();
        loaded.load_changes(changes).unwrap();
        let expected = loaded.expected_final_state().unwrap();
        let report = loaded.execute_with(&strategy, shared(1)).unwrap();
        assert!(loaded.diff_state(&expected).is_empty());
        assert_fresh(&loaded, "after the window");
        let reader = &report.per_expr[post_inst].work;
        assert!(reader.hash_tables_cross_reused > 0, "{reader}");
        assert!(reader.operand_reads_cached > 0, "{reader}");
        assert_eq!(reader.hash_tables_built, 0, "{reader}");
    }
}

/// An index covers a whole operand at every partition count, so the
/// indexes a window at `P = 2` leaves are probed by the next window at
/// `P = 1` and at `P = 2` alike — equal carried hits, equal meters
/// expression by expression, and both end in the oracle's state.
#[test]
fn a_carry_serves_every_partition_count() {
    let (w, _) = fixture(0);
    let (strategy, _) = control_strategy(&w);

    // Window 1 at P = 2 changes A and C: B's stored index serves both
    // readers and outlives the window.
    let mut first = w.clone();
    first.load_changes(inserts_on(&["A", "C"], 3000)).unwrap();
    let carry = first
        .execute_carried(&strategy, shared(2), WindowCarry::empty())
        .unwrap()
        .carry;
    let (keys, extents) = first.index_counts();
    assert!(keys > 0 && extents > 0, "{:?}", first.index_counts());

    let second_window = |partitions: usize| {
        let mut second = first.clone();
        second.load_changes(inserts_on(&["A", "C"], 4000)).unwrap();
        let expected = second.expected_final_state().unwrap();
        let out = second
            .execute_carried(&strategy, shared(partitions), carry.clone())
            .unwrap();
        assert!(second.diff_state(&expected).is_empty(), "P = {partitions}");
        assert_fresh(&second, &format!("P = {partitions}"));
        let c = out.conformance;
        assert!(c.measured_carried_table_hits > 0, "P = {partitions}: {c:?}");
        assert!(c.measured_carried_raw_hits > 0, "P = {partitions}: {c:?}");
        let meters: Vec<_> = out.report.per_expr.iter().map(|e| e.work).collect();
        (c, meters)
    };
    assert_eq!(second_window(1), second_window(2));
}

/// Delta-role entries die at the window's end: under the dual-stage
/// strategy every `Inst` follows every `Comp` and, the batch changing every
/// base view, installs rows — so no stored-role entry survives either, and
/// what the window hands on is empty.
#[test]
fn a_carry_holds_no_delta_role_entry() {
    let (w, changes) = fixture(seed_base().wrapping_mul(67).wrapping_add(5));
    let strategy = dual_stage_strategy(w.vdag());
    let mut loaded = w.clone();
    loaded.load_changes(changes).unwrap();
    let out = loaded
        .execute_carried(&strategy, shared(1), WindowCarry::empty())
        .unwrap();
    assert!(out.report.total_work().operand_reads_cached > 0);
    assert!(out.carry.is_empty(), "{:?}", out.carry);
}

// ---------------------------------------------------------------------------
// The property: every maintained index equals a fresh build after every Inst
// ---------------------------------------------------------------------------

/// Panics, naming `at`, unless every maintained index of `w` equals a fresh
/// filter-and-build over its view's current extent.
fn assert_fresh(w: &Warehouse, at: &str) {
    w.check_indexes()
        .unwrap_or_else(|e| panic!("{at}: a maintained index is stale: {e}"));
}

/// Bases `A`, `B`, `C` as in [`fixture`], plus `D`, whose 40 rows all share
/// join key 0: its key index is one chain holding the whole extent. Views:
/// `V1 = A ⋈ B`, `V2 = B ⋈ C`, and `V3 = D ⋈ A` with `A.v ≥ 10` pushed down
/// onto `A`, so indexes over a filtered extent are maintained too.
fn indexed_fixture() -> Warehouse {
    let mut d = Table::new("D", Schema::of(COLS));
    for v in 0..40 {
        d.insert(Tuple::new(vec![
            Value::Int(0),
            Value::Int(v),
            Value::Int(v % 3),
        ]))
        .unwrap();
    }
    let mut v3 = join2("V3", ("D", "D"), ("A", "A"));
    v3.filters = vec![Predicate::col_ge("A.v", Value::Int(10))];
    Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 50))
        .base_table(d)
        .view(join2("V1", ("A", "A"), ("B", "B")))
        .view(join2("V2", ("B", "B"), ("C", "C")))
        .view(v3)
        .build()
        .unwrap()
}

/// A batch against `w`'s current bases: about a quarter of every base's
/// rows deleted and a few rows inserted, on random join keys — key 0 only
/// for `D`, whose deletes therefore all come off its one long chain.
fn random_batch(w: &Warehouse, rng: &mut SplitMix64, tag: i64) -> BTreeMap<String, DeltaRelation> {
    let mut changes = BTreeMap::new();
    for name in ["A", "B", "C", "D"] {
        let mut delta = DeltaRelation::new(Schema::of(COLS));
        let mut rows = w.table(name).unwrap().sorted_rows();
        rows.retain(|_| rng.below(4) == 0);
        for (row, count) in rows {
            delta.add(row, -(count as i64));
        }
        for i in 0..5 {
            let k = if name == "D" { 0 } else { rng.below(20) as i64 };
            let v = 10_000 * tag + 100 * i + rng.below(50) as i64;
            delta.add(
                Tuple::new(vec![Value::Int(k), Value::Int(v), Value::Int(i % 3)]),
                1,
            );
        }
        changes.insert(name.to_string(), delta);
    }
    changes
}

/// How one window runs: sequentially, or as the strategy's §9 stages.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Batch,
    Staged,
}

/// Runs `strategy` on `w` in `mode`, journaled to `dir` with `faults`.
fn run_window(
    w: &mut Warehouse,
    strategy: &Strategy,
    mode: Mode,
    dir: &PathBuf,
    faults: FaultPlan,
) -> Result<(), CoreError> {
    let opts = opts(dir, false, faults);
    match mode {
        Mode::Batch => w.execute_with(strategy, opts).map(drop),
        Mode::Staged => {
            let stages = parallelize(w.vdag(), strategy);
            w.execute_staged(&stages, opts).map(drop)
        }
    }
}

/// Crashes `strategy`'s window on a clone of `w` before every WAL record
/// its uninterrupted run writes. At every crash point — so after every
/// `Inst` the window got through — the crashed warehouse's indexes must be
/// fresh; recovered from its journal it must land in the oracle's state,
/// fresh; and the window after it must too.
fn crash_everywhere(
    w: &Warehouse,
    strategy: &Strategy,
    mode: Mode,
    rng: &mut SplitMix64,
    tag: &str,
) {
    let expected = w.expected_final_state().unwrap();
    let dir = wal_dir(&format!("{tag}-ref"));
    let mut reference = w.clone();
    run_window(&mut reference, strategy, mode, &dir, FaultPlan::none()).unwrap();
    assert!(
        reference.diff_state(&expected).is_empty(),
        "{tag}: wrong state"
    );
    assert_fresh(&reference, tag);
    let total = WalLog::open(&dir).unwrap().records.len() as u64;
    let _ = std::fs::remove_dir_all(&dir);

    for k in 0..total {
        let at = format!("{tag}, crash before record {k}");
        let dir = wal_dir(&format!("{tag}-k{k}"));
        let mut crashed = w.clone();
        let err = run_window(
            &mut crashed,
            strategy,
            mode,
            &dir,
            FaultPlan::crash_before(k),
        )
        .expect_err("an injected crash aborts the window");
        assert!(
            matches!(err, CoreError::InjectedCrash { .. }),
            "{at}: {err}"
        );
        assert_fresh(&crashed, &at);

        recover(&mut crashed, &dir).unwrap_or_else(|e| panic!("{at}: recover: {e}"));
        assert!(
            crashed.diff_state(&expected).is_empty(),
            "{at}: recovered state"
        );
        assert_fresh(&crashed, &format!("{at}, recovered"));
        let _ = std::fs::remove_dir_all(&dir);

        crashed
            .load_changes(random_batch(&crashed, rng, 9))
            .unwrap();
        let next = crashed.expected_final_state().unwrap();
        crashed
            .execute_carried(strategy, shared(1), WindowCarry::empty())
            .unwrap();
        assert!(crashed.diff_state(&next).is_empty(), "{at}: next window");
        assert_fresh(&crashed, &format!("{at}, next window"));
    }
}

/// Batch and staged windows, every 1-way strategy sampled plus dual-stage,
/// each crashed before every WAL record: see [`crash_everywhere`].
#[test]
fn every_index_equals_a_fresh_build_after_every_inst() {
    let seed = seed_base().wrapping_mul(67).wrapping_add(23);
    let mut rng = SplitMix64::new(seed ^ 0x1DE7);
    let pristine = indexed_fixture();
    let g = pristine.vdag();
    let one_way = all_one_way_vdag_strategies(g).unwrap();
    let mut strategies = vec![dual_stage_strategy(g)];
    for _ in 0..2 {
        strategies.push(one_way[rng.below(one_way.len() as u64) as usize].clone());
    }
    for (si, strategy) in strategies.iter().enumerate() {
        let mut w = pristine.clone();
        w.load_changes(random_batch(&w, &mut rng, 1)).unwrap();
        for mode in [Mode::Batch, Mode::Staged] {
            let tag = format!("seed {seed}, strategy {si}, {mode:?}");
            crash_everywhere(&w, strategy, mode, &mut rng, &tag);
        }
    }
}

/// Carried windows: five windows on one warehouse, each a new batch under
/// another 1-way strategy, probing the indexes the windows before left and
/// kept current. Every window ends fresh and in the oracle's state, later
/// windows probe carried indexes, and the third window is crashed before
/// every WAL record (warm indexes in hand) and recovered.
#[test]
fn carried_windows_keep_every_index_current() {
    let seed = seed_base().wrapping_mul(67).wrapping_add(29);
    let mut rng = SplitMix64::new(seed ^ 0xCA7E);
    let mut w = indexed_fixture();
    let one_way = all_one_way_vdag_strategies(w.vdag()).unwrap();
    let mut carried_hits = 0;
    for window in 0..5 {
        let at = format!("seed {seed}, window {window}");
        let strategy = &one_way[rng.below(one_way.len() as u64) as usize];
        w.load_changes(random_batch(&w, &mut rng, window + 1))
            .unwrap();
        if window == 2 {
            crash_everywhere(&w, strategy, Mode::Batch, &mut rng, &at);
        }
        let expected = w.expected_final_state().unwrap();
        let out = w
            .execute_carried(
                strategy,
                shared(1 + window as usize % 2),
                WindowCarry::empty(),
            )
            .unwrap();
        assert!(w.diff_state(&expected).is_empty(), "{at}: wrong state");
        assert_fresh(&w, &at);
        assert_ne!(w.index_counts(), (0, 0), "{at}: nothing was indexed");
        carried_hits += out.conformance.measured_carried_table_hits;
    }
    assert!(
        carried_hits > 0,
        "no window probed an index an earlier one left"
    );
}
