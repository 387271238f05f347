//! Liveness-adversarial tests for the strategy-scope operand cache: a
//! strategy that `Inst`s a base view *between* two `Comp`s reading it is
//! the worst case for cross-expression caching — the first reader builds a
//! hash table over the pre-install extent, and serving that table to the
//! post-install reader would silently corrupt the view. The cache must
//! never serve it — run straight through, or resumed from a crash at
//! **every** WAL record boundary.
//!
//! The fixture makes staleness maximally visible: the invalidated operand
//! (`B`) is the hash-*build* side of both readers (it is the smallest
//! operand), its delta both deletes existing join keys and inserts new
//! ones, and the final states are compared byte-for-byte against the
//! per-`Comp` cached engine (which has no cross-expression cache to go
//! stale) and against the from-scratch recompute.
//!
//! Seeded: set `UWW_SHARE_SEED` to shift the delta batches.

use std::collections::BTreeMap;
use std::path::PathBuf;

use uww::core::{
    plan_strategy_sharing, CoreError, ExecOptions, FaultPlan, FsyncPolicy, PartitionOptions,
    SharingScope, WalConfig, WalLog, Warehouse, WindowCarry,
};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Schema, Table, Tuple, Value,
    ValueType, ViewDef, ViewOutput, ViewSource,
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

/// An `Inst` invalidating a cached operand mid-strategy never serves stale
/// reuse: the strategy-scope engine is byte-identical to the reference, and
/// the static plan refuses to consume across the invalidation while still
/// consuming where liveness holds.
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

        // The plan itself: the post-Inst(B) reader rebuilds from scratch —
        // no cross-reuse, no cached read.
        let mut loaded = w.clone();
        loaded.load_changes(changes.clone()).unwrap();
        let plan = plan_strategy_sharing(&loaded, &strategy, SharingScope::Strategy).unwrap();
        let post = &plan.report.per_expr[post_inval].work;
        assert_eq!(
            post.hash_tables_cross_reused, 0,
            "seed {seed}: Comp(V2,{{C}}) must not probe a table Inst(B) invalidated"
        );
        assert_eq!(
            post.operand_reads_cached, 0,
            "seed {seed}: Comp(V2,{{C}}) must not read a materialization Inst(B) invalidated"
        );

        // Non-vacuity control: reorder so Inst(B) precedes both readers
        // and the *same* identity IS consumed — the adversarial zero above
        // is the liveness predicate at work, not a missing opportunity.
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
/// stale cache either (recovery rebuilds with no strategy cache by
/// construction).
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

/// An entry dies only when an expression actually changed its operand. With
/// nothing pending on `B`, the `Inst(B)` between the two stored-`B` readers
/// installs nothing, the first reader's table survives it and the second
/// reader probes it; with a non-empty ΔB the same `Inst` drops the entry and
/// the second reader rebuilds.
#[test]
fn an_entry_survives_an_empty_install_and_dies_with_a_real_one() {
    let (w, full) = fixture(seed_base().wrapping_mul(67).wrapping_add(3));
    let (strategy, post_inst) = adversarial_strategy(&w);
    let mut idle_b = full.clone();
    idle_b.remove("B");

    for (changes, survives) in [(idle_b, true), (full, false)] {
        let mut loaded = w.clone();
        loaded.load_changes(changes).unwrap();
        let expected = loaded.expected_final_state().unwrap();
        let report = loaded.execute_with(&strategy, shared(1)).unwrap();
        assert!(loaded.diff_state(&expected).is_empty());
        let reader = &report.per_expr[post_inst].work;
        if survives {
            assert!(reader.hash_tables_cross_reused > 0, "{reader}");
            assert!(reader.operand_reads_cached > 0, "{reader}");
            assert_eq!(reader.hash_tables_built, 0, "{reader}");
        } else {
            assert_eq!(reader.hash_tables_cross_reused, 0, "{reader}");
            assert_eq!(reader.operand_reads_cached, 0, "{reader}");
            assert!(reader.hash_tables_built > 0, "{reader}");
        }
    }
}

/// A table indexes a whole operand at every partition count, so a carry
/// serves any of them: a carry built at `P = 2` is probed by the next window
/// at `P = 1` and at `P = 2` alike — equal carried hits, equal meters
/// expression by expression, and both end in the oracle's state.
#[test]
fn a_carry_serves_every_partition_count() {
    let (w, _) = fixture(0);
    let (strategy, _) = control_strategy(&w);

    // Window 1 at P = 2 changes A and C: B's stored table serves both
    // readers and outlives the window.
    let mut first = w.clone();
    first.load_changes(inserts_on(&["A", "C"], 3000)).unwrap();
    let carry = first
        .execute_carried(&strategy, shared(2), WindowCarry::empty())
        .unwrap()
        .carry;
    assert!(carry.tables() > 0 && carry.raws() > 0, "{carry:?}");

    let second_window = |partitions: usize| {
        let mut second = first.clone();
        second.load_changes(inserts_on(&["A", "C"], 4000)).unwrap();
        let expected = second.expected_final_state().unwrap();
        let out = second
            .execute_carried(&strategy, shared(partitions), carry.clone())
            .unwrap();
        assert!(second.diff_state(&expected).is_empty(), "P = {partitions}");
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
