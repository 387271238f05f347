//! Regression test for the sharing-aware planner objective: a fixture
//! where `MinWorkShared` provably selects a *different* strategy than plain
//! `MinWork`, the shared choice's measured physical work is strictly lower,
//! and the unshared linear ranking is unchanged.
//!
//! The fixture is built so the cross-`Comp` savings depend on the base-view
//! ordering while the linear metric pulls the other way:
//!
//! * `V1 = A ⋈ B`, `V2 = B ⋈ C` with `|A|=|C|=50`, `|B|=20`, and
//!   insert-only deltas `|ΔA|=25 < |ΔB|=30 < |ΔC|=40`.
//! * The linear-optimal one-way ordering is `⟨A,B,C⟩` (pairwise swaps cost
//!   the delta-size differences), which never hash-builds `B` twice:
//!   pre-install `B` (20 rows) is smaller than `ΔA`, so `Comp(V1,{A})`
//!   anchors on it instead of keying it, and post-install `B′` is built
//!   only once, by `Comp(V2,{C})`.
//! * Ordering `B` *first* costs `|ΔB|−|ΔA| = 5` more rows linearly, but
//!   after `Inst(B)` the grown `B′` (50 rows) is the keyed build side of
//!   *both* remaining `Comp`s — same `SharedIdentity`, nothing modifies
//!   `B` in between — so the strategy cache saves a 50-row build. Under
//!   `cost = linear − cross_share_saving` the flip wins by 45.

use std::collections::BTreeMap;

use uww::core::{
    min_work, plan_strategy_sharing, CostModel, ExecOptions, ExecutionReport, SharingScope,
    SizeCatalog, Warehouse,
};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Schema, Table, Tuple, Value,
    ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::Strategy;

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

fn inserts(rows: i64, v_base: i64) -> DeltaRelation {
    let mut delta = DeltaRelation::new(Schema::of(COLS));
    for i in 0..rows {
        delta.add(
            Tuple::new(vec![
                Value::Int(i % 20),
                Value::Int(v_base + i),
                Value::Int(i % 3),
            ]),
            1,
        );
    }
    delta
}

/// The fixture: `|A|=50, |B|=20, |C|=50` with `B` aliased identically in
/// both views (equal `SharedIdentity`), and the delta sizes described in
/// the module docs.
fn fixture() -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let w = Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 50))
        .view(join2("V1", ("A", "A"), ("B", "B")))
        .view(join2("V2", ("B", "B"), ("C", "C")))
        .build()
        .unwrap();
    let changes = BTreeMap::from([
        ("A".to_string(), inserts(25, 500)),
        ("B".to_string(), inserts(30, 600)),
        ("C".to_string(), inserts(40, 700)),
    ]);
    (w, changes)
}

fn run_shared(w: &Warehouse, strategy: &Strategy) -> (String, ExecutionReport) {
    let mut clone = w.clone();
    let report = clone
        .execute_with(
            strategy,
            ExecOptions {
                strategy_sharing: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
    (catalog_to_string(clone.state()), report)
}

#[test]
fn shared_objective_flips_the_strategy_and_measures_strictly_less_physical_work() {
    let (w, changes) = fixture();
    let mut w = w;
    w.load_changes(changes).unwrap();
    let sizes = SizeCatalog::estimate(&w).unwrap();
    let model = CostModel::new(w.vdag(), &sizes);

    let outcome = uww::core::min_work_shared(&w, &model).unwrap();

    // The flip: the shared objective picks a different strategy than plain
    // MinWork, because it prices the cross-Comp hash builds the strategy
    // cache avoids.
    assert!(
        outcome.differs,
        "MinWorkShared must flip on this fixture: chose {:?} (cost {:.0}, saving {:.0})",
        outcome.strategy, outcome.cost, outcome.cross_saving
    );
    assert!(outcome.cross_saving > 0.0);

    // The unshared ranking is unchanged: the baseline is still plain
    // MinWork's strategy, it is still linear-cheapest, and the flipped
    // choice is strictly worse under the plain metric — sharing is the
    // only reason it wins.
    let plain = min_work(w.vdag(), &sizes).unwrap();
    assert_eq!(outcome.baseline, plain.strategy);
    assert_eq!(
        outcome.baseline_cost,
        model.strategy_work(&outcome.baseline)
    );
    assert!(outcome.linear_cost > outcome.baseline_cost);
    // Baseline's own shareable savings, priced the same way.
    let base_saving = model.cross_share_saving(
        plan_strategy_sharing(&w, &outcome.baseline, SharingScope::Strategy)
            .unwrap()
            .profile
            .cross_saved_rows(),
    );
    assert!(outcome.cost < outcome.baseline_cost - base_saving + 1e-9);

    // Measured, not just predicted: running both strategies under the
    // strategy cache, the flipped choice touches strictly fewer physical
    // rows while producing the identical final state.
    let (state_chosen, report_chosen) = run_shared(&w, &outcome.strategy);
    let (state_base, report_base) = run_shared(&w, &outcome.baseline);
    assert_eq!(state_chosen, state_base, "both strategies must converge");
    let phys_chosen = report_chosen.total_work().physical_rows_touched;
    let phys_base = report_base.total_work().physical_rows_touched;
    assert!(
        phys_chosen < phys_base,
        "flip must pay off physically: {phys_chosen} >= {phys_base}"
    );

    // The predicted savings the objective priced are exactly the rows the
    // run avoided hash-building: cross counters conform on both strategies.
    for s in [&outcome.strategy, &outcome.baseline] {
        let plan = plan_strategy_sharing(&w, s, SharingScope::Strategy).unwrap();
        let (_, report) = run_shared(&w, s);
        for (p, e) in plan.report.per_expr.iter().zip(report.per_expr.iter()) {
            assert_eq!(
                p.work.hash_tables_cross_reused,
                e.work.hash_tables_cross_reused
            );
            assert_eq!(p.work.hash_tables_built, e.work.hash_tables_built);
        }
    }
}

/// Regression for the adaptive replay cap: a star-on-`B` fixture
/// (`V1 = A ⋈ B`, `V2 = B ⋈ C`, `V3 = B ⋈ D`) where the linear-cheapest
/// ordering `⟨A,B,C,D⟩` already shares one `B′` build (`Comp(V2,{C})` and
/// `Comp(V3,{D})` both key post-install `B`, saving 50), but the `B`-first
/// orderings share it **twice** (`Comp(V1,{A})` joins in, saving 100) at a
/// linear handicap of only `|ΔB|−|ΔA| = 5`. A search truncated hard at the
/// cap keeps only the 920-cost baseline; the adaptive extension — primed by
/// the in-cap saving of 50, which exceeds the capped set's zero spread —
/// must keep replaying past the cap and recover the 875-cost winner.
#[test]
fn adaptive_cap_extension_recovers_the_hidden_winner() {
    let mut w = Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 50))
        .base_table(base("D", 50))
        .view(join2("V1", ("A", "A"), ("B", "B")))
        .view(join2("V2", ("B", "B"), ("C", "C")))
        .view(join2("V3", ("B", "B"), ("D", "D")))
        .build()
        .unwrap();
    let changes = BTreeMap::from([
        ("A".to_string(), inserts(25, 500)),
        ("B".to_string(), inserts(30, 600)),
        ("C".to_string(), inserts(40, 700)),
        ("D".to_string(), inserts(45, 800)),
    ]);
    w.load_changes(changes).unwrap();
    let sizes = SizeCatalog::estimate(&w).unwrap();
    let model = CostModel::new(w.vdag(), &sizes);

    let full = uww::core::min_work_shared(&w, &model).unwrap();
    assert!(full.differs, "fixture must flip under the full search");

    let capped = uww::core::min_work_shared_capped(&w, &model, 1).unwrap();
    assert!(
        capped.differs,
        "cap 1 must still find the winner via the adaptive extension"
    );
    assert_eq!(
        capped.strategy, full.strategy,
        "capped search chose a different winner"
    );
    assert_eq!(capped.baseline, full.baseline);
    assert!((capped.cost - full.cost).abs() < 1e-9);
    assert!((capped.cross_saving - full.cross_saving).abs() < 1e-9);
    // The extension really did replay past the hard cap.
    assert!(
        capped.candidates > 1,
        "extension never ran: only {} candidate(s) replayed",
        capped.candidates
    );
    // And it had to: the winner strictly beats the best the capped set can
    // offer, even granting the baseline its own saving — truncating at the
    // cap would have kept a strictly worse strategy.
    let base_saving = model.cross_share_saving(
        plan_strategy_sharing(&w, &capped.baseline, SharingScope::Strategy)
            .unwrap()
            .profile
            .cross_saved_rows(),
    );
    assert!(
        base_saving > 0.0,
        "the in-cap evidence that primes the extension"
    );
    assert!(
        capped.cost < capped.baseline_cost - base_saving - 1e-9,
        "winner {:.0} must strictly beat the capped set's best {:.0}",
        capped.cost,
        capped.baseline_cost - base_saving
    );
    // The flip is real, not just priced: both strategies converge and the
    // winner touches strictly fewer physical rows under the cache.
    let (state_chosen, report_chosen) = run_shared(&w, &capped.strategy);
    let (state_base, report_base) = run_shared(&w, &capped.baseline);
    assert_eq!(state_chosen, state_base);
    assert!(
        report_chosen.total_work().physical_rows_touched
            < report_base.total_work().physical_rows_touched
    );
}

/// The objective never makes things worse, on the fixture and on the
/// Figure-4 warehouse alike: the shared cost is bounded above by the linear
/// cost of the same strategy and by the plain winner's cost under the same
/// objective (its linear cost less its own priced sharing), and both
/// strategies end in the same state.
#[test]
fn shared_cost_only_subtracts_from_linear() {
    let (mut fx, changes) = fixture();
    fx.load_changes(changes).unwrap();
    let mut fig4 = uww::scenario::figure4_scenario(0.0002).unwrap();
    fig4.load_paper_changes(0.10).unwrap();

    for (label, w) in [("fixture", fx), ("fig4", fig4.warehouse)] {
        let sizes = SizeCatalog::estimate(&w).unwrap();
        let model = CostModel::new(w.vdag(), &sizes);
        let outcome = uww::core::min_work_shared(&w, &model).unwrap();
        assert!(outcome.cost <= outcome.linear_cost, "{label}");
        assert!(outcome.cost <= outcome.baseline_cost, "{label}");
        assert!(outcome.candidates >= 2, "{label}: several valid orderings");
        let base_saving = model.cross_share_saving(
            plan_strategy_sharing(&w, &outcome.baseline, SharingScope::Strategy)
                .unwrap()
                .profile
                .cross_saved_rows(),
        );
        assert!(
            outcome.cost <= outcome.baseline_cost - base_saving + 1e-9,
            "{label}: MinWorkShared's objective {} exceeds MinWork's {}",
            outcome.cost,
            outcome.baseline_cost - base_saving
        );
        assert_eq!(
            run_shared(&w, &outcome.strategy).0,
            run_shared(&w, &outcome.baseline).0,
            "{label}: shared choice diverged"
        );
    }
}
