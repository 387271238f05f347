//! The paper's planning algorithms: MinWorkSingle (Section 4), MinWork
//! (Section 5), and Prune (Section 6).

use crate::cost::CostModel;
use crate::error::{CoreError, CoreResult};
use crate::sizes::SizeCatalog;
use uww_vdag::{
    check_vdag_strategy, check_view_strategy, construct_eg, construct_seg, modify_ordering,
    permutations, Strategy, UpdateExpr, Vdag, ViewId, ViewOrdering,
};

/// Debug-build gate: every strategy a planner emits must be correct. A
/// diagnostic here is a planner bug, not user error, so it panics in debug
/// builds and costs nothing in release builds.
#[inline]
fn debug_lint(g: &Vdag, s: &Strategy) {
    if cfg!(debug_assertions) {
        if let Err(e) = check_vdag_strategy(g, s) {
            panic!("planner emitted an incorrect strategy: {e}");
        }
    }
}

/// Debug-build gate for single-view planners ([`min_work_single`]).
#[inline]
fn debug_lint_view(g: &Vdag, view: ViewId, s: &Strategy) {
    if cfg!(debug_assertions) {
        if let Err(e) = check_view_strategy(g, view, s) {
            panic!("planner emitted an incorrect view strategy: {e}");
        }
    }
}

/// **MinWorkSingle** (Algorithm 4.1): the optimal view strategy for a single
/// view under the linear work metric.
///
/// Orders the views the target is defined over by increasing `|V'| − |V|`
/// (Theorem 4.2), and emits the 1-way strategy consistent with that ordering
/// (optimal over *all* view strategies by Theorem 4.1). `O(n log n)`.
pub fn min_work_single(g: &Vdag, view: ViewId, sizes: &SizeCatalog) -> Strategy {
    let mut sources: Vec<ViewId> = g.sources(view).to_vec();
    sources.sort_by(|a, b| {
        sizes
            .info(*a)
            .growth()
            .partial_cmp(&sizes.info(*b).growth())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    let mut s = Strategy::new();
    for v in &sources {
        s.push(UpdateExpr::comp1(view, *v));
        s.push(UpdateExpr::inst(*v));
    }
    s.push(UpdateExpr::inst(view));
    debug_lint_view(g, view, &s);
    s
}

/// The result of [`min_work`].
#[derive(Clone, Debug)]
pub struct MinWorkPlan {
    /// The produced 1-way VDAG strategy.
    pub strategy: Strategy,
    /// The desired view ordering (increasing `|V'| − |V|`).
    pub desired_ordering: ViewOrdering,
    /// The ordering actually used (level-major modification when the desired
    /// ordering's expression graph was cyclic).
    pub ordering: ViewOrdering,
    /// True when `ModifyOrdering` had to be applied — the plan is then
    /// near-optimal rather than guaranteed-optimal.
    pub used_modified_ordering: bool,
}

/// **MinWork** (Algorithm 5.1): a 1-way VDAG strategy consistent with the
/// desired view ordering when its expression graph is acyclic — optimal
/// under the linear metric (Theorem 5.3), and always so for tree and uniform
/// VDAGs (Theorem 5.4). Falls back to `ModifyOrdering` otherwise
/// (Theorem 5.5 guarantees success). `O(n³)`.
pub fn min_work(g: &Vdag, sizes: &SizeCatalog) -> CoreResult<MinWorkPlan> {
    let desired = sizes.desired_ordering(g);
    let eg = construct_eg(g, &desired);
    if eg.is_acyclic() {
        let strategy = eg.topological_strategy(&desired)?;
        debug_lint(g, &strategy);
        return Ok(MinWorkPlan {
            strategy,
            ordering: desired.clone(),
            desired_ordering: desired,
            used_modified_ordering: false,
        });
    }
    let modified = modify_ordering(g, &desired);
    let eg = construct_eg(g, &modified);
    let strategy = eg
        .topological_strategy(&modified)
        .map_err(|_| CoreError::Planner("ModifyOrdering produced a cyclic EG".to_string()))?;
    debug_lint(g, &strategy);
    Ok(MinWorkPlan {
        strategy,
        ordering: modified,
        desired_ordering: desired,
        used_modified_ordering: true,
    })
}

/// Builds the 1-way VDAG strategy consistent with an arbitrary ordering
/// (used for baselines like the paper's RNSCOL). Falls back to
/// `ModifyOrdering` when needed, like MinWork.
pub fn one_way_for_ordering(g: &Vdag, ord: &ViewOrdering) -> CoreResult<Strategy> {
    let eg = construct_eg(g, ord);
    let strategy = if eg.is_acyclic() {
        eg.topological_strategy(ord)?
    } else {
        let modified = modify_ordering(g, ord);
        construct_eg(g, &modified).topological_strategy(&modified)?
    };
    debug_lint(g, &strategy);
    Ok(strategy)
}

/// The result of [`prune`].
#[derive(Clone, Debug)]
pub struct PruneOutcome {
    /// The cheapest 1-way VDAG strategy found.
    pub strategy: Strategy,
    /// Its predicted work.
    pub cost: f64,
    /// The view ordering it is strongly consistent with.
    pub ordering: ViewOrdering,
    /// Orderings enumerated.
    pub orderings_examined: usize,
    /// Orderings admitting a strongly consistent strategy (acyclic SEGs).
    pub orderings_feasible: usize,
}

/// Maximum number of views-with-consumers Prune will enumerate (`m! ≤ 9!`).
pub const PRUNE_MAX_VIEWS: usize = 9;

/// **Prune** (Algorithm 6.1, with the Section 6 optimization): finds the
/// best 1-way VDAG strategy for *any* VDAG by enumerating view orderings,
/// keeping one strongly-consistent representative per ordering (Lemma 6.1
/// and Theorem 6.1 justify the partitioning), and costing it under the
/// model.
///
/// Only views some other view is defined over are permuted (`m!` orderings
/// instead of `n!`): a view nobody consumes can be installed at any point
/// after its changes are computed without affecting any `Comp`'s state.
pub fn prune(g: &Vdag, model: &CostModel<'_>) -> CoreResult<PruneOutcome> {
    prune_over(g, model, g.views_with_consumers())
}

/// Prune over the *full* `n!` ordering space (no optimization). Exists to
/// validate that the optimization never changes the answer.
pub fn prune_full(g: &Vdag, model: &CostModel<'_>) -> CoreResult<PruneOutcome> {
    prune_over(g, model, g.view_ids().collect())
}

fn prune_over(g: &Vdag, model: &CostModel<'_>, relevant: Vec<ViewId>) -> CoreResult<PruneOutcome> {
    if relevant.len() > PRUNE_MAX_VIEWS {
        return Err(CoreError::Planner(format!(
            "Prune would enumerate {}! orderings; use MinWork for VDAGs with more than {PRUNE_MAX_VIEWS} consumed views",
            relevant.len()
        )));
    }
    let mut best: Option<PruneOutcome> = None;
    let mut examined = 0usize;
    let mut feasible = 0usize;
    for perm in permutations(&relevant) {
        examined += 1;
        let ord = ViewOrdering::new(perm, g.len());
        let seg = construct_seg(g, &ord);
        if !seg.is_acyclic() {
            continue;
        }
        feasible += 1;
        let strategy = seg.topological_strategy(&ord)?;
        debug_lint(g, &strategy);
        let cost = model.strategy_work(&strategy);
        let better = match &best {
            None => true,
            Some(b) => cost < b.cost,
        };
        if better {
            best = Some(PruneOutcome {
                strategy,
                cost,
                ordering: ord,
                orderings_examined: 0,
                orderings_feasible: 0,
            });
        }
    }
    let mut out = best.ok_or_else(|| {
        CoreError::Planner("no ordering admits a strongly consistent 1-way strategy".to_string())
    })?;
    out.orderings_examined = examined;
    out.orderings_feasible = feasible;
    Ok(out)
}

/// The result of [`min_work_shared`]: the winner under the sharing-aware
/// objective alongside the plain-linear winner over the *same* candidate
/// set, so callers can tell when cross-expression sharing changed the
/// ranking.
#[derive(Clone, Debug)]
pub struct SharedPlanOutcome {
    /// The strategy minimizing `linear work − cross-share saving`.
    pub strategy: Strategy,
    /// The winner's shared-objective cost.
    pub cost: f64,
    /// The winner's plain linear work.
    pub linear_cost: f64,
    /// The winner's priced cross-expression saving
    /// ([`CostModel::cross_share_saving`] of its consumed-key rows).
    pub cross_saving: f64,
    /// The plain-objective winner over the same candidates (what
    /// [`min_work`]/[`prune`] would pick).
    pub baseline: Strategy,
    /// The baseline's linear work.
    pub baseline_cost: f64,
    /// True when the shared objective picked a different strategy than the
    /// plain linear one.
    pub differs: bool,
    /// Candidate strategies replayed and costed under the shared objective.
    pub candidates: usize,
}

/// Feasible orderings [`min_work_shared`] will replay the sharing plan for
/// before the adaptive extension kicks in. Ranking a candidate's cross-share
/// saving requires a scratch replay of the whole strategy (operand sizes
/// depend on run state), so unlike [`prune`]'s closed-form costing the
/// candidate set must stay small; the cheapest-by-linear-work candidates are
/// kept, since a saving can never exceed the operand rows the linear cost
/// already counts. When an observed saving exceeds the linear spread of the
/// capped set, the search continues past the cap — a cheaper shared cost may
/// hide behind a worse linear rank — until a candidate's linear handicap
/// over the baseline exceeds the largest saving seen.
pub const SHARED_REPLAY_CAP: usize = 24;

/// **MinWorkShared**: the sharing-aware planner objective. Scores each
/// candidate 1-way strategy by `strategy_work − cross_share_saving`, where
/// the saving prices the hash builds the strategy-scope operand cache
/// avoids across expression boundaries (the held-key rows of
/// [`plan_strategy_sharing`]'s profile). Candidates are every [`prune`]-feasible ordering's
/// strongly consistent representative (when the VDAG has at most
/// [`PRUNE_MAX_VIEWS`] consumed views) plus the [`min_work`] strategy —
/// capped at the [`SHARED_REPLAY_CAP`] linear-cheapest, which always
/// include the plain winner, so `differs` is meaningful.
///
/// Because sharing only subtracts, a strategy can win here that plain
/// MinWork ranks strictly worse — the cache turns rescans of a large shared
/// operand into probes, repricing orderings that keep it live across
/// consecutive `Comp`s.
pub fn min_work_shared(
    w: &crate::engine::Warehouse,
    model: &CostModel<'_>,
) -> CoreResult<SharedPlanOutcome> {
    min_work_shared_capped(w, model, SHARED_REPLAY_CAP)
}

/// [`min_work_shared`] with an explicit replay cap (the public entry uses
/// [`SHARED_REPLAY_CAP`]). The cap is adaptive, not hard: after replaying
/// the `cap` linear-cheapest candidates, the search keeps going whenever the
/// largest cross-share saving seen so far exceeds the linear spread of the
/// capped set — evidence that a candidate ranked past the cap by linear work
/// alone could still win under the shared objective — and stops once a
/// candidate's linear handicap over the baseline exceeds that saving (the
/// list is sorted, so nothing later can repay it either).
pub fn min_work_shared_capped(
    w: &crate::engine::Warehouse,
    model: &CostModel<'_>,
    cap: usize,
) -> CoreResult<SharedPlanOutcome> {
    use crate::engine::{plan_strategy_sharing, SharingScope};
    // Price what a window shares within itself, on a clone without the
    // maintained indexes earlier windows left: the choice then depends on
    // the warehouse's contents alone, not on whether a crash or a cold
    // start dropped them.
    let mut cold = w.clone();
    cold.drop_indexes();
    let w = &cold;
    let g = w.vdag();
    let mut candidates: Vec<Strategy> = vec![min_work(g, model.sizes())?.strategy];
    let relevant = g.views_with_consumers();
    if relevant.len() <= PRUNE_MAX_VIEWS {
        for perm in permutations(&relevant) {
            let ord = ViewOrdering::new(perm, g.len());
            let seg = construct_seg(g, &ord);
            if !seg.is_acyclic() {
                continue;
            }
            let s = seg.topological_strategy(&ord)?;
            if !candidates.contains(&s) {
                candidates.push(s);
            }
        }
    }
    let mut scored: Vec<(f64, Strategy)> = candidates
        .into_iter()
        .map(|s| (model.strategy_work(&s), s))
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let cap = cap.max(1);
    let capped_spread = scored[scored.len().min(cap) - 1].0 - scored[0].0;
    let (baseline_cost, baseline) = scored[0].clone();
    let mut best: Option<SharedPlanOutcome> = None;
    let mut max_saving = 0.0f64;
    let mut replayed = 0usize;
    for (i, (linear, s)) in scored.into_iter().enumerate() {
        if i >= cap {
            // Extend past the cap adaptively: only while an observed saving
            // exceeds the capped set's linear spread (so the capped ranking
            // may be wrong) and this candidate's linear handicap could still
            // be repaid by a saving of the size already witnessed.
            if max_saving <= capped_spread || linear - baseline_cost > max_saving {
                break;
            }
        }
        replayed += 1;
        debug_lint(g, &s);
        let saving = model.cross_share_saving(
            plan_strategy_sharing(w, &s, SharingScope::Strategy)?
                .profile
                .cross_saved_rows(),
        );
        max_saving = max_saving.max(saving);
        let cost = linear - saving;
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(SharedPlanOutcome {
                strategy: s,
                cost,
                linear_cost: linear,
                cross_saving: saving,
                baseline: baseline.clone(),
                baseline_cost,
                differs: false,
                candidates: 0,
            });
        }
    }
    let mut out = best.expect("candidate set is never empty");
    out.candidates = replayed;
    out.differs = out.strategy != out.baseline;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeInfo;
    use uww_vdag::{
        check_vdag_strategy, check_view_strategy, figure10_vdag, figure3_vdag,
        one_way_view_strategies, strongly_consistent, vdag_strategy_consistent, view_strategies,
    };

    fn shrinking_sizes(g: &Vdag, shrink: &[(&str, f64, f64)]) -> SizeCatalog {
        let mut cat = SizeCatalog::default();
        for (name, pre, frac) in shrink {
            let v = g.id_of(name).unwrap();
            let delta = pre * frac;
            cat.set(
                v,
                SizeInfo {
                    pre: *pre,
                    post: pre - delta,
                    delta,
                },
            );
        }
        cat
    }

    #[test]
    fn min_work_single_orders_by_growth() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        // V3 shrinks by 50, V2 by 5: propagate V3 first.
        let sizes = shrinking_sizes(
            &g,
            &[("V1", 100.0, 0.0), ("V2", 50.0, 0.1), ("V3", 500.0, 0.1)],
        );
        let s = min_work_single(&g, v4, &sizes);
        check_view_strategy(&g, v4, &s).unwrap();
        assert_eq!(s.exprs[0], UpdateExpr::comp1(v4, g.id_of("V3").unwrap()));
        assert!(s.is_one_way());
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn min_work_single_is_optimal_over_all_enumerated_strategies() {
        // Theorem 4.1 + 4.2, validated by brute force over all 13/75
        // strategies of views over 3 and 4 bases, across several size
        // scenarios (shrinking, growing, mixed).
        for scenario in 0..4 {
            let mut g = Vdag::new();
            let n = if scenario % 2 == 0 { 3 } else { 4 };
            let bases: Vec<ViewId> = (0..n)
                .map(|i| g.add_base(format!("B{i}")).unwrap())
                .collect();
            let view = g.add_derived("V", &bases).unwrap();
            let mut sizes = SizeCatalog::default();
            for (i, b) in bases.iter().enumerate() {
                // Mix of shrinking and growing views.
                let pre = 100.0 * (i + 1) as f64;
                let growth = match (scenario + i) % 3 {
                    0 => -0.2 * pre,
                    1 => 0.1 * pre,
                    _ => -0.05 * pre,
                };
                sizes.set(
                    *b,
                    SizeInfo {
                        pre,
                        post: pre + growth,
                        delta: growth.abs().max(1.0),
                    },
                );
            }
            sizes.set(
                view,
                SizeInfo {
                    pre: 40.0,
                    post: 40.0,
                    delta: 4.0,
                },
            );
            let model = CostModel::new(&g, &sizes);
            let planned = min_work_single(&g, view, &sizes);
            let planned_cost = model.strategy_work(&planned);
            for s in view_strategies(&g, view) {
                let c = model.strategy_work(&s);
                assert!(
                    planned_cost <= c + 1e-9,
                    "scenario {scenario}: MinWorkSingle {planned_cost} beaten by {c}"
                );
            }
        }
    }

    #[test]
    fn best_one_way_equals_best_overall() {
        // Theorem 4.1: the best 1-way strategy is optimal over the whole
        // space.
        let mut g = Vdag::new();
        let bases: Vec<ViewId> = (0..4)
            .map(|i| g.add_base(format!("B{i}")).unwrap())
            .collect();
        let view = g.add_derived("V", &bases).unwrap();
        let mut sizes = SizeCatalog::default();
        for (i, b) in bases.iter().enumerate() {
            let pre = 50.0 + 60.0 * i as f64;
            sizes.set(
                *b,
                SizeInfo {
                    pre,
                    post: pre * 0.9,
                    delta: pre * 0.1,
                },
            );
        }
        let model = CostModel::new(&g, &sizes);
        let best_any = view_strategies(&g, view)
            .into_iter()
            .map(|s| model.strategy_work(&s))
            .fold(f64::INFINITY, f64::min);
        let best_1way = one_way_view_strategies(&g, view)
            .into_iter()
            .map(|s| model.strategy_work(&s))
            .fold(f64::INFINITY, f64::min);
        assert!((best_any - best_1way).abs() < 1e-9);
    }

    #[test]
    fn min_work_on_tree_vdag_is_optimal_vs_prune() {
        let g = figure3_vdag();
        let sizes = shrinking_sizes(
            &g,
            &[
                ("V1", 100.0, 0.05),
                ("V2", 300.0, 0.1),
                ("V3", 200.0, 0.1),
                ("V4", 150.0, 0.08),
                ("V5", 80.0, 0.05),
            ],
        );
        let model = CostModel::new(&g, &sizes);
        let plan = min_work(&g, &sizes).unwrap();
        assert!(!plan.used_modified_ordering);
        check_vdag_strategy(&g, &plan.strategy).unwrap();
        assert!(vdag_strategy_consistent(&plan.strategy, &g, &plan.ordering));

        let pruned = prune(&g, &model).unwrap();
        check_vdag_strategy(&g, &pruned.strategy).unwrap();
        let mw = model.strategy_work(&plan.strategy);
        assert!(
            mw <= pruned.cost + 1e-9,
            "MinWork {mw} worse than Prune {}",
            pruned.cost
        );
    }

    #[test]
    fn prune_optimization_matches_full_enumeration() {
        let g = figure10_vdag();
        let sizes = shrinking_sizes(
            &g,
            &[
                ("V1", 120.0, 0.1),
                ("V2", 300.0, 0.02),
                ("V3", 200.0, 0.15),
                ("V4", 150.0, 0.08),
                ("V5", 80.0, 0.05),
            ],
        );
        let model = CostModel::new(&g, &sizes);
        let fast = prune(&g, &model).unwrap();
        let full = prune_full(&g, &model).unwrap();
        assert!((fast.cost - full.cost).abs() < 1e-9);
        assert!(fast.orderings_examined < full.orderings_examined);
        assert!(strongly_consistent(&fast.strategy, &fast.ordering));
    }

    #[test]
    fn min_work_falls_back_on_cyclic_eg() {
        // Force a desired ordering that ranks V4 first on the Figure 10
        // VDAG: its EG is cyclic, so MinWork must fall back.
        // Sizes chosen so the desired ordering is ⟨V4, V2, V1, V3, V5⟩ —
        // the ordering shown cyclic for this VDAG in the paper's Appendix A
        // (Figure 16).
        let g = figure10_vdag();
        let mut sizes = shrinking_sizes(
            &g,
            &[
                ("V2", 300.0, 0.1667), // growth ≈ -50
                ("V1", 120.0, 0.1),    // growth = -12
                ("V3", 200.0, 0.03),   // growth = -6
                ("V5", 80.0, 0.05),    // growth = -4
            ],
        );
        // V4 shrinks enormously: desired ordering starts with V4.
        sizes.set(
            g.id_of("V4").unwrap(),
            SizeInfo {
                pre: 1000.0,
                post: 100.0,
                delta: 900.0,
            },
        );
        let plan = min_work(&g, &sizes).unwrap();
        assert!(plan.used_modified_ordering);
        check_vdag_strategy(&g, &plan.strategy).unwrap();
        // MinWork is near-optimal here; Prune may beat it but not the other
        // way round.
        let model = CostModel::new(&g, &sizes);
        let pruned = prune(&g, &model).unwrap();
        assert!(pruned.cost <= model.strategy_work(&plan.strategy) + 1e-9);
    }

    #[test]
    fn prune_rejects_oversized_vdags() {
        let mut g = Vdag::new();
        let bases: Vec<ViewId> = (0..10)
            .map(|i| g.add_base(format!("B{i}")).unwrap())
            .collect();
        g.add_derived("V", &bases).unwrap();
        let sizes = SizeCatalog::default();
        let model = CostModel::new(&g, &sizes);
        assert!(matches!(prune(&g, &model), Err(CoreError::Planner(_))));
    }

    #[test]
    fn one_way_for_ordering_produces_rnscol_style_baselines() {
        let g = figure3_vdag();
        let sizes = shrinking_sizes(
            &g,
            &[
                ("V1", 100.0, 0.05),
                ("V2", 300.0, 0.1),
                ("V3", 200.0, 0.1),
                ("V4", 150.0, 0.08),
                ("V5", 80.0, 0.05),
            ],
        );
        let reversed = sizes.desired_ordering(&g).reversed();
        let s = one_way_for_ordering(&g, &reversed).unwrap();
        check_vdag_strategy(&g, &s).unwrap();
        // Must not be cheaper than MinWork.
        let model = CostModel::new(&g, &sizes);
        let plan = min_work(&g, &sizes).unwrap();
        assert!(model.strategy_work(&plan.strategy) <= model.strategy_work(&s) + 1e-9);
    }
}
