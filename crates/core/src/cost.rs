//! The linear work metric (Definition 3.5) as a predictive cost model.
//!
//! `Work(Inst(V)) = i · |ΔV|`. `Work(Comp(W, Y))` sums, over the
//! `2^|Y| − 1` terms, `c ·` (sizes of the term's operands): the delta forms
//! of the term's subset plus the *current stored* forms of every other
//! source of `W` — pre-install or post-install sizes depending on which
//! `Inst` expressions precede the term in the strategy. The model therefore
//! simulates installed-state as it walks a strategy, which is exactly why
//! `Work(Ei)` "depends on the expressions that precede `Ei`" (Section 3.3).
//!
//! [`CostMetric::OperandsOnce`] is the deliberately broken variant the
//! paper's Experiment-4 discussion dismantles: it counts each operand once
//! instead of once per term, which wrongly crowns the dual-stage strategy.

use crate::sizes::SizeCatalog;
use std::collections::HashSet;
use uww_vdag::{Strategy, UpdateExpr, Vdag, ViewId};

/// Which work metric to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CostMetric {
    /// The paper's linear work metric (per-term operand sums).
    #[default]
    Linear,
    /// The flawed "sum each operand once" variant from the Section 7
    /// discussion.
    OperandsOnce,
}

/// A cost model over one VDAG and one set of size estimates.
#[derive(Clone, Debug)]
pub struct CostModel<'a> {
    g: &'a Vdag,
    sizes: &'a SizeCatalog,
    /// Proportionality constant for `Comp` terms (the paper's `c`).
    pub comp_coeff: f64,
    /// Proportionality constant for `Inst` (the paper's `i`).
    pub inst_coeff: f64,
    /// Metric variant.
    pub metric: CostMetric,
}

impl<'a> CostModel<'a> {
    /// Linear metric with `c = i = 1`.
    pub fn new(g: &'a Vdag, sizes: &'a SizeCatalog) -> Self {
        CostModel {
            g,
            sizes,
            comp_coeff: 1.0,
            inst_coeff: 1.0,
            metric: CostMetric::Linear,
        }
    }

    /// Same, with the flawed metric variant.
    pub fn with_metric(g: &'a Vdag, sizes: &'a SizeCatalog, metric: CostMetric) -> Self {
        CostModel {
            metric,
            ..CostModel::new(g, sizes)
        }
    }

    /// The sizes in use.
    pub fn sizes(&self) -> &SizeCatalog {
        self.sizes
    }

    /// Prices a *cross*-expression sharing opportunity (strategy-scope
    /// cache): a `Comp` that probes a table published by an earlier
    /// expression avoids one `c · rows` hash build per consumed key. The
    /// publisher pays nothing extra under the linear metric — a keyed join
    /// charges build + probe over both sides whichever side is built — so
    /// the saving is the whole of it. `rows` is the total filtered rows of
    /// the consumed keys (`SharingProfile::cross_saved_rows`).
    pub fn cross_share_saving(&self, rows: u64) -> f64 {
        self.comp_coeff * rows as f64
    }

    /// Total predicted work of a strategy.
    pub fn strategy_work(&self, s: &Strategy) -> f64 {
        self.per_expression_work(s).into_iter().sum()
    }

    /// Predicted work per expression, in strategy order.
    pub fn per_expression_work(&self, s: &Strategy) -> Vec<f64> {
        let mut installed: HashSet<ViewId> = HashSet::new();
        let mut out = Vec::with_capacity(s.len());
        for e in &s.exprs {
            out.push(self.expression_work(e, &installed));
            if let UpdateExpr::Inst(v) = e {
                installed.insert(*v);
            }
        }
        out
    }

    /// Predicted work of one expression given the set of already-installed
    /// views.
    pub fn expression_work(&self, e: &UpdateExpr, installed: &HashSet<ViewId>) -> f64 {
        match e {
            UpdateExpr::Inst(v) => self.inst_coeff * self.sizes.delta(*v),
            UpdateExpr::Comp { view, over } => {
                let over: Vec<ViewId> = over.iter().copied().collect();
                match self.metric {
                    CostMetric::Linear => self.comp_linear(*view, &over, installed),
                    CostMetric::OperandsOnce => self.comp_once(*view, &over, installed),
                }
            }
        }
    }

    fn state_size(&self, v: ViewId, installed: &HashSet<ViewId>) -> f64 {
        self.sizes.state_size(v, installed.contains(&v))
    }

    /// Linear metric: one term per non-empty subset `D` of `over`, each
    /// charging `Σ_{v∈D} |Δv| + Σ_{u∈sources∖D} |u|`. Subsets containing a
    /// view with an empty delta are skipped — mirroring the engine (and the
    /// paper's footnote 5): such terms produce nothing and cost nothing.
    fn comp_linear(&self, view: ViewId, over: &[ViewId], installed: &HashSet<ViewId>) -> f64 {
        let sources = self.g.sources(view);
        let changed: Vec<ViewId> = over
            .iter()
            .copied()
            .filter(|v| self.sizes.delta(*v) > 0.0)
            .collect();
        let k = changed.len();
        if k == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for mask in 1u32..(1u32 << k) {
            let mut term = 0.0;
            for (i, v) in changed.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    term += self.sizes.delta(*v);
                }
            }
            for u in sources {
                let in_delta_role = changed
                    .iter()
                    .enumerate()
                    .any(|(i, v)| v == u && mask & (1 << i) != 0);
                if !in_delta_role {
                    term += self.state_size(*u, installed);
                }
            }
            total += self.comp_coeff * term;
        }
        total
    }

    /// Flawed variant: each operand counted once across the whole `Comp`.
    /// Deltas of the (changed) propagated views, plus the current size of
    /// every source that appears in *some* term in non-delta form.
    fn comp_once(&self, view: ViewId, over: &[ViewId], installed: &HashSet<ViewId>) -> f64 {
        let sources = self.g.sources(view);
        let changed: Vec<ViewId> = over
            .iter()
            .copied()
            .filter(|v| self.sizes.delta(*v) > 0.0)
            .collect();
        if changed.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for v in &changed {
            total += self.sizes.delta(*v);
        }
        for u in sources {
            let only_ever_delta = changed.len() == 1 && changed[0] == *u;
            if !only_ever_delta {
                total += self.state_size(*u, installed);
            }
        }
        self.comp_coeff * total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeInfo;
    use uww_vdag::{Strategy, Vdag};

    /// Example 3.2's setting: V4 = Π(V2 ⋈ V3).
    fn setup() -> (Vdag, SizeCatalog) {
        let mut g = Vdag::new();
        let v2 = g.add_base("V2").unwrap();
        let v3 = g.add_base("V3").unwrap();
        g.add_derived("V4", &[v2, v3]).unwrap();
        let mut sizes = SizeCatalog::default();
        sizes.set(
            v2,
            SizeInfo {
                pre: 100.0,
                post: 90.0,
                delta: 10.0,
            },
        );
        sizes.set(
            v3,
            SizeInfo {
                pre: 200.0,
                post: 180.0,
                delta: 20.0,
            },
        );
        sizes.set(
            ViewId(2),
            SizeInfo {
                pre: 50.0,
                post: 45.0,
                delta: 5.0,
            },
        );
        (g, sizes)
    }

    #[test]
    fn example_3_2_work_estimates() {
        let (g, sizes) = setup();
        let model = CostModel::new(&g, &sizes);
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let v3 = g.id_of("V3").unwrap();
        let installed = HashSet::new();

        // Comp(V4, {V2}) has one term: c·(|ΔV2| + |V3|) = 10 + 200.
        let w = model.expression_work(&UpdateExpr::comp1(v4, v2), &installed);
        assert_eq!(w, 210.0);

        // Comp(V4, {V2,V3}): (|ΔV2|+|V3|) + (|ΔV3|+|V2|) + (|ΔV2|+|ΔV3|)
        //                  = (10+200) + (20+100) + (10+20) = 360.
        let w = model.expression_work(&UpdateExpr::comp(v4, [v2, v3]), &installed);
        assert_eq!(w, 360.0);

        // Inst(V4) = i·|ΔV4| = 5.
        let w = model.expression_work(&UpdateExpr::inst(v4), &installed);
        assert_eq!(w, 5.0);
    }

    #[test]
    fn install_state_changes_later_comp_costs() {
        let (g, sizes) = setup();
        let model = CostModel::new(&g, &sizes);
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let v3 = g.id_of("V3").unwrap();

        // Propagate V3 first, install it, then propagate V2: the second comp
        // sees V3' (180) instead of V3 (200).
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v4, v3),
            UpdateExpr::inst(v3),
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::inst(v2),
            UpdateExpr::inst(v4),
        ]);
        let per = model.per_expression_work(&s);
        assert_eq!(per[0], 20.0 + 100.0); // ΔV3 + V2
        assert_eq!(per[1], 20.0);
        assert_eq!(per[2], 10.0 + 180.0); // ΔV2 + V3'
        assert_eq!(model.strategy_work(&s), 120.0 + 20.0 + 190.0 + 10.0 + 5.0);

        // The reverse order sees V2' (90) for the V3 comp: shrinking views
        // favour installing the biggest shrinker first.
        let s2 = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::inst(v2),
            UpdateExpr::comp1(v4, v3),
            UpdateExpr::inst(v3),
            UpdateExpr::inst(v4),
        ]);
        // V3 shrinks more in absolute terms (-20 < -10), so propagating V3
        // first (s) must win under the metric.
        assert!(model.strategy_work(&s) < model.strategy_work(&s2));
    }

    #[test]
    fn empty_delta_subsets_cost_nothing() {
        let (g, mut sizes) = setup();
        let v2 = g.id_of("V2").unwrap();
        sizes.set(
            v2,
            SizeInfo {
                pre: 100.0,
                post: 100.0,
                delta: 0.0,
            },
        );
        let model = CostModel::new(&g, &sizes);
        let v4 = g.id_of("V4").unwrap();
        let v3 = g.id_of("V3").unwrap();
        let installed = HashSet::new();
        // Only the {V3} term survives: ΔV3 + V2 = 20 + 100.
        let w = model.expression_work(&UpdateExpr::comp(v4, [v2, v3]), &installed);
        assert_eq!(w, 120.0);
        // Comp over just the unchanged view costs nothing.
        let w = model.expression_work(&UpdateExpr::comp1(v4, v2), &installed);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn operands_once_matches_paper_example() {
        // Section 7 discussion: under the variant metric the estimate for
        // Comp(V4, {V2,V3}) is c·(|ΔV2|+|V2|+|ΔV3|+|V3|).
        let (g, sizes) = setup();
        let model = CostModel::with_metric(&g, &sizes, CostMetric::OperandsOnce);
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let v3 = g.id_of("V3").unwrap();
        let installed = HashSet::new();
        let w = model.expression_work(&UpdateExpr::comp(v4, [v2, v3]), &installed);
        assert_eq!(w, 10.0 + 100.0 + 20.0 + 200.0);
        // For a 1-way comp the non-delta form of the propagated view never
        // appears: c·(|ΔV2| + |V3|).
        let w = model.expression_work(&UpdateExpr::comp1(v4, v2), &installed);
        assert_eq!(w, 10.0 + 200.0);
    }

    #[test]
    fn variant_metric_prefers_dual_stage() {
        // The paper: "Under this work metric, the dual-stage VDAG strategy
        // would be best" — with ≥3 sources, a 1-way strategy rescans each
        // other source in every Comp, while the variant charges the
        // dual-stage Comp for each operand only once. (With exactly 2
        // sources the two coincide, which is why the paper's point shows on
        // the 3-way Q3 and 6-way Q5.)
        let mut g = Vdag::new();
        let b: Vec<ViewId> = (0..3)
            .map(|i| g.add_base(format!("B{i}")).unwrap())
            .collect();
        let v = g.add_derived("V", &b).unwrap();
        let mut sizes = SizeCatalog::default();
        for (i, id) in b.iter().enumerate() {
            let pre = 100.0 * (i + 1) as f64;
            sizes.set(
                *id,
                SizeInfo {
                    pre,
                    post: pre * 0.9,
                    delta: pre * 0.1,
                },
            );
        }
        sizes.set(
            v,
            SizeInfo {
                pre: 50.0,
                post: 45.0,
                delta: 5.0,
            },
        );

        let model = CostModel::with_metric(&g, &sizes, CostMetric::OperandsOnce);
        let dual = Strategy::from_exprs(vec![
            UpdateExpr::comp(v, b.iter().copied()),
            UpdateExpr::inst(b[0]),
            UpdateExpr::inst(b[1]),
            UpdateExpr::inst(b[2]),
            UpdateExpr::inst(v),
        ]);
        let one_way = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, b[2]),
            UpdateExpr::inst(b[2]),
            UpdateExpr::comp1(v, b[1]),
            UpdateExpr::inst(b[1]),
            UpdateExpr::comp1(v, b[0]),
            UpdateExpr::inst(b[0]),
            UpdateExpr::inst(v),
        ]);
        assert!(model.strategy_work(&dual) < model.strategy_work(&one_way));
        // Under the real metric the ranking flips: 1-way wins.
        let linear = CostModel::new(&g, &sizes);
        assert!(linear.strategy_work(&one_way) < linear.strategy_work(&dual));
    }

    #[test]
    fn coefficients_scale() {
        let (g, sizes) = setup();
        let mut model = CostModel::new(&g, &sizes);
        model.inst_coeff = 2.0;
        let v2 = g.id_of("V2").unwrap();
        let w = model.expression_work(&UpdateExpr::inst(v2), &HashSet::new());
        assert_eq!(w, 20.0);
    }
}
