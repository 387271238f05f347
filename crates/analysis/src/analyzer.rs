//! The abstract-interpretation lint pass.
//!
//! The analyzer walks a strategy once, tracking for every view the abstract
//! update state a real execution would be in:
//!
//! * **installed** — views whose delta has landed in the stored extent
//!   (reads of them observe the *fresh* state);
//! * **computed** — views whose delta has been (partially) computed, with
//!   the positions of the computing expressions;
//! * **propagated** — which sources each view's `Comp`s have covered.
//!
//! Every `Comp(V, O)` *reads* ΔW and the stale extent of W for each `W ∈ O`,
//! reads the fresh-or-stale extent of V's remaining sources according to the
//! installed set, and *writes* ΔV. Every `Inst(V)` reads ΔV and writes V's
//! extent. The rules below are phrased over those effects and are, by
//! construction, **exactly equivalent** to the dynamic checkers
//! [`uww_vdag::check_view_strategy`] / [`uww_vdag::check_vdag_strategy`] on
//! sequential strategies: [`Report::has_errors`] is `true` iff the dynamic
//! checker rejects (a property test asserts this on random strategies).
//! On parallel strategies the analyzer is strictly stronger: `UWW001`
//! catches stage races the dynamic check of the linearization cannot see.

use crate::diag::{Diagnostic, Report, Rule, Severity};
use std::collections::{BTreeMap, BTreeSet};
use uww_vdag::{Strategy, UpdateExpr, Vdag, ViewId};

/// Renders a view name, tolerating ids outside the VDAG.
pub(crate) fn safe_name(g: &Vdag, v: ViewId) -> String {
    if v.0 < g.len() {
        g.name(v).to_string()
    } else {
        format!("#{}", v.0)
    }
}

/// Renders an expression, tolerating ids outside the VDAG.
pub(crate) fn safe_expr(g: &Vdag, e: &UpdateExpr) -> String {
    match e {
        UpdateExpr::Comp { view, over } => {
            let over: Vec<String> = over.iter().map(|v| safe_name(g, *v)).collect();
            format!("Comp({}, {{{}}})", safe_name(g, *view), over.join(", "))
        }
        UpdateExpr::Inst(v) => format!("Inst({})", safe_name(g, *v)),
    }
}

/// Accumulates diagnostics over one expression sequence.
struct Ctx<'g> {
    g: &'g Vdag,
    exprs: &'g [UpdateExpr],
    /// Well-formed flag per expression: every id in it names a view of `g`.
    wf: Vec<bool>,
    /// First position of `Inst(v)`.
    first_inst: BTreeMap<ViewId, usize>,
    /// Positions and over-sets of `Comp(v, ·)`, per view.
    comps: BTreeMap<ViewId, Vec<(usize, &'g BTreeSet<ViewId>)>>,
    out: Vec<Diagnostic>,
}

impl<'g> Ctx<'g> {
    fn new(g: &'g Vdag, exprs: &'g [UpdateExpr]) -> Self {
        Ctx {
            g,
            exprs,
            wf: vec![true; exprs.len()],
            first_inst: BTreeMap::new(),
            comps: BTreeMap::new(),
            out: Vec::new(),
        }
    }

    fn push(
        &mut self,
        rule: Rule,
        message: String,
        primary: Option<usize>,
        primary_label: &str,
        related: Vec<(usize, String)>,
        views: Vec<ViewId>,
    ) {
        let views = views
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|v| safe_name(self.g, v))
            .collect();
        self.out.push(Diagnostic {
            rule,
            severity: Severity::Error,
            message,
            primary,
            primary_label: primary_label.to_string(),
            related,
            views,
        });
    }

    /// UWW010: ids must name views; `Comp` must target a derived view with a
    /// non-empty over-set drawn from its sources.
    ///
    /// When `view_mode` is `Some(v)`, the Definition 3.1 shape is enforced
    /// instead: every `Comp` must target `v` and every `Inst` must target
    /// `v` or one of its sources.
    fn structural(&mut self, view_mode: Option<ViewId>) {
        let exprs = self.exprs;
        for (i, e) in exprs.iter().enumerate() {
            let mut ids: Vec<ViewId> = vec![e.subject()];
            if let UpdateExpr::Comp { over, .. } = e {
                ids.extend(over.iter().copied());
            }
            let unknown: Vec<ViewId> = ids
                .iter()
                .copied()
                .filter(|v| v.0 >= self.g.len())
                .collect();
            if !unknown.is_empty() {
                self.wf[i] = false;
                let msg = format!(
                    "{} refers to unknown view id{} {}",
                    safe_expr(self.g, e),
                    if unknown.len() == 1 { "" } else { "s" },
                    unknown
                        .iter()
                        .map(|v| format!("#{}", v.0))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
                self.push(
                    Rule::MalformedExpr,
                    msg,
                    Some(i),
                    "not a view of this VDAG",
                    vec![],
                    vec![],
                );
                continue;
            }
            if let UpdateExpr::Comp { view, over } = e {
                match view_mode {
                    Some(target) if *view != target => {
                        self.push(
                            Rule::MalformedExpr,
                            format!(
                                "{} does not update {} (a view strategy may only compute its own delta)",
                                safe_expr(self.g, e),
                                safe_name(self.g, target),
                            ),
                            Some(i),
                            "computes a foreign delta",
                            vec![],
                            vec![*view, target],
                        );
                        continue;
                    }
                    None if self.g.is_base(*view) => {
                        self.push(
                            Rule::MalformedExpr,
                            format!(
                                "base view {} cannot have a Comp: base deltas arrive from the sources",
                                safe_name(self.g, *view),
                            ),
                            Some(i),
                            "Comp of a base view",
                            vec![],
                            vec![*view],
                        );
                        continue;
                    }
                    _ => {}
                }
                if over.is_empty() {
                    self.push(
                        Rule::MalformedExpr,
                        format!("{} has an empty over-set", safe_expr(self.g, e)),
                        Some(i),
                        "propagates nothing",
                        vec![],
                        vec![*view],
                    );
                }
                let sources = self.g.sources(*view);
                let alien: Vec<ViewId> = over
                    .iter()
                    .copied()
                    .filter(|o| !sources.contains(o))
                    .collect();
                for o in alien {
                    self.push(
                        Rule::MalformedExpr,
                        format!(
                            "{} propagates {}, which is not a source of {}",
                            safe_expr(self.g, e),
                            safe_name(self.g, o),
                            safe_name(self.g, *view),
                        ),
                        Some(i),
                        "over-set escapes the view's sources",
                        vec![],
                        vec![*view, o],
                    );
                }
            } else if let (UpdateExpr::Inst(v), Some(target)) = (e, view_mode) {
                if *v != target && !self.g.sources(target).contains(v) {
                    self.push(
                        Rule::MalformedExpr,
                        format!(
                            "{} installs a view foreign to {}'s strategy",
                            safe_expr(self.g, e),
                            safe_name(self.g, target),
                        ),
                        Some(i),
                        "foreign install",
                        vec![],
                        vec![*v, target],
                    );
                }
            }
        }
    }

    /// One forward pass: builds the abstract state (installed set, computed
    /// deltas) and flags `UWW004` duplicates and `UWW006` stale reads of
    /// already-installed views.
    fn forward(&mut self) {
        let exprs = self.exprs;
        let mut seen: BTreeMap<&UpdateExpr, usize> = BTreeMap::new();
        for (i, e) in exprs.iter().enumerate() {
            if !self.wf[i] {
                continue;
            }
            if let Some(&j) = seen.get(e) {
                self.push(
                    Rule::RedundantTerm,
                    format!("duplicate expression {}", safe_expr(self.g, e)),
                    Some(i),
                    "repeats the work",
                    vec![(j, "first occurrence".to_string())],
                    vec![e.subject()],
                );
            } else {
                seen.insert(e, i);
            }
            match e {
                UpdateExpr::Comp { view, over } => {
                    for o in over {
                        if let Some(&ip) = self.first_inst.get(o) {
                            self.push(
                                Rule::ReadAfterInstall,
                                format!(
                                    "{} reads Δ{} and the stale extent of {}, but {} was already installed",
                                    safe_expr(self.g, e),
                                    safe_name(self.g, *o),
                                    safe_name(self.g, *o),
                                    safe_name(self.g, *o),
                                ),
                                Some(i),
                                "needs the pre-install state",
                                vec![(ip, format!("{} becomes fresh here", safe_name(self.g, *o)))],
                                vec![*view, *o],
                            );
                        }
                    }
                    self.comps.entry(*view).or_default().push((i, over));
                }
                UpdateExpr::Inst(v) => {
                    self.first_inst.entry(*v).or_insert(i);
                }
            }
        }
    }

    /// Per-view checks over the accumulated abstract state, restricted to
    /// `views`: coverage (`UWW003`), installs (`UWW002`), install ordering
    /// between computes (`UWW007`), computes after the self-install
    /// (`UWW008`), and overlapping over-sets (`UWW004`).
    fn per_view(&mut self, views: &[ViewId]) {
        for &v in views {
            let sources: Vec<ViewId> = self.g.sources(v).to_vec();
            let vcomps: Vec<(usize, BTreeSet<ViewId>)> = self
                .comps
                .get(&v)
                .map(|c| c.iter().map(|(i, o)| (*i, (*o).clone())).collect())
                .unwrap_or_default();
            for src in &sources {
                if !vcomps.iter().any(|(_, o)| o.contains(src)) {
                    self.push(
                        Rule::UncoveredSource,
                        format!(
                            "changes of {} are never propagated into {}",
                            safe_name(self.g, *src),
                            safe_name(self.g, v),
                        ),
                        None,
                        "",
                        vec![],
                        vec![v, *src],
                    );
                }
            }
            let self_inst = self.first_inst.get(&v).copied();
            if self_inst.is_none() {
                let first_comp = vcomps.first().map(|(i, _)| *i);
                let message = if first_comp.is_some() {
                    format!(
                        "Δ{} is computed but never installed — the computed delta is dead and {}'s extent stays stale",
                        safe_name(self.g, v),
                        safe_name(self.g, v),
                    )
                } else {
                    format!(
                        "{} is never installed — its extent stays stale after the update window",
                        safe_name(self.g, v),
                    )
                };
                self.out.push(Diagnostic {
                    rule: Rule::DeadDelta,
                    severity: Severity::Error,
                    message,
                    primary: first_comp,
                    primary_label: if first_comp.is_some() {
                        "dead delta computed here".to_string()
                    } else {
                        String::new()
                    },
                    related: vec![],
                    views: vec![safe_name(self.g, v)],
                });
            }
            // C4 / UWW007: an earlier Comp's over-views must be installed
            // before any later Comp of the same view.
            for (a, (pi, oi)) in vcomps.iter().enumerate() {
                for (pj, _) in vcomps.iter().skip(a + 1) {
                    for w in oi {
                        if let Some(&ip) = self.first_inst.get(w) {
                            if ip > *pj {
                                self.push(
                                    Rule::InstallOrder,
                                    format!(
                                        "Inst({}) must precede the later Comp of {}: the second compute must read {}'s fresh extent",
                                        safe_name(self.g, *w),
                                        safe_name(self.g, v),
                                        safe_name(self.g, *w),
                                    ),
                                    Some(*pj),
                                    "reads a stale extent the earlier Comp already propagated",
                                    vec![
                                        (*pi, format!("propagates Δ{} here", safe_name(self.g, *w))),
                                        (ip, format!("{} installed too late", safe_name(self.g, *w))),
                                    ],
                                    vec![v, *w],
                                );
                            }
                        }
                    }
                }
            }
            // C5 / UWW008: computes after the self-install write a delta the
            // install already consumed.
            if let Some(sp) = self_inst {
                let exprs = self.exprs;
                for (p, _) in &vcomps {
                    if *p > sp {
                        self.push(
                            Rule::LateComp,
                            format!(
                                "{} is computed after Inst({}) — the installed extent misses this delta",
                                safe_expr(self.g, &exprs[*p]),
                                safe_name(self.g, v),
                            ),
                            Some(*p),
                            "delta computed after the install consumed ΔV",
                            vec![(sp, format!("{} installed here", safe_name(self.g, v)))],
                            vec![v],
                        );
                    }
                }
            }
            // UWW004 overlap: two computes of one view sharing an over
            // element double-propagate it, and C3+C4 make any ordering
            // incorrect.
            for (a, (pi, oi)) in vcomps.iter().enumerate() {
                for (pj, oj) in vcomps.iter().skip(a + 1) {
                    if oi == oj {
                        continue; // exact duplicate, flagged in forward()
                    }
                    let shared: Vec<ViewId> = oi.intersection(oj).copied().collect();
                    if let Some(w) = shared.first() {
                        self.push(
                            Rule::RedundantTerm,
                            format!(
                                "two Comps of {} both propagate {} — the changes would be applied twice",
                                safe_name(self.g, v),
                                safe_name(self.g, *w),
                            ),
                            Some(*pj),
                            "overlapping over-set",
                            vec![(*pi, format!("also propagates {}", safe_name(self.g, *w)))],
                            vec![v, *w],
                        );
                    }
                }
            }
        }
    }

    /// C8 / UWW009: a `Comp` reading Δ of a derived view needs that delta
    /// fully computed first.
    fn deltas_computed(&mut self) {
        let exprs = self.exprs;
        for (pk, ek) in exprs.iter().enumerate() {
            if !self.wf[pk] {
                continue;
            }
            if let UpdateExpr::Comp { view: vk, over } = ek {
                for vj in over {
                    if self.g.is_base(*vj) {
                        continue;
                    }
                    let positions = self
                        .comps
                        .get(vj)
                        .map(|l| l.iter().map(|(p, _)| *p).collect::<Vec<_>>());
                    match positions {
                        None => {
                            self.push(
                                Rule::UncomputedDelta,
                                format!(
                                    "{} reads Δ{}, but Δ{} is never computed",
                                    safe_expr(self.g, ek),
                                    safe_name(self.g, *vj),
                                    safe_name(self.g, *vj),
                                ),
                                Some(pk),
                                "reads a delta no Comp produces",
                                vec![],
                                vec![*vk, *vj],
                            );
                        }
                        Some(list) => {
                            for pj in list {
                                if pj >= pk {
                                    self.push(
                                        Rule::UncomputedDelta,
                                        format!(
                                            "{} reads Δ{} before {} finishes computing it",
                                            safe_expr(self.g, ek),
                                            safe_name(self.g, *vj),
                                            safe_expr(self.g, &exprs[pj]),
                                        ),
                                        Some(pk),
                                        "reads a partial delta",
                                        vec![(
                                            pj,
                                            format!(
                                                "Δ{} still being computed here",
                                                safe_name(self.g, *vj)
                                            ),
                                        )],
                                        vec![*vk, *vj],
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn finish(self) -> Report {
        let exprs = self.exprs.iter().map(|e| safe_expr(self.g, e)).collect();
        Report::new(exprs, self.out)
    }
}

/// Lints a whole-VDAG strategy (Definition 3.3).
///
/// Assumes the paper's batch model: every base view has pending changes, so
/// every view of the VDAG must be brought fresh. `Report::has_errors()` is
/// `true` exactly when [`uww_vdag::check_vdag_strategy`] rejects `s`.
pub fn analyze(g: &Vdag, s: &Strategy) -> Report {
    let mut ctx = Ctx::new(g, &s.exprs);
    ctx.structural(None);
    ctx.forward();
    let views: Vec<ViewId> = g.view_ids().collect();
    ctx.per_view(&views);
    ctx.deltas_computed();
    ctx.finish()
}

/// Lints a single-view strategy (Definition 3.1) for `view`.
///
/// `Report::has_errors()` is `true` exactly when
/// [`uww_vdag::check_view_strategy`] rejects `s`.
pub fn analyze_view(g: &Vdag, view: ViewId, s: &Strategy) -> Report {
    let mut ctx = Ctx::new(g, &s.exprs);
    if view.0 >= g.len() {
        ctx.push(
            Rule::MalformedExpr,
            format!("view id #{} is not part of this VDAG", view.0),
            None,
            "",
            vec![],
            vec![],
        );
        return ctx.finish();
    }
    ctx.structural(Some(view));
    ctx.forward();
    // Definition 3.1 constrains only the view and its sources.
    let mut views = vec![view];
    views.extend(g.sources(view).iter().copied());
    // Installs checked by C2: the view itself plus its sources. The global
    // per-view pass covers exactly that set here.
    ctx.per_view_installs_only(&views, view);
    ctx.finish()
}

impl Ctx<'_> {
    /// The Definition 3.1 variant of [`Ctx::per_view`]: coverage and C4/C5
    /// apply to `view` only, while the install requirement (C2) spans the
    /// view and all its sources.
    fn per_view_installs_only(&mut self, installed_required: &[ViewId], view: ViewId) {
        self.per_view(&[view]);
        for &v in installed_required {
            if v == view {
                continue; // handled by per_view above
            }
            if !self.first_inst.contains_key(&v) {
                self.push(
                    Rule::DeadDelta,
                    format!(
                        "{} is never installed — its extent stays stale after the update window",
                        safe_name(self.g, v),
                    ),
                    None,
                    "",
                    vec![],
                    vec![v],
                );
            }
        }
    }
}

/// The dependence relation of the parallel scheduler (Section 9): `later`
/// must not run in the same stage as (or before) `earlier`.
///
/// This is the relation `uww_core::parallel::parallelize` list-schedules by:
/// C3 (`Inst` after the `Comp`s reading its delta), C5 (`Inst(V)` after
/// `Comp(V, ·)`), C8 (`Comp` producing a delta before the `Comp` reading
/// it), C4-ordering between same-view `Comp`s, and state preservation
/// (`Inst(v)` stays ordered with `Comp`s whose view reads `v`).
pub fn depends(g: &Vdag, earlier: &UpdateExpr, later: &UpdateExpr) -> bool {
    match (earlier, later) {
        (UpdateExpr::Comp { view, over }, UpdateExpr::Inst(v)) => over.contains(v) || *view == *v,
        (UpdateExpr::Comp { view: w1, .. }, UpdateExpr::Comp { view: w2, over }) => {
            *w1 == *w2 || over.contains(w1)
        }
        (UpdateExpr::Inst(v), UpdateExpr::Comp { view, .. }) => {
            view.0 < g.len() && g.sources(*view).contains(v)
        }
        (UpdateExpr::Inst(_), UpdateExpr::Inst(_)) => false,
    }
}

/// Lints a parallel strategy given as raw stages (avoids a dependency on
/// `uww_core::ParallelStrategy`; pass `&p.stages`).
///
/// Runs [`analyze`] on the linearization (stages concatenated; diagnostic
/// indices refer to it) and adds `UWW001` for every pair of expressions
/// sharing a stage that the scheduler's dependence relation orders. Such
/// pairs are real races: the threaded executor computes every `Comp` of a
/// stage against the frozen stage-entry state, so e.g. a same-stage
/// `Comp(V5, {V4})` misses the Δ`V4` its neighbour `Comp(V4, ·)` produces —
/// even though the linearized sequence passes the dynamic checker.
pub fn analyze_parallel(g: &Vdag, stages: &[Vec<UpdateExpr>]) -> Report {
    let linear = Strategy::from_exprs(stages.iter().flatten().cloned().collect());
    let Report {
        exprs,
        mut diagnostics,
    } = analyze(g, &linear);

    let mut offset = 0usize;
    for (sn, stage) in stages.iter().enumerate() {
        for (a, ea) in stage.iter().enumerate() {
            for (b, eb) in stage.iter().enumerate().skip(a + 1) {
                let fwd = depends(g, ea, eb);
                let bwd = depends(g, eb, ea);
                if !fwd && !bwd {
                    continue;
                }
                let (first, second, fi, si) = if fwd {
                    (ea, eb, offset + a, offset + b)
                } else {
                    (eb, ea, offset + b, offset + a)
                };
                let message = if fwd && bwd {
                    format!(
                        "stage {} runs {} and {} concurrently, but they conflict in both directions and must run in different stages",
                        sn,
                        safe_expr(g, first),
                        safe_expr(g, second),
                    )
                } else {
                    format!(
                        "stage {} runs {} and {} concurrently, but {} must complete first",
                        sn,
                        safe_expr(g, first),
                        safe_expr(g, second),
                        safe_expr(g, first),
                    )
                };
                diagnostics.push(Diagnostic {
                    rule: Rule::StageRace,
                    severity: Severity::Error,
                    message,
                    primary: Some(si),
                    primary_label: "races against its dependency".to_string(),
                    related: vec![(fi, "must happen before".to_string())],
                    views: {
                        let mut vs: BTreeSet<String> = [first.subject(), second.subject()]
                            .into_iter()
                            .map(|v| safe_name(g, v))
                            .collect();
                        if let UpdateExpr::Comp { over, .. } = first {
                            vs.extend(over.iter().map(|v| safe_name(g, *v)));
                        }
                        vs.into_iter().collect()
                    },
                });
            }
        }
        offset += stage.len();
    }
    Report::new(exprs, diagnostics)
}

/// Lints cost inputs: `UWW005` for non-finite or negative entries (labels
/// are free-form, typically `"Comp(V, {..})"` or a view name).
pub fn analyze_costs(items: &[(String, f64)]) -> Report {
    let mut out = Vec::new();
    for (i, (label, cost)) in items.iter().enumerate() {
        let problem = if cost.is_nan() {
            Some("is NaN")
        } else if cost.is_infinite() {
            Some("is infinite")
        } else if *cost < 0.0 {
            Some("is negative")
        } else {
            None
        };
        if let Some(p) = problem {
            out.push(Diagnostic {
                rule: Rule::CostAnomaly,
                severity: Severity::Error,
                message: format!("predicted work of {label} {p} ({cost})"),
                primary: Some(i),
                primary_label: "cost model produced a meaningless value".to_string(),
                related: vec![],
                views: vec![],
            });
        }
    }
    Report::new(items.iter().map(|(l, _)| l.clone()).collect(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_vdag::{check_vdag_strategy, check_view_strategy, dual_stage_strategy, figure3_vdag};

    fn id(g: &Vdag, n: &str) -> ViewId {
        g.id_of(n).unwrap()
    }

    /// Example 3.1's correct VDAG strategy.
    fn good_strategy(g: &Vdag) -> Strategy {
        Strategy::from_exprs(vec![
            UpdateExpr::comp1(id(g, "V4"), id(g, "V2")),
            UpdateExpr::inst(id(g, "V2")),
            UpdateExpr::comp1(id(g, "V4"), id(g, "V3")),
            UpdateExpr::inst(id(g, "V3")),
            UpdateExpr::comp1(id(g, "V5"), id(g, "V4")),
            UpdateExpr::inst(id(g, "V4")),
            UpdateExpr::comp1(id(g, "V5"), id(g, "V1")),
            UpdateExpr::inst(id(g, "V1")),
            UpdateExpr::inst(id(g, "V5")),
        ])
    }

    #[test]
    fn correct_strategies_lint_clean() {
        let g = figure3_vdag();
        for s in [good_strategy(&g), dual_stage_strategy(&g)] {
            check_vdag_strategy(&g, &s).unwrap();
            let r = analyze(&g, &s);
            assert!(r.is_clean(), "unexpected diagnostics:\n{}", r.render_text());
        }
    }

    #[test]
    fn read_after_install_flagged() {
        let g = figure3_vdag();
        let mut s = good_strategy(&g);
        // Move Inst(V2) before its Comp.
        s.exprs.swap(0, 1);
        let r = analyze(&g, &s);
        assert!(r.has_errors());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::ReadAfterInstall));
        assert!(check_vdag_strategy(&g, &s).is_err());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ReadAfterInstall)
            .unwrap();
        assert_eq!(d.span(), Some((0, 1)));
        assert!(d.views.contains(&"V2".to_string()));
    }

    #[test]
    fn dead_delta_flagged() {
        let g = figure3_vdag();
        let mut s = good_strategy(&g);
        // Drop Inst(V5): its computed delta is dead.
        s.exprs.retain(|e| *e != UpdateExpr::inst(id(&g, "V5")));
        let r = analyze(&g, &s);
        let dead: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::DeadDelta)
            .collect();
        assert_eq!(dead.len(), 1, "{}", r.render_text());
        assert!(dead[0].message.contains("never installed"));
        assert!(dead[0].views.contains(&"V5".to_string()));
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn uncovered_source_flagged() {
        let g = figure3_vdag();
        let mut s = good_strategy(&g);
        // Drop the propagation of V1 into V5 but keep V1's install.
        s.exprs
            .retain(|e| *e != UpdateExpr::comp1(id(&g, "V5"), id(&g, "V1")));
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::UncoveredSource && d.views.contains(&"V1".to_string())));
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn late_comp_and_install_order_flagged() {
        let g = figure3_vdag();
        // Comp(V4,{V3}) after Inst(V4): C5.
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(id(&g, "V4"), id(&g, "V2")),
            UpdateExpr::inst(id(&g, "V2")),
            UpdateExpr::comp1(id(&g, "V5"), id(&g, "V4")),
            UpdateExpr::inst(id(&g, "V4")),
            UpdateExpr::comp1(id(&g, "V4"), id(&g, "V3")),
            UpdateExpr::inst(id(&g, "V3")),
            UpdateExpr::comp1(id(&g, "V5"), id(&g, "V1")),
            UpdateExpr::inst(id(&g, "V1")),
            UpdateExpr::inst(id(&g, "V5")),
        ]);
        let r = analyze(&g, &s);
        assert!(r.diagnostics.iter().any(|d| d.rule == Rule::LateComp));
        assert!(check_vdag_strategy(&g, &s).is_err());

        // Two comps of V4 with V2 installed after the second: C4.
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(id(&g, "V4"), id(&g, "V2")),
            UpdateExpr::comp1(id(&g, "V4"), id(&g, "V3")),
            UpdateExpr::inst(id(&g, "V2")),
            UpdateExpr::inst(id(&g, "V3")),
            UpdateExpr::comp1(id(&g, "V5"), id(&g, "V4")),
            UpdateExpr::inst(id(&g, "V4")),
            UpdateExpr::comp1(id(&g, "V5"), id(&g, "V1")),
            UpdateExpr::inst(id(&g, "V1")),
            UpdateExpr::inst(id(&g, "V5")),
        ]);
        let r = analyze(&g, &s);
        assert!(r.diagnostics.iter().any(|d| d.rule == Rule::InstallOrder));
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn uncomputed_delta_flagged() {
        let g = figure3_vdag();
        let mut s = good_strategy(&g);
        // Move Comp(V5,{V4}) to the front: reads ΔV4 before it is computed.
        let e = s.exprs.remove(4);
        s.exprs.insert(0, e);
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::UncomputedDelta));
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn malformed_exprs_flagged() {
        let g = figure3_vdag();
        // Unknown id.
        let s = Strategy::from_exprs(vec![UpdateExpr::inst(ViewId(99))]);
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::MalformedExpr && d.message.contains("#99")));

        // Comp of a base view.
        let s = Strategy::from_exprs(vec![UpdateExpr::comp1(id(&g, "V1"), id(&g, "V2"))]);
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::MalformedExpr && d.message.contains("base view")));
        assert!(check_vdag_strategy(&g, &s).is_err());

        // Empty over-set.
        let s = Strategy::from_exprs(vec![UpdateExpr::comp(id(&g, "V4"), [])]);
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::MalformedExpr && d.message.contains("empty over-set")));
        assert!(check_vdag_strategy(&g, &s).is_err());

        // Over-set escaping the sources.
        let s = Strategy::from_exprs(vec![UpdateExpr::comp1(id(&g, "V4"), id(&g, "V1"))]);
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::MalformedExpr && d.message.contains("not a source")));
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn redundant_terms_flagged() {
        let g = figure3_vdag();
        let mut s = good_strategy(&g);
        // Exact duplicate.
        s.exprs.insert(1, s.exprs[0].clone());
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::RedundantTerm && d.message.contains("duplicate")));
        assert!(check_vdag_strategy(&g, &s).is_err());

        // Overlapping over-sets.
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp(id(&g, "V4"), [id(&g, "V2"), id(&g, "V3")]),
            UpdateExpr::comp1(id(&g, "V4"), id(&g, "V2")),
            UpdateExpr::inst(id(&g, "V2")),
            UpdateExpr::inst(id(&g, "V3")),
            UpdateExpr::comp(id(&g, "V5"), [id(&g, "V1"), id(&g, "V4")]),
            UpdateExpr::inst(id(&g, "V4")),
            UpdateExpr::inst(id(&g, "V1")),
            UpdateExpr::inst(id(&g, "V5")),
        ]);
        let r = analyze(&g, &s);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::RedundantTerm && d.message.contains("twice")));
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn view_mode_matches_dynamic_checker() {
        let g = figure3_vdag();
        let v4 = id(&g, "V4");
        let ok = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v4, id(&g, "V2")),
            UpdateExpr::inst(id(&g, "V2")),
            UpdateExpr::comp1(v4, id(&g, "V3")),
            UpdateExpr::inst(id(&g, "V3")),
            UpdateExpr::inst(v4),
        ]);
        assert!(check_view_strategy(&g, v4, &ok).is_ok());
        assert!(analyze_view(&g, v4, &ok).is_clean());

        // Foreign comp inside a view strategy.
        let bad = Strategy::from_exprs(vec![
            UpdateExpr::comp1(id(&g, "V5"), id(&g, "V4")),
            UpdateExpr::inst(v4),
        ]);
        let r = analyze_view(&g, v4, &bad);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::MalformedExpr && d.message.contains("does not update")));
        assert!(check_view_strategy(&g, v4, &bad).is_err());

        // Foreign install.
        let bad = Strategy::from_exprs(vec![UpdateExpr::inst(id(&g, "V5"))]);
        let r = analyze_view(&g, v4, &bad);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::MalformedExpr && d.message.contains("foreign")));
        assert!(check_view_strategy(&g, v4, &bad).is_err());
    }

    #[test]
    fn stage_race_flagged() {
        let g = figure3_vdag();
        // Inst(V2) and the Comp reading ΔV2 share a stage.
        let stages = vec![
            vec![
                UpdateExpr::inst(id(&g, "V2")),
                UpdateExpr::comp1(id(&g, "V4"), id(&g, "V2")),
            ],
            vec![
                UpdateExpr::comp1(id(&g, "V4"), id(&g, "V3")),
                UpdateExpr::inst(id(&g, "V3")),
            ],
            vec![UpdateExpr::comp1(id(&g, "V5"), id(&g, "V4"))],
            vec![UpdateExpr::inst(id(&g, "V4"))],
            vec![UpdateExpr::comp1(id(&g, "V5"), id(&g, "V1"))],
            vec![UpdateExpr::inst(id(&g, "V1"))],
            vec![UpdateExpr::inst(id(&g, "V5"))],
        ];
        let r = analyze_parallel(&g, &stages);
        let races: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::StageRace)
            .collect();
        assert!(!races.is_empty(), "{}", r.render_text());
        assert!(races.iter().any(|d| d.message.contains("stage 0")));
        // Stage 1 pairs Comp(V4,{V3}) before Inst(V3): also a race.
        assert!(races.iter().any(|d| d.message.contains("stage 1")));
    }

    #[test]
    fn c8_stage_race_invisible_to_linearized_check() {
        // The soundness gap UWW001 closes: Comp(V4,·) and Comp(V5,{V4})
        // share a stage. The linearization is dynamically correct, but the
        // threaded executor would compute Comp(V5,{V4}) against the frozen
        // stage-entry ΔV4 and miss this stage's contribution.
        let g = figure3_vdag();
        let stages = vec![
            vec![
                UpdateExpr::comp(id(&g, "V4"), [id(&g, "V2"), id(&g, "V3")]),
                UpdateExpr::comp(id(&g, "V5"), [id(&g, "V1"), id(&g, "V4")]),
            ],
            vec![
                UpdateExpr::inst(id(&g, "V1")),
                UpdateExpr::inst(id(&g, "V2")),
                UpdateExpr::inst(id(&g, "V3")),
                UpdateExpr::inst(id(&g, "V4")),
                UpdateExpr::inst(id(&g, "V5")),
            ],
        ];
        let linear = Strategy::from_exprs(stages.iter().flatten().cloned().collect());
        check_vdag_strategy(&g, &linear).unwrap();
        let r = analyze_parallel(&g, &stages);
        assert!(r.diagnostics.iter().any(|d| d.rule == Rule::StageRace));
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn clean_parallel_strategy_accepted() {
        let g = figure3_vdag();
        let stages = vec![
            vec![UpdateExpr::comp(id(&g, "V4"), [id(&g, "V2"), id(&g, "V3")])],
            vec![UpdateExpr::comp(id(&g, "V5"), [id(&g, "V1"), id(&g, "V4")])],
            vec![
                UpdateExpr::inst(id(&g, "V1")),
                UpdateExpr::inst(id(&g, "V2")),
                UpdateExpr::inst(id(&g, "V3")),
                UpdateExpr::inst(id(&g, "V4")),
                UpdateExpr::inst(id(&g, "V5")),
            ],
        ];
        let r = analyze_parallel(&g, &stages);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn cost_anomalies_flagged() {
        let items = vec![
            ("Comp(V, {A})".to_string(), 10.0),
            ("Comp(V, {B})".to_string(), f64::NAN),
            ("Inst(V)".to_string(), -3.0),
            ("Comp(W, {C})".to_string(), f64::INFINITY),
        ];
        let r = analyze_costs(&items);
        assert_eq!(r.error_count(), 3);
        assert!(r.diagnostics.iter().all(|d| d.rule == Rule::CostAnomaly));
        assert!(analyze_costs(&[("x".to_string(), 0.0)]).is_clean());
    }
}
