//! Correctness conditions for strategies (Definitions 3.1 and 3.3), checked
//! by one set of passes that name every defect with a `UWW###` [`Rule`].
//!
//! The passes walk a strategy once, tracking for every view the abstract
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
//! extent. The rules are phrased over those effects.
//!
//! The passes run in one of two modes. [`check_view_strategy`] and
//! [`check_vdag_strategy`] stop at the first diagnostic and return it as
//! [`VdagError::Incorrect`]; the window runner and recovery call them.
//! [`analyze`], [`analyze_view`] and [`analyze_parallel`] collect every
//! diagnostic into a [`Report`] for `uww analyze` and the staged executor's
//! gate. A strategy is correct exactly when its report is clean. On
//! parallel strategies [`analyze_parallel`] also flags same-stage pairs
//! that [`depends`] orders (`UWW001`): races no check of the linearization
//! can see.

use crate::diag::{Diagnostic, Report, Rule};
use crate::error::{VdagError, VdagResult};
use crate::graph::{Vdag, ViewId};
use crate::strategy::{Strategy, UpdateExpr};
use std::collections::BTreeSet;

/// Renders a view name, tolerating ids outside the VDAG.
fn safe_name(g: &Vdag, v: ViewId) -> String {
    if v.0 < g.len() {
        g.name(v).to_string()
    } else {
        format!("#{}", v.0)
    }
}

/// Renders an expression, tolerating ids outside the VDAG.
fn safe_expr(g: &Vdag, e: &UpdateExpr) -> String {
    match e {
        UpdateExpr::Comp { view, over } => {
            let over: Vec<String> = over.iter().map(|v| safe_name(g, *v)).collect();
            format!("Comp({}, {{{}}})", safe_name(g, *view), over.join(", "))
        }
        UpdateExpr::Inst(v) => format!("Inst({})", safe_name(g, *v)),
    }
}

/// Every view id `e` names: its subject, then its over-set.
fn ids(e: &UpdateExpr) -> impl Iterator<Item = ViewId> + '_ {
    let over = match e {
        UpdateExpr::Comp { over, .. } => Some(over.iter().copied()),
        UpdateExpr::Inst(_) => None,
    };
    std::iter::once(e.subject()).chain(over.into_iter().flatten())
}

/// Whether every id in `e` names a view of `g`.
fn known(g: &Vdag, e: &UpdateExpr) -> bool {
    ids(e).all(|v| v.0 < g.len())
}

/// An `Err` ends a pass, and every pass after it.
type Flow = VdagResult<()>;

/// Where the passes put diagnostics: all of them, or the first one only,
/// returned as the error that stops the passes.
struct Sink<'g> {
    g: &'g Vdag,
    first_only: bool,
    out: Vec<Diagnostic>,
}

impl<'g> Sink<'g> {
    fn new(g: &'g Vdag, first_only: bool) -> Self {
        Sink {
            g,
            first_only,
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
        views: &[ViewId],
    ) -> Flow {
        let views: BTreeSet<ViewId> = views.iter().copied().collect();
        let names = views.into_iter().map(|v| safe_name(self.g, v)).collect();
        self.push_named(rule, message, primary, primary_label, related, names)
    }

    /// [`Sink::push`] with the view names already in the order to emit.
    fn push_named(
        &mut self,
        rule: Rule,
        message: String,
        primary: Option<usize>,
        primary_label: &str,
        related: Vec<(usize, String)>,
        views: Vec<String>,
    ) -> Flow {
        if self.first_only {
            return Err(VdagError::Incorrect {
                rule,
                detail: message,
            });
        }
        self.out.push(Diagnostic {
            rule,
            message,
            primary,
            primary_label: primary_label.to_string(),
            related,
            views,
        });
        Ok(())
    }

    fn into_report(self, exprs: &[UpdateExpr]) -> Report {
        let rendered = exprs.iter().map(|e| safe_expr(self.g, e)).collect();
        Report::new(rendered, self.out)
    }
}

/// UWW010: ids must name views; `Comp` must target a derived view with a
/// non-empty over-set drawn from its sources.
///
/// When `view_mode` is `Some(v)`, the Definition 3.1 shape is enforced
/// instead: every `Comp` must target `v` and every `Inst` must target `v`
/// or one of its sources.
fn structural(g: &Vdag, exprs: &[UpdateExpr], view_mode: Option<ViewId>, sink: &mut Sink) -> Flow {
    for (i, e) in exprs.iter().enumerate() {
        if !known(g, e) {
            let unknown: Vec<String> = ids(e)
                .filter(|v| v.0 >= g.len())
                .map(|v| format!("#{}", v.0))
                .collect();
            let msg = format!(
                "{} refers to unknown view id{} {}",
                safe_expr(g, e),
                if unknown.len() == 1 { "" } else { "s" },
                unknown.join(", "),
            );
            sink.push(
                Rule::MalformedExpr,
                msg,
                Some(i),
                "not a view of this VDAG",
                vec![],
                &[],
            )?;
            continue;
        }
        match (e, view_mode) {
            (UpdateExpr::Comp { view, .. }, Some(target)) if *view != target => sink.push(
                Rule::MalformedExpr,
                format!(
                    "{} does not update {} (a view strategy may only compute its own delta)",
                    safe_expr(g, e),
                    g.name(target),
                ),
                Some(i),
                "computes a foreign delta",
                vec![],
                &[*view, target],
            )?,
            (UpdateExpr::Comp { view, .. }, None) if g.is_base(*view) => sink.push(
                Rule::MalformedExpr,
                format!(
                    "base view {} cannot have a Comp: base deltas arrive from the sources",
                    g.name(*view),
                ),
                Some(i),
                "Comp of a base view",
                vec![],
                &[*view],
            )?,
            (UpdateExpr::Comp { view, over }, _) => {
                if over.is_empty() {
                    sink.push(
                        Rule::MalformedExpr,
                        format!("{} has an empty over-set", safe_expr(g, e)),
                        Some(i),
                        "propagates nothing",
                        vec![],
                        &[*view],
                    )?;
                }
                let sources = g.sources(*view);
                for &o in over.iter().filter(|o| !sources.contains(o)) {
                    sink.push(
                        Rule::MalformedExpr,
                        format!(
                            "{} propagates {}, which is not a source of {}",
                            safe_expr(g, e),
                            g.name(o),
                            g.name(*view),
                        ),
                        Some(i),
                        "over-set escapes the view's sources",
                        vec![],
                        &[*view, o],
                    )?;
                }
            }
            (UpdateExpr::Inst(v), Some(target))
                if *v != target && !g.sources(target).contains(v) =>
            {
                sink.push(
                    Rule::MalformedExpr,
                    format!(
                        "{} installs a view foreign to {}'s strategy",
                        safe_expr(g, e),
                        g.name(target),
                    ),
                    Some(i),
                    "foreign install",
                    vec![],
                    &[*v, target],
                )?
            }
            (UpdateExpr::Inst(_), _) => {}
        }
    }
    Ok(())
}

/// The abstract state of a strategy's well-formed expressions.
struct State<'s> {
    g: &'s Vdag,
    exprs: &'s [UpdateExpr],
    /// First position of `Inst(v)`, indexed by view id.
    first_inst: Vec<Option<usize>>,
    /// Position, view and over-set of every `Comp`, in strategy order.
    comps: Vec<(usize, ViewId, &'s BTreeSet<ViewId>)>,
}

impl<'s> State<'s> {
    /// One forward pass: builds the abstract state (installed set, computed
    /// deltas) and flags `UWW004` duplicates and `UWW006` stale reads of
    /// already-installed views.
    fn forward(g: &'s Vdag, exprs: &'s [UpdateExpr], sink: &mut Sink) -> VdagResult<Self> {
        let mut st = State {
            g,
            exprs,
            first_inst: vec![None; g.len()],
            comps: Vec::new(),
        };
        for (i, e) in exprs.iter().enumerate().filter(|(_, e)| known(g, e)) {
            let first = match e {
                UpdateExpr::Inst(v) => st.first_inst[v.0],
                UpdateExpr::Comp { view, over } => {
                    st.comps_of(*view).find(|c| c.1 == over).map(|c| c.0)
                }
            };
            if let Some(j) = first {
                sink.push(
                    Rule::RedundantTerm,
                    format!("duplicate expression {}", safe_expr(g, e)),
                    Some(i),
                    "repeats the work",
                    vec![(j, "first occurrence".to_string())],
                    &[e.subject()],
                )?;
            }
            match e {
                UpdateExpr::Comp { view, over } => {
                    for &o in over {
                        if let Some(ip) = st.first_inst[o.0] {
                            let o_name = g.name(o);
                            sink.push(
                                Rule::ReadAfterInstall,
                                format!(
                                    "{} reads Δ{o_name} and the stale extent of {o_name}, but {o_name} was already installed",
                                    safe_expr(g, e),
                                ),
                                Some(i),
                                "needs the pre-install state",
                                vec![(ip, format!("{o_name} becomes fresh here"))],
                                &[*view, o],
                            )?;
                        }
                    }
                    st.comps.push((i, *view, over));
                }
                UpdateExpr::Inst(v) => {
                    st.first_inst[v.0].get_or_insert(i);
                }
            }
        }
        Ok(st)
    }

    /// Position and over-set of every `Comp(v, ·)`, in strategy order.
    fn comps_of(&self, v: ViewId) -> impl Iterator<Item = (usize, &'s BTreeSet<ViewId>)> + '_ {
        self.comps
            .iter()
            .filter(move |c| c.1 == v)
            .map(|&(p, _, over)| (p, over))
    }

    /// Checks on one view: coverage (`UWW003`), its install (`UWW002`),
    /// install ordering between its computes (`UWW007`), computes after its
    /// install (`UWW008`), and overlapping over-sets (`UWW004`).
    fn per_view(&self, v: ViewId, sink: &mut Sink) -> Flow {
        let g = self.g;
        let name = g.name(v);
        for &src in g.sources(v) {
            if !self.comps_of(v).any(|(_, o)| o.contains(&src)) {
                sink.push(
                    Rule::UncoveredSource,
                    format!(
                        "changes of {} are never propagated into {name}",
                        g.name(src)
                    ),
                    None,
                    "",
                    vec![],
                    &[v, src],
                )?;
            }
        }
        let self_inst = self.first_inst[v.0];
        if self_inst.is_none() {
            match self.comps_of(v).next() {
                Some((p, _)) => sink.push(
                    Rule::DeadDelta,
                    format!("Δ{name} is computed but never installed — the computed delta is dead and {name}'s extent stays stale"),
                    Some(p),
                    "dead delta computed here",
                    vec![],
                    &[v],
                )?,
                None => never_installed(g, v, sink)?,
            }
        }
        // C4 / UWW007: an earlier Comp's over-views must be installed
        // before any later Comp of the same view.
        for (a, (pi, oi)) in self.comps_of(v).enumerate() {
            for (pj, _) in self.comps_of(v).skip(a + 1) {
                for &w in oi {
                    let Some(ip) = self.first_inst[w.0].filter(|&ip| ip > pj) else {
                        continue;
                    };
                    let w_name = g.name(w);
                    sink.push(
                        Rule::InstallOrder,
                        format!(
                            "Inst({w_name}) must precede the later Comp of {name}: the second compute must read {w_name}'s fresh extent",
                        ),
                        Some(pj),
                        "reads a stale extent the earlier Comp already propagated",
                        vec![
                            (pi, format!("propagates Δ{w_name} here")),
                            (ip, format!("{w_name} installed too late")),
                        ],
                        &[v, w],
                    )?;
                }
            }
        }
        // C5 / UWW008: computes after the self-install write a delta the
        // install already consumed.
        if let Some(sp) = self_inst {
            for (p, _) in self.comps_of(v).filter(|&(p, _)| p > sp) {
                sink.push(
                    Rule::LateComp,
                    format!(
                        "{} is computed after Inst({name}) — the installed extent misses this delta",
                        safe_expr(g, &self.exprs[p]),
                    ),
                    Some(p),
                    "delta computed after the install consumed ΔV",
                    vec![(sp, format!("{name} installed here"))],
                    &[v],
                )?;
            }
        }
        // UWW004 overlap: two computes of one view sharing an over element
        // double-propagate it, and C3+C4 make any ordering incorrect. An
        // exact duplicate was flagged by `forward`.
        for (a, (pi, oi)) in self.comps_of(v).enumerate() {
            for (pj, oj) in self.comps_of(v).skip(a + 1).filter(|(_, oj)| oi != *oj) {
                if let Some(&w) = oi.intersection(oj).next() {
                    let w_name = g.name(w);
                    sink.push(
                        Rule::RedundantTerm,
                        format!(
                            "two Comps of {name} both propagate {w_name} — the changes would be applied twice",
                        ),
                        Some(pj),
                        "overlapping over-set",
                        vec![(pi, format!("also propagates {w_name}"))],
                        &[v, w],
                    )?;
                }
            }
        }
        Ok(())
    }

    /// C8 / UWW009: a `Comp` reading Δ of a derived view needs that delta
    /// fully computed first.
    fn deltas_computed(&self, sink: &mut Sink) -> Flow {
        let g = self.g;
        for &(pk, vk, over) in &self.comps {
            let ek = &self.exprs[pk];
            for &vj in over.iter().filter(|vj| !g.is_base(**vj)) {
                let vj_name = g.name(vj);
                if self.comps_of(vj).next().is_none() {
                    sink.push(
                        Rule::UncomputedDelta,
                        format!(
                            "{} reads Δ{vj_name}, but Δ{vj_name} is never computed",
                            safe_expr(g, ek),
                        ),
                        Some(pk),
                        "reads a delta no Comp produces",
                        vec![],
                        &[vk, vj],
                    )?;
                }
                for (pj, _) in self.comps_of(vj).filter(|&(pj, _)| pj >= pk) {
                    sink.push(
                        Rule::UncomputedDelta,
                        format!(
                            "{} reads Δ{vj_name} before {} finishes computing it",
                            safe_expr(g, ek),
                            safe_expr(g, &self.exprs[pj]),
                        ),
                        Some(pk),
                        "reads a partial delta",
                        vec![(pj, format!("Δ{vj_name} still being computed here"))],
                        &[vk, vj],
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// UWW002 for a view that nothing computes into and nothing installs.
fn never_installed(g: &Vdag, v: ViewId, sink: &mut Sink) -> Flow {
    sink.push(
        Rule::DeadDelta,
        format!(
            "{} is never installed — its extent stays stale after the update window",
            g.name(v),
        ),
        None,
        "",
        vec![],
        &[v],
    )
}

/// Definition 3.3: C7 (every used view strategy satisfies C1–C6) and C8.
fn vdag_passes(g: &Vdag, exprs: &[UpdateExpr], sink: &mut Sink) -> Flow {
    structural(g, exprs, None, sink)?;
    let st = State::forward(g, exprs, sink)?;
    for v in g.view_ids() {
        st.per_view(v, sink)?;
    }
    st.deltas_computed(sink)
}

/// Definition 3.1: C1–C6 for a strategy of `view` alone.
fn view_passes(g: &Vdag, view: ViewId, exprs: &[UpdateExpr], sink: &mut Sink) -> Flow {
    if view.0 >= g.len() {
        let msg = format!("view id #{} is not part of this VDAG", view.0);
        return sink.push(Rule::MalformedExpr, msg, None, "", vec![], &[]);
    }
    structural(g, exprs, Some(view), sink)?;
    let st = State::forward(g, exprs, sink)?;
    // Coverage and C4/C5 apply to `view` only, while the install
    // requirement (C2) spans the view and all its sources.
    st.per_view(view, sink)?;
    for &v in g.sources(view) {
        if st.first_inst[v.0].is_none() {
            never_installed(g, v, sink)?;
        }
    }
    Ok(())
}

/// Checks Definition 3.1 (conditions C1–C6) for a *view strategy* for `view`,
/// returning the first diagnostic as [`VdagError::Incorrect`].
///
/// A base view's only correct strategy is `⟨ Inst(view) ⟩`.
pub fn check_view_strategy(g: &Vdag, view: ViewId, s: &Strategy) -> VdagResult<()> {
    view_passes(g, view, &s.exprs, &mut Sink::new(g, true))
}

/// Checks Definition 3.3 (conditions C7 and C8) for a *VDAG strategy*,
/// returning the first diagnostic as [`VdagError::Incorrect`].
///
/// Assumes the paper's batch model: every base view has pending changes, so
/// every view of the VDAG must be brought fresh.
pub fn check_vdag_strategy(g: &Vdag, s: &Strategy) -> VdagResult<()> {
    vdag_passes(g, &s.exprs, &mut Sink::new(g, true))
}

const COLLECTS: &str = "a sink that collects never stops the passes";

/// Every diagnostic of a whole-VDAG strategy (Definition 3.3); clean exactly
/// when [`check_vdag_strategy`] accepts `s`.
pub fn analyze(g: &Vdag, s: &Strategy) -> Report {
    let mut sink = Sink::new(g, false);
    vdag_passes(g, &s.exprs, &mut sink).expect(COLLECTS);
    sink.into_report(&s.exprs)
}

/// Every diagnostic of a single-view strategy (Definition 3.1) for `view`;
/// clean exactly when [`check_view_strategy`] accepts `s`.
pub fn analyze_view(g: &Vdag, view: ViewId, s: &Strategy) -> Report {
    let mut sink = Sink::new(g, false);
    view_passes(g, view, &s.exprs, &mut sink).expect(COLLECTS);
    sink.into_report(&s.exprs)
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

/// Every diagnostic of a parallel strategy given as raw stages (pass
/// `&p.stages` of a `uww_core::ParallelStrategy`).
///
/// Runs [`analyze`]'s passes on the linearization (stages concatenated;
/// diagnostic indices refer to it) and adds `UWW001` for every pair of
/// expressions sharing a stage that [`depends`] orders. Such pairs are real
/// races: the threaded executor computes every `Comp` of a stage against
/// the frozen stage-entry state, so e.g. a same-stage `Comp(V5, {V4})`
/// misses the Δ`V4` its neighbour `Comp(V4, ·)` produces — even though the
/// linearized sequence passes [`check_vdag_strategy`].
pub fn analyze_parallel(g: &Vdag, stages: &[Vec<UpdateExpr>]) -> Report {
    let linear: Vec<UpdateExpr> = stages.iter().flatten().cloned().collect();
    let mut sink = Sink::new(g, false);
    vdag_passes(g, &linear, &mut sink).expect(COLLECTS);

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
                let (f, s) = (safe_expr(g, first), safe_expr(g, second));
                let message = if fwd && bwd {
                    format!("stage {sn} runs {f} and {s} concurrently, but they conflict in both directions and must run in different stages")
                } else {
                    format!("stage {sn} runs {f} and {s} concurrently, but {f} must complete first")
                };
                // A race names its views sorted by name, not by id.
                let views: BTreeSet<String> = ids(first)
                    .chain([second.subject()])
                    .map(|v| safe_name(g, v))
                    .collect();
                sink.push_named(
                    Rule::StageRace,
                    message,
                    Some(si),
                    "races against its dependency",
                    vec![(fi, "must happen before".to_string())],
                    views.into_iter().collect(),
                )
                .expect(COLLECTS);
            }
        }
        offset += stage.len();
    }
    sink.into_report(&linear)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{fubini, ordered_set_partitions};
    use crate::graph::figure3_vdag;
    use crate::strategy::dual_stage_strategy;

    fn id(g: &Vdag, n: &str) -> ViewId {
        g.id_of(n).unwrap()
    }

    /// The rule of the first diagnostic `r` carries.
    fn rule_of(r: VdagResult<()>) -> Rule {
        match r {
            Err(VdagError::Incorrect { rule, .. }) => rule,
            other => panic!("expected an Incorrect error, got {other:?}"),
        }
    }

    /// One derived view `V` over `n` base views `B0, B1, ..`.
    fn one_view(n: usize) -> (Vdag, ViewId) {
        let mut g = Vdag::new();
        let bases: Vec<ViewId> = (0..n)
            .map(|i| g.add_base(format!("B{i}")).unwrap())
            .collect();
        let v = g.add_derived("V", &bases).unwrap();
        (g, v)
    }

    /// Walks every sequence of distinct expressions drawn from `v`'s
    /// `2^n − 1` `Comp`s and `n + 1` `Inst`s, up to length `2n + 1`.
    /// Returns how many sequences it visited, how many `accepts` took, and
    /// the accepted sequences' orders of `Comp` over-sets (as base indices),
    /// which are the paper's work-equivalence classes.
    fn table1_walk(
        n: usize,
        accepts: &dyn Fn(&Vdag, ViewId, &Strategy) -> bool,
    ) -> (usize, usize, BTreeSet<Vec<Vec<usize>>>) {
        let (g, v) = one_view(n);
        let sources = g.sources(v).to_vec();
        let mut pool: Vec<UpdateExpr> = (1..1usize << n)
            .map(|mask| {
                let over = (0..n).filter(|i| mask >> i & 1 == 1).map(|i| sources[i]);
                UpdateExpr::comp(v, over)
            })
            .collect();
        pool.extend(sources.iter().chain([&v]).map(|&s| UpdateExpr::inst(s)));

        struct Walk<'a> {
            g: &'a Vdag,
            v: ViewId,
            pool: &'a [UpdateExpr],
            accepts: &'a dyn Fn(&Vdag, ViewId, &Strategy) -> bool,
            max_len: usize,
            s: Strategy,
            used: Vec<bool>,
            visited: usize,
            accepted: usize,
            classes: BTreeSet<Vec<Vec<usize>>>,
        }
        impl Walk<'_> {
            fn go(&mut self) {
                self.visited += 1;
                if (self.accepts)(self.g, self.v, &self.s) {
                    self.accepted += 1;
                    let class = self.s.exprs.iter().filter_map(|e| match e {
                        UpdateExpr::Comp { over, .. } => {
                            Some(over.iter().map(|b| b.0).collect::<Vec<usize>>())
                        }
                        UpdateExpr::Inst(_) => None,
                    });
                    self.classes.insert(class.collect());
                }
                if self.s.len() == self.max_len {
                    return;
                }
                for i in 0..self.pool.len() {
                    if !self.used[i] {
                        self.used[i] = true;
                        self.s.push(self.pool[i].clone());
                        self.go();
                        self.s.exprs.pop();
                        self.used[i] = false;
                    }
                }
            }
        }
        let mut walk = Walk {
            g: &g,
            v,
            pool: &pool,
            accepts,
            max_len: 2 * n + 1,
            s: Strategy::new(),
            used: vec![false; pool.len()],
            visited: 0,
            accepted: 0,
            classes: BTreeSet::new(),
        };
        walk.go();
        (walk.visited, walk.accepted, walk.classes)
    }

    /// Table 1: the accepted sequences fall into exactly the ordered set
    /// partitions of the `n` sources (1, 3, 13 classes), with 2, 10 and 66
    /// raw orderings.
    fn table1(n: usize, accepts: &dyn Fn(&Vdag, ViewId, &Strategy) -> bool) {
        let (visited, accepted, classes) = table1_walk(n, accepts);
        assert_eq!(visited, [16, 1_237, 2_060_312][n - 1], "n = {n}");
        assert_eq!(accepted, [2, 10, 66][n - 1], "n = {n}");
        let expected: BTreeSet<Vec<Vec<usize>>> = ordered_set_partitions(n).into_iter().collect();
        assert_eq!(classes, expected, "n = {n}");
        assert_eq!(classes.len() as u128, fubini(n as u32), "n = {n}");
    }

    fn view_check(g: &Vdag, v: ViewId, s: &Strategy) -> bool {
        check_view_strategy(g, v, s).is_ok()
    }

    /// On a one-view VDAG, Definition 3.3 reduces to Definition 3.1.
    fn vdag_check(g: &Vdag, _: ViewId, s: &Strategy) -> bool {
        check_vdag_strategy(g, s).is_ok()
    }

    #[test]
    fn table1_holds_for_one_and_two_sources() {
        let report_view = |g: &Vdag, v: ViewId, s: &Strategy| analyze_view(g, v, s).is_clean();
        let report_vdag = |g: &Vdag, _: ViewId, s: &Strategy| analyze(g, s).is_clean();
        for n in 1..=2 {
            table1(n, &view_check);
            table1(n, &vdag_check);
            table1(n, &report_view);
            table1(n, &report_vdag);
        }
    }

    #[test]
    #[ignore = "walks 2.06 M sequences twice: run in release with `-- --ignored table1`"]
    fn table1_holds_for_three_sources() {
        table1(3, &view_check);
        table1(3, &vdag_check);
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
    fn correct_strategies_are_accepted_and_report_clean() {
        let g = figure3_vdag();
        for s in [good_strategy(&g), dual_stage_strategy(&g)] {
            check_vdag_strategy(&g, &s).unwrap();
            let r = analyze(&g, &s);
            assert!(r.is_clean(), "unexpected diagnostics:\n{}", r.render_text());
        }
    }

    #[test]
    fn an_unknown_view_is_a_typed_error_not_a_panic() {
        let g = figure3_vdag();
        let s = Strategy::from_exprs(vec![UpdateExpr::inst(id(&g, "V1"))]);
        let e = check_view_strategy(&g, ViewId(99), &s).unwrap_err();
        assert!(e.to_string().contains("view id #99"), "{e}");
        assert_eq!(rule_of(Err(e)), Rule::MalformedExpr);
    }

    #[test]
    fn the_error_names_the_rule_and_its_condition() {
        let g = figure3_vdag();
        let mut s = good_strategy(&g);
        // Move Inst(V2) before the Comp that reads ΔV2.
        s.exprs.swap(0, 1);
        let e = check_vdag_strategy(&g, &s).unwrap_err();
        assert_eq!(
            e.to_string(),
            "strategy violates C3 (UWW006 read-after-install): Comp(V4, {V2}) reads ΔV2 and \
             the stale extent of V2, but V2 was already installed"
        );
        let r = analyze(&g, &s);
        let d = (r.diagnostics.iter())
            .find(|d| d.rule == Rule::ReadAfterInstall)
            .unwrap();
        assert_eq!(d.span(), Some((0, 1)));
        assert!(d.views.contains(&"V2".to_string()));
    }

    #[test]
    fn each_condition_has_its_rule() {
        let g = figure3_vdag();
        let (v1, v2, v3, v4, v5) = (
            id(&g, "V1"),
            id(&g, "V2"),
            id(&g, "V3"),
            id(&g, "V4"),
            id(&g, "V5"),
        );
        let good = good_strategy(&g).exprs;
        let without = |e: UpdateExpr| -> Vec<UpdateExpr> {
            good.iter().filter(|x| **x != e).cloned().collect()
        };
        let mut moved = good.clone();
        let e = moved.remove(4); // Comp(V5, {V4}) to the front
        moved.insert(0, e);
        let mut duplicated = good.clone();
        duplicated.insert(1, good[0].clone());
        // Inst(V2) before the Comp reading ΔV2.
        let mut read_stale = good.clone();
        read_stale.swap(0, 1);
        // Each case with the rule its first diagnostic names, and that
        // rule's condition; `None` where another rule fires first.
        let cases: Vec<(Vec<UpdateExpr>, Rule, Option<&str>)> = vec![
            (
                without(UpdateExpr::comp1(v5, v1)),
                Rule::UncoveredSource,
                Some("C1"),
            ),
            (without(UpdateExpr::inst(v5)), Rule::DeadDelta, Some("C2")),
            (read_stale, Rule::ReadAfterInstall, Some("C3")),
            (duplicated, Rule::RedundantTerm, Some("C6 (overlap: C3+C4)")),
            (moved, Rule::UncomputedDelta, Some("C8")),
            // C4: two Comps of V4 with V2 installed after the second.
            (
                vec![
                    UpdateExpr::comp1(v4, v2),
                    UpdateExpr::comp1(v4, v3),
                    UpdateExpr::inst(v2),
                    UpdateExpr::inst(v3),
                    UpdateExpr::comp1(v5, v4),
                    UpdateExpr::inst(v4),
                    UpdateExpr::comp1(v5, v1),
                    UpdateExpr::inst(v1),
                    UpdateExpr::inst(v5),
                ],
                Rule::InstallOrder,
                Some("C4"),
            ),
            // C5: Comp(V4, {V3}) after Inst(V4).
            (
                vec![
                    UpdateExpr::comp1(v4, v2),
                    UpdateExpr::inst(v2),
                    UpdateExpr::comp1(v5, v4),
                    UpdateExpr::inst(v4),
                    UpdateExpr::comp1(v4, v3),
                    UpdateExpr::inst(v3),
                    UpdateExpr::comp1(v5, v1),
                    UpdateExpr::inst(v1),
                    UpdateExpr::inst(v5),
                ],
                Rule::LateComp,
                Some("C5"),
            ),
            // Overlapping over-sets: C3 and C4 cannot both hold. The two
            // Comps of V4 also break C4, which is checked first.
            (
                vec![
                    UpdateExpr::comp(v4, [v2, v3]),
                    UpdateExpr::comp1(v4, v2),
                    UpdateExpr::inst(v2),
                    UpdateExpr::inst(v3),
                    UpdateExpr::comp(v5, [v1, v4]),
                    UpdateExpr::inst(v4),
                    UpdateExpr::inst(v1),
                    UpdateExpr::inst(v5),
                ],
                Rule::RedundantTerm,
                None,
            ),
        ];
        for (exprs, rule, condition) in cases {
            let s = Strategy::from_exprs(exprs);
            let r = analyze(&g, &s);
            assert!(
                r.diagnostics.iter().any(|d| d.rule == rule),
                "{rule}:\n{}",
                r.render_text()
            );
            let first = check_vdag_strategy(&g, &s);
            match condition {
                Some(c) => {
                    assert_eq!(rule_of(first), rule);
                    assert_eq!(rule.condition(), c);
                }
                None => assert!(first.is_err(), "{rule}"),
            }
        }
    }

    #[test]
    fn diagnostics_name_their_views_and_kind() {
        let g = figure3_vdag();
        let v = |n: &str| vec![n.to_string()];
        let good = good_strategy(&g);

        // Dropping Inst(V5) leaves one dead delta, and it is V5's.
        let mut s = good.clone();
        s.exprs.retain(|e| *e != UpdateExpr::inst(id(&g, "V5")));
        let r = analyze(&g, &s);
        let dead: Vec<_> = (r.diagnostics.iter())
            .filter(|d| d.rule == Rule::DeadDelta)
            .collect();
        assert_eq!(dead.len(), 1, "{}", r.render_text());
        assert!(dead[0].message.contains("never installed"));
        assert_eq!(dead[0].views, v("V5"));

        // A view nothing computes or installs is named alone.
        let mut s = good.clone();
        s.exprs.retain(|e| *e != UpdateExpr::inst(id(&g, "V1")));
        let r = analyze(&g, &s);
        let dead: Vec<_> = (r.diagnostics.iter())
            .filter(|d| d.rule == Rule::DeadDelta)
            .collect();
        assert_eq!(dead.len(), 1, "{}", r.render_text());
        assert_eq!(
            dead[0].message,
            "V1 is never installed — its extent stays stale after the update window"
        );
        assert_eq!(dead[0].views, v("V1"));

        // Dropping Comp(V5, {V1}) leaves V1 uncovered in V5.
        let mut s = good.clone();
        s.exprs
            .retain(|e| *e != UpdateExpr::comp1(id(&g, "V5"), id(&g, "V1")));
        let r = analyze(&g, &s);
        let uncovered: Vec<_> = (r.diagnostics.iter())
            .filter(|d| d.rule == Rule::UncoveredSource)
            .collect();
        assert_eq!(uncovered.len(), 1, "{}", r.render_text());
        assert_eq!(uncovered[0].views, ["V1", "V5"]);

        // An exact duplicate is a "duplicate"; overlapping over-sets apply
        // changes "twice".
        let mut s = good.clone();
        s.exprs.insert(1, s.exprs[0].clone());
        let r = analyze(&g, &s);
        let redundant: Vec<_> = (r.diagnostics.iter())
            .filter(|d| d.rule == Rule::RedundantTerm)
            .collect();
        assert_eq!(redundant.len(), 1, "{}", r.render_text());
        assert_eq!(redundant[0].message, "duplicate expression Comp(V4, {V2})");
        assert_eq!(redundant[0].related, [(0, "first occurrence".to_string())]);
        let e = check_vdag_strategy(&g, &s).unwrap_err();
        assert!(e.to_string().contains("duplicate expression"), "{e}");

        let (v2, v3, v4) = (id(&g, "V2"), id(&g, "V3"), id(&g, "V4"));
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp(v4, [v2, v3]),
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::inst(v2),
            UpdateExpr::inst(v3),
            UpdateExpr::comp(id(&g, "V5"), [id(&g, "V1"), v4]),
            UpdateExpr::inst(v4),
            UpdateExpr::inst(id(&g, "V1")),
            UpdateExpr::inst(id(&g, "V5")),
        ]);
        let r = analyze(&g, &s);
        let redundant: Vec<_> = (r.diagnostics.iter())
            .filter(|d| d.rule == Rule::RedundantTerm)
            .collect();
        assert_eq!(redundant.len(), 1, "{}", r.render_text());
        assert!(redundant[0].message.contains("twice"));
        assert!(!redundant[0].message.contains("duplicate"));
        assert_eq!(redundant[0].views, ["V2", "V4"]);
    }

    #[test]
    fn view_strategy_rules() {
        // Example 1.1 for one view over three bases: Strategy 2 is correct.
        let (g, v) = one_view(3);
        let b: Vec<ViewId> = g.sources(v).to_vec();
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, b[0]),
            UpdateExpr::inst(b[0]),
            UpdateExpr::comp1(v, b[1]),
            UpdateExpr::inst(b[1]),
            UpdateExpr::comp1(v, b[2]),
            UpdateExpr::inst(b[2]),
            UpdateExpr::inst(v),
        ]);
        check_view_strategy(&g, v, &s).unwrap();
        check_vdag_strategy(&g, &s).unwrap();
        let without = |i: usize| {
            let mut e = s.exprs.clone();
            e.remove(i);
            Strategy::from_exprs(e)
        };
        assert_eq!(
            rule_of(check_view_strategy(&g, v, &without(4))),
            Rule::UncoveredSource
        );
        assert_eq!(
            rule_of(check_view_strategy(&g, v, &without(6))),
            Rule::DeadDelta
        );
        assert_eq!(
            rule_of(check_view_strategy(&g, v, &without(5))),
            Rule::DeadDelta
        );

        // Definition 3.1 is about one view: a Comp or Inst of another view
        // is a shape violation, not C7.
        let g = figure3_vdag();
        let v4 = id(&g, "V4");
        let foreign = Strategy::from_exprs(vec![
            UpdateExpr::comp1(id(&g, "V5"), v4),
            UpdateExpr::inst(v4),
        ]);
        assert_eq!(
            rule_of(check_view_strategy(&g, v4, &foreign)),
            Rule::MalformedExpr
        );
        let r = analyze_view(&g, v4, &foreign);
        assert!(r.diagnostics[0].message.contains("does not update"));
        let foreign = Strategy::from_exprs(vec![UpdateExpr::inst(id(&g, "V5"))]);
        assert!(analyze_view(&g, v4, &foreign).diagnostics[0]
            .message
            .contains("foreign"));
    }

    #[test]
    fn malformed_expressions_are_flagged_without_panicking() {
        let g = figure3_vdag();
        let (v1, v2, v4) = (id(&g, "V1"), id(&g, "V2"), id(&g, "V4"));
        for (exprs, needle) in [
            (vec![UpdateExpr::inst(ViewId(99))], "#99"),
            (
                vec![
                    UpdateExpr::comp(v4, [v2, ViewId(99)]),
                    UpdateExpr::inst(v2),
                    UpdateExpr::inst(v4),
                ],
                "#99",
            ),
            (vec![UpdateExpr::comp1(v1, v2)], "base view"),
            (vec![UpdateExpr::comp(v4, [])], "empty over-set"),
            (vec![UpdateExpr::comp1(v4, v1)], "not a source"),
        ] {
            let s = Strategy::from_exprs(exprs);
            let r = analyze(&g, &s);
            assert!(
                (r.diagnostics.iter())
                    .any(|d| d.rule == Rule::MalformedExpr && d.message.contains(needle)),
                "{needle}:\n{}",
                r.render_text()
            );
            assert_eq!(rule_of(check_vdag_strategy(&g, &s)), Rule::MalformedExpr);
            assert_eq!(
                rule_of(check_view_strategy(&g, v4, &s)),
                Rule::MalformedExpr
            );
        }
    }

    #[test]
    fn example_1_2_strategies_2_and_3_cannot_combine() {
        // Figure 2: V and V' both over CUSTOMER, ORDER, LINEITEM. Strategy 2
        // for V wants Inst(C), Inst(O) before Inst(L); Strategy 3 for V'
        // wants Inst(L) first. They share one Inst each, so one of the two
        // used view strategies must be incorrect.
        let mut g = Vdag::new();
        let c = g.add_base("CUSTOMER").unwrap();
        let o = g.add_base("ORDER").unwrap();
        let l = g.add_base("LINEITEM").unwrap();
        let v = g.add_derived("V", &[c, o, l]).unwrap();
        let vp = g.add_derived("V'", &[c, o, l]).unwrap();
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, c),
            UpdateExpr::comp1(vp, l),
            UpdateExpr::inst(c),
            UpdateExpr::comp1(v, o),
            UpdateExpr::inst(o),
            UpdateExpr::comp(vp, [c, o]),
            UpdateExpr::comp1(v, l),
            UpdateExpr::inst(l),
            UpdateExpr::inst(v),
            UpdateExpr::inst(vp),
        ]);
        assert!(check_vdag_strategy(&g, &s).is_err());
    }

    #[test]
    fn stage_races_are_flagged() {
        let g = figure3_vdag();
        // Inst(V2) and the Comp reading ΔV2 share a stage; so do
        // Comp(V4, {V3}) and Inst(V3).
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
        let races: Vec<_> = (r.diagnostics.iter())
            .filter(|d| d.rule == Rule::StageRace)
            .collect();
        assert!(races.iter().any(|d| d.message.contains("stage 0")));
        assert!(races.iter().any(|d| d.message.contains("stage 1")));
    }

    #[test]
    fn a_c8_stage_race_is_invisible_to_the_linearized_check() {
        // Comp(V4, ·) and Comp(V5, {V4}) share a stage. The linearization is
        // correct, but the threaded executor would compute Comp(V5, {V4})
        // against the frozen stage-entry ΔV4.
        let g = figure3_vdag();
        let installs: Vec<UpdateExpr> = g.view_ids().map(UpdateExpr::inst).collect();
        let v4 = UpdateExpr::comp(id(&g, "V4"), [id(&g, "V2"), id(&g, "V3")]);
        let v5 = UpdateExpr::comp(id(&g, "V5"), [id(&g, "V1"), id(&g, "V4")]);
        let racy = vec![vec![v4.clone(), v5.clone()], installs.clone()];
        let linear = Strategy::from_exprs(racy.iter().flatten().cloned().collect());
        check_vdag_strategy(&g, &linear).unwrap();
        let r = analyze_parallel(&g, &racy);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.diagnostics[0].rule, Rule::StageRace);

        let clean = vec![vec![v4], vec![v5], installs];
        let r = analyze_parallel(&g, &clean);
        assert!(r.is_clean(), "{}", r.render_text());
    }
}
