//! Diagnostics: rules, reports, and the text/JSON renderers.

use std::fmt;

/// The rules, each with a stable `UWW###` identifier. `UWW005` and
/// `UWW011`–`UWW014` are retired and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `UWW001`: two expressions that must stay ordered share a parallel
    /// stage, so the threaded executor's frozen-stage-entry reads diverge
    /// from every valid linearization.
    StageRace,
    /// `UWW002`: a delta is computed (or a view's changes exist) but the
    /// view is never installed — its extent is left stale (condition C2).
    DeadDelta,
    /// `UWW003`: a source's changes are never propagated into a consumer
    /// (condition C1).
    UncoveredSource,
    /// `UWW004`: a duplicated expression (condition C6) or two `Comp`s of
    /// one view with overlapping over-sets, which double-propagate changes
    /// and can never be ordered correctly (C3 + C4).
    RedundantTerm,
    /// `UWW006`: a `Comp` reads a delta whose view was already installed,
    /// so the term sees a fresh extent where it needs the stale one
    /// (condition C3).
    ReadAfterInstall,
    /// `UWW007`: an earlier `Comp`'s over-views are not all installed
    /// before a later `Comp` of the same view (condition C4).
    InstallOrder,
    /// `UWW008`: a `Comp` of a view appears after that view's `Inst`
    /// (condition C5).
    LateComp,
    /// `UWW009`: a delta is propagated before (or without) being computed
    /// (condition C8).
    UncomputedDelta,
    /// `UWW010`: a structurally invalid expression — unknown view id, a
    /// `Comp` on a base view, an empty over-set, or an over-set escaping
    /// the view's sources (conditions C1/C2/C7).
    MalformedExpr,
}

impl Rule {
    /// Every rule, in id order.
    pub const ALL: [Rule; 9] = [
        Rule::StageRace,
        Rule::DeadDelta,
        Rule::UncoveredSource,
        Rule::RedundantTerm,
        Rule::ReadAfterInstall,
        Rule::InstallOrder,
        Rule::LateComp,
        Rule::UncomputedDelta,
        Rule::MalformedExpr,
    ];

    /// The stable identifier, `UWW001` through `UWW010` (`UWW005` retired).
    pub fn id(self) -> &'static str {
        match self {
            Rule::StageRace => "UWW001",
            Rule::DeadDelta => "UWW002",
            Rule::UncoveredSource => "UWW003",
            Rule::RedundantTerm => "UWW004",
            Rule::ReadAfterInstall => "UWW006",
            Rule::InstallOrder => "UWW007",
            Rule::LateComp => "UWW008",
            Rule::UncomputedDelta => "UWW009",
            Rule::MalformedExpr => "UWW010",
        }
    }

    /// The short kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::StageRace => "stage-race",
            Rule::DeadDelta => "dead-delta",
            Rule::UncoveredSource => "uncovered-source",
            Rule::RedundantTerm => "redundant-term",
            Rule::ReadAfterInstall => "read-after-install",
            Rule::InstallOrder => "install-order",
            Rule::LateComp => "late-comp",
            Rule::UncomputedDelta => "uncomputed-delta",
            Rule::MalformedExpr => "malformed-expr",
        }
    }

    /// The paper condition (Definitions 3.1/3.3) or executor invariant the
    /// rule enforces.
    pub fn condition(self) -> &'static str {
        match self {
            Rule::StageRace => "stage isolation (Section 9 executor)",
            Rule::DeadDelta => "C2",
            Rule::UncoveredSource => "C1",
            Rule::RedundantTerm => "C6 (overlap: C3+C4)",
            Rule::ReadAfterInstall => "C3",
            Rule::InstallOrder => "C4",
            Rule::LateComp => "C5",
            Rule::UncomputedDelta => "C8",
            Rule::MalformedExpr => "C1/C2/C7",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.name())
    }
}

/// One finding of the checker: every diagnostic is an error, because the
/// strategy would produce incorrect extents (or the executor refuses it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// One-line description of the defect.
    pub message: String,
    /// Index of the offending expression, when one exists (indices are into
    /// the analyzed sequence; for parallel strategies, the linearization).
    pub primary: Option<usize>,
    /// Label rendered under the primary expression.
    pub primary_label: String,
    /// Related expressions (index, note), rendered as secondary context.
    pub related: Vec<(usize, String)>,
    /// Names of the views involved.
    pub views: Vec<String>,
}

impl Diagnostic {
    /// The inclusive expression-index span covered by this diagnostic:
    /// the range from the earliest related index to the primary.
    pub fn span(&self) -> Option<(usize, usize)> {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for &(i, _) in &self.related {
            lo = lo.min(i);
            hi = hi.max(i);
        }
        if let Some(p) = self.primary {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        if lo == usize::MAX {
            None
        } else {
            Some((lo, hi))
        }
    }
}

/// The checker's whole output: every diagnostic plus the checked
/// expressions (rendered), so the text renderer can quote them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Rendered expressions of the analyzed sequence, in order.
    pub exprs: Vec<String>,
    /// All findings, sorted by primary position then rule id.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub(crate) fn new(exprs: Vec<String>, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            let key = |d: &Diagnostic| (d.primary.unwrap_or(usize::MAX), d.rule, d.message.clone());
            key(a).cmp(&key(b))
        });
        Report { exprs, diagnostics }
    }

    /// True when nothing at all was flagged.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics, each an error.
    pub fn error_count(&self) -> usize {
        self.diagnostics.len()
    }

    /// Diagnostics per rule, in rule-id order — the JSON summary's
    /// `"rules"` object, so CI can gate on specific rules.
    pub fn rule_counts(&self) -> Vec<(Rule, usize)> {
        let mut counts: Vec<(Rule, usize)> = Vec::new();
        for r in Rule::ALL {
            let n = self.diagnostics.iter().filter(|d| d.rule == r).count();
            if n > 0 {
                counts.push((r, n));
            }
        }
        counts
    }

    /// Renders every diagnostic rustc-style, quoting the involved
    /// expressions with carets under the primary one.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("error[{}]: {}\n", d.rule.id(), d.message));
            let gutter = self.exprs.len().saturating_sub(1).to_string().len().max(2);
            if let Some(p) = d.primary {
                out.push_str(&format!("  --> strategy:{p}\n"));
                out.push_str(&format!("{:>gutter$} |\n", ""));
                let mut lines: Vec<(usize, &str, bool)> = d
                    .related
                    .iter()
                    .map(|(i, note)| (*i, note.as_str(), false))
                    .collect();
                lines.push((p, d.primary_label.as_str(), true));
                lines.sort_by_key(|(i, _, primary)| (*i, *primary));
                for (i, note, primary) in lines {
                    let text = self
                        .exprs
                        .get(i)
                        .map(String::as_str)
                        .unwrap_or("<out of range>");
                    out.push_str(&format!("{i:>gutter$} | {text}\n"));
                    let marker = if primary { "^" } else { "-" }.repeat(text.chars().count());
                    out.push_str(&format!("{:>gutter$} | {marker} {note}\n", ""));
                }
            }
            out.push_str(&format!(
                "{:>gutter$} = note: rule {} enforces {}\n\n",
                "",
                d.rule,
                d.rule.condition()
            ));
        }
        match self.error_count() {
            0 => out.push_str("clean: no diagnostics\n"),
            1 => out.push_str("1 error\n"),
            e => out.push_str(&format!("{e} errors\n")),
        }
        out
    }

    /// Renders the report as a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (n, d) in self.diagnostics.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"name\":{},\"severity\":\"error\",\"condition\":{},\"message\":{}",
                json_str(d.rule.id()),
                json_str(d.rule.name()),
                json_str(d.rule.condition()),
                json_str(&d.message),
            ));
            match d.primary {
                Some(p) => out.push_str(&format!(",\"primary\":{p}")),
                None => out.push_str(",\"primary\":null"),
            }
            match d.span() {
                Some((lo, hi)) => {
                    out.push_str(&format!(",\"span\":{{\"start\":{lo},\"end\":{hi}}}"))
                }
                None => out.push_str(",\"span\":null"),
            }
            out.push_str(",\"views\":[");
            for (m, v) in d.views.iter().enumerate() {
                if m > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(v));
            }
            out.push_str("]}");
        }
        out.push_str("],\"rules\":{");
        for (n, (rule, count)) in self.rule_counts().into_iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{count}", json_str(rule.id())));
        }
        out.push_str(&format!("}},\"errors\":{}}}", self.error_count()));
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new(
            vec!["Inst(V2)".into(), "Comp(V4, {V2})".into()],
            vec![Diagnostic {
                rule: Rule::ReadAfterInstall,
                message: "Comp(V4, {V2}) reads ΔV2 after Inst(V2)".into(),
                primary: Some(1),
                primary_label: "stale read of a fresh extent".into(),
                related: vec![(0, "V2 installed here".into())],
                views: vec!["V2".into(), "V4".into()],
            }],
        )
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids[0], "UWW001");
        assert_eq!(ids[8], "UWW010");
        assert_eq!(ids.len(), 9);
        assert!(!ids.contains(&"UWW005"), "UWW005 is retired");
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
        for r in Rule::ALL {
            assert!(r.id().starts_with("UWW"));
            assert!(!r.name().is_empty());
            assert!(!r.condition().is_empty());
        }
    }

    #[test]
    fn span_covers_primary_and_related() {
        let r = sample();
        assert_eq!(r.diagnostics[0].span(), Some((0, 1)));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn text_renderer_quotes_expressions() {
        let text = sample().render_text();
        assert!(text.contains("error[UWW006]"));
        assert!(text.contains("--> strategy:1"));
        assert!(text.contains("Comp(V4, {V2})"));
        assert!(text.contains("^"));
        assert!(text.contains("C3"));
        assert!(text.ends_with("\n1 error\n"), "{text}");
    }

    #[test]
    fn json_renderer_escapes_and_structures() {
        let json = sample().to_json();
        assert!(json.contains("\"rule\":\"UWW006\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"span\":{\"start\":0,\"end\":1}"));
        assert!(json.contains("\"rules\":{\"UWW006\":1}"));
        assert!(json.ends_with("\"errors\":1}"), "{json}");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
