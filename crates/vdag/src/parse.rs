//! A small parser for strategy text, so the CLI can check hand-written
//! strategies without executing them.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! strategy ::= expr (';' expr)* [';']
//! stages   ::= strategy ('|' strategy)*
//! expr     ::= 'Comp' '(' NAME ',' over ')' | 'Inst' '(' NAME ')'
//! over     ::= '{' NAME (',' NAME)* '}' | NAME
//! ```
//!
//! View names are resolved against the VDAG; an unknown name is a parse
//! error (everything else — empty over-sets, wrong sources, bad ordering —
//! is left for the checker to diagnose).

use crate::graph::{Vdag, ViewId};
use crate::strategy::{Strategy, UpdateExpr};

fn resolve(g: &Vdag, name: &str) -> Result<ViewId, String> {
    let name = name.trim();
    if name.is_empty() {
        return Err("empty view name".to_string());
    }
    g.id_of(name).map_err(|_| format!("unknown view {name:?}"))
}

/// Parses one update expression, e.g. `Comp(V4, {V2, V3})` or `Inst(V2)`.
pub fn parse_expr(g: &Vdag, text: &str) -> Result<UpdateExpr, String> {
    let text = text.trim();
    let (kind, rest) = if let Some(rest) = text.strip_prefix("Comp") {
        ("Comp", rest)
    } else if let Some(rest) = text.strip_prefix("Inst") {
        ("Inst", rest)
    } else {
        return Err(format!("expected Comp(...) or Inst(...), found {text:?}"));
    };
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| format!("expected parentheses after {kind} in {text:?}"))?
        .trim();
    if kind == "Inst" {
        return Ok(UpdateExpr::inst(resolve(g, inner)?));
    }
    let (view, over) = inner
        .split_once(',')
        .ok_or_else(|| format!("Comp needs a view and an over-set in {text:?}"))?;
    let view = resolve(g, view)?;
    let over = over.trim();
    let names: Vec<&str> =
        if let Some(body) = over.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
            let body = body.trim();
            if body.is_empty() {
                Vec::new() // empty over-set: parseable, flagged by UWW010
            } else {
                body.split(',').collect()
            }
        } else {
            vec![over]
        };
    let over = names
        .into_iter()
        .map(|n| resolve(g, n))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(UpdateExpr::comp(view, over))
}

/// Parses a `;`-separated sequential strategy.
pub fn parse_strategy(g: &Vdag, text: &str) -> Result<Strategy, String> {
    let exprs = text
        .split(';')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| parse_expr(g, t))
        .collect::<Result<Vec<_>, _>>()?;
    if exprs.is_empty() {
        return Err("empty strategy".to_string());
    }
    Ok(Strategy::from_exprs(exprs))
}

/// Parses a `|`-separated sequence of stages, each a `;`-separated list.
pub fn parse_stages(g: &Vdag, text: &str) -> Result<Vec<Vec<UpdateExpr>>, String> {
    let stages = text
        .split('|')
        .map(|stage| {
            stage
                .split(';')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| parse_expr(g, t))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<Vec<_>>, _>>()?;
    if stages.iter().all(Vec::is_empty) {
        return Err("empty parallel strategy".to_string());
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure3_vdag;

    #[test]
    fn round_trips_display_syntax() {
        let g = figure3_vdag();
        let s = parse_strategy(
            &g,
            "Comp(V4, {V2, V3}); Inst(V2); Inst(V3); Comp(V5, V4); Inst(V4)",
        )
        .unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(
            s.exprs[0],
            UpdateExpr::comp(
                g.id_of("V4").unwrap(),
                [g.id_of("V2").unwrap(), g.id_of("V3").unwrap()]
            )
        );
        assert_eq!(
            s.exprs[3],
            UpdateExpr::comp1(g.id_of("V5").unwrap(), g.id_of("V4").unwrap())
        );
        // Whitespace-insensitive, trailing separator tolerated.
        let t = parse_strategy(&g, "  Comp(V4,{V2,V3}) ;Inst( V2 ); ").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.exprs[0], s.exprs[0]);
    }

    #[test]
    fn parses_stages() {
        let g = figure3_vdag();
        let stages = parse_stages(
            &g,
            "Comp(V4, {V2, V3}) | Comp(V5, {V1, V4}) | Inst(V1); Inst(V2); Inst(V3); Inst(V4); Inst(V5)",
        )
        .unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].len(), 1);
        assert_eq!(stages[2].len(), 5);
    }

    #[test]
    fn empty_over_set_is_parseable() {
        let g = figure3_vdag();
        let s = parse_strategy(&g, "Comp(V4, {})").unwrap();
        assert!(matches!(&s.exprs[0], UpdateExpr::Comp { over, .. } if over.is_empty()));
    }

    #[test]
    fn rejects_garbage() {
        let g = figure3_vdag();
        assert!(parse_strategy(&g, "").is_err());
        assert!(parse_strategy(&g, "Frob(V1)").is_err());
        assert!(parse_strategy(&g, "Inst(NOPE)").is_err());
        assert!(parse_strategy(&g, "Comp(V4)").is_err());
        assert!(parse_strategy(&g, "Inst V4").is_err());
        assert!(parse_strategy(&g, "Comp(V4, {V2, NOPE})").is_err());
        assert!(parse_stages(&g, " | ").is_err());
    }
}
