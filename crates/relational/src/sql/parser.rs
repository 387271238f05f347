//! Recursive-descent parser producing [`ViewDef`]s from SQL text.
//!
//! Supported grammar (the SELECT-FROM-WHERE-GROUPBY class the paper's
//! maintenance expressions cover):
//!
//! ```text
//! SELECT item (, item)*
//! FROM   table [alias] (, table [alias])*
//! [WHERE  boolean]
//! [GROUP BY colref (, colref)*]
//!
//! item    := SUM(expr) [AS name] | COUNT(expr | *) [AS name] | expr [AS name]
//! boolean := conj (OR conj)* ; conj := unit (AND unit)* ; unit := [NOT] atom
//! atom    := '(' boolean ')' | expr cmp expr
//! expr    := mulexp (('+'|'-') mulexp)* ; mulexp := prim ('*' prim)*
//! prim    := literal | DATE 'YYYY-MM-DD' | colref | '(' expr ')'
//! ```
//!
//! Top-level `WHERE` conjuncts of the form `col = col` across two different
//! sources become equi-join conditions; everything else becomes a filter.
//! Unqualified column references are auto-qualified when the view has a
//! single source.

use super::lexer::{lex, Token};
use crate::error::{RelError, RelResult};
use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::ops::AggFunc;
use crate::value::{ymd_to_days, Value};
use crate::viewdef::{AggregateColumn, EquiJoin, OutputColumn, ViewDef, ViewOutput, ViewSource};

/// Parses SQL text into a [`ViewDef`] named `view_name`.
pub fn parse_view_def(view_name: &str, sql: &str) -> RelResult<ViewDef> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let def = p.view_def(view_name)?;
    if p.pos != p.tokens.len() {
        return Err(p.err(&format!("trailing input at token {}", p.pos)));
    }
    Ok(def)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

enum SelectItem {
    Agg {
        func: AggFunc,
        input: ScalarExpr,
        name: Option<String>,
    },
    Plain {
        expr: ScalarExpr,
        name: Option<String>,
    },
}

impl Parser {
    fn err(&self, msg: &str) -> RelError {
        RelError::SchemaMismatch {
            detail: format!("SQL parse error: {msg}"),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> RelResult<()> {
        match self.next() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(self.err(&format!("expected {kw}, got {other:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> RelResult<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(&format!("expected identifier, got {other:?}"))),
        }
    }

    fn view_def(&mut self, view_name: &str) -> RelResult<ViewDef> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.select_item()?);
        }

        self.expect_keyword("FROM")?;
        let mut sources = vec![self.from_item()?];
        while self.eat(&Token::Comma) {
            sources.push(self.from_item()?);
        }

        let where_clause = if self.keyword("WHERE") {
            Some(self.boolean()?)
        } else {
            None
        };

        let group_by = if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            let mut cols = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                cols.push(self.expr()?);
            }
            Some(cols)
        } else {
            None
        };

        self.assemble(view_name, items, sources, where_clause, group_by)
    }

    fn select_item(&mut self) -> RelResult<SelectItem> {
        let simple_agg = if self.keyword("SUM") {
            Some(AggFunc::Sum)
        } else if self.keyword("MIN") {
            Some(AggFunc::Min)
        } else if self.keyword("MAX") {
            Some(AggFunc::Max)
        } else {
            None
        };
        let item = if let Some(func) = simple_agg {
            self.expect_token(Token::LParen)?;
            let input = self.expr()?;
            self.expect_token(Token::RParen)?;
            SelectItem::Agg {
                func,
                input,
                name: None,
            }
        } else if self.keyword("COUNT") {
            self.expect_token(Token::LParen)?;
            let input = if self.eat(&Token::Star) {
                // COUNT(*): the counted expression is irrelevant; use a
                // constant.
                ScalarExpr::lit(Value::Int(1))
            } else {
                self.expr()?
            };
            self.expect_token(Token::RParen)?;
            SelectItem::Agg {
                func: AggFunc::Count,
                input,
                name: None,
            }
        } else {
            SelectItem::Plain {
                expr: self.expr()?,
                name: None,
            }
        };
        let name = if self.keyword("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(match item {
            SelectItem::Agg { func, input, .. } => SelectItem::Agg { func, input, name },
            SelectItem::Plain { expr, .. } => SelectItem::Plain { expr, name },
        })
    }

    fn expect_token(&mut self, t: Token) -> RelResult<()> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            other => Err(self.err(&format!("expected {t:?}, got {other:?}"))),
        }
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM-list item
    fn from_item(&mut self) -> RelResult<ViewSource> {
        let view = self.ident()?;
        let alias = match self.peek() {
            Some(Token::Ident(_)) => self.ident()?,
            _ => view.clone(),
        };
        Ok(ViewSource { view, alias })
    }

    // boolean := conj (OR conj)*
    fn boolean(&mut self) -> RelResult<Predicate> {
        let mut p = self.conjunction()?;
        while self.keyword("OR") {
            let rhs = self.conjunction()?;
            p = Predicate::Or(Box::new(p), Box::new(rhs));
        }
        Ok(p)
    }

    fn conjunction(&mut self) -> RelResult<Predicate> {
        let mut p = self.boolean_unit()?;
        while self.keyword("AND") {
            let rhs = self.boolean_unit()?;
            p = Predicate::And(Box::new(p), Box::new(rhs));
        }
        Ok(p)
    }

    fn boolean_unit(&mut self) -> RelResult<Predicate> {
        if self.keyword("NOT") {
            return Ok(Predicate::Not(Box::new(self.boolean_unit()?)));
        }
        // Parenthesized boolean vs parenthesized arithmetic: try boolean by
        // backtracking.
        if self.peek() == Some(&Token::LParen) {
            let save = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.boolean() {
                if self.eat(&Token::RParen) {
                    return Ok(inner);
                }
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => return Err(self.err(&format!("expected comparison, got {other:?}"))),
        };
        let rhs = self.expr()?;
        Ok(Predicate::Cmp(op, lhs, rhs))
    }

    fn expr(&mut self) -> RelResult<ScalarExpr> {
        let mut e = self.mulexp()?;
        loop {
            if self.eat(&Token::Plus) {
                e = ScalarExpr::Add(Box::new(e), Box::new(self.mulexp()?));
            } else if self.eat(&Token::Minus) {
                e = ScalarExpr::Sub(Box::new(e), Box::new(self.mulexp()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn mulexp(&mut self) -> RelResult<ScalarExpr> {
        let mut e = self.prim()?;
        while self.eat(&Token::Star) {
            e = ScalarExpr::Mul(Box::new(e), Box::new(self.prim()?));
        }
        Ok(e)
    }

    fn prim(&mut self) -> RelResult<ScalarExpr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(ScalarExpr::lit(Value::Int(n))),
            Some(Token::Decimal(d)) => Ok(ScalarExpr::lit(Value::Decimal(d))),
            Some(Token::Str(s)) => Ok(ScalarExpr::lit(Value::str(s))),
            Some(Token::Keyword(k)) if k == "DATE" => match self.next() {
                Some(Token::Str(s)) => {
                    Ok(ScalarExpr::lit(parse_date(&s).ok_or_else(|| {
                        self.err(&format!("bad date literal '{s}'"))
                    })?))
                }
                other => Err(self.err(&format!("expected date string, got {other:?}"))),
            },
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect_token(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(first)) => {
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    Ok(ScalarExpr::Col(format!("{first}.{col}")))
                } else {
                    // Unqualified; resolved during assembly.
                    Ok(ScalarExpr::Col(first))
                }
            }
            other => Err(self.err(&format!("expected expression, got {other:?}"))),
        }
    }

    fn assemble(
        &self,
        view_name: &str,
        items: Vec<SelectItem>,
        sources: Vec<ViewSource>,
        where_clause: Option<Predicate>,
        group_by: Option<Vec<ScalarExpr>>,
    ) -> RelResult<ViewDef> {
        // Auto-qualify unqualified columns when there is a single source.
        let qualify = |e: ScalarExpr| -> RelResult<ScalarExpr> {
            qualify_expr(e, &sources).map_err(|c| self.err(&c))
        };

        // Split WHERE into equi-joins and filters.
        let mut joins = Vec::new();
        let mut filters = Vec::new();
        if let Some(pred) = where_clause {
            for conjunct in split_conjuncts(pred) {
                match conjunct {
                    Predicate::Cmp(CmpOp::Eq, ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
                        let a = qualify_col(&a, &sources).map_err(|c| self.err(&c))?;
                        let b = qualify_col(&b, &sources).map_err(|c| self.err(&c))?;
                        let sa = a.split_once('.').map(|x| x.0.to_string());
                        let sb = b.split_once('.').map(|x| x.0.to_string());
                        if sa != sb {
                            joins.push(EquiJoin::new(a, b));
                        } else {
                            filters.push(Predicate::Cmp(
                                CmpOp::Eq,
                                ScalarExpr::Col(a),
                                ScalarExpr::Col(b),
                            ));
                        }
                    }
                    other => filters.push(qualify_pred(other, &sources).map_err(|c| self.err(&c))?),
                }
            }
        }

        // Output shape.
        let has_agg = items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
        let output = if has_agg {
            let mut groups = Vec::new();
            let mut aggs = Vec::new();
            let mut agg_idx = 0usize;
            for item in items {
                match item {
                    SelectItem::Agg { func, input, name } => {
                        agg_idx += 1;
                        aggs.push(AggregateColumn {
                            name: name.unwrap_or_else(|| match func {
                                AggFunc::Sum => format!("sum_{agg_idx}"),
                                AggFunc::Count => format!("count_{agg_idx}"),
                                AggFunc::Min => format!("min_{agg_idx}"),
                                AggFunc::Max => format!("max_{agg_idx}"),
                            }),
                            func,
                            input: qualify(input)?,
                        });
                    }
                    SelectItem::Plain { expr, name } => {
                        let expr = qualify(expr)?;
                        let name = name
                            .or_else(|| default_name(&expr))
                            .ok_or_else(|| self.err("computed select item needs AS name"))?;
                        groups.push(OutputColumn { name, expr });
                    }
                }
            }
            // GROUP BY, when present, must cover exactly the plain items.
            if let Some(gb) = group_by {
                let listed: Vec<ScalarExpr> =
                    gb.into_iter().map(qualify).collect::<RelResult<_>>()?;
                for g in &groups {
                    if !listed.contains(&g.expr) {
                        return Err(
                            self.err(&format!("select item {} missing from GROUP BY", g.name))
                        );
                    }
                }
                if listed.len() != groups.len() {
                    return Err(self.err("GROUP BY lists columns not in the select list"));
                }
            } else if !groups.is_empty() {
                return Err(self.err("aggregate query with plain columns needs GROUP BY"));
            }
            ViewOutput::Aggregate {
                group_by: groups,
                aggregates: aggs,
            }
        } else {
            if group_by.is_some() {
                return Err(self.err("GROUP BY without aggregates is not supported"));
            }
            let mut outs = Vec::new();
            for item in items {
                let SelectItem::Plain { expr, name } = item else {
                    unreachable!("has_agg is false")
                };
                let expr = qualify(expr)?;
                let name = name
                    .or_else(|| default_name(&expr))
                    .ok_or_else(|| self.err("computed select item needs AS name"))?;
                outs.push(OutputColumn { name, expr });
            }
            ViewOutput::Project(outs)
        };

        Ok(ViewDef {
            name: view_name.to_string(),
            sources,
            joins,
            filters,
            output,
        })
    }
}

/// Flattens a predicate's top-level conjunction.
fn split_conjuncts(p: Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = split_conjuncts(*a);
            out.extend(split_conjuncts(*b));
            out
        }
        other => vec![other],
    }
}

fn default_name(e: &ScalarExpr) -> Option<String> {
    match e {
        ScalarExpr::Col(c) => Some(c.split_once('.').map(|x| x.1).unwrap_or(c).to_string()),
        _ => None,
    }
}

fn qualify_col(c: &str, sources: &[ViewSource]) -> Result<String, String> {
    if c.contains('.') {
        return Ok(c.to_string());
    }
    if sources.len() == 1 {
        return Ok(format!("{}.{c}", sources[0].alias));
    }
    Err(format!(
        "unqualified column {c} is ambiguous over {} sources",
        sources.len()
    ))
}

fn qualify_expr(e: ScalarExpr, sources: &[ViewSource]) -> Result<ScalarExpr, String> {
    Ok(match e {
        ScalarExpr::Col(c) => ScalarExpr::Col(qualify_col(&c, sources)?),
        ScalarExpr::Lit(v) => ScalarExpr::Lit(v),
        ScalarExpr::Add(a, b) => ScalarExpr::Add(
            Box::new(qualify_expr(*a, sources)?),
            Box::new(qualify_expr(*b, sources)?),
        ),
        ScalarExpr::Sub(a, b) => ScalarExpr::Sub(
            Box::new(qualify_expr(*a, sources)?),
            Box::new(qualify_expr(*b, sources)?),
        ),
        ScalarExpr::Mul(a, b) => ScalarExpr::Mul(
            Box::new(qualify_expr(*a, sources)?),
            Box::new(qualify_expr(*b, sources)?),
        ),
    })
}

fn qualify_pred(p: Predicate, sources: &[ViewSource]) -> Result<Predicate, String> {
    Ok(match p {
        Predicate::Cmp(op, a, b) => {
            Predicate::Cmp(op, qualify_expr(a, sources)?, qualify_expr(b, sources)?)
        }
        Predicate::And(a, b) => Predicate::And(
            Box::new(qualify_pred(*a, sources)?),
            Box::new(qualify_pred(*b, sources)?),
        ),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(qualify_pred(*a, sources)?),
            Box::new(qualify_pred(*b, sources)?),
        ),
        Predicate::Not(a) => Predicate::Not(Box::new(qualify_pred(*a, sources)?)),
        Predicate::True => Predicate::True,
    })
}

/// A `YYYY-MM-DD` literal naming a real Gregorian day in years 1–9999.
fn parse_date(s: &str) -> Option<Value> {
    let mut parts = s.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    let leap = y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
    let month_len = match m {
        2 if leap => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        1..=12 => 31,
        _ => return None,
    };
    if parts.next().is_some() || !(1..=9999).contains(&y) || !(1..=month_len).contains(&d) {
        return None;
    }
    Some(Value::Date(ymd_to_days(y, m, d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q3_identically_to_the_handwritten_def() {
        // The exact SQL from the paper's Q3, parsed, must equal the
        // handwritten definition in uww-tpcd (checked structurally here
        // against an equivalent local reconstruction).
        let sql = "
            SELECT l_orderkey, o_orderdate, o_shippriority,
                   SUM(l_extendedprice * (1 - l_discount)) AS revenue
            FROM   CUSTOMER C, ORD O, LINEITEM L
            WHERE  C.c_mktsegment = 'BUILDING'
              AND  C.c_custkey = O.o_custkey AND L.l_orderkey = O.o_orderkey
              AND  O.o_orderdate < DATE '1995-03-15'
              AND  L.l_shipdate > DATE '1995-03-15'
            GROUP BY l_orderkey, o_orderdate, o_shippriority";
        // Columns in SELECT/GROUP BY are unqualified: ambiguous over three
        // sources -> must be qualified. Re-run with qualified columns.
        assert!(parse_view_def("Q3", sql).is_err());

        let sql = "
            SELECT L.l_orderkey, O.o_orderdate, O.o_shippriority,
                   SUM(L.l_extendedprice * (1.00 - L.l_discount)) AS revenue
            FROM   CUSTOMER C, ORD O, LINEITEM L
            WHERE  C.c_mktsegment = 'BUILDING'
              AND  C.c_custkey = O.o_custkey AND L.l_orderkey = O.o_orderkey
              AND  O.o_orderdate < DATE '1995-03-15'
              AND  L.l_shipdate > DATE '1995-03-15'
            GROUP BY L.l_orderkey, O.o_orderdate, O.o_shippriority";
        let def = parse_view_def("Q3", sql).unwrap();
        assert_eq!(def.sources.len(), 3);
        assert_eq!(def.joins.len(), 2);
        assert_eq!(def.filters.len(), 3);
        match &def.output {
            ViewOutput::Aggregate {
                group_by,
                aggregates,
            } => {
                assert_eq!(group_by.len(), 3);
                assert_eq!(group_by[0].name, "l_orderkey");
                assert_eq!(aggregates.len(), 1);
                assert_eq!(aggregates[0].name, "revenue");
                assert_eq!(aggregates[0].func, AggFunc::Sum);
                assert_eq!(
                    aggregates[0].input,
                    ScalarExpr::col("L.l_extendedprice").mul(
                        ScalarExpr::lit(Value::Decimal(100)).sub(ScalarExpr::col("L.l_discount"))
                    )
                );
            }
            _ => panic!("aggregate expected"),
        }
        // The date filter carries an exact Date value.
        assert!(def.filters.iter().any(|f| matches!(
            f,
            Predicate::Cmp(CmpOp::Lt, _, ScalarExpr::Lit(Value::Date(_)))
        )));
    }

    #[test]
    fn single_source_auto_qualification() {
        let def = parse_view_def(
            "V",
            "SELECT k, x + x AS xx FROM R WHERE x > 3 OR NOT (k = 1)",
        )
        .unwrap();
        assert_eq!(def.sources[0].alias, "R");
        match &def.output {
            ViewOutput::Project(outs) => {
                assert_eq!(outs[0].expr, ScalarExpr::col("R.k"));
                assert_eq!(outs[0].name, "k");
                assert_eq!(outs[1].name, "xx");
            }
            _ => panic!("projection expected"),
        }
        assert_eq!(def.joins.len(), 0);
        assert_eq!(def.filters.len(), 1); // the whole OR is one filter
    }

    #[test]
    fn count_star_and_default_agg_names() {
        let def = parse_view_def("V", "SELECT g, COUNT(*), SUM(x) FROM R GROUP BY g").unwrap();
        match &def.output {
            ViewOutput::Aggregate { aggregates, .. } => {
                assert_eq!(aggregates[0].func, AggFunc::Count);
                assert_eq!(aggregates[0].name, "count_1");
                assert_eq!(aggregates[1].name, "sum_2");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn same_source_equality_is_a_filter_not_a_join() {
        let def = parse_view_def(
            "V",
            "SELECT R.a AS a FROM R, S WHERE R.a = R.b AND R.k = S.k",
        )
        .unwrap();
        assert_eq!(def.joins.len(), 1);
        assert_eq!(def.filters.len(), 1);
    }

    #[test]
    fn error_cases() {
        // Missing FROM.
        assert!(parse_view_def("V", "SELECT x").is_err());
        // GROUP BY without aggregates.
        assert!(parse_view_def("V", "SELECT k FROM R GROUP BY k").is_err());
        // Aggregate with plain column but no GROUP BY.
        assert!(parse_view_def("V", "SELECT k, SUM(x) FROM R").is_err());
        // GROUP BY not covering a plain column.
        assert!(parse_view_def("V", "SELECT k, g, SUM(x) FROM R GROUP BY k").is_err());
        // Computed column without a name.
        assert!(parse_view_def("V", "SELECT x + 1 FROM R").is_err());
        // Trailing garbage (note `FROM R extra` would parse: `extra` is an
        // alias, as in standard SQL).
        assert!(parse_view_def("V", "SELECT k FROM R WHERE k = 1 stuff").is_err());
        // Bad date.
        assert!(parse_view_def("V", "SELECT k FROM R WHERE d < DATE '1995-13-01'").is_err());
    }

    #[test]
    fn date_literals_name_real_days_in_years_1_to_9999() {
        let parse =
            |lit: &str| parse_view_def("V", &format!("SELECT k FROM R WHERE d < DATE '{lit}'"));
        for bad in [
            "1995-02-31",
            "1995-04-31",
            "9999999-01-01",
            "1900-02-29",
            "0-01-01",
        ] {
            match parse(bad) {
                Err(RelError::SchemaMismatch { detail }) => {
                    assert!(detail.contains("bad date literal"), "{bad}: {detail}")
                }
                other => panic!("{bad} parsed: {other:?}"),
            }
        }
        let def = parse("2000-02-29").unwrap();
        let lit = ScalarExpr::Lit(crate::value::date(2000, 2, 29));
        assert!(matches!(&def.filters[0], Predicate::Cmp(CmpOp::Lt, _, l) if *l == lit));
    }

    #[test]
    fn parsed_defs_validate_and_materialize() {
        use crate::schema::Schema;
        use crate::value::ValueType;
        let def = parse_view_def(
            "V",
            "SELECT g, SUM(x) AS total FROM R WHERE x >= 0 GROUP BY g",
        )
        .unwrap();
        let lookup = |name: &str| -> RelResult<Schema> {
            if name == "R" {
                Ok(Schema::of(&[
                    ("k", ValueType::Int),
                    ("g", ValueType::Int),
                    ("x", ValueType::Decimal),
                ]))
            } else {
                Err(RelError::UnknownRelation(name.into()))
            }
        };
        def.validate(lookup).unwrap();
    }
}
