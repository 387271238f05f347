//! Request parsing for the line protocol.

use uww_relational::{value_from_wire, Value};

/// One parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `QUERY <view>`: read one view's current extent.
    Query(String),
    /// `SNAPSHOT`: list every view of one pinned catalog version.
    Snapshot,
    /// `METRICS`: the server's metrics so far in Prometheus text format,
    /// multi-line, terminated by `# EOF`.
    Metrics,
    /// `INGEST <view> <count> <value>...`: hand one base-view delta row to
    /// the server's ingest sink. Values use the snapshot wire encoding
    /// ([`uww_relational::value_to_wire`]), one whitespace-separated token
    /// per column — string values containing whitespace are therefore not
    /// representable on this verb.
    Ingest {
        /// The base view the delta row targets.
        view: String,
        /// Signed multiplicity: positive inserts, negative deletes.
        count: i64,
        /// The row, one value per column in schema order.
        values: Vec<Value>,
    },
    /// `QUIT`: close the connection.
    Quit,
}

impl Request {
    /// Parses one request line (without its trailing newline). Keywords are
    /// case-insensitive; view names are taken verbatim.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("").to_ascii_uppercase();
        // INGEST is the one multi-token verb; everything else takes at most
        // a single argument.
        if verb == "INGEST" {
            return parse_ingest(parts);
        }
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(format!("too many arguments for {verb}"));
        }
        match (verb.as_str(), arg) {
            ("QUERY", Some(view)) => Ok(Request::Query(view.to_string())),
            ("QUERY", None) => Err("QUERY needs a view name".to_string()),
            ("SNAPSHOT", None) => Ok(Request::Snapshot),
            ("METRICS", None) => Ok(Request::Metrics),
            ("QUIT", None) => Ok(Request::Quit),
            ("", None) => Err("empty request".to_string()),
            (v, _) => Err(format!("unknown or malformed request: {v}")),
        }
    }
}

/// Parses the tail of an `INGEST` line: `<view> <count> <value>...`.
fn parse_ingest<'a>(mut parts: impl Iterator<Item = &'a str>) -> Result<Request, String> {
    let view = parts
        .next()
        .ok_or_else(|| "INGEST needs a view name".to_string())?
        .to_string();
    let count_tok = parts
        .next()
        .ok_or_else(|| "INGEST needs a signed row count".to_string())?;
    let count: i64 = count_tok
        .parse()
        .map_err(|_| format!("INGEST count must be a signed integer, got {count_tok}"))?;
    if count == 0 {
        return Err("INGEST count must be non-zero".to_string());
    }
    let mut values = Vec::new();
    for tok in parts {
        values.push(value_from_wire(tok).map_err(|e| format!("bad INGEST value {tok}: {e}"))?);
    }
    if values.is_empty() {
        return Err("INGEST needs at least one column value".to_string());
    }
    Ok(Request::Ingest {
        view,
        count,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(
            Request::parse("QUERY LINEITEM"),
            Ok(Request::Query("LINEITEM".into()))
        );
        assert_eq!(Request::parse("query V1"), Ok(Request::Query("V1".into())));
        assert_eq!(Request::parse("SNAPSHOT"), Ok(Request::Snapshot));
        assert_eq!(Request::parse("METRICS"), Ok(Request::Metrics));
        assert_eq!(Request::parse("metrics"), Ok(Request::Metrics));
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
    }

    #[test]
    fn ingest_requests_parse() {
        assert_eq!(
            Request::parse("INGEST LINEITEM 1 i:7 s:ok d:250"),
            Ok(Request::Ingest {
                view: "LINEITEM".into(),
                count: 1,
                values: vec![Value::Int(7), Value::str("ok"), Value::Decimal(250)],
            })
        );
        assert_eq!(
            Request::parse("ingest V -2 t:100"),
            Ok(Request::Ingest {
                view: "V".into(),
                count: -2,
                values: vec![Value::Date(100)],
            })
        );
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("QUERY").is_err());
        assert!(Request::parse("QUERY A B").is_err());
        assert!(Request::parse("SNAPSHOT now").is_err());
        assert!(Request::parse("METRICS verbose").is_err());
        assert!(Request::parse("STATS").is_err());
        assert!(Request::parse("HEALTH").is_err());
        assert!(Request::parse("DROP TABLE").is_err());
        // INGEST: missing pieces, zero count, malformed values.
        assert!(Request::parse("INGEST").is_err());
        assert!(Request::parse("INGEST V").is_err());
        assert!(Request::parse("INGEST V 1").is_err());
        assert!(Request::parse("INGEST V 0 i:1").is_err());
        assert!(Request::parse("INGEST V one i:1").is_err());
        assert!(Request::parse("INGEST V 1 x:9").is_err());
    }
}
