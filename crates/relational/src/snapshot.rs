//! Snapshots of tables, catalogs and delta relations, in two formats.
//!
//! **Text** is the human format: line-oriented, dependency-free and
//! deterministic. Rows are written in sorted order, so equal states
//! serialize to equal bytes. It is what `uww dump` prints, what the WAL's
//! `CD` payloads carry and what tests diff.
//!
//! ```text
//! # uww snapshot v1
//! TABLE CUSTOMER
//! SCHEMA c_custkey:int,c_name:str
//! ROW 1 <TAB> i:1 <TAB> s:Customer#000000001
//! END
//! ```
//!
//! The **image** is the journal's checkpoint format
//! ([`write_catalog_image`], [`write_deltas_image`]). It is binary and
//! written in map order with no sort, so equal states may encode to
//! different bytes. It need not be canonical: the journal checks what it
//! reads back against content digests, which do not depend on row order.
//! After a versioned magic line, every integer (`Int`, `Decimal` and
//! `Date` values, multiplicities, signed counts, lengths) is a zigzag
//! LEB128 varint, and a string is its byte length then its UTF-8 bytes.
//! Values carry no type tag: each relation's schema, written once as its
//! text spec, types them.
//!
//! ```text
//! # uww catalog image v1 <LF> <table count>
//!   per table: <name> <schema spec> <distinct rows>
//!     per row: <multiplicity> <value>...
//! ```
//!
//! A delta-set image (`# uww deltas image v1`) has the same shape, with a
//! delta's name and signed counts. The image decoders trust no length
//! beyond the bytes left to cover it and refuse malformed input with a
//! typed [`RelError`].
//!
//! Content digests ([`table_digest`], [`catalog_digest`], [`delta_digest`])
//! read neither format: they add up one row hash per row, the digest a
//! [`Table`] keeps up to date as rows come and go ([`Table::digest`]).

use crate::catalog::Catalog;
use crate::delta::DeltaRelation;
use crate::error::{RelError, RelResult};
use crate::schema::{Column, Schema};
use crate::table::{digest_share, Table};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// The header line every snapshot starts with.
pub const HEADER: &str = "# uww snapshot v1";

/// The header line every delta-set snapshot starts with.
pub const DELTA_HEADER: &str = "# uww deltas v1";

/// FNV-1a 64-bit digest of a string. Dependency-free and stable across
/// platforms; used as the checksum of WAL records and journaled fragments.
pub fn digest64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Content digest of a table, recomputed by walking every row: the value
/// [`Table::digest`] keeps up to date, at O(rows) instead of O(1).
pub fn table_digest(table: &Table) -> u64 {
    table
        .iter()
        .fold(0, |d, (t, m)| d.wrapping_add(digest_share(t, m)))
}

/// Content digest of a delta relation: [`table_digest`]'s sum with signed
/// multiplicities.
pub fn delta_digest(delta: &DeltaRelation) -> u64 {
    delta
        .iter()
        .fold(0, |d, (t, m)| d.wrapping_add(digest_share(t, m as u64)))
}

/// Content digest of a whole catalog: each table's name, schema, length and
/// kept digest, in name order. O(tables): no row is read.
pub fn catalog_digest(catalog: &Catalog) -> u64 {
    let mut heads = String::new();
    for t in catalog.iter() {
        let schema = schema_to_spec(t.schema());
        let _ = writeln!(
            heads,
            "{} {schema} {} {:016x}",
            t.name(),
            t.len(),
            t.digest()
        );
    }
    digest64(&heads)
}

/// Content digest of a change batch: each delta's name, schema, length and
/// [`delta_digest`], in the order given.
pub fn deltas_digest<'a>(deltas: impl IntoIterator<Item = (&'a str, &'a DeltaRelation)>) -> u64 {
    let mut heads = String::new();
    for (name, d) in deltas {
        let schema = schema_to_spec(d.schema());
        let _ = writeln!(
            heads,
            "{name} {schema} {} {:016x}",
            d.len(),
            delta_digest(d)
        );
    }
    digest64(&heads)
}

/// Serializes one value to its wire form (`i:`/`d:`/`t:`/`s:` tagged).
pub fn value_to_wire(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

/// Parses a value from its wire form.
pub fn value_from_wire(s: &str) -> RelResult<Value> {
    parse_value(s)
}

/// Serializes one value.
fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "i:{i}");
        }
        Value::Decimal(d) => {
            let _ = write!(out, "d:{d}");
        }
        Value::Date(d) => {
            let _ = write!(out, "t:{d}");
        }
        Value::Str(s) => {
            out.push_str("s:");
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    other => out.push(other),
                }
            }
        }
    }
}

fn parse_value(s: &str) -> RelResult<Value> {
    let bad = || RelError::SchemaMismatch {
        detail: format!("malformed snapshot value: {s}"),
    };
    let (tag, body) = s.split_once(':').ok_or_else(bad)?;
    Ok(match tag {
        "i" => Value::Int(body.parse().map_err(|_| bad())?),
        "d" => Value::Decimal(body.parse().map_err(|_| bad())?),
        "t" => Value::Date(body.parse().map_err(|_| bad())?),
        "s" => {
            let mut out = String::with_capacity(body.len());
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('\\') => out.push('\\'),
                        Some('t') => out.push('\t'),
                        Some('n') => out.push('\n'),
                        _ => return Err(bad()),
                    }
                } else {
                    out.push(c);
                }
            }
            Value::str(out)
        }
        _ => return Err(bad()),
    })
}

fn type_name(t: ValueType) -> &'static str {
    match t {
        ValueType::Int => "int",
        ValueType::Decimal => "decimal",
        ValueType::Str => "str",
        ValueType::Date => "date",
    }
}

fn parse_type(s: &str) -> RelResult<ValueType> {
    Ok(match s {
        "int" => ValueType::Int,
        "decimal" => ValueType::Decimal,
        "str" => ValueType::Str,
        "date" => ValueType::Date,
        other => {
            return Err(RelError::SchemaMismatch {
                detail: format!("unknown snapshot type: {other}"),
            })
        }
    })
}

fn schema_to_spec(schema: &Schema) -> String {
    schema
        .columns()
        .iter()
        .map(|c| format!("{}:{}", c.name, type_name(c.ty)))
        .collect::<Vec<_>>()
        .join(",")
}

fn schema_from_spec(spec: &str) -> RelResult<Schema> {
    let mut cols = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (cname, ty) = part
            .split_once(':')
            .ok_or_else(|| RelError::SchemaMismatch {
                detail: format!("malformed column spec: {part}"),
            })?;
        cols.push(Column::new(cname, parse_type(ty)?));
    }
    Schema::new(cols)
}

/// Writes rows as `ROW <mult>` lines in tuple order — the one row encoder
/// every snapshot and delta serialization goes through. `line` is scratch.
fn write_rows(
    out: &mut impl io::Write,
    mut rows: Vec<(&Tuple, i64)>,
    line: &mut String,
) -> io::Result<()> {
    // Tuples are distinct within a table or delta, so this is the order of
    // `(tuple, mult)` pairs.
    rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (row, mult) in rows {
        line.clear();
        let _ = write!(line, "ROW {mult}");
        for v in row.values() {
            line.push('\t');
            write_value(v, line);
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.write_all(b"END\n")
}

fn write_table(out: &mut impl io::Write, table: &Table, line: &mut String) -> io::Result<()> {
    writeln!(out, "TABLE {}", table.name())?;
    writeln!(out, "SCHEMA {}", schema_to_spec(table.schema()))?;
    // A stored multiplicity is at most `i64::MAX`.
    write_rows(
        out,
        table.iter().map(|(t, m)| (t, m as i64)).collect(),
        line,
    )
}

fn write_delta(
    out: &mut impl io::Write,
    delta: &DeltaRelation,
    line: &mut String,
) -> io::Result<()> {
    writeln!(out, "SCHEMA {}", schema_to_spec(delta.schema()))?;
    write_rows(out, delta.iter().collect(), line)
}

/// The text a writer produced into memory.
fn text_of(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("snapshot text is UTF-8")
}

/// Serializes a single table.
pub fn table_to_string(table: &Table) -> String {
    text_of(|out| write_table(out, table, &mut String::new()))
}

/// Streams a whole catalog's snapshot (tables in name order) to `out`: the
/// bytes [`catalog_to_string`] returns, one row at a time.
fn write_catalog(out: &mut impl io::Write, catalog: &Catalog) -> io::Result<()> {
    writeln!(out, "{HEADER}")?;
    let mut line = String::new();
    for table in catalog.iter() {
        write_table(out, table, &mut line)?;
    }
    Ok(())
}

/// Serializes a whole catalog (tables in name order).
pub fn catalog_to_string(catalog: &Catalog) -> String {
    text_of(|out| write_catalog(out, catalog))
}

/// Parses a catalog snapshot.
pub fn catalog_from_str(s: &str) -> RelResult<Catalog> {
    let mut lines = s.lines().peekable();
    match lines.next() {
        Some(h) if h == HEADER => {}
        other => {
            return Err(RelError::SchemaMismatch {
                detail: format!("bad snapshot header: {other:?}"),
            })
        }
    }
    let mut catalog = Catalog::new();
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let name = line
            .strip_prefix("TABLE ")
            .ok_or_else(|| RelError::SchemaMismatch {
                detail: format!("expected TABLE line, got: {line}"),
            })?;
        let schema_line = lines.next().ok_or_else(|| RelError::SchemaMismatch {
            detail: "truncated snapshot: missing SCHEMA".to_string(),
        })?;
        let spec = schema_line
            .strip_prefix("SCHEMA ")
            .ok_or_else(|| RelError::SchemaMismatch {
                detail: format!("expected SCHEMA line, got: {schema_line}"),
            })?;
        let schema = schema_from_spec(spec)?;
        let mut table = Table::new(name, schema);
        loop {
            let row_line = lines.next().ok_or_else(|| RelError::SchemaMismatch {
                detail: "truncated snapshot: missing END".to_string(),
            })?;
            if row_line == "END" {
                break;
            }
            let rest = row_line
                .strip_prefix("ROW ")
                .ok_or_else(|| RelError::SchemaMismatch {
                    detail: format!("expected ROW or END, got: {row_line}"),
                })?;
            let mut fields = rest.split('\t');
            let mult: u64 = fields.next().and_then(|m| m.parse().ok()).ok_or_else(|| {
                RelError::SchemaMismatch {
                    detail: format!("bad multiplicity in: {row_line}"),
                }
            })?;
            let values: Vec<Value> = fields.map(parse_value).collect::<RelResult<_>>()?;
            table.insert_n(Tuple::new(values), mult)?;
        }
        catalog.register(table)?;
    }
    Ok(catalog)
}

/// Serializes a delta relation (signed multiplicities, sorted rows):
///
/// ```text
/// SCHEMA k:int,v:decimal
/// ROW -2 <TAB> i:1 <TAB> d:100
/// END
/// ```
pub fn delta_to_string(delta: &DeltaRelation) -> String {
    text_of(|out| write_delta(out, delta, &mut String::new()))
}

/// Parses a delta relation serialized by [`delta_to_string`].
pub fn delta_from_str(s: &str) -> RelResult<DeltaRelation> {
    let mut lines = s.lines();
    parse_delta_body(&mut lines)
}

fn parse_delta_body<'a>(lines: &mut impl Iterator<Item = &'a str>) -> RelResult<DeltaRelation> {
    let schema_line = lines.next().ok_or_else(|| RelError::SchemaMismatch {
        detail: "truncated delta: missing SCHEMA".to_string(),
    })?;
    let spec = schema_line
        .strip_prefix("SCHEMA ")
        .ok_or_else(|| RelError::SchemaMismatch {
            detail: format!("expected SCHEMA line, got: {schema_line}"),
        })?;
    let mut delta = DeltaRelation::new(schema_from_spec(spec)?);
    loop {
        let row_line = lines.next().ok_or_else(|| RelError::SchemaMismatch {
            detail: "truncated delta: missing END".to_string(),
        })?;
        if row_line == "END" {
            break;
        }
        let rest = row_line
            .strip_prefix("ROW ")
            .ok_or_else(|| RelError::SchemaMismatch {
                detail: format!("expected ROW or END, got: {row_line}"),
            })?;
        let mut fields = rest.split('\t');
        let mult: i64 =
            fields
                .next()
                .and_then(|m| m.parse().ok())
                .ok_or_else(|| RelError::SchemaMismatch {
                    detail: format!("bad signed multiplicity in: {row_line}"),
                })?;
        let values: Vec<Value> = fields.map(parse_value).collect::<RelResult<_>>()?;
        delta.try_add(Tuple::new(values), mult)?;
    }
    Ok(delta)
}

/// Streams a change batch to `out` in the order given: the bytes
/// [`deltas_to_string`] returns for the same batch in name order.
fn write_deltas<'a>(
    out: &mut impl io::Write,
    deltas: impl IntoIterator<Item = (&'a str, &'a DeltaRelation)>,
) -> io::Result<()> {
    writeln!(out, "{DELTA_HEADER}")?;
    let mut line = String::new();
    for (name, delta) in deltas {
        writeln!(out, "DELTA {name}")?;
        write_delta(out, delta, &mut line)?;
    }
    Ok(())
}

/// Serializes a set of named deltas (a change batch) in name order.
pub fn deltas_to_string(deltas: &BTreeMap<String, DeltaRelation>) -> String {
    text_of(|out| write_deltas(out, deltas.iter().map(|(n, d)| (n.as_str(), d))))
}

/// The magic line every catalog image starts with.
const IMAGE_HEADER: &[u8] = b"# uww catalog image v1\n";

/// The magic line every delta-set image starts with.
const DELTA_IMAGE_HEADER: &[u8] = b"# uww deltas image v1\n";

/// Bytes an image writer gathers before handing them to its sink.
const IMAGE_CHUNK: usize = 64 * 1024;

/// Appends `v` as a zigzag LEB128 varint.
fn put_int(buf: &mut Vec<u8>, v: i64) {
    let mut u = ((v << 1) ^ (v >> 63)) as u64;
    while u >= 0x80 {
        buf.push(u as u8 | 0x80);
        u >>= 7;
    }
    buf.push(u as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_int(buf, s.len() as i64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one relation — name, schema spec, row count, then per row its
/// count and values — draining `buf` into `out` every [`IMAGE_CHUNK`] bytes.
fn put_relation<'a>(
    out: &mut impl io::Write,
    buf: &mut Vec<u8>,
    name: &str,
    schema: &Schema,
    distinct: usize,
    rows: impl Iterator<Item = (&'a Tuple, i64)>,
) -> io::Result<()> {
    put_str(buf, name);
    put_str(buf, &schema_to_spec(schema));
    put_int(buf, distinct as i64);
    for (row, count) in rows {
        put_int(buf, count);
        for v in row.values() {
            match v {
                Value::Int(i) | Value::Decimal(i) => put_int(buf, *i),
                Value::Date(d) => put_int(buf, i64::from(*d)),
                Value::Str(s) => put_str(buf, s),
            }
        }
        if buf.len() >= IMAGE_CHUNK {
            out.write_all(buf)?;
            buf.clear();
        }
    }
    Ok(())
}

/// Streams a catalog's image to `out`: tables in name order, rows in map
/// order (the layout is in the module docs).
pub fn write_catalog_image(out: &mut impl io::Write, catalog: &Catalog) -> io::Result<()> {
    let mut buf = IMAGE_HEADER.to_vec();
    put_int(&mut buf, catalog.len() as i64);
    for t in catalog.iter() {
        // A stored multiplicity is at most `i64::MAX`.
        let rows = t.iter().map(|(r, m)| (r, m as i64));
        put_relation(out, &mut buf, t.name(), t.schema(), t.distinct_len(), rows)?;
    }
    out.write_all(&buf)
}

/// Streams a change batch's image to `out`, deltas in the order given.
pub fn write_deltas_image<'a, I>(out: &mut impl io::Write, deltas: I) -> io::Result<()>
where
    I: IntoIterator<Item = (&'a str, &'a DeltaRelation), IntoIter: ExactSizeIterator>,
{
    let deltas = deltas.into_iter();
    let mut buf = DELTA_IMAGE_HEADER.to_vec();
    put_int(&mut buf, deltas.len() as i64);
    for (name, d) in deltas {
        put_relation(out, &mut buf, name, d.schema(), d.distinct_len(), d.iter())?;
    }
    out.write_all(&buf)
}

fn bad_image(what: &str) -> RelError {
    RelError::SchemaMismatch {
        detail: format!("malformed snapshot image: {what}"),
    }
}

/// A cursor over an image; every read is checked against the bytes left.
struct ImageReader<'a> {
    rest: &'a [u8],
}

impl<'a> ImageReader<'a> {
    fn open(bytes: &'a [u8], header: &[u8]) -> RelResult<Self> {
        let rest = bytes
            .strip_prefix(header)
            .ok_or_else(|| bad_image("bad header"))?;
        Ok(ImageReader { rest })
    }

    fn int(&mut self) -> RelResult<i64> {
        let mut u = 0u64;
        for shift in (0..64).step_by(7) {
            let (&b, rest) = self
                .rest
                .split_first()
                .ok_or_else(|| bad_image("truncated"))?;
            self.rest = rest;
            if shift == 63 && b > 1 {
                break;
            }
            u |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok((u >> 1) as i64 ^ -((u & 1) as i64));
            }
        }
        Err(bad_image("varint overflows 64 bits"))
    }

    /// A length or an item count: never more than the bytes left, since
    /// every item takes at least one byte.
    fn len(&mut self) -> RelResult<usize> {
        usize::try_from(self.int()?)
            .ok()
            .filter(|&n| n <= self.rest.len())
            .ok_or_else(|| bad_image("length beyond the end"))
    }

    fn str(&mut self) -> RelResult<&'a str> {
        let n = self.len()?;
        let (s, rest) = self.rest.split_at(n);
        self.rest = rest;
        std::str::from_utf8(s).map_err(|_| bad_image("string is not UTF-8"))
    }

    /// One row: its count, then one value per column, typed by `schema`.
    fn row(&mut self, schema: &Schema) -> RelResult<(Tuple, i64)> {
        let count = self.int()?;
        // The schema's spec was read from the image, which covered its length.
        let mut values = Vec::with_capacity(schema.len());
        for c in schema.columns() {
            values.push(match c.ty {
                ValueType::Int => Value::Int(self.int()?),
                ValueType::Decimal => Value::Decimal(self.int()?),
                ValueType::Date => Value::Date(
                    i32::try_from(self.int()?).map_err(|_| bad_image("date out of range"))?,
                ),
                ValueType::Str => Value::str(self.str()?),
            });
        }
        Ok((Tuple::new(values), count))
    }

    fn finish(self) -> RelResult<()> {
        match self.rest {
            [] => Ok(()),
            _ => Err(bad_image("trailing bytes")),
        }
    }
}

/// Decodes an image written by [`write_catalog_image`].
pub fn catalog_from_image(bytes: &[u8]) -> RelResult<Catalog> {
    let mut r = ImageReader::open(bytes, IMAGE_HEADER)?;
    let mut catalog = Catalog::new();
    for _ in 0..r.len()? {
        let name = r.str()?;
        let mut table = Table::new(name, schema_from_spec(r.str()?)?);
        for _ in 0..r.len()? {
            let (row, mult) = r.row(table.schema())?;
            let mult = u64::try_from(mult).map_err(|_| bad_image("negative multiplicity"))?;
            table.insert_n(row, mult)?;
        }
        catalog.register(table)?;
    }
    r.finish()?;
    Ok(catalog)
}

/// Decodes an image written by [`write_deltas_image`].
pub fn deltas_from_image(bytes: &[u8]) -> RelResult<BTreeMap<String, DeltaRelation>> {
    let mut r = ImageReader::open(bytes, DELTA_IMAGE_HEADER)?;
    let mut out = BTreeMap::new();
    for _ in 0..r.len()? {
        let name = r.str()?;
        let mut delta = DeltaRelation::new(schema_from_spec(r.str()?)?);
        for _ in 0..r.len()? {
            let (row, count) = r.row(delta.schema())?;
            delta.try_add(row, count)?;
        }
        if out.insert(name.to_string(), delta).is_some() {
            return Err(bad_image(&format!("duplicate delta for {name}")));
        }
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn sample_catalog() -> Catalog {
        let mut t = Table::new(
            "T",
            Schema::of(&[
                ("k", ValueType::Int),
                ("p", ValueType::Decimal),
                ("s", ValueType::Str),
                ("d", ValueType::Date),
            ]),
        );
        t.insert_n(
            tup![
                Value::Int(-5),
                Value::Decimal(1234),
                Value::str("tab\there\nand newline \\ backslash"),
                Value::Date(9181)
            ],
            3,
        )
        .unwrap();
        t.insert(tup![
            Value::Int(1),
            Value::Decimal(0),
            Value::str(""),
            Value::Date(0)
        ])
        .unwrap();
        let mut u = Table::new("U", Schema::of(&[("a", ValueType::Int)]));
        u.insert(tup![Value::Int(42)]).unwrap();
        let mut c = Catalog::new();
        c.register(t).unwrap();
        c.register(u).unwrap();
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let c = sample_catalog();
        let text = catalog_to_string(&c);
        let back = catalog_from_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        for t in c.iter() {
            assert!(back.get(t.name()).unwrap().same_contents(t), "{}", t.name());
        }
        // Deterministic output.
        assert_eq!(text, catalog_to_string(&back));
    }

    #[test]
    fn empty_catalog_round_trips() {
        let c = Catalog::new();
        let text = catalog_to_string(&c);
        let back = catalog_from_str(&text).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn malformed_snapshots_rejected() {
        assert!(catalog_from_str("").is_err());
        assert!(catalog_from_str("# wrong header\n").is_err());
        let missing_end = format!("{HEADER}\nTABLE T\nSCHEMA k:int\nROW 1\ti:1\n");
        assert!(catalog_from_str(&missing_end).is_err());
        let bad_value = format!("{HEADER}\nTABLE T\nSCHEMA k:int\nROW 1\tz:1\nEND\n");
        assert!(catalog_from_str(&bad_value).is_err());
        let bad_type = format!("{HEADER}\nTABLE T\nSCHEMA k:float\nEND\n");
        assert!(catalog_from_str(&bad_type).is_err());
        let bad_mult = format!("{HEADER}\nTABLE T\nSCHEMA k:int\nROW x\ti:1\nEND\n");
        assert!(catalog_from_str(&bad_mult).is_err());
        // A snapshot naming the same table twice is damage, not a merge.
        let dup = format!("{HEADER}\nTABLE T\nSCHEMA k:int\nEND\nTABLE T\nSCHEMA k:int\nEND\n");
        assert!(matches!(
            catalog_from_str(&dup),
            Err(RelError::DuplicateRelation(n)) if n == "T"
        ));
    }

    #[test]
    fn delta_round_trip_preserves_signs() {
        let mut d = DeltaRelation::new(Schema::of(&[("k", ValueType::Int), ("s", ValueType::Str)]));
        d.add(tup![Value::Int(1), Value::str("minus\trow")], -3);
        d.add(tup![Value::Int(2), Value::str("plus")], 2);
        let text = delta_to_string(&d);
        let back = delta_from_str(&text).unwrap();
        assert_eq!(
            back.multiplicity(&tup![Value::Int(1), Value::str("minus\trow")]),
            -3
        );
        assert_eq!(
            back.multiplicity(&tup![Value::Int(2), Value::str("plus")]),
            2
        );
        assert_eq!(text, delta_to_string(&back));
        assert_eq!(delta_digest(&d), delta_digest(&back));
    }

    #[test]
    fn delta_set_text_lists_each_delta_in_name_order() {
        let mut a = DeltaRelation::new(Schema::of(&[("k", ValueType::Int)]));
        a.add(tup![Value::Int(7)], -1);
        let b = DeltaRelation::new(Schema::of(&[("x", ValueType::Str)]));
        let mut m = BTreeMap::new();
        m.insert("B".to_string(), b);
        m.insert("A".to_string(), a);
        assert_eq!(
            deltas_to_string(&m),
            format!("{DELTA_HEADER}\nDELTA A\nSCHEMA k:int\nROW -1\ti:7\nEND\nDELTA B\nSCHEMA x:str\nEND\n")
        );
    }

    #[test]
    fn images_round_trip_and_refuse_damage_by_type() {
        let c = sample_catalog();
        let mut good = Vec::new();
        write_catalog_image(&mut good, &c).unwrap();
        let back = catalog_from_image(&good).unwrap();
        assert_eq!(catalog_to_string(&back), catalog_to_string(&c));
        let one_table = |spec: &str, mult: i64, value: &dyn Fn(&mut Vec<u8>)| {
            let mut b = IMAGE_HEADER.to_vec();
            put_int(&mut b, 1);
            put_str(&mut b, "T");
            put_str(&mut b, spec);
            put_int(&mut b, 1);
            put_int(&mut b, mult);
            value(&mut b);
            b
        };
        assert!(catalog_from_image(&one_table("k:int", 1, &|b| put_int(b, 5))).is_ok());
        let mut ten_bytes = IMAGE_HEADER.to_vec();
        ten_bytes.extend([0x80; 9].iter().chain(&[0x02]));
        let cases: [(Vec<u8>, &str); 11] = [
            (Vec::new(), "bad header"),
            (catalog_to_string(&c).into_bytes(), "bad header"),
            (IMAGE_HEADER.to_vec(), "truncated"),
            (good[..good.len() - 1].to_vec(), "truncated"),
            ([good.as_slice(), &[0]].concat(), "trailing bytes"),
            (ten_bytes, "overflows 64 bits"),
            ([IMAGE_HEADER, &[0x7e]].concat(), "length beyond the end"),
            (
                one_table("k:int", -1, &|b| put_int(b, 5)),
                "negative multiplicity",
            ),
            (
                one_table("k:date", 1, &|b| put_int(b, 1 << 31)),
                "date out of range",
            ),
            (one_table("k:str", 1, &|b| b.extend([2, 0xff])), "not UTF-8"),
            (one_table("k:float", 1, &|_| {}), "unknown snapshot type"),
        ];
        for (bytes, want) in cases {
            match catalog_from_image(&bytes) {
                Err(RelError::SchemaMismatch { detail }) => {
                    assert!(detail.contains(want), "{detail}")
                }
                other => panic!("{want}: {other:?}"),
            }
        }

        let mut twice = DELTA_IMAGE_HEADER.to_vec();
        put_int(&mut twice, 2);
        for _ in 0..2 {
            put_str(&mut twice, "A");
            put_str(&mut twice, "k:int");
            put_int(&mut twice, 0);
        }
        assert!(matches!(
            deltas_from_image(&twice),
            Err(RelError::SchemaMismatch { detail }) if detail.contains("duplicate delta for A")
        ));
        assert!(
            deltas_from_image(&good).is_err(),
            "a catalog is not a delta set"
        );
    }

    #[test]
    fn digests_are_content_fingerprints() {
        let c = sample_catalog();
        assert_eq!(catalog_digest(&c), catalog_digest(&c));
        let t = c.get("T").unwrap();
        let mut t2 = t.clone();
        assert_eq!(table_digest(t), table_digest(&t2));
        t2.insert(tup![
            Value::Int(99),
            Value::Decimal(1),
            Value::str("x"),
            Value::Date(1)
        ])
        .unwrap();
        assert_ne!(table_digest(t), table_digest(&t2));
        assert_ne!(digest64("a"), digest64("b"));
        assert_eq!(digest64(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn value_escapes_round_trip() {
        for v in [
            Value::str("plain"),
            Value::str("with\ttab"),
            Value::str("with\nnewline"),
            Value::str("with\\backslash"),
            Value::str("\\t literal"),
            Value::Int(i64::MIN),
            Value::Decimal(-1),
            Value::Date(i32::MIN),
            Value::Int(0),
        ] {
            let mut s = String::new();
            write_value(&v, &mut s);
            assert_eq!(parse_value(&s).unwrap(), v, "{s}");
        }
    }
}
