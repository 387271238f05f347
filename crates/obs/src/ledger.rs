//! The window-health flight-recorder ledger.
//!
//! One JSONL line per completed update window, written by the continuous
//! scheduler *after* the window's WAL commit — so the ledger is crash
//! consistent by construction: a window that crashed mid-execution has a
//! WAL directory (recovery finishes it from the journal) but **no** ledger
//! record, and the set difference between WAL windows and ledger windows
//! is exactly the crash points. Each record carries everything §4-style
//! metric validation needs to re-litigate a run after the fact: the full
//! work meter, per-expression predicted-vs-measured work, staleness, the
//! cut policy and service rate μ, carry/sharing counters, cache hit rate,
//! and the partition critical path.
//!
//! The schema is versioned ([`LEDGER_VERSION`]); [`validate_ledger`]
//! checks every line against the internal-consistency contract (monotone
//! windows, meter arithmetic, per-expression sums) so CI can gate on a
//! freshly produced ledger the same way it gates on traces.

use crate::json::{self, JsonValue};
use std::io::Write;
use std::path::Path;

/// Current ledger schema version; bump on any field change.
pub const LEDGER_VERSION: u64 = 3;

/// The full work meter of one window, flattened to plain counters (this
/// crate sits below `uww-relational`, so it mirrors `WorkMeter` field by
/// field rather than depending on it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerMeter {
    /// Operand rows scanned (logical reads).
    pub operand_rows_scanned: u64,
    /// Rows installed into views.
    pub rows_installed: u64,
    /// Intermediate rows emitted.
    pub rows_emitted: u64,
    /// Maintenance terms evaluated.
    pub terms_evaluated: u64,
    /// `Comp` expressions executed.
    pub comp_expressions: u64,
    /// `Inst` expressions executed.
    pub inst_expressions: u64,
    /// Rows the executor physically touched.
    pub physical_rows_touched: u64,
    /// Hash tables built from scratch.
    pub hash_tables_built: u64,
    /// Hash tables served from a cache (any scope).
    pub hash_tables_reused: u64,
    /// Hash tables served from an earlier expression's build.
    pub hash_tables_cross_reused: u64,
    /// Raw operand reads served from the strategy-scope cache.
    pub operand_reads_cached: u64,
}

impl LedgerMeter {
    /// The paper's linear work metric: scanned + installed.
    pub fn linear_work(&self) -> u64 {
        self.operand_rows_scanned + self.rows_installed
    }
}

/// One expression's slice of a window: predicted vs measured.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerExpr {
    /// Rendered update expression, e.g. `Comp(Q3; {LINEITEM})`.
    pub expr: String,
    /// `"comp"` or `"inst"`.
    pub kind: String,
    /// Target view name.
    pub view: String,
    /// Planner-predicted linear work for this expression.
    pub predicted: f64,
    /// Measured operand rows scanned.
    pub scanned: u64,
    /// Measured rows installed.
    pub installed: u64,
    /// Measured physical rows touched.
    pub physical: u64,
    /// Wall-clock microseconds spent in this expression.
    pub wall_us: u64,
}

/// One window's flight-recorder record (one JSONL line).
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRecord {
    /// Schema version ([`LEDGER_VERSION`]).
    pub version: u64,
    /// Window index (0-based, global across crash resume).
    pub window: u64,
    /// Tick the batch was cut at.
    pub cut: u64,
    /// Ticks the window accumulated for.
    pub window_ticks: u64,
    /// Tick the install completed at.
    pub done: u64,
    /// Events in the batch.
    pub events: u64,
    /// Mean event staleness in ticks.
    pub staleness: f64,
    /// Window-cut policy name (`fixed`/`greedy`).
    pub policy: String,
    /// Effective service rate μ (per-worker rate × partitions).
    pub service_rate: f64,
    /// Planner-predicted linear work for the window.
    pub predicted_work: f64,
    /// Measured linear work.
    pub measured_work: u64,
    /// Full measured work meter.
    pub meter: LedgerMeter,
    /// Per-expression predicted-vs-measured breakdown.
    pub per_expr: Vec<LedgerExpr>,
    /// Maintained key indexes the window started with.
    pub carry_in_tables: u64,
    /// Maintained extents the window started with.
    pub carry_in_raws: u64,
    /// Measured cross-expression hash-table reuses.
    pub cross_reuses: u64,
    /// Measured strategy-cache raw-read hits.
    pub cached_reads: u64,
    /// Measured probes of key indexes carried from a previous window.
    pub carried_table_hits: u64,
    /// Measured reads of extents carried from a previous window.
    pub carried_raw_hits: u64,
    /// Hash-table cache hit rate: reuses / (builds + reuses), 0 if none.
    pub cache_hit_rate: f64,
    /// Configured partition count.
    pub partitions: u64,
    /// Wall-clock microseconds for the window's execution.
    pub wall_us: u64,
    /// Partition critical path in microseconds (wall minus the time saved
    /// by fan-out parallelism); equals `wall_us` when untraced.
    pub critical_path_us: u64,
    /// This window's WAL directory, when journaling.
    pub wal_dir: Option<String>,
}

/// The largest counter a ledger line may carry: every integer up to 2^53
/// survives the round trip through a JSON number exactly.
const MAX_COUNTER: f64 = 9_007_199_254_740_992.0;

/// Reads `key` of `doc` as a counter: a non-negative integer of at most
/// 2^53. Anything else — missing, fractional, negative, huge — is an error
/// naming `what`.
fn counter(doc: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    match doc.get(key).and_then(JsonValue::as_f64) {
        Some(n) if n.fract() == 0.0 && (0.0..=MAX_COUNTER).contains(&n) => Ok(n as u64),
        Some(n) => Err(format!("{what} {key} is {n}, not an integer in [0, 2^53]")),
        None => Err(format!("{what} lacks numeric {key}")),
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "0".to_string()
    }
}

impl LedgerRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"v\":{},\"window\":{},\"cut\":{},\"window_ticks\":{},\"done\":{},\
             \"events\":{},\"staleness\":{},\"policy\":\"{}\",\"service_rate\":{},\
             \"predicted_work\":{},\"measured_work\":{}",
            self.version,
            self.window,
            self.cut,
            self.window_ticks,
            self.done,
            self.events,
            num(self.staleness),
            json::escape(&self.policy),
            num(self.service_rate),
            num(self.predicted_work),
            self.measured_work,
        ));
        let m = &self.meter;
        s.push_str(&format!(
            ",\"meter\":{{\"scanned\":{},\"installed\":{},\"emitted\":{},\"terms\":{},\
             \"comps\":{},\"insts\":{},\"physical\":{},\"hash_builds\":{},\
             \"hash_reuses\":{},\"cross_reuses\":{},\"cached_reads\":{}}}",
            m.operand_rows_scanned,
            m.rows_installed,
            m.rows_emitted,
            m.terms_evaluated,
            m.comp_expressions,
            m.inst_expressions,
            m.physical_rows_touched,
            m.hash_tables_built,
            m.hash_tables_reused,
            m.hash_tables_cross_reused,
            m.operand_reads_cached,
        ));
        s.push_str(",\"per_expr\":[");
        for (i, e) in self.per_expr.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"expr\":\"{}\",\"kind\":\"{}\",\"view\":\"{}\",\"predicted\":{},\
                 \"scanned\":{},\"installed\":{},\"physical\":{},\"wall_us\":{}}}",
                json::escape(&e.expr),
                json::escape(&e.kind),
                json::escape(&e.view),
                num(e.predicted),
                e.scanned,
                e.installed,
                e.physical,
                e.wall_us,
            ));
        }
        s.push(']');
        s.push_str(&format!(
            ",\"carry_in_tables\":{},\"carry_in_raws\":{},\"cross_reuses\":{},\
             \"cached_reads\":{},\"carried_table_hits\":{},\"carried_raw_hits\":{},\
             \"cache_hit_rate\":{},\"partitions\":{},\"wall_us\":{},\
             \"critical_path_us\":{}",
            self.carry_in_tables,
            self.carry_in_raws,
            self.cross_reuses,
            self.cached_reads,
            self.carried_table_hits,
            self.carried_raw_hits,
            num(self.cache_hit_rate),
            self.partitions,
            self.wall_us,
            self.critical_path_us,
        ));
        match &self.wal_dir {
            Some(d) => s.push_str(&format!(",\"wal_dir\":\"{}\"}}", json::escape(d))),
            None => s.push_str(",\"wal_dir\":null}"),
        }
        s
    }

    /// Parses one JSONL line back into a record.
    pub fn parse_line(line: &str) -> Result<LedgerRecord, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let u = |key: &str| counter(&doc, key, "ledger record");
        let f = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("ledger record lacks numeric {key}"))
        };
        let meter_doc = doc.get("meter").ok_or("ledger record lacks meter")?;
        let mu = |key: &str| counter(meter_doc, key, "ledger meter");
        let meter = LedgerMeter {
            operand_rows_scanned: mu("scanned")?,
            rows_installed: mu("installed")?,
            rows_emitted: mu("emitted")?,
            terms_evaluated: mu("terms")?,
            comp_expressions: mu("comps")?,
            inst_expressions: mu("insts")?,
            physical_rows_touched: mu("physical")?,
            hash_tables_built: mu("hash_builds")?,
            hash_tables_reused: mu("hash_reuses")?,
            hash_tables_cross_reused: mu("cross_reuses")?,
            operand_reads_cached: mu("cached_reads")?,
        };
        let mut per_expr = Vec::new();
        for (i, e) in doc
            .get("per_expr")
            .and_then(JsonValue::as_array)
            .ok_or("ledger record lacks per_expr array")?
            .iter()
            .enumerate()
        {
            let es = |key: &str| -> Result<String, String> {
                e.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("per_expr[{i}] lacks {key}"))
            };
            let eu = |key: &str| counter(e, key, &format!("per_expr[{i}]"));
            per_expr.push(LedgerExpr {
                expr: es("expr")?,
                kind: es("kind")?,
                view: es("view")?,
                predicted: e
                    .get("predicted")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("per_expr[{i}] lacks predicted"))?,
                scanned: eu("scanned")?,
                installed: eu("installed")?,
                physical: eu("physical")?,
                wall_us: eu("wall_us")?,
            });
        }
        Ok(LedgerRecord {
            version: u("v")?,
            window: u("window")?,
            cut: u("cut")?,
            window_ticks: u("window_ticks")?,
            done: u("done")?,
            events: u("events")?,
            staleness: f("staleness")?,
            policy: doc
                .get("policy")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or("ledger record lacks policy")?,
            service_rate: f("service_rate")?,
            predicted_work: f("predicted_work")?,
            measured_work: u("measured_work")?,
            meter,
            per_expr,
            carry_in_tables: u("carry_in_tables")?,
            carry_in_raws: u("carry_in_raws")?,
            cross_reuses: u("cross_reuses")?,
            cached_reads: u("cached_reads")?,
            carried_table_hits: u("carried_table_hits")?,
            carried_raw_hits: u("carried_raw_hits")?,
            cache_hit_rate: f("cache_hit_rate")?,
            partitions: u("partitions")?,
            wall_us: u("wall_us")?,
            critical_path_us: u("critical_path_us")?,
            wal_dir: match doc.get("wal_dir") {
                Some(JsonValue::Str(s)) => Some(s.clone()),
                _ => None,
            },
        })
    }
}

/// Appends one record to the ledger file (created if missing). When
/// `sync`, the file is fsynced after the write — pair with the WAL's
/// `FsyncPolicy::Always` so the ledger is as durable as the journal it
/// annotates.
pub fn append_record(path: &Path, rec: &LedgerRecord, sync: bool) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = rec.to_json_line();
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()?;
    if sync {
        file.sync_all()?;
    }
    Ok(())
}

/// Parses a full ledger document (one JSON object per line; blank lines
/// ignored) without consistency checks.
pub fn read_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec =
            LedgerRecord::parse_line(line).map_err(|e| format!("ledger line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Summary returned by [`validate_ledger`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerSummary {
    /// Records in the ledger.
    pub records: usize,
    /// First and last window index.
    pub windows: (u64, u64),
    /// Total events across all windows.
    pub events: u64,
    /// Total planner-predicted linear work.
    pub predicted_work: f64,
    /// Total measured linear work.
    pub measured_work: u64,
    /// Event-weighted mean staleness in ticks.
    pub mean_staleness: f64,
    /// Total wall-clock microseconds across windows.
    pub wall_us: u64,
}

/// Parses and consistency-checks a ledger: known schema version on every
/// line, strictly increasing window indices, monotone virtual time,
/// nonempty batches, finite staleness, meter arithmetic
/// (`linear_work == measured_work`), and per-expression sums matching the
/// window meter. A sum past `u64::MAX` is an error, not a wrap.
pub fn validate_ledger(text: &str) -> Result<LedgerSummary, String> {
    let records = read_ledger(text)?;
    if records.is_empty() {
        return Err("empty ledger".to_string());
    }
    let mut sum = LedgerSummary {
        records: records.len(),
        windows: (records[0].window, records[0].window),
        ..LedgerSummary::default()
    };
    let mut weighted_staleness = 0.0;
    let mut prev: Option<&LedgerRecord> = None;
    for r in &records {
        let ctx = |msg: &str| format!("window {}: {msg}", r.window);
        if r.version != LEDGER_VERSION {
            return Err(ctx(&format!(
                "unsupported schema version {} (expected {LEDGER_VERSION})",
                r.version
            )));
        }
        if let Some(p) = prev {
            if r.window <= p.window {
                return Err(ctx("window indices must be strictly increasing"));
            }
            if r.cut < p.done {
                return Err(ctx(
                    "cut tick regressed before the previous window's install",
                ));
            }
        }
        if r.events == 0 {
            return Err(ctx("zero-event windows are never recorded"));
        }
        if r.window_ticks == 0 {
            return Err(ctx("window_ticks must be positive"));
        }
        if r.done < r.cut {
            return Err(ctx("done tick precedes cut tick"));
        }
        if !r.staleness.is_finite() || r.staleness < 0.0 {
            return Err(ctx("staleness must be finite and nonnegative"));
        }
        if r.meter.linear_work() != r.measured_work {
            return Err(ctx(&format!(
                "meter linear work {} disagrees with measured_work {}",
                r.meter.linear_work(),
                r.measured_work
            )));
        }
        let total = |field: fn(&LedgerExpr) -> u64| {
            r.per_expr
                .iter()
                .try_fold(0u64, |acc, e| acc.checked_add(field(e)))
                .ok_or_else(|| ctx("per-expression meters overflow"))
        };
        if total(|e| e.scanned)? != r.meter.operand_rows_scanned
            || total(|e| e.installed)? != r.meter.rows_installed
        {
            return Err(ctx("per-expression meters do not sum to the window meter"));
        }
        if !(0.0..=1.0).contains(&r.cache_hit_rate) {
            return Err(ctx("cache_hit_rate outside [0, 1]"));
        }
        if r.meter.hash_tables_cross_reused > r.meter.hash_tables_reused {
            return Err(ctx("cross-reuses exceed total reuses"));
        }
        let add = |acc: u64, x: u64, what: &str| {
            acc.checked_add(x)
                .ok_or_else(|| ctx(&format!("total {what} overflows")))
        };
        sum.windows.1 = r.window;
        sum.events = add(sum.events, r.events, "events")?;
        sum.predicted_work += r.predicted_work;
        sum.measured_work = add(sum.measured_work, r.measured_work, "measured_work")?;
        sum.wall_us = add(sum.wall_us, r.wall_us, "wall_us")?;
        weighted_staleness += r.staleness * r.events as f64;
        prev = Some(r);
    }
    sum.mean_staleness = weighted_staleness / sum.events.max(1) as f64;
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(window: u64) -> LedgerRecord {
        LedgerRecord {
            version: LEDGER_VERSION,
            window,
            cut: 10 * window,
            window_ticks: 10,
            done: 10 * window + 4,
            events: 20,
            staleness: 7.5,
            policy: "greedy".to_string(),
            service_rate: 400.0,
            predicted_work: 250.0,
            measured_work: 240,
            meter: LedgerMeter {
                operand_rows_scanned: 200,
                rows_installed: 40,
                rows_emitted: 60,
                terms_evaluated: 6,
                comp_expressions: 2,
                inst_expressions: 3,
                physical_rows_touched: 500,
                hash_tables_built: 4,
                hash_tables_reused: 2,
                hash_tables_cross_reused: 1,
                operand_reads_cached: 3,
            },
            per_expr: vec![
                LedgerExpr {
                    expr: "Comp(Q3; {LINEITEM})".to_string(),
                    kind: "comp".to_string(),
                    view: "Q3".to_string(),
                    predicted: 200.0,
                    scanned: 180,
                    installed: 10,
                    physical: 400,
                    wall_us: 90,
                },
                LedgerExpr {
                    expr: "Inst(Q3)".to_string(),
                    kind: "inst".to_string(),
                    view: "Q3".to_string(),
                    predicted: 50.0,
                    scanned: 20,
                    installed: 30,
                    physical: 100,
                    wall_us: 40,
                },
            ],
            carry_in_tables: 1,
            carry_in_raws: 2,
            cross_reuses: 1,
            cached_reads: 3,
            carried_table_hits: 1,
            carried_raw_hits: 2,
            cache_hit_rate: 2.0 / 6.0,
            partitions: 1,
            wall_us: 130,
            critical_path_us: 130,
            wal_dir: Some(format!("/tmp/wal/window_{window:04}")),
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let rec = sample(3);
        let line = rec.to_json_line();
        let back = LedgerRecord::parse_line(&line).unwrap();
        assert_eq!(back, rec);
        let mut no_wal = sample(4);
        no_wal.wal_dir = None;
        assert_eq!(
            LedgerRecord::parse_line(&no_wal.to_json_line()).unwrap(),
            no_wal
        );
    }

    #[test]
    fn validate_accepts_consistent_ledgers_and_sums_them() {
        let text = format!(
            "{}\n{}\n",
            sample(0).to_json_line(),
            sample(1).to_json_line()
        );
        let sum = validate_ledger(&text).unwrap();
        assert_eq!(sum.records, 2);
        assert_eq!(sum.windows, (0, 1));
        assert_eq!(sum.events, 40);
        assert_eq!(sum.measured_work, 480);
        assert!((sum.mean_staleness - 7.5).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_inconsistencies() {
        // Wrong version: the previous schema's like any unknown one.
        for version in [LEDGER_VERSION - 1, 99] {
            let mut r = sample(0);
            r.version = version;
            assert!(validate_ledger(&r.to_json_line()).is_err());
        }
        // Meter arithmetic broken.
        let mut r = sample(0);
        r.measured_work += 1;
        assert!(validate_ledger(&r.to_json_line()).is_err());
        // Per-expression sums broken.
        let mut r = sample(0);
        r.per_expr[0].scanned += 5;
        assert!(validate_ledger(&r.to_json_line()).is_err());
        // Non-monotone windows.
        let text = format!(
            "{}\n{}\n",
            sample(2).to_json_line(),
            sample(1).to_json_line()
        );
        assert!(validate_ledger(&text).is_err());
        // Empty input.
        assert!(validate_ledger("").is_err());
    }

    /// A line as the previous schema wrote it (four controller fields
    /// more) still parses — unknown keys are ignored — and is then refused
    /// by version, not half-read.
    #[test]
    fn a_v2_ledger_is_rejected_by_version() {
        let v2 = r#"{"v":2,"window":0,"cut":1,"window_ticks":1,"done":21,"events":2,"staleness":20,"policy":"greedy","arrival_rate":2,"cost_per_event":1916.5,"service_rate":200,"next_window":1,"calibration":1,"predicted_work":3833.1,"measured_work":3833,"meter":{"scanned":3831,"installed":2,"emitted":0,"terms":1,"comps":1,"insts":1,"physical":3831,"hash_builds":2,"hash_reuses":0,"cross_reuses":0,"cached_reads":0},"per_expr":[{"expr":"Comp(Q3, {CUSTOMER})","kind":"comp","view":"Q3","predicted":3831,"scanned":3831,"installed":0,"physical":3831,"wall_us":819},{"expr":"Inst(CUSTOMER)","kind":"inst","view":"CUSTOMER","predicted":2,"scanned":0,"installed":2,"physical":0,"wall_us":2}],"carry_in_tables":0,"carry_in_raws":0,"cross_reuses":0,"cached_reads":0,"carried_table_hits":0,"carried_raw_hits":0,"cache_hit_rate":0,"partitions":1,"wall_us":892,"critical_path_us":892,"wal_dir":null}"#;
        let err = validate_ledger(v2).unwrap_err();
        assert!(err.contains("unsupported schema version 2"), "{err}");
        // The same record stamped with the current version validates, so the
        // version is the only thing wrong with it.
        let stamped = v2.replacen("\"v\":2", &format!("\"v\":{LEDGER_VERSION}"), 1);
        validate_ledger(&stamped).unwrap();
    }

    /// Each counter a hand-edited line breaks is refused by name, not
    /// truncated into a plausible record.
    #[test]
    fn counters_that_are_not_u64_are_refused_by_key() {
        let line = sample(0).to_json_line();
        for (from, to, key) in [
            ("\"window\":0", "\"window\":-1", "window"),
            ("\"events\":20", "\"events\":2.5", "events"),
            ("\"wall_us\":130,", "\"wall_us\":1e300,", "wall_us"),
        ] {
            assert!(line.contains(from), "{from}");
            let err = validate_ledger(&line.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(&format!("ledger record {key} is ")), "{err}");
        }
        let err = LedgerRecord::parse_line(&line.replacen("\"scanned\":200", "\"scanned\":-3", 1))
            .unwrap_err();
        assert!(err.contains("ledger meter scanned is -3"), "{err}");
    }

    /// Totals past `u64::MAX` are an error: 2048 windows of 2^53 µs each.
    #[test]
    fn summed_counters_that_overflow_are_an_error() {
        let text: String = (0..2048)
            .map(|w| {
                let mut r = sample(w);
                r.wall_us = 1 << 53;
                r.to_json_line() + "\n"
            })
            .collect();
        let err = validate_ledger(&text).unwrap_err();
        assert!(
            err.contains("window 2047: total wall_us overflows"),
            "{err}"
        );
    }

    #[test]
    fn append_builds_a_valid_jsonl_file() {
        let dir = std::env::temp_dir().join(format!("uww_ledger_test_{}", std::process::id()));
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        append_record(&path, &sample(0), false).unwrap();
        append_record(&path, &sample(1), true).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let sum = validate_ledger(&text).unwrap();
        assert_eq!(sum.records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
