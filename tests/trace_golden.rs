//! Golden tests for the exporters: a freshly recorded trace must parse as
//! JSON and satisfy the Chrome trace-event shape contract (well-formed
//! `ph`/`ts`/`dur`, expression spans covered by the run span and carrying
//! measured work), and a live server's `METRICS`
//! response must round-trip through the minimal Prometheus text parser.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use uww::core::Warehouse;
use uww::obs::{self, keys, TraceBuffer};
use uww::relational::{
    tup, Catalog, DeltaRelation, EquiJoin, OutputColumn, Schema, Table, Tuple, Value, ValueType,
    VersionedCatalog, ViewDef, ViewOutput, ViewSource,
};
use uww::serve::{Client, Isolation, Server, ServerConfig};
use uww::vdag::{Strategy, UpdateExpr};

/// The subscriber is process-global; tests that install one serialize here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const COLS: &[(&str, ValueType)] = &[("k", ValueType::Int), ("v", ValueType::Int)];

/// A tiny two-base warehouse with one join view and a change batch on both
/// bases, so the dual-stage strategy has a three-term `Comp`.
fn tiny_warehouse() -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let schema = Schema::of(COLS);
    let mut builder = Warehouse::builder();
    for b in 0..2 {
        let name = format!("B{b}");
        let mut t = Table::new(&name, schema.clone());
        for k in 0..12i64 {
            t.insert(Tuple::new(vec![Value::Int(k), Value::Int(k * 7 % 13)]))
                .unwrap();
        }
        builder = builder.base_table(t);
    }
    let w = builder
        .view(ViewDef {
            name: "J".into(),
            sources: vec![
                ViewSource {
                    view: "B0".into(),
                    alias: "A".into(),
                },
                ViewSource {
                    view: "B1".into(),
                    alias: "B".into(),
                },
            ],
            joins: vec![EquiJoin::new("A.k", "B.k")],
            filters: vec![],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "A.k"),
                OutputColumn::col("v", "B.v"),
            ]),
        })
        .build()
        .unwrap();
    let mut changes = BTreeMap::new();
    for b in 0..2 {
        let mut delta = DeltaRelation::new(schema.clone());
        delta.add(Tuple::new(vec![Value::Int(b), Value::Int(b * 7 % 13)]), -1);
        for i in 0..4i64 {
            delta.add(Tuple::new(vec![Value::Int(100 + i), Value::Int(i)]), 1);
        }
        changes.insert(format!("B{b}"), delta);
    }
    (w, changes)
}

fn dual_stage(w: &Warehouse) -> Strategy {
    let g = w.vdag();
    let mut exprs: Vec<UpdateExpr> = Vec::new();
    for v in g.view_ids() {
        if !g.is_base(v) {
            exprs.push(UpdateExpr::comp(v, g.sources(v).iter().copied()));
        }
    }
    for v in g.view_ids() {
        exprs.push(UpdateExpr::inst(v));
    }
    Strategy::from_exprs(exprs)
}

#[test]
fn chrome_trace_is_well_formed_and_attributes_work() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (w, changes) = tiny_warehouse();
    let strategy = dual_stage(&w);

    let mut clone = w.clone();
    clone.load_changes(changes).unwrap();
    let buf = Arc::new(TraceBuffer::new(1 << 16));
    obs::install(Arc::clone(&buf));
    let result = clone.execute(&strategy);
    obs::uninstall();
    let report = result.unwrap();

    let records = buf.take_records();
    let trace = obs::chrome::chrome_trace(&records);

    // The validator's contract: parses, traceEvents present, X events
    // well-formed.
    let stats = obs::chrome::validate_chrome_trace(&trace).unwrap();
    assert_eq!(stats.complete_events, records.len());
    assert!(stats.lanes >= 1);

    // Independent structural pass with the raw JSON parser.
    let doc = obs::json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let mut run_span: Option<(f64, f64)> = None;
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert_eq!(ph.chars().count(), 1, "ph must be one char, got {ph:?}");
        if ph != "X" {
            continue;
        }
        let ts = ev.get("ts").unwrap().as_f64().unwrap();
        let dur = ev.get("dur").unwrap().as_f64().unwrap();
        assert!(ts >= 0.0 && dur >= 0.0);
        assert!(!ev.get("name").unwrap().as_str().unwrap().is_empty());
        if ev.get("cat").unwrap().as_str() == Some("run") {
            assert!(run_span.is_none(), "expected a single run span");
            run_span = Some((ts, ts + dur));
        }
    }
    let (run_start, run_end) = run_span.expect("trace must contain the run span");

    // Expression spans cover the run, and every one carries measured work.
    let mut comps = 0usize;
    let mut exprs = 0usize;
    for ev in events {
        if ev.get("cat").and_then(|c| c.as_str()) != Some("expression") {
            continue;
        }
        exprs += 1;
        let ts = ev.get("ts").unwrap().as_f64().unwrap();
        let end = ts + ev.get("dur").unwrap().as_f64().unwrap();
        assert!(
            ts >= run_start && end <= run_end,
            "expression span escapes the run window"
        );
        let args = ev.get("args").unwrap();
        assert!(args.get(keys::MEASURED_WORK).unwrap().as_f64().is_some());
        if args.get(keys::EXPR_KIND).unwrap().as_str() == Some("comp") {
            comps += 1;
        }
    }
    assert_eq!(exprs, strategy.len());
    assert!(
        comps >= 1,
        "strategy must contribute at least one Comp span"
    );

    // Satellite check: the report's JSON schema carries per-expression and
    // total elapsed_us.
    let json_report = report.to_json(w.vdag());
    let parsed = obs::json::parse(&json_report).unwrap();
    let per_expr = parsed.get("per_expr").unwrap().as_array().unwrap();
    assert_eq!(per_expr.len(), strategy.len());
    for e in per_expr {
        assert!(e.get("elapsed_us").unwrap().as_f64().is_some());
    }
    assert!(
        parsed.get("elapsed_us").unwrap().as_f64().is_some(),
        "report must carry total elapsed_us"
    );
    assert!(parsed.get("total").unwrap().as_object().is_some());
}

#[test]
fn metrics_scrape_round_trips_through_the_text_parser() {
    let mut t = Table::new("V", Schema::of(&[("k", ValueType::Int)]));
    for i in 0..5 {
        t.insert(tup![Value::Int(i)]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(t).unwrap();
    let versioned = Arc::new(VersionedCatalog::from_catalog(&cat));
    let server = Server::start(
        Arc::clone(&versioned),
        ServerConfig {
            isolation: Isolation::Mvcc,
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.query("V").unwrap().rows, 5);
    assert!(c.raw("QUERY missing").unwrap().starts_with("ERR "));
    let body = c.metrics().unwrap();
    c.quit().unwrap();
    server.shutdown();

    let scrape = obs::prom::parse_text(&body).unwrap();
    assert!(scrape.saw_eof, "scrape must end with # EOF");
    assert_eq!(scrape.value("uww_serve_queries_total", &[]), Some(1.0));
    assert_eq!(scrape.value("uww_serve_errors_total", &[]), Some(1.0));
    assert_eq!(
        scrape.value("uww_serve_requests_total", &[("verb", "query")]),
        Some(2.0)
    );
    assert_eq!(
        scrape.value("uww_serve_requests_total", &[("verb", "metrics")]),
        Some(1.0)
    );
    assert_eq!(
        scrape.value("uww_serve_query_latency_bucket", &[("le", "+Inf")]),
        Some(1.0)
    );
    assert_eq!(
        scrape.value("uww_serve_query_latency_count", &[]),
        Some(1.0)
    );
    assert!(scrape
        .types
        .iter()
        .any(|(n, k)| n == "uww_serve_query_latency" && k == "histogram"));
    // Every TYPE line names a family that actually has samples.
    for (name, _) in &scrape.types {
        assert!(
            scrape
                .samples
                .iter()
                .any(|s| s.name.starts_with(name.as_str())),
            "TYPE {name} has no samples"
        );
    }
}
