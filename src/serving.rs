//! Live serving harness: run an update strategy while a query server is
//! answering readers, and measure what the readers experienced.
//!
//! This is the measured counterpart of `uww::core::olap::simulate` — the
//! same question ("what does the update window cost concurrent OLAP
//! readers?") answered with real threads, a real TCP server, and real
//! installs instead of a discrete-time model. The CLI (`uww serve`), the
//! `e2e` benchmark's `Live` operation, and the concurrency tests all drive
//! this one harness.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uww_core::{CoreError, CoreResult, ExecOptions, ExecutionReport, InstallPublisher, Warehouse};
use uww_relational::{Table, Tuple, Value, VersionedCatalog};
use uww_sched::{
    ChainSource, DeltaEvent, IngestOutcome, IngestQueue, IngestScheduler, SchedConfig,
    SeededSource, SeededSourceConfig, WindowReport,
};
use uww_serve::{
    Client, IngestSink, Isolation, MetricsSnapshot, Server, ServerConfig, WindowObservation,
};
use uww_vdag::Strategy;

/// Configuration for one live serving run.
#[derive(Clone, Debug)]
pub struct LiveRunConfig {
    /// Isolation regime for both the window and the readers.
    pub isolation: Isolation,
    /// Number of concurrent reader connections (each on its own thread).
    pub readers: usize,
    /// Artificial pause before the window's publish (see
    /// [`InstallPublisher::with_hold`]): keeps the install phase —
    /// microseconds of real work at test scales — open long enough that the
    /// strict-vs-mvcc latency difference is measurable and deterministic.
    pub hold: Duration,
    /// Server worker threads.
    pub workers: usize,
    /// Latency histogram bucket bounds (µs) for the `METRICS` scrape;
    /// `None` uses the serve crate's defaults.
    pub latency_buckets: Option<Vec<u64>>,
}

impl Default for LiveRunConfig {
    fn default() -> Self {
        LiveRunConfig {
            isolation: Isolation::Mvcc,
            readers: 4,
            hold: Duration::from_millis(2),
            workers: 4,
            latency_buckets: None,
        }
    }
}

/// What one live serving run measured.
#[derive(Clone, Debug)]
pub struct LiveRunOutcome {
    /// Server-side metrics over the whole run (p50/p95/p99 latency,
    /// lock waits, rows, errors).
    pub metrics: MetricsSnapshot,
    /// The update strategy's own execution report.
    pub report: ExecutionReport,
    /// Wall-clock duration of the update window (strategy execution only).
    pub window: Duration,
    /// Catalog epoch after the run — the number of committed windows
    /// published: one.
    pub epochs: u64,
    /// Queries answered per reader thread.
    pub queries_per_reader: Vec<u64>,
    /// The server's final `METRICS` scrape (Prometheus text format,
    /// terminated by `# EOF`), taken after the window closed but before
    /// shutdown.
    pub prometheus: String,
}

/// Executes `strategy` against a clone of `warehouse` while `cfg.readers`
/// reader threads hammer a live query server with `QUERY` round-robin over
/// the derived views (all views when none are derived). Readers start
/// before the window opens and keep reading briefly after it closes, so the
/// latency distribution covers before/during/after.
///
/// The final state is verified against a from-scratch recomputation, and
/// every reader response is checked for client-visible errors; either
/// failing is an error, not a metric.
pub fn run_live(
    warehouse: &Warehouse,
    strategy: &Strategy,
    cfg: &LiveRunConfig,
) -> CoreResult<LiveRunOutcome> {
    let mut w = warehouse.clone();
    let expected = w.expected_final_state()?;
    let config = ServerConfig {
        isolation: cfg.isolation,
        workers: cfg.workers.max(cfg.readers).max(1),
        latency_buckets: cfg.latency_buckets.clone(),
        ..ServerConfig::default()
    };
    let (versioned, server) = start_serving(&mut w, cfg.hold, config)?;
    let addr = server.local_addr();
    let readers = Readers::start(&w, addr, cfg.readers.max(1));

    // Let the readers observe the pre-update state, then open the window.
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    let exec_result = w.execute_with(strategy, ExecOptions::default());
    let window = t0.elapsed();
    // And let them observe the post-update state before stopping.
    std::thread::sleep(Duration::from_millis(20));

    let (queries_per_reader, reader_errors) = readers.finish();
    let prometheus = final_scrape(addr)?;
    let metrics = server.shutdown();
    let report = exec_result?;
    if !reader_errors.is_empty() {
        return Err(CoreError::Warehouse(format!(
            "reader failures during live serving: {reader_errors:?}"
        )));
    }

    let diffs = w.diff_state(&expected);
    if !diffs.is_empty() {
        return Err(CoreError::Warehouse(format!(
            "live run produced wrong state for views {diffs:?}"
        )));
    }
    check_published(&versioned, &w)?;

    Ok(LiveRunOutcome {
        metrics,
        report,
        window,
        epochs: versioned.epoch(),
        queries_per_reader,
        prometheus,
    })
}

/// Publishes `w`'s windows to a fresh versioned copy of its state, under
/// `config`'s isolation with `hold` before each publish, and starts a query
/// server on that copy.
fn start_serving(
    w: &mut Warehouse,
    hold: Duration,
    config: ServerConfig,
) -> CoreResult<(Arc<VersionedCatalog>, Server)> {
    let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
    let strict = config.isolation == Isolation::Strict;
    w.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), strict).with_hold(hold));
    let server = Server::start(Arc::clone(&versioned), config)
        .map_err(|e| CoreError::Warehouse(format!("cannot start query server: {e}")))?;
    Ok((versioned, server))
}

/// Closed-loop reader threads, one connection each, issuing `QUERY`
/// round-robin over the summary tables (what warehouse users query; bare
/// VDAGs fall back to every view) until told to stop.
struct Readers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Result<u64, String>>>,
}

impl Readers {
    fn start(w: &Warehouse, addr: SocketAddr, n: usize) -> Readers {
        let g = w.vdag();
        let mut targets: Vec<String> = g
            .derived_views()
            .into_iter()
            .map(|v| g.name(v).to_string())
            .collect();
        if targets.is_empty() {
            targets = g.view_ids().map(|v| g.name(v).to_string()).collect();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let targets = targets.clone();
                std::thread::spawn(move || -> Result<u64, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut n: u64 = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let view = &targets[(i + n as usize) % targets.len()];
                        let reply = client.query(view).map_err(|e| e.to_string())?;
                        if reply.view != *view {
                            return Err(format!("asked for {view}, got {}", reply.view));
                        }
                        n += 1;
                    }
                    client.quit().map_err(|e| e.to_string())?;
                    Ok(n)
                })
            })
            .collect();
        Readers { stop, threads }
    }

    /// Stops and joins every reader: queries answered per reader, and every
    /// reader's failure.
    fn finish(self) -> (Vec<u64>, Vec<String>) {
        self.stop.store(true, Ordering::Relaxed);
        let mut queries_per_reader = Vec::with_capacity(self.threads.len());
        let mut reader_errors = Vec::new();
        for r in self.threads {
            match r.join() {
                Ok(Ok(n)) => queries_per_reader.push(n),
                Ok(Err(e)) => reader_errors.push(e),
                Err(_) => reader_errors.push("reader thread panicked".to_string()),
            }
        }
        (queries_per_reader, reader_errors)
    }
}

/// The final Prometheus scrape, over the server's own protocol so the
/// scrape path itself is exercised.
fn final_scrape(addr: SocketAddr) -> CoreResult<String> {
    Client::connect(addr)
        .and_then(|mut c| {
            let body = c.metrics()?;
            c.quit()?;
            Ok(body)
        })
        .map_err(|e| CoreError::Warehouse(format!("final METRICS scrape failed: {e}")))
}

/// Published state must equal the engine's final state, view for view.
fn check_published(versioned: &VersionedCatalog, w: &Warehouse) -> CoreResult<()> {
    let snap = versioned.snapshot();
    let published = |t: &&Table| snap.get(t.name()).is_ok_and(|p| p.same_contents(t));
    match w.state().iter().find(|t| !published(t)) {
        Some(t) => Err(CoreError::Warehouse(format!(
            "published extent of {} diverges from the engine's",
            t.name()
        ))),
        None => Ok(()),
    }
}

/// The serve-side [`IngestSink`] over a scheduler's [`IngestQueue`]:
/// validates rows against the warehouse's base-view schemas before they
/// enter the queue, so a malformed `INGEST` fails at the wire with a clear
/// `ERR` instead of poisoning a later window cut.
pub struct QueueSink {
    queue: IngestQueue,
    arities: BTreeMap<String, usize>,
}

impl QueueSink {
    /// Captures the base-view arities of `w` and wraps `queue`.
    pub fn new(w: &Warehouse, queue: IngestQueue) -> QueueSink {
        let g = w.vdag();
        let mut arities = BTreeMap::new();
        for id in g.base_views() {
            let name = g.name(id).to_string();
            if let Ok(t) = w.table(&name) {
                arities.insert(name, t.schema().columns().len());
            }
        }
        QueueSink { queue, arities }
    }
}

impl IngestSink for QueueSink {
    fn ingest(&self, view: &str, count: i64, values: Vec<Value>) -> Result<(), String> {
        match self.arities.get(view) {
            None => Err(format!("unknown base view {view}")),
            Some(n) if *n != values.len() => Err(format!(
                "row arity {} does not match {view} ({n} columns)",
                values.len()
            )),
            Some(_) => {
                // `at = 0`: the wire has no virtual clock; the queue source
                // stamps the event with the tick of the drain that picks
                // it up. A full queue propagates as a wire ERR — the
                // client sees backpressure instead of silent queue growth.
                self.queue.push(DeltaEvent {
                    at: 0,
                    view: view.to_string(),
                    row: Tuple::new(values),
                    count,
                })
            }
        }
    }
}

/// Maps one completed window to the serve scrape's observation struct.
/// `queue_depth` is the live wire-queue depth at publish time — events that
/// arrived during processing and will join the next cut.
fn observation_of(wr: &WindowReport, queue: &IngestQueue, sla_target: f64) -> WindowObservation {
    WindowObservation {
        window_ticks: wr.window_ticks,
        events: wr.events,
        staleness: wr.staleness,
        queue_depth: queue.depth() as u64,
        predicted_work: wr.predicted_work,
        measured_work: wr.measured_work,
        hash_tables_cross_reused: wr.conformance.measured_cross_reuses,
        operand_reads_cached: wr.conformance.measured_cached_reads,
        carried_table_hits: wr.conformance.measured_carried_table_hits,
        carried_raw_hits: wr.conformance.measured_carried_raw_hits,
        sla_target,
        service_rate: wr.service_rate,
    }
}

/// Configuration for one continuous ingest-while-serving run.
#[derive(Clone, Debug)]
pub struct ContinuousRunConfig {
    /// Isolation regime for installs and readers.
    pub isolation: Isolation,
    /// Concurrent reader connections; `0` runs without readers.
    pub readers: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Scheduler configuration (policy, SLA, WAL, carry-over).
    pub sched: SchedConfig,
    /// Seeded background workload joining the wire-fed queue.
    pub source: SeededSourceConfig,
    /// Latency histogram bucket bounds (µs) for the `METRICS` scrape;
    /// `None` uses the serve crate's defaults.
    pub latency_buckets: Option<Vec<u64>>,
}

impl Default for ContinuousRunConfig {
    fn default() -> Self {
        ContinuousRunConfig {
            isolation: Isolation::Mvcc,
            readers: 2,
            workers: 4,
            sched: SchedConfig::default(),
            source: SeededSourceConfig::default(),
            latency_buckets: None,
        }
    }
}

/// What one continuous run produced.
#[derive(Debug)]
pub struct ContinuousRunOutcome {
    /// Per-window reports from the scheduler.
    pub ingest: IngestOutcome,
    /// Server-side metrics over the whole run.
    pub metrics: MetricsSnapshot,
    /// The final `METRICS` scrape, including the `uww_maint_*` block.
    pub prometheus: String,
    /// Catalog epoch after the run — one per committed window.
    pub epochs: u64,
    /// Queries answered per reader thread.
    pub queries_per_reader: Vec<u64>,
}

/// Runs the continuous ingest scheduler against a clone of `warehouse`
/// while a live query server answers readers and accepts `INGEST` rows.
///
/// The workload blends the seeded background timeline with `wire_rows`,
/// which are pushed through a real client connection (exercising the
/// `INGEST` verb end-to-end) *before* the schedule starts, so they
/// deterministically join the first window. Every window publishes through
/// [`InstallPublisher`] as one catalog version, so readers never block under
/// MVCC; after each window the server's maintenance gauges are updated, so
/// the final
/// `METRICS` scrape carries window size, staleness, queue depth, and the
/// measured sharing counters.
pub fn run_continuous(
    warehouse: &Warehouse,
    cfg: &ContinuousRunConfig,
    wire_rows: &[(String, i64, Vec<Value>)],
) -> CoreResult<ContinuousRunOutcome> {
    let mut w = warehouse.clone();
    let queue = IngestQueue::new();
    let sink = Arc::new(QueueSink::new(&w, queue.clone()));
    let config = ServerConfig {
        isolation: cfg.isolation,
        workers: cfg.workers.max(cfg.readers).max(1),
        ingest: Some(sink as Arc<dyn IngestSink>),
        latency_buckets: cfg.latency_buckets.clone(),
        ..ServerConfig::default()
    };
    let (versioned, server) = start_serving(&mut w, Duration::ZERO, config)?;
    let addr = server.local_addr();

    // Feed the wire rows through a real connection before the schedule
    // opens: they sit in the queue and join the first cut.
    if !wire_rows.is_empty() {
        let mut c = Client::connect(addr)
            .map_err(|e| CoreError::Warehouse(format!("ingest client connect failed: {e}")))?;
        for (view, count, row) in wire_rows {
            c.ingest(view, *count, row)
                .map_err(|e| CoreError::Warehouse(format!("INGEST {view} failed: {e}")))?;
        }
        c.quit()
            .map_err(|e| CoreError::Warehouse(format!("ingest client quit failed: {e}")))?;
    }

    let readers = Readers::start(&w, addr, cfg.readers);

    let source = ChainSource(SeededSource::new(&w, cfg.source), queue.source());
    let mut sched = IngestScheduler::new(cfg.sched.clone(), source);
    let sla_target = cfg.sched.sla.target_staleness;
    let run_result = sched.run_with_observer(&mut w, &mut |wr| {
        server.observe_window(&observation_of(wr, &queue, sla_target));
    });

    let (queries_per_reader, reader_errors) = readers.finish();
    let prometheus = final_scrape(addr)?;
    let metrics = server.shutdown();
    let ingest = run_result?;
    if !reader_errors.is_empty() {
        return Err(CoreError::Warehouse(format!(
            "reader failures during continuous serving: {reader_errors:?}"
        )));
    }
    check_published(&versioned, &w)?;

    Ok(ContinuousRunOutcome {
        ingest,
        metrics,
        prometheus,
        epochs: versioned.epoch(),
        queries_per_reader,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::q3_scenario;

    #[test]
    fn live_run_serves_while_updating() {
        let mut sc = q3_scenario(0.0003).unwrap();
        sc.load_col_changes(0.1).unwrap();
        let strategy = sc.dual_stage_strategy();
        let cfg = LiveRunConfig {
            readers: 2,
            hold: Duration::from_millis(1),
            ..LiveRunConfig::default()
        };
        let out = run_live(&sc.warehouse, &strategy, &cfg).unwrap();
        assert!(out.metrics.queries > 0);
        assert_eq!(out.metrics.errors, 0);
        assert_eq!(out.queries_per_reader.len(), 2);
        // The window published once, however many Insts it ran.
        assert_eq!(out.epochs, 1);
        assert!(out.report.total_work().inst_expressions > 1);
        assert!(out.window > Duration::ZERO);
        let scrape = uww_obs::prom::parse_text(&out.prometheus).unwrap();
        assert!(scrape.saw_eof);
        assert_eq!(
            scrape.value("uww_serve_queries_total", &[]),
            Some(out.metrics.queries as f64)
        );
    }

    #[test]
    fn full_ingest_queue_surfaces_backpressure_on_the_wire() {
        use uww_relational::ValueType;
        use uww_sched::DeltaSource;

        let sc = q3_scenario(0.0003).unwrap();
        let w = &sc.warehouse;
        let g = w.vdag();
        let base = g
            .base_views()
            .into_iter()
            .map(|v| g.name(v).to_string())
            .min()
            .unwrap();
        let row: Vec<Value> = w
            .table(&base)
            .unwrap()
            .schema()
            .columns()
            .iter()
            .map(|c| match c.ty {
                ValueType::Int => Value::Int(888_888_888),
                ValueType::Decimal => Value::Decimal(77),
                ValueType::Str => Value::str("flood"),
                ValueType::Date => Value::Date(9_998),
            })
            .collect();

        let queue = IngestQueue::with_capacity(3);
        let sink = Arc::new(QueueSink::new(w, queue.clone()));
        let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
        let server = Server::start(
            versioned,
            ServerConfig {
                ingest: Some(sink as Arc<dyn IngestSink>),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for _ in 0..3 {
            c.ingest(&base, 1, &row).unwrap();
        }
        // The fourth row hits the bound: the serve layer relays the queue's
        // rejection as a wire ERR instead of buffering without limit.
        let err = c.ingest(&base, 1, &row).unwrap_err();
        assert!(
            err.to_string().contains("ingest queue full"),
            "unexpected wire error: {err}"
        );
        assert_eq!(queue.depth(), 3);
        // A drain (what a window cut does) frees capacity; ingest resumes.
        assert_eq!(queue.source().drain(0, 10).len(), 3);
        c.ingest(&base, 1, &row).unwrap();
        c.quit().unwrap();
        let metrics = server.shutdown();
        assert_eq!(metrics.ingested_rows, 4);
        assert_eq!(metrics.errors, 1);
    }

    #[test]
    fn continuous_run_ingests_over_the_wire_and_exports_maint_metrics() {
        use uww_relational::ValueType;
        use uww_sched::SeededSourceConfig;

        let sc = q3_scenario(0.0003).unwrap();
        let w = &sc.warehouse;
        // A wire row for the alphabetically first base view, synthesized
        // from its schema; the key stays clear of seed and generator data.
        let g = w.vdag();
        let base = g
            .base_views()
            .into_iter()
            .map(|v| g.name(v).to_string())
            .min()
            .unwrap();
        let row: Vec<Value> = w
            .table(&base)
            .unwrap()
            .schema()
            .columns()
            .iter()
            .map(|c| match c.ty {
                ValueType::Int => Value::Int(999_999_999),
                ValueType::Decimal => Value::Decimal(123),
                ValueType::Str => Value::str("wire"),
                ValueType::Date => Value::Date(9_999),
            })
            .collect();

        let cfg = ContinuousRunConfig {
            readers: 1,
            sched: SchedConfig {
                horizon: 40,
                window: 10,
                ..SchedConfig::default()
            },
            source: SeededSourceConfig {
                horizon: 40,
                rate_milli: 1500,
                ..SeededSourceConfig::default()
            },
            ..ContinuousRunConfig::default()
        };
        let out = run_continuous(w, &cfg, &[(base.clone(), 1, row)]).unwrap();
        assert!(!out.ingest.windows.is_empty());
        // The oracle: each window's batch replayed one-shot lands on the
        // recomputed state with the logical work the served window did.
        let mut replay = w.clone();
        for win in &out.ingest.windows {
            replay.load_changes(win.batch.clone()).unwrap();
            let expected = replay.expected_final_state().unwrap();
            let report = replay.execute(&win.strategy).unwrap();
            assert!(replay.diff_state(&expected).is_empty());
            assert_eq!(report.linear_work(), win.measured_work);
        }
        assert!(out.ingest.crashed.is_none());
        assert_eq!(out.metrics.n_ingest, 1);
        assert_eq!(out.metrics.ingested_rows, 1);
        assert_eq!(out.metrics.errors, 0);
        assert_eq!(out.epochs, out.ingest.windows.len() as u64);
        let scrape = uww_obs::prom::parse_text(&out.prometheus).unwrap();
        assert_eq!(
            scrape.value("uww_maint_windows_total", &[]),
            Some(out.ingest.windows.len() as f64)
        );
        assert_eq!(
            scrape.value("uww_maint_events_total", &[]),
            Some(out.ingest.events() as f64)
        );
        assert_eq!(scrape.value("uww_serve_ingest_rows_total", &[]), Some(1.0));
        assert!(scrape
            .value("uww_maint_measured_work_total", &[])
            .is_some_and(|v| v > 0.0));
        // The model gauges ride the same scrape.
        assert!(scrape
            .value("uww_model_service_rate", &[])
            .is_some_and(|v| v > 0.0));
        assert!(scrape.value("uww_model_sla_attainment", &[]).is_some());
        assert_eq!(scrape.value("uww_obs_spans_dropped_total", &[]), Some(0.0));
    }

    #[test]
    fn continuous_run_scrape_reports_window_health() {
        let sc = q3_scenario(0.0003).unwrap();
        let w = &sc.warehouse;
        let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
        let queue = IngestQueue::new();
        let sink = Arc::new(QueueSink::new(w, queue.clone()));
        let server = Server::start(
            Arc::clone(&versioned),
            ServerConfig {
                ingest: Some(sink as Arc<dyn IngestSink>),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let scrape = |c: &mut Client| uww_obs::prom::parse_text(&c.metrics().unwrap()).unwrap();
        // Before any window the scrape has no maintenance block.
        let mut c = Client::connect(server.local_addr()).unwrap();
        let before = scrape(&mut c);
        assert_eq!(before.value("uww_maint_windows_total", &[]), None);
        assert_eq!(before.value("uww_model_sla_attainment", &[]), None);
        // Observe two windows; the second misses the 24-tick SLA.
        for staleness in [6.0, 40.0] {
            server.observe_window(&WindowObservation {
                window_ticks: 8,
                events: 4,
                staleness,
                predicted_work: 100.0,
                measured_work: 104,
                sla_target: 24.0,
                service_rate: 200.0,
                ..Default::default()
            });
        }
        // Reconnect: the counters are server state, not connection state.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        for s in [scrape(&mut c), scrape(&mut c2)] {
            assert_eq!(s.value("uww_maint_windows_total", &[]), Some(2.0));
            assert_eq!(s.value("uww_model_sla_attainment", &[]), Some(0.5));
        }
        c.quit().unwrap();
        c2.quit().unwrap();
        server.shutdown();
    }
}
