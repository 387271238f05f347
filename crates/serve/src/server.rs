//! The threaded TCP server.

use crate::metrics::{Metrics, MetricsSnapshot, Verb, WindowObservation};
use crate::protocol::Request;
use crate::Isolation;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uww_obs as obs;
use uww_relational::{table_digest, Value, VersionedCatalog};

/// How often blocked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(20);

/// The longest request line the server reads, newline included. The
/// longest real request is an `INGEST` row of a few hundred bytes; a peer
/// that streams past this without a newline is answered
/// `ERR request line too long` and disconnected, so it cannot grow the
/// line buffer without limit.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Where `INGEST` rows go. The server never applies deltas itself — the
/// sink (typically a handle on the ingest scheduler's queue) owns them, and
/// the next window cut picks them up. `Err` strings become `ERR` replies.
pub trait IngestSink: Send + Sync {
    /// Accepts one delta row against `view` with signed multiplicity
    /// `count`; `values` is the row in schema order.
    fn ingest(&self, view: &str, count: i64, values: Vec<Value>) -> Result<(), String>;
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address. Port `0` picks a free port (the default,
    /// `127.0.0.1:0`, is what the tests and CLI use).
    pub addr: String,
    /// Worker threads — the bound on concurrently served connections.
    pub workers: usize,
    /// Accepted connections queued ahead of the workers; once full, the
    /// acceptor itself blocks (bounded admission, no unbounded backlog).
    pub queue_depth: usize,
    /// Isolation regime for `QUERY` handling.
    pub isolation: Isolation,
    /// Sink for `INGEST` rows; `None` (the default) answers the verb with
    /// an `ERR` saying ingest is not enabled.
    pub ingest: Option<Arc<dyn IngestSink>>,
    /// Latency histogram bucket bounds (µs) for the `METRICS` scrape.
    /// `None` uses [`crate::metrics::DEFAULT_LATENCY_BUCKETS_US`].
    pub latency_buckets: Option<Vec<u64>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("isolation", &self.isolation)
            .field("ingest", &self.ingest.is_some())
            .field("latency_buckets", &self.latency_buckets)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 32,
            isolation: Isolation::Mvcc,
            ingest: None,
            latency_buckets: None,
        }
    }
}

struct Shared {
    catalog: Arc<VersionedCatalog>,
    metrics: Metrics,
    isolation: Isolation,
    ingest: Option<Arc<dyn IngestSink>>,
    shutdown: AtomicBool,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// aborts the threads non-gracefully (they exit at their next poll).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns immediately.
    pub fn start(catalog: Arc<VersionedCatalog>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            catalog,
            metrics: match config.latency_buckets.clone() {
                Some(bounds) => Metrics::with_latency_buckets(bounds),
                None => Metrics::new(),
            },
            isolation: config.isolation,
            ingest: config.ingest.clone(),
            shutdown: AtomicBool::new(false),
        });

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let next = rx
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .recv_timeout(POLL);
                    match next {
                        Ok(stream) => serve_connection(stream, &shared),
                        Err(RecvTimeoutError::Timeout) => continue,
                        // Acceptor gone and queue drained: we're done.
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                })
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => break,
                    }
                }
                // Dropping `tx` lets the workers drain the queue and exit.
            })
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Folds one completed maintenance window into the `METRICS` scrape.
    /// Called from the ingest scheduler's per-window observer, so a scraper
    /// sees maintenance-side gauges (window size, staleness, queue depth,
    /// predicted vs measured work, carry-over hits) next to the serving
    /// counters.
    pub fn observe_window(&self, o: &WindowObservation) {
        self.shared.metrics.observe_window(o);
    }

    /// Graceful drain: stop accepting, let every worker finish its current
    /// connection, join all threads, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.metrics.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Serves one connection until QUIT, EOF, error, or server shutdown.
/// In-flight requests always complete — shutdown is only observed between
/// requests, so a drain never truncates a response mid-line.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            let _ = writeln!(writer, "BYE draining");
            return;
        }
        // `line` never reaches the cap without a newline (that closes the
        // connection below), so the room left is at least one byte.
        let room = (MAX_REQUEST_BYTES - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) if line.len() >= MAX_REQUEST_BYTES && line.last() != Some(&b'\n') => {
                shared.metrics.record_error();
                let _ = writeln!(writer, "ERR request line too long");
                return;
            }
            Ok(_) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    return;
                };
                let done = handle_request(text.trim_end(), &mut writer, shared).is_err();
                line.clear();
                if done {
                    return;
                }
            }
            // Timeout while idle (possibly mid-line: read_until keeps the
            // partial data in `line`, so the retry resumes where it left
            // off). Loop to re-check the shutdown flag.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// Handles one request line. `Err(())` means "close the connection".
fn handle_request(line: &str, writer: &mut TcpStream, shared: &Shared) -> Result<(), ()> {
    let started = Instant::now();
    let parsed = Request::parse(line);
    let verb = match &parsed {
        Ok(Request::Query(_)) => Some(Verb::Query),
        Ok(Request::Snapshot) => Some(Verb::Snapshot),
        Ok(Request::Metrics) => Some(Verb::Metrics),
        Ok(Request::Ingest { .. }) => Some(Verb::Ingest),
        Ok(Request::Quit) => Some(Verb::Quit),
        Err(_) => None,
    };
    if let Some(v) = verb {
        shared.metrics.record_request(v);
    }
    let mut span = obs::span(
        obs::SpanKind::ServeRequest,
        verb.map_or("invalid", Verb::as_str),
    );
    if span.is_recording() {
        span.attr_str(obs::keys::VERB, verb.map_or("invalid", Verb::as_str));
    }
    // Under Strict, wait out an open install phase — the paper's locking
    // regime — and hold the read half across the pin and scan.
    let strict = shared.isolation == Isolation::Strict
        && matches!(parsed, Ok(Request::Query(_) | Request::Snapshot));
    let waited = Instant::now();
    let install_phase = strict.then(|| shared.catalog.wait_installs());
    let lock_wait = install_phase
        .as_ref()
        .map_or(Duration::ZERO, |_| waited.elapsed());
    let reply = match parsed {
        // Pin an epoch and scan the extent (the digest walks every row: this
        // is the query's service work).
        Ok(Request::Query(view)) => match shared.catalog.read_pinned(&view) {
            Ok((table, epoch)) => {
                let (digest, rows) = (table_digest(&table), table.len());
                shared
                    .metrics
                    .record_query(started.elapsed(), rows, lock_wait);
                format!("OK {view} {rows} {digest:016x} {epoch}")
            }
            Err(e) => {
                shared.metrics.record_error();
                format!("ERR {e}")
            }
        },
        Ok(Request::Snapshot) => {
            let snap = shared.catalog.snapshot();
            let mut out = format!("EPOCH {}", snap.epoch());
            for table in snap.iter() {
                out.push_str(&format!(
                    "\nVIEW {} {} {:016x}",
                    table.name(),
                    table.len(),
                    table_digest(table)
                ));
            }
            out.push_str("\nEND");
            out
        }
        // Multi-line Prometheus text scrape; its rendered body already ends
        // with the `# EOF\n` terminator clients read until.
        Ok(Request::Metrics) => {
            let body = shared.metrics.render_prometheus(shared.catalog.epoch());
            span.attr_u64(obs::keys::BYTES, body.len() as u64);
            drop(span);
            return writer.write_all(body.as_bytes()).map_err(|_| ());
        }
        Ok(Request::Ingest {
            view,
            count,
            values,
        }) => match &shared.ingest {
            Some(sink) => match sink.ingest(&view, count, values) {
                Ok(()) => {
                    shared.metrics.record_ingest(count.unsigned_abs());
                    format!("OK {view} {count}")
                }
                Err(e) => {
                    shared.metrics.record_error();
                    // A full ingest queue is backpressure, not a malformed
                    // request — count it separately so the scrape exposes
                    // the reject rate (the sink's contract is the
                    // `IngestQueue::push` error text).
                    if e.contains("queue full") {
                        shared.metrics.record_ingest_reject();
                    }
                    format!("ERR {e}")
                }
            },
            None => {
                shared.metrics.record_error();
                "ERR ingest is not enabled on this server".to_string()
            }
        },
        Ok(Request::Quit) => {
            let _ = writeln!(writer, "BYE");
            return Err(());
        }
        Err(msg) => {
            shared.metrics.record_error();
            format!("ERR {msg}")
        }
    };
    drop(install_phase);
    writeln!(writer, "{reply}").map_err(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use uww_relational::{tup, Catalog, Schema, Table, Value, ValueType};

    fn catalog(rows: i64) -> Arc<VersionedCatalog> {
        let mut t = Table::new("V", Schema::of(&[("k", ValueType::Int)]));
        for i in 0..rows {
            t.insert(tup![Value::Int(i)]).unwrap();
        }
        let mut u = Table::new("U", Schema::of(&[("k", ValueType::Int)]));
        u.insert(tup![Value::Int(0)]).unwrap();
        let mut cat = Catalog::new();
        cat.register(t).unwrap();
        cat.register(u).unwrap();
        Arc::new(VersionedCatalog::from_catalog(&cat))
    }

    fn start(iso: Isolation) -> (Server, Arc<VersionedCatalog>) {
        let catalog = catalog(5);
        let server = Server::start(
            Arc::clone(&catalog),
            ServerConfig {
                isolation: iso,
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        (server, catalog)
    }

    fn scrape(c: &mut Client) -> obs::prom::ParsedScrape {
        obs::prom::parse_text(&c.metrics().unwrap()).unwrap()
    }

    #[test]
    fn query_snapshot_round_trip() {
        let (server, catalog) = start(Isolation::Mvcc);
        let mut c = Client::connect(server.local_addr()).unwrap();

        let q = c.query("V").unwrap();
        assert_eq!((q.view.as_str(), q.rows, q.epoch), ("V", 5, 0));
        let expected = table_digest(catalog.snapshot().get("V").unwrap());
        assert_eq!(q.digest, expected);

        let snap = c.snapshot().unwrap();
        assert_eq!(snap.epoch, 0);
        let names: Vec<&str> = snap.views.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["U", "V"]);

        assert!(c.raw("QUERY missing").unwrap().starts_with("ERR "));
        assert!(c.raw("EXPLAIN V").unwrap().starts_with("ERR "));

        let s = scrape(&mut c);
        assert_eq!(s.value("uww_serve_queries_total", &[]), Some(1.0));
        assert_eq!(s.value("uww_serve_errors_total", &[]), Some(2.0));

        c.quit().unwrap();
        let final_metrics = server.shutdown();
        assert_eq!(final_metrics.queries, 1);
        assert_eq!(final_metrics.rows_returned, 5);
        assert_eq!(final_metrics.errors, 2);
    }

    #[test]
    fn metrics_scrape_is_valid_prometheus() {
        let (server, _catalog) = start(Isolation::Mvcc);
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.query("V").unwrap().rows, 5);
        let body = c.metrics().unwrap();
        let scrape = obs::prom::parse_text(&body).unwrap();
        assert!(scrape.saw_eof);
        assert_eq!(scrape.value("uww_serve_queries_total", &[]), Some(1.0));
        assert_eq!(
            scrape.value("uww_serve_requests_total", &[("verb", "query")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_serve_requests_total", &[("verb", "metrics")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_serve_query_latency_count", &[]),
            Some(1.0)
        );
        assert!(scrape.value("uww_serve_uptime_seconds", &[]).is_some());
        c.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn retired_verbs_are_unknown() {
        let (server, _catalog) = start(Isolation::Mvcc);
        let mut c = Client::connect(server.local_addr()).unwrap();
        for verb in ["STATS", "HEALTH"] {
            assert_eq!(
                c.raw(verb).unwrap(),
                format!("ERR unknown or malformed request: {verb}")
            );
        }
        c.quit().unwrap();
        assert_eq!(server.shutdown().errors, 2);
    }

    #[test]
    fn oversized_request_line_is_refused() {
        let (server, _catalog) = start(Isolation::Mvcc);
        let mut flood = TcpStream::connect(server.local_addr()).unwrap();
        flood
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // The server stops reading at the cap and closes, so the tail of
        // this write may fail; only the reply matters.
        let _ = flood.write_all(&vec![b'x'; 1 << 20]);
        let mut reader = BufReader::new(flood);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR request line too long\n");
        // Then the connection ends: EOF, or a reset when unread bytes were
        // still queued at the server as it closed.
        let mut rest = String::new();
        match reader.read_line(&mut rest) {
            Ok(n) => assert_eq!(n, 0, "{rest}"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
        }
        // Other connections are still served.
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.query("V").unwrap().rows, 5);
        c.quit().unwrap();
        assert_eq!(server.shutdown().errors, 1);
    }

    /// Records everything it accepts; refuses view `"missing"`.
    struct TestSink(Mutex<Vec<(String, i64, Vec<Value>)>>);

    impl IngestSink for TestSink {
        fn ingest(&self, view: &str, count: i64, values: Vec<Value>) -> Result<(), String> {
            if view == "missing" {
                return Err(format!("unknown base view {view}"));
            }
            self.0.lock().unwrap_or_else(|e| e.into_inner()).push((
                view.to_string(),
                count,
                values,
            ));
            Ok(())
        }
    }

    #[test]
    fn ingest_reaches_the_sink() {
        let sink = Arc::new(TestSink(Mutex::new(Vec::new())));
        let server = Server::start(
            catalog(5),
            ServerConfig {
                workers: 2,
                ingest: Some(Arc::clone(&sink) as Arc<dyn IngestSink>),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.ingest("V", 1, &[Value::Int(41), Value::str("x")])
            .unwrap();
        c.ingest("V", -3, &[Value::Int(9)]).unwrap();
        assert!(c.raw("INGEST missing 1 i:1").unwrap().starts_with("ERR "));
        assert!(c.raw("INGEST V 0 i:1").unwrap().starts_with("ERR "));
        assert!(c
            .ingest("V", 1, &[Value::str("a b")])
            .is_err_and(|e| e.kind() == io::ErrorKind::InvalidInput));
        c.quit().unwrap();
        let m = server.shutdown();
        assert_eq!((m.n_ingest, m.ingested_rows, m.errors), (3, 4, 2));
        let got = sink.0.lock().unwrap();
        assert_eq!(
            *got,
            vec![
                ("V".to_string(), 1, vec![Value::Int(41), Value::str("x")]),
                ("V".to_string(), -3, vec![Value::Int(9)]),
            ]
        );
    }

    #[test]
    fn observed_windows_reach_the_scrape() {
        let (server, _catalog) = start(Isolation::Mvcc);
        server.observe_window(&WindowObservation {
            window_ticks: 8,
            events: 4,
            staleness: 6.0,
            sla_target: 24.0,
            ..Default::default()
        });
        let mut c = Client::connect(server.local_addr()).unwrap();
        let s = scrape(&mut c);
        assert_eq!(s.value("uww_maint_windows_total", &[]), Some(1.0));
        assert_eq!(s.value("uww_model_sla_attainment", &[]), Some(1.0));
        assert_eq!(s.value("uww_serve_ingest_rejects_total", &[]), Some(0.0));
        c.quit().unwrap();
        let m = server.shutdown();
        assert_eq!(m.n_metrics, 1);
    }

    /// Always reports a full queue, mimicking `IngestQueue::push`.
    struct FullSink;

    impl IngestSink for FullSink {
        fn ingest(&self, _view: &str, _count: i64, _values: Vec<Value>) -> Result<(), String> {
            Err("ingest queue full (capacity 4)".to_string())
        }
    }

    #[test]
    fn backpressure_rejects_surface_on_the_scrape() {
        let server = Server::start(
            catalog(5),
            ServerConfig {
                workers: 2,
                ingest: Some(Arc::new(FullSink) as Arc<dyn IngestSink>),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for _ in 0..3 {
            assert!(c.raw("INGEST V 1 i:1").unwrap().starts_with("ERR "));
        }
        let rejects = |s: obs::prom::ParsedScrape| s.value("uww_serve_ingest_rejects_total", &[]);
        assert_eq!(rejects(scrape(&mut c)), Some(3.0));
        c.quit().unwrap();
        // A fresh connection sees the same monotone counter.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        assert_eq!(rejects(scrape(&mut c2)), Some(3.0));
        c2.quit().unwrap();
        let m = server.shutdown();
        assert_eq!(m.ingest_rejects, 3);
        assert_eq!(m.errors, 3);
    }

    #[test]
    fn ingest_without_a_sink_errors() {
        let (server, _catalog) = start(Isolation::Mvcc);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let line = c.raw("INGEST V 1 i:1").unwrap();
        assert!(line.starts_with("ERR "), "{line}");
        assert!(line.contains("not enabled"), "{line}");
        c.quit().unwrap();
        let m = server.shutdown();
        assert_eq!((m.n_ingest, m.errors), (1, 1));
    }

    #[test]
    fn queries_observe_published_installs() {
        let (server, catalog) = start(Isolation::Mvcc);
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.query("V").unwrap().epoch, 0);

        let mut bigger = Table::new("V", Schema::of(&[("k", ValueType::Int)]));
        for i in 0..9 {
            bigger.insert(tup![Value::Int(i)]).unwrap();
        }
        let post = table_digest(&bigger);
        catalog.publish(bigger);

        let q = c.query("V").unwrap();
        assert_eq!((q.rows, q.digest, q.epoch), (9, post, 1));
        c.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn strict_queries_wait_for_the_install_lock() {
        let (server, catalog) = start(Isolation::Strict);
        let addr = server.local_addr();

        // Simulate an open install phase: hold the catalog's write half,
        // against a view the query does not even target.
        let guard = catalog.lock_installs();
        let handle = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let q = c.query("V").unwrap();
            let snap = c.snapshot().unwrap();
            c.quit().unwrap();
            (q, snap)
        });
        // The query must be stalled on the lock, not answered. The stall
        // needs to dominate connection setup (accept + worker hand-off can
        // eat two 20ms polls) for the lock-wait assertion below to have
        // real margin.
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(server.metrics().queries, 0, "strict read must block");
        catalog.publish(Table::new("U", Schema::of(&[("k", ValueType::Int)])));
        drop(guard);
        // The query and the snapshot both read the version published inside
        // the lock.
        let (q, snap) = handle.join().unwrap();
        assert_eq!((q.rows, q.epoch, snap.epoch), (5, 1, 1));

        let m = server.shutdown();
        assert_eq!(m.queries, 1);
        assert!(
            m.lock_wait_us >= 40_000,
            "lock wait should cover the stall, got {}us",
            m.lock_wait_us
        );
    }

    #[test]
    fn mvcc_queries_ignore_the_install_lock() {
        let (server, catalog) = start(Isolation::Mvcc);
        let _guard = catalog.lock_installs();
        // Lock held for the whole test: MVCC reads sail past it.
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.query("V").unwrap().rows, 5);
        c.quit().unwrap();
        let m = server.shutdown();
        assert_eq!(m.lock_wait_us, 0);
    }

    #[test]
    fn shutdown_drains_gracefully() {
        let (server, _catalog) = start(Isolation::Mvcc);
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.query("V").unwrap().rows, 5);
        let m = server.shutdown();
        assert_eq!(m.queries, 1);
        // The connection was told the server is draining (or closed).
        if let Ok(line) = c.raw("QUERY V") {
            assert!(line.starts_with("BYE"), "{line}");
        }
    }
}
