//! Per-query serving metrics.
//!
//! Counters are lock-free; individual latencies go into a mutex-guarded
//! vector so the snapshot can compute exact percentiles. Latencies and lock
//! waits are kept in nanoseconds — an in-memory MVCC read takes well under
//! a microsecond — and reported as fractional microseconds. At the scales the
//! benches run (thousands of queries) the vector is cheap, and exactness
//! matters: the whole point is comparing measured p50/p95/p99 against the
//! simulation's latency distribution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default latency histogram bucket bounds (µs) for the Prometheus
/// export: sub-millisecond buckets for in-memory scans, then a coarse
/// tail for lock stalls under strict isolation. Override per server with
/// [`Metrics::with_latency_buckets`] (wired through `ServerConfig`) when
/// the defaults are too coarse — e.g. sub-100µs MVCC reads at P≥4.
pub const DEFAULT_LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Latency at quantile `q` (`0.0 ≤ q ≤ 1.0`) over `sorted` samples (in
/// whatever unit they share: the snapshot passes nanoseconds), nearest-rank — the same definition
/// `InterferenceReport::latency_percentile` uses in `uww-core`, so measured
/// and simulated distributions compare like for like. `0` when empty.
pub fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// The request verbs the server counts individually. `METRICS` itself is
/// counted too, so a scraper can subtract its own traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `QUERY <view>`.
    Query,
    /// `SNAPSHOT`.
    Snapshot,
    /// `METRICS`.
    Metrics,
    /// `INGEST <view> <count> <value>...`.
    Ingest,
    /// `QUIT`.
    Quit,
}

impl Verb {
    /// Lowercase wire/label name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Snapshot => "snapshot",
            Verb::Metrics => "metrics",
            Verb::Ingest => "ingest",
            Verb::Quit => "quit",
        }
    }
}

/// One completed maintenance window, as reported by the continuous ingest
/// scheduler's observer. The serve crate deliberately knows nothing about
/// the scheduler itself — this plain struct is the whole coupling, so the
/// `METRICS` scrape can carry maintenance-side gauges next to the serving
/// counters without a dependency cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowObservation {
    /// Accumulation span of the window, in virtual ticks.
    pub window_ticks: u64,
    /// Delta events batched into the window.
    pub events: u64,
    /// Mean staleness of those events (ticks from arrival to publish).
    pub staleness: f64,
    /// Queue depth left behind after the cut (events still waiting).
    pub queue_depth: u64,
    /// Cost-model predicted linear work for the window.
    pub predicted_work: f64,
    /// Measured linear work (rows scanned + installed).
    pub measured_work: u64,
    /// Build hash tables reused across expressions (`WorkMeter`'s
    /// `hash_tables_cross_reused`).
    pub hash_tables_cross_reused: u64,
    /// Operand scans served from the raw-materialization cache
    /// (`WorkMeter`'s `operand_reads_cached`).
    pub operand_reads_cached: u64,
    /// Probes of maintained key indexes carried over from a previous
    /// window.
    pub carried_table_hits: u64,
    /// Reads of maintained extents carried over from a previous window.
    pub carried_raw_hits: u64,
    /// The SLA's target mean staleness, in ticks (0 when unknown).
    pub sla_target: f64,
    /// Effective service rate μ.
    pub service_rate: f64,
}

/// Maintenance-side accumulators, folded in once per window (so a plain
/// mutex-guarded struct is cheaper and simpler than a bank of atomics).
#[derive(Clone, Copy, Debug, Default)]
struct MaintState {
    windows: u64,
    events: u64,
    staleness_weighted: f64,
    last_window_ticks: u64,
    last_staleness: f64,
    last_queue_depth: u64,
    predicted_work: f64,
    measured_work: u64,
    hash_tables_cross_reused: u64,
    operand_reads_cached: u64,
    carried_table_hits: u64,
    carried_raw_hits: u64,
    sla_target: f64,
    sla_met_windows: u64,
    last_service_rate: f64,
}

/// Shared live counters, updated by every worker thread.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    queries: AtomicU64,
    rows_returned: AtomicU64,
    errors: AtomicU64,
    lock_wait_ns: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
    n_query: AtomicU64,
    n_snapshot: AtomicU64,
    n_metrics: AtomicU64,
    n_ingest: AtomicU64,
    n_quit: AtomicU64,
    ingested_rows: AtomicU64,
    ingest_rejects: AtomicU64,
    latency_buckets: Vec<u64>,
    maint: Mutex<MaintState>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            rows_returned: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            latencies_ns: Mutex::new(Vec::new()),
            n_query: AtomicU64::new(0),
            n_snapshot: AtomicU64::new(0),
            n_metrics: AtomicU64::new(0),
            n_ingest: AtomicU64::new(0),
            n_quit: AtomicU64::new(0),
            ingested_rows: AtomicU64::new(0),
            ingest_rejects: AtomicU64::new(0),
            latency_buckets: DEFAULT_LATENCY_BUCKETS_US.to_vec(),
            maint: Mutex::new(MaintState::default()),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics; the uptime clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh metrics with custom latency histogram bucket bounds (µs).
    /// Bounds are sorted and deduplicated; empty input falls back to
    /// [`DEFAULT_LATENCY_BUCKETS_US`].
    pub fn with_latency_buckets(bounds: Vec<u64>) -> Self {
        let mut m = Self::default();
        if !bounds.is_empty() {
            let mut b = bounds;
            b.sort_unstable();
            b.dedup();
            m.latency_buckets = b;
        }
        m
    }

    /// Records one well-formed request, by verb. Called on parse, before
    /// the request is served, so a request that errors later still counts.
    pub fn record_request(&self, verb: Verb) {
        let counter = match verb {
            Verb::Query => &self.n_query,
            Verb::Snapshot => &self.n_snapshot,
            Verb::Metrics => &self.n_metrics,
            Verb::Ingest => &self.n_ingest,
            Verb::Quit => &self.n_quit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one accepted `INGEST` row (`rows` is the absolute
    /// multiplicity of the delta).
    pub fn record_ingest(&self, rows: u64) {
        self.ingested_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records one `INGEST` rejected by queue backpressure (the bounded
    /// ingest queue was full). Monotone; surfaced as
    /// `uww_serve_ingest_rejects_total`.
    pub fn record_ingest_reject(&self) {
        self.ingest_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one completed maintenance window into the scrape, called by
    /// the ingest scheduler's observer after each window publishes.
    pub fn observe_window(&self, o: &WindowObservation) {
        let mut m = self.maint.lock().unwrap_or_else(|e| e.into_inner());
        m.windows += 1;
        m.events += o.events;
        m.staleness_weighted += o.staleness * o.events as f64;
        m.last_window_ticks = o.window_ticks;
        m.last_staleness = o.staleness;
        m.last_queue_depth = o.queue_depth;
        m.predicted_work += o.predicted_work;
        m.measured_work += o.measured_work;
        m.hash_tables_cross_reused += o.hash_tables_cross_reused;
        m.operand_reads_cached += o.operand_reads_cached;
        m.carried_table_hits += o.carried_table_hits;
        m.carried_raw_hits += o.carried_raw_hits;
        m.sla_target = o.sla_target;
        if o.sla_target > 0.0 && o.staleness <= o.sla_target {
            m.sla_met_windows += 1;
        }
        m.last_service_rate = o.service_rate;
    }

    /// Records one answered `QUERY`, its latency and lock wait to the
    /// nanosecond.
    pub fn record_query(&self, latency: Duration, rows: u64, lock_wait: Duration) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows_returned.fetch_add(rows, Ordering::Relaxed);
        self.lock_wait_ns
            .fetch_add(ns(lock_wait), Ordering::Relaxed);
        self.latencies_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ns(latency));
    }

    /// Every recorded latency, in nanoseconds, sorted.
    fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut lats = (self.latencies_ns.lock())
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        lats.sort_unstable();
        lats
    }

    /// Records one `ERR` response.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent point-in-time summary with exact percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lats = self.sorted_latencies_ns();
        let us = |ns: u64| ns as f64 / 1e3;
        let mean_us = if lats.is_empty() {
            0.0
        } else {
            lats.iter().map(|&ns| ns as f64).sum::<f64>() / 1e3 / lats.len() as f64
        };
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            rows_returned: self.rows_returned.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            lock_wait_us: self.lock_wait_ns.load(Ordering::Relaxed) / 1_000,
            mean_us,
            p50_us: us(percentile_us(&lats, 0.50)),
            p95_us: us(percentile_us(&lats, 0.95)),
            p99_us: us(percentile_us(&lats, 0.99)),
            max_us: us(lats.last().copied().unwrap_or(0)),
            n_query: self.n_query.load(Ordering::Relaxed),
            n_snapshot: self.n_snapshot.load(Ordering::Relaxed),
            n_metrics: self.n_metrics.load(Ordering::Relaxed),
            n_ingest: self.n_ingest.load(Ordering::Relaxed),
            n_quit: self.n_quit.load(Ordering::Relaxed),
            ingested_rows: self.ingested_rows.load(Ordering::Relaxed),
            ingest_rejects: self.ingest_rejects.load(Ordering::Relaxed),
            uptime_us: self.started.elapsed().as_micros() as u64,
        }
    }

    /// The Prometheus text-format scrape served to `METRICS`, ending with
    /// `# EOF` (which doubles as the protocol's multi-line terminator).
    pub fn render_prometheus(&self, epoch: u64) -> String {
        let snap = self.snapshot();
        let lats: Vec<f64> = (self.sorted_latencies_ns().into_iter())
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let mut reg = uww_obs::prom::Registry::new();
        reg.counter(
            "uww_serve_queries_total",
            "Queries answered with OK",
            snap.queries as f64,
        );
        reg.counter(
            "uww_serve_rows_returned_total",
            "Rows reported across answered queries",
            snap.rows_returned as f64,
        );
        reg.counter(
            "uww_serve_errors_total",
            "Requests answered with ERR",
            snap.errors as f64,
        );
        reg.counter(
            "uww_serve_lock_wait_seconds_total",
            "Time queries spent waiting on strict view locks",
            self.lock_wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
        );
        {
            let fam = reg.family(
                "uww_serve_requests_total",
                "Well-formed requests received, by verb",
                uww_obs::prom::MetricKind::Counter,
            );
            for (verb, n) in [
                (Verb::Query, snap.n_query),
                (Verb::Snapshot, snap.n_snapshot),
                (Verb::Metrics, snap.n_metrics),
                (Verb::Ingest, snap.n_ingest),
                (Verb::Quit, snap.n_quit),
            ] {
                fam.labeled(&[("verb", verb.as_str())], n as f64);
            }
        }
        reg.counter(
            "uww_serve_ingest_rows_total",
            "Delta rows accepted over INGEST (absolute multiplicities)",
            snap.ingested_rows as f64,
        );
        reg.counter(
            "uww_serve_ingest_rejects_total",
            "INGEST requests rejected by queue backpressure",
            snap.ingest_rejects as f64,
        );
        reg.counter(
            "uww_obs_spans_dropped_total",
            "Trace spans dropped by the bounded in-memory ring buffer",
            uww_obs::subscriber().map_or(0, |b| b.dropped()) as f64,
        );
        reg.histogram_us(
            "uww_serve_query_latency",
            "Query service latency",
            &lats,
            &self.latency_buckets,
        );
        reg.gauge(
            "uww_serve_catalog_epoch",
            "Epoch of the current published catalog version",
            epoch as f64,
        );
        reg.gauge(
            "uww_serve_uptime_seconds",
            "Time since the server's metrics were created",
            snap.uptime_us as f64 / 1e6,
        );
        let maint = *self.maint.lock().unwrap_or_else(|e| e.into_inner());
        if maint.windows > 0 {
            reg.counter(
                "uww_maint_windows_total",
                "Maintenance windows executed and published",
                maint.windows as f64,
            );
            reg.counter(
                "uww_maint_events_total",
                "Delta events batched into published windows",
                maint.events as f64,
            );
            reg.gauge(
                "uww_maint_window_ticks",
                "Accumulation span of the most recent window (virtual ticks)",
                maint.last_window_ticks as f64,
            );
            reg.gauge(
                "uww_maint_staleness_ticks",
                "Mean event staleness of the most recent window",
                maint.last_staleness,
            );
            reg.gauge(
                "uww_maint_staleness_mean_ticks",
                "Event-weighted mean staleness across all windows",
                if maint.events > 0 {
                    maint.staleness_weighted / maint.events as f64
                } else {
                    0.0
                },
            );
            reg.gauge(
                "uww_maint_queue_depth",
                "Events still queued after the most recent cut",
                maint.last_queue_depth as f64,
            );
            reg.counter(
                "uww_maint_predicted_work_total",
                "Cost-model predicted linear work across windows",
                maint.predicted_work,
            );
            reg.counter(
                "uww_maint_measured_work_total",
                "Measured linear work (rows scanned + installed) across windows",
                maint.measured_work as f64,
            );
            reg.counter(
                "uww_maint_hash_tables_cross_reused_total",
                "Build hash tables reused across expressions of a strategy",
                maint.hash_tables_cross_reused as f64,
            );
            reg.counter(
                "uww_maint_operand_reads_cached_total",
                "Operand scans served from the raw-materialization cache",
                maint.operand_reads_cached as f64,
            );
            reg.counter(
                "uww_maint_carried_table_hits_total",
                "Probes of maintained key indexes carried over from a previous window",
                maint.carried_table_hits as f64,
            );
            reg.counter(
                "uww_maint_carried_raw_hits_total",
                "Reads of maintained extents carried over from a previous window",
                maint.carried_raw_hits as f64,
            );
            reg.gauge(
                "uww_model_service_rate",
                "Effective service rate (linear-work rows per tick)",
                maint.last_service_rate,
            );
            reg.gauge(
                "uww_model_sla_attainment",
                "Fraction of windows whose mean staleness met the SLA target",
                if maint.windows > 0 {
                    maint.sla_met_windows as f64 / maint.windows as f64
                } else {
                    1.0
                },
            );
        }
        reg.render()
    }
}

/// Point-in-time metrics summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries answered with `OK`.
    pub queries: u64,
    /// Total rows reported across those queries.
    pub rows_returned: u64,
    /// Requests answered with `ERR`.
    pub errors: u64,
    /// Total time queries spent waiting on strict view locks, in whole
    /// microseconds (summed in nanoseconds).
    pub lock_wait_us: u64,
    /// Mean query latency (fractional µs). The robust statistic for strict-vs-mvcc
    /// comparisons: lock stalls hit few queries but each stall is orders of
    /// magnitude above the base latency, so the stall mass moves the mean
    /// far more reliably than any fixed percentile.
    pub mean_us: f64,
    /// Median query latency (fractional µs).
    pub p50_us: f64,
    /// 95th-percentile query latency (fractional µs).
    pub p95_us: f64,
    /// 99th-percentile query latency (fractional µs).
    pub p99_us: f64,
    /// Maximum query latency (fractional µs).
    pub max_us: f64,
    /// Well-formed `QUERY` requests received (answered OK *or* ERR).
    pub n_query: u64,
    /// `SNAPSHOT` requests received.
    pub n_snapshot: u64,
    /// `METRICS` requests received.
    pub n_metrics: u64,
    /// `INGEST` requests received.
    pub n_ingest: u64,
    /// `QUIT` requests received.
    pub n_quit: u64,
    /// Delta rows accepted over `INGEST` (absolute multiplicities).
    pub ingested_rows: u64,
    /// `INGEST` requests rejected by queue backpressure.
    pub ingest_rejects: u64,
    /// Microseconds since the server's metrics epoch (its start), so a
    /// caller can turn the counters into rates.
    pub uptime_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 50);
        assert_eq!(percentile_us(&sorted, 0.95), 95);
        assert_eq!(percentile_us(&sorted, 0.99), 99);
        assert_eq!(percentile_us(&sorted, 1.0), 100);
        assert_eq!(percentile_us(&sorted, 0.0), 1);
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.99), 7);
    }

    #[test]
    fn recording_accumulates_and_snapshots() {
        let m = Metrics::new();
        m.record_query(Duration::from_micros(100), 10, Duration::from_micros(40));
        m.record_query(Duration::from_micros(300), 5, Duration::ZERO);
        m.record_error();
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.rows_returned, 15);
        assert_eq!(s.errors, 1);
        assert_eq!(s.lock_wait_us, 40);
        assert_eq!(s.mean_us, 200.0);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.max_us, 300.0);
    }

    #[test]
    fn sub_microsecond_queries_have_a_non_zero_mean() {
        // Whole microseconds would truncate every one of these to 0.
        let m = Metrics::new();
        for ns in [250, 400, 900] {
            m.record_query(Duration::from_nanos(ns), 1, Duration::from_nanos(ns / 10));
        }
        let s = m.snapshot();
        assert!((s.mean_us - 1.55 / 3.0).abs() < 1e-9, "{}", s.mean_us);
        assert_eq!((s.p50_us, s.max_us), (0.4, 0.9));
        assert_eq!(s.lock_wait_us, 0, "155 ns of lock wait is under one µs");
        let scrape = uww_obs::prom::parse_text(&m.render_prometheus(0)).unwrap();
        let total = scrape
            .value("uww_serve_lock_wait_seconds_total", &[])
            .unwrap();
        assert!((total - 155e-9).abs() < 1e-15, "{total}");
        let sum = scrape.value("uww_serve_query_latency_sum", &[]).unwrap();
        assert!((sum - 1.55).abs() < 1e-9, "{sum}");
        assert_eq!(
            scrape.value("uww_serve_query_latency_bucket", &[("le", "100")]),
            Some(3.0)
        );
    }

    #[test]
    fn per_verb_counters_accumulate() {
        let m = Metrics::new();
        m.record_request(Verb::Query);
        m.record_request(Verb::Query);
        m.record_request(Verb::Metrics);
        m.record_request(Verb::Quit);
        let s = m.snapshot();
        assert_eq!(
            (s.n_query, s.n_snapshot, s.n_metrics, s.n_ingest, s.n_quit),
            (2, 0, 1, 0, 1)
        );
    }

    #[test]
    fn prometheus_scrape_parses_and_carries_counters() {
        let m = Metrics::new();
        m.record_query(Duration::from_micros(120), 9, Duration::ZERO);
        m.record_request(Verb::Query);
        m.record_request(Verb::Metrics);
        m.record_error();
        let text = m.render_prometheus(5);
        let scrape = uww_obs::prom::parse_text(&text).unwrap();
        assert!(scrape.saw_eof);
        assert_eq!(scrape.value("uww_serve_queries_total", &[]), Some(1.0));
        assert_eq!(scrape.value("uww_serve_errors_total", &[]), Some(1.0));
        assert_eq!(
            scrape.value("uww_serve_requests_total", &[("verb", "query")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_serve_requests_total", &[("verb", "metrics")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_serve_query_latency_bucket", &[("le", "250")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_serve_query_latency_count", &[]),
            Some(1.0)
        );
        assert_eq!(scrape.value("uww_serve_catalog_epoch", &[]), Some(5.0));
        assert!(scrape.value("uww_serve_uptime_seconds", &[]).is_some());
        // No maintenance windows observed yet: the maint block is absent.
        assert_eq!(scrape.value("uww_maint_windows_total", &[]), None);
    }

    #[test]
    fn maintenance_windows_reach_the_scrape() {
        let m = Metrics::new();
        m.record_request(Verb::Ingest);
        m.record_ingest(3);
        m.observe_window(&WindowObservation {
            window_ticks: 8,
            events: 4,
            staleness: 6.0,
            queue_depth: 1,
            predicted_work: 120.0,
            measured_work: 110,
            hash_tables_cross_reused: 2,
            operand_reads_cached: 5,
            carried_table_hits: 1,
            carried_raw_hits: 2,
            ..Default::default()
        });
        m.observe_window(&WindowObservation {
            window_ticks: 4,
            events: 2,
            staleness: 3.0,
            queue_depth: 0,
            predicted_work: 30.0,
            measured_work: 35,
            hash_tables_cross_reused: 1,
            operand_reads_cached: 0,
            carried_table_hits: 0,
            carried_raw_hits: 0,
            ..Default::default()
        });
        let text = m.render_prometheus(2);
        let scrape = uww_obs::prom::parse_text(&text).unwrap();
        assert_eq!(scrape.value("uww_maint_windows_total", &[]), Some(2.0));
        assert_eq!(scrape.value("uww_maint_events_total", &[]), Some(6.0));
        assert_eq!(scrape.value("uww_maint_window_ticks", &[]), Some(4.0));
        assert_eq!(scrape.value("uww_maint_staleness_ticks", &[]), Some(3.0));
        assert_eq!(
            scrape.value("uww_maint_staleness_mean_ticks", &[]),
            Some(5.0)
        );
        assert_eq!(scrape.value("uww_maint_queue_depth", &[]), Some(0.0));
        assert_eq!(
            scrape.value("uww_maint_predicted_work_total", &[]),
            Some(150.0)
        );
        assert_eq!(
            scrape.value("uww_maint_measured_work_total", &[]),
            Some(145.0)
        );
        assert_eq!(
            scrape.value("uww_maint_hash_tables_cross_reused_total", &[]),
            Some(3.0)
        );
        assert_eq!(
            scrape.value("uww_maint_operand_reads_cached_total", &[]),
            Some(5.0)
        );
        assert_eq!(
            scrape.value("uww_maint_carried_table_hits_total", &[]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_maint_carried_raw_hits_total", &[]),
            Some(2.0)
        );
        assert_eq!(scrape.value("uww_serve_ingest_rows_total", &[]), Some(3.0));
        assert_eq!(
            scrape.value("uww_serve_requests_total", &[("verb", "ingest")]),
            Some(1.0)
        );
    }

    #[test]
    fn model_gauges_round_trip_through_the_scrape() {
        let m = Metrics::new();
        m.observe_window(&WindowObservation {
            window_ticks: 8,
            events: 10,
            staleness: 5.0,
            predicted_work: 400.0,
            measured_work: 500,
            sla_target: 24.0,
            service_rate: 200.0,
            ..Default::default()
        });
        let text = m.render_prometheus(1);
        let scrape = uww_obs::prom::parse_text(&text).unwrap();
        assert_eq!(scrape.value("uww_model_service_rate", &[]), Some(200.0));
        assert_eq!(scrape.value("uww_model_sla_attainment", &[]), Some(1.0));
        // The spans-dropped counter renders even with no subscriber.
        assert_eq!(scrape.value("uww_obs_spans_dropped_total", &[]), Some(0.0));
        assert_eq!(
            scrape.value("uww_serve_ingest_rejects_total", &[]),
            Some(0.0)
        );
    }

    #[test]
    fn sla_attainment_and_rejects_reach_the_scrape() {
        let m = Metrics::new();
        m.record_ingest_reject();
        m.record_ingest_reject();
        // The second window misses the 24-tick SLA.
        for staleness in [6.0, 30.0] {
            m.observe_window(&WindowObservation {
                window_ticks: 8,
                events: 4,
                staleness,
                sla_target: 24.0,
                ..Default::default()
            });
        }
        let scrape = uww_obs::prom::parse_text(&m.render_prometheus(7)).unwrap();
        assert_eq!(scrape.value("uww_maint_windows_total", &[]), Some(2.0));
        assert_eq!(scrape.value("uww_model_sla_attainment", &[]), Some(0.5));
        assert_eq!(
            scrape.value("uww_maint_staleness_mean_ticks", &[]),
            Some(18.0)
        );
        assert_eq!(
            scrape.value("uww_serve_ingest_rejects_total", &[]),
            Some(2.0)
        );
        assert_eq!(scrape.value("uww_serve_catalog_epoch", &[]), Some(7.0));
    }

    #[test]
    fn custom_latency_buckets_reach_the_histogram() {
        let m = Metrics::with_latency_buckets(vec![50, 10, 50]);
        m.record_query(Duration::from_micros(30), 1, Duration::ZERO);
        let text = m.render_prometheus(0);
        let scrape = uww_obs::prom::parse_text(&text).unwrap();
        assert_eq!(
            scrape.value("uww_serve_query_latency_bucket", &[("le", "10")]),
            Some(0.0)
        );
        assert_eq!(
            scrape.value("uww_serve_query_latency_bucket", &[("le", "50")]),
            Some(1.0)
        );
        // Default bounds are absent under the override.
        assert_eq!(
            scrape.value("uww_serve_query_latency_bucket", &[("le", "250")]),
            None
        );
    }
}
