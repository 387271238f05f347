//! Hierarchical span engine.
//!
//! A *span* is a named wall-clock interval with a kind, a parent, a lane
//! (one per OS thread — the Chrome exporter maps lanes to trace rows), and a
//! bag of attributes. Finished spans land in a bounded ring buffer owned by
//! the installed [`TraceBuffer`]; when the ring is full the *oldest* span is
//! evicted, so the coarse run/expression spans — which finish last — survive
//! a flood of fine-grained operator spans.
//!
//! # Cost model
//!
//! Instrumentation points call [`span`] unconditionally. With no subscriber
//! installed that is a single relaxed atomic load followed by an early
//! return: no allocation, no lock, no `Instant::now()`. The
//! disabled-subscriber equivalence tests in the workspace rely on this.
//!
//! # Parenting across threads
//!
//! The current span is tracked in a thread local, so nesting is automatic
//! within one thread. Scoped worker threads (the partition pool, the
//! staged executor's `Comp` threads) do not inherit the spawning thread's stack;
//! callers capture [`current_span_id`] before spawning and open worker spans
//! with [`span_under`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span measures. The hierarchy in a normal run is
/// `Run → Stage? → Expression → Term → Operator`, with `WalRecord` spans
/// interleaved under the run/expression that wrote them, `Replay` spans under
/// a recovery run, and `ServeRequest` spans root-level in the query server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole strategy execution (the update window).
    Run,
    /// One stage of a parallel (staged) execution.
    Stage,
    /// One update expression: a `Comp` or an `Inst`.
    Expression,
    /// One maintenance term of a `Comp`.
    Term,
    /// One relational operator step inside a term (hash build, probe, …).
    Operator,
    /// One record appended to the write-ahead log, or (`snapshot`) the
    /// checkpoint that opens a log: snapshots, manifest and `BEGIN`.
    WalRecord,
    /// One expression replayed from the WAL during recovery.
    Replay,
    /// One request served by the online query server.
    ServeRequest,
}

impl SpanKind {
    /// Stable lowercase name, used as the Chrome-trace `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Stage => "stage",
            SpanKind::Expression => "expression",
            SpanKind::Term => "term",
            SpanKind::Operator => "operator",
            SpanKind::WalRecord => "wal_record",
            SpanKind::Replay => "replay",
            SpanKind::ServeRequest => "serve_request",
        }
    }
}

/// A span attribute value. The engine is deliberately ignorant of domain
/// types (`WorkMeter`, strategies, …); callers flatten them to these.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    F64(f64),
    Str(String),
}

/// Well-known attribute keys, shared between the instrumentation sites in
/// `uww-core`/`uww-serve` and the readers in this crate.
pub mod keys {
    /// `"comp"` or `"inst"` on expression spans.
    pub const EXPR_KIND: &str = "expr_kind";
    /// Target view name of an expression.
    pub const VIEW: &str = "view";
    /// Measured linear work (operand rows scanned + rows installed).
    pub const MEASURED_WORK: &str = "measured_work";
    /// Meter delta: operand rows scanned (logical).
    pub const ROWS_SCANNED: &str = "rows_scanned";
    /// Meter delta: rows installed.
    pub const ROWS_INSTALLED: &str = "rows_installed";
    /// Meter delta: intermediate rows emitted.
    pub const ROWS_EMITTED: &str = "rows_emitted";
    /// Meter delta: maintenance terms evaluated.
    pub const TERMS: &str = "terms";
    /// Meter delta: rows the executor physically touched.
    pub const PHYSICAL_ROWS: &str = "physical_rows";
    /// Meter delta: hash tables built from scratch.
    pub const HASH_BUILDS: &str = "hash_builds";
    /// Meter delta: hash tables served from the intern cache.
    pub const HASH_REUSES: &str = "hash_reuses";
    /// Meter delta: hash tables served from a table built by an *earlier
    /// expression* (strategy-scope cache). Subset of `hash_reuses`.
    pub const HASH_CROSS_REUSES: &str = "hash_cross_reuses";
    /// Meter delta: raw operand reads served from the strategy-scope cache.
    pub const CACHED_READS: &str = "cached_reads";
    /// WAL record sequence number.
    pub const SEQ: &str = "seq";
    /// WAL record length in bytes.
    pub const BYTES: &str = "bytes";
    /// Generic row count (operator outputs, query results).
    pub const ROWS: &str = "rows";
    /// Serve-protocol verb on request spans.
    pub const VERB: &str = "verb";
    /// Stage index on stage spans.
    pub const STAGE: &str = "stage";
    /// Continuous-ingest window index on window run spans.
    pub const WINDOW: &str = "window";
    /// Accumulation ticks of a continuous-ingest window.
    pub const WINDOW_TICKS: &str = "window_ticks";
    /// Delta events batched into a continuous-ingest window.
    pub const EVENTS: &str = "events";
    /// Mean event staleness (ticks, arrival → install) of a window.
    pub const STALENESS: &str = "staleness";
    /// Events still queued when a window was cut.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Slice index on a per-partition operator span (partition-parallel
    /// term execution); the critical path keys on it.
    pub const PARTITION: &str = "partition";
}

/// A finished span as stored in the ring buffer.
///
/// Timestamps are microseconds since the owning buffer's creation instant.
/// `end_us` is captured with the same monotone clock after every child has
/// ended, so `child.end_us <= parent.end_us` holds exactly (flooring a
/// monotone clock preserves order) — the span-tree invariant tests assert
/// this without tolerance.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique nonzero id.
    pub id: u64,
    /// Parent span id, `0` for roots.
    pub parent: u64,
    pub kind: SpanKind,
    pub name: String,
    /// Lane (one per OS thread that recorded spans); Chrome `tid`.
    pub lane: u64,
    /// Start, µs since buffer epoch.
    pub start_us: u64,
    /// End, µs since buffer epoch; `>= start_us`.
    pub end_us: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Convenience: attribute as `u64` if present and of that type.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: attribute as `f64` (accepts `U64` too).
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key) {
            Some(AttrValue::F64(v)) => Some(*v),
            Some(AttrValue::U64(v)) => Some(*v as f64),
            _ => None,
        }
    }
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
    pushed: u64,
}

/// Bounded sink for finished spans.
pub struct TraceBuffer {
    epoch: Instant,
    capacity: usize,
    /// Record one in `N` operator spans (1 = all). Coarser kinds are never
    /// sampled: dropping a parent would orphan its children.
    operator_sampling: u64,
    op_seen: AtomicU64,
    next_id: AtomicU64,
    inner: Mutex<Ring>,
}

/// Default ring capacity: enough for every span of a paper-scale run while
/// bounding memory under adversarial operator counts.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl TraceBuffer {
    /// A buffer holding at most `capacity` spans, recording every span.
    pub fn new(capacity: usize) -> Self {
        Self::with_operator_sampling(capacity, 1)
    }

    /// Like [`TraceBuffer::new`] but recording only one in `sampling`
    /// operator spans (coarser kinds are always recorded).
    pub fn with_operator_sampling(capacity: usize, sampling: u64) -> Self {
        TraceBuffer {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            operator_sampling: sampling.max(1),
            op_seen: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Ring {
                spans: VecDeque::new(),
                dropped: 0,
                pushed: 0,
            }),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, rec: SpanRecord) {
        let mut g = self.inner.lock().unwrap();
        g.pushed += 1;
        if g.spans.len() >= self.capacity {
            g.spans.pop_front();
            g.dropped += 1;
        }
        g.spans.push_back(rec);
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().spans.len()
    }

    /// True when no span has been recorded (or all were drained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Total spans ever pushed (recorded), including later-evicted ones.
    pub fn span_count(&self) -> u64 {
        self.inner.lock().unwrap().pushed
    }

    /// Clones the held spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().spans.iter().cloned().collect()
    }

    /// Drains the held spans, oldest first.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().spans.drain(..).collect()
    }
}

// ---------------------------------------------------------------------------
// Global subscriber.

/// Fast-path gate: instrumentation checks only this before touching the
/// subscriber lock. Relaxed ordering suffices — a call racing with
/// `install` may miss the first spans, which is inherent to dynamic
/// enabling, and the `Mutex` below orders access to the buffer itself.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: Mutex<Option<Arc<TraceBuffer>>> = Mutex::new(None);
/// Process-wide lane allocator; lanes identify OS threads in exports.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost live span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Lane assigned to this thread (0 = not yet assigned).
    static THREAD_LANE: Cell<u64> = const { Cell::new(0) };
    /// Nesting depth of [`suppress`] guards on this thread.
    static SUPPRESSED: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard from [`suppress`]: spans opened on this thread while the
/// guard lives are inert.
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESSED.with(|s| s.set(s.get() - 1));
    }
}

/// Suppresses span recording on the current thread until the returned guard
/// drops (nestable). Use around internal replays — e.g. a planner
/// re-executing a strategy on a scratch warehouse to predict its behavior —
/// so their spans don't pollute the real run's trace.
pub fn suppress() -> SuppressGuard {
    SUPPRESSED.with(|s| s.set(s.get() + 1));
    SuppressGuard(())
}

/// True while a [`suppress`] guard lives on the current thread. A fan-out
/// reads this before spawning so its workers can suppress too.
pub fn suppressed() -> bool {
    SUPPRESSED.with(|s| s.get()) > 0
}

/// Installs `buf` as the process-global subscriber and enables tracing.
/// Replaces any previous subscriber.
pub fn install(buf: Arc<TraceBuffer>) {
    *SUBSCRIBER.lock().unwrap() = Some(buf);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disables tracing and returns the previously installed buffer, if any.
/// Spans already open keep a handle to their buffer and still record on
/// drop; spans opened after this call are no-ops.
pub fn uninstall() -> Option<Arc<TraceBuffer>> {
    ENABLED.store(false, Ordering::Relaxed);
    SUBSCRIBER.lock().unwrap().take()
}

/// True when a subscriber is installed. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed subscriber, if any.
pub fn subscriber() -> Option<Arc<TraceBuffer>> {
    SUBSCRIBER.lock().unwrap().clone()
}

/// The innermost live span id on this thread (0 if none, or if tracing is
/// disabled). Capture this before spawning scoped workers and pass it to
/// [`span_under`] so worker spans parent correctly.
pub fn current_span_id() -> u64 {
    if !enabled() {
        return 0;
    }
    CURRENT.with(|c| c.get())
}

fn thread_lane() -> u64 {
    THREAD_LANE.with(|l| {
        let v = l.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(v);
            v
        }
    })
}

// ---------------------------------------------------------------------------
// Span guards.

struct Active {
    buf: Arc<TraceBuffer>,
    id: u64,
    parent: u64,
    kind: SpanKind,
    name: String,
    lane: u64,
    start_us: u64,
    /// Thread-local `CURRENT` value to restore on drop.
    prev: u64,
    attrs: Vec<(String, AttrValue)>,
}

/// RAII guard for an in-flight span. Records on drop; a guard created while
/// tracing is disabled (or sampled out) is inert and allocation-free.
pub struct Span(Option<Active>);

fn start(kind: SpanKind, explicit_parent: Option<u64>, name: impl FnOnce() -> String) -> Span {
    if !enabled() || suppressed() {
        return Span(None);
    }
    let Some(buf) = subscriber() else {
        return Span(None);
    };
    if kind == SpanKind::Operator && buf.operator_sampling > 1 {
        let n = buf.op_seen.fetch_add(1, Ordering::Relaxed);
        if n % buf.operator_sampling != 0 {
            return Span(None);
        }
    }
    let id = buf.next_id.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.get());
    let parent = explicit_parent.unwrap_or(prev);
    CURRENT.with(|c| c.set(id));
    let lane = thread_lane();
    let start_us = buf.now_us();
    Span(Some(Active {
        buf,
        id,
        parent,
        kind,
        name: name(),
        lane,
        start_us,
        prev,
        attrs: Vec::new(),
    }))
}

/// Opens a span parented to the innermost live span on this thread.
pub fn span(kind: SpanKind, name: &str) -> Span {
    start(kind, None, || name.to_string())
}

/// Like [`span`] but the name is built lazily — use when the name requires
/// formatting, so disabled tracing allocates nothing.
pub fn span_dyn(kind: SpanKind, name: impl FnOnce() -> String) -> Span {
    start(kind, None, name)
}

/// Opens a span under an explicit parent id (use 0 for a root). For worker
/// threads that do not inherit the spawner's thread-local stack.
pub fn span_under(kind: SpanKind, parent: u64, name: &str) -> Span {
    start(kind, Some(parent), || name.to_string())
}

/// [`span_under`] with a lazily built name.
pub fn span_under_dyn(kind: SpanKind, parent: u64, name: impl FnOnce() -> String) -> Span {
    start(kind, Some(parent), name)
}

impl Span {
    /// True when this guard will record a span on drop.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// This span's id (0 when inert). Pass to [`span_under`] from workers.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }

    /// Attaches a `u64` attribute. No-op when inert.
    pub fn attr_u64(&mut self, key: &str, value: u64) {
        if let Some(a) = self.0.as_mut() {
            a.attrs.push((key.to_string(), AttrValue::U64(value)));
        }
    }

    /// Attaches an `f64` attribute. No-op when inert.
    pub fn attr_f64(&mut self, key: &str, value: f64) {
        if let Some(a) = self.0.as_mut() {
            a.attrs.push((key.to_string(), AttrValue::F64(value)));
        }
    }

    /// Attaches a string attribute. No-op when inert.
    pub fn attr_str(&mut self, key: &str, value: &str) {
        if let Some(a) = self.0.as_mut() {
            a.attrs
                .push((key.to_string(), AttrValue::Str(value.to_string())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else {
            return;
        };
        CURRENT.with(|c| c.set(a.prev));
        let end_us = a.buf.now_us().max(a.start_us);
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            kind: a.kind,
            name: a.name,
            lane: a.lane,
            start_us: a.start_us,
            end_us,
            attrs: a.attrs,
        };
        a.buf.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The subscriber is process-global; tests that install one serialize
    /// through this lock so `cargo test`'s parallel runner cannot interleave
    /// their spans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing_and_reports_inert() {
        let _g = locked();
        uninstall();
        let mut s = span(SpanKind::Run, "nothing");
        assert!(!s.is_recording());
        assert_eq!(s.id(), 0);
        s.attr_u64("k", 1);
        drop(s);
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn spans_nest_via_thread_local_and_record_on_drop() {
        let _g = locked();
        let buf = Arc::new(TraceBuffer::new(64));
        install(buf.clone());
        {
            let run = span(SpanKind::Run, "run");
            let run_id = run.id();
            assert_eq!(current_span_id(), run_id);
            {
                let mut e = span(SpanKind::Expression, "expr");
                e.attr_u64(keys::ROWS_SCANNED, 42);
                assert_eq!(current_span_id(), e.id());
            }
            assert_eq!(current_span_id(), run_id);
        }
        uninstall();
        let recs = buf.records();
        assert_eq!(recs.len(), 2);
        // Children drop (and record) before parents.
        assert_eq!(recs[0].kind, SpanKind::Expression);
        assert_eq!(recs[1].kind, SpanKind::Run);
        assert_eq!(recs[0].parent, recs[1].id);
        assert_eq!(recs[1].parent, 0);
        assert_eq!(recs[0].attr_u64(keys::ROWS_SCANNED), Some(42));
        assert!(recs[0].start_us >= recs[1].start_us);
        assert!(recs[0].end_us <= recs[1].end_us);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let _g = locked();
        let buf = Arc::new(TraceBuffer::new(2));
        install(buf.clone());
        for i in 0..5 {
            let _s = span_dyn(SpanKind::Operator, || format!("op{i}"));
        }
        uninstall();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.span_count(), 5);
        let names: Vec<_> = buf.records().iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, ["op3", "op4"]);
    }

    #[test]
    fn operator_sampling_skips_but_keeps_coarse_kinds() {
        let _g = locked();
        let buf = Arc::new(TraceBuffer::with_operator_sampling(64, 4));
        install(buf.clone());
        for _ in 0..8 {
            let _s = span(SpanKind::Operator, "op");
        }
        for _ in 0..8 {
            let _s = span(SpanKind::Term, "t");
        }
        uninstall();
        let recs = buf.records();
        let ops = recs.iter().filter(|r| r.kind == SpanKind::Operator).count();
        let terms = recs.iter().filter(|r| r.kind == SpanKind::Term).count();
        assert_eq!(ops, 2);
        assert_eq!(terms, 8);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _g = locked();
        let buf = Arc::new(TraceBuffer::new(64));
        install(buf.clone());
        {
            let run = span(SpanKind::Run, "run");
            let parent = run.id();
            std::thread::scope(|s| {
                for w in 0..2 {
                    s.spawn(move || {
                        let _t = span_under_dyn(SpanKind::Term, parent, || format!("w{w}"));
                    });
                }
            });
        }
        uninstall();
        let recs = buf.records();
        let run = recs.iter().find(|r| r.kind == SpanKind::Run).unwrap();
        let terms: Vec<_> = recs.iter().filter(|r| r.kind == SpanKind::Term).collect();
        assert_eq!(terms.len(), 2);
        for t in &terms {
            assert_eq!(t.parent, run.id);
            assert_ne!(t.lane, run.lane, "workers get their own lanes");
        }
    }
}
