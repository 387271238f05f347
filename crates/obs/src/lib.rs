//! Observability for the update window.
//!
//! The paper's argument is about *where* work goes during the warehouse
//! update window; this crate makes that visible. It provides a
//! dependency-free, lock-cheap hierarchical span engine
//! (`run → expression → term → operator`, plus WAL-record, recovery-replay
//! and serve-request spans), two exporters, and a per-window ledger:
//!
//! * [`span`] — the engine itself: a process-global subscriber guarded by a
//!   single relaxed atomic, a thread-local current-span stack for parenting,
//!   and a bounded in-memory ring buffer of finished [`SpanRecord`]s. When no
//!   subscriber is installed every instrumentation point is one atomic load
//!   and an early return: no allocation, no lock, no clock read.
//! * [`chrome`] — Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`), with one lane per OS thread so `--partitions`
//!   overlap is visible, and a validator used by the golden tests and CI.
//! * [`prom`] — a Prometheus text-format registry (counters, gauges,
//!   histograms) plus a minimal scrape parser for round-trip tests.
//! * [`json`] — a minimal JSON parser (the workspace is offline; no serde)
//!   backing the Chrome-trace validator.
//! * [`ledger`] — the window-health flight recorder: one versioned JSONL
//!   record per update window (full meter, per-expression
//!   predicted-vs-measured work, cut policy, carry counters), appended
//!   crash-consistently after the window's WAL commit, with a
//!   [`validate_ledger`](ledger::validate_ledger) consistency checker.
//! * [`critical`] — partition critical-path derivation keyed by task
//!   identity (stable under work stealing).
//!
//! Spans carry wall-clock intervals *and* the executor's logical/physical
//! `WorkMeter` deltas as generic attributes — this crate knows nothing about
//! the meter type itself, only `u64`/`f64`/string attribute values, so it
//! sits below every other crate in the workspace. Spans carry measured
//! meters only; the planner's per-expression estimate beside them is
//! `uww explain`'s output and, per continuous window, the ledger's.

pub mod chrome;
pub mod critical;
pub mod json;
pub mod ledger;
pub mod prom;
pub mod span;

pub use span::{
    current_span_id, enabled, install, keys, span, span_dyn, span_under, span_under_dyn,
    subscriber, suppress, suppressed, uninstall, AttrValue, Span, SpanKind, SpanRecord,
    SuppressGuard, TraceBuffer, DEFAULT_CAPACITY,
};
