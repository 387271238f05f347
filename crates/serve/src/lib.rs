//! # uww-serve
//!
//! The online serving subsystem: a threaded TCP query server over the
//! warehouse's [`VersionedCatalog`](uww_relational::VersionedCatalog).
//!
//! The paper's argument (§7) is that the update window matters because OLAP
//! readers are locked out or slowed while the batch update runs. The
//! `uww-core` simulation (`olap::simulate`) models that interference in
//! discrete time; this crate *measures* it. An update strategy executes on
//! one thread, publishing each committed window as one catalog version,
//! while the server answers reader queries on a bounded worker pool. Both
//! of the paper's isolation regimes are served:
//!
//! * [`Isolation::Strict`] — reads take the read half of the install-phase
//!   lock a window holds from its first install through its publish, so a
//!   read stalls for the rest of the install phase (the locking regime);
//! * [`Isolation::Mvcc`] — readers pin an immutable catalog version and
//!   never wait; a window's only reader-visible effect is the atomic epoch
//!   bump (the paper's "lower isolation levels" regime, made safe).
//!
//! ## Protocol
//!
//! A line-oriented text protocol, one request per line:
//!
//! ```text
//! QUERY <view>      -> OK <view> <rows> <digest:16-hex> <epoch>
//! SNAPSHOT          -> EPOCH <epoch>, then VIEW <name> <rows> <digest> per
//!                      view (name order), then END
//! METRICS           -> the server's metrics in Prometheus text format
//!                      (multi-line), terminated by a "# EOF" line
//! INGEST <view> <count> <value>...
//!                   -> OK <view> <count>; hands one base-view delta row
//!                      (wire-encoded values, signed multiplicity) to the
//!                      server's [`IngestSink`] — ERR when no sink is
//!                      configured
//! QUIT              -> BYE (connection closes)
//! anything else     -> ERR <message>
//! ```
//!
//! A request line longer than 64 KiB is answered
//! `ERR request line too long` and the connection closes.
//!
//! `METRICS` is the one observation verb, rendered by
//! [`Metrics::render_prometheus`]: per-verb request counters
//! (`uww_serve_requests_total{verb=…}`), a query-latency histogram
//! (bucket bounds configurable via [`ServerConfig::latency_buckets`]),
//! catalog epoch / uptime gauges and, once a maintenance loop reports
//! windows, the `uww_maint_*` window gauges with the `uww_model_*`
//! service-rate and SLA-attainment gauges. In-process callers read exact
//! latency percentiles from [`Server::metrics`] and [`Server::shutdown`].
//!
//! `QUERY` digests the view's whole extent by walking every row
//! ([`table_digest`](uww_relational::table_digest): the content digest a
//! table keeps and the WAL journals), so a
//! response commits the server to an exact extent — the concurrency tests
//! assert every `SNAPSHOT`'s digest vector equals the whole pre-window or
//! the whole post-window catalog, which is precisely the "no torn reads"
//! guarantee.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Client, QueryReply, SnapshotReply};
pub use metrics::{percentile_us, Metrics, MetricsSnapshot, Verb, WindowObservation};
pub use protocol::Request;
pub use server::{IngestSink, Server, ServerConfig};

/// How reader queries interact with in-flight installs.
///
/// The serving counterpart of `uww-core`'s simulated
/// `IsolationMode { Strict, LowIsolation }`: `Strict` maps to `Strict`,
/// `Mvcc` is the safe implementation of `LowIsolation` (no locks, no torn
/// reads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isolation {
    /// Readers take the read half of the install-phase lock a window holds
    /// from its first install through its publish.
    Strict,
    /// Readers pin an immutable catalog version; installs never block them.
    Mvcc,
}

impl Isolation {
    /// Parses `"strict"` or `"mvcc"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Isolation> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Some(Isolation::Strict),
            "mvcc" => Some(Isolation::Mvcc),
            _ => None,
        }
    }

    /// The lowercase label (`"strict"` / `"mvcc"`).
    pub fn label(self) -> &'static str {
        match self {
            Isolation::Strict => "strict",
            Isolation::Mvcc => "mvcc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_parsing_round_trips() {
        for iso in [Isolation::Strict, Isolation::Mvcc] {
            assert_eq!(Isolation::parse(iso.label()), Some(iso));
        }
        assert_eq!(Isolation::parse("STRICT"), Some(Isolation::Strict));
        assert_eq!(Isolation::parse("serializable"), None);
    }
}
