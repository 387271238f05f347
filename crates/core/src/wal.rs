//! The install write-ahead log: crash-safe journaling of strategy execution.
//!
//! The paper's update window is a long-running batch job — a crash halfway
//! through a multi-hour install would otherwise force a full rerun, exactly
//! the cost the strategies were chosen to avoid. This module makes execution
//! *resumable*: a WAL directory holds everything needed to redo a crashed
//! run from its last durable record (see [`crate::recovery`]).
//!
//! # Directory layout
//!
//! | file           | contents                                              |
//! |----------------|-------------------------------------------------------|
//! | `state.snap`   | binary image of the warehouse catalog **before** the run |
//! | `changes.snap` | binary image of the batch of base-view deltas being installed |
//! | `manifest`     | VDAG fingerprint, content digests of both snapshots, strategy hash, and the strategy itself in canonical execution order |
//! | `wal.log`      | append-only, checksummed records, one per line        |
//!
//! This is a **redo log**: the durable image is the snapshot, and recovery
//! re-applies completed work from the log (journaled ΔV fragments for
//! `Comp`, re-executed installs for `Inst`) before running the remaining
//! suffix fresh.
//!
//! # Record framing
//!
//! Every record is one line, `R <seq> <fnv64-of-body> <body>`. Bodies map
//! 1:1 onto the paper's expression boundaries:
//!
//! | body                                 | meaning                         |
//! |--------------------------------------|---------------------------------|
//! | `BEGIN`                              | run started                     |
//! | `STG <stage>`                        | parallel stage barrier entered  |
//! | `CS <idx>`                           | `Comp` expression started       |
//! | `CD <idx> <digest> <payload>`        | `Comp` done; ΔV fragment + digest |
//! | `IS <idx>`                           | `Inst` expression started       |
//! | `ID <idx> <rows> <post-digest>`      | `Inst` done; installed row count and content digest of the view's new extent |
//! | `COMMIT`                             | run completed                   |
//!
//! `<idx>` indexes the manifest's canonical expression order. The log is
//! written *ahead*: `CD` is appended before the fragment is merged into the
//! warehouse's pending ΔV, and `IS` before the extent is touched, so every
//! effect on warehouse state is covered by a durable record.
//!
//! State digests are the content digests every [`Table`](uww_relational::Table)
//! keeps up to date ([`catalog_digest`], [`deltas_digest`]): an `ID` record
//! costs O(1), and writing the snapshots is a window's one pass over the data.
//! The snapshots are images ([`write_catalog_image`]): rows in map order, no
//! sort, since [`WalLog::open`] checks them by those digests, not by bytes.
//!
//! # Reader tolerance
//!
//! [`WalLog::open`] drops a torn final record (the expected shape of a crash
//! mid-append) — and any final line without its newline, whose append never
//! returned — skips exact duplicate records idempotently, and refuses —
//! with [`CoreError::WalCorrupt`] — any interior checksum failure or
//! sequence anomaly, which can only mean damage or tampering.
//!
//! # Deterministic fault injection
//!
//! A [`FaultPlan`] makes crash testing exact rather than statistical: it
//! fires at a chosen record sequence number inside [`WalWriter::append`],
//! either refusing to write (`crash_before`), writing a truncated record
//! (`torn_at`), or writing the record twice (`duplicate_at`). The first two
//! surface as [`CoreError::InjectedCrash`], stopping the run at precisely
//! that boundary.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use uww_relational::{
    catalog_digest, catalog_from_image, delta_from_str, delta_to_string, deltas_digest,
    deltas_from_image, digest64, write_catalog_image, write_deltas_image, Catalog, DeltaRelation,
};
use uww_vdag::{UpdateExpr, Vdag};

use crate::engine::{PendingDelta, SummaryDelta};
use crate::error::{CoreError, CoreResult};

/// First line of the manifest file.
pub const MANIFEST_HEADER: &str = "# uww wal manifest v3";
/// Catalog snapshot file name inside a WAL directory.
pub const STATE_SNAP: &str = "state.snap";
/// Base-delta snapshot file name inside a WAL directory.
pub const CHANGES_SNAP: &str = "changes.snap";
/// Manifest file name inside a WAL directory.
pub const MANIFEST_FILE: &str = "manifest";
/// Log file name inside a WAL directory.
pub const LOG_FILE: &str = "wal.log";

fn io_err(ctx: &str, e: std::io::Error) -> CoreError {
    CoreError::Wal(format!("{ctx}: {e}"))
}

/// Writes `name` in the WAL directory so a crash leaves the old file or the
/// whole new one: `body` fills `name.tmp`, synced under [`FsyncPolicy::Always`]
/// and renamed over `name`. [`sync_dir`] then makes the new name durable.
pub(crate) fn write_file(
    cfg: &WalConfig,
    name: &str,
    body: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> CoreResult<()> {
    let io = |e| io_err(&format!("write {name}"), e);
    let tmp = cfg.dir.join(format!("{name}.tmp"));
    let mut file = File::create(&tmp).map_err(io)?;
    body(&mut file).map_err(io)?;
    if cfg.fsync == FsyncPolicy::Always {
        file.sync_all().map_err(io)?;
    }
    fs::rename(&tmp, cfg.dir.join(name)).map_err(io)
}

/// Makes the entries of directory `dir` durable.
pub(crate) fn sync_dir(dir: &Path) -> CoreResult<()> {
    let d = File::open(dir).map_err(|e| io_err("open wal dir", e))?;
    d.sync_all().map_err(|e| io_err("sync wal dir", e))
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When the writer calls `fsync` on the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every record — every acknowledged record survives a crash.
    #[default]
    Always,
    /// Never sync — fast, suitable for tests and fault-injection runs where
    /// the "crash" is simulated and the OS keeps running.
    Never,
}

impl FsyncPolicy {
    /// Wire name (`always` / `never`).
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> CoreResult<Self> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => Err(CoreError::Wal(format!("unknown fsync policy {s:?}"))),
        }
    }
}

/// A deterministic, seedless fault schedule, keyed by record sequence
/// number. At most one fault fires per plan in practice, but the fields are
/// independent so a test can combine them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Crash *before* writing the record with this sequence number: the
    /// record is never written and [`CoreError::InjectedCrash`] is returned.
    pub crash_before: Option<u64>,
    /// Write only a truncated prefix of this record (a torn write), then
    /// crash.
    pub torn_at: Option<u64>,
    /// Write this record twice (a retried append), then continue normally.
    pub duplicate_at: Option<u64>,
    /// Crash at the WAL-directory fsync point of [`WalWriter::create`],
    /// immediately after the directory entries are made durable and before
    /// the `BEGIN` record is appended. Fires only under
    /// [`FsyncPolicy::Always`] — which doubles as the regression check that
    /// the directory fsync actually happens on that policy.
    pub crash_at_dir_sync: bool,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crash before record `k` is written.
    pub fn crash_before(k: u64) -> Self {
        FaultPlan {
            crash_before: Some(k),
            ..FaultPlan::default()
        }
    }

    /// Tear record `k` (write a truncated prefix, then crash).
    pub fn torn_at(k: u64) -> Self {
        FaultPlan {
            torn_at: Some(k),
            ..FaultPlan::default()
        }
    }

    /// Duplicate record `k` (write it twice, keep going).
    pub fn duplicate_at(k: u64) -> Self {
        FaultPlan {
            duplicate_at: Some(k),
            ..FaultPlan::default()
        }
    }

    /// Crash at the directory-fsync point of WAL creation.
    pub fn crash_at_dir_sync() -> Self {
        FaultPlan {
            crash_at_dir_sync: true,
            ..FaultPlan::default()
        }
    }

    /// True when no fault is scheduled.
    pub fn is_none(&self) -> bool {
        self.crash_before.is_none()
            && self.torn_at.is_none()
            && self.duplicate_at.is_none()
            && !self.crash_at_dir_sync
    }
}

/// Where and how to journal an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// The WAL directory (created on begin; must not already hold a log).
    pub dir: PathBuf,
    /// Fsync policy for appended records.
    pub fsync: FsyncPolicy,
    /// Fault schedule for deterministic crash testing.
    pub faults: FaultPlan,
    /// Free-form `key value` context recorded in the manifest (e.g. the CLI
    /// scenario and scale, so `uww recover` can rebuild the warehouse).
    pub ctx: Vec<(String, String)>,
}

impl WalConfig {
    /// A config with the default (safe) fsync policy and no faults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            faults: FaultPlan::none(),
            ctx: Vec::new(),
        }
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Appends a manifest context pair.
    pub fn with_ctx(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.ctx.push((key.into(), value.into()));
        self
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The payload of one WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// Execution started.
    Begin,
    /// A parallel stage barrier was entered.
    Stage(usize),
    /// `Comp` expression `idx` (manifest order) started.
    CompStart(usize),
    /// `Comp` expression `idx` finished; the journaled ΔV fragment.
    CompDone {
        /// Manifest expression index.
        idx: usize,
        /// `digest64` of the encoded fragment (verified on replay).
        digest: u64,
        /// The encoded [`PendingDelta`] fragment ([`encode_pending`]).
        payload: String,
    },
    /// `Inst` expression `idx` started (the extent may be half-written
    /// after this point — recovery restores from the snapshot).
    InstStart(usize),
    /// `Inst` expression `idx` finished.
    InstDone {
        /// Manifest expression index.
        idx: usize,
        /// Number of delta rows installed (verified on replay).
        delta_len: u64,
        /// [`Table::digest`](uww_relational::Table::digest) of the view's
        /// stored extent after the install.
        post_digest: u64,
    },
    /// Execution completed; the log is closed.
    Commit,
}

impl RecordBody {
    /// The record's wire tag (the first token of its encoded form).
    pub fn tag(&self) -> &'static str {
        match self {
            RecordBody::Begin => "BEGIN",
            RecordBody::Stage(_) => "STG",
            RecordBody::CompStart(_) => "CS",
            RecordBody::CompDone { .. } => "CD",
            RecordBody::InstStart(_) => "IS",
            RecordBody::InstDone { .. } => "ID",
            RecordBody::Commit => "COMMIT",
        }
    }

    /// Serializes the body to its wire form (no framing).
    pub fn encode(&self) -> String {
        match self {
            RecordBody::Begin => "BEGIN".to_string(),
            RecordBody::Stage(s) => format!("STG {s}"),
            RecordBody::CompStart(i) => format!("CS {i}"),
            RecordBody::CompDone {
                idx,
                digest,
                payload,
            } => format!("CD {idx} {digest:016x} {}", escape(payload)),
            RecordBody::InstStart(i) => format!("IS {i}"),
            RecordBody::InstDone {
                idx,
                delta_len,
                post_digest,
            } => format!("ID {idx} {delta_len} {post_digest:016x}"),
            RecordBody::Commit => "COMMIT".to_string(),
        }
    }

    /// Parses a wire-form body.
    pub fn decode(s: &str) -> Result<RecordBody, String> {
        let (tag, rest) = match s.split_once(' ') {
            Some((t, r)) => (t, r),
            None => (s, ""),
        };
        match tag {
            "BEGIN" => Ok(RecordBody::Begin),
            "COMMIT" => Ok(RecordBody::Commit),
            "STG" => Ok(RecordBody::Stage(
                rest.parse().map_err(|_| format!("bad stage {rest:?}"))?,
            )),
            "CS" => Ok(RecordBody::CompStart(
                rest.parse().map_err(|_| format!("bad index {rest:?}"))?,
            )),
            "IS" => Ok(RecordBody::InstStart(
                rest.parse().map_err(|_| format!("bad index {rest:?}"))?,
            )),
            "CD" => {
                let mut parts = rest.splitn(3, ' ');
                let idx = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or("bad CD index")?;
                let digest = parts
                    .next()
                    .and_then(|p| u64::from_str_radix(p, 16).ok())
                    .ok_or("bad CD digest")?;
                let payload = unescape(parts.next().ok_or("missing CD payload")?)?;
                Ok(RecordBody::CompDone {
                    idx,
                    digest,
                    payload,
                })
            }
            "ID" => {
                let mut parts = rest.split(' ');
                let idx = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or("bad ID index")?;
                let delta_len = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or("bad ID row count")?;
                let post_digest = parts
                    .next()
                    .and_then(|p| u64::from_str_radix(p, 16).ok())
                    .ok_or("bad ID digest")?;
                Ok(RecordBody::InstDone {
                    idx,
                    delta_len,
                    post_digest,
                })
            }
            _ => Err(format!("unknown record tag {tag:?}")),
        }
    }
}

/// One parsed, checksum-verified WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Sequence number (0-based, dense).
    pub seq: u64,
    /// The payload.
    pub body: RecordBody,
}

/// Escapes a payload so it fits in a single record line (`\` and newline).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pending-delta payloads
// ---------------------------------------------------------------------------

/// Serializes a ΔV fragment for journaling in a `CD` record.
pub fn encode_pending(p: &PendingDelta) -> String {
    match p {
        PendingDelta::Rows(d) => format!("ROWS\n{}", delta_to_string(d)),
        PendingDelta::Summary(s) => format!("SUMM\n{}", s.to_wire()),
    }
}

/// Parses a fragment serialized by [`encode_pending`].
pub fn decode_pending(s: &str) -> CoreResult<PendingDelta> {
    let (tag, body) = s
        .split_once('\n')
        .ok_or_else(|| CoreError::Wal("truncated fragment payload".to_string()))?;
    match tag {
        "ROWS" => Ok(PendingDelta::Rows(delta_from_str(body)?)),
        "SUMM" => Ok(PendingDelta::Summary(SummaryDelta::from_wire(body)?)),
        _ => Err(CoreError::Wal(format!("unknown fragment tag {tag:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One strategy expression in the manifest's canonical execution order.
///
/// Expressions are stored by view *name* (`C <view> <over,...>` /
/// `I <view>`), so the manifest is self-contained and human-readable; the
/// VDAG fingerprint pins the graph the names resolve against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestExpr {
    /// Parallel stage this expression runs in (0 for sequential runs).
    pub stage: usize,
    /// Wire form of the expression.
    pub wire: String,
}

impl ManifestExpr {
    /// Renders an [`UpdateExpr`] into manifest wire form.
    pub fn from_expr(g: &Vdag, stage: usize, e: &UpdateExpr) -> ManifestExpr {
        let wire = match e {
            UpdateExpr::Comp { view, over } => {
                let names: Vec<&str> = over.iter().map(|v| g.name(*v)).collect();
                format!("C {} {}", g.name(*view), names.join(","))
            }
            UpdateExpr::Inst(v) => format!("I {}", g.name(*v)),
        };
        ManifestExpr { stage, wire }
    }

    /// Resolves the wire form back to an [`UpdateExpr`] against `g`.
    pub fn to_expr(&self, g: &Vdag) -> CoreResult<UpdateExpr> {
        let mut parts = self.wire.split(' ');
        let tag = parts.next().unwrap_or("");
        let view = parts
            .next()
            .ok_or_else(|| CoreError::Wal(format!("bad manifest expr {:?}", self.wire)))?;
        let view = g.id_of(view)?;
        match tag {
            "I" => Ok(UpdateExpr::Inst(view)),
            "C" => {
                let over = parts
                    .next()
                    .ok_or_else(|| CoreError::Wal(format!("bad manifest expr {:?}", self.wire)))?;
                let over = over
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|n| g.id_of(n).map_err(CoreError::from))
                    .collect::<CoreResult<_>>()?;
                Ok(UpdateExpr::Comp { view, over })
            }
            _ => Err(CoreError::Wal(format!("bad manifest expr {:?}", self.wire))),
        }
    }
}

/// The WAL manifest: what run this log belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// [`Vdag::fingerprint`] of the graph the strategy runs against.
    pub vdag_fingerprint: u64,
    /// [`catalog_digest`] of the warehouse `state.snap` holds.
    pub state_digest: u64,
    /// [`deltas_digest`] of the batch `changes.snap` holds.
    pub changes_digest: u64,
    /// Fsync policy the run was started with.
    pub fsync: FsyncPolicy,
    /// Free-form context (`key value` pairs) — e.g. the CLI records the
    /// scenario name and scale so `uww recover` can rebuild the warehouse.
    pub ctx: Vec<(String, String)>,
    /// The strategy in canonical execution order. For parallel runs this is
    /// the stage-by-stage linearization: each stage's `Comp`s (in stage
    /// order), then its `Inst`s.
    pub exprs: Vec<ManifestExpr>,
}

impl Manifest {
    /// Hash of the canonical expression sequence (order-sensitive).
    pub fn strategy_hash(&self) -> u64 {
        let joined: Vec<&str> = self.exprs.iter().map(|e| e.wire.as_str()).collect();
        digest64(&joined.join("\n"))
    }

    /// A context value by key.
    pub fn ctx(&self, key: &str) -> Option<&str> {
        self.ctx
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the manifest file.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{MANIFEST_HEADER}");
        let _ = writeln!(out, "vdag {:016x}", self.vdag_fingerprint);
        let _ = writeln!(out, "state {:016x}", self.state_digest);
        let _ = writeln!(out, "changes {:016x}", self.changes_digest);
        let _ = writeln!(out, "strategy {:016x}", self.strategy_hash());
        let _ = writeln!(out, "fsync {}", self.fsync.as_str());
        for (k, v) in &self.ctx {
            let _ = writeln!(out, "ctx {k} {v}");
        }
        for (i, e) in self.exprs.iter().enumerate() {
            let _ = writeln!(out, "expr {i} {} {}", e.stage, e.wire);
        }
        out
    }

    /// Parses a manifest file, verifying the embedded strategy hash.
    pub fn parse(s: &str) -> CoreResult<Manifest> {
        let bad = |d: String| CoreError::Wal(format!("manifest: {d}"));
        let mut lines = s.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(bad("missing header".to_string()));
        }
        let mut vdag_fingerprint = None;
        let mut state_digest = None;
        let mut changes_digest = None;
        let mut strategy = None;
        let mut fsync = FsyncPolicy::default();
        let mut ctx = Vec::new();
        let mut exprs: Vec<ManifestExpr> = Vec::new();
        for line in lines {
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("bad line {line:?}")))?;
            match key {
                "vdag" => vdag_fingerprint = u64::from_str_radix(rest, 16).ok(),
                "state" => state_digest = u64::from_str_radix(rest, 16).ok(),
                "changes" => changes_digest = u64::from_str_radix(rest, 16).ok(),
                "strategy" => strategy = u64::from_str_radix(rest, 16).ok(),
                "fsync" => fsync = FsyncPolicy::parse(rest)?,
                "ctx" => {
                    let (k, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| bad(format!("bad ctx line {line:?}")))?;
                    ctx.push((k.to_string(), v.to_string()));
                }
                "expr" => {
                    let mut parts = rest.splitn(3, ' ');
                    let idx: usize = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| bad(format!("bad expr index in {line:?}")))?;
                    let stage: usize = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| bad(format!("bad expr stage in {line:?}")))?;
                    let wire = parts
                        .next()
                        .ok_or_else(|| bad(format!("bad expr line {line:?}")))?;
                    if idx != exprs.len() {
                        return Err(bad(format!(
                            "expr index {idx} out of order (expected {})",
                            exprs.len()
                        )));
                    }
                    exprs.push(ManifestExpr {
                        stage,
                        wire: wire.to_string(),
                    });
                }
                _ => return Err(bad(format!("unknown key {key:?}"))),
            }
        }
        let m = Manifest {
            vdag_fingerprint: vdag_fingerprint.ok_or_else(|| bad("missing vdag".to_string()))?,
            state_digest: state_digest.ok_or_else(|| bad("missing state".to_string()))?,
            changes_digest: changes_digest.ok_or_else(|| bad("missing changes".to_string()))?,
            fsync,
            ctx,
            exprs,
        };
        let declared = strategy.ok_or_else(|| bad("missing strategy hash".to_string()))?;
        if declared != m.strategy_hash() {
            return Err(bad(format!(
                "strategy hash mismatch: declared {declared:016x}, computed {:016x}",
                m.strategy_hash()
            )));
        }
        Ok(m)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends checksummed records to `wal.log`, with fsync and fault injection.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    next_seq: u64,
    fsync: FsyncPolicy,
    faults: FaultPlan,
}

impl WalWriter {
    /// Creates a fresh WAL directory — snapshots, manifest, and a log opened
    /// with a `BEGIN` record — and returns the writer positioned after it.
    /// The snapshots stream to their files; `manifest` must carry their
    /// content digests.
    ///
    /// Refuses to overwrite a directory that already holds a log: a crashed
    /// run's WAL is evidence, and clobbering it silently would defeat the
    /// point.
    pub fn create(
        cfg: &WalConfig,
        manifest: &Manifest,
        state: &Catalog,
        changes: &[(&str, &DeltaRelation)],
    ) -> CoreResult<WalWriter> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create wal dir", e))?;
        let log_path = cfg.dir.join(LOG_FILE);
        if log_path.exists() {
            return Err(CoreError::Wal(format!(
                "refusing to overwrite existing log {}",
                log_path.display()
            )));
        }
        write_file(cfg, STATE_SNAP, |out| write_catalog_image(out, state))?;
        write_file(cfg, CHANGES_SNAP, |out| {
            write_deltas_image(out, changes.iter().copied())
        })?;
        write_file(cfg, MANIFEST_FILE, |out| {
            out.write_all(manifest.render().as_bytes())
        })?;
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| io_err("open wal.log", e))?;
        if cfg.fsync == FsyncPolicy::Always {
            // Syncing the files is not enough: their directory entries live
            // in the parent directory's metadata, and a crash before that
            // metadata reaches disk can leave a fully-synced snapshot with
            // no name — recovery would find an empty or partial WAL dir.
            // One directory fsync after the last create makes the whole set
            // (snapshots, manifest, empty log) durable as a unit.
            sync_dir(&cfg.dir)?;
            if cfg.faults.crash_at_dir_sync {
                // The directory entries are durable; BEGIN (seq 0) is not.
                return Err(CoreError::InjectedCrash { record: 0 });
            }
        }
        let mut w = WalWriter {
            file,
            next_seq: 0,
            fsync: cfg.fsync,
            faults: cfg.faults,
        };
        w.append(&RecordBody::Begin)?;
        Ok(w)
    }

    /// Reopens an existing log for continuation after recovery: truncates
    /// the torn tail (if any) and appends at the next sequence number.
    pub fn resume(cfg: &WalConfig, log: &WalLog) -> CoreResult<WalWriter> {
        let file = OpenOptions::new()
            .append(true)
            .open(cfg.dir.join(LOG_FILE))
            .map_err(|e| io_err("open wal.log", e))?;
        file.set_len(log.valid_len)
            .map_err(|e| io_err("truncate torn tail", e))?;
        Ok(WalWriter {
            file,
            next_seq: log.next_seq,
            fsync: cfg.fsync,
            faults: cfg.faults,
        })
    }

    /// Sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record (write-ahead: call *before* applying its effect).
    /// Returns the record's sequence number, or the injected crash.
    pub fn append(&mut self, body: &RecordBody) -> CoreResult<u64> {
        let mut span = uww_obs::span(uww_obs::SpanKind::WalRecord, body.tag());
        let seq = self.next_seq;
        if self.faults.crash_before == Some(seq) {
            return Err(CoreError::InjectedCrash { record: seq });
        }
        let body_s = body.encode();
        let line = format!("R {seq} {:016x} {body_s}\n", digest64(&body_s));
        if span.is_recording() {
            span.attr_u64(uww_obs::keys::SEQ, seq);
            span.attr_u64(uww_obs::keys::BYTES, line.len() as u64);
        }
        if self.faults.torn_at == Some(seq) {
            let cut = (line.len() / 2).max(1);
            self.file
                .write_all(&line.as_bytes()[..cut])
                .map_err(|e| io_err("append (torn)", e))?;
            let _ = self.file.sync_all();
            return Err(CoreError::InjectedCrash { record: seq });
        }
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err("append", e))?;
        if self.faults.duplicate_at == Some(seq) {
            self.file
                .write_all(line.as_bytes())
                .map_err(|e| io_err("append (duplicate)", e))?;
        }
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_all().map_err(|e| io_err("fsync", e))?;
        }
        self.next_seq = seq + 1;
        Ok(seq)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A fully read and verified WAL directory.
#[derive(Debug, Clone)]
pub struct WalLog {
    /// The parsed manifest.
    pub manifest: Manifest,
    /// The warehouse `state.snap` holds, digest-verified against the manifest.
    pub state: Catalog,
    /// The batch `changes.snap` holds, digest-verified against the manifest.
    pub changes: BTreeMap<String, DeltaRelation>,
    /// Verified records in sequence order (duplicates collapsed).
    pub records: Vec<Record>,
    /// Sequence number for the next appended record.
    pub next_seq: u64,
    /// Byte length of the valid log prefix (everything after is torn tail).
    pub valid_len: u64,
    /// True when a torn final record was dropped.
    pub torn_tail: bool,
    /// True when the log ends in `COMMIT` (the run finished).
    pub committed: bool,
}

impl WalLog {
    /// Opens and verifies a WAL directory.
    ///
    /// * a torn final record is tolerated and dropped ([`Self::torn_tail`]),
    ///   and so is a final line missing its newline, however it parses;
    /// * exact duplicate records are skipped idempotently;
    /// * any interior checksum failure, sequence anomaly, or record after
    ///   `COMMIT` is [`CoreError::WalCorrupt`].
    pub fn open(dir: &Path) -> CoreResult<WalLog> {
        let read = |n: &str| fs::read(dir.join(n)).map_err(|e| io_err(&format!("read {n}"), e));
        let manifest = String::from_utf8(read(MANIFEST_FILE)?)
            .map_err(|_| CoreError::Wal("manifest: not UTF-8".to_string()))?;
        let manifest = Manifest::parse(&manifest)?;
        let damaged = |name: &str| CoreError::Wal(format!("{name} digest mismatch"));
        let bad = |name: &str, e| CoreError::Wal(format!("{name}: {e}"));
        let state = catalog_from_image(&read(STATE_SNAP)?).map_err(|e| bad(STATE_SNAP, e))?;
        if catalog_digest(&state) != manifest.state_digest {
            return Err(damaged(STATE_SNAP));
        }
        let changes = deltas_from_image(&read(CHANGES_SNAP)?).map_err(|e| bad(CHANGES_SNAP, e))?;
        if deltas_digest(changes.iter().map(|(n, d)| (n.as_str(), d))) != manifest.changes_digest {
            return Err(damaged(CHANGES_SNAP));
        }

        let bytes = read(LOG_FILE)?;
        let mut records: Vec<Record> = Vec::new();
        let mut prev_raw: Option<&[u8]> = None;
        let mut valid_len = 0;
        let mut torn_tail = false;
        let mut committed = false;
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').peekable();
        while let Some(piece) = lines.next() {
            let expected = records.last().map(|r| r.seq + 1).unwrap_or(0);
            // Only the last piece can lack its newline; its append never
            // returned, so it is torn however it parses, and `resume` cuts it.
            let Some(raw) = piece.strip_suffix(b"\n") else {
                torn_tail = true;
                break;
            };
            match parse_record_line(raw) {
                // An exact duplicate of the previous record is idempotent.
                Ok((seq, _)) if Some(raw) == prev_raw && seq + 1 == expected => {}
                Ok((seq, body)) => {
                    if committed {
                        return Err(CoreError::WalCorrupt {
                            record: seq,
                            detail: "record after COMMIT".to_string(),
                        });
                    }
                    if seq != expected {
                        return Err(CoreError::WalCorrupt {
                            record: seq,
                            detail: format!("sequence gap: expected {expected}"),
                        });
                    }
                    committed = body == RecordBody::Commit;
                    records.push(Record { seq, body });
                    prev_raw = Some(raw);
                }
                // The expected shape of a crash mid-append.
                Err(_) if lines.peek().is_none() => {
                    torn_tail = true;
                    break;
                }
                Err(detail) => {
                    return Err(CoreError::WalCorrupt {
                        record: expected,
                        detail,
                    })
                }
            }
            valid_len += piece.len() as u64;
        }

        let next_seq = records.last().map(|r| r.seq + 1).unwrap_or(0);
        Ok(WalLog {
            manifest,
            state,
            changes,
            records,
            next_seq,
            valid_len,
            torn_tail,
            committed,
        })
    }
}

/// Parses one framed record line (without trailing newline).
fn parse_record_line(raw: &[u8]) -> Result<(u64, RecordBody), String> {
    let s = std::str::from_utf8(raw).map_err(|_| "not utf-8".to_string())?;
    let rest = s.strip_prefix("R ").ok_or("missing R prefix")?;
    let (seq, rest) = rest.split_once(' ').ok_or("missing sequence number")?;
    let seq: u64 = seq.parse().map_err(|_| format!("bad sequence {seq:?}"))?;
    let (crc, body) = rest.split_once(' ').ok_or("missing checksum")?;
    let crc = u64::from_str_radix(crc, 16).map_err(|_| format!("bad checksum {crc:?}"))?;
    if digest64(body) != crc {
        return Err(format!(
            "checksum mismatch: header {crc:016x}, body hashes to {:016x}",
            digest64(body)
        ));
    }
    let body = RecordBody::decode(body)?;
    Ok((seq, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("uww-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn test_manifest() -> (Manifest, Catalog) {
        let state = Catalog::new();
        let m = Manifest {
            vdag_fingerprint: 7,
            state_digest: catalog_digest(&state),
            changes_digest: deltas_digest([]),
            fsync: FsyncPolicy::Never,
            ctx: vec![("scenario".to_string(), "unit test run".to_string())],
            exprs: vec![
                ManifestExpr {
                    stage: 0,
                    wire: "C V A,B".to_string(),
                },
                ManifestExpr {
                    stage: 0,
                    wire: "I V".to_string(),
                },
            ],
        };
        (m, state)
    }

    fn cfg(dir: &Path) -> WalConfig {
        WalConfig::new(dir).with_fsync(FsyncPolicy::Never)
    }

    #[test]
    fn create_syncs_wal_directory_under_always() {
        // The crash_at_dir_sync fault fires *at* the directory-fsync point,
        // so an injected crash under `always` proves the fsync call is
        // reached after every file exists — the durability fix. Under
        // `never` the sync (and the fault) must be skipped entirely.
        let d = tmpdir("dirsync-always");
        let (m, state) = test_manifest();
        let c = WalConfig::new(&d)
            .with_fsync(FsyncPolicy::Always)
            .with_faults(FaultPlan::crash_at_dir_sync());
        let err = WalWriter::create(&c, &m, &state, &[]).unwrap_err();
        assert!(matches!(err, CoreError::InjectedCrash { record: 0 }));
        // The crash happens after the directory entries are durable: every
        // file exists, the log is empty, and the state left behind is
        // exactly the crash-before-BEGIN state recovery already handles.
        for f in [STATE_SNAP, CHANGES_SNAP, MANIFEST_FILE, LOG_FILE] {
            assert!(d.join(f).exists(), "{f} missing after dir-sync crash");
        }
        assert_eq!(fs::metadata(d.join(LOG_FILE)).unwrap().len(), 0);
        let log = WalLog::open(&d).unwrap();
        assert_eq!(log.records.len(), 0);
        let _ = fs::remove_dir_all(&d);

        // FsyncPolicy::Never skips the directory sync, so the same fault
        // plan never fires and creation completes.
        let d2 = tmpdir("dirsync-never");
        let c2 = cfg(&d2).with_faults(FaultPlan::crash_at_dir_sync());
        let w = WalWriter::create(&c2, &m, &state, &[]).unwrap();
        assert_eq!(w.next_seq(), 1); // BEGIN written
        let _ = fs::remove_dir_all(&d2);
    }

    #[test]
    fn dir_sync_fault_plan_is_a_scheduled_fault() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::crash_at_dir_sync().is_none());
    }

    #[test]
    fn record_bodies_round_trip() {
        let bodies = [
            RecordBody::Begin,
            RecordBody::Stage(3),
            RecordBody::CompStart(7),
            RecordBody::CompDone {
                idx: 7,
                digest: 0xdead_beef,
                payload: "ROWS\nline one\ttab \\ backslash\nline two\n".to_string(),
            },
            RecordBody::InstStart(8),
            RecordBody::InstDone {
                idx: 8,
                delta_len: 42,
                post_digest: 1,
            },
            RecordBody::Commit,
        ];
        for b in bodies {
            let enc = b.encode();
            assert!(!enc.contains('\n'), "encoded body must be one line: {enc}");
            assert_eq!(RecordBody::decode(&enc).unwrap(), b);
        }
        assert!(RecordBody::decode("XX 1").is_err());
        assert!(RecordBody::decode("CD 1 zz p").is_err());
    }

    #[test]
    fn manifest_round_trip_and_tamper_detection() {
        let (m, _) = test_manifest();
        let text = m.render();
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.ctx("scenario"), Some("unit test run"));
        // Reordering the strategy breaks the embedded hash.
        let tampered = text.replace("expr 0 0 C V A,B", "expr 0 0 C V B,A");
        assert!(matches!(
            Manifest::parse(&tampered),
            Err(CoreError::Wal(d)) if d.contains("strategy hash mismatch")
        ));
        assert!(Manifest::parse("not a manifest").is_err());
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = tmpdir("rt");
        let (m, state) = test_manifest();
        let mut w = WalWriter::create(&cfg(&dir), &m, &state, &[]).unwrap();
        w.append(&RecordBody::CompStart(0)).unwrap();
        w.append(&RecordBody::CompDone {
            idx: 0,
            digest: 9,
            payload: "ROWS\nx\n".to_string(),
        })
        .unwrap();
        w.append(&RecordBody::Commit).unwrap();
        let log = WalLog::open(&dir).unwrap();
        assert_eq!(log.records.len(), 4);
        assert!(log.committed);
        assert!(!log.torn_tail);
        assert_eq!(log.next_seq, 4);
        assert_eq!(log.manifest, m);
        // A second create refuses to clobber the log.
        assert!(matches!(
            WalWriter::create(&cfg(&dir), &m, &state, &[]),
            Err(CoreError::Wal(d)) if d.contains("refusing to overwrite")
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_writes_nothing() {
        let dir = tmpdir("crash");
        let (m, state) = test_manifest();
        let c = cfg(&dir).with_faults(FaultPlan::crash_before(2));
        let mut w = WalWriter::create(&c, &m, &state, &[]).unwrap();
        w.append(&RecordBody::CompStart(0)).unwrap();
        assert_eq!(
            w.append(&RecordBody::CompDone {
                idx: 0,
                digest: 0,
                payload: String::new()
            }),
            Err(CoreError::InjectedCrash { record: 2 })
        );
        let log = WalLog::open(&dir).unwrap();
        assert_eq!(log.records.len(), 2); // BEGIN + CS only
        assert!(!log.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_resume_truncates_it() {
        let dir = tmpdir("torn");
        let (m, state) = test_manifest();
        let c = cfg(&dir).with_faults(FaultPlan::torn_at(2));
        let mut w = WalWriter::create(&c, &m, &state, &[]).unwrap();
        w.append(&RecordBody::CompStart(0)).unwrap();
        assert!(matches!(
            w.append(&RecordBody::CompDone {
                idx: 0,
                digest: 0,
                payload: "ROWS\nx\n".to_string()
            }),
            Err(CoreError::InjectedCrash { record: 2 })
        ));
        drop(w);
        let log = WalLog::open(&dir).unwrap();
        assert_eq!(log.records.len(), 2);
        assert!(log.torn_tail);
        assert_eq!(log.next_seq, 2);
        // Resume truncates the torn bytes and continues the sequence.
        let mut w = WalWriter::resume(&cfg(&dir), &log).unwrap();
        assert_eq!(w.append(&RecordBody::Commit).unwrap(), 2);
        let log = WalLog::open(&dir).unwrap();
        assert!(!log.torn_tail);
        assert!(log.committed);
        assert_eq!(log.records.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_missing_only_its_newline_is_torn_and_resume_cuts_it() {
        let dir = tmpdir("torn-newline");
        let (m, state) = test_manifest();
        let mut w = WalWriter::create(&cfg(&dir), &m, &state, &[]).unwrap();
        w.append(&RecordBody::InstStart(0)).unwrap();
        drop(w);
        // The crash cut the `IS 0` record just before its newline: the line
        // parses, but its append never returned.
        let path = dir.join(LOG_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.strip_suffix('\n').unwrap()).unwrap();
        let log = WalLog::open(&dir).unwrap();
        assert_eq!((log.records.len(), log.torn_tail), (1, true));
        // Resuming must not append onto the unterminated line.
        let mut w = WalWriter::resume(&cfg(&dir), &log).unwrap();
        w.append(&RecordBody::CompStart(1)).unwrap();
        w.append(&RecordBody::Commit).unwrap();
        let log = WalLog::open(&dir).unwrap();
        assert_eq!((log.records.len(), log.committed), (3, true));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_records_are_idempotent() {
        let dir = tmpdir("dup");
        let (m, state) = test_manifest();
        let c = cfg(&dir).with_faults(FaultPlan::duplicate_at(1));
        let mut w = WalWriter::create(&c, &m, &state, &[]).unwrap();
        w.append(&RecordBody::CompStart(0)).unwrap();
        w.append(&RecordBody::Commit).unwrap();
        let log = WalLog::open(&dir).unwrap();
        assert_eq!(log.records.len(), 3); // duplicate CS collapsed
        assert!(log.committed);
        assert!(!log.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_loud() {
        let dir = tmpdir("corrupt");
        let (m, state) = test_manifest();
        let mut w = WalWriter::create(&cfg(&dir), &m, &state, &[]).unwrap();
        w.append(&RecordBody::CompStart(0)).unwrap();
        w.append(&RecordBody::Commit).unwrap();
        drop(w);
        // Flip a byte in the middle record's body.
        let path = dir.join(LOG_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let bad = text.replace("CS 0", "CS 1");
        assert_ne!(text, bad);
        fs::write(&path, bad).unwrap();
        assert!(matches!(
            WalLog::open(&dir),
            Err(CoreError::WalCorrupt { record: 1, .. })
        ));
        // Damaging the state snapshot is also loud.
        fs::write(&path, text).unwrap();
        fs::write(dir.join(STATE_SNAP), "# not the snapshot\n").unwrap();
        assert!(matches!(WalLog::open(&dir), Err(CoreError::Wal(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_is_corrupt_even_at_tail() {
        let dir = tmpdir("gap");
        let (m, state) = test_manifest();
        let mut w = WalWriter::create(&cfg(&dir), &m, &state, &[]).unwrap();
        w.append(&RecordBody::CompStart(0)).unwrap();
        drop(w);
        let path = dir.join(LOG_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        // Append a validly-checksummed record with a skipped sequence number.
        let body = RecordBody::Commit.encode();
        text.push_str(&format!("R 5 {:016x} {body}\n", digest64(&body)));
        fs::write(&path, text).unwrap();
        assert!(matches!(
            WalLog::open(&dir),
            Err(CoreError::WalCorrupt { record: 5, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pending_payloads_round_trip() {
        use uww_relational::{tup, DeltaRelation, Schema, Value, ValueType};
        let schema = Schema::of(&[("k", ValueType::Int), ("s", ValueType::Str)]);
        let mut d = DeltaRelation::new(schema);
        d.add(tup![Value::Int(1), Value::Str("a\nb\\c\td".into())], 2);
        d.add(tup![Value::Int(2), Value::Str("plain".into())], -1);
        let p = PendingDelta::Rows(d);
        let enc = encode_pending(&p);
        let back = decode_pending(&enc).unwrap();
        assert_eq!(encode_pending(&back), enc);
        assert_eq!(digest64(&encode_pending(&back)), digest64(&enc));
        // And survives record framing (escape/unescape).
        let rec = RecordBody::CompDone {
            idx: 0,
            digest: digest64(&enc),
            payload: enc.clone(),
        };
        match RecordBody::decode(&rec.encode()).unwrap() {
            RecordBody::CompDone { payload, .. } => assert_eq!(payload, enc),
            other => panic!("unexpected {other:?}"),
        }
        assert!(decode_pending("BOGUS\nx").is_err());
    }
}
