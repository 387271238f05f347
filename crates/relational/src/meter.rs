//! Work metering.
//!
//! The paper's linear work metric charges, for every maintenance term, the
//! sizes of the operands the term scans, and for every install the size of
//! the delta being installed. The engine meters exactly those events as it
//! executes, so the *measured* work of a strategy can be compared against the
//! planner's *predicted* work and against wall-clock time.
//!
//! The meter distinguishes two views of that work:
//!
//! * **logical** — what the paper's model charges. `operand_rows_scanned`
//!   counts a full operand scan for *every* term that names the operand,
//!   whether or not the executor actually re-read it. Planner decisions
//!   (MinWork/Prune) are made against this metric, so it must not move when
//!   the executor gets smarter.
//! * **physical** — rows the executor actually touched: each operand
//!   materialization, each pushed-down filter pass and each hash-table build
//!   pass counts its input rows once. The shared-operand term engine and its
//!   maintained indexes shrink this without moving the logical metric.

use std::fmt;

/// Counters accumulated while executing update expressions.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct WorkMeter {
    /// Rows scanned from term operands (stored tables and delta relations).
    /// This is the quantity the linear work metric models for `Comp`.
    pub operand_rows_scanned: u64,
    /// Rows written by installs (plus + minus): the metric's `Inst` quantity.
    pub rows_installed: u64,
    /// Rows produced by intermediate operators (join/filter outputs). Not part
    /// of the paper's metric; useful for diagnosing where time goes.
    pub rows_emitted: u64,
    /// Number of maintenance terms evaluated.
    pub terms_evaluated: u64,
    /// Number of `Comp` expressions executed.
    pub comp_expressions: u64,
    /// Number of `Inst` expressions executed.
    pub inst_expressions: u64,
    /// Rows the executor *actually* read: operand materializations,
    /// pushed-down filter passes and hash-table build passes. Without operand sharing this tracks
    /// `operand_rows_scanned` plus build inputs; with sharing it drops while
    /// the logical counters stay put.
    pub physical_rows_touched: u64,
    /// Hash-join build tables constructed from scratch.
    pub hash_tables_built: u64,
    /// Hash-join build tables served from the per-`Comp` intern cache.
    pub hash_tables_reused: u64,
    /// Subset of `hash_tables_reused` served from a table built by an
    /// *earlier expression* (the strategy-scope cache); per-`Comp` reuse does
    /// not move this counter, so `builds + reuses` still equals keyed join
    /// steps while cross-`Comp` wins stay separately visible.
    pub hash_tables_cross_reused: u64,
    /// Raw operand materializations served from the strategy-scope cache
    /// instead of re-reading the stored/delta extent. Physical-only: the
    /// logical scan is still charged per term via `scan_logical`.
    pub operand_reads_cached: u64,
}

impl WorkMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records scanning `n` operand rows: the executor read them, so both
    /// the logical and physical counters move.
    pub fn scan(&mut self, n: u64) {
        self.operand_rows_scanned += n;
        self.physical_rows_touched += n;
    }

    /// Records a *logical* scan of `n` operand rows that the executor
    /// satisfied from an already-materialized operand. The paper's metric
    /// charges the term as if it scanned; the hardware did not.
    pub fn scan_logical(&mut self, n: u64) {
        self.operand_rows_scanned += n;
    }

    /// Records building a hash table over `n` input rows. Physical-only:
    /// the model folds build cost into the operand scan it already charged.
    pub fn hash_build(&mut self, n: u64) {
        self.hash_tables_built += 1;
        self.physical_rows_touched += n;
    }

    /// Records a physical pass over `n` rows that is neither an operand
    /// scan nor a hash build — e.g. the single-bucket degenerate of an
    /// empty-key build, which is a disguised cross join and must not
    /// inflate `hash_tables_built` past the static sharing prediction.
    pub fn touch(&mut self, n: u64) {
        self.physical_rows_touched += n;
    }

    /// Records reusing an interned hash table instead of rebuilding it.
    pub fn hash_reuse(&mut self) {
        self.hash_tables_reused += 1;
    }

    /// Records reusing a hash table built by an *earlier expression* in the
    /// strategy. Counts as a reuse (so build/reuse totals are scope-stable)
    /// and additionally as a cross-expression reuse.
    pub fn hash_cross_reuse(&mut self) {
        self.hash_tables_reused += 1;
        self.hash_tables_cross_reused += 1;
    }

    /// Records serving a raw operand read from the strategy-scope cache.
    /// Physical-only; the caller still charges `scan_logical` per term.
    pub fn cached_read(&mut self) {
        self.operand_reads_cached += 1;
    }

    /// Records installing `n` rows.
    pub fn install(&mut self, n: u64) {
        self.rows_installed += n;
    }

    /// Records emitting `n` intermediate rows.
    pub fn emit(&mut self, n: u64) {
        self.rows_emitted += n;
    }

    /// Records evaluation of one maintenance term.
    pub fn term(&mut self) {
        self.terms_evaluated += 1;
    }

    /// The paper's total work: operand rows scanned plus rows installed
    /// (proportionality constants `c = i = 1`).
    pub fn linear_work(&self) -> u64 {
        self.operand_rows_scanned + self.rows_installed
    }

    /// Difference `self - earlier`, for scoped measurements.
    pub fn since(&self, earlier: &WorkMeter) -> WorkMeter {
        WorkMeter {
            operand_rows_scanned: self.operand_rows_scanned - earlier.operand_rows_scanned,
            rows_installed: self.rows_installed - earlier.rows_installed,
            rows_emitted: self.rows_emitted - earlier.rows_emitted,
            terms_evaluated: self.terms_evaluated - earlier.terms_evaluated,
            comp_expressions: self.comp_expressions - earlier.comp_expressions,
            inst_expressions: self.inst_expressions - earlier.inst_expressions,
            physical_rows_touched: self.physical_rows_touched - earlier.physical_rows_touched,
            hash_tables_built: self.hash_tables_built - earlier.hash_tables_built,
            hash_tables_reused: self.hash_tables_reused - earlier.hash_tables_reused,
            hash_tables_cross_reused: self.hash_tables_cross_reused
                - earlier.hash_tables_cross_reused,
            operand_reads_cached: self.operand_reads_cached - earlier.operand_reads_cached,
        }
    }

    /// Adds every counter of `other` into `self` — for folding per-term (or
    /// per-stage) meters into a total.
    pub fn absorb(&mut self, other: &WorkMeter) {
        self.operand_rows_scanned += other.operand_rows_scanned;
        self.rows_installed += other.rows_installed;
        self.rows_emitted += other.rows_emitted;
        self.terms_evaluated += other.terms_evaluated;
        self.comp_expressions += other.comp_expressions;
        self.inst_expressions += other.inst_expressions;
        self.physical_rows_touched += other.physical_rows_touched;
        self.hash_tables_built += other.hash_tables_built;
        self.hash_tables_reused += other.hash_tables_reused;
        self.hash_tables_cross_reused += other.hash_tables_cross_reused;
        self.operand_reads_cached += other.operand_reads_cached;
    }

    /// The counters the paper's model sees, with the physical ones zeroed —
    /// two executions are *logically equivalent* iff these compare equal.
    pub fn logical(&self) -> WorkMeter {
        WorkMeter {
            physical_rows_touched: 0,
            hash_tables_built: 0,
            hash_tables_reused: 0,
            hash_tables_cross_reused: 0,
            operand_reads_cached: 0,
            ..*self
        }
    }
}

impl fmt::Display for WorkMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} installed={} emitted={} terms={} comps={} insts={} \
             physical={} builds={} reuses={} cross_reuses={} cached_reads={}",
            self.operand_rows_scanned,
            self.rows_installed,
            self.rows_emitted,
            self.terms_evaluated,
            self.comp_expressions,
            self.inst_expressions,
            self.physical_rows_touched,
            self.hash_tables_built,
            self.hash_tables_reused,
            self.hash_tables_cross_reused,
            self.operand_reads_cached
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_diff() {
        let mut m = WorkMeter::new();
        m.scan(10);
        m.install(3);
        m.emit(7);
        m.term();
        let snapshot = m;
        m.scan(5);
        m.install(2);
        let d = m.since(&snapshot);
        assert_eq!(d.operand_rows_scanned, 5);
        assert_eq!(d.rows_installed, 2);
        assert_eq!(d.rows_emitted, 0);
        assert_eq!(m.linear_work(), 20);
    }

    #[test]
    fn display_mentions_counters() {
        let mut m = WorkMeter::new();
        m.scan(42);
        assert!(m.to_string().contains("scanned=42"));
        assert!(m.to_string().contains("physical=42"));
    }

    #[test]
    fn physical_and_logical_counters_split() {
        let mut m = WorkMeter::new();
        m.scan(10); // logical + physical
        m.scan_logical(10); // logical only (cache hit)
        m.hash_build(4); // physical only
        m.hash_reuse();
        assert_eq!(m.operand_rows_scanned, 20);
        assert_eq!(m.physical_rows_touched, 14);
        assert_eq!(m.hash_tables_built, 1);
        assert_eq!(m.hash_tables_reused, 1);
        // The paper's metric never sees the physical side.
        assert_eq!(m.linear_work(), 20);
        let mut shared = WorkMeter::new();
        shared.scan_logical(20);
        shared.scan(0);
        assert_eq!(
            shared.logical().operand_rows_scanned,
            m.logical().operand_rows_scanned
        );
    }

    #[test]
    fn cross_reuse_is_a_reuse_and_logical_ignores_cache_counters() {
        let mut m = WorkMeter::new();
        m.hash_reuse();
        m.hash_cross_reuse();
        m.cached_read();
        assert_eq!(m.hash_tables_reused, 2);
        assert_eq!(m.hash_tables_cross_reused, 1);
        assert_eq!(m.operand_reads_cached, 1);
        let l = m.logical();
        assert_eq!(l.hash_tables_cross_reused, 0);
        assert_eq!(l.operand_reads_cached, 0);
        let d = m.since(&WorkMeter::new());
        assert_eq!(d, m);
    }

    #[test]
    fn absorb_folds_all_counters() {
        let mut a = WorkMeter::new();
        a.scan(3);
        a.hash_build(2);
        let mut b = WorkMeter::new();
        b.scan_logical(7);
        b.hash_reuse();
        b.term();
        a.absorb(&b);
        assert_eq!(a.operand_rows_scanned, 10);
        assert_eq!(a.physical_rows_touched, 5);
        assert_eq!(a.hash_tables_built, 1);
        assert_eq!(a.hash_tables_reused, 1);
        assert_eq!(a.terms_evaluated, 1);
    }
}
