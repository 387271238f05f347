//! Publishing committed windows to a shared [`VersionedCatalog`].
//!
//! Strategies mutate the engine's private catalog. With an
//! [`InstallPublisher`] attached, a window publishes every extent it
//! installed as **one** version right after its `COMMIT` is journaled, so a
//! reader sees the whole pre-window or post-window warehouse, never ORDER
//! maintained beside a stale Q3; a failed or crashed window publishes
//! nothing. The window runner and recovery both end in
//! [`Warehouse::publish_window`].

use crate::engine::warehouse::Warehouse;
use crate::error::CoreResult;
use std::collections::BTreeSet;
use std::sync::{Arc, RwLockWriteGuard};
use std::time::Duration;
use uww_relational::VersionedCatalog;

/// Publishes committed windows to a shared [`VersionedCatalog`], under one
/// of the two isolation regimes of paper §7.
///
/// * **MVCC** (`strict == false`): readers keep serving the pinned
///   pre-window version; the update window costs them only staleness.
/// * **Strict** (`strict == true`): the window holds the catalog's
///   install-phase lock ([`VersionedCatalog::lock_installs`]) from its first
///   `Inst` through its publish, and strict readers take the read half — so
///   readers stall for the install phase, the span dual-stage compresses.
///
/// `hold` pauses each window just before its publish (inside the lock under
/// Strict), so the strict-vs-mvcc gap is measurable at test scales.
#[derive(Clone, Debug)]
pub struct InstallPublisher {
    catalog: Arc<VersionedCatalog>,
    strict: bool,
    hold: Duration,
}

impl InstallPublisher {
    /// A publisher for `catalog`; `strict` selects the isolation regime.
    pub fn new(catalog: Arc<VersionedCatalog>, strict: bool) -> Self {
        Self {
            catalog,
            strict,
            hold: Duration::ZERO,
        }
    }

    /// Sets the pause before each window's publish (default: none).
    pub fn with_hold(mut self, hold: Duration) -> Self {
        self.hold = hold;
        self
    }
}

/// One window's installs as readers will see them: the views installed so
/// far and, under Strict, the install-phase lock, taken at the first `Inst`
/// and released after the publish — or when a failed window drops it.
pub(crate) struct InstallPhase<'a> {
    publisher: Option<&'a InstallPublisher>,
    lock: Option<RwLockWriteGuard<'a, ()>>,
    installed: BTreeSet<String>,
}

impl<'a> InstallPhase<'a> {
    /// A phase that has installed nothing; inert without a publisher.
    pub(crate) fn new(publisher: Option<&'a InstallPublisher>) -> Self {
        Self {
            publisher,
            lock: None,
            installed: BTreeSet::new(),
        }
    }

    /// Called as `Inst(view)` starts: a strict window's first `Inst` takes
    /// the lock, and a non-empty install joins the window's publish.
    pub(crate) fn inst(&mut self, view: &str, installs: bool) {
        let Some(p) = self.publisher else { return };
        if p.strict && self.lock.is_none() {
            self.lock = Some(p.catalog.lock_installs());
        }
        if installs {
            self.installed.insert(view.to_string());
        }
    }
}

impl Warehouse {
    /// Publishes the extents `phase` installed as one catalog version, after
    /// the publisher's hold, then releases the install-phase lock.
    pub(crate) fn publish_window(&self, phase: InstallPhase<'_>) -> CoreResult<()> {
        let Some(p) = phase.publisher else {
            return Ok(());
        };
        let tables = phase.installed.iter().map(|view| self.table(view).cloned());
        let tables = tables.collect::<CoreResult<Vec<_>>>()?;
        std::thread::sleep(p.hold);
        p.catalog.publish_all(tables);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecOptions;
    use crate::wal::{FaultPlan, FsyncPolicy, WalConfig};
    use uww_relational::{
        tup, DeltaRelation, OutputColumn, Schema, Table, Value, ValueType, ViewDef, ViewOutput,
        ViewSource,
    };
    use uww_vdag::{Strategy, UpdateExpr};

    /// `V = π_k R` over three rows, with a pending insert into R.
    fn warehouse() -> (Warehouse, Strategy) {
        let mut r = Table::new("R", Schema::of(&[("k", ValueType::Int)]));
        for i in 0..3 {
            r.insert(tup![Value::Int(i)]).unwrap();
        }
        let mut w = Warehouse::builder()
            .base_table(r)
            .view(ViewDef {
                name: "V".into(),
                sources: vec![ViewSource::named("R")],
                joins: vec![],
                filters: vec![],
                output: ViewOutput::Project(vec![OutputColumn::col("k", "R.k")]),
            })
            .build()
            .unwrap();
        let mut d = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        d.add(tup![Value::Int(7)], 1);
        w.load_changes([("R".to_string(), d)].into_iter().collect())
            .unwrap();
        let (r, v) = (w.view_id("R").unwrap(), w.view_id("V").unwrap());
        let strategy = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::inst(v),
        ]);
        (w, strategy)
    }

    fn attach(w: &mut Warehouse, strict: bool) -> Arc<VersionedCatalog> {
        let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
        w.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), strict));
        versioned
    }

    #[test]
    fn a_committed_window_is_one_epoch() {
        let (mut w, strategy) = warehouse();
        let versioned = attach(&mut w, false);
        let before = versioned.snapshot();
        w.execute(&strategy).unwrap();
        assert_eq!(versioned.epoch(), 1);
        let after = versioned.snapshot();
        for view in ["R", "V"] {
            assert_eq!(before.get(view).unwrap().len(), 3);
            assert!(after
                .get(view)
                .unwrap()
                .same_contents(w.table(view).unwrap()));
        }
    }

    #[test]
    fn strict_window_waits_for_readers_of_the_install_phase() {
        let (mut w, strategy) = warehouse();
        let versioned = attach(&mut w, true);
        // A strict reader mid-scan holds the read half: the window blocks at
        // its first Inst and publishes strictly after the reader is done.
        let guard = versioned.wait_installs();
        let handle = std::thread::spawn(move || w.execute(&strategy).map(|_| ()));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(versioned.epoch(), 0, "the window must wait for the reader");
        drop(guard);
        handle.join().unwrap().unwrap();
        assert_eq!(versioned.epoch(), 1);
        // The lock is free again once the window has published.
        drop(versioned.lock_installs());
    }

    #[test]
    fn a_crashed_window_publishes_nothing() {
        let (clean, strategy) = warehouse();
        let dir = std::env::temp_dir().join(format!("uww-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = |faults| {
            let wal = WalConfig::new(&dir).with_fsync(FsyncPolicy::Never);
            ExecOptions {
                wal: Some(wal.with_faults(faults)),
                ..ExecOptions::default()
            }
        };
        clean
            .clone()
            .execute_with(&strategy, wal(FaultPlan::default()))
            .unwrap();
        let records = crate::wal::WalLog::open(&dir).unwrap().records.len() as u64;
        for k in 0..records {
            let _ = std::fs::remove_dir_all(&dir);
            let mut w = clean.clone();
            let versioned = attach(&mut w, k % 2 == 0);
            let crashed = w.execute_with(&strategy, wal(FaultPlan::crash_before(k)));
            assert!(crashed.is_err(), "crash point {k}");
            assert_eq!(versioned.epoch(), 0, "crash point {k}");
            drop(versioned.lock_installs());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
