//! Publishing installs to a shared [`VersionedCatalog`].
//!
//! The engine's private [`Catalog`](uww_relational::Catalog) is what the
//! update strategy mutates; online readers never touch it. When a warehouse
//! has an [`InstallPublisher`] attached, every completed `Inst(V)` atomically
//! publishes the view's new extent as a fresh catalog version, so concurrent
//! readers move from the pre-install extent to the post-install extent with
//! nothing in between. The publisher is the single funnel through which both
//! the window runner (sequential or staged) and recovery's replay make installs
//! visible — parallel stages install at stage boundaries on the coordinating
//! thread, so they flow through the exact same path.

use crate::error::CoreResult;
use std::sync::Arc;
use std::time::Duration;
use uww_relational::{Catalog, DeltaRelation, VersionedCatalog};

/// Publishes each install to a shared [`VersionedCatalog`], under one of the
/// two isolation regimes of paper §7.
///
/// * **MVCC** (`strict == false`): the install runs against the engine's
///   private catalog and is made visible with one atomic version swap.
///   Readers keep serving the pinned pre-install version throughout; the
///   "update window" costs them nothing but staleness.
/// * **Strict** (`strict == true`): the publisher holds the per-view *write*
///   lock (from [`VersionedCatalog::view_lock`]) across install+publish,
///   and strict readers take the matching read lock — so readers of the view
///   stall for the duration of its install, which is exactly the reader
///   latency the paper's window metric is a proxy for.
///
/// `hold` artificially lengthens each install while the view is unpublished
/// (and, under Strict, locked). At bench scale real installs take micro-
/// seconds; the hold makes the strict-vs-mvcc latency gap measurable and
/// deterministic for tests without scaling the data up.
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

    /// Sets the artificial per-install hold time (default: none).
    pub fn with_hold(mut self, hold: Duration) -> Self {
        self.hold = hold;
        self
    }

    /// The shared catalog this publisher publishes to.
    pub fn catalog(&self) -> &Arc<VersionedCatalog> {
        &self.catalog
    }

    /// True when installs run under the Strict (per-view lock) regime.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Installs `delta` into `state`'s extent of `view` and publishes the
    /// result. Under Strict the view's write lock is held for the whole
    /// operation; under MVCC no lock is taken and visibility is the version
    /// swap alone.
    pub(crate) fn install_and_publish(
        &self,
        view: &str,
        delta: &DeltaRelation,
        state: &mut Catalog,
    ) -> CoreResult<u64> {
        if self.strict {
            let lock = self.catalog.view_lock(view);
            let _guard = lock.write().unwrap_or_else(|e| e.into_inner());
            self.apply(view, delta, state)
        } else {
            self.apply(view, delta, state)
        }
    }

    fn apply(&self, view: &str, delta: &DeltaRelation, state: &mut Catalog) -> CoreResult<u64> {
        state.get_mut(view)?.install(delta)?;
        if !self.hold.is_zero() {
            std::thread::sleep(self.hold);
        }
        Ok(self.catalog.publish(state.get(view)?.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_relational::{tup, Schema, Table, Value, ValueType};

    fn seed() -> (Catalog, Arc<VersionedCatalog>) {
        let mut t = Table::new("T", Schema::of(&[("k", ValueType::Int)]));
        t.insert(tup![Value::Int(1)]).unwrap();
        let mut cat = Catalog::new();
        cat.register(t).unwrap();
        let versioned = Arc::new(VersionedCatalog::from_catalog(&cat));
        (cat, versioned)
    }

    fn delta_add(state: &Catalog, k: i64) -> DeltaRelation {
        let mut d = DeltaRelation::new(state.get("T").unwrap().schema().clone());
        d.add(tup![Value::Int(k)], 1);
        d
    }

    #[test]
    fn mvcc_install_publishes_a_new_epoch() {
        let (mut state, versioned) = seed();
        let p = InstallPublisher::new(Arc::clone(&versioned), false);
        let before = versioned.snapshot();
        let d = delta_add(&state, 2);
        let epoch = p.install_and_publish("T", &d, &mut state).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(before.get("T").unwrap().len(), 1);
        assert_eq!(versioned.snapshot().get("T").unwrap().len(), 2);
    }

    #[test]
    fn strict_install_excludes_lock_holders() {
        let (mut state, versioned) = seed();
        let p = InstallPublisher::new(Arc::clone(&versioned), true);
        // A reader holding the view's read lock sees the publish strictly
        // after releasing it: take the lock, install on another thread,
        // observe no new epoch until we drop our guard.
        let lock = versioned.view_lock("T");
        let guard = lock.read().unwrap();
        let vc = Arc::clone(&versioned);
        let handle = std::thread::spawn(move || {
            let d = delta_add(&state, 2);
            p.install_and_publish("T", &d, &mut state).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(vc.epoch(), 0, "install must wait for the read lock");
        drop(guard);
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(versioned.epoch(), 1);
    }
}
