//! Multi-version snapshot layer over the catalog.
//!
//! The paper's update window hurts because readers are either locked out
//! (Strict isolation, §7) or exposed to half-installed views (Low isolation).
//! This module gives the warehouse a third option: copy-on-write catalog
//! versions. A committed update window publishes *one* new
//! [`CatalogVersion`] (an epoch plus a name→`Arc<Table>` map) holding every
//! extent it installed, and readers pin whichever version was current when
//! their query began. A pinned version is immutable, so a reader never
//! observes a half-maintained window, and publishing never waits for readers.
//!
//! Strict isolation is still expressible (and now *measurable*): one
//! catalog-wide install-phase lock. A strict window holds its write half from
//! its first install through its publish; a strict reader holds the read
//! half while it pins and scans. MVCC readers never touch it.

use crate::error::{RelError, RelResult};
use crate::table::Table;
use crate::Catalog;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One immutable published state of the warehouse: an epoch and the table
/// extents that were current when it was published.
///
/// Tables are shared via `Arc`, so publishing a new version copies one map
/// of pointers, not the data.
#[derive(Clone, Debug)]
pub struct CatalogVersion {
    epoch: u64,
    tables: BTreeMap<String, Arc<Table>>,
}

impl CatalogVersion {
    /// The epoch at which this version was published. Epoch 0 is the load
    /// state; each publish increments it by one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up a view's extent in this version.
    pub fn get(&self, name: &str) -> RelResult<&Arc<Table>> {
        self.tables
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_string()))
    }

    /// View names in deterministic (sorted) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Iterates extents in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Table>> {
        self.tables.values()
    }

    /// Number of views in this version.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the version holds no views.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// A catalog that publishes copy-on-write versions.
///
/// Shared between an updater thread (which calls [`publish`]) and any number
/// of reader threads (which call [`snapshot`]); all methods take `&self`.
///
/// [`publish`]: VersionedCatalog::publish
/// [`snapshot`]: VersionedCatalog::snapshot
#[derive(Debug)]
pub struct VersionedCatalog {
    current: RwLock<Arc<CatalogVersion>>,
    /// Strict isolation's install-phase lock. MVCC never takes it.
    install_phase: RwLock<()>,
}

impl VersionedCatalog {
    /// Builds version 0 from a plain catalog by cloning every extent.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let tables = catalog
            .iter()
            .map(|t| (t.name().to_string(), Arc::new(t.clone())))
            .collect();
        Self {
            current: RwLock::new(Arc::new(CatalogVersion { epoch: 0, tables })),
            install_phase: RwLock::new(()),
        }
    }

    /// Pins the current version. The returned `Arc` stays valid (and
    /// immutable) no matter how many installs publish after it.
    pub fn snapshot(&self) -> Arc<CatalogVersion> {
        Arc::clone(&read_lock(&self.current))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        read_lock(&self.current).epoch
    }

    /// [`publish_all`](VersionedCatalog::publish_all) of one table.
    pub fn publish(&self, table: Table) -> u64 {
        self.publish_all([table])
    }

    /// Publishes one new version in which every table of `tables` replaces
    /// (or introduces) the extent stored under its name. Returns the new
    /// epoch.
    ///
    /// The swap is atomic with respect to [`snapshot`]: a reader pins either
    /// the version before this publish or the one after, never a mixture.
    ///
    /// [`snapshot`]: VersionedCatalog::snapshot
    pub fn publish_all(&self, tables: impl IntoIterator<Item = Table>) -> u64 {
        let mut guard = write_lock(&self.current);
        let mut next = CatalogVersion::clone(&guard);
        next.epoch += 1;
        let named = tables
            .into_iter()
            .map(|t| (t.name().to_string(), Arc::new(t)));
        next.tables.extend(named);
        *guard = Arc::new(next);
        guard.epoch
    }

    /// The write half of the install-phase lock: a strict window holds it
    /// from its first install through its publish.
    pub fn lock_installs(&self) -> RwLockWriteGuard<'_, ()> {
        write_lock(&self.install_phase)
    }

    /// The read half: a strict reader holds it while it pins and scans, so
    /// it waits out an open install phase and then sees the whole window.
    pub fn wait_installs(&self) -> RwLockReadGuard<'_, ()> {
        read_lock(&self.install_phase)
    }

    /// Convenience: pin the current version and resolve one view in it.
    /// Returns the extent together with the pinned epoch.
    pub fn read_pinned(&self, view: &str) -> RelResult<(Arc<Table>, u64)> {
        let snap = self.snapshot();
        Ok((Arc::clone(snap.get(view)?), snap.epoch))
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::snapshot::table_digest;
    use crate::tup;
    use crate::value::{Value, ValueType};

    fn table_with(name: &str, rows: i64) -> Table {
        let mut t = Table::new(name, Schema::of(&[("k", ValueType::Int)]));
        for i in 0..rows {
            t.insert(tup![Value::Int(i)]).unwrap();
        }
        t
    }

    fn seed_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(table_with("T", 3)).unwrap();
        c.register(table_with("U", 1)).unwrap();
        c
    }

    #[test]
    fn snapshots_pin_an_epoch() {
        let vc = VersionedCatalog::from_catalog(&seed_catalog());
        assert_eq!(vc.epoch(), 0);
        let before = vc.snapshot();
        let e = vc.publish(table_with("T", 5));
        assert_eq!(e, 1);
        // The pinned version is untouched by the publish.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.get("T").unwrap().len(), 3);
        let after = vc.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.get("T").unwrap().len(), 5);
        // Other views are shared, not copied.
        assert!(Arc::ptr_eq(
            before.get("U").unwrap(),
            after.get("U").unwrap()
        ));
    }

    #[test]
    fn read_pinned_resolves_one_view() {
        let vc = VersionedCatalog::from_catalog(&seed_catalog());
        let (t, epoch) = vc.read_pinned("T").unwrap();
        assert_eq!((t.len(), epoch), (3, 0));
        assert!(matches!(
            vc.read_pinned("missing"),
            Err(RelError::UnknownRelation(_))
        ));
    }

    #[test]
    fn publish_all_swaps_every_table_in_one_epoch() {
        let vc = VersionedCatalog::from_catalog(&seed_catalog());
        let before = vc.snapshot();
        assert_eq!(vc.publish_all([table_with("T", 4), table_with("U", 2)]), 1);
        let after = vc.snapshot();
        assert_eq!((after.epoch(), after.len()), (1, 2));
        assert_eq!(after.get("T").unwrap().len(), 4);
        assert_eq!(after.get("U").unwrap().len(), 2);
        assert_eq!(before.get("U").unwrap().len(), 1);
        // An empty publish still marks a committed window.
        assert_eq!(vc.publish_all([]), 2);
        assert!(Arc::ptr_eq(
            after.get("T").unwrap(),
            vc.snapshot().get("T").unwrap()
        ));
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_install() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let vc = Arc::new(VersionedCatalog::from_catalog(&seed_catalog()));
        let pre = table_digest(&vc.snapshot().get("T").unwrap().clone());
        let post_table = table_with("T", 7);
        let post = table_digest(&post_table);
        let done = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let vc = Arc::clone(&vc);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut seen_epochs = Vec::new();
                    let mut last_epoch = 0;
                    while !done.load(Ordering::Relaxed) {
                        let (t, epoch) = vc.read_pinned("T").unwrap();
                        assert!(epoch >= last_epoch, "epochs must be monotone");
                        last_epoch = epoch;
                        seen_epochs.push((epoch, table_digest(&t)));
                    }
                    seen_epochs
                })
            })
            .collect();

        // Give the readers a moment to observe epoch 0, then publish.
        std::thread::sleep(std::time::Duration::from_millis(5));
        vc.publish(post_table);
        std::thread::sleep(std::time::Duration::from_millis(5));
        done.store(true, Ordering::Relaxed);

        for r in readers {
            for (epoch, digest) in r.join().unwrap() {
                let expected = if epoch == 0 { pre } else { post };
                assert_eq!(digest, expected, "torn read at epoch {epoch}");
            }
        }
    }
}
