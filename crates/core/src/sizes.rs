//! View sizes and size estimation (Section 5.5, "Computing a desired view
//! ordering").
//!
//! The planners need, per view `V`: its current size `|V|`, the size of its
//! pending delta `|ΔV|`, and its post-install size `|V'|`. For base views
//! these are exact (the changes arrive before the update window starts). For
//! derived views the paper prescribes standard result-size estimation; we
//! implement a selectivity-independence heuristic that propagates per-source
//! change fractions bottom-up.

use crate::engine::Warehouse;
use crate::error::CoreResult;
use uww_vdag::{Vdag, ViewId, ViewOrdering};

/// Size triple for one view.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SizeInfo {
    /// `|V|`: rows currently stored.
    pub pre: f64,
    /// `|V'|`: rows after the delta installs.
    pub post: f64,
    /// `|ΔV|`: plus + minus rows of the delta.
    pub delta: f64,
}

impl SizeInfo {
    /// The ordering key of Theorem 4.2: `|V'| − |V|`.
    pub fn growth(&self) -> f64 {
        self.post - self.pre
    }
}

/// Sizes for every view of a VDAG, indexed by [`ViewId`].
#[derive(Clone, Debug, Default)]
pub struct SizeCatalog {
    infos: Vec<SizeInfo>,
}

impl SizeCatalog {
    /// The size triple of `v`.
    pub fn info(&self, v: ViewId) -> SizeInfo {
        self.infos.get(v.0).copied().unwrap_or_default()
    }

    /// Sets the size triple of `v`, growing the catalog as needed.
    pub fn set(&mut self, v: ViewId, info: SizeInfo) {
        if self.infos.len() <= v.0 {
            self.infos.resize(v.0 + 1, SizeInfo::default());
        }
        self.infos[v.0] = info;
    }

    /// `|ΔV|`.
    pub fn delta(&self, v: ViewId) -> f64 {
        self.info(v).delta
    }

    /// `|V|` or `|V'|` depending on whether `v` is installed.
    pub fn state_size(&self, v: ViewId, installed: bool) -> f64 {
        let i = self.info(v);
        if installed {
            i.post
        } else {
            i.pre
        }
    }

    /// The **desired view ordering** (Section 5): all views by increasing
    /// `|V'| − |V|`, ties broken by view id.
    pub fn desired_ordering(&self, g: &Vdag) -> ViewOrdering {
        ViewOrdering::by_key(g, |v| self.info(v).growth())
    }

    /// Estimates sizes for every view of `warehouse` from its stored state
    /// and pending (base) deltas.
    ///
    /// Base views are exact. For a derived view the heuristic assumes
    /// uniform, independent changes: if source `s` deletes a fraction `d_s`
    /// and inserts a fraction `i_s`, the view retains `Π(1 − d_s)` of its
    /// rows and gains `Σ i_s` of its size in new rows:
    ///
    /// * `|V'| ≈ |V| · Π(1 − d_s) + |V| · Σ i_s`
    /// * `|ΔV| ≈ |V| · (1 − Π(1 − d_s)) + |V| · Σ i_s`
    ///
    /// Views with no changed source get `delta = 0, post = pre`. The
    /// estimates only drive *ordering* decisions; the experiments show the
    /// ordering is robust to their roughness (and for level-1 summary views,
    /// which nothing consumes, they do not matter at all — only base-view
    /// sizes, which are exact, decide the TPC-D orderings).
    pub fn estimate(warehouse: &Warehouse) -> CoreResult<SizeCatalog> {
        let g = warehouse.vdag();
        let mut cat = SizeCatalog::default();
        // Change fractions per view (deletes, inserts), filled bottom-up.
        let mut fractions: Vec<(f64, f64)> = vec![(0.0, 0.0); g.len()];

        for v in g.view_ids() {
            let name = g.name(v);
            let pre = warehouse.table(name)?.len() as f64;
            if g.is_base(v) {
                let rows = warehouse.pending_rows(name)?;
                let minus = rows.minus_len() as f64;
                let plus = rows.plus_len() as f64;
                let post = pre - minus + plus;
                cat.set(
                    v,
                    SizeInfo {
                        pre,
                        post,
                        delta: minus + plus,
                    },
                );
                if pre > 0.0 {
                    fractions[v.0] = (minus / pre, plus / pre);
                }
            } else {
                let mut keep = 1.0;
                let mut gain = 0.0;
                for &s in g.sources(v) {
                    let (d, i) = fractions[s.0];
                    keep *= 1.0 - d.min(1.0);
                    gain += i;
                }
                let deleted = pre * (1.0 - keep);
                let inserted = pre * gain;
                let post = pre - deleted + inserted;
                cat.set(
                    v,
                    SizeInfo {
                        pre,
                        post,
                        delta: deleted + inserted,
                    },
                );
                if pre > 0.0 {
                    fractions[v.0] = (deleted / pre, inserted / pre);
                }
            }
        }
        Ok(cat)
    }

    /// Exact sizes, obtained by actually expanding every pending delta
    /// (including derived ones accumulated mid-strategy). Expensive — used
    /// by tests and the metric-validation experiments, not by the planners.
    pub fn exact(warehouse: &Warehouse) -> CoreResult<SizeCatalog> {
        let g = warehouse.vdag();
        let expected = warehouse.expected_final_state()?;
        let mut cat = SizeCatalog::default();
        for v in g.view_ids() {
            let name = g.name(v);
            let pre = warehouse.table(name)?.len() as f64;
            let post = expected.get(name)?.len() as f64;
            let delta = if g.is_base(v) {
                warehouse.pending_len(name)? as f64
            } else {
                // Exact derived delta size: diff the extents.
                warehouse.table(name)?.diff(expected.get(name)?)?.len() as f64
            };
            cat.set(v, SizeInfo { pre, post, delta });
        }
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_vdag::figure3_vdag;

    #[test]
    fn growth_and_ordering() {
        let g = figure3_vdag();
        let mut cat = SizeCatalog::default();
        // V1 grows, V2 shrinks a lot, V3 shrinks a little, V4/V5 unchanged.
        cat.set(
            ViewId(0),
            SizeInfo {
                pre: 100.0,
                post: 120.0,
                delta: 20.0,
            },
        );
        cat.set(
            ViewId(1),
            SizeInfo {
                pre: 100.0,
                post: 50.0,
                delta: 50.0,
            },
        );
        cat.set(
            ViewId(2),
            SizeInfo {
                pre: 100.0,
                post: 90.0,
                delta: 10.0,
            },
        );
        cat.set(
            ViewId(3),
            SizeInfo {
                pre: 40.0,
                post: 40.0,
                delta: 0.0,
            },
        );
        cat.set(
            ViewId(4),
            SizeInfo {
                pre: 10.0,
                post: 10.0,
                delta: 0.0,
            },
        );
        let ord = cat.desired_ordering(&g);
        let names: Vec<&str> = ord.views().iter().map(|v| g.name(*v)).collect();
        // -50 < -10 < 0 (V4 before V5 by id) < +20.
        assert_eq!(names, vec!["V2", "V3", "V4", "V5", "V1"]);
        assert_eq!(cat.info(ViewId(1)).growth(), -50.0);
        assert_eq!(cat.state_size(ViewId(1), false), 100.0);
        assert_eq!(cat.state_size(ViewId(1), true), 50.0);
        assert_eq!(cat.delta(ViewId(1)), 50.0);
    }

    #[test]
    fn missing_views_default_to_zero() {
        let cat = SizeCatalog::default();
        assert_eq!(cat.info(ViewId(7)), SizeInfo::default());
    }
}
