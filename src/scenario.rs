//! Ready-to-run TPC-D warehouse scenarios.
//!
//! Glue between the workload crate (`uww-tpcd`) and the engine/planners
//! (`uww-core`): builds the paper's Figure 4 warehouse at a chosen scale,
//! loads change batches, and provides the baseline strategies the
//! experiments compare against.

use uww_core::{CoreError, CoreResult, Warehouse};
use uww_relational::ViewDef;
use uww_tpcd::{ChangeBatch, ChangeSpec, TpcdConfig, TpcdGenerator};
use uww_vdag::{Strategy, UpdateExpr, ViewId};

/// A warehouse populated with TPC-D data plus its generator (needed to
/// fabricate insertion batches).
pub struct TpcdScenario {
    /// The warehouse: base views plus the requested summary views.
    pub warehouse: Warehouse,
    /// The data generator the warehouse was loaded from.
    pub generator: TpcdGenerator,
    seed: u64,
}

impl TpcdScenario {
    /// Starts building a scenario.
    pub fn builder() -> TpcdScenarioBuilder {
        TpcdScenarioBuilder::default()
    }

    /// Loads the paper's default change batch: CUSTOMER, ORDER, LINEITEM,
    /// SUPPLIER and NATION each shrink by `frac`; REGION unchanged.
    pub fn load_paper_changes(&mut self, frac: f64) -> CoreResult<()> {
        self.load_batch(&ChangeBatch::paper_default(frac, self.seed))
    }

    /// Loads Experiment 3's batch: only CUSTOMER, ORDER and LINEITEM shrink
    /// by `frac`.
    pub fn load_col_changes(&mut self, frac: f64) -> CoreResult<()> {
        self.load_batch(&ChangeBatch::col_deletions(frac, self.seed))
    }

    /// Loads an arbitrary change batch.
    pub fn load_batch(&mut self, batch: &ChangeBatch) -> CoreResult<()> {
        let deltas = batch.generate(self.warehouse.state(), &self.generator);
        self.warehouse.load_changes(deltas)
    }

    /// A mixed batch builder seeded consistently with this scenario.
    pub fn batch(&self) -> ChangeBatch {
        ChangeBatch::new(self.seed)
    }

    /// Convenience: a batch where every listed view gets the same spec.
    pub fn uniform_batch(&self, views: &[&str], spec: ChangeSpec) -> ChangeBatch {
        let mut b = ChangeBatch::new(self.seed);
        for v in views {
            b = b.with(v, spec);
        }
        b
    }

    /// The paper's **RNSCOL** baseline for Experiment 4: the 1-way VDAG
    /// strategy propagating changes in the order R, N, S, C, O, L — the
    /// reverse of MinWork's desired ordering under the default batch.
    pub fn rnscol_strategy(&self) -> CoreResult<Strategy> {
        // Views absent from the scenario (e.g. the Q3-only warehouse has no
        // REGION) are simply skipped.
        let g = self.warehouse.vdag();
        let names: Vec<&str> = [
            "REGION", "NATION", "SUPPLIER", "CUSTOMER", "ORDER", "LINEITEM",
        ]
        .into_iter()
        .filter(|n| g.id_of(n).is_ok())
        .collect();
        self.one_way_by_names(&names)
    }

    /// A 1-way VDAG strategy propagating base-view changes in the given name
    /// order (derived views appended afterwards in id order).
    pub fn one_way_by_names(&self, names: &[&str]) -> CoreResult<Strategy> {
        let g = self.warehouse.vdag();
        let mut order: Vec<ViewId> = names.iter().map(|n| g.id_of(n)).collect::<Result<_, _>>()?;
        for v in g.view_ids() {
            if !order.contains(&v) {
                order.push(v);
            }
        }
        let ord = uww_vdag::ViewOrdering::new(order, g.len());
        uww_core::one_way_for_ordering(g, &ord)
    }

    /// The dual-stage VDAG strategy baseline.
    pub fn dual_stage_strategy(&self) -> Strategy {
        uww_vdag::dual_stage_strategy(self.warehouse.vdag())
    }

    /// Runs `strategy` on a *clone* of the warehouse (the scenario itself is
    /// untouched, so many strategies can be compared against identical
    /// state). Returns the execution report and verifies the final state
    /// against a from-scratch recomputation.
    pub fn run(&self, strategy: &Strategy) -> CoreResult<uww_core::ExecutionReport> {
        self.run_with(strategy, uww_core::ExecOptions::default())
    }

    /// [`TpcdScenario::run`] with explicit [`uww_core::ExecOptions`] — in
    /// particular `opts.wal` journals the run into an install WAL so a crash
    /// (injected or real) can be resumed with [`uww_core::recover`]. The
    /// from-scratch verification only runs when execution succeeds.
    pub fn run_with(
        &self,
        strategy: &Strategy,
        opts: uww_core::ExecOptions,
    ) -> CoreResult<uww_core::ExecutionReport> {
        let mut w = self.warehouse.clone();
        let expected = w.expected_final_state()?;
        let report = w.execute_with(strategy, opts)?;
        let diffs = w.diff_state(&expected);
        if !diffs.is_empty() {
            return Err(CoreError::Warehouse(format!(
                "strategy produced wrong state for views {diffs:?}"
            )));
        }
        Ok(report)
    }

    /// Expands an enumerated *view strategy* for `view` (whose `Inst`
    /// expressions cover only the view and its sources) into a full VDAG
    /// strategy by appending `Inst` for every remaining view. For the
    /// single-summary warehouses of Experiments 1–3 this is the identity on
    /// work: the appended installs have empty deltas.
    pub fn complete_strategy(&self, s: &Strategy) -> Strategy {
        let g = self.warehouse.vdag();
        let mut out = s.clone();
        for v in g.view_ids() {
            if out.position(&UpdateExpr::inst(v)).is_none() {
                // Base views not referenced by the view strategy: installing
                // their (possibly empty) deltas keeps the VDAG strategy
                // correct per C2/C7.
                out.push(UpdateExpr::inst(v));
            }
        }
        out
    }
}

/// Builder for [`TpcdScenario`].
pub struct TpcdScenarioBuilder {
    scale: f64,
    seed: u64,
    views: Vec<ViewDef>,
    base_views: Vec<&'static str>,
}

impl Default for TpcdScenarioBuilder {
    fn default() -> Self {
        TpcdScenarioBuilder {
            scale: 0.001,
            seed: 0x5757_1999,
            views: Vec::new(),
            base_views: uww_tpcd::BASE_VIEWS.to_vec(),
        }
    }
}

impl TpcdScenarioBuilder {
    /// Scale factor (fraction of TPC-D SF=1).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Seed for data and change generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Summary views to materialize.
    pub fn views(mut self, views: impl IntoIterator<Item = ViewDef>) -> Self {
        self.views.extend(views);
        self
    }

    /// Restricts the base views loaded (default: all six). Experiments 1–3
    /// use only CUSTOMER, ORDER and LINEITEM.
    pub fn base_views(mut self, names: &[&'static str]) -> Self {
        self.base_views = names.to_vec();
        self
    }

    /// Generates the data and materializes the views.
    pub fn build(self) -> CoreResult<TpcdScenario> {
        let generator = TpcdGenerator::new(TpcdConfig {
            scale: self.scale,
            seed: self.seed,
        });
        let data = generator.generate();
        let mut builder = Warehouse::builder();
        for name in &self.base_views {
            let table = data
                .get(name)
                .map_err(|e| CoreError::Warehouse(format!("unknown base view {name}: {e}")))?;
            builder = builder.base_table(table.clone());
        }
        for def in self.views {
            builder = builder.view(def);
        }
        Ok(TpcdScenario {
            warehouse: builder.build()?,
            generator,
            seed: self.seed,
        })
    }
}

/// The complete Figure 4 warehouse: all six base views plus Q3, Q5, Q10.
pub fn figure4_scenario(scale: f64) -> CoreResult<TpcdScenario> {
    TpcdScenario::builder()
        .scale(scale)
        .views(uww_tpcd::all_query_defs())
        .build()
}

/// The Experiment 1–3 warehouse: CUSTOMER, ORDER, LINEITEM plus Q3 only.
pub fn q3_scenario(scale: f64) -> CoreResult<TpcdScenario> {
    TpcdScenario::builder()
        .scale(scale)
        .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
        .views([uww_tpcd::q3_def()])
        .build()
}

/// The Experiment 2 warehouse: all six base views plus Q5 only.
pub fn q5_scenario(scale: f64) -> CoreResult<TpcdScenario> {
    TpcdScenario::builder()
        .scale(scale)
        .views([uww_tpcd::q5_def()])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let sc = TpcdScenario::builder()
            .scale(0.0003)
            .seed(42)
            .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
            .views([uww_tpcd::q3_def()])
            .build()
            .unwrap();
        assert_eq!(sc.warehouse.vdag().len(), 4);
        assert!(sc.warehouse.table("Q3").is_ok());
        assert!(sc.warehouse.table("REGION").is_err());
    }

    #[test]
    fn figure4_scenario_matches_paper_vdag() {
        let sc = figure4_scenario(0.0003).unwrap();
        let g = sc.warehouse.vdag();
        assert_eq!(g.len(), 9);
        assert!(g.is_uniform());
        assert!(!g.is_tree());
        assert_eq!(g.views_with_consumers().len(), 6);
    }

    #[test]
    fn run_rejects_wrong_results() {
        // `run` must catch strategies that skip required work: executing
        // with validation disabled through a manual path would corrupt, but
        // `run` itself always validates — feed it an incorrect strategy.
        let mut sc = q3_scenario(0.0003).unwrap();
        sc.load_col_changes(0.1).unwrap();
        let g = sc.warehouse.vdag();
        let q3 = g.id_of("Q3").unwrap();
        let c = g.id_of("CUSTOMER").unwrap();
        let bad = Strategy::from_exprs(vec![UpdateExpr::inst(c), UpdateExpr::comp1(q3, c)]);
        assert!(sc.run(&bad).is_err());
    }

    #[test]
    fn complete_strategy_appends_missing_installs() {
        let sc = q3_scenario(0.0003).unwrap();
        let g = sc.warehouse.vdag();
        let q3 = g.id_of("Q3").unwrap();
        let partial = uww_vdag::view_strategies(g, q3).remove(0);
        let full = sc.complete_strategy(&partial);
        for v in g.view_ids() {
            assert!(
                full.position(&UpdateExpr::inst(v)).is_some(),
                "{}",
                g.name(v)
            );
        }
        // Idempotent.
        assert_eq!(sc.complete_strategy(&full), full);
    }

    #[test]
    fn rnscol_skips_missing_views_and_is_one_way() {
        let sc = q3_scenario(0.0003).unwrap();
        let s = sc.rnscol_strategy().unwrap();
        assert!(s.is_one_way());
        uww_vdag::check_vdag_strategy(sc.warehouse.vdag(), &s).unwrap();
    }
}
