//! The warehouse: stored view extents, view definitions, and pending deltas.

use crate::engine::eval;
use crate::engine::index::IndexSet;
use crate::engine::publish::InstallPublisher;
use crate::engine::summary::{stored_aggregate_schema, SummaryDelta};
use crate::error::{CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet};
use uww_relational::ops::{self, SignedRows};
use uww_relational::{
    Catalog, DeltaRelation, RelError, RelResult, Schema, Table, Tuple, Value, ViewDef, ViewOutput,
    WorkMeter,
};
use uww_vdag::{Vdag, ViewId};

/// The in-flight delta of one view during an update window.
#[derive(Clone, Debug)]
pub enum PendingDelta {
    /// Plus/minus tuples (base views and projection views).
    Rows(DeltaRelation),
    /// Additive per-group accumulator changes (aggregate views).
    Summary(SummaryDelta),
}

impl PendingDelta {
    /// True when the delta carries no change.
    pub fn is_empty(&self) -> bool {
        match self {
            PendingDelta::Rows(d) => d.is_empty(),
            PendingDelta::Summary(s) => s.is_empty(),
        }
    }
}

/// A warehouse: a VDAG of materialized views backed by stored extents, plus
/// the pending deltas of the current update window.
///
/// Cloning a warehouse snapshots the entire state, which is how experiments
/// run many strategies against identical starting conditions.
#[derive(Clone)]
pub struct Warehouse {
    vdag: Vdag,
    /// Definitions of derived views, keyed by name.
    defs: BTreeMap<String, ViewDef>,
    /// Stored extents (aggregate views include the hidden count column).
    state: Catalog,
    /// Pending deltas, keyed by view name.
    pending: BTreeMap<String, PendingDelta>,
    /// Cumulative work meter.
    meter: WorkMeter,
    /// The maintained join indexes terms probe stored operands through
    /// (`engine::index`): built on first use, kept current by every
    /// install, shared with clones until one side installs.
    indexes: IndexSet,
    /// When attached, every committed window publishes the extents it
    /// installed to a shared versioned catalog for online readers.
    publisher: Option<InstallPublisher>,
}

impl Warehouse {
    /// Starts building a warehouse.
    pub fn builder() -> WarehouseBuilder {
        WarehouseBuilder::default()
    }

    /// The VDAG.
    pub fn vdag(&self) -> &Vdag {
        &self.vdag
    }

    /// The stored extent of `view`.
    pub fn table(&self, view: &str) -> CoreResult<&Table> {
        Ok(self.state.get(view)?)
    }

    /// The stored catalog.
    pub fn state(&self) -> &Catalog {
        &self.state
    }

    /// The definition of a derived view.
    pub fn def(&self, view: &str) -> Option<&ViewDef> {
        self.defs.get(view)
    }

    /// The cumulative work meter.
    pub fn meter(&self) -> &WorkMeter {
        &self.meter
    }

    /// Mutable meter access (used by the executor).
    pub(crate) fn meter_mut(&mut self) -> &mut WorkMeter {
        &mut self.meter
    }

    pub(crate) fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    pub(crate) fn indexes_mut(&mut self) -> &mut IndexSet {
        &mut self.indexes
    }

    /// The stored catalog beside the indexes, for building an index over a
    /// table or installing into both.
    pub(crate) fn index_parts(&mut self) -> (&mut Catalog, &mut IndexSet) {
        (&mut self.state, &mut self.indexes)
    }

    /// Drops every maintained join index, so the next window builds each one
    /// it probes afresh — a cold window. Indexes otherwise outlive windows,
    /// kept current by every install.
    pub fn drop_indexes(&mut self) {
        self.indexes.clear();
    }

    /// `(key indexes, extents)` of the maintained join indexes held: the
    /// key column lists indexed, over how many filtered stored extents.
    pub fn index_counts(&self) -> (usize, usize) {
        self.indexes.counts()
    }

    /// Checks every maintained join index against a fresh filter-and-build
    /// over its view's current extent: the same rows and multiplicities, and
    /// per indexed key the same rows on that key's chain. Costs a rebuild of
    /// every index; for tests and audits, not for windows.
    pub fn check_indexes(&self) -> CoreResult<()> {
        self.indexes
            .audit(&self.state)
            .map_err(CoreError::Warehouse)
    }

    /// Attaches an install publisher: from now on every committed window
    /// (sequential, carried, staged or recovered alike) publishes the extents
    /// it installed, as one version of the publisher's shared
    /// [`uww_relational::VersionedCatalog`].
    pub fn attach_publisher(&mut self, publisher: InstallPublisher) {
        self.publisher = Some(publisher);
    }

    /// Detaches the install publisher, returning it if one was attached.
    pub fn detach_publisher(&mut self) -> Option<InstallPublisher> {
        self.publisher.take()
    }

    /// The attached install publisher, if any.
    pub fn publisher(&self) -> Option<&InstallPublisher> {
        self.publisher.as_ref()
    }

    pub(crate) fn pending_map(&self) -> &BTreeMap<String, PendingDelta> {
        &self.pending
    }

    pub(crate) fn pending_map_mut(&mut self) -> &mut BTreeMap<String, PendingDelta> {
        &mut self.pending
    }

    /// The pending delta of `view`, if any.
    pub fn pending(&self, view: &str) -> Option<&PendingDelta> {
        self.pending.get(view)
    }

    /// Loads the change batch for this update window. Only base views may
    /// receive external deltas; any previous pending state is discarded.
    pub fn load_changes(&mut self, changes: BTreeMap<String, DeltaRelation>) -> CoreResult<()> {
        self.pending.clear();
        for (view, delta) in changes {
            let id = self.vdag.id_of(&view)?;
            if !self.vdag.is_base(id) {
                return Err(CoreError::Warehouse(format!(
                    "cannot load external changes for derived view {view}"
                )));
            }
            let table = self.state.get(&view)?;
            if delta.schema() != table.schema() {
                return Err(CoreError::Warehouse(format!(
                    "delta schema mismatch for {view}"
                )));
            }
            self.pending.insert(view, PendingDelta::Rows(delta));
        }
        Ok(())
    }

    /// Replaces the stored state with a recovered snapshot, after verifying
    /// that it covers exactly this warehouse's views with matching schemas.
    /// Any pending deltas are discarded (recovery reloads them from the WAL
    /// directory's change snapshot), and so are the maintained indexes.
    pub(crate) fn restore_state(&mut self, snapshot: Catalog) -> CoreResult<()> {
        if snapshot.len() != self.state.len() {
            return Err(CoreError::Warehouse(format!(
                "snapshot has {} views, warehouse has {}",
                snapshot.len(),
                self.state.len()
            )));
        }
        for table in self.state.iter() {
            let restored = snapshot.get(table.name()).map_err(|_| {
                CoreError::Warehouse(format!("snapshot is missing view {}", table.name()))
            })?;
            if restored.schema() != table.schema() {
                return Err(CoreError::Warehouse(format!(
                    "snapshot schema mismatch for {}",
                    table.name()
                )));
            }
        }
        self.state = snapshot;
        self.pending.clear();
        self.indexes.clear();
        Ok(())
    }

    /// `|ΔV|` of the pending delta of `view`: expanded plus+minus rows.
    /// Zero when no delta is pending.
    pub fn pending_len(&self, view: &str) -> CoreResult<u64> {
        match self.pending.get(view) {
            None => Ok(0),
            Some(PendingDelta::Rows(d)) => Ok(d.len()),
            Some(PendingDelta::Summary(s)) => Ok(s
                .to_delta(self.state.get(view)?)
                .map_err(CoreError::Rel)?
                .len()),
        }
    }

    /// The pending delta of `view` expanded to plus/minus rows over its
    /// stored schema. Empty delta when nothing is pending.
    pub fn pending_rows(&self, view: &str) -> CoreResult<DeltaRelation> {
        let table = self.state.get(view)?;
        match self.pending.get(view) {
            None => Ok(DeltaRelation::new(table.schema().clone())),
            Some(PendingDelta::Rows(d)) => Ok(d.clone()),
            Some(PendingDelta::Summary(s)) => Ok(s.to_delta(table).map_err(CoreError::Rel)?),
        }
    }

    /// An empty pending delta of the right shape for `view`.
    pub(crate) fn empty_pending_for(&self, view: &str) -> CoreResult<PendingDelta> {
        match self.defs.get(view) {
            Some(def) if def.is_aggregate() => {
                let joined = self.joined_schema(def)?;
                let group_arity = match &def.output {
                    ViewOutput::Aggregate { group_by, .. } => group_by.len(),
                    ViewOutput::Project(_) => unreachable!("is_aggregate checked"),
                };
                let agg_types = eval::agg_types(def, &joined).map_err(CoreError::Rel)?;
                Ok(PendingDelta::Summary(SummaryDelta::new(
                    group_arity,
                    agg_types,
                )))
            }
            Some(def) => {
                let visible = self.visible_schema(def)?;
                Ok(PendingDelta::Rows(DeltaRelation::new(visible)))
            }
            None => {
                let table = self.state.get(view)?;
                Ok(PendingDelta::Rows(DeltaRelation::new(
                    table.schema().clone(),
                )))
            }
        }
    }

    fn joined_schema(&self, def: &ViewDef) -> CoreResult<Schema> {
        def.joined_schema(|v| self.state.get(v).map(|t| t.schema().clone()))
            .map_err(CoreError::Rel)
    }

    fn visible_schema(&self, def: &ViewDef) -> CoreResult<Schema> {
        def.output_schema(|v| self.state.get(v).map(|t| t.schema().clone()))
            .map_err(CoreError::Rel)
    }

    /// Fully materializes `def` from the current stored state (a from-scratch
    /// evaluation; used at build time and by consistency checks).
    pub fn materialize(&self, def: &ViewDef) -> CoreResult<Table> {
        materialize_from(&self.state, def).map_err(CoreError::Rel)
    }

    /// The database state every correct strategy must produce: base deltas
    /// installed, derived views recomputed from scratch. Call *before*
    /// executing a strategy (it reads the pending base deltas).
    pub fn expected_final_state(&self) -> CoreResult<Catalog> {
        let mut cat = Catalog::new();
        // Base views with their deltas applied.
        for v in self.vdag.base_views() {
            let name = self.vdag.name(v);
            let table = self.state.get(name)?;
            match self.pending.get(name) {
                Some(PendingDelta::Rows(d)) => cat.register(d.applied_to(table)?)?,
                Some(PendingDelta::Summary(_)) => {
                    return Err(CoreError::Warehouse(format!(
                        "base view {name} has a summary delta"
                    )))
                }
                None => cat.register(table.clone())?,
            }
        }
        // Derived views recomputed bottom-up.
        for v in self.vdag.derived_views() {
            let name = self.vdag.name(v);
            let def = self
                .defs
                .get(name)
                .ok_or_else(|| CoreError::Warehouse(format!("missing def for {name}")))?;
            cat.register(materialize_from(&cat, def)?)?;
        }
        Ok(cat)
    }

    /// Compares the stored state against `expected`, returning the names of
    /// views whose contents differ.
    pub fn diff_state(&self, expected: &Catalog) -> Vec<String> {
        let mut out = Vec::new();
        for table in expected.iter() {
            match self.state.get(table.name()) {
                Ok(actual) if actual.same_contents(table) => {}
                _ => out.push(table.name().to_string()),
            }
        }
        out
    }

    /// Resolves view names to ids for a whole strategy's worth of use.
    pub fn view_id(&self, name: &str) -> CoreResult<ViewId> {
        Ok(self.vdag.id_of(name)?)
    }

    /// The names of `views` — a `Comp`'s `over` set as the term engine keys it.
    pub(crate) fn view_names(&self, views: &BTreeSet<ViewId>) -> BTreeSet<String> {
        views
            .iter()
            .map(|v| self.vdag.name(*v).to_string())
            .collect()
    }
}

/// Builder for [`Warehouse`].
#[derive(Default)]
pub struct WarehouseBuilder {
    base_tables: Vec<Table>,
    defs: Vec<ViewDef>,
}

impl WarehouseBuilder {
    /// Registers a base view with its loaded extent.
    pub fn base_table(mut self, table: Table) -> Self {
        self.base_tables.push(table);
        self
    }

    /// Registers a derived view definition. Definitions may reference base
    /// views and previously satisfiable definitions in any order; the builder
    /// topologically sorts them.
    pub fn view(mut self, def: ViewDef) -> Self {
        self.defs.push(def);
        self
    }

    /// Registers several derived view definitions at once.
    pub fn view_all(mut self, defs: impl IntoIterator<Item = ViewDef>) -> Self {
        self.defs.extend(defs);
        self
    }

    /// Validates everything, builds the VDAG, and materializes every derived
    /// view from scratch.
    pub fn build(self) -> CoreResult<Warehouse> {
        let mut vdag = Vdag::new();
        let mut state = Catalog::new();
        for t in self.base_tables {
            vdag.add_base(t.name())?;
            state.register(t)?;
        }

        // Topologically order the defs (sources must already be registered).
        let mut remaining: Vec<ViewDef> = self.defs;
        let mut defs: BTreeMap<String, ViewDef> = BTreeMap::new();
        while !remaining.is_empty() {
            let ready = remaining
                .iter()
                .position(|d| d.source_views().iter().all(|s| state.contains(s)));
            let Some(idx) = ready else {
                let names: Vec<String> = remaining.iter().map(|d| d.name.clone()).collect();
                return Err(CoreError::Warehouse(format!(
                    "unsatisfiable view definitions (missing sources): {names:?}"
                )));
            };
            let def = remaining.swap_remove(idx);
            def.validate(|v| state.get(v).map(|t| t.schema().clone()))?;
            let source_ids: Vec<ViewId> = def
                .source_views()
                .iter()
                .map(|s| vdag.id_of(s))
                .collect::<Result<_, _>>()?;
            vdag.add_derived(&def.name, &source_ids)?;
            let table = materialize_from(&state, &def)?;
            state.register(table)?;
            defs.insert(def.name.clone(), def);
        }

        Ok(Warehouse {
            vdag,
            defs,
            state,
            pending: BTreeMap::new(),
            meter: WorkMeter::new(),
            indexes: IndexSet::default(),
            publisher: None,
        })
    }
}

/// From-scratch evaluation of `def` against `state`, producing the stored
/// extent (with the hidden count column for aggregate views).
pub(crate) fn materialize_from(state: &Catalog, def: &ViewDef) -> RelResult<Table> {
    let mut scratch_meter = WorkMeter::new();
    let (schema, rows) = eval::eval_term(
        def,
        |v| state.get(v).map(|t| t.schema().clone()),
        |v| {
            let t = state.get(v)?;
            Ok(ops::scan_table(t, &mut WorkMeter::new()))
        },
        &mut scratch_meter,
    )?;

    match &def.output {
        ViewOutput::Project(_) => {
            let out_rows = eval::project_output(def, &schema, &rows, &mut scratch_meter)?;
            let visible = def.output_schema(|v| state.get(v).map(|t| t.schema().clone()))?;
            let mut table = Table::new(&def.name, visible);
            for (t, m) in ops::consolidate(out_rows) {
                if m < 0 {
                    return Err(RelError::NegativeMultiplicity {
                        relation: def.name.clone(),
                    });
                }
                table.insert_n(t, m as u64)?;
            }
            Ok(table)
        }
        ViewOutput::Aggregate { .. } => {
            let groups = eval::group_output(def, &schema, &rows)?;
            let visible = def.output_schema(|v| state.get(v).map(|t| t.schema().clone()))?;
            let stored = stored_aggregate_schema(&visible)?;
            let agg_types = eval::agg_types(def, &schema)?;
            let mut table = Table::new(&def.name, stored);
            for (key, acc) in groups {
                if acc.count <= 0 {
                    return Err(RelError::NegativeMultiplicity {
                        relation: def.name.clone(),
                    });
                }
                let mut vals: Vec<Value> = key.values().to_vec();
                for (i, (func, ty)) in agg_types.iter().enumerate() {
                    let raw = match acc.accs[i] {
                        uww_relational::ops::Acc::Sum(v) => v,
                        uww_relational::ops::Acc::Min(Some(v))
                        | uww_relational::ops::Acc::Max(Some(v)) => v,
                        uww_relational::ops::Acc::Min(None)
                        | uww_relational::ops::Acc::Max(None) => {
                            return Err(RelError::UnsupportedIncremental(format!(
                                "{func:?} over a group with no rows"
                            )))
                        }
                    };
                    vals.push(super::summary_raw_to_value(*func, *ty, raw));
                }
                vals.push(Value::Int(acc.count));
                table.insert(Tuple::new(vals))?;
            }
            Ok(table)
        }
    }
}

/// Scans the operand for `view` in role `role` against the warehouse state,
/// charging `meter`.
pub(crate) fn scan_operand(
    state: &Catalog,
    pending: &BTreeMap<String, PendingDelta>,
    view: &str,
    as_delta: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    if as_delta {
        match pending.get(view) {
            None => Ok(Vec::new()),
            Some(PendingDelta::Rows(d)) => Ok(ops::scan_delta(d, meter)),
            Some(PendingDelta::Summary(s)) => {
                let expanded = s.to_delta(state.get(view)?)?;
                Ok(ops::scan_delta(&expanded, meter))
            }
        }
    } else {
        Ok(ops::scan_table(state.get(view)?, meter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_relational::{
        tup, AggFunc, AggregateColumn, EquiJoin, OutputColumn, Predicate, ScalarExpr, ValueType,
        ViewSource,
    };

    fn base_r() -> Table {
        let mut t = Table::new(
            "R",
            Schema::of(&[("rk", ValueType::Int), ("rv", ValueType::Decimal)]),
        );
        for i in 0..4 {
            t.insert(tup![Value::Int(i), Value::Decimal(100 * (i + 1))])
                .unwrap();
        }
        t
    }

    fn base_s() -> Table {
        let mut t = Table::new(
            "S",
            Schema::of(&[("sk", ValueType::Int), ("grp", ValueType::Int)]),
        );
        for i in 0..4 {
            t.insert(tup![Value::Int(i), Value::Int(i % 2)]).unwrap();
        }
        t
    }

    fn agg_def() -> ViewDef {
        ViewDef {
            name: "V".into(),
            sources: vec![ViewSource::named("R"), ViewSource::named("S")],
            joins: vec![EquiJoin::new("R.rk", "S.sk")],
            filters: vec![],
            output: ViewOutput::Aggregate {
                group_by: vec![OutputColumn::col("grp", "S.grp")],
                aggregates: vec![AggregateColumn {
                    name: "total".into(),
                    func: AggFunc::Sum,
                    input: ScalarExpr::col("R.rv"),
                }],
            },
        }
    }

    fn proj_def() -> ViewDef {
        ViewDef {
            name: "P".into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![Predicate::col_gt("R.rv", Value::Decimal(150))],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "R.rk")]),
        }
    }

    #[test]
    fn build_materializes_views() {
        let w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .view(proj_def())
            .build()
            .unwrap();
        // V: group 0 = rows 0,2 -> 100+300 = 400; group 1 = rows 1,3 -> 200+400 = 600.
        let v = w.table("V").unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(
            v.multiplicity(&tup![Value::Int(0), Value::Decimal(400), Value::Int(2)]),
            1
        );
        // P: rv > 1.50 -> keys 1,2,3.
        let p = w.table("P").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(w.vdag().len(), 4);
        assert!(w.def("V").is_some());
        assert!(w.def("R").is_none());
    }

    #[test]
    fn defs_registered_out_of_order() {
        // W depends on V; registered first.
        let w_def = ViewDef {
            name: "W".into(),
            sources: vec![ViewSource::named("V")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("g", "V.grp")]),
        };
        let w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(w_def)
            .view(agg_def())
            .build()
            .unwrap();
        assert_eq!(w.table("W").unwrap().len(), 2);
        assert_eq!(w.vdag().level(w.view_id("W").unwrap()), 2);
    }

    #[test]
    fn unsatisfiable_defs_rejected() {
        let err = Warehouse::builder()
            .base_table(base_r())
            .view(agg_def()) // needs S
            .build();
        assert!(matches!(err, Err(CoreError::Warehouse(_))));
    }

    #[test]
    fn load_changes_validates() {
        let mut w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .build()
            .unwrap();
        // Derived view rejected.
        let mut m = BTreeMap::new();
        m.insert(
            "V".to_string(),
            DeltaRelation::new(w.table("V").unwrap().schema().clone()),
        );
        assert!(w.load_changes(m).is_err());
        // Schema mismatch rejected.
        let mut m = BTreeMap::new();
        m.insert(
            "R".to_string(),
            DeltaRelation::new(Schema::of(&[("x", ValueType::Int)])),
        );
        assert!(w.load_changes(m).is_err());
        // Valid delta accepted.
        let mut d = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        d.add(tup![Value::Int(0), Value::Decimal(100)], -1);
        let mut m = BTreeMap::new();
        m.insert("R".to_string(), d);
        w.load_changes(m).unwrap();
        assert_eq!(w.pending_len("R").unwrap(), 1);
        assert_eq!(w.pending_len("S").unwrap(), 0);
    }

    #[test]
    fn expected_final_state_recomputes() {
        let mut w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .build()
            .unwrap();
        let mut d = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        d.add(tup![Value::Int(0), Value::Decimal(100)], -1);
        let mut m = BTreeMap::new();
        m.insert("R".to_string(), d);
        w.load_changes(m).unwrap();
        let expected = w.expected_final_state().unwrap();
        assert_eq!(expected.get("R").unwrap().len(), 3);
        // Group 0 loses row 0: total 300, count 1.
        assert_eq!(
            expected.get("V").unwrap().multiplicity(&tup![
                Value::Int(0),
                Value::Decimal(300),
                Value::Int(1)
            ]),
            1
        );
        // diff_state against unmodified warehouse flags R and V.
        let diffs = w.diff_state(&expected);
        assert_eq!(diffs, vec!["R", "V"]);
    }
}
