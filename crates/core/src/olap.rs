//! OLAP interference simulation (the paper's Section 7 "Discussion").
//!
//! The update window matters because OLAP queries either stop (locking) or
//! slow down (resource competition) while it runs. The paper's discussion
//! weighs the dual-stage strategy's one compact install phase ("minimizes
//! the time in which locking operations are necessary") against its much
//! longer compute phase, and argues that once OLAP queries run at lower
//! isolation levels — so installs need no locks — the 1-way strategies'
//! smaller total work wins outright.
//!
//! This module makes that argument quantitative: a deterministic
//! discrete-time simulation runs a strategy's expressions back to back
//! (durations from the [`CostModel`]), admits a stream of OLAP queries
//! (fixed inter-arrival, round-robin over the views), and reports per-query
//! latency under two isolation regimes. As on the live server, a window's
//! installs become visible together, at the end of its install phase.

use crate::cost::CostModel;
use crate::sizes::SizeCatalog;
use std::collections::HashSet;
use uww_vdag::{Strategy, UpdateExpr, Vdag, ViewId};

/// How installs interact with concurrent queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsolationMode {
    /// The window's install phase — from its first `Inst` to the end of its
    /// last — holds one exclusive lock: a query arriving inside it waits for
    /// the phase to end, whatever view it targets.
    Strict,
    /// Queries read at a lower isolation level; installs never block them.
    /// (The paper: "it is often acceptable for OLAP queries to run at lower
    /// isolation levels, which allows the Inst expressions to run without
    /// locking.")
    LowIsolation,
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct OlapWorkload {
    /// Work-units between consecutive query arrivals.
    pub interarrival: f64,
    /// Query service demand as a fraction of its target view's size
    /// (a query scanning 10% of the view: `0.1`).
    pub scan_fraction: f64,
    /// Slow-down factor applied to query service while the update runs
    /// (resource competition; `2.0` = queries run at half speed).
    pub update_contention: f64,
    /// Isolation regime.
    pub isolation: IsolationMode,
}

impl Default for OlapWorkload {
    fn default() -> Self {
        OlapWorkload {
            interarrival: 500.0,
            scan_fraction: 0.25,
            update_contention: 2.0,
            isolation: IsolationMode::Strict,
        }
    }
}

/// One simulated query's outcome.
#[derive(Clone, Copy, Debug)]
pub struct QueryOutcome {
    /// The view the query read.
    pub target: ViewId,
    /// Arrival time (work units from window start).
    pub arrival: f64,
    /// Time spent blocked on an install lock.
    pub lock_wait: f64,
    /// Service time (inflated by contention while the update ran).
    pub service: f64,
}

impl QueryOutcome {
    /// Total response time.
    pub fn latency(&self) -> f64 {
        self.lock_wait + self.service
    }
}

/// Aggregate simulation results.
#[derive(Clone, Debug)]
pub struct InterferenceReport {
    /// Length of the update window in work units.
    pub window: f64,
    /// Span from the start of the first install to the end of the last
    /// (the "locking phase" the dual-stage strategy compresses).
    pub install_span: f64,
    /// Total time spent inside installs.
    pub total_install_time: f64,
    /// Every simulated query.
    pub queries: Vec<QueryOutcome>,
}

impl InterferenceReport {
    /// Mean query latency.
    pub fn mean_latency(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(QueryOutcome::latency).sum::<f64>() / self.queries.len() as f64
    }

    /// Maximum query latency.
    pub fn max_latency(&self) -> f64 {
        self.queries
            .iter()
            .map(QueryOutcome::latency)
            .fold(0.0, f64::max)
    }

    /// Total lock-wait across all queries.
    pub fn total_lock_wait(&self) -> f64 {
        self.queries.iter().map(|q| q.lock_wait).sum()
    }

    /// Latency at quantile `q` (`0.0 ≤ q ≤ 1.0`), nearest-rank on the sorted
    /// latencies. `0.0` for an empty report. The same definition the serving
    /// subsystem uses for its measured p50/p95/p99, so simulated and measured
    /// distributions compare like for like.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let mut lats: Vec<f64> = self.queries.iter().map(QueryOutcome::latency).collect();
        if lats.is_empty() {
            return 0.0;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((q.clamp(0.0, 1.0) * lats.len() as f64).ceil() as usize).max(1) - 1;
        lats[rank.min(lats.len() - 1)]
    }
}

/// Simulates one update window with concurrent OLAP queries.
///
/// The expression timeline is derived from the cost model (work units double
/// as time units, as on the paper's scan-bound hardware). Queries arrive at
/// `t = 0, interarrival, 2·interarrival, …` while the window is open,
/// targeting the *queryable* views (derived views — warehouse users query
/// summary tables) in round-robin order.
pub fn simulate(
    g: &Vdag,
    model: &CostModel<'_>,
    sizes: &SizeCatalog,
    strategy: &Strategy,
    workload: &OlapWorkload,
) -> InterferenceReport {
    // Build the expression timeline.
    let per_expr = model.per_expression_work(strategy);
    let mut t = 0.0;
    let mut installs: Vec<(f64, f64)> = Vec::new(); // (start, end)
    let mut installed: HashSet<ViewId> = HashSet::new();
    for (e, w) in strategy.exprs.iter().zip(&per_expr) {
        let start = t;
        t += *w;
        if let UpdateExpr::Inst(v) = e {
            installs.push((start, t));
            installed.insert(*v);
        }
    }
    let window = t;
    // The install phase, and the publish that ends it.
    let (lock_start, publish) = match (installs.first(), installs.last()) {
        (Some(first), Some(last)) => (first.0, last.1),
        _ => (0.0, 0.0),
    };
    let install_span = publish - lock_start;
    let total_install_time: f64 = installs.iter().map(|(s, e)| e - s).sum();

    // Queryable views: summary tables; fall back to all views for bare
    // VDAGs.
    let mut targets: Vec<ViewId> = g.derived_views();
    if targets.is_empty() {
        targets = g.view_ids().collect();
    }

    let mut queries = Vec::new();
    let mut arrival = 0.0;
    let mut next_target = 0usize;
    while arrival < window {
        let target = targets[next_target % targets.len()];
        next_target += 1;

        // Lock wait: if the install phase is open at arrival.
        let in_phase = lock_start <= arrival && arrival < publish;
        let lock_wait = match workload.isolation {
            IsolationMode::Strict if in_phase => publish - arrival,
            _ => 0.0,
        };

        // Service: scan a fraction of the target view (post-window size if
        // the window published before the query starts), slowed by
        // contention while the update window is open.
        let start_service = arrival + lock_wait;
        let installed_by_then = installed.contains(&target) && publish <= start_service;
        let view_size = sizes.state_size(target, installed_by_then);
        let base_service = view_size * workload.scan_fraction;
        let service = if start_service < window {
            base_service * workload.update_contention
        } else {
            base_service
        };

        queries.push(QueryOutcome {
            target,
            arrival,
            lock_wait,
            service,
        });
        arrival += workload.interarrival;
    }

    InterferenceReport {
        window,
        install_span,
        total_install_time,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::min_work;
    use crate::sizes::SizeInfo;
    use uww_vdag::dual_stage_strategy;

    fn setup() -> (Vdag, SizeCatalog) {
        let mut g = Vdag::new();
        let b: Vec<ViewId> = (0..3)
            .map(|i| g.add_base(format!("B{i}")).unwrap())
            .collect();
        g.add_derived("V", &b).unwrap();
        let mut sizes = SizeCatalog::default();
        for (i, id) in b.iter().enumerate() {
            let pre = 1000.0 * (i + 1) as f64;
            sizes.set(
                *id,
                SizeInfo {
                    pre,
                    post: pre * 0.9,
                    delta: pre * 0.1,
                },
            );
        }
        sizes.set(
            g.id_of("V").unwrap(),
            SizeInfo {
                pre: 400.0,
                post: 360.0,
                delta: 40.0,
            },
        );
        (g, sizes)
    }

    #[test]
    fn dual_stage_compresses_install_span_but_lengthens_window() {
        let (g, sizes) = setup();
        let model = CostModel::new(&g, &sizes);
        let wl = OlapWorkload::default();

        let plan = min_work(&g, &sizes).unwrap();
        let one_way = simulate(&g, &model, &sizes, &plan.strategy, &wl);
        let dual = simulate(&g, &model, &sizes, &dual_stage_strategy(&g), &wl);

        // The paper's trade-off, quantified.
        assert!(
            dual.install_span < one_way.install_span,
            "dual install span {} vs one-way {}",
            dual.install_span,
            one_way.install_span
        );
        assert!(
            dual.window > one_way.window,
            "dual window {} vs one-way {}",
            dual.window,
            one_way.window
        );
        // Total install (lock) time is identical: same deltas installed.
        assert!((dual.total_install_time - one_way.total_install_time).abs() < 1e-9);
    }

    #[test]
    fn low_isolation_eliminates_lock_waits_and_one_way_wins() {
        let (g, sizes) = setup();
        let model = CostModel::new(&g, &sizes);
        let wl = OlapWorkload {
            isolation: IsolationMode::LowIsolation,
            ..OlapWorkload::default()
        };
        let plan = min_work(&g, &sizes).unwrap();
        let one_way = simulate(&g, &model, &sizes, &plan.strategy, &wl);
        let dual = simulate(&g, &model, &sizes, &dual_stage_strategy(&g), &wl);

        assert_eq!(one_way.total_lock_wait(), 0.0);
        assert_eq!(dual.total_lock_wait(), 0.0);
        // Shorter window -> fewer queries suffer contention -> lower total
        // degraded time. Mean latency under the 1-way plan must not exceed
        // the dual-stage plan's.
        assert!(
            one_way.mean_latency() <= dual.mean_latency() + 1e-9,
            "one-way {} vs dual {}",
            one_way.mean_latency(),
            dual.mean_latency()
        );
        // And strictly fewer queries arrive inside the (shorter) window.
        assert!(one_way.queries.len() <= dual.queries.len());
    }

    #[test]
    fn strict_isolation_charges_lock_waits() {
        let (g, sizes) = setup();
        let model = CostModel::new(&g, &sizes);
        // Flood of queries so some inevitably land inside installs.
        let wl = OlapWorkload {
            interarrival: 10.0,
            isolation: IsolationMode::Strict,
            ..OlapWorkload::default()
        };
        let plan = min_work(&g, &sizes).unwrap();
        let rep = simulate(&g, &model, &sizes, &plan.strategy, &wl);
        // The install phase spans several 10-unit arrivals; every query
        // landing in it waits for its end, whichever view's Inst is running.
        assert!(
            rep.total_lock_wait() > 0.0,
            "expected lock waits, got none over {} queries",
            rep.queries.len()
        );
        let publish = rep.window; // the strategy ends with an Inst
        for q in &rep.queries {
            let in_phase = q.arrival >= publish - rep.install_span;
            let wait = if in_phase { publish - q.arrival } else { 0.0 };
            assert!((q.lock_wait - wait).abs() < 1e-9, "{q:?}");
        }
        assert!(rep.max_latency() >= rep.mean_latency());
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let queries = (1..=100)
            .map(|i| QueryOutcome {
                target: ViewId(0),
                arrival: 0.0,
                lock_wait: 0.0,
                service: i as f64,
            })
            .collect();
        let rep = InterferenceReport {
            window: 0.0,
            install_span: 0.0,
            total_install_time: 0.0,
            queries,
        };
        assert_eq!(rep.latency_percentile(0.50), 50.0);
        assert_eq!(rep.latency_percentile(0.95), 95.0);
        assert_eq!(rep.latency_percentile(0.99), 99.0);
        assert_eq!(rep.latency_percentile(1.0), 100.0);
        assert_eq!(rep.latency_percentile(0.0), 1.0);
        let empty = InterferenceReport {
            window: 0.0,
            install_span: 0.0,
            total_install_time: 0.0,
            queries: Vec::new(),
        };
        assert_eq!(empty.latency_percentile(0.5), 0.0);
    }

    #[test]
    fn empty_strategy_yields_empty_report() {
        let (g, sizes) = setup();
        let model = CostModel::new(&g, &sizes);
        let rep = simulate(
            &g,
            &model,
            &sizes,
            &Strategy::new(),
            &OlapWorkload::default(),
        );
        assert_eq!(rep.window, 0.0);
        assert!(rep.queries.is_empty());
        assert_eq!(rep.mean_latency(), 0.0);
    }
}
