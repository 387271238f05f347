//! Shared workload setup and reporting helpers for `uww-bench`, the one
//! reports binary.
//!
//! Each `uww-bench <report>` subcommand regenerates one work-unit artifact
//! of the paper's evaluation (Table 1, Figures 12–15, §9, §8, scale
//! sensitivity) against the from-scratch engine. Wall-clock numbers are not
//! this crate's job: they come from `e2e/` (see `BENCHMARK.json`). The scale
//! factor defaults to `0.002` (~12k LINEITEM rows) and can be overridden with
//! the `UWW_SCALE` environment variable.

use uww::core::{min_work_single, CostModel, SizeCatalog};
use uww::scenario::{q3_scenario, TpcdScenario};
use uww::vdag::{Strategy, UpdateExpr};

/// Benchmark scale factor: `UWW_SCALE` env var, default 0.002 when unset.
/// A set but unusable value ends the process with `bad UWW_SCALE …`: a
/// mistyped override must not produce a report at some other scale.
pub fn bench_scale() -> f64 {
    // Lossy: a non-unicode value turns into one that cannot parse.
    let raw = std::env::var_os("UWW_SCALE").map(|s| s.to_string_lossy().into_owned());
    parse_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(0.002);
    };
    match raw.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "bad UWW_SCALE {raw:?}: expected a finite number > 0"
        )),
    }
}

/// The Experiment 1–3 scenario (C, O, L + Q3) at bench scale with the given
/// deletion fraction already loaded.
pub fn q3_with_changes(frac: f64) -> TpcdScenario {
    let mut sc = q3_scenario(bench_scale()).expect("q3 scenario");
    sc.load_col_changes(frac).expect("changes");
    sc
}

/// The Experiment 2 scenario (all bases + Q5) at bench scale, 10% deletions.
pub fn q5_with_changes(frac: f64) -> TpcdScenario {
    let mut sc = uww::scenario::q5_scenario(bench_scale()).expect("q5 scenario");
    sc.load_paper_changes(frac).expect("changes");
    sc
}

/// The Experiment 4 scenario (Figure 4 warehouse) at bench scale.
pub fn figure4_with_changes(frac: f64) -> TpcdScenario {
    let mut sc = uww::scenario::figure4_scenario(bench_scale()).expect("figure4 scenario");
    sc.load_paper_changes(frac).expect("changes");
    sc
}

/// MinWorkSingle for the scenario's single summary view, completed into a
/// VDAG strategy.
pub fn minwork_single_strategy(sc: &TpcdScenario) -> Strategy {
    let g = sc.warehouse.vdag();
    let view = g
        .derived_views()
        .into_iter()
        .next()
        .expect("a summary view");
    let sizes = SizeCatalog::estimate(&sc.warehouse).expect("sizes");
    sc.complete_strategy(&min_work_single(g, view, &sizes))
}

/// A short human label for a view strategy's comp grouping, e.g.
/// `"{L} {O} {C}"`.
pub fn grouping_label(sc: &TpcdScenario, s: &Strategy) -> String {
    let g = sc.warehouse.vdag();
    s.exprs
        .iter()
        .filter_map(|e| match e {
            UpdateExpr::Comp { over, .. } => Some(format!(
                "{{{}}}",
                over.iter()
                    .map(|v| g.name(*v).chars().next().unwrap_or('?').to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Classification of a strategy by its comp grouping.
pub fn strategy_kind(s: &Strategy, n_sources: usize) -> &'static str {
    let sizes: Vec<usize> = s
        .exprs
        .iter()
        .filter_map(|e| match e {
            UpdateExpr::Comp { over, .. } => Some(over.len()),
            _ => None,
        })
        .collect();
    if sizes.len() == 1 && sizes[0] == n_sources {
        "dual-stage"
    } else if sizes.iter().all(|&k| k == 1) {
        "1-way"
    } else if sizes.contains(&2) && sizes.iter().all(|&k| k <= 2) {
        "2-way"
    } else {
        "mixed"
    }
}

/// One measured row of a report.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// Strategy label.
    pub label: String,
    /// Strategy kind.
    pub kind: String,
    /// Predicted work under the linear metric.
    pub predicted: f64,
    /// Measured rows scanned + installed.
    pub measured: u64,
    /// Wall-clock update window.
    pub wall_ms: f64,
}

/// Measures a labelled strategy (verifying the final state) into a row.
pub fn measure(
    sc: &TpcdScenario,
    model: &CostModel<'_>,
    label: &str,
    kind: &str,
    s: &Strategy,
) -> ReportRow {
    let report = sc.run(s).expect("strategy execution");
    ReportRow {
        label: label.to_string(),
        kind: kind.to_string(),
        predicted: model.strategy_work(s),
        measured: report.linear_work(),
        wall_ms: report.wall().as_secs_f64() * 1e3,
    }
}

/// Prints a report table with a trailing best/worst summary.
pub fn print_rows(title: &str, paper_note: &str, mut rows: Vec<ReportRow>) {
    println!("== {title} ==");
    println!("   paper: {paper_note}");
    rows.sort_by_key(|r| r.measured);
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10}",
        "strategy", "kind", "predicted", "measured", "wall(ms)"
    );
    for r in &rows {
        println!(
            "{:<28} {:>10} {:>12.0} {:>12} {:>10.2}",
            r.label, r.kind, r.predicted, r.measured, r.wall_ms
        );
    }
    if let (Some(best), Some(worst)) = (rows.first(), rows.last()) {
        println!(
            "-> worst/best measured ratio: {:.2}x ({} vs {})\n",
            worst.measured as f64 / best.measured as f64,
            worst.label,
            best.label
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_when_unset_and_rejects_unusable_values() {
        assert_eq!(parse_scale(None), Ok(0.002));
        assert_eq!(parse_scale(Some("0.0005")), Ok(0.0005));
        for bad in ["abc", "0.0l", "", "0", "-1", "nan", "inf", "-inf"] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.starts_with("bad UWW_SCALE"), "{bad}: {err}");
        }
    }

    #[test]
    fn kind_classification() {
        let sc = q3_with_changes(0.05);
        let g = sc.warehouse.vdag();
        let q3 = g.id_of("Q3").unwrap();
        let all = uww::vdag::view_strategies(g, q3);
        let kinds: Vec<&str> = all.iter().map(|s| strategy_kind(s, 3)).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "1-way").count(), 6);
        assert_eq!(kinds.iter().filter(|k| **k == "dual-stage").count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == "2-way").count(), 6);
    }

    #[test]
    fn grouping_labels_readable() {
        let sc = q3_with_changes(0.05);
        let s = minwork_single_strategy(&sc);
        let label = grouping_label(&sc, &s);
        assert!(label.contains('{') && label.contains('}'));
    }

    #[test]
    fn measure_round_trip() {
        let sc = q3_with_changes(0.05);
        let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
        let model = CostModel::new(sc.warehouse.vdag(), &sizes);
        let s = minwork_single_strategy(&sc);
        let row = measure(&sc, &model, "mws", "1-way", &s);
        assert!(row.measured > 0);
        assert!(row.predicted > 0.0);
    }
}
