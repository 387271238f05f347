//! Window-sizing report: fixed vs adaptive micro-batch scheduling on the
//! figure-4 warehouse under a seeded continuous event stream.
//!
//! For each arrival rate the same seeded timeline is ingested three times —
//! `fixed` (the paper's nightly-window stand-in: cut every 16 ticks),
//! `greedy` (cut every tick), and `adaptive` (EWMA-driven window sizing
//! against the staleness SLA). All three must process the identical event
//! set and land in a byte-identical final state equal to recomputing every
//! view from the final bases; `adaptive` must then dominate `fixed` on mean
//! staleness at equal throughput (same offered load, delivered rows within
//! tolerance).
//!
//! Violations abort the run, so this binary doubles as a CI smoke check.
//! Output: a summary on stdout plus `BENCH_window_sizing.json` in the
//! current directory. Scale comes from `UWW_SCALE` (default 0.002); the
//! stream seed from `UWW_INGEST_SEED` (default 0x57571999).

use std::fmt::Write as _;

use uww::relational::catalog_to_string;
use uww::sched::{
    IngestOutcome, IngestScheduler, Policy, SchedConfig, SeededSource, SeededSourceConfig,
    SlaConfig, WindowPlanner,
};
use uww_bench::bench_scale;

const RATES_MILLI: &[u64] = &[1000, 2000, 4000];
const HORIZON: u64 = 120;
const FIXED_WINDOW: u64 = 16;

struct Run {
    out: IngestOutcome,
    state: String,
}

fn ingest(scale: f64, policy: Policy, rate_milli: u64, seed: u64) -> Run {
    let sc = uww::scenario::figure4_scenario(scale).expect("figure4 scenario");
    let mut w = sc.warehouse.clone();
    let sla = SlaConfig {
        target_staleness: 24.0,
        service_rate: 2000.0,
        ..SlaConfig::default()
    };
    let cfg = SchedConfig {
        policy,
        sla,
        window: FIXED_WINDOW,
        horizon: HORIZON,
        carry: true,
        planner: WindowPlanner::Shared,
        ..SchedConfig::default()
    };
    let source = SeededSource::new(
        &w,
        SeededSourceConfig {
            seed,
            rate_milli,
            horizon: HORIZON,
            ..SeededSourceConfig::default()
        },
    );
    let out = IngestScheduler::new(cfg, source)
        .run(&mut w)
        .expect("ingest run");
    assert!(
        out.crashed.is_none(),
        "{}@{rate_milli}: unexpected crash",
        policy.as_str()
    );
    // Nothing is pending after the last window, so the oracle recomputes
    // every derived view from the final base tables.
    let expected = w.expected_final_state().expect("recompute oracle");
    assert!(
        w.diff_state(&expected).is_empty(),
        "{}@{rate_milli}: final state differs from the recompute",
        policy.as_str()
    );
    Run {
        out,
        state: catalog_to_string(w.state()),
    }
}

fn emit_policy(json: &mut String, name: &str, run: &Run, last: bool) {
    let o = &run.out;
    let _ = writeln!(
        json,
        "      \"{name}\": {{ \"windows\": {}, \"events\": {}, \"mean_staleness\": {:.4}, \"throughput\": {:.4}, \"clock\": {} }}{}",
        o.windows.len(),
        o.events(),
        o.mean_staleness(),
        o.throughput(),
        o.clock,
        if last { "" } else { "," }
    );
}

fn main() {
    let scale = bench_scale();
    let seed = std::env::var("UWW_INGEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5757_1999u64);
    println!(
        "Window-sizing report (figure-4 warehouse, scale = {scale}, seed = {seed:#x}, horizon = {HORIZON})"
    );
    println!(
        "  {:>10} {:>9} {:>7} {:>8} {:>11} {:>11} {:>8}",
        "rate_milli", "policy", "windows", "events", "staleness", "throughput", "clock"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"horizon\": {HORIZON},");
    let _ = writeln!(json, "  \"fixed_window\": {FIXED_WINDOW},");
    json.push_str("  \"rates\": [\n");

    for (ri, &rate) in RATES_MILLI.iter().enumerate() {
        let fixed = ingest(scale, Policy::Fixed, rate, seed);
        let greedy = ingest(scale, Policy::Greedy, rate, seed);
        let adaptive = ingest(scale, Policy::Adaptive, rate, seed);

        for (name, run) in [
            ("fixed", &fixed),
            ("greedy", &greedy),
            ("adaptive", &adaptive),
        ] {
            let o = &run.out;
            println!(
                "  {rate:>10} {name:>9} {:>7} {:>8} {:>11.2} {:>11.2} {:>8}",
                o.windows.len(),
                o.events(),
                o.mean_staleness(),
                o.throughput(),
                o.clock,
            );
        }

        // Same timeline, every event processed: the event sets and the final
        // warehouse states must agree byte for byte across policies.
        for (name, run) in [("greedy", &greedy), ("adaptive", &adaptive)] {
            assert_eq!(
                fixed.out.events(),
                run.out.events(),
                "rate {rate}: {name} processed a different event set"
            );
            assert_eq!(
                fixed.state, run.state,
                "rate {rate}: {name} final state diverged from fixed"
            );
        }

        // The headline gate: adaptive dominates fixed on mean staleness at
        // equal offered load, without giving up delivered throughput.
        assert!(
            adaptive.out.mean_staleness() <= fixed.out.mean_staleness(),
            "rate {rate}: adaptive staleness {:.2} exceeds fixed {:.2}",
            adaptive.out.mean_staleness(),
            fixed.out.mean_staleness()
        );
        assert!(
            adaptive.out.throughput() >= 0.85 * fixed.out.throughput(),
            "rate {rate}: adaptive throughput {:.2} fell below 85% of fixed {:.2}",
            adaptive.out.throughput(),
            fixed.out.throughput()
        );

        let improvement = if adaptive.out.mean_staleness() > 0.0 {
            fixed.out.mean_staleness() / adaptive.out.mean_staleness()
        } else {
            1.0
        };
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"rate_milli\": {rate},");
        emit_policy(&mut json, "fixed", &fixed, false);
        emit_policy(&mut json, "greedy", &greedy, false);
        emit_policy(&mut json, "adaptive", &adaptive, false);
        let _ = writeln!(json, "      \"staleness_improvement\": {improvement:.4},");
        let _ = writeln!(json, "      \"states_identical\": true");
        json.push_str(if ri + 1 == RATES_MILLI.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }

    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_window_sizing.json", &json).expect("write BENCH_window_sizing.json");
    println!("\nWrote BENCH_window_sizing.json");
}
