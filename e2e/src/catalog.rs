//! Every metric the benchmark prints, by name: its unit, and for end-to-end
//! metrics the bound `BENCHMARK.json` fixes. A unit test holds the two files
//! to each other.

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> EndToEndDef {
    EndToEndDef { name, unit, bound }
}

pub const END_TO_END: [EndToEndDef; 7] = [
    gated("setup_s", "s", 0.25),
    gated("window_ms", "ms", 0.25),
    gated("window_dual_ms", "ms", 0.25),
    gated("window_shared_ms", "ms", 0.25),
    gated("window_part_ms", "ms", 0.25),
    gated("window_durable_ms", "ms", 0.25),
    gated("ingest_window_ms", "ms", 0.25),
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count the program makes from seeded inputs alone: two runs of one
    /// build with one seed must agree on it to the last digit.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        exact: true,
    }
}

pub const PER_LAYER: [LayerDef; 77] = [
    timing("tpcd.generate_ms", "ms"),
    timing("tpcd.batch_ms", "ms"),
    timing("oracle.recompute_ms", "ms"),
    timing("ops.scan_ns_per_row", "ns"),
    timing("ops.build_ns_per_row", "ns"),
    timing("ops.probe_ns_per_row", "ns"),
    timing("ops.group_ns_per_row", "ns"),
    timing("ops.split_ns_per_row", "ns"),
    exact("ops.physical_rows", "count"),
    exact("ops.hash_tables_built", "count"),
    exact("ops.hash_tables_reused", "count"),
    exact("ops.rows_emitted", "count"),
    timing("table.install_ns_per_row", "ns"),
    timing("table.clone_us", "us"),
    timing("versioned.publish_us", "us"),
    timing("versioned.read_pinned_ns", "ns"),
    timing("vdag.check_strategy_us", "us"),
    timing("planner.estimate_us", "us"),
    timing("planner.min_work_us", "us"),
    timing("planner.prune_ms", "ms"),
    timing("planner.shared_plan_ms", "ms"),
    exact("planner.shared_candidates", "count"),
    timing("engine.comp_ms", "ms"),
    timing("engine.inst_ms", "ms"),
    timing("engine.unattributed_ms", "ms"),
    timing("engine.predict_sharing_ms", "ms"),
    exact("engine.linear_work", "count"),
    exact("engine.dual_linear_work", "count"),
    exact("engine.terms", "count"),
    exact("engine.cache_hit_ratio", "ratio"),
    exact("engine.cross_reuses", "count"),
    exact("engine.cached_reads", "count"),
    exact("engine.shared_physical_rows", "count"),
    exact("engine.part_fanouts", "count"),
    exact("wal.bytes_per_window", "bytes"),
    exact("wal.write_amplification", "ratio"),
    exact("wal.records", "count"),
    timing("wal.overhead_ms", "ms"),
    timing("wal.recover_ms", "ms"),
    exact("sched.windows", "count"),
    exact("sched.events", "count"),
    exact("sched.carry_hits", "count"),
    timing("sched.events_per_s", "1/s"),
    exact("sched.staleness_ticks", "ticks"),
    timing("sched.source_gen_ms", "ms"),
    timing("sched.exec_ms_per_window", "ms"),
    timing("sched.overhead_ms_per_window", "ms"),
    timing("serve.idle_rtt_us", "us"),
    timing("serve.window_live_ms", "ms"),
    timing("serve.read_p99_us", "us"),
    timing("serve.reads_per_s", "1/s"),
    timing("serve.queries_per_window", "count"),
    timing("serve.window_slowdown", "ratio"),
    timing("span.materialize_share", "ratio"),
    timing("span.scan_share", "ratio"),
    timing("span.hash_build_share", "ratio"),
    timing("span.probe_share", "ratio"),
    timing("span.group_share", "ratio"),
    timing("span.split_share", "ratio"),
    timing("span.operator_other_share", "ratio"),
    timing("span.comp_share", "ratio"),
    timing("span.inst_share", "ratio"),
    timing("span.term_share", "ratio"),
    timing("span.run_share", "ratio"),
    timing("span.wal_record_share", "ratio"),
    timing("span.serve_request_share", "ratio"),
    timing("span.harness_share", "ratio"),
    timing("obs.coverage", "ratio"),
    timing("obs.coverage_dual", "ratio"),
    timing("obs.coverage_shared", "ratio"),
    timing("obs.coverage_part", "ratio"),
    timing("obs.coverage_durable", "ratio"),
    timing("obs.coverage_ingest", "ratio"),
    timing("obs.unattributed_ms", "ms"),
    timing("obs.spans", "count"),
    timing("obs.dropped", "count"),
    timing("obs.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::LABELS;
    use crate::workload::Workload;
    use uww::obs::json::{parse, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
        entry.get(key).and_then(JsonValue::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_names_the_catalogs_metrics_units_and_bounds() {
        let doc = benchmark_json();
        let listed = doc.get("end_to_end").and_then(JsonValue::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, def) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
            let bound = entry.get("bound").and_then(JsonValue::as_f64);
            assert_eq!(bound, Some(def.bound), "{}", def.name);
        }
        let listed = doc.get("per_layer").and_then(JsonValue::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, def) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_names_the_workloads() {
        let doc = benchmark_json();
        let listed = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
        let names: Vec<&str> = listed.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert!(listed
            .iter()
            .all(|w| (1..=200).contains(&field(w, "why").len())));
    }

    #[test]
    fn every_span_label_has_a_metric() {
        for label in LABELS {
            let name = format!("span.{label}_share");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }
}
