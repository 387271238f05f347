//! `uww` — command-line front end for the warehouse-update-window toolkit.
//!
//! ```text
//! uww info     [--scenario fig4|q3|q5] [--scale F]
//! uww plan     [--scenario ...] [--scale F] [--frac F] [--planner minwork|prune|dual-stage|rnscol]
//!              [--objective linear|shared]
//! uww run      [--scenario ...] [--scale F] [--frac F] [--planner ...]
//!              [--objective linear|shared]
//!              [--wal DIR] [--fsync always|never]
//!              [--fault crash:K|torn:K|dup:K|dirsync]
//!              [--partitions N] [--strategy-sharing]
//!              [--trace-out FILE]
//! uww recover  DIR
//! uww analyze  [--scenario ...] [--scale F] [--frac F] [--planner ...]
//!              [--strategy "Comp(V,{A});..."] [--stages "...|..."] [--json]
//! uww script   [--scenario ...] [--scale F] [--frac F]
//! uww dot      [--scenario ...] [--scale F] [--graph vdag|eg]
//! uww olap     [--scenario ...] [--scale F] [--frac F] [--isolation strict|low]
//! uww serve    [--scenario ...] [--scale F] [--frac F] [--planner ...]
//!              [--isolation strict|mvcc|both] [--readers N] [--json] [--metrics]
//! uww ingest   [--scenario ...] [--scale F] [--policy fixed|greedy]
//!              [--window N] [--sla F] [--rate MILLI] [--service-rate F]
//!              [--horizon N] [--seed N] [--no-carry] [--objective linear|shared]
//!              [--partitions N]
//!              [--wal DIR] [--fsync always|never] [--fault ...] [--fault-window W]
//!              [--replay FILE] [--record FILE] [--serve] [--readers N]
//!              [--json] [--metrics] [--ledger FILE]
//!              [--latency-buckets US,US,...]
//! uww report   LEDGER [--json]
//! uww explain  [--scenario ...] [--scale F] [--frac F] [--planner ...]
//! uww dump     [--scenario ...] [--scale F]
//! ```
//!
//! Scenarios are the paper's: `fig4` (all six TPC-D bases + Q3/Q5/Q10),
//! `q3` (C, O, L + Q3), `q5` (all bases + Q5). `--frac` is the uniform
//! deletion fraction of the change batch (default 0.10, the paper's).
//!
//! `run --wal DIR` journals the run into an install write-ahead log under
//! `DIR`; `recover DIR` resumes a crashed (or re-verifies a committed) run
//! from that log, rebuilding the scenario from the manifest's recorded
//! context. `--fault` injects a deterministic crash at the `K`-th WAL record
//! for testing: `crash:K` dies before writing it, `torn:K` half-writes it,
//! `dup:K` writes it twice (and continues), `dirsync` dies at the WAL
//! directory fsync (before any record lands).
//!
//! Each `Comp` evaluates its maintenance terms through a shared operand
//! cache. `--partitions N` cuts each term's probe, filter, cross-join and
//! grouping inputs into `N` contiguous slices that run on a work-stealing
//! pool against one build table per operand; results and work meters stay
//! byte-identical at every partition count. `--strategy-sharing`
//! lifts the cache to strategy scope:
//! operand materializations and hash-join build tables survive across
//! `Comp` boundaries until an expression modifies the operand. In every
//! mode the computed deltas, WAL bytes, and the logical work metric are
//! byte-identical — only the physical counters move. `--objective shared`
//! makes the planner rank candidate strategies by linear work minus the
//! priced cross-expression build avoidance, which can pick a different
//! strategy than plain MinWork.
//!
//! `run --trace-out FILE` records the run's span tree (run → expression →
//! term → operator) and writes it as Chrome trace-event JSON, loadable in
//! Perfetto or `chrome://tracing`. `serve --metrics` prints each regime's
//! final Prometheus scrape (the server's `METRICS` response). See
//! `docs/OBSERVABILITY.md`.
//!
//! `explain` runs the window on a scratch clone and prints, per expression,
//! the planner's predicted work beside the linear work the run measured,
//! and each `Comp`'s maintenance terms with their join orders.
//!
//! `analyze --stages` lints a parallel schedule with the check
//! `execute_staged` runs: the sequential rules over its linearization plus
//! `UWW001` for every same-stage pair that must stay ordered. See
//! `docs/ANALYSIS.md`.

use std::process::ExitCode;
use uww::core::{
    min_work, min_work_shared, prune, recover, simulate_olap, CostModel, ExecOptions, FaultPlan,
    FsyncPolicy, IsolationMode, OlapWorkload, PartitionOptions, ScriptGenerator, SizeCatalog,
    WalConfig, WalLog,
};
use uww::scenario::TpcdScenario;
use uww::sched::{
    events_to_string, resume_after_crash, DeltaSource, IngestOutcome, IngestScheduler, Policy,
    ReplaySource, SchedConfig, SeededSource, SeededSourceConfig, SlaConfig, WindowPlanner,
};
use uww::vdag::{construct_eg, Strategy};

struct Args {
    scenario: String,
    scale: f64,
    frac: f64,
    planner: String,
    graph: String,
    isolation: String,
    sql_views: Vec<(String, String)>,
    strategy_text: Option<String>,
    stages_text: Option<String>,
    json: bool,
    wal: Option<String>,
    fsync: String,
    fault: Option<String>,
    dir: Option<String>,
    readers: usize,
    partitions: usize,
    strategy_sharing: bool,
    objective: String,
    trace_out: Option<String>,
    metrics: bool,
    policy: String,
    window: u64,
    sla: f64,
    rate: u64,
    service_rate: f64,
    horizon: u64,
    carry: bool,
    seed: u64,
    replay: Option<String>,
    record: Option<String>,
    serve_live: bool,
    fault_window: usize,
    ledger: Option<String>,
    latency_buckets: Option<Vec<u64>>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scenario: "fig4".into(),
            scale: 0.001,
            frac: 0.10,
            planner: "minwork".into(),
            graph: "vdag".into(),
            // `olap` reads this as strict|low, `serve` as strict|mvcc|both;
            // empty means each command's default (strict, resp. both).
            isolation: String::new(),
            sql_views: Vec::new(),
            strategy_text: None,
            stages_text: None,
            json: false,
            wal: None,
            fsync: "always".into(),
            fault: None,
            dir: None,
            readers: 4,
            partitions: 1,
            strategy_sharing: false,
            objective: "linear".into(),
            trace_out: None,
            metrics: false,
            policy: "fixed".into(),
            window: 16,
            sla: 24.0,
            rate: 2000,
            service_rate: 200.0,
            horizon: 200,
            carry: true,
            seed: 0x5757_1999,
            replay: None,
            record: None,
            serve_live: false,
            fault_window: 0,
            ledger: None,
            latency_buckets: None,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut cmd = None;
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sql" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --sql".to_string())?;
                let (name, query) = v
                    .split_once('=')
                    .ok_or_else(|| "--sql expects NAME=SELECT ...".to_string())?;
                args.sql_views
                    .push((name.trim().to_string(), query.to_string()));
            }
            "--json" => args.json = true,
            "--metrics" => args.metrics = true,
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --trace-out".to_string())?;
                args.trace_out = Some(v.clone());
            }
            "--strategy-sharing" => args.strategy_sharing = true,
            "--no-carry" => args.carry = false,
            "--serve" => args.serve_live = true,
            "--ledger" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --ledger".to_string())?;
                args.ledger = Some(v.clone());
            }
            "--latency-buckets" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --latency-buckets".to_string())?;
                let bounds: Vec<u64> = v
                    .split(',')
                    .map(|t| t.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad --latency-buckets {v} (comma-separated µs)"))?;
                if bounds.is_empty() {
                    return Err("--latency-buckets needs at least one bound".to_string());
                }
                args.latency_buckets = Some(bounds);
            }
            "--policy" | "--window" | "--sla" | "--rate" | "--service-rate" | "--horizon"
            | "--seed" | "--replay" | "--record" | "--fault-window" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("missing value for {a}"))?
                    .clone();
                match a.as_str() {
                    "--policy" => args.policy = v,
                    "--window" => {
                        args.window = v.parse().map_err(|_| format!("bad --window {v}"))?
                    }
                    "--sla" => args.sla = v.parse().map_err(|_| format!("bad --sla {v}"))?,
                    "--rate" => args.rate = v.parse().map_err(|_| format!("bad --rate {v}"))?,
                    "--service-rate" => {
                        args.service_rate = v
                            .parse()
                            .ok()
                            .filter(|r: &f64| r.is_finite() && *r > 0.0)
                            .ok_or_else(|| {
                                format!("bad --service-rate {v} (must be finite and positive)")
                            })?
                    }
                    "--horizon" => {
                        args.horizon = v.parse().map_err(|_| format!("bad --horizon {v}"))?
                    }
                    "--seed" => args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
                    "--replay" => args.replay = Some(v),
                    "--record" => args.record = Some(v),
                    "--fault-window" => {
                        args.fault_window =
                            v.parse().map_err(|_| format!("bad --fault-window {v}"))?
                    }
                    _ => unreachable!(),
                }
            }
            "--objective" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --objective".to_string())?;
                args.objective = v.clone();
            }
            "--partitions" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --partitions".to_string())?;
                args.partitions = v.parse().map_err(|_| format!("bad --partitions {v}"))?;
                if args.partitions == 0 {
                    return Err("--partitions must be at least 1".to_string());
                }
            }
            "--strategy" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --strategy".to_string())?;
                args.strategy_text = Some(v.clone());
            }
            "--stages" => {
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for --stages".to_string())?;
                args.stages_text = Some(v.clone());
            }
            "--scenario" | "--scale" | "--frac" | "--planner" | "--graph" | "--isolation"
            | "--wal" | "--fsync" | "--fault" | "--readers" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("missing value for {a}"))?
                    .clone();
                match a.as_str() {
                    "--scenario" => args.scenario = v,
                    "--scale" => {
                        args.scale = v
                            .parse()
                            .ok()
                            .filter(|s: &f64| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| {
                                format!("bad --scale {v} (must be finite and positive)")
                            })?
                    }
                    "--frac" => {
                        args.frac = v
                            .parse()
                            .ok()
                            .filter(|f: &f64| (0.0..=1.0).contains(f))
                            .ok_or_else(|| format!("bad --frac {v} (must be in [0, 1])"))?
                    }
                    "--planner" => args.planner = v,
                    "--graph" => args.graph = v,
                    "--isolation" => args.isolation = v,
                    "--wal" => args.wal = Some(v),
                    "--fsync" => args.fsync = v,
                    "--fault" => args.fault = Some(v),
                    "--readers" => {
                        args.readers = v.parse().map_err(|_| format!("bad --readers {v}"))?
                    }
                    _ => unreachable!(),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if cmd.is_none() => cmd = Some(word.to_string()),
            word if args.dir.is_none() => args.dir = Some(word.to_string()),
            word => return Err(format!("unexpected argument {word}")),
        }
    }
    let cmd = cmd.ok_or_else(|| "no command given".to_string())?;
    Ok((cmd, args))
}

fn build_scenario(args: &Args) -> Result<TpcdScenario, String> {
    let extra: Vec<_> = args
        .sql_views
        .iter()
        .map(|(name, sql)| uww::relational::parse_view_def(name, sql).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let sc = match args.scenario.as_str() {
        "fig4" => TpcdScenario::builder()
            .scale(args.scale)
            .views(uww::tpcd::all_query_defs())
            .views(extra)
            .build(),
        "q3" => TpcdScenario::builder()
            .scale(args.scale)
            .base_views(&["CUSTOMER", "ORDER", "LINEITEM"])
            .views([uww::tpcd::q3_def()])
            .views(extra)
            .build(),
        "q5" => TpcdScenario::builder()
            .scale(args.scale)
            .views([uww::tpcd::q5_def()])
            .views(extra)
            .build(),
        other => return Err(format!("unknown scenario {other} (fig4|q3|q5)")),
    };
    sc.map_err(|e| e.to_string())
}

fn load_changes(sc: &mut TpcdScenario, args: &Args) -> Result<(), String> {
    if args.frac <= 0.0 {
        return Ok(());
    }
    let r = if args.scenario == "q3" {
        sc.load_col_changes(args.frac)
    } else {
        sc.load_paper_changes(args.frac)
    };
    r.map_err(|e| e.to_string())
}

fn pick_strategy(sc: &TpcdScenario, args: &Args) -> Result<(Strategy, String), String> {
    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
    match args.objective.as_str() {
        "linear" => {}
        // The sharing-aware objective replaces the planner choice: it ranks
        // the prune-feasible candidate set by linear work minus the priced
        // cross-expression build avoidance.
        "shared" => {
            let model = CostModel::new(g, &sizes);
            let out = min_work_shared(&sc.warehouse, &model).map_err(|e| e.to_string())?;
            let tag = format!(
                "MinWorkShared ({} candidates, {})",
                out.candidates,
                if out.differs {
                    "differs from MinWork"
                } else {
                    "same as MinWork"
                }
            );
            return Ok((out.strategy, tag));
        }
        other => return Err(format!("unknown objective {other} (linear|shared)")),
    }
    match args.planner.as_str() {
        "minwork" => {
            let plan = min_work(g, &sizes).map_err(|e| e.to_string())?;
            let tag = if plan.used_modified_ordering {
                "MinWork (modified ordering)"
            } else {
                "MinWork"
            };
            Ok((plan.strategy, tag.to_string()))
        }
        "prune" => {
            let model = CostModel::new(g, &sizes);
            let out = prune(g, &model).map_err(|e| e.to_string())?;
            Ok((
                out.strategy,
                format!("Prune ({} orderings)", out.orderings_examined),
            ))
        }
        "dual-stage" => Ok((sc.dual_stage_strategy(), "dual-stage".to_string())),
        "rnscol" => Ok((
            sc.rnscol_strategy().map_err(|e| e.to_string())?,
            "RNSCOL".to_string(),
        )),
        other => Err(format!(
            "unknown planner {other} (minwork|prune|dual-stage|rnscol)"
        )),
    }
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let sc = build_scenario(args)?;
    let g = sc.warehouse.vdag();
    println!(
        "scenario {} @ scale {} — {} views, max level {}, uniform={}, tree={}",
        args.scenario,
        args.scale,
        g.len(),
        g.max_level(),
        g.is_uniform(),
        g.is_tree()
    );
    println!(
        "{:<10} {:>10} {:>8} {:>10}",
        "view", "rows", "level", "kind"
    );
    for v in g.view_ids() {
        let t = sc.warehouse.table(g.name(v)).map_err(|e| e.to_string())?;
        println!(
            "{:<10} {:>10} {:>8} {:>10}",
            g.name(v),
            t.len(),
            g.level(v),
            if g.is_base(v) { "base" } else { "derived" }
        );
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
    let g = sc.warehouse.vdag();
    let model = CostModel::new(g, &sizes);
    let (strategy, label) = pick_strategy(&sc, args)?;
    println!("planner : {label}");
    println!("ordering: {}", sizes.desired_ordering(g).display(g));
    println!("strategy: {}", strategy.display(g));
    println!("predicted work: {:.0}", model.strategy_work(&strategy));
    if args.objective == "shared" {
        let out = min_work_shared(&sc.warehouse, &model).map_err(|e| e.to_string())?;
        println!(
            "shared objective: {:.0} (linear {:.0} − cross-share saving {:.0})",
            out.cost, out.linear_cost, out.cross_saving
        );
        if out.differs {
            println!(
                "plain MinWork would pick: {} (linear {:.0})",
                out.baseline.display(g),
                out.baseline_cost
            );
        }
    }
    Ok(())
}

fn parse_fault(spec: &str) -> Result<FaultPlan, String> {
    if spec == "dirsync" {
        return Ok(FaultPlan::crash_at_dir_sync());
    }
    let (kind, k) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --fault {spec} (crash:K|torn:K|dup:K|dirsync)"))?;
    let k: u64 = k.parse().map_err(|_| format!("bad --fault record {k}"))?;
    match kind {
        "crash" => Ok(FaultPlan::crash_before(k)),
        "torn" => Ok(FaultPlan::torn_at(k)),
        "dup" => Ok(FaultPlan::duplicate_at(k)),
        other => Err(format!(
            "unknown fault kind {other} (crash|torn|dup|dirsync)"
        )),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let (strategy, label) = pick_strategy(&sc, args)?;
    let mut opts = ExecOptions {
        strategy_sharing: args.strategy_sharing,
        partition: PartitionOptions::with_partitions(args.partitions),
        ..ExecOptions::default()
    };
    if let Some(dir) = &args.wal {
        let fsync = FsyncPolicy::parse(&args.fsync).map_err(|e| e.to_string())?;
        let mut cfg = WalConfig::new(dir)
            .with_fsync(fsync)
            .with_ctx("scenario", &args.scenario)
            .with_ctx("scale", args.scale.to_string())
            .with_ctx("frac", args.frac.to_string())
            .with_ctx("planner", &args.planner);
        if let Some(spec) = &args.fault {
            cfg = cfg.with_faults(parse_fault(spec)?);
        }
        opts.wal = Some(cfg);
    }
    let buf = args.trace_out.as_ref().map(|_| {
        let b = std::sync::Arc::new(uww::obs::TraceBuffer::new(uww::obs::DEFAULT_CAPACITY));
        uww::obs::install(std::sync::Arc::clone(&b));
        b
    });
    let run_result = sc.run_with(&strategy, opts);
    if buf.is_some() {
        uww::obs::uninstall();
    }
    let report = run_result.map_err(|e| e.to_string())?;
    if let (Some(buf), Some(path)) = (buf, &args.trace_out) {
        let trace = uww::obs::chrome::chrome_trace(&buf.take_records());
        let stats = uww::obs::chrome::validate_chrome_trace(&trace)
            .map_err(|e| format!("internal error: invalid chrome trace: {e}"))?;
        std::fs::write(path, &trace).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "trace: {} span(s) on {} lane(s) ({} dropped) -> {path}",
            stats.complete_events,
            stats.lanes,
            buf.dropped(),
        );
    }
    if args.json {
        println!("{}", report.to_json(sc.warehouse.vdag()));
        return Ok(());
    }
    println!("{label}: verified against from-scratch rebuild");
    if let Some(dir) = &args.wal {
        println!("journaled to {dir} (committed)");
    }
    let total = report.total_work();
    println!(
        "update window: {:?} | measured work {} rows ({} scanned, {} installed)",
        report.wall(),
        report.linear_work(),
        total.operand_rows_scanned,
        total.rows_installed,
    );
    println!(
        "physical: {} rows touched, {} hash builds, {} reused",
        total.physical_rows_touched, total.hash_tables_built, total.hash_tables_reused,
    );
    if args.strategy_sharing {
        println!(
            "strategy cache: {} cross-expression hash reuse(s), {} cached raw read(s)",
            total.hash_tables_cross_reused, total.operand_reads_cached,
        );
    }
    Ok(())
}

fn cmd_recover(args: &Args) -> Result<(), String> {
    let dir = args
        .dir
        .as_deref()
        .ok_or_else(|| "recover needs a WAL directory: uww recover DIR".to_string())?;
    let dir = std::path::Path::new(dir);
    // The manifest records how the scenario was built; rebuild the same
    // warehouse (the data generator is deterministic for a given scale) so
    // recovery has the right schemas and the result can be re-verified
    // against a from-scratch recomputation.
    let log = WalLog::open(dir).map_err(|e| e.to_string())?;
    let mut args = Args {
        scenario: log
            .manifest
            .ctx("scenario")
            .unwrap_or(&args.scenario)
            .to_string(),
        dir: None,
        sql_views: args.sql_views.clone(),
        ..Args::default()
    };
    if let Some(v) = log.manifest.ctx("scale") {
        args.scale = v
            .parse()
            .map_err(|_| format!("bad scale in manifest: {v}"))?;
    }
    if let Some(v) = log.manifest.ctx("frac") {
        args.frac = v
            .parse()
            .map_err(|_| format!("bad frac in manifest: {v}"))?;
    }
    let mut sc = build_scenario(&args)?;
    load_changes(&mut sc, &args)?;
    let expected = sc
        .warehouse
        .expected_final_state()
        .map_err(|e| e.to_string())?;
    let mut w = sc.warehouse.clone();
    let outcome = recover(&mut w, dir).map_err(|e| e.to_string())?;
    let diffs = w.diff_state(&expected);
    if !diffs.is_empty() {
        return Err(format!(
            "recovered state diverges from from-scratch rebuild for views {diffs:?}"
        ));
    }
    println!(
        "recovered {}: {} comp(s) and {} inst(s) replayed, {} expression(s) resumed{}",
        dir.display(),
        outcome.replayed_comps,
        outcome.replayed_insts,
        outcome.resumed,
        if outcome.already_committed {
            " (log was already committed)"
        } else {
            ""
        }
    );
    println!("verified against from-scratch rebuild");
    let report = outcome.report;
    println!(
        "update window incl. replay: {:?} | measured work {} rows ({} scanned, {} installed)",
        report.wall(),
        report.linear_work(),
        report.total_work().operand_rows_scanned,
        report.total_work().rows_installed,
    );
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    if args.strategy_text.is_some() && args.stages_text.is_some() {
        return Err("--strategy and --stages are mutually exclusive".to_string());
    }
    let sc = build_scenario(args)?;
    let g = sc.warehouse.vdag();
    let (report, label) = if let Some(text) = &args.stages_text {
        let stages = uww::vdag::parse_stages(g, text)?;
        (
            uww::vdag::analyze_parallel(g, &stages),
            format!("parallel strategy ({} stages)", stages.len()),
        )
    } else if let Some(text) = &args.strategy_text {
        let s = uww::vdag::parse_strategy(g, text)?;
        (uww::vdag::analyze(g, &s), "given strategy".to_string())
    } else {
        let (s, label) = pick_strategy(&sc, args)?;
        (uww::vdag::analyze(g, &s), label)
    };
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("analyzing {label}:");
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        return Err(format!(
            "{} error(s): the strategy would produce incorrect view extents",
            report.error_count()
        ));
    }
    Ok(())
}

fn cmd_script(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let gen = ScriptGenerator::new(&sc.warehouse);
    println!("{}", gen.setup_script().map_err(|e| e.to_string())?);
    let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
    let plan = min_work(sc.warehouse.vdag(), &sizes).map_err(|e| e.to_string())?;
    println!(
        "{}",
        gen.strategy_script(&plan.strategy)
            .map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let g = sc.warehouse.vdag();
    match args.graph.as_str() {
        "vdag" => println!("{}", g.to_dot()),
        "eg" => {
            let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
            let ord = sizes.desired_ordering(g);
            println!("{}", construct_eg(g, &ord).to_dot(g));
        }
        other => return Err(format!("unknown graph {other} (vdag|eg)")),
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
    let model = CostModel::new(g, &sizes);
    let (strategy, label) = pick_strategy(&sc, args)?;
    println!("-- plan: {label}");
    let plans = sc
        .warehouse
        .explain(&strategy, &model)
        .map_err(|e| e.to_string())?;
    print!(
        "{}",
        uww::core::engine::render_explain(&sc.warehouse, &plans)
    );
    Ok(())
}

fn cmd_dump(args: &Args) -> Result<(), String> {
    let sc = build_scenario(args)?;
    print!(
        "{}",
        uww::relational::catalog_to_string(sc.warehouse.state())
    );
    Ok(())
}

fn cmd_olap(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
    let model = CostModel::new(g, &sizes);
    let isolation = match args.isolation.as_str() {
        "" | "strict" => IsolationMode::Strict,
        "low" => IsolationMode::LowIsolation,
        other => return Err(format!("unknown isolation {other} (strict|low)")),
    };
    let wl = OlapWorkload {
        isolation,
        ..OlapWorkload::default()
    };
    let (strategy, label) = pick_strategy(&sc, args)?;
    let rep = simulate_olap(g, &model, &sizes, &strategy, &wl);
    println!(
        "{label} under {isolation:?}: window {:.0}, install span {:.0}, \
         {} queries, mean latency {:.1}, max {:.1}, lock waits {:.0}",
        rep.window,
        rep.install_span,
        rep.queries.len(),
        rep.mean_latency(),
        rep.max_latency(),
        rep.total_lock_wait()
    );
    Ok(())
}

fn serve_outcome_json(label: &str, out: &uww::serving::LiveRunOutcome) -> String {
    let m = &out.metrics;
    format!(
        "{{\"isolation\":\"{label}\",\"queries\":{},\"rows\":{},\"errors\":{},\
         \"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\"lock_wait_us\":{},\
         \"window_us\":{},\"epochs\":{}}}",
        m.queries,
        m.rows_returned,
        m.errors,
        m.mean_us,
        m.p50_us,
        m.p95_us,
        m.p99_us,
        m.max_us,
        m.lock_wait_us,
        out.window.as_micros(),
        out.epochs
    )
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut sc = build_scenario(args)?;
    load_changes(&mut sc, args)?;
    let (strategy, label) = pick_strategy(&sc, args)?;
    let regimes: Vec<uww::serve::Isolation> = match args.isolation.as_str() {
        "" | "both" => vec![uww::serve::Isolation::Strict, uww::serve::Isolation::Mvcc],
        other => vec![uww::serve::Isolation::parse(other)
            .ok_or_else(|| format!("unknown isolation {other} (strict|mvcc|both)"))?],
    };

    let mut outcomes = Vec::new();
    for iso in &regimes {
        let cfg = uww::serving::LiveRunConfig {
            isolation: *iso,
            readers: args.readers.max(1),
            latency_buckets: args.latency_buckets.clone(),
            ..uww::serving::LiveRunConfig::default()
        };
        let out =
            uww::serving::run_live(&sc.warehouse, &strategy, &cfg).map_err(|e| e.to_string())?;
        outcomes.push((*iso, out));
    }

    // The simulation's prediction for the same strategy, for comparison.
    let sizes = SizeCatalog::estimate(&sc.warehouse).map_err(|e| e.to_string())?;
    let g = sc.warehouse.vdag();
    let model = CostModel::new(g, &sizes);
    let sim: Vec<(&str, f64, f64)> = [
        ("strict", IsolationMode::Strict),
        ("mvcc", IsolationMode::LowIsolation),
    ]
    .into_iter()
    .map(|(tag, isolation)| {
        let wl = OlapWorkload {
            isolation,
            ..OlapWorkload::default()
        };
        let rep = simulate_olap(g, &model, &sizes, &strategy, &wl);
        (tag, rep.mean_latency(), rep.latency_percentile(0.95))
    })
    .collect();

    if args.json {
        let runs: Vec<String> = outcomes
            .iter()
            .map(|(iso, out)| serve_outcome_json(iso.label(), out))
            .collect();
        let sims: Vec<String> = sim
            .iter()
            .map(|(tag, mean, p95)| {
                format!("{{\"isolation\":\"{tag}\",\"sim_mean\":{mean},\"sim_p95\":{p95}}}")
            })
            .collect();
        println!(
            "{{\"planner\":\"{label}\",\"readers\":{},\"measured\":[{}],\"simulated\":[{}]}}",
            args.readers,
            runs.join(","),
            sims.join(",")
        );
        return Ok(());
    }

    println!(
        "serving {} @ scale {} with {} readers, planner {label}",
        args.scenario, args.scale, args.readers
    );
    println!(
        "{:<8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>13} {:>11}",
        "mode",
        "queries",
        "mean_us",
        "p50_us",
        "p95_us",
        "p99_us",
        "max_us",
        "lock_wait_us",
        "window"
    );
    for (iso, out) in &outcomes {
        let m = &out.metrics;
        println!(
            "{:<8} {:>8} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>13} {:>11?}",
            iso.label(),
            m.queries,
            m.mean_us,
            m.p50_us,
            m.p95_us,
            m.p99_us,
            m.max_us,
            m.lock_wait_us,
            out.window
        );
    }
    for (tag, mean, p95) in &sim {
        println!("simulated {tag:<7} mean latency: {mean:.1} work units (p95 {p95:.1})");
    }
    if outcomes.len() == 2 {
        // Compare mean latencies: lock stalls hit a small fraction of queries
        // but each stall dwarfs the base latency, so the stall mass moves the
        // mean reliably while fixed percentiles can miss it entirely.
        let strict_m = &outcomes[0].1.metrics;
        let mvcc_m = &outcomes[1].1.metrics;
        println!(
            "measured: strict mean {:.3}us mvcc mean {:.3}us — {}; simulation predicts strict ≥ mvcc",
            strict_m.mean_us,
            mvcc_m.mean_us,
            if strict_m.mean_us >= mvcc_m.mean_us {
                "ordering matches the simulation"
            } else {
                "ordering DIVERGES from the simulation"
            }
        );
    }
    if args.metrics {
        for (iso, out) in &outcomes {
            println!("\n# METRICS scrape ({})", iso.label());
            print!("{}", out.prometheus);
        }
    }
    Ok(())
}

fn ingest_sched_config(args: &Args) -> Result<SchedConfig, String> {
    let policy = Policy::parse(&args.policy)?;
    let planner = match args.objective.as_str() {
        "linear" => WindowPlanner::MinWork,
        "shared" => WindowPlanner::Shared,
        other => return Err(format!("unknown objective {other} (linear|shared)")),
    };
    let fault = match &args.fault {
        Some(spec) => Some((args.fault_window, parse_fault(spec)?)),
        None => None,
    };
    if fault.is_some() && args.wal.is_none() {
        return Err("--fault requires --wal DIR in continuous mode".to_string());
    }
    Ok(SchedConfig {
        policy,
        sla: SlaConfig {
            target_staleness: args.sla,
            service_rate: args.service_rate,
        },
        window: args.window,
        horizon: args.horizon,
        carry: args.carry,
        planner,
        wal_root: args.wal.clone().map(std::path::PathBuf::from),
        fsync: FsyncPolicy::parse(&args.fsync).map_err(|e| e.to_string())?,
        fault,
        partition: PartitionOptions::with_partitions(args.partitions),
        ledger: args.ledger.clone().map(std::path::PathBuf::from),
    })
}

fn print_ingest_windows(out: &IngestOutcome) {
    println!(
        "{:>4} {:>6} {:>6} {:>7} {:>12} {:>12} {:>10} {:>9}",
        "win", "cut", "ticks", "events", "predicted", "measured", "staleness", "carry"
    );
    for w in &out.windows {
        println!(
            "{:>4} {:>6} {:>6} {:>7} {:>12.1} {:>12} {:>10.2} {:>4}/{:<4}",
            w.index,
            w.cut,
            w.window_ticks,
            w.events,
            w.predicted_work,
            w.measured_work,
            w.staleness,
            w.carry_in.0,
            w.carry_in.1,
        );
    }
}

fn ingest_summary_json(
    args: &Args,
    out: &IngestOutcome,
    resumed: Option<&IngestOutcome>,
) -> String {
    let window_json = |w: &uww::sched::WindowReport| {
        format!(
            "{{\"index\":{},\"cut\":{},\"ticks\":{},\"events\":{},\"predicted\":{},\
             \"measured\":{},\"staleness\":{},\"carried_tables\":{},\"carried_raws\":{}}}",
            w.index,
            w.cut,
            w.window_ticks,
            w.events,
            w.predicted_work,
            w.measured_work,
            w.staleness,
            w.carry_in.0,
            w.carry_in.1,
        )
    };
    let mut windows: Vec<String> = out.windows.iter().map(window_json).collect();
    let mut events = out.events();
    let mut clock = out.clock;
    let mut staleness_weighted: f64 = out
        .windows
        .iter()
        .map(|w| w.staleness * w.events as f64)
        .sum();
    let mut installed: u64 = out
        .windows
        .iter()
        .map(|w| w.report.total_work().rows_installed)
        .sum();
    if let Some(r) = resumed {
        windows.extend(r.windows.iter().map(window_json));
        events += r.events();
        clock = r.clock;
        staleness_weighted += r
            .windows
            .iter()
            .map(|w| w.staleness * w.events as f64)
            .sum::<f64>();
        installed += r
            .windows
            .iter()
            .map(|w| w.report.total_work().rows_installed)
            .sum::<u64>();
    }
    let mean_staleness = if events > 0 {
        staleness_weighted / events as f64
    } else {
        0.0
    };
    let throughput = if clock > 0 {
        installed as f64 / clock as f64
    } else {
        0.0
    };
    format!(
        "{{\"policy\":\"{}\",\"planner\":\"{}\",\"carry\":{},\"windows\":[{}],\"events\":{},\
         \"mean_staleness\":{},\"throughput\":{},\"clock\":{},\"crashed\":{}}}",
        args.policy,
        args.objective,
        args.carry,
        windows.join(","),
        events,
        mean_staleness,
        throughput,
        clock,
        out.crashed.is_some(),
    )
}

fn run_ingest_schedule<S: DeltaSource>(
    w: &mut uww::core::Warehouse,
    cfg: &SchedConfig,
    source: S,
    resume_source: impl FnOnce() -> S,
    quiet: bool,
) -> Result<(IngestOutcome, Option<IngestOutcome>), String> {
    let mut sched = IngestScheduler::new(cfg.clone(), source);
    let out = sched.run(w).map_err(|e| e.to_string())?;
    let Some(crash) = &out.crashed else {
        return Ok((out, None));
    };
    if !quiet {
        println!(
            "window {} crashed ({}); recovering from {}",
            crash.window,
            crash.error,
            crash.wal_dir.display()
        );
    }
    let (rec, resumed) =
        resume_after_crash(cfg.clone(), resume_source(), w, crash).map_err(|e| e.to_string())?;
    if !quiet {
        println!(
            "recovered window {}: {} comps + {} insts replayed, {} fresh; schedule resumed",
            crash.window, rec.replayed_comps, rec.replayed_insts, rec.resumed
        );
    }
    Ok((out, Some(resumed)))
}

fn cmd_ingest(args: &Args) -> Result<(), String> {
    let sc = build_scenario(args)?;
    let cfg = ingest_sched_config(args)?;
    let source_cfg = SeededSourceConfig {
        seed: args.seed,
        rate_milli: args.rate,
        horizon: args.horizon,
        ..SeededSourceConfig::default()
    };

    if let Some(path) = &args.record {
        let source = SeededSource::new(&sc.warehouse, source_cfg);
        std::fs::write(path, events_to_string(source.events()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("recorded {} events to {path}", source.len());
        return Ok(());
    }

    if args.serve_live {
        if args.replay.is_some() {
            return Err("--replay and --serve cannot be combined".to_string());
        }
        let cfg = uww::serving::ContinuousRunConfig {
            readers: args.readers,
            sched: cfg,
            source: source_cfg,
            latency_buckets: args.latency_buckets.clone(),
            ..uww::serving::ContinuousRunConfig::default()
        };
        let out =
            uww::serving::run_continuous(&sc.warehouse, &cfg, &[]).map_err(|e| e.to_string())?;
        if args.json {
            println!("{}", ingest_summary_json(args, &out.ingest, None));
        } else {
            print_ingest_windows(&out.ingest);
            println!(
                "served {} queries across {} readers while ingesting; {} epochs published, one per window",
                out.metrics.queries,
                out.queries_per_reader.len(),
                out.epochs
            );
        }
        if args.metrics {
            println!("\n# METRICS scrape");
            print!("{}", out.prometheus);
        }
        return Ok(());
    }

    let mut w = sc.warehouse.clone();
    let (out, resumed) = match &args.replay {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let source = ReplaySource::parse(&text)?;
            let resume = source.clone();
            run_ingest_schedule(&mut w, &cfg, source, move || resume, args.json)?
        }
        None => {
            let source = SeededSource::new(&sc.warehouse, source_cfg);
            let base = sc.warehouse.clone();
            run_ingest_schedule(
                &mut w,
                &cfg,
                source,
                move || SeededSource::new(&base, source_cfg),
                args.json,
            )?
        }
    };

    if args.json {
        println!("{}", ingest_summary_json(args, &out, resumed.as_ref()));
        return Ok(());
    }
    println!(
        "continuous ingest: scenario {} @ scale {}, policy {}, planner {}, carry {}",
        args.scenario, args.scale, args.policy, args.objective, args.carry
    );
    print_ingest_windows(&out);
    if let Some(r) = &resumed {
        println!("-- resumed after crash --");
        print_ingest_windows(r);
    }
    let last = resumed.as_ref().unwrap_or(&out);
    println!(
        "{} windows, {} events, mean staleness {:.2} ticks, throughput {:.1} rows/tick, \
         clock {}",
        out.windows.len() + resumed.as_ref().map_or(0, |r| r.windows.len()),
        out.events() + resumed.as_ref().map_or(0, |r| r.events()),
        out.mean_staleness(),
        out.throughput(),
        last.clock,
    );
    Ok(())
}

/// `uww report LEDGER`: validate a window-health ledger and summarize it.
fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args
        .dir
        .as_deref()
        .ok_or_else(|| "report needs a ledger file: uww report LEDGER".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = uww::obs::ledger::validate_ledger(&text).map_err(|e| format!("{path}: {e}"))?;
    if args.json {
        println!(
            "{{\"records\":{},\"windows\":[{},{}],\"events\":{},\"predicted_work\":{},\
             \"measured_work\":{},\"mean_staleness\":{},\"wall_us\":{}}}",
            summary.records,
            summary.windows.0,
            summary.windows.1,
            summary.events,
            summary.predicted_work,
            summary.measured_work,
            summary.mean_staleness,
            summary.wall_us,
        );
        return Ok(());
    }
    let records = uww::obs::ledger::read_ledger(&text)?;
    println!(
        "ledger {path}: {} record(s), windows {}..{}, {} event(s)",
        summary.records, summary.windows.0, summary.windows.1, summary.events,
    );
    println!(
        "work: predicted {:.1}, measured {}, mean staleness {:.2} ticks, wall {}us",
        summary.predicted_work, summary.measured_work, summary.mean_staleness, summary.wall_us
    );
    println!(
        "{:>4} {:>6} {:>7} {:>12} {:>12} {:>10} {:>8} {:>9}",
        "win", "ticks", "events", "predicted", "measured", "staleness", "policy", "crit_us"
    );
    for r in &records {
        println!(
            "{:>4} {:>6} {:>7} {:>12.1} {:>12} {:>10.2} {:>8} {:>9}",
            r.window,
            r.window_ticks,
            r.events,
            r.predicted_work,
            r.measured_work,
            r.staleness,
            r.policy,
            r.critical_path_us,
        );
    }
    Ok(())
}

const USAGE: &str =
    "usage: uww <info|plan|run|analyze|script|dot|olap|serve|ingest|report|explain|dump> \
[--scenario fig4|q3|q5] [--scale F] [--frac F] \
[--planner minwork|prune|dual-stage|rnscol] [--graph vdag|eg] \
[--isolation strict|low (olap) / strict|mvcc|both (serve)] [--readers N] \
[--sql NAME=SELECT-statement] \
[--strategy \"Comp(V,{A,B}); Inst(A); ...\"] [--stages \"stage | stage | ...\"] [--json] \
[--wal DIR] [--fsync always|never] [--fault crash:K|torn:K|dup:K|dirsync] \
[--partitions N] [--strategy-sharing] \
[--objective linear|shared] \
[--trace-out FILE] [--metrics]\n\
       uww ingest [--scenario ...] [--scale F] [--policy fixed|greedy] [--window N] \
[--sla F] [--rate MILLI] [--service-rate F] [--horizon N] [--seed N] [--no-carry] \
[--objective linear|shared] [--partitions N] \
[--wal DIR] [--fsync always|never] \
[--fault crash:K|torn:K|dup:K|dirsync] [--fault-window W] \
[--replay FILE] [--record FILE] [--serve] [--readers N] [--json] [--metrics] \
[--ledger FILE] [--latency-buckets US,US,...]\n\
       uww report LEDGER [--json]\n\
       uww recover DIR";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match parse_args(&argv) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(&args),
        "plan" => cmd_plan(&args),
        "run" => cmd_run(&args),
        "recover" => cmd_recover(&args),
        "analyze" => cmd_analyze(&args),
        "script" => cmd_script(&args),
        "dot" => cmd_dot(&args),
        "olap" => cmd_olap(&args),
        "serve" => cmd_serve(&args),
        "ingest" => cmd_ingest(&args),
        "report" => cmd_report(&args),
        "explain" => cmd_explain(&args),
        "dump" => cmd_dump(&args),
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
