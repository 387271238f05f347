//! Integration tests for the `uww` command-line binary.

use std::process::{Command, Output};

fn uww(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uww"))
        .args(args)
        .output()
        .expect("launch uww binary")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

const SMALL: &[&str] = &["--scale", "0.0003"];

#[test]
fn info_lists_views() {
    let o = uww(&[&["info", "--scenario", "q3"], SMALL].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("LINEITEM"));
    assert!(s.contains("Q3"));
    assert!(s.contains("derived"));
}

#[test]
fn plan_prints_strategy_and_cost() {
    let o = uww(&[&["plan", "--scenario", "q3", "--frac", "0.1"], SMALL].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("MinWork"));
    assert!(s.contains("Comp(Q3"));
    assert!(s.contains("predicted work"));
}

#[test]
fn run_executes_and_verifies() {
    for planner in ["minwork", "prune", "dual-stage", "rnscol"] {
        let o = uww(&[
            &[
                "run",
                "--scenario",
                "q3",
                "--frac",
                "0.1",
                "--planner",
                planner,
            ],
            SMALL,
        ]
        .concat());
        assert!(o.status.success(), "{planner}: {}", stderr(&o));
        assert!(
            stdout(&o).contains("verified against from-scratch rebuild"),
            "{planner}"
        );
    }
}

#[test]
fn script_emits_sql() {
    let o = uww(&[&["script", "--scenario", "q3", "--frac", "0.1"], SMALL].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("CREATE TABLE delta_LINEITEM"));
    assert!(s.contains("CREATE PROCEDURE comp_Q3_from_LINEITEM"));
    assert!(s.contains("EXEC comp_Q3_from_LINEITEM;"));
}

#[test]
fn dot_outputs_graphviz() {
    let o = uww(&[&["dot", "--scenario", "q3", "--graph", "vdag"], SMALL].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).starts_with("digraph vdag {"));

    let o = uww(&[&["dot", "--scenario", "q3", "--graph", "eg"], SMALL].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("digraph eg {"));
}

#[test]
fn olap_simulates_both_isolations() {
    for iso in ["strict", "low"] {
        let o = uww(&[
            &[
                "olap",
                "--scenario",
                "q3",
                "--frac",
                "0.1",
                "--isolation",
                iso,
            ],
            SMALL,
        ]
        .concat());
        assert!(o.status.success(), "{iso}: {}", stderr(&o));
        assert!(stdout(&o).contains("mean latency"));
    }
}

#[test]
fn run_json_reports_rows_emitted_and_replay_flags() {
    let o = uww(&[
        &["run", "--scenario", "q3", "--frac", "0.1", "--json"],
        SMALL,
    ]
    .concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.starts_with('{'), "{s}");
    assert!(s.contains("\"per_expr\":["), "{s}");
    assert!(s.contains("\"rows_emitted\":"), "{s}");
    assert!(s.contains("\"replayed\":false"), "{s}");
    assert!(s.contains("\"replayed_exprs\":0"), "{s}");
    assert!(s.contains("\"view\":\"Q3\""), "{s}");
}

#[test]
fn serve_measures_live_latency_under_one_isolation() {
    let o = uww(&[
        &[
            "serve",
            "--scenario",
            "q3",
            "--frac",
            "0.1",
            "--isolation",
            "mvcc",
            "--readers",
            "2",
        ],
        SMALL,
    ]
    .concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("mean_us"), "{s}");
    assert!(s.contains("mvcc"), "{s}");
    assert!(s.contains("simulated"), "{s}");
}

#[test]
fn serve_json_compares_both_isolations_to_the_simulation() {
    let o = uww(&[
        &[
            "serve",
            "--scenario",
            "q3",
            "--frac",
            "0.1",
            "--readers",
            "2",
            "--json",
        ],
        SMALL,
    ]
    .concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("\"measured\":["), "{s}");
    assert!(s.contains("\"isolation\":\"strict\""), "{s}");
    assert!(s.contains("\"isolation\":\"mvcc\""), "{s}");
    assert!(s.contains("\"mean_us\":"), "{s}");
    assert!(s.contains("\"lock_wait_us\":"), "{s}");
    assert!(s.contains("\"sim_mean\":"), "{s}");

    // An unknown isolation for serve is rejected.
    let o = uww(&[&["serve", "--isolation", "sideways"], SMALL].concat());
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown isolation"), "{}", stderr(&o));
}

#[test]
fn sql_flag_adds_a_custom_view() {
    let o = uww(&[
        &[
            "run",
            "--scenario",
            "q3",
            "--frac",
            "0.1",
            "--sql",
            "SEG=SELECT C.c_mktsegment, COUNT(*) AS n FROM CUSTOMER C GROUP BY C.c_mktsegment",
        ],
        SMALL,
    ]
    .concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("verified against from-scratch rebuild"));

    // Bad SQL is reported.
    let o = uww(&["run", "--sql", "X=SELECT FROM"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("parse error"), "{}", stderr(&o));
}

#[test]
fn explain_shows_term_plans() {
    let flags = [&["--scenario", "q3", "--frac", "0.1"], SMALL].concat();
    let o = uww(&[&["explain"], &flags[..]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("term Δ{LINEITEM}"));
    assert!(s.contains("⋈"));
    assert!(s.contains("predicted work"));

    // Every expression row's measured figure is the linear work a run with
    // the same flags reports for that expression.
    let rows: Vec<(&str, u64)> = s
        .lines()
        .filter(|l| !l.starts_with("--") && !l.starts_with(' '))
        .map(|l| {
            let (expr, rest) = l.split_once("predicted work").unwrap();
            let measured = rest.split_once("measured work ").expect(l).1;
            (expr.trim(), measured.trim().parse().expect(l))
        })
        .collect();
    let run = uww(&[&["run", "--json"], &flags[..]].concat());
    assert!(run.status.success(), "{}", stderr(&run));
    let doc = uww::obs::json::parse(&stdout(&run)).unwrap();
    let ran = doc.get("per_expr").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), ran.len(), "{s}");
    for ((expr, measured), e) in rows.iter().zip(ran) {
        assert_eq!(*expr, e.get("expr").unwrap().as_str().unwrap());
        let work = e.get("work").unwrap();
        let count = |k: &str| work.get(k).unwrap().as_f64().unwrap() as u64;
        assert_eq!(
            *measured,
            count("operand_rows_scanned") + count("rows_installed"),
            "{expr}"
        );
    }
}

#[test]
fn dump_round_trips_through_snapshot_parser() {
    let o = uww(&[&["dump", "--scenario", "q3"], SMALL].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    let catalog = uww::relational::catalog_from_str(&s).expect("parse dump");
    assert!(catalog.contains("LINEITEM"));
    assert!(catalog.contains("Q3"));
    assert!(!catalog.get("CUSTOMER").unwrap().is_empty());
}

#[test]
fn bad_input_fails_with_usage() {
    for bad in [
        vec!["explode"],
        vec!["plan", "--scenario", "nope"],
        vec!["plan", "--planner", "nope"],
        vec!["plan", "--scale", "abc"],
        vec!["plan", "--unknown-flag", "1"],
        vec![],
    ] {
        let o = uww(&bad.iter().map(|s| &**s).collect::<Vec<&str>>());
        assert!(!o.status.success(), "{bad:?} unexpectedly succeeded");
        assert!(stderr(&o).contains("usage:"), "{bad:?}");
    }
    // A scale or deletion fraction that describes no warehouse is refused
    // before any work starts.
    for (flag, value) in [
        ("--scale", "-1"),
        ("--scale", "0"),
        ("--scale", "nan"),
        ("--frac", "1.5"),
        ("--frac", "nan"),
        ("--frac", "-0.5"),
    ] {
        let o = uww(&["plan", "--scenario", "q3", flag, value]);
        assert!(!o.status.success(), "{flag} {value} unexpectedly accepted");
        let e = stderr(&o);
        assert!(e.contains(&format!("bad {flag} {value} (")), "{e}");
        assert!(e.contains("usage:"), "{e}");
        assert!(stdout(&o).is_empty(), "work started: {}", stdout(&o));
    }
    // Every command takes at most one positional word.
    for argv in [
        &["report", "a.jsonl", "b.jsonl"][..],
        &["recover", "/tmp/uww-wal", "extra"][..],
    ] {
        let o = uww(argv);
        assert_eq!(o.status.code(), Some(1), "{argv:?}");
        let e = stderr(&o);
        assert!(e.contains("error: unexpected argument"), "{argv:?}: {e}");
        assert!(stdout(&o).is_empty(), "{argv:?}: work started");
    }
    let o = uww(&["diff", "a.jsonl"]);
    assert!(
        stderr(&o).contains("unknown command diff"),
        "{}",
        stderr(&o)
    );
}

#[test]
fn removed_flags_are_unknown() {
    // The per-term and term-threaded modes, the pinned (non-stealing) pool,
    // the recalibration loop, the trace timeline, the trace conformance
    // check, the sharing-advisory pass and the per-install serving hold are
    // gone; their flags must not be silently accepted.
    for flag in [
        &["--hold-ms", "1"][..],
        &["--term-threads", "2"][..],
        &["--no-term-sharing"][..],
        &["--no-steal"][..],
        &["--recalibrate"][..],
        &["--timeline"][..],
        &["--verify-against", "trace.json"][..],
        &["--sharing"][..],
    ] {
        for cmd in ["run", "ingest", "analyze"] {
            let o = uww(&[&[cmd, "--scenario", "q3"], SMALL, flag].concat());
            assert!(!o.status.success(), "{cmd} {flag:?} unexpectedly accepted");
            let expected = format!("unknown flag {}", flag[0]);
            assert!(stderr(&o).contains(&expected), "{}", stderr(&o));
        }
    }
}

/// A hand-written strategy that fires five rules: UWW002, UWW004, UWW006,
/// UWW007 and UWW008.
const BAD_STRATEGY: &str = "Inst(CUSTOMER); Comp(Q3,{CUSTOMER,ORDER}); Comp(Q3,{ORDER}); \
                            Inst(Q3); Comp(Q3,{LINEITEM}); Inst(ORDER)";

/// A staged strategy whose first stage races a `Comp` against the install
/// of a view it reads (UWW001).
const RACY_STAGES: &str =
    "Comp(Q3,{CUSTOMER,ORDER,LINEITEM}); Inst(CUSTOMER) | Inst(ORDER); Inst(LINEITEM) | Inst(Q3)";

#[test]
fn analyze_output_is_pinned() {
    let cases: [(&[&str], bool, &str, &str); 3] = [
        (
            &[],
            true,
            include_str!("golden/analyze/planner.txt"),
            include_str!("golden/analyze/planner.json"),
        ),
        (
            &["--strategy", BAD_STRATEGY],
            false,
            include_str!("golden/analyze/rules.txt"),
            include_str!("golden/analyze/rules.json"),
        ),
        (
            &["--stages", RACY_STAGES],
            false,
            include_str!("golden/analyze/race.txt"),
            include_str!("golden/analyze/race.json"),
        ),
    ];
    for (extra, clean, text, json) in cases {
        let argv = [&["analyze", "--scenario", "q3"], SMALL, extra].concat();
        let o = uww(&argv);
        assert_eq!(o.status.success(), clean, "{argv:?}: {}", stderr(&o));
        assert_eq!(stdout(&o), text, "{argv:?}");
        let o = uww(&[&argv[..], &["--json"]].concat());
        assert_eq!(o.status.success(), clean, "{argv:?} --json: {}", stderr(&o));
        assert_eq!(stdout(&o), json, "{argv:?} --json");
    }
}

#[test]
fn analyze_refuses_strategy_together_with_stages() {
    // A clean `--stages` must not hide a wrong `--strategy` beside it.
    let o = uww(&[
        &["analyze", "--scenario", "q3"],
        SMALL,
        &[
            "--strategy",
            "Comp(Q3,{CUSTOMER})",
            "--stages",
            "Comp(Q3,{CUSTOMER,ORDER,LINEITEM}) | Inst(CUSTOMER); Inst(ORDER); Inst(LINEITEM) | Inst(Q3)",
        ],
    ]
    .concat());
    assert_eq!(o.status.code(), Some(1));
    let e = stderr(&o);
    assert!(
        e.contains("error: --strategy and --stages are mutually exclusive"),
        "{e}"
    );
    assert!(stdout(&o).is_empty(), "work started: {}", stdout(&o));
}

#[test]
fn strategy_sharing_reports_its_counters() {
    let flags = [&["--scenario", "q3", "--strategy-sharing"], SMALL].concat();
    let run = uww(&[&["run"], &flags[..]].concat());
    assert!(run.status.success(), "{}", stderr(&run));
    assert!(stdout(&run).contains("strategy cache:"), "{}", stdout(&run));
}

const INGEST: &[&str] = &["ingest", "--scenario", "q3", "--horizon", "12"];

#[test]
fn ingest_runs_both_policies_and_refuses_the_deleted_one() {
    for policy in ["fixed", "greedy"] {
        let o = uww(&[INGEST, SMALL, &["--policy", policy]].concat());
        assert!(o.status.success(), "{policy}: {}", stderr(&o));
        assert!(stdout(&o).contains("mean staleness"), "{policy}");
    }
    let o = uww(&[INGEST, SMALL, &["--policy", "adaptive"]].concat());
    assert!(
        !o.status.success(),
        "--policy adaptive unexpectedly accepted"
    );
    let e = stderr(&o);
    assert!(e.contains("unknown policy: adaptive"), "{e}");
    assert!(e.contains("fixed|greedy"), "{e}");
}

#[test]
fn ingest_refuses_a_service_rate_with_no_processing_time() {
    for rate in ["0", "-5", "nan", "inf"] {
        let o = uww(&[INGEST, SMALL, &["--service-rate", rate]].concat());
        assert!(!o.status.success(), "--service-rate {rate} accepted");
        let e = stderr(&o);
        assert!(e.contains(&format!("bad --service-rate {rate}")), "{e}");
        assert!(!e.contains("panicked"), "{e}");
        assert!(stdout(&o).is_empty(), "a window ran: {}", stdout(&o));
    }
}

/// A fresh per-test WAL directory under the target tmpdir.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uww-cli-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn run_with_wal_journals_and_recover_is_idempotent() {
    let dir = wal_dir("clean");
    let d = dir.to_str().unwrap();
    let o = uww(&[
        &["run", "--scenario", "q3", "--wal", d, "--fsync", "never"],
        SMALL,
    ]
    .concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("journaled to"));
    for f in ["manifest", "state.snap", "changes.snap", "wal.log"] {
        assert!(dir.join(f).is_file(), "missing {f}");
    }

    // Recovering a committed log replays everything, resumes nothing, and
    // still verifies against a from-scratch rebuild.
    let o = uww(&["recover", d]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("log was already committed"), "{s}");
    assert!(s.contains("0 expression(s) resumed"), "{s}");
    assert!(s.contains("verified against from-scratch rebuild"), "{s}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_crash_then_recover_completes_the_run() {
    let dir = wal_dir("crash");
    let d = dir.to_str().unwrap();
    let o = uww(&[
        &[
            "run",
            "--scenario",
            "q3",
            "--wal",
            d,
            "--fsync",
            "never",
            "--fault",
            "crash:5",
        ],
        SMALL,
    ]
    .concat());
    assert!(!o.status.success(), "injected crash should fail the run");
    assert!(stderr(&o).contains("injected crash"), "{}", stderr(&o));

    let o = uww(&["recover", d]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("resumed"), "{s}");
    assert!(s.contains("verified against from-scratch rebuild"), "{s}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_tolerates_a_torn_final_record() {
    let dir = wal_dir("torn");
    let d = dir.to_str().unwrap();
    let o = uww(&[
        &[
            "run",
            "--scenario",
            "q3",
            "--wal",
            d,
            "--fsync",
            "never",
            "--fault",
            "torn:6",
        ],
        SMALL,
    ]
    .concat());
    assert!(!o.status.success());
    assert!(stderr(&o).contains("injected crash"), "{}", stderr(&o));

    let o = uww(&["recover", d]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("verified against from-scratch rebuild"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_without_dir_or_with_missing_dir_fails() {
    let o = uww(&["recover"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("recover needs a WAL directory"));

    let o = uww(&["recover", "/nonexistent/uww-wal"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("wal"), "{}", stderr(&o));
}

#[test]
fn report_refuses_a_deeply_nested_line_without_overflowing() {
    let dir = wal_dir("nested");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nested.jsonl");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let o = uww(&["report", path.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    let e = stderr(&o);
    assert!(
        e.contains("error:") && e.contains("nesting deeper than"),
        "{e}"
    );
    assert!(!e.contains("overflowed"), "{e}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_fault_spec_fails_with_usage() {
    let o = uww(&["run", "--wal", "/tmp/x", "--fault", "sideways:3"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown fault kind"), "{}", stderr(&o));
}

#[test]
fn help_prints_usage() {
    let o = uww(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage:"));
}
