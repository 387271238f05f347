//! The `uww-bench` reports must run green end-to-end (each asserts its own
//! reproduction claims internally), and the command line must reject what it
//! cannot run before doing any work. Scale is pinned tiny via `UWW_SCALE` so
//! the whole sweep stays fast.

use std::process::{Command, Output};

fn uww_bench(scale: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uww-bench"));
    cmd.args(args).env_remove("UWW_SCALE");
    if let Some(scale) = scale {
        cmd.env("UWW_SCALE", scale);
    }
    cmd.output().expect("launch uww-bench")
}

fn run(report: &str) -> (bool, String) {
    let out = uww_bench(Some("0.0004"), &[report]);
    (
        out.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

#[test]
fn table1_reproduces_exactly() {
    let (ok, out) = run("table1");
    assert!(ok, "{out}");
    assert!(out.contains("Table 1 REPRODUCED"), "{out}");
    assert!(out.contains("4683"));
}

#[test]
fn fig12_reports_thirteen_classes() {
    let (ok, out) = run("fig12");
    assert!(ok, "{out}");
    assert!(out.contains("MinWorkSingle"), "{out}");
    assert!(out.contains("dual-stage"), "{out}");
    // 13 strategy rows below the header (the trailing summary line also
    // mentions groupings; exclude it).
    let rows = out
        .lines()
        .filter(|l| l.contains('{') && l.contains('}') && !l.starts_with("->"))
        .count();
    assert_eq!(rows, 13, "{out}");
}

#[test]
fn fig13_shows_the_fanin_gap() {
    let (ok, out) = run("fig13");
    assert!(ok, "{out}");
    assert!(out.contains("worst/best measured ratio"), "{out}");
}

#[test]
fn fig14_asserts_the_sweep_ordering() {
    let (ok, out) = run("fig14");
    assert!(ok, "{out}");
    assert!(out.contains("Figure 14 REPRODUCED"), "{out}");
}

#[test]
fn fig15_includes_the_metric_ablation() {
    let (ok, out) = run("fig15");
    assert!(ok, "{out}");
    assert!(out.contains("RNSCOL"), "{out}");
    assert!(out.contains("the variant ranks dual-stage BEST"), "{out}");
}

#[test]
fn discussion_and_extension_reports_run() {
    for report in ["parallel", "design"] {
        let (ok, out) = run(report);
        assert!(ok, "{report}: {out}");
    }
}

#[test]
fn unknown_report_exits_nonzero_naming_the_valid_set() {
    for args in [&["fig16"][..], &[]] {
        let out = uww_bench(None, args);
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let err = String::from_utf8_lossy(&out.stderr);
        for name in ["table1", "fig15", "all", "trace-overhead", "validate-trace"] {
            assert!(err.contains(name), "{args:?}: usage omits {name}: {err}");
        }
    }
}

#[test]
fn unusable_scale_is_an_error_and_unset_is_not() {
    for bad in ["abc", "0", "-1", "nan", "inf", "0.0l", ""] {
        let out = uww_bench(Some(bad), &["table1"]);
        assert!(!out.status.success(), "UWW_SCALE={bad} accepted");
        assert!(out.stdout.is_empty(), "UWW_SCALE={bad} printed a report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("bad UWW_SCALE"), "UWW_SCALE={bad}: {err}");
    }
    let out = uww_bench(None, &["table1"]);
    assert!(out.status.success(), "unset UWW_SCALE rejected");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1 REPRODUCED"));
}
