//! `uww-e2e`: the repository's wall-clock benchmark of the update window.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
//! ```
//!
//! With `--trace 0` (the default) it prints the end-to-end metrics of one
//! workload, measured with tracing off; with `--trace 1` the per-layer
//! metrics from the traced pass. The last line of standard output is the
//! result object `BENCHMARK.json` describes; the line before it carries the
//! same numbers with their quartiles, sample counts and the machine stamp.
//! See `README.md` beside this package for the metric and workload tables.

mod catalog;
mod layers;
mod measure;
mod spans;
mod stats;
mod workload;

use catalog::{END_TO_END, PER_LAYER};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use uww::obs::json::escape;
use workload::Workload;

const DEFAULT_SEED: u64 = 0x5757_1999;
const DEFAULT_SECONDS: f64 = 10.0;

/// What one measured pass is run with.
#[derive(Clone, Copy)]
struct Pass {
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
}

struct Args {
    workloads: Vec<Workload>,
    pass: Pass,
    chrome: Option<PathBuf>,
    selfcheck: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: uww-e2e [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--scale F] [--chrome FILE] [--selfcheck]",
        names.join("|")
    )
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        pass: Pass {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: None,
        },
        chrome: None,
        selfcheck: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value for {flag}: {value}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => args.pass.seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.pass.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.pass.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.pass.scale = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                        .ok_or_else(bad)?,
                )
            }
            "--chrome" => args.chrome = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(args)
}

/// One run's numbers: the gated values and, for timings, their spread.
struct Outcome {
    metrics: BTreeMap<String, f64>,
    spreads: BTreeMap<String, Summary>,
    rounds: usize,
    attempted: u64,
    failed: u64,
}

fn run(workload: Workload, pass: Pass, chrome: Option<&Path>) -> Result<Outcome, String> {
    let scale = pass.scale.unwrap_or(workload.scale());
    if pass.trace {
        let run = layers::measure_layers(workload, pass.seed, pass.seconds, scale, chrome)?;
        return Ok(Outcome {
            metrics: run.metrics,
            spreads: BTreeMap::new(),
            rounds: 0,
            attempted: run.attempted,
            failed: run.failed,
        });
    }
    let e = measure::measure(workload, pass.seed, pass.seconds, scale)?;
    let spreads: BTreeMap<String, Summary> = e
        .timings
        .into_iter()
        .map(|(name, summary)| (name.to_string(), summary))
        .collect();
    let metrics = spreads
        .iter()
        .map(|(name, summary)| (name.clone(), summary.median))
        .collect();
    Ok(Outcome {
        metrics,
        spreads,
        rounds: e.rounds,
        attempted: e.attempted,
        failed: e.failed,
    })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The line before the result: what was run, on what, and the spread behind
/// each gated median.
fn detail_line(workload: Workload, pass: Pass, out: &Outcome) -> String {
    let spreads: Vec<String> = out
        .spreads
        .iter()
        .map(|(name, s)| {
            let tail = match s.tail {
                Some((pct, value)) => format!(", \"tail_pct\": {pct}, \"tail\": {value}"),
                None => String::new(),
            };
            format!(
                "\"{name}\": {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
                 \"min\": {}, \"mean\": {}{tail}}}",
                s.n, s.median, s.q1, s.q3, s.min, s.mean
            )
        })
        .collect();
    // Two partitions on fewer than four cores share them with nothing to
    // spare: `window_part_ms` then shows split and pool overhead, not a
    // speed-up.
    let core_starved = cores() < 4;
    format!(
        "{{\"detail\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \
         \"rounds\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"core_starved\": {core_starved}, \
         \"fsync\": \"always, on the sandbox's file system, where it is cheap\", \
         \"spread\": {{{}}}}}",
        workload.name(),
        pass.seed,
        pass.seconds,
        u8::from(pass.trace),
        pass.scale.unwrap_or(workload.scale()),
        out.rounds,
        cores(),
        escape(&rustc_version()),
        spreads.join(", "),
    )
}

/// The result object: every metric of the pass that ran, by name and unit.
fn result_line(trace: bool, out: &Outcome) -> Result<String, String> {
    let units: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
    };
    let mut fields = Vec::with_capacity(units.len());
    for (name, unit) in units {
        let value = *out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

/// Runs the same workload twice in this process and holds the two sets of
/// numbers to each other: end-to-end medians within their bounds, exact
/// counts identical. True when they agree.
fn selfcheck(workload: Workload, pass: Pass) -> Result<bool, String> {
    let mut agree = true;
    let untraced = Pass {
        trace: false,
        ..pass
    };
    let traced = Pass {
        trace: true,
        ..pass
    };
    let (a, b) = (
        run(workload, untraced, None)?,
        run(workload, untraced, None)?,
    );
    agree &= a.failed == 0 && b.failed == 0;
    for def in &END_TO_END {
        let (x, y) = (a.metrics[def.name], b.metrics[def.name]);
        let diff = (y - x).abs() / x;
        let ok = diff <= def.bound;
        agree &= ok;
        println!(
            "selfcheck {} {}: {x} vs {y} {}, {:.2}% apart, bound {:.0}%: {}",
            workload.name(),
            def.name,
            def.unit,
            diff * 100.0,
            def.bound * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    let (a, b) = (run(workload, traced, None)?, run(workload, traced, None)?);
    agree &= a.failed == 0 && b.failed == 0;
    for def in PER_LAYER.iter().filter(|d| d.exact) {
        let (x, y) = (a.metrics[def.name], b.metrics[def.name]);
        if x != y {
            agree = false;
            println!(
                "selfcheck {} {}: {x} vs {y}: DISAGREE",
                workload.name(),
                def.name
            );
        }
    }
    println!(
        "selfcheck {}: {}",
        workload.name(),
        if agree { "agree" } else { "DISAGREE" }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let step = if args.selfcheck {
            selfcheck(workload, args.pass)
        } else {
            run(workload, args.pass, args.chrome.as_deref()).and_then(|out| {
                let result = result_line(args.pass.trace, &out)?;
                println!("{}", detail_line(workload, args.pass, &out));
                println!("{result}");
                Ok(out.failed == 0)
            })
        };
        match step {
            Ok(correct) => all_correct &= correct,
            Err(msg) => {
                eprintln!("e2e: {}: {msg}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
