//! `uww-bench <report>`: the one reports binary. A subcommand regenerates
//! one of the paper's work-unit tables or figures (`table1`, `fig12`–`fig15`,
//! `parallel` for §9, `design` for §8, `scaling`), or all eight (`all`);
//! `trace-overhead` enforces the < 5 % span and ledger budget;
//! `validate-trace TRACE.json...` checks Chrome trace files. Wall-clock
//! results come from `e2e/` (see `BENCHMARK.json`), not from here.

use std::process::ExitCode;

mod reports {
    pub mod design;
    pub mod fig12;
    pub mod fig13;
    pub mod fig14;
    pub mod fig15;
    pub mod parallel;
    pub mod scaling;
    pub mod table1;
    pub mod trace_overhead;
    pub mod validate;
}
use reports::*;

const USAGE: &str = "\
usage: uww-bench <report> [TRACE.json...]
reports: table1 fig12 fig13 fig14 fig15 parallel design scaling all trace-overhead validate-trace";

/// Every subcommand. The first [`PAPER`] are the paper's work-unit reports,
/// in the order `all` runs them.
const REPORTS: [(&str, fn()); 11] = [
    ("table1", table1::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("parallel", parallel::run),
    ("design", design::run),
    ("scaling", scaling::run),
    ("all", all),
    ("trace-overhead", trace_overhead::run),
    ("validate-trace", validate::run),
];
const PAPER: usize = 8;

/// The full paper-evaluation regeneration. A failed report panics, which
/// ends the run there with a non-zero exit.
fn all() {
    const RULE: &str = "──────────────────────────────────────────────────────────";
    for (_, report) in &REPORTS[..PAPER] {
        println!("\n{RULE}");
        report();
    }
    println!("\n{RULE}\nAll reports completed.");
}

fn main() -> ExitCode {
    // Before any work: exits on a set but unusable UWW_SCALE.
    uww_bench::bench_scale();
    let Some(name) = std::env::args().nth(1) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some((_, report)) = REPORTS.iter().find(|(n, _)| *n == name) else {
        eprintln!("unknown report {name:?}\n{USAGE}");
        return ExitCode::FAILURE;
    };
    report();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_exactly_the_dispatch_table() {
        let listed: Vec<&str> = USAGE
            .lines()
            .find_map(|l| l.strip_prefix("reports: "))
            .expect("a `reports:` line")
            .split_whitespace()
            .collect();
        let dispatched: Vec<&str> = REPORTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, dispatched);
        assert_eq!(dispatched[PAPER], "all", "`all` must not run itself");
    }
}
