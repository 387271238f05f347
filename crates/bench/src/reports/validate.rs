//! CI helper: validate a Chrome trace-event JSON file produced by
//! `uww run --trace-out` (or any trace-format producer) against the shape
//! contract in [`uww::obs::chrome::validate_chrome_trace`], and print a
//! one-line summary. Exits nonzero on any violation, so the bench-smoke job
//! can gate on it.
//!
//! Usage: `uww-bench validate-trace TRACE.json [TRACE2.json ...]`

pub fn run() {
    let paths: Vec<String> = std::env::args().skip(2).collect();
    if paths.is_empty() {
        eprintln!("usage: uww-bench validate-trace TRACE.json [TRACE2.json ...]");
        std::process::exit(1);
    }
    let mut ok = true;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                ok = false;
                continue;
            }
        };
        match uww::obs::chrome::validate_chrome_trace(&text) {
            Ok(stats) => {
                let cats: Vec<String> = stats
                    .by_category
                    .iter()
                    .map(|(c, n)| format!("{c}={n}"))
                    .collect();
                println!(
                    "{path}: OK — {} event(s), {} span(s) on {} lane(s), \
                     window {} µs [{}]",
                    stats.events,
                    stats.complete_events,
                    stats.lanes,
                    stats.span_end_us,
                    cats.join(", ")
                );
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
