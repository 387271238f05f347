//! The end-to-end pass: tracing off, set-up timed, one untimed warm-up round,
//! then closed-loop rounds of every operation for a fixed wall-clock budget.

use crate::stats::{summarize, Summary};
use crate::workload::{prepare, run_op, Op, Prepared, Round, Scratch, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run: at least three, then more while they fit in a thirtieth
/// of the budget, so a 10 ms set-up is timed as steadily as a 150 ms one.
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUPS_SHARE: f64 = 1.0 / 30.0;
/// Rounds a run measures at least, whatever its budget.
pub const MIN_ROUNDS: usize = 3;
/// Share of the budget an operation is given in each round, 300 ms of a 30 s
/// run: one whose call is shorter is repeated back to back to fill it, so a
/// 7 ms window is sampled about as long as a 2 s drain and its median rests
/// on as much work.
const ROUND_SHARE: f64 = 0.01;
const MAX_REPEATS: usize = 40;

/// The order operations run in during round `round`: every one once, the
/// starting one rotated, so none always runs first or right after another.
pub fn rotation(variants: usize, round: usize) -> impl Iterator<Item = usize> {
    (0..variants).map(move |i| (i + round) % variants)
}

/// The rounds of every operation, in `Op::ALL` order.
#[derive(Default)]
pub struct Samples {
    per_op: [Vec<Round>; Op::ALL.len()],
}

impl Samples {
    pub fn push(&mut self, op: Op, round: Round) {
        self.per_op[op as usize].push(round);
    }

    pub fn of(&self, op: Op) -> &[Round] {
        &self.per_op[op as usize]
    }

    pub fn all(&self) -> impl Iterator<Item = &Round> {
        self.per_op.iter().flatten()
    }

    /// A quantity of every round of `op` that completed.
    pub fn values(&self, op: Op, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.of(op)
            .iter()
            .filter(|r| r.wall_s > 0.0)
            .map(f)
            .collect()
    }

    /// Wall of every completed round of `op`, milliseconds.
    pub fn wall_ms(&self, op: Op) -> Vec<f64> {
        self.values(op, |r| r.wall_s * 1e3)
    }
}

/// Runs `op` untraced and removes what it left on disk.
pub fn run_plain(p: &Prepared, op: Op, scratch: &mut Scratch) -> Round {
    let mut round = run_op(p, op, scratch);
    if let Some(dir) = round.wal_dir.take() {
        scratch.remove(&dir);
    }
    round
}

/// One workload's end-to-end numbers.
pub struct EndToEnd {
    /// Every end-to-end metric by name; the gated value is the median.
    pub timings: BTreeMap<&'static str, Summary>,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `prepare` several times and keeps the last result.
fn timed_setups(
    workload: Workload,
    seed: u64,
    scale: f64,
    budget: Duration,
) -> Result<(Prepared, Summary), String> {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let p = prepare(workload, seed, scale).map_err(|e| format!("set-up failed: {e}"))?;
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= MIN_SETUPS && start.elapsed() >= budget;
        if enough || secs.len() == MAX_SETUPS {
            return Ok((p, summarize(&secs)));
        }
        // `p` is dropped here, so peak memory is one set-up's.
    }
}

pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
) -> Result<EndToEnd, String> {
    let mut scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let budget = Duration::from_secs_f64(seconds);
    let (p, setup_s) = timed_setups(workload, seed, scale, budget.mul_f64(SETUPS_SHARE))?;

    let mut samples = Samples::default();
    let mut warm_up = Samples::default();
    // How often each operation, in `Op::END_TO_END` order, runs per round.
    let mut repeats = Vec::with_capacity(Op::END_TO_END.len());
    for (op, _) in Op::END_TO_END {
        let call = Instant::now();
        warm_up.push(op, run_plain(&p, op, &mut scratch));
        let fit = seconds * ROUND_SHARE / call.elapsed().as_secs_f64();
        repeats.push((fit as usize).clamp(1, MAX_REPEATS));
    }
    // Clone and oracle checks between windows spend the budget too, so a
    // run's length does not depend on how fast the windows are.
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        for i in rotation(Op::END_TO_END.len(), rounds) {
            let (op, _) = Op::END_TO_END[i];
            for _ in 0..repeats[i] {
                samples.push(op, run_plain(&p, op, &mut scratch));
            }
        }
        rounds += 1;
    }

    let mut timings = BTreeMap::from([("setup_s", setup_s)]);
    for (op, metric) in Op::END_TO_END {
        let values = match op {
            // The floor on freshness: a drain's wall over the windows it
            // cut. Steady from seed to seed where events per second is not,
            // because a seed moves how many windows a short timeline is cut
            // into.
            Op::Ingest => samples.values(op, |r| {
                r.wall_s * 1e3 / r.sched.map_or(1, |s| s.windows.max(1)) as f64
            }),
            _ => samples.wall_ms(op),
        };
        if values.is_empty() {
            return Err(format!("no {op:?} operation completed"));
        }
        timings.insert(metric, summarize(&values));
    }
    let counted = || warm_up.all().chain(samples.all());
    Ok(EndToEnd {
        timings,
        rounds,
        attempted: counted().map(|r| r.attempted).sum(),
        failed: counted().map(|r| r.failed).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn rotation_starts_each_round_one_variant_later() {
        let order = |round| rotation(3, round).collect::<Vec<_>>();
        assert_eq!(order(0), [0, 1, 2]);
        assert_eq!(order(1), [1, 2, 0]);
        assert_eq!(order(2), [2, 0, 1]);
        assert_eq!(order(3), order(0));
        // Over as many rounds as variants, each variant holds each place once.
        for place in 0..3 {
            let mut seen: Vec<usize> = (0..3).map(|round| order(round)[place]).collect();
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2]);
        }
    }

    /// `--workload fig4_batch --seconds 0 --scale 0.0005`: the smallest run
    /// the command line can ask for, checked against the oracle like any other.
    #[test]
    fn smoke_fig4_batch_at_a_tiny_scale() {
        let e = measure(Workload::Fig4Batch, 7, 0.0, 0.0005).unwrap();
        assert_eq!(e.failed, 0);
        assert_eq!(e.rounds, MIN_ROUNDS);
        let names: Vec<&str> = e.timings.keys().copied().collect();
        let mut catalogued: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        catalogued.sort_unstable();
        assert_eq!(names, catalogued);
        assert!(e
            .timings
            .values()
            .all(|s| s.n >= MIN_ROUNDS && s.median > 0.0));
    }

    #[test]
    fn every_operation_of_every_workload_ends_in_the_oracles_state() {
        for workload in Workload::ALL {
            let p = prepare(workload, 11, 0.0005).unwrap();
            let mut scratch = Scratch::new().unwrap();
            for op in Op::ALL {
                let round = run_plain(&p, op, &mut scratch);
                assert_eq!(round.failed, 0, "{} {op:?}", workload.name());
                assert!(round.wall_s > 0.0, "{} {op:?}", workload.name());
                assert!(round.report.linear_work() > 0, "{} {op:?}", workload.name());
            }
        }
    }
}
