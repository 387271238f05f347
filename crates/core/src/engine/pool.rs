//! A dependency-free work-stealing pool for partition-parallel execution.
//!
//! [`run_tasks`] runs `n` independent index-addressed tasks across a scoped
//! worker set and returns their results **in task order** — the caller's
//! output is a pure function of the task set, never of scheduling. Workers
//! share one next-task counter: each takes the lowest index nobody has
//! taken yet until none is left. Partition skew is what that exists for: a
//! worker whose partitions happened to be small takes over the straggler's
//! remaining chunks instead of idling at the barrier.
//!
//! The pool is deliberately scoped and ephemeral (`std::thread::scope`, no
//! global executor): a staged window already runs each of a stage's `Comp`s
//! on its own scoped thread, and nested scoped pools compose without a
//! shared-runtime deadlock surface.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Partition-parallel execution knobs, threaded from the CLI through
/// [`ExecOptions`](crate::engine::exec::ExecOptions) into the term engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Contiguous slices each probe, filter, cross join and grouping step
    /// cuts its input into; `1` (the default) runs every step inline.
    pub partitions: usize,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions { partitions: 1 }
    }
}

impl PartitionOptions {
    /// A sequential (single-partition) configuration.
    pub fn sequential() -> PartitionOptions {
        PartitionOptions::default()
    }

    /// `partitions` partitions (at least one).
    pub fn with_partitions(partitions: usize) -> PartitionOptions {
        PartitionOptions {
            partitions: partitions.max(1),
        }
    }

    /// True when this configuration actually fans out.
    pub fn parallel(&self) -> bool {
        self.partitions > 1
    }

    /// Worker threads for an `n`-task fan-out under this configuration:
    /// one per partition, capped by the machine's available parallelism —
    /// on a smaller machine the same partitions run on fewer workers with
    /// identical results (the differential tests rely on this). The
    /// parallelism is read once per process: on Linux each read parses the
    /// cgroup files.
    pub fn workers(&self, n: usize) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()));
        self.partitions.min(n).min(cores).max(1)
    }
}

/// Runs tasks `0..n` via `f` on `workers` scoped threads, returning
/// results indexed by task — deterministic regardless of worker count or
/// scheduling. `workers <= 1` runs inline with no thread setup at all.
pub fn run_tasks<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // A ticket dispenser: it hands out each index once and publishes no
    // other data (results travel through the slot mutexes and the scope's
    // join), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Span suppression is per thread: a caller describing a window offline
    // must not have its workers' spans reach an installed trace.
    let quiet = uww_obs::suppressed();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| {
                let _quiet = quiet.then(uww_obs::suppress);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(f(i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every task executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order_for_every_configuration() {
        for n in [0, 1, 2, 7, 64] {
            for workers in [1, 2, 3, 8] {
                let out = run_tasks(n, workers, |i| i * 10);
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn workers_inherit_the_callers_span_suppression() {
        use uww_obs::{SpanKind, TraceBuffer};
        let buf = std::sync::Arc::new(TraceBuffer::new(1 << 16));
        uww_obs::install(std::sync::Arc::clone(&buf));
        let fan_out = |name: &'static str| {
            run_tasks(4, 2, |_| {
                drop(uww_obs::span_under(SpanKind::Operator, 0, name))
            });
        };
        fan_out("pool-test-loud");
        {
            let _quiet = uww_obs::suppress();
            fan_out("pool-test-quiet");
        }
        uww_obs::uninstall();
        // Other tests of this binary may have recorded spans meanwhile.
        let count = |name| buf.records().iter().filter(|s| s.name == name).count();
        assert_eq!(count("pool-test-loud"), 4);
        assert_eq!(count("pool-test-quiet"), 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(100, 4, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn skewed_tasks_complete_under_stealing() {
        // One straggler task plus many small ones: with stealing the pool
        // must still return every result, in order.
        let out = run_tasks(16, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn options_cap_workers_and_default_sequential() {
        let o = PartitionOptions::default();
        assert_eq!(o.partitions, 1);
        assert!(!o.parallel());
        assert_eq!(o.workers(8), 1);
        let p = PartitionOptions::with_partitions(8);
        assert!(p.parallel());
        assert!(p.workers(8) >= 1);
        assert!(p.workers(3) <= 3);
        assert_eq!(p.workers(0), 1);
        assert_eq!(PartitionOptions::with_partitions(0).partitions, 1);
        assert_eq!(PartitionOptions::sequential(), PartitionOptions::default());
    }
}
