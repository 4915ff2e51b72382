//! Work-sharded parallel execution of independent seeded runs.
//!
//! Every experiment in the workspace is a *campaign grid*: a list of
//! fully self-contained run descriptions (seed, system kind, schedule,
//! fault plan) whose executions share no state — the simulator threads
//! nothing between runs, every `RegisterFactory`/`Nemesis`/`ScheduleCtl`
//! is per-run, and each run is a deterministic function of its inputs.
//! That makes the grid embarrassingly parallel: the only thing a
//! parallel driver must preserve is the *presentation order* of results.
//!
//! [`Executor::run`] shards the index space `0..count` across a fixed
//! pool of `std::thread` workers (no external dependencies) pulling
//! indices from one atomic counter, and collects results **by index**,
//! not by completion order. A caller that renders results in index order
//! therefore produces byte-identical output for any worker count — the
//! property the E12 determinism test pins down.
//!
//! This is the only place a run meets another thread. A run's shared
//! state (registers, process locals, schedule controls) lives in `Rc`
//! and `RefCell` cells and is not `Send`, so a job builds and runs its
//! campaign inside the worker: run descriptions go in by shared
//! reference and `Send` outcomes come out, and the compiler rejects a
//! job that tries to carry a run's objects across.
//!
//! The worker count is an explicit `--jobs N` CLI value, passed as
//! `Some(n)` to [`resolve_jobs`], else all cores
//! ([`std::thread::available_parallelism`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves the worker count: `explicit` (a `--jobs` flag), else all
/// available cores. Always at least 1; an explicit zero is ignored.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit.filter(|&j| j >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A fixed-width pool for executing independent jobs across cores.
///
/// See the [module docs](self) for the sharding and determinism story.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is 0.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs >= 1, "an executor needs at least one worker");
        Executor { jobs }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `job(i)` for every `i` in `0..count` and returns the
    /// results **in index order**, regardless of which worker finished
    /// which index when.
    ///
    /// With one worker (or one job) everything runs inline on the caller
    /// thread — no pool, no channels — so `Executor::new(1)` is the
    /// serial baseline, not a degenerate parallel mode.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is propagated to the caller once the
    /// remaining workers have drained (via [`std::thread::scope`]'s join).
    pub fn run<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let workers = self.jobs.min(count);
        if workers <= 1 {
            return (0..count).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let job = &job;
                std::thread::Builder::new()
                    .name(format!("tbwf-exec-{w}"))
                    .spawn_scoped(s, move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        // A send can only fail if the collector side is
                        // gone, i.e. the scope is already unwinding from
                        // another worker's panic; stop quietly.
                        if tx.send((i, job(i))).is_err() {
                            break;
                        }
                    })
                    .expect("failed to spawn executor worker");
            }
            drop(tx);
            // Collect on the caller thread; the loop ends when every
            // worker has dropped its sender.
            for (i, result) in rx {
                slots[i] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("executor worker dropped a job result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let ex = Executor::new(4);
        // Jitter completion order: later indices finish sooner.
        let out = ex.run(16, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i) as u64 * 50));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let job = |i: usize| {
            (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(7)
        };
        let serial = Executor::new(1).run(100, job);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(Executor::new(jobs).run(100, job), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        Executor::new(8).run(97, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(Executor::new(32).run(3, |i| i), vec![0, 1, 2]);
        assert_eq!(Executor::new(32).run(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = Executor::new(0);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_value() {
        assert_eq!(resolve_jobs(Some(5)), 5);
        // `Some(0)` is ignored, falling through to cores — at least 1.
        assert!(resolve_jobs(Some(0)) >= 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            Executor::new(4).run(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
