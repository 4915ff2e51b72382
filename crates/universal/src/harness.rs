//! Workload runners: complete n-process systems executing counter
//! workloads on each progress engine, used by integration tests and the
//! E4/E5/E7 experiments.

// `for p in 0..n` indexing parallel handle vectors mirrors the paper's
// per-process wiring; an iterator chain would obscure it.
#![allow(clippy::needless_range_loop)]

use crate::baselines::{invoke_flms, invoke_obstruction_free, CasUniversal, FlmsShared};
use crate::object::{Counter, CounterOp};
use crate::qa::QaObject;
use crate::tbwf::invoke_tbwf;
use std::rc::Rc;
use std::sync::Arc;
use tbwf_omega::harness::install_omega;
use tbwf_omega::OmegaKind;
use tbwf_registers::{OpLog, RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::{Env, ProcId, RunConfig, RunReport, SimBuilder};

/// Observation key: number of completed operations of a worker.
pub const OBS_COMPLETED: &str = "completed";
/// Observation key: each response value returned to a worker.
const OBS_RESP: &str = "resp";

/// The progress engine a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The paper's construction: Ω∆ + query-abortable object (Figure 7).
    Tbwf(OmegaKind),
    /// Figure 7 without the canonical line-2 wait (for E7 only).
    TbwfNonCanonical(OmegaKind),
    /// The query-abortable object driven directly (obstruction-free).
    PlainOf,
    /// FLMS-style panic-flag boosting (assumes all-timely).
    FlmsBoost,
    /// Herlihy-style wait-free construction from CAS.
    HerlihyCas,
}

/// Configuration of a counter workload run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of processes; each runs one worker performing increments.
    pub n: usize,
    /// Progress engine.
    pub engine: Engine,
    /// Register backend configuration.
    pub factory: RegisterFactoryConfig,
    /// Operations per worker (`u64::MAX` = keep going until the run ends).
    pub ops_per_proc: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n: 3,
            engine: Engine::Tbwf(OmegaKind::Atomic),
            factory: RegisterFactoryConfig::default(),
            ops_per_proc: u64::MAX,
        }
    }
}

/// The increment worker of every engine: `ops` increments, one after
/// another, observing each response and the running completion count.
/// `inc` is one increment on the engine; the next one starts in the step
/// that completed the previous one.
async fn worker(env: Rc<dyn Env>, ops: u64, mut inc: impl AsyncFnMut(&dyn Env) -> i64) {
    let env = &*env;
    env.observe(OBS_COMPLETED, 0, 0);
    for done in 1..=ops {
        let v = inc(env).await;
        env.observe(OBS_RESP, 0, v);
        env.observe(OBS_COMPLETED, 0, done as i64);
    }
}

fn add_worker(
    b: &mut SimBuilder,
    p: usize,
    ops: u64,
    inc: impl AsyncFnMut(&dyn Env) -> i64 + 'static,
) {
    b.spawn_task(ProcId(p), "worker", move |env| worker(env, ops, inc));
}

/// The result of a workload run.
pub struct WorkloadOutput {
    /// The run report.
    pub report: RunReport,
    /// Completed operations per process.
    pub completed: Vec<u64>,
    /// The responses each process received, in order.
    pub responses: Vec<Vec<i64>>,
    /// The register operation log.
    pub log: Arc<OpLog>,
}

impl WorkloadOutput {
    /// All responses across processes.
    fn all_responses(&self) -> Vec<i64> {
        self.responses.iter().flatten().copied().collect()
    }

    /// Asserts the counter invariant: every `Inc` response is distinct
    /// (each increment's response is the unique post-increment value).
    ///
    /// # Panics
    ///
    /// Panics if two responses coincide — a linearizability violation.
    pub fn assert_distinct_responses(&self) {
        let mut all = self.all_responses();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            total,
            "duplicate Inc responses: linearizability violated"
        );
    }
}

/// Builds and runs an n-process increment workload on the chosen engine.
pub fn run_counter_workload(cfg: &WorkloadConfig, run: RunConfig) -> WorkloadOutput {
    let factory = Rc::new(RegisterFactory::new(cfg.factory));
    let mut b = SimBuilder::new();
    for p in 0..cfg.n {
        b.add_process(&format!("p{p}"));
    }
    let ops = cfg.ops_per_proc;

    match cfg.engine {
        Engine::Tbwf(kind) | Engine::TbwfNonCanonical(kind) => {
            let canonical = matches!(cfg.engine, Engine::Tbwf(_));
            let omega_handles = install_omega(&mut b, &factory, cfg.n, kind);
            let obj = QaObject::new(Counter, cfg.n, Rc::clone(&factory));
            for p in 0..cfg.n {
                let mut session = obj.session(ProcId(p));
                let omega = omega_handles[p].clone();
                add_worker(&mut b, p, ops, async move |env| {
                    invoke_tbwf(env, &mut session, &omega, CounterOp::Inc, canonical).await
                });
            }
        }
        Engine::PlainOf => {
            let obj = QaObject::new(Counter, cfg.n, Rc::clone(&factory));
            for p in 0..cfg.n {
                let mut session = obj.session(ProcId(p));
                add_worker(&mut b, p, ops, async move |env| {
                    invoke_obstruction_free(env, &mut session, CounterOp::Inc).await
                });
            }
        }
        Engine::FlmsBoost => {
            let obj = QaObject::new(Counter, cfg.n, Rc::clone(&factory));
            let shared = FlmsShared::new(&factory, cfg.n);
            for p in 0..cfg.n {
                let mut session = obj.session(ProcId(p));
                let shared = Rc::clone(&shared);
                add_worker(&mut b, p, ops, async move |env| {
                    invoke_flms(env, &mut session, &shared, CounterOp::Inc).await
                });
            }
        }
        Engine::HerlihyCas => {
            let obj = CasUniversal::new(Counter, cfg.n, Rc::clone(&factory));
            for p in 0..cfg.n {
                let mut session = obj.session(ProcId(p));
                add_worker(&mut b, p, ops, async move |env| {
                    session.apply(env, CounterOp::Inc).await
                });
            }
        }
    }

    let report = b.build().run(run);
    let completed = (0..cfg.n)
        .map(|p| {
            report
                .trace
                .last_value(ProcId(p), OBS_COMPLETED, 0)
                .unwrap_or(0) as u64
        })
        .collect();
    let responses = (0..cfg.n)
        .map(|p| {
            report
                .trace
                .obs_series(ProcId(p), OBS_RESP, 0)
                .into_iter()
                .map(|(_, v)| v)
                .collect()
        })
        .collect();
    WorkloadOutput {
        report,
        completed,
        responses,
        log: factory.log(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;

    #[test]
    fn herlihy_cas_all_complete_under_round_robin() {
        let cfg = WorkloadConfig {
            n: 3,
            engine: Engine::HerlihyCas,
            ops_per_proc: 5,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(40_000, RoundRobin::new()));
        out.report.assert_no_panics();
        assert_eq!(out.completed, vec![5, 5, 5]);
        out.assert_distinct_responses();
        let mut all = out.all_responses();
        all.sort_unstable();
        assert_eq!(all, (1..=15).collect::<Vec<i64>>());
    }

    #[test]
    fn tbwf_atomic_all_timely_everyone_progresses() {
        let cfg = WorkloadConfig {
            n: 3,
            engine: Engine::Tbwf(OmegaKind::Atomic),
            ops_per_proc: u64::MAX,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(200_000, RoundRobin::new()));
        out.report.assert_no_panics();
        out.assert_distinct_responses();
        for p in 0..3 {
            assert!(
                out.completed[p] >= 1,
                "timely p{p} completed no operations: {:?}",
                out.completed
            );
        }
    }

    #[test]
    fn plain_of_solo_process_progresses() {
        let cfg = WorkloadConfig {
            n: 1,
            engine: Engine::PlainOf,
            ops_per_proc: 10,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(10_000, RoundRobin::new()));
        out.report.assert_no_panics();
        assert_eq!(out.completed, vec![10]);
    }
}
