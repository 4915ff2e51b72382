//! The high-level system builder: any object type, any schedule, full
//! TBWF stack (Ω∆ + query-abortable object + Figure 7 workers).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use tbwf_omega::harness::install_omega;
use tbwf_omega::{OmegaHandles, OmegaKind};
use tbwf_registers::{AbortPolicy, EffectPolicy, OpLog, RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::{Env, ProcId, RunConfig, RunReport, SimBuilder};
use tbwf_universal::qa::{QaObject, QaSession};
use tbwf_universal::tbwf::invoke_tbwf;
use tbwf_universal::ObjectType;

pub use tbwf_universal::harness::OBS_COMPLETED;

/// The operation script of one process.
pub enum Workload<T: ObjectType> {
    /// Perform exactly these operations, in order, then stop.
    Script(Vec<T::Op>),
    /// Perform the operation `count` times, then stop.
    Repeat(T::Op, u64),
    /// Perform the operation over and over until the run ends.
    Unlimited(T::Op),
    /// Participate in the system (run Ω∆ etc.) but perform no operations.
    Idle,
}

impl<T: ObjectType> Clone for Workload<T> {
    fn clone(&self) -> Self {
        match self {
            Workload::Script(ops) => Workload::Script(ops.clone()),
            Workload::Repeat(op, k) => Workload::Repeat(op.clone(), *k),
            Workload::Unlimited(op) => Workload::Unlimited(op.clone()),
            Workload::Idle => Workload::Idle,
        }
    }
}

impl<T: ObjectType> Workload<T> {
    fn op_at(&self, i: u64) -> Option<T::Op> {
        match self {
            Workload::Script(ops) => ops.get(i as usize).cloned(),
            Workload::Repeat(op, k) => (i < *k).then(|| op.clone()),
            Workload::Unlimited(op) => Some(op.clone()),
            Workload::Idle => None,
        }
    }
}

/// One completed operation: its real-time interval, what it was, what it
/// got.
#[derive(Debug)]
pub struct OpResult<T: ObjectType> {
    /// Global time at which the operation was invoked.
    pub invoked: u64,
    /// Global time at which the operation completed.
    pub time: u64,
    /// The operation.
    pub op: T::Op,
    /// Its response.
    pub resp: T::Resp,
}

impl<T: ObjectType> Clone for OpResult<T> {
    fn clone(&self) -> Self {
        OpResult {
            invoked: self.invoked,
            time: self.time,
            op: self.op.clone(),
            resp: self.resp.clone(),
        }
    }
}

/// The outcome of a [`TbwfSystemBuilder::run`].
pub struct TbwfRun<T: ObjectType> {
    /// The simulation report (trace, crashes, task outcomes).
    pub report: RunReport,
    /// Per-process completed operations, in completion order.
    pub results: Vec<Vec<OpResult<T>>>,
    /// Per-process completed-operation counts.
    pub completed: Vec<u64>,
    /// The shared-register operation log.
    pub log: Arc<OpLog>,
}

#[cfg(test)]
impl<T: ObjectType> TbwfRun<T> {
    /// All results across processes, sorted by completion time.
    fn merged_results(&self) -> Vec<(ProcId, OpResult<T>)> {
        let mut all: Vec<(ProcId, OpResult<T>)> = self
            .results
            .iter()
            .enumerate()
            .flat_map(|(p, rs)| rs.iter().cloned().map(move |r| (ProcId(p), r)))
            .collect();
        all.sort_by_key(|(_, r)| r.time);
        all
    }
}

/// Per-process completed operations, shared by the workers of a run.
type ResultSink<T> = Rc<RefCell<Vec<Vec<OpResult<T>>>>>;

/// The scripted Figure 7 worker of process `p`: one [`invoke_tbwf`] per
/// workload entry, each result pushed into `sink` as it completes. The
/// next operation starts in the step that completed the previous one.
async fn worker<T: ObjectType>(
    env: Rc<dyn Env>,
    p: usize,
    workload: Workload<T>,
    mut session: QaSession<T>,
    omega: OmegaHandles,
    sink: ResultSink<T>,
) {
    let env = &*env;
    env.observe(OBS_COMPLETED, 0, 0);
    let mut i = 0;
    while let Some(op) = workload.op_at(i) {
        let invoked = env.now();
        let resp = invoke_tbwf(env, &mut session, &omega, op.clone(), true).await;
        i += 1;
        sink.borrow_mut()[p].push(OpResult {
            invoked,
            time: env.now(),
            op,
            resp,
        });
        env.observe(OBS_COMPLETED, 0, i as i64);
    }
}

/// Builder for a complete TBWF system over an arbitrary object type.
///
/// See the crate-level example. Defaults: 2 processes, atomic-register
/// Ω∆, default register policies, idle workloads.
pub struct TbwfSystemBuilder<T: ObjectType> {
    ty: T,
    n: usize,
    omega: OmegaKind,
    factory: RegisterFactoryConfig,
    workloads: Vec<Workload<T>>,
}

impl<T: ObjectType> TbwfSystemBuilder<T> {
    /// Starts a builder for the given object type instance.
    pub fn new(ty: T) -> Self {
        TbwfSystemBuilder {
            ty,
            n: 2,
            omega: OmegaKind::Atomic,
            factory: RegisterFactoryConfig::default(),
            workloads: vec![Workload::Idle, Workload::Idle],
        }
    }

    /// Sets the number of processes (resets workloads to idle).
    #[must_use]
    pub fn processes(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one process");
        self.n = n;
        self.workloads = (0..n).map(|_| Workload::Idle).collect();
        self
    }

    /// Selects the Ω∆ implementation (atomic or abortable registers).
    #[must_use]
    pub fn omega(mut self, kind: OmegaKind) -> Self {
        self.omega = kind;
        self
    }

    /// Sets the register-backend seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.factory.seed = seed;
        self
    }

    /// Sets the abortable-register adversary policies.
    #[must_use]
    pub fn register_policy(mut self, abort: AbortPolicy, effect: EffectPolicy) -> Self {
        self.factory.abort_policy = abort;
        self.factory.effect_policy = effect;
        self
    }

    /// Sets the workload of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ n`; call [`TbwfSystemBuilder::processes`] first.
    #[must_use]
    pub fn workload(mut self, p: usize, w: Workload<T>) -> Self {
        assert!(
            p < self.n,
            "workload({p}, …) but the system has {} processes; call processes() first",
            self.n
        );
        self.workloads[p] = w;
        self
    }

    /// Sets the same workload for every process.
    #[must_use]
    pub fn workload_all(mut self, w: Workload<T>) -> Self {
        self.workloads = (0..self.n).map(|_| w.clone()).collect();
        self
    }

    /// Builds the system and executes the run.
    pub fn run(self, run: RunConfig) -> TbwfRun<T> {
        self.run_wired(run, |_, run| run)
    }

    /// Like [`TbwfSystemBuilder::run`], but first passes the register
    /// factory and the run configuration to `wire`, and runs the
    /// configuration `wire` returns (typically
    /// `|factory, run| run.with_nemesis(..)`).
    ///
    /// This is the fault-injection hook: the factory is created
    /// internally by the builder, so a nemesis that wants to register
    /// the factory's policy dial or in-flight gauges (see
    /// [`tbwf_registers::RegisterFactory::policy_dial`] and
    /// [`tbwf_registers::RegisterFactory::inflight_gauge`]) has no other
    /// way to reach them.
    pub fn run_wired(
        self,
        run: RunConfig,
        wire: impl FnOnce(&RegisterFactory, RunConfig) -> RunConfig,
    ) -> TbwfRun<T> {
        let factory = Rc::new(RegisterFactory::new(self.factory));
        let run = wire(&factory, run);
        let mut b = SimBuilder::new();
        for p in 0..self.n {
            b.add_process(&format!("p{p}"));
        }
        let omega_handles = install_omega(&mut b, &factory, self.n, self.omega);
        let obj = QaObject::new(self.ty, self.n, Rc::clone(&factory));
        let sink: ResultSink<T> = Rc::new(RefCell::new((0..self.n).map(|_| Vec::new()).collect()));
        for (p, workload) in self.workloads.into_iter().enumerate() {
            if matches!(workload, Workload::Idle) {
                continue;
            }
            let session = obj.session(ProcId(p));
            let omega = omega_handles[p].clone();
            let sink = Rc::clone(&sink);
            b.spawn_task(ProcId(p), "worker", move |env| {
                worker(env, p, workload, session, omega, sink)
            });
        }
        let report = b.build().run(run);
        let results = sink.take();
        let completed = results.iter().map(|r| r.len() as u64).collect();
        TbwfRun {
            report,
            results,
            completed,
            log: factory.log(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Stack, StackOp, StackResp};
    use tbwf_sim::schedule::RoundRobin;

    #[test]
    fn stack_pushes_and_pops_linearize() {
        let run = TbwfSystemBuilder::new(Stack)
            .processes(2)
            .seed(7)
            .workload(
                0,
                Workload::Script(vec![StackOp::Push(10), StackOp::Push(20)]),
            )
            .workload(1, Workload::Script(vec![StackOp::Push(30)]))
            .run(RunConfig::new(120_000, RoundRobin::new()));
        run.report.assert_no_panics();
        assert_eq!(run.completed, vec![2, 1]);
        for r in run.results.iter().flatten() {
            assert_eq!(r.resp, StackResp::Pushed);
        }
    }

    #[test]
    fn idle_processes_do_nothing_but_participate() {
        let run = TbwfSystemBuilder::new(Stack)
            .processes(3)
            .workload(0, Workload::Repeat(StackOp::Push(1), 2))
            .run(RunConfig::new(80_000, RoundRobin::new()));
        run.report.assert_no_panics();
        assert_eq!(run.completed, vec![2, 0, 0]);
    }

    #[test]
    fn workload_op_at_semantics() {
        let script: Workload<Stack> = Workload::Script(vec![StackOp::Push(1), StackOp::Pop]);
        assert_eq!(script.op_at(0), Some(StackOp::Push(1)));
        assert_eq!(script.op_at(1), Some(StackOp::Pop));
        assert_eq!(script.op_at(2), None);

        let repeat: Workload<Stack> = Workload::Repeat(StackOp::Pop, 2);
        assert_eq!(repeat.op_at(1), Some(StackOp::Pop));
        assert_eq!(repeat.op_at(2), None);

        let unlimited: Workload<Stack> = Workload::Unlimited(StackOp::Pop);
        assert_eq!(unlimited.op_at(1_000_000), Some(StackOp::Pop));

        let idle: Workload<Stack> = Workload::Idle;
        assert_eq!(idle.op_at(0), None);
    }

    #[test]
    #[should_panic(expected = "call processes() first")]
    fn workload_index_out_of_range_names_the_fix() {
        let _ = TbwfSystemBuilder::new(Stack)
            .processes(2)
            .workload(5, Workload::Idle);
    }

    #[test]
    fn op_results_carry_intervals() {
        let run = TbwfSystemBuilder::new(Stack)
            .processes(2)
            .workload(0, Workload::Repeat(StackOp::Push(1), 2))
            .run(RunConfig::new(100_000, RoundRobin::new()));
        run.report.assert_no_panics();
        for r in run.results.iter().flatten() {
            assert!(
                r.invoked <= r.time,
                "interval inverted: {} > {}",
                r.invoked,
                r.time
            );
        }
        // Per-process results are in completion order.
        for rs in &run.results {
            for w in rs.windows(2) {
                assert!(w[0].time <= w[1].time);
            }
        }
    }

    #[test]
    fn merged_results_are_time_sorted() {
        let run = TbwfSystemBuilder::new(Stack)
            .processes(2)
            .workload_all(Workload::Repeat(StackOp::Push(1), 2))
            .run(RunConfig::new(150_000, RoundRobin::new()));
        run.report.assert_no_panics();
        let merged = run.merged_results();
        for w in merged.windows(2) {
            assert!(w[0].1.time <= w[1].1.time);
        }
        assert_eq!(merged.len() as u64, run.completed.iter().sum::<u64>());
    }
}
