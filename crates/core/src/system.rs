//! The system runner: an n-process simulated system running increment
//! or scripted workloads on any progress engine — the paper's TBWF stack
//! (Ω∆ + query-abortable object + Figure 7 workers) or one of the
//! baselines it is compared against.
//!
//! Two entry points share one runner: [`TbwfSystemBuilder`] runs any
//! object type on the TBWF engine, and [`run_counter_workload`] runs the
//! increment workload of the E4/E5/E7 experiments on any [`Engine`].

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use tbwf_omega::harness::install_omega;
use tbwf_omega::OmegaKind;
use tbwf_registers::{AbortPolicy, EffectPolicy, OpLog, RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::{Env, ProcId, RunConfig, RunReport, SimBuilder};
use tbwf_universal::baselines::{invoke_flms, invoke_obstruction_free, CasUniversal, FlmsShared};
use tbwf_universal::object::{Counter, CounterOp};
use tbwf_universal::qa::QaObject;
use tbwf_universal::tbwf::invoke_tbwf;
use tbwf_universal::ObjectType;

/// Observation key: number of completed operations of a worker.
pub const OBS_COMPLETED: &str = "completed";

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

/// The outcome of a [`TbwfSystemBuilder::run`] or a
/// [`run_counter_workload`].
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

/// The worker of process `p` on every engine: one `invoke` per workload
/// entry, each result pushed into `sink` as it completes. The next
/// operation starts in the step that completed the previous one.
async fn worker<T: ObjectType>(
    env: Rc<dyn Env>,
    p: usize,
    workload: Workload<T>,
    sink: ResultSink<T>,
    mut invoke: impl AsyncFnMut(&dyn Env, T::Op) -> T::Resp,
) {
    let env = &*env;
    env.observe(OBS_COMPLETED, 0, 0);
    let mut i = 0;
    while let Some(op) = workload.op_at(i) {
        let invoked = env.now();
        let resp = invoke(env, op.clone()).await;
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

/// Spawns a [`worker`] for every process whose workload is not
/// [`Workload::Idle`]; `invocation(p)` is process `p`'s operation on the
/// engine.
fn spawn_workers<T: ObjectType, F>(
    b: &mut SimBuilder,
    workloads: Vec<Workload<T>>,
    sink: &ResultSink<T>,
    mut invocation: impl FnMut(ProcId) -> F,
) where
    F: AsyncFnMut(&dyn Env, T::Op) -> T::Resp + 'static,
{
    for (p, workload) in workloads.into_iter().enumerate() {
        if matches!(workload, Workload::Idle) {
            continue;
        }
        let invoke = invocation(ProcId(p));
        let sink = Rc::clone(sink);
        b.spawn_task(ProcId(p), "worker", move |env| {
            worker(env, p, workload, sink, invoke)
        });
    }
}

/// Names one process per workload, installs `engine` over registers from
/// `factory`, spawns the workers and executes the run.
fn run_engine<T: ObjectType>(
    ty: T,
    engine: Engine,
    factory: Rc<RegisterFactory>,
    workloads: Vec<Workload<T>>,
    run: RunConfig,
) -> TbwfRun<T> {
    let n = workloads.len();
    let mut b = SimBuilder::new();
    for p in 0..n {
        b.add_process(&format!("p{p}"));
    }
    let sink: ResultSink<T> = Rc::new(RefCell::new((0..n).map(|_| Vec::new()).collect()));
    match engine {
        Engine::Tbwf(kind) | Engine::TbwfNonCanonical(kind) => {
            let canonical = matches!(engine, Engine::Tbwf(_));
            let omega = install_omega(&mut b, &factory, n, kind);
            let obj = QaObject::new(ty, n, Rc::clone(&factory));
            spawn_workers(&mut b, workloads, &sink, |p| {
                let mut session = obj.session(p);
                let omega = omega[p.0].clone();
                async move |env: &dyn Env, op| {
                    invoke_tbwf(env, &mut session, &omega, op, canonical).await
                }
            });
        }
        Engine::PlainOf => {
            let obj = QaObject::new(ty, n, Rc::clone(&factory));
            spawn_workers(&mut b, workloads, &sink, |p| {
                let mut session = obj.session(p);
                async move |env: &dyn Env, op| invoke_obstruction_free(env, &mut session, op).await
            });
        }
        Engine::FlmsBoost => {
            let obj = QaObject::new(ty, n, Rc::clone(&factory));
            let shared = FlmsShared::new(&factory, n);
            spawn_workers(&mut b, workloads, &sink, |p| {
                let mut session = obj.session(p);
                let shared = Rc::clone(&shared);
                async move |env: &dyn Env, op| invoke_flms(env, &mut session, &shared, op).await
            });
        }
        Engine::HerlihyCas => {
            let obj = CasUniversal::new(ty, n, Rc::clone(&factory));
            spawn_workers(&mut b, workloads, &sink, |p| {
                let mut session = obj.session(p);
                async move |env: &dyn Env, op| session.apply(env, op).await
            });
        }
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

/// Builds and runs an n-process increment workload on the chosen engine:
/// every process performs `cfg.ops_per_proc` increments.
pub fn run_counter_workload(cfg: &WorkloadConfig, run: RunConfig) -> TbwfRun<Counter> {
    let workloads = (0..cfg.n)
        .map(|_| Workload::Repeat(CounterOp::Inc, cfg.ops_per_proc))
        .collect();
    let factory = Rc::new(RegisterFactory::new(cfg.factory));
    run_engine(Counter, cfg.engine, factory, workloads, run)
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
        run_engine(
            self.ty,
            Engine::Tbwf(self.omega),
            factory,
            self.workloads,
            run,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearize::counter_history_violations;
    use crate::types::{Stack, StackOp, StackResp};
    use tbwf_sim::schedule::{RoundRobin, SeededRandom};

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
        let violations = counter_history_violations(&out);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn tbwf_atomic_all_timely_everyone_progresses() {
        let cfg = WorkloadConfig {
            n: 3,
            engine: Engine::Tbwf(OmegaKind::Atomic),
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(200_000, RoundRobin::new()));
        out.report.assert_no_panics();
        let violations = counter_history_violations(&out);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            out.completed.iter().all(|&c| c >= 1),
            "a timely process completed no operations: {:?}",
            out.completed
        );
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

    /// The builder and the counter workload on the TBWF engine are one
    /// path: the same inputs give the same run.
    #[test]
    fn builder_and_counter_workload_run_the_same_system() {
        for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
            let (n, seed, ops) = (3, 5, 4);
            let schedule = || RunConfig::new(60_000, SeededRandom::new(9));
            let built = TbwfSystemBuilder::new(Counter)
                .processes(n)
                .omega(kind)
                .seed(seed)
                .workload_all(Workload::Repeat(CounterOp::Inc, ops))
                .run(schedule());
            let cfg = WorkloadConfig {
                n,
                engine: Engine::Tbwf(kind),
                factory: RegisterFactoryConfig {
                    seed,
                    ..Default::default()
                },
                ops_per_proc: ops,
            };
            let counted = run_counter_workload(&cfg, schedule());
            let (a, b) = (&built.report.trace, &counted.report.trace);
            assert!(a.steps == b.steps, "{kind:?}: step sequences differ");
            assert_eq!(a.obs, b.obs, "{kind:?}: observations differ");
            let ops_of = |run: &TbwfRun<Counter>| -> Vec<Vec<(u64, u64, i64)>> {
                run.results
                    .iter()
                    .map(|rs| rs.iter().map(|r| (r.invoked, r.time, r.resp)).collect())
                    .collect()
            };
            assert_eq!(ops_of(&built), ops_of(&counted), "{kind:?}: results differ");
            assert_eq!(built.completed, counted.completed);
            assert_eq!(built.completed, vec![ops; n], "{kind:?}");
        }
    }

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
