//! The step engine's task model: a task is a [`Stepper`], and a paper
//! figure's task is an `async fn` run by the one adapter [`FutureTask`].
//!
//! A [`Stepper`] *is* the step: the scheduler calls [`Stepper::step`]
//! directly, so granting a step is a plain (devirtualizable) function
//! call. Each call runs one *segment* of the task, the code between two
//! consecutive steps of its process.
//!
//! A segment that returns [`Control::Yield`] is one step of its process.
//! Returning [`Control::Done`] ends the task: that final segment runs
//! but is *not* counted as a step, and the process's next task is tried
//! in the same time slot. A run is a deterministic function of
//! `(program, schedule, seed)`.
//!
//! The paper writes each task as a straight-line `repeat forever` loop,
//! and so does the code: the loop is an `async fn` whose every
//! `.await` on [`step`] ends a segment. [`FutureTask`] polls that body
//! once per granted step, so one `.await` of [`step`] is one step of the
//! paper's model. A register operation spans two steps, its invocation
//! and its response: the `tbwf-registers` helpers (`read`, `write`,
//! `try_read`, `try_write`) invoke, await [`step`], then complete.
//! The crate-level example runs one such task.

use crate::env::Env;
use crate::ids::ProcId;
use crate::trace::Obs;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

/// What a [`Stepper`] tells the scheduler after executing one segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// The segment consumed this step; call `step` again when the
    /// process is next scheduled.
    Yield,
    /// The task is finished. The segment that returned `Done` is *not*
    /// counted as a step.
    Done,
}

/// A task driven by the scheduler, one segment per call.
///
/// Each `step` call runs one *segment*: the code between two consecutive
/// steps of the task. Within a segment no other task runs, so
/// process-local state cannot change mid-segment. Register
/// operations must straddle segments via their invoke/complete pair:
/// invoke at the end of one segment, complete at the start of the next —
/// this is what gives operations their two-step (invocation/response)
/// extent in the paper's model.
///
/// A stepper stays on the thread that polls it, so the trait does not
/// ask for `Send`.
pub trait Stepper {
    /// Executes one segment. See the trait docs for the contract.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control;
}

/// Ends the current segment: the task's process takes one step, and the
/// code after the `.await` runs in its next segment.
pub fn step() -> Step {
    Step { taken: false }
}

/// The future returned by [`step`]: pending once, then ready.
#[must_use = "a step is taken only when the future is awaited"]
pub struct Step {
    taken: bool,
}

impl Future for Step {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.taken {
            Poll::Ready(())
        } else {
            self.taken = true;
            Poll::Pending
        }
    }
}

/// The [`Stepper`] that runs a task written as an `async` body.
///
/// `make` builds the body from an owned handle to the task's [`Env`]
/// ([`Env::handle`]) on the first step. Every `step` call then polls the
/// body once: it runs to its next `.await` of [`step`] (one step,
/// [`Control::Yield`]) or to its end ([`Control::Done`]). The body is
/// never woken by anything but the scheduler, so it is polled with a
/// no-op waker and must await nothing but [`step`] and futures built on
/// it. The body's type is `F` itself, not a boxed `dyn Future`.
pub struct FutureTask<M, F> {
    make: Option<M>,
    body: Option<Pin<Box<F>>>,
}

impl<M, F> FutureTask<M, F>
where
    M: FnOnce(Rc<dyn Env>) -> F,
    F: Future<Output = ()>,
{
    /// A task whose body `make` builds on its first step.
    pub fn new(make: M) -> Self {
        FutureTask {
            make: Some(make),
            body: None,
        }
    }
}

impl<M, F> Stepper for FutureTask<M, F>
where
    M: FnOnce(Rc<dyn Env>) -> F,
    F: Future<Output = ()>,
{
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let body = self.body.get_or_insert_with(|| {
            let make = self.make.take().expect("a task body is built once");
            Box::pin(make(ctx.env().handle()))
        });
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Pending => Control::Yield,
            Poll::Ready(()) => Control::Done,
        }
    }
}

/// The environment handed to [`Stepper::step`]: a thin view over the
/// backing [`Env`].
pub struct StepCtx<'a> {
    env: &'a dyn Env,
}

impl<'a> StepCtx<'a> {
    /// Wraps a backing environment for the duration of one (or more)
    /// segments.
    pub fn new(env: &'a dyn Env) -> Self {
        StepCtx { env }
    }

    /// Current global time.
    pub fn now(&self) -> u64 {
        self.env.now()
    }

    /// The process this task belongs to.
    pub fn pid(&self) -> ProcId {
        self.env.pid()
    }

    /// Records an observation (see [`Env::observe`]).
    pub fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.env.observe(key, idx, value);
    }

    /// The backing [`Env`], for register invoke/complete calls (which
    /// accept `&dyn Env`).
    pub fn env(&self) -> &dyn Env {
        self.env
    }
}

/// The state every task of one run shares: the clock, the crash flags
/// and the observation log.
///
/// A run is one totally ordered sequence of steps executed on the thread
/// calling `Sim::run`, so the log is appended in execution order and
/// needs no merging. `Rc` and `Cell` keep the state (and every
/// [`StepEnv`] pointing at it) on that one thread.
pub(crate) struct RunState {
    /// Current global time, set by the runner before each slot.
    pub(crate) now: Cell<u64>,
    /// One flag per process, set the moment its crash takes effect.
    pub(crate) crashed: Vec<Cell<bool>>,
    /// Every observation of the run, in recording order.
    pub(crate) obs: RefCell<Vec<Obs>>,
}

impl RunState {
    /// A fresh state for a run of `n` processes at time 0, all alive.
    pub(crate) fn new(n: usize) -> Rc<Self> {
        Rc::new(RunState {
            now: Cell::new(0),
            crashed: (0..n).map(|_| Cell::new(false)).collect(),
            obs: RefCell::new(Vec::new()),
        })
    }
}

/// The runner-internal backing env of a process's tasks: its process id
/// and the run's shared [`RunState`]. One per process, so the handles its
/// task bodies hold all point at it.
pub(crate) struct StepEnv {
    pid: ProcId,
    run: Rc<RunState>,
    /// This env's own `Rc`, for [`Env::handle`].
    me: Weak<StepEnv>,
}

impl StepEnv {
    pub(crate) fn new(pid: ProcId, run: Rc<RunState>) -> Rc<Self> {
        Rc::new_cyclic(|me| StepEnv {
            pid,
            run,
            me: me.clone(),
        })
    }
}

impl Env for StepEnv {
    fn now(&self) -> u64 {
        self.run.now.get()
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.run.obs.borrow_mut().push(Obs {
            time: self.now(),
            proc: self.pid,
            key,
            idx,
            value,
        });
    }

    /// Out-of-range ids read as not crashed.
    fn is_crashed(&self, p: ProcId) -> bool {
        self.run.crashed.get(p.0).is_some_and(Cell::get)
    }

    fn handle(&self) -> Rc<dyn Env> {
        self.me
            .upgrade()
            .expect("the simulator owns every process env")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FreeRunEnv;

    #[test]
    fn ctx_forwards_now_pid_observe() {
        let env = FreeRunEnv::new(ProcId(4));
        env.advance();
        let ctx = StepCtx::new(&env);
        assert_eq!(ctx.now(), 1);
        assert_eq!(ctx.pid(), ProcId(4));
        ctx.observe("k", 2, 9);
        let obs = env.take_obs();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].idx, 2);
    }

    /// Observes `("seg", i)` at the start of segment `i`, awaiting `k`
    /// steps; the last segment observes `("seg", k)` and returns.
    async fn k_steps(env: Rc<dyn Env>, k: i64) {
        for i in 0..k {
            env.observe("seg", 0, i);
            step().await;
        }
        env.observe("seg", 0, k);
    }

    #[test]
    fn future_task_yields_k_times_then_is_done() {
        let env = FreeRunEnv::new(ProcId(0));
        let mut task = FutureTask::new(|env| k_steps(env, 3));
        let controls: Vec<Control> = (0..4).map(|_| task.step(&mut StepCtx::new(&env))).collect();
        use Control::{Done, Yield};
        assert_eq!(controls, vec![Yield, Yield, Yield, Done]);
        let segs: Vec<i64> = env.take_obs().iter().map(|o| o.value).collect();
        assert_eq!(segs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn done_segment_is_not_a_step_and_keeps_its_observations_in_order() {
        use crate::schedule::RoundRobin;
        use crate::{RunConfig, SimBuilder};
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(
            p0,
            "three",
            Box::new(FutureTask::new(|env| k_steps(env, 3))),
        );
        b.add_stepper(p0, "one", Box::new(FutureTask::new(|env| k_steps(env, 1))));
        let p1 = b.add_process("p1");
        b.add_stepper(p1, "two", Box::new(FutureTask::new(|env| k_steps(env, 2))));
        let report = b.build().run(RunConfig::new(100, RoundRobin::new()));
        report.assert_no_panics();
        // Only the yielding segments are steps: 3 + 1 at p0, 2 at p1.
        assert_eq!(report.trace.len(), 6);
        assert_eq!(report.trace.steps.iter().filter(|&p| p == p0).count(), 4);
        let series = |p: usize| -> Vec<i64> {
            report
                .trace
                .obs_series(ProcId(p), "seg", 0)
                .into_iter()
                .map(|(_, v)| v)
                .collect()
        };
        // p0's tasks alternate; each task's final (`Done`) segment
        // observes after all of its earlier segments.
        assert_eq!(series(0), vec![0, 0, 1, 1, 2, 3]);
        assert_eq!(series(1), vec![0, 1, 2]);
        let times: Vec<u64> = report.trace.obs.iter().map(|o| o.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}
