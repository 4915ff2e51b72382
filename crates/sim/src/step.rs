//! The step engine's task model: every task is an explicit state
//! machine.
//!
//! A [`Stepper`] *is* the step: the scheduler calls [`Stepper::step`]
//! directly, so granting a step is a plain (devirtualizable) function
//! call. Each paper figure's `repeat forever` loop is written once, as a
//! stepper whose state names the point the loop is parked at between two
//! steps.
//!
//! A segment that returns [`Control::Yield`] is one step of its process.
//! Returning [`Control::Done`] ends the task: that final segment runs
//! but is *not* counted as a step, and the process's next task is tried
//! in the same time slot. A register operation spans two steps, its
//! invocation and its response, by invoking at the end of one segment and
//! completing at the start of the next (see `tbwf-registers`). A run is
//! a deterministic function of `(program, schedule, seed)`.

use crate::env::Env;
use crate::ids::ProcId;
use crate::trace::Obs;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

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

/// A task written as an explicit state machine, driven by the scheduler.
///
/// Each `step` call runs one *segment*: the code between two consecutive
/// steps of the task. Within a segment no other task runs, so
/// process-local state cannot change mid-segment. Register
/// operations must straddle segments via their invoke/complete pair:
/// invoke at the end of one segment, complete at the start of the next —
/// this is what gives operations their two-step (invocation/response)
/// extent in the paper's model.
pub trait Stepper: Send {
    /// Executes one segment. See the trait docs for the contract.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control;
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

/// The runner-internal backing env of a task: its process id and the
/// run's shared [`RunState`].
pub(crate) struct StepEnv {
    pub(crate) pid: ProcId,
    pub(crate) run: Rc<RunState>,
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
}
