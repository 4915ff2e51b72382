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

use crate::env::{CrashFlags, Env};
use crate::ids::ProcId;
use crate::trace::ObsBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The runner-internal backing env of a task: shares the run's clock
/// and writes observations into the task's buffer.
pub(crate) struct StepEnv {
    pub(crate) pid: ProcId,
    pub(crate) clock: Arc<AtomicU64>,
    pub(crate) obs: ObsBuf,
    pub(crate) crashed: Arc<CrashFlags>,
}

impl Env for StepEnv {
    fn now(&self) -> u64 {
        // Relaxed: the runner stores the clock on this same thread just
        // before polling the stepper; there is no cross-thread read.
        self.clock.load(Ordering::Relaxed)
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.obs.record(self.now(), self.pid, key, idx, value);
    }

    fn is_crashed(&self, p: ProcId) -> bool {
        self.crashed.get(p)
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
