//! The environment algorithm code runs against: time, identity,
//! observations, crash flags and an owned handle to itself.

use crate::ids::ProcId;
use crate::trace::Obs;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// The interface between algorithm code and its runtime.
///
/// All the algorithms of the paper (Figures 2–8) are written against
/// this trait, as `async` bodies run by
/// [`FutureTask`](crate::step::FutureTask), which the deterministic
/// simulator polls once per granted step.
///
/// The trait has no step operation: a *step* in the sense of Section 3 of
/// the paper is one segment of a task, ended by an `.await` of
/// [`step()`](crate::step::step) (or a [`Stepper::step`](crate::Stepper::step)
/// call that returns [`Control::Yield`](crate::Control::Yield)). A
/// register operation spans two steps by invoking at the end of one
/// segment and completing at the start of the next.
///
/// A run lives on one thread, so the trait asks for neither `Send` nor
/// `Sync`: the simulator's envs share the run's state through `Rc` and
/// are confined to the thread executing `Sim::run`.
pub trait Env {
    /// Current global time (number of steps taken by all processes so far).
    fn now(&self) -> u64;

    /// The process this task belongs to.
    fn pid(&self) -> ProcId;

    /// Record an observation of a local output variable into the trace.
    ///
    /// `key` names the variable (e.g. `"leader"`), `idx` disambiguates
    /// vector variables (e.g. `status[q]` uses `idx = q`), and `value` is
    /// the observed value (conventions such as `? == -1` are documented at
    /// the observation sites).
    fn observe(&self, key: &'static str, idx: u32, value: i64);

    /// Whether process `p` has crashed in this run.
    ///
    /// Simulator environments report the run's crash flags, set the
    /// moment a crash (from the static plan or a nemesis injection)
    /// takes effect: a crashed process takes no further steps, so its
    /// pending operations can no longer interfere with operations invoked
    /// after the crash (see `RegCore` in `tbwf-registers`). Environments
    /// with no crash model (free-running tests) use this default and
    /// report every process alive.
    fn is_crashed(&self, _p: ProcId) -> bool {
        false
    }

    /// An owned handle to this environment: it shares the clock, the
    /// observation log and the crash flags, so an `async` task body can
    /// hold it across its steps.
    fn handle(&self) -> Rc<dyn Env>;
}

/// A free-running environment for unit tests and micro-benchmarks.
///
/// Time only moves when the caller says so ([`FreeRunEnv::advance`], one
/// step per call); observations are recorded into an internal log that
/// can be drained with [`FreeRunEnv::take_obs`]. A clone shares the
/// clock and the log. There is no scheduler and, like every simulator
/// env, it stays on the thread that made it — use the real simulator for
/// anything that needs the model semantics.
#[derive(Clone)]
pub struct FreeRunEnv {
    pid: ProcId,
    clock: Rc<Cell<u64>>,
    obs: Rc<RefCell<Vec<Obs>>>,
}

impl FreeRunEnv {
    /// Creates a free-running environment acting as process `pid`.
    pub fn new(pid: ProcId) -> Self {
        FreeRunEnv {
            pid,
            clock: Rc::new(Cell::new(0)),
            obs: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Takes one step: advances the private clock by one. Call it between
    /// a register operation's invocation and its completion to give the
    /// operation the two-step extent it has in a run.
    pub fn advance(&self) {
        self.clock.set(self.clock.get() + 1);
    }

    /// Drains and returns all recorded observations.
    pub fn take_obs(&self) -> Vec<Obs> {
        self.obs.take()
    }

    /// Runs the `async` body `body` solo to completion: polls it, and
    /// takes one step ([`FreeRunEnv::advance`]) each time it awaits one
    /// ([`step`](crate::step::step)). Returns what the body returns.
    pub fn run_solo<F: Future>(&self, body: F) -> F::Output {
        let mut body = pin!(body);
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(out) = body.as_mut().poll(&mut cx) {
                return out;
            }
            self.advance();
        }
    }
}

impl Env for FreeRunEnv {
    fn now(&self) -> u64 {
        self.clock.get()
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.obs.borrow_mut().push(Obs {
            time: self.now(),
            proc: self.pid,
            key,
            idx,
            value,
        });
    }

    fn handle(&self) -> Rc<dyn Env> {
        Rc::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_run_env_advances_and_observes() {
        let env = FreeRunEnv::new(ProcId(3));
        assert_eq!(env.now(), 0);
        env.advance();
        env.advance();
        assert_eq!(env.now(), 2);
        env.observe("x", 1, 42);
        let obs = env.take_obs();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].value, 42);
        assert_eq!(obs[0].proc, ProcId(3));
        assert_eq!(obs[0].idx, 1);
    }

    #[test]
    fn run_solo_takes_one_step_per_await() {
        let env = FreeRunEnv::new(ProcId(0));
        let out = env.run_solo(async {
            crate::step().await;
            crate::step().await;
            7
        });
        assert_eq!((out, env.now()), (7, 2));
    }

    #[test]
    fn handle_shares_clock_and_log() {
        let env = FreeRunEnv::new(ProcId(2));
        let handle = env.handle();
        env.advance();
        assert_eq!(handle.now(), 1);
        assert_eq!(handle.pid(), ProcId(2));
        handle.observe("y", 0, 7);
        env.observe("y", 0, 8);
        let values: Vec<i64> = env.take_obs().iter().map(|o| o.value).collect();
        assert_eq!(values, vec![7, 8]);
    }
}
