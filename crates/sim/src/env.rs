//! The environment algorithm code runs against: time, identity,
//! observations and crash flags.

use crate::ids::ProcId;
use crate::trace::Obs;
use std::cell::{Cell, RefCell};

/// The interface between algorithm code and its runtime.
///
/// All the algorithms of the paper (Figures 2–7) are written as
/// [`Stepper`](crate::Stepper)s against this trait, so the same code runs
/// on the deterministic simulator (which polls each stepper once per
/// granted step) and on real threads (the `native` module of the `tbwf`
/// crate, which polls each stepper in a loop of its own).
///
/// The trait has no step operation: a *step* in the sense of Section 3 of
/// the paper is one [`Stepper::step`](crate::Stepper::step) call that
/// returns [`Control::Yield`](crate::Control::Yield). A register
/// operation spans two steps by invoking at the end of one segment and
/// completing at the start of the next.
///
/// An env belongs to the thread polling its task: the trait asks for
/// neither `Send` nor `Sync`. The simulator's envs share the run's state
/// through `Rc` and are confined to the thread executing `Sim::run`; the
/// native harness moves each env onto its task's thread.
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
    /// with no crash model (free-running tests, the native thread
    /// harness) use this default and report every process alive.
    fn is_crashed(&self, _p: ProcId) -> bool {
        false
    }
}

/// A free-running environment for unit tests and micro-benchmarks.
///
/// Time only moves when the caller says so ([`FreeRunEnv::advance`], one
/// step per call); observations are recorded into an internal log that
/// can be drained with [`FreeRunEnv::take_obs`]. There is no scheduler
/// and, like every simulator env, it stays on the thread that made it —
/// use the real simulator for anything that needs the model semantics.
pub struct FreeRunEnv {
    pid: ProcId,
    clock: Cell<u64>,
    obs: RefCell<Vec<Obs>>,
}

impl FreeRunEnv {
    /// Creates a free-running environment acting as process `pid`.
    pub fn new(pid: ProcId) -> Self {
        FreeRunEnv {
            pid,
            clock: Cell::new(0),
            obs: RefCell::new(Vec::new()),
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
}
