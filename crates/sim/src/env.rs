//! The environment algorithm code runs against: time, identity,
//! observations and crash flags.

use crate::ids::ProcId;
use crate::trace::TraceSink;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared crash flags: one bit per process, set by the runner the moment
/// a crash (from the static plan or a nemesis injection) takes effect.
///
/// Registers consult these through [`Env::is_crashed`]: a crashed
/// process takes no further steps, so its pending operations can no
/// longer interfere with operations invoked after the crash (see
/// `RegCore` in `tbwf-registers`). Out-of-range ids read as not crashed.
#[derive(Debug, Default)]
pub struct CrashFlags {
    bits: Vec<AtomicBool>,
}

impl CrashFlags {
    /// Creates flags for `n` processes, all alive.
    pub fn new(n: usize) -> Self {
        CrashFlags {
            bits: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks `p` as crashed (idempotent).
    pub fn set(&self, p: ProcId) {
        if let Some(b) = self.bits.get(p.0) {
            b.store(true, Ordering::SeqCst);
        }
    }

    /// Whether `p` has crashed.
    pub fn get(&self, p: ProcId) -> bool {
        self.bits.get(p.0).is_some_and(|b| b.load(Ordering::SeqCst))
    }
}

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
pub trait Env: Send + Sync {
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
    /// Simulator environments report the runner's [`CrashFlags`];
    /// environments with no crash model (free-running tests, the native
    /// thread harness) use this default and report every process alive.
    fn is_crashed(&self, _p: ProcId) -> bool {
        false
    }
}

/// A free-running environment for unit tests and micro-benchmarks.
///
/// Time only moves when the caller says so ([`FreeRunEnv::advance`], one
/// step per call); observations are recorded into an internal sink that
/// can be drained with [`FreeRunEnv::take_obs`]. There is no scheduler
/// and no determinism guarantee across threads — use the real simulator
/// for anything that needs the model semantics.
pub struct FreeRunEnv {
    pid: ProcId,
    clock: AtomicU64,
    sink: TraceSink,
}

impl FreeRunEnv {
    /// Creates a free-running environment acting as process `pid`.
    pub fn new(pid: ProcId) -> Self {
        FreeRunEnv {
            pid,
            clock: AtomicU64::new(0),
            sink: TraceSink::new(),
        }
    }

    /// Takes one step: advances the private clock by one. Call it between
    /// a register operation's invocation and its completion to give the
    /// operation the two-step extent it has in a run.
    pub fn advance(&self) {
        self.clock.fetch_add(1, Ordering::SeqCst);
    }

    /// Drains and returns all recorded observations.
    pub fn take_obs(&self) -> Vec<crate::trace::Obs> {
        self.sink.drain()
    }
}

impl Env for FreeRunEnv {
    fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.sink.record(self.now(), self.pid, key, idx, value);
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
