//! A schedule wrapper that stamps host time at two simulated steps.
//!
//! The simulator runs set-up, the step loop and the caller's oracles in
//! one call for most systems, so the benchmark splits a run at its
//! first step (end of set-up) and its last step (end of `Sim::run`)
//! from the outside: the wrapper sees every scheduling decision and
//! reads the clock only at those two.

use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tbwf_sim::{ProcId, Schedule, ScheduleView};

/// Host instants of a run's first and last simulated step.
#[derive(Clone, Debug, Default)]
pub struct Stamps {
    first: Arc<OnceLock<Instant>>,
    last: Arc<OnceLock<Instant>>,
}

impl Stamps {
    /// Host time of the first simulated step, if the run took one.
    pub fn first(&self) -> Option<Instant> {
        self.first.get().copied()
    }

    /// Host time of the step at the stamped horizon, if the run got there.
    pub fn last(&self) -> Option<Instant> {
        self.last.get().copied()
    }
}

/// Delegates to `inner`, stamping the first step and the step at time
/// `horizon − 1`.
pub struct Stamped<S> {
    inner: S,
    last_time: u64,
    started: bool,
    stamps: Stamps,
}

impl<S> Stamped<S> {
    /// Wraps `inner` for a run of `horizon` steps; the stamps are shared
    /// with `stamps`.
    pub fn new(inner: S, horizon: u64, stamps: &Stamps) -> Self {
        Stamped {
            inner,
            last_time: horizon.saturating_sub(1),
            started: false,
            stamps: stamps.clone(),
        }
    }
}

impl<S: Schedule> Schedule for Stamped<S> {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        if !self.started {
            self.started = true;
            let _ = self.stamps.first.set(Instant::now());
        }
        if view.time == self.last_time {
            let _ = self.stamps.last.set(Instant::now());
        }
        self.inner.next(view)
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        self.inner.intended_timely(n)
    }
}
