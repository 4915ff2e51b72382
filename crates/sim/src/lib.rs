//! Deterministic partial-synchrony shared-memory simulator.
//!
//! This crate is the substrate for the reproduction of *"Timeliness-Based
//! Wait-Freedom: A Gracefully Degrading Progress Condition"* (Aguilera &
//! Toueg, PODC 2008). It implements the computational model of Section 3 of
//! the paper:
//!
//! * a system of `n ≥ 2` **processes** `Π = {0, …, n−1}`;
//! * each process is composed of one or more **tasks** (the paper composes
//!   several modules — e.g. the main Ω∆ loop plus one activity-monitor loop
//!   per peer — into a single automaton; we model the composition by
//!   rotating the process's steps round-robin across its tasks);
//! * a global, discrete notion of **time**: at most one step per time unit,
//!   steps are instantaneous;
//! * a **schedule** (the adversary) that decides which process takes the
//!   next step, subject to crashes;
//! * a **trace** of every step and every observed local output variable,
//!   from which *timeliness* (Definitions 1 and 2 of the paper) is
//!   *measured*, never assumed.
//!
//! # The step engine
//!
//! Every task is a [`Stepper`]; the scheduler *polls* it by calling
//! [`Stepper::step`] directly, on the thread executing [`Sim::run`].
//! Granting a step is a plain function call — no threads, no locks, no
//! condvar traffic. One `step()` call runs one segment of the task;
//! [`Control::Yield`] ends the segment and counts it as one step of the
//! process. The paper's figures are written as `async fn` loops in the
//! paper's own shape, run by the one adapter [`FutureTask`]: each
//! `.await` of [`step()`] ends a segment, so one `.await` is one step.
//! Register operations straddle two segments through their
//! invoke/complete pair (see `tbwf-registers`, whose `read`/`write`
//! helpers invoke, await [`step()`] and complete), which gives them the
//! invocation and response steps of the paper's model. Every run is a
//! deterministic function of `(program, schedule, seed)`. The [`step`](mod@step)
//! module documents the contract in detail.
//!
//! # Fault injection
//!
//! Beyond the static crash plan of [`RunConfig`], a run can carry a
//! [`Nemesis`]: a deterministic, trace-aware fault injector. Its
//! [`FaultPlan`] crashes processes when a predicate over the trace fires
//! ("crash the current leader", "crash between invoke and complete"),
//! flips registered switches (candidacy churn), turns registered dials
//! (register fault bursts), and perturbs the timely set of a
//! [`NemesisSchedule`] mid-run. The [`nemesis`] module documents the
//! admissible fault model; repro artifacts serialize through [`json`].
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use tbwf_sim::{schedule::RoundRobin, step, Env, FutureTask, RunConfig, SimBuilder};
//!
//! /// Observes `i = 0, 1, …, 9`, one value per step, then finishes.
//! async fn count(env: Rc<dyn Env>) {
//!     for i in 0..10 {
//!         env.observe("i", 0, i);
//!         step().await;
//!     }
//! }
//!
//! let mut b = SimBuilder::new();
//! for p in 0..3 {
//!     let pid = b.add_process(&format!("p{p}"));
//!     b.add_stepper(pid, "main", Box::new(FutureTask::new(count)));
//! }
//! let report = b.build().run(RunConfig::new(1_000, RoundRobin::new()));
//! assert_eq!(report.trace.obs_series(tbwf_sim::ProcId(0), "i", 0).len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod analysis;
mod env;
pub mod executor;
mod ids;
pub mod json;
mod local;
pub mod nemesis;
mod runner;
pub mod schedule;
mod spawner;
pub mod step;
pub mod timeliness;
pub mod trace;

pub use env::{Env, FreeRunEnv};
pub use executor::{resolve_jobs, Executor};
pub use ids::ProcId;
pub use json::Json;
pub use local::{Local, LocalVec};
pub use nemesis::{FaultAction, FaultEvent, FaultPlan, FaultTarget, Nemesis, Trigger};
pub use runner::{ProcReport, RunConfig, RunReport, Sim, SimBuilder, TaskOutcome};
pub use schedule::{
    Decision, DecisionLog, NemesisSchedule, Schedule, ScheduleCtl, ScheduleView, Scripted,
    ScriptedWindow, Tapped,
};
pub use step::{step, Control, FutureTask, StepCtx, Stepper};
pub use trace::{Obs, StepLog, Trace};
