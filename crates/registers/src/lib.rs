//! Shared registers for the TBWF reproduction: atomic and **abortable**
//! registers (plus the compare-and-swap register of the strong-primitive
//! baseline).
//!
//! # Model
//!
//! In the paper's model (Section 3 and \[2\]) a register operation spans an
//! *invocation* step and a *response* step; two operations are
//! **concurrent** iff their invoke–response intervals overlap. The
//! simulated registers here implement exactly that:
//!
//! * an operation is split into an `invoke_*` call, made at the end of
//!   one step of the caller, and a `complete_*` call, made at the start
//!   of the caller's *next* step (arbitrarily far in global time), where
//!   it resolves. An `async` task body performs the whole operation with
//!   one helper — `read`/`write` on an atomic register,
//!   `try_read`/`try_write` on an abortable one — which invokes, awaits
//!   [`tbwf_sim::step()`], and completes;
//! * an **atomic** register linearizes at the response and never aborts;
//! * an **abortable** register *may abort* any operation that overlaps
//!   another operation on the same register: an aborted read returns no
//!   value, an aborted write returns `⊥` and *may or may not take effect*
//!   (the writer cannot tell) — the semantics of \[2\] as summarized in
//!   Section 1.2 of the paper. Operations that overlap nothing **never**
//!   abort, which is what makes solo execution (and hence
//!   obstruction-freedom) possible.
//!
//! Abort and effect decisions are driven by a seeded [`AbortPolicy`] /
//! [`EffectPolicy`] so every adversary is reproducible; the default policy
//! (`AlwaysOnOverlap`) is the strongest admissible adversary.
//!
//! A run lives on one thread, so a register keeps its state in a
//! `RefCell` and is shared through an `Rc` ([`SharedAtomic`],
//! [`SharedAbortable`], [`SharedCas`]): an operation pays no lock and no
//! atomic read-modify-write, and a handle cannot leave the run's thread.
//!
//! All registers are created through a [`RegisterFactory`], which gives
//! each register its own seed and one context shared by all of the
//! factory's registers: the base policies, the [`PolicyDial`], the
//! per-process in-flight gauges and the [`OpLog`] that every completed
//! operation is folded into. A register keeps no name and no gauge
//! handles of its own, and it stores its first in-flight operation
//! inline, so a register that never sees two operations overlap holds
//! no heap beyond its own allocation. The log keeps
//! counts and each process's latest write time, not a per-operation
//! history, so its size does not grow with the run: the abort-rate
//! ablation (E8) reads the counts, the write-efficiency experiment (E6)
//! the writers after a given time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cas;
mod core_reg;
mod factory;
mod outcome;
mod policy;
pub mod stats;

pub use cas::{CasRegister, SharedCas};
pub use factory::{RegisterFactory, RegisterFactoryConfig};
pub use outcome::{ReadOutcome, WriteOutcome};
pub use policy::{
    AbortPolicy, EffectPolicy, PolicyDial, DIAL_ABORT_NO_EFFECT, DIAL_ABORT_STORM, DIAL_BASE,
    DIAL_CALM,
};
pub use stats::{OpEvent, OpKind, OpLog};

use std::rc::Rc;
use tbwf_sim::{step, Env};

/// Opaque handle to one register operation between its invocation and its
/// response step.
///
/// Returned by the `invoke_*` methods; passed to the matching `complete_*`
/// method exactly once, on a *later* step of the same task (invoke at the
/// end of one segment, complete at the start of the next). Completing a
/// token twice, or a token from a different register, panics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpToken(u64);

impl OpToken {
    /// Wraps a raw operation id (for register implementors).
    pub fn new(raw: u64) -> Self {
        OpToken(raw)
    }

    /// The raw operation id (for register implementors).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A multi-writer multi-reader atomic register.
///
/// Operations never abort; each costs two steps (invoke + response). A
/// write value is captured at invocation.
pub trait AtomicRegister<T: Clone> {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken;

    /// Response step of a write; linearization point.
    fn complete_write(&self, env: &dyn Env, tok: OpToken);

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; returns the value read.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T;
}

/// The paper's `READ` and `WRITE` of an atomic register, for `async` task
/// bodies: each invokes the operation, takes one step, and completes it,
/// so it spans exactly the invocation and the response step.
impl<T: Clone> dyn AtomicRegister<T> + '_ {
    /// `READ`: returns the value read.
    pub async fn read(&self, env: &dyn Env) -> T {
        let tok = self.invoke_read(env);
        step().await;
        self.complete_read(env, tok)
    }

    /// `WRITE` of `v`.
    pub async fn write(&self, env: &dyn Env, v: T) {
        let tok = self.invoke_write(env, v);
        step().await;
        self.complete_write(env, tok);
    }
}

/// An abortable register (\[2\]; Section 1.2 of the paper).
///
/// Operations that are concurrent with other operations on the same
/// register **may** return `⊥` ([`WriteOutcome::Aborted`] /
/// [`ReadOutcome::Aborted`]); an aborted write may or may not have taken
/// effect. An operation concurrent with nothing never aborts.
pub trait AbortableRegister<T: Clone> {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken;

    /// Response step of a write; reports whether it aborted.
    fn complete_write(&self, env: &dyn Env, tok: OpToken) -> WriteOutcome;

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; aborted reads return no value.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> ReadOutcome<T>;
}

/// The paper's `READ` and `WRITE` of an abortable register, for `async`
/// task bodies: each invokes the operation, takes one step, and
/// completes it, so it spans exactly the invocation and the response
/// step; either may return `⊥`.
impl<T: Clone> dyn AbortableRegister<T> + '_ {
    /// `READ`: the value read, or `⊥` if the read aborted.
    pub async fn try_read(&self, env: &dyn Env) -> ReadOutcome<T> {
        let tok = self.invoke_read(env);
        step().await;
        self.complete_read(env, tok)
    }

    /// `WRITE` of `v`: `ok`, or `⊥` if the write aborted.
    pub async fn try_write(&self, env: &dyn Env, v: T) -> WriteOutcome {
        let tok = self.invoke_write(env, v);
        step().await;
        self.complete_write(env, tok)
    }
}

/// Shorthand for a shared atomic register handle.
///
/// The handle is an `Rc`: the registers of a run live on the thread that
/// runs it, so the hot path takes no lock. Handing one to another thread
/// does not compile:
///
/// ```compile_fail,E0277
/// use tbwf_registers::RegisterFactory;
///
/// let reg = RegisterFactory::default().atomic("R", 0u64);
/// std::thread::spawn(move || drop(reg));
/// ```
pub type SharedAtomic<T> = Rc<dyn AtomicRegister<T>>;
/// Shorthand for a shared abortable register handle.
pub type SharedAbortable<T> = Rc<dyn AbortableRegister<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{
        Control, FaultAction, FaultPlan, FaultTarget, FreeRunEnv, FutureTask, Nemesis, ProcId,
        RunConfig, SimBuilder, StepCtx, Stepper, Trigger,
    };

    /// Runs `body` as a task of p0, one segment per step, and returns
    /// what each segment told the scheduler with p0's in-flight gauge
    /// after it.
    fn segments<F: Future<Output = ()>>(
        factory: &RegisterFactory,
        body: impl FnOnce(Rc<dyn Env>) -> F,
    ) -> Vec<(Control, i64)> {
        let (env, gauge) = (
            FreeRunEnv::new(ProcId(0)),
            factory.inflight_gauge(ProcId(0)),
        );
        let mut task = FutureTask::new(body);
        let mut out = Vec::new();
        while out.last().is_none_or(|&(c, _)| c == Control::Yield) {
            out.push((task.step(&mut StepCtx::new(&env)), gauge.get()));
            env.advance();
        }
        out
    }

    #[test]
    fn each_helper_spans_an_invocation_and_a_response_step() {
        let factory = RegisterFactory::default();
        let (a, b) = (&factory.atomic("A", 0i64), &factory.abortable("B", 0i64));
        // Invoked in the first segment, in flight across the step, and
        // completed in the second (here the task's last) segment.
        let want = vec![(Control::Yield, 1), (Control::Done, 0)];
        let got = [
            segments(&factory, |env| async move { a.write(&*env, 7).await }),
            segments(
                &factory,
                |env| async move { assert_eq!(a.read(&*env).await, 7) },
            ),
            segments(&factory, |env| async move {
                assert!(b.try_write(&*env, 7).await.is_ok())
            }),
            segments(&factory, |env| async move {
                assert_eq!(b.try_read(&*env).await, ReadOutcome::Value(7))
            }),
        ];
        assert!(got.iter().all(|g| *g == want), "{got:?}");
        assert_eq!(factory.log().len(), 4);
    }

    #[test]
    fn a_gauge_crash_lands_between_invocation_and_response() {
        let factory = RegisterFactory::default();
        let a = factory.atomic("A", 0i64);
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        let task = FutureTask::new(move |env: Rc<dyn Env>| async move {
            a.write(&*env, 7).await;
            env.observe("wrote", 0, 1);
        });
        b.add_stepper(p0, "write", Box::new(task));
        let on_gauge = Trigger::OnGauge {
            at: 0,
            gauge: "p0".into(),
            min: 1,
        };
        let plan = FaultPlan::new().with(on_gauge, FaultAction::Crash(FaultTarget::Stepper));
        let mut nemesis = Nemesis::new(plan);
        nemesis.register_gauge("p0", factory.inflight_gauge(p0));
        let report = b
            .build()
            .run(RunConfig::new(10, RoundRobin::new()).with_nemesis(nemesis));
        report.assert_no_panics();
        // The crash fires after the invocation step, so the response step
        // never runs and the write never completes.
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace.crash_time(p0), Some(0));
        assert_eq!(report.trace.last_value(p0, "wrote", 0), None);
        assert_eq!(factory.log().len(), 0);
    }
}
