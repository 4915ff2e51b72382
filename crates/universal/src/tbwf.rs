//! Figure 7: the timeliness-based wait-free transform.
//!
//! [`TbwfCall`] executes one operation `op` on an object `O` of type `T`
//! by combining the dynamic leader elector Ω∆ with the wait-free
//! query-abortable object `O_QA`:
//!
//! 1. wait until `leader_p ≠ p` (the *canonical use* of Ω∆, Definition 6 —
//!    without this wait a timely process could monopolize the object,
//!    winning every election; see experiment E7);
//! 2. become a candidate;
//! 3. whenever Ω∆ says `leader_p = p`, run the Figure 8 state machine on
//!    `O_QA`: `op` → on `⊥` switch to `query` → on `F` retry `op` → on a
//!    normal response, stop competing and return.
//!
//! Without the line-2 wait (`TbwfCall::new(op, false)`, used only by
//! experiment E7) a timely process can win every election and monopolize
//! the object, starving the other timely processes.
//!
//! Theorem 14: this yields a timeliness-based wait-free implementation of
//! `T`; with the abortable-register Ω∆ and the abortable-register `O_QA`,
//! Theorem 15: *every* type has a TBWF implementation from abortable
//! registers.

use crate::object::{ObjectType, Outcome};
use crate::qa::QaSession;
use tbwf_omega::{OmegaHandles, OBS_CANDIDATE};
use tbwf_sim::Env;

/// The Figure 8 state machine: which `O_QA` invocation comes next (`op`,
/// or `query` after a `⊥`), and what a response means. Shared by
/// [`TbwfCall`] and the baselines that drive `O_QA` without Ω∆.
pub(crate) struct Fig8<T: ObjectType> {
    op: T::Op,
    query_next: bool,
}

impl<T: ObjectType> Fig8<T> {
    /// Starts with `op`.
    pub(crate) fn new(op: T::Op) -> Self {
        Fig8 {
            op,
            query_next: false,
        }
    }

    /// Starts the next invocation on `session`.
    pub(crate) fn begin(&self, session: &mut QaSession<T>) {
        if self.query_next {
            session.begin_query();
        } else {
            session.begin_apply(self.op.clone());
        }
    }

    /// One segment of the in-flight invocation: `None` while it runs,
    /// `Some(Some(resp))` on a normal response, `Some(None)` after `⊥`
    /// or `F`, which choose the next invocation.
    pub(crate) fn poll(
        &mut self,
        env: &dyn Env,
        session: &mut QaSession<T>,
    ) -> Option<Option<T::Resp>> {
        Some(match session.poll_op(env)? {
            Outcome::Done(v) => Some(v),
            // 9: ⊥ ⇒ ask about the fate of op.
            Outcome::Bot => {
                self.query_next = true;
                None
            }
            // 10: F ⇒ op did not take effect; try it again.
            Outcome::NoEffect => {
                self.query_next = false;
                None
            }
        })
    }
}

fn set_candidate(env: &dyn Env, omega: &OmegaHandles, v: bool) {
    if omega.candidate.get() != v {
        omega.candidate.set(v);
        env.observe(OBS_CANDIDATE, 0, v as i64);
    }
}

/// Where a [`TbwfCall`] is parked between segments.
#[derive(Clone, Copy)]
enum CallState {
    /// First segment of the call.
    Start,
    /// Line 2: waiting until `leader ≠ p` (canonical only).
    LeaderWait,
    /// Line 5's per-iteration step taken: run the line-6 leader check.
    LoopHead,
    /// An `O_QA` invocation is in flight ([`QaSession::poll_op`]).
    OpInFlight,
}

/// One TBWF operation (Figure 7, lines 1–10): [`TbwfCall::poll`] runs one
/// segment per call and returns the response when the operation
/// completes; the caller takes one step per `None`. A timely caller gets
/// its response within finitely many of its own steps.
///
/// See `tbwf::TbwfSystemBuilder` (crate `tbwf`) for the high-level way to
/// assemble the whole system; its workers drive one `TbwfCall` per
/// operation:
///
/// ```
/// # use tbwf_universal::{object::{Counter, CounterOp}, tbwf::TbwfCall, QaSession};
/// # use tbwf_omega::OmegaHandles;
/// # use tbwf_sim::Env;
/// // One segment of a worker that keeps incrementing: returns whether
/// // the process takes a step now.
/// fn segment(
///     env: &dyn Env,
///     call: &mut TbwfCall<Counter>,
///     session: &mut QaSession<Counter>,
///     omega: &OmegaHandles,
/// ) -> bool {
///     match call.poll(env, session, omega) {
///         None => true,
///         Some(_response) => {
///             // The next call's first segment runs in this segment.
///             *call = TbwfCall::new(CounterOp::Inc, true);
///             segment(env, call, session, omega)
///         }
///     }
/// }
/// ```
pub struct TbwfCall<T: ObjectType> {
    fig8: Fig8<T>,
    canonical: bool,
    observed_applying: bool,
    state: CallState,
}

impl<T: ObjectType> TbwfCall<T> {
    /// Prepares the operation; `canonical` enables the line-2 wait (the
    /// canonical use of Ω∆), the `phase` observations, and withdrawing
    /// candidacy after the response. With `canonical = false` candidate
    /// stays true after a response — the monopolist never yields
    /// leadership (experiment E7 only).
    pub fn new(op: T::Op, canonical: bool) -> Self {
        TbwfCall {
            fig8: Fig8::new(op),
            canonical,
            observed_applying: false,
            state: CallState::Start,
        }
    }

    /// Lines 3–5: become a candidate and enter the main loop.
    fn enter_competition(&mut self, env: &dyn Env, omega: &OmegaHandles) {
        set_candidate(env, omega, true);
        if self.canonical {
            env.observe("phase", 0, 2);
        }
        self.state = CallState::LoopHead;
    }

    /// Runs one segment. Returns the response when the operation has
    /// completed (line 8 reached a normal response); that final segment
    /// is part of the caller's current step.
    pub fn poll(
        &mut self,
        env: &dyn Env,
        session: &mut QaSession<T>,
        omega: &OmegaHandles,
    ) -> Option<T::Resp> {
        let p = session.pid();
        loop {
            match self.state {
                CallState::Start => {
                    if self.canonical {
                        // 2: while LEADER = p do skip (canonical use).
                        env.observe("phase", 0, 1);
                        if omega.leader.get() == Some(p) {
                            self.state = CallState::LeaderWait;
                            return None;
                        }
                    }
                    self.enter_competition(env, omega);
                    return None;
                }
                CallState::LeaderWait => {
                    if omega.leader.get() == Some(p) {
                        return None;
                    }
                    self.enter_competition(env, omega);
                    return None;
                }
                CallState::LoopHead => {
                    // 6: if LEADER = p
                    if omega.leader.get() != Some(p) {
                        return None;
                    }
                    if self.canonical && !self.observed_applying {
                        self.observed_applying = true;
                        env.observe("phase", 0, 3);
                    }
                    // 7: res ← invoke(op', O_QA, T_QA), where op' is op or
                    // query as the Figure 8 state machine dictates.
                    self.fig8.begin(session);
                    self.state = CallState::OpInFlight;
                    // The invocation's first segment runs here, in the
                    // same segment that started it.
                }
                CallState::OpInFlight => {
                    // 8: normal response ⇒ stop competing and return.
                    // 9–10: ⊥ or F ⇒ the next invocation (`Fig8::poll`).
                    if let Some(v) = self.fig8.poll(env, session)? {
                        if self.canonical {
                            set_candidate(env, omega, false);
                        }
                        return Some(v);
                    }
                    self.state = CallState::LoopHead;
                    return None;
                }
            }
        }
    }
}
