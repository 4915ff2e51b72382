//! Figure 7: the timeliness-based wait-free transform.
//!
//! [`invoke_tbwf`] executes one operation `op` on an object `O` of type
//! `T` by combining the dynamic leader elector Ω∆ with the wait-free
//! query-abortable object `O_QA`:
//!
//! 1. wait until `leader_p ≠ p` (the *canonical use* of Ω∆, Definition 6 —
//!    without this wait a timely process could monopolize the object,
//!    winning every election; see experiment E7);
//! 2. become a candidate;
//! 3. whenever Ω∆ says `leader_p = p`, run Figure 8 on `O_QA`: `op` → on
//!    `⊥` switch to `query` → on `F` retry `op` → on a normal response,
//!    stop competing and return.
//!
//! The body is the figure: every `.await` of [`step()`] is one step of the
//! process, and each `O_QA` invocation is one awaited
//! [`QaSession::apply`] or [`QaSession::query`].
//!
//! Without the line-2 wait (`canonical = false`, used only by experiment
//! E7) a timely process can win every election and monopolize the
//! object, starving the other timely processes.
//!
//! Theorem 14: this yields a timeliness-based wait-free implementation of
//! `T`; with the abortable-register Ω∆ and the abortable-register `O_QA`,
//! Theorem 15: *every* type has a TBWF implementation from abortable
//! registers.

use crate::object::{ObjectType, Outcome};
use crate::qa::QaSession;
use tbwf_omega::{set_candidate, OmegaHandles};
use tbwf_sim::{step, Env};

/// Figure 8: which `O_QA` invocation comes next (`op`, or `query` after
/// a `⊥`), and what a response means. Shared by [`invoke_tbwf`] and the
/// baselines that drive `O_QA` without Ω∆.
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

    /// Line 7: one invocation on `O_QA` by `session`. Returns the
    /// response if it was a normal one; `⊥` and `F` return `None` and
    /// choose the next invocation.
    pub(crate) async fn invoke(
        &mut self,
        env: &dyn Env,
        session: &mut QaSession<T>,
    ) -> Option<T::Resp> {
        let out = if self.query_next {
            session.query(env).await
        } else {
            session.apply(env, self.op.clone()).await
        };
        match out {
            Outcome::Done(v) => return Some(v),
            // 9: ⊥ ⇒ ask about the fate of op.
            Outcome::Bot => self.query_next = true,
            // 10: F ⇒ op did not take effect; try it again.
            Outcome::NoEffect => self.query_next = false,
        }
        None
    }
}

/// One TBWF operation (Figure 7, lines 1–10) of the process owning
/// `session`, with its Ω∆ handles `omega`. A timely caller gets its
/// response within finitely many of its own steps.
///
/// `canonical` enables the line-2 wait (the canonical use of Ω∆), the
/// `phase` observations, and withdrawing candidacy after the response.
/// With `canonical = false` candidate stays true after a response — the
/// monopolist never yields leadership (experiment E7 only).
///
/// The operation's first step is taken after line 3; when it returns,
/// the caller's next operation may start within the same step. See
/// `tbwf::TbwfSystemBuilder` (crate `tbwf`) for the high-level way to
/// assemble the whole system; its workers await one `invoke_tbwf` per
/// operation:
///
/// ```
/// # use tbwf_universal::{object::{Counter, CounterOp}, tbwf::invoke_tbwf, QaSession};
/// # use tbwf_omega::OmegaHandles;
/// # use tbwf_sim::Env;
/// /// A worker that keeps incrementing.
/// async fn worker(env: &dyn Env, mut session: QaSession<Counter>, omega: OmegaHandles) {
///     loop {
///         invoke_tbwf(env, &mut session, &omega, CounterOp::Inc, true).await;
///     }
/// }
/// ```
pub async fn invoke_tbwf<T: ObjectType>(
    env: &dyn Env,
    session: &mut QaSession<T>,
    omega: &OmegaHandles,
    op: T::Op,
    canonical: bool,
) -> T::Resp {
    let p = session.pid();
    if canonical {
        env.observe("phase", 0, 1);
        // 2: while LEADER = p do skip (canonical use).
        while omega.leader.get() == Some(p) {
            step().await;
        }
    }
    // 3: become a candidate.
    set_candidate(env, &omega.candidate, true);
    if canonical {
        env.observe("phase", 0, 2);
    }
    let mut fig8 = Fig8::new(op);
    let mut observed_applying = false;
    // 5: repeat — every iteration starts with a step.
    loop {
        step().await;
        // 6: if LEADER = p
        if omega.leader.get() != Some(p) {
            continue;
        }
        if canonical && !observed_applying {
            observed_applying = true;
            env.observe("phase", 0, 3);
        }
        // 7: res ← invoke(op', O_QA, T_QA), where op' is op or query as
        // Figure 8 dictates; 9–10: ⊥ or F ⇒ the next iteration.
        if let Some(v) = fig8.invoke(env, session).await {
            // 8: normal response ⇒ stop competing and return.
            if canonical {
                set_candidate(env, &omega.candidate, false);
            }
            return v;
        }
    }
}
