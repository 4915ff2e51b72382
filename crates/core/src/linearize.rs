//! A Wing & Gong–style linearizability checker for small concurrent
//! histories.
//!
//! The type-specific invariant tests (distinct counter responses, FIFO
//! order, …) are fast but partial. This checker is complete: given a
//! history of operations with their real-time intervals, it searches for
//! a *linearization* — a total order that (a) respects real-time
//! precedence (if `a` responded before `b` was invoked, `a` comes first)
//! and (b) replays against the sequential [`ObjectType`] semantics with
//! exactly the observed responses.
//!
//! The search is exponential in the worst case, so it is meant for the
//! histories our tests produce (tens of operations, few processes); a
//! memoization set over `(decided-set, state)` keeps typical cases fast.
//!
//! Crash/halt caveat: operations that never returned are *not* in the
//! history. For runs of the TBWF object this is sound to check only if
//! pending (never-completed) operations may or may not have taken
//! effect — which our per-type invariant tests cover separately by
//! checking, e.g., that no value is popped twice. The checker here is
//! used on histories where every invoked operation completed.

use std::collections::HashSet;
use std::hash::Hash;
use tbwf_sim::ProcId;
use tbwf_universal::ObjectType;

/// One completed operation of a concurrent history.
#[derive(Clone, Debug)]
pub struct HistoryEvent<T: ObjectType> {
    /// The invoking process (diagnostics only).
    pub proc: ProcId,
    /// The operation.
    pub op: T::Op,
    /// The observed response.
    pub resp: T::Resp,
    /// Invocation time.
    pub invoked: u64,
    /// Response time (must be ≥ `invoked`).
    pub responded: u64,
}

/// Why a history failed the check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinearizeError {
    /// No valid linearization exists: the history is not linearizable
    /// with respect to the sequential type.
    NotLinearizable,
    /// An event has `responded < invoked`.
    BadInterval {
        /// Index of the offending event.
        index: usize,
    },
}

/// Searches for a linearization of `history` against `ty`'s sequential
/// semantics. On success returns the indices of `history` in
/// linearization order.
///
/// ```
/// use tbwf::linearize::{check_linearizable, HistoryEvent};
/// use tbwf::prelude::*;
///
/// // Two overlapping increments: the responses reveal that p1's
/// // increment linearized first.
/// let history = vec![
///     HistoryEvent::<Counter> {
///         proc: ProcId(0), op: CounterOp::Inc, resp: 2, invoked: 0, responded: 10,
///     },
///     HistoryEvent::<Counter> {
///         proc: ProcId(1), op: CounterOp::Inc, resp: 1, invoked: 0, responded: 10,
///     },
/// ];
/// assert_eq!(check_linearizable(&Counter, &history), Ok(vec![1, 0]));
/// ```
///
/// # Errors
///
/// [`LinearizeError::NotLinearizable`] if no valid order exists;
/// [`LinearizeError::BadInterval`] if an event's interval is inverted.
pub fn check_linearizable<T>(
    ty: &T,
    history: &[HistoryEvent<T>],
) -> Result<Vec<usize>, LinearizeError>
where
    T: ObjectType,
    T::State: Hash + Eq,
{
    for (i, e) in history.iter().enumerate() {
        if e.responded < e.invoked {
            return Err(LinearizeError::BadInterval { index: i });
        }
    }
    let n = history.len();
    let mut taken = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut state = ty.initial();
    // Memoize (taken-set, state) pairs that are known dead ends.
    let mut failed: HashSet<(Vec<bool>, T::State)> = HashSet::new();

    fn dfs<T>(
        ty: &T,
        history: &[HistoryEvent<T>],
        taken: &mut Vec<bool>,
        order: &mut Vec<usize>,
        state: &mut T::State,
        failed: &mut HashSet<(Vec<bool>, T::State)>,
    ) -> bool
    where
        T: ObjectType,
        T::State: Hash + Eq,
    {
        let n = history.len();
        if order.len() == n {
            return true;
        }
        if failed.contains(&(taken.clone(), state.clone())) {
            return false;
        }
        // The earliest response among pending events bounds which events
        // may linearize next: an event invoked after some pending event
        // already responded cannot go first.
        let min_responded = history
            .iter()
            .enumerate()
            .filter(|(i, _)| !taken[*i])
            .map(|(_, e)| e.responded)
            .min()
            .expect("pending set non-empty");
        for i in 0..n {
            if taken[i] || history[i].invoked > min_responded {
                continue;
            }
            let e = &history[i];
            let mut next_state = state.clone();
            let resp = ty.apply(&mut next_state, &e.op);
            if resp != e.resp {
                continue;
            }
            taken[i] = true;
            order.push(i);
            let mut s = next_state;
            std::mem::swap(state, &mut s); // state := next, keep old in s
            if dfs(ty, history, taken, order, state, failed) {
                return true;
            }
            std::mem::swap(state, &mut s); // restore
            order.pop();
            taken[i] = false;
        }
        failed.insert((taken.clone(), state.clone()));
        false
    }

    if dfs(ty, history, &mut taken, &mut order, &mut state, &mut failed) {
        Ok(order)
    } else {
        Err(LinearizeError::NotLinearizable)
    }
}

/// Extracts the completed-operation history of a run, process-major in
/// completion order — the form [`check_linearizable`] consumes.
fn run_history<T: ObjectType>(run: &crate::system::TbwfRun<T>) -> Vec<HistoryEvent<T>> {
    run.results
        .iter()
        .enumerate()
        .flat_map(|(p, rs)| {
            rs.iter().map(move |r| HistoryEvent {
                proc: ProcId(p),
                op: r.op.clone(),
                resp: r.resp.clone(),
                invoked: r.invoked,
                responded: r.time,
            })
        })
        .collect()
}

/// Checks the complete history of a
/// [`TbwfRun`](crate::system::TbwfRun); on success returns the history
/// indices in linearization order.
///
/// Only sound when the history is *complete* — no operation took effect
/// without its response being reported (see the crate-level caveat on
/// crashed mid-flight operations); callers must gate on that.
///
/// # Errors
///
/// Exactly those of [`check_linearizable`].
pub fn check_run_linearizable<T>(
    ty: &T,
    run: &crate::system::TbwfRun<T>,
) -> Result<Vec<usize>, LinearizeError>
where
    T: ObjectType,
    T::State: Hash + Eq,
{
    check_linearizable(ty, &run_history(run))
}

/// Convenience: checks the complete history of a
/// [`TbwfRun`](crate::system::TbwfRun).
///
/// # Panics
///
/// Panics (with a descriptive message) if the history is not
/// linearizable — this is meant for tests and experiments.
pub fn assert_run_linearizable<T>(ty: &T, run: &crate::system::TbwfRun<T>)
where
    T: ObjectType,
    T::State: Hash + Eq,
{
    if let Err(e) = check_run_linearizable(ty, run) {
        panic!(
            "history of {} operations is not linearizable: {e:?}",
            run_history(run).len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Stack, StackOp, StackResp};
    use tbwf_universal::object::{Counter, CounterOp};

    fn ev<T: ObjectType>(
        p: usize,
        op: T::Op,
        resp: T::Resp,
        invoked: u64,
        responded: u64,
    ) -> HistoryEvent<T> {
        HistoryEvent {
            proc: ProcId(p),
            op,
            resp,
            invoked,
            responded,
        }
    }

    #[test]
    fn sequential_history_linearizes_in_order() {
        let h = vec![
            ev::<Counter>(0, CounterOp::Inc, 1, 0, 1),
            ev::<Counter>(1, CounterOp::Inc, 2, 2, 3),
            ev::<Counter>(0, CounterOp::Get, 2, 4, 5),
        ];
        assert_eq!(check_linearizable(&Counter, &h), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn concurrent_history_finds_the_valid_order() {
        // Two overlapping incs: responses force the order 1-then-0.
        let h = vec![
            ev::<Counter>(0, CounterOp::Inc, 2, 0, 10),
            ev::<Counter>(1, CounterOp::Inc, 1, 0, 10),
        ];
        assert_eq!(check_linearizable(&Counter, &h), Ok(vec![1, 0]));
    }

    #[test]
    fn real_time_order_is_respected() {
        // Op 0 responded before op 1 was invoked, but the responses
        // require op 1 to linearize first ⇒ not linearizable.
        let h = vec![
            ev::<Counter>(0, CounterOp::Inc, 2, 0, 1),
            ev::<Counter>(1, CounterOp::Inc, 1, 5, 6),
        ];
        assert_eq!(
            check_linearizable(&Counter, &h),
            Err(LinearizeError::NotLinearizable)
        );
    }

    #[test]
    fn duplicate_responses_are_rejected() {
        let h = vec![
            ev::<Counter>(0, CounterOp::Inc, 1, 0, 10),
            ev::<Counter>(1, CounterOp::Inc, 1, 0, 10),
        ];
        assert_eq!(
            check_linearizable(&Counter, &h),
            Err(LinearizeError::NotLinearizable)
        );
    }

    #[test]
    fn stack_history_with_hidden_order() {
        // Concurrent pushes; a later pop observes which one was last.
        let h = vec![
            ev::<Stack>(0, StackOp::Push(1), StackResp::Pushed, 0, 10),
            ev::<Stack>(1, StackOp::Push(2), StackResp::Pushed, 0, 10),
            ev::<Stack>(0, StackOp::Pop, StackResp::Popped(Some(1)), 11, 12),
            ev::<Stack>(0, StackOp::Pop, StackResp::Popped(Some(2)), 13, 14),
        ];
        // Valid: push 2, push 1, pop 1, pop 2.
        let order = check_linearizable(&Stack, &h).expect("linearizable");
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn pop_of_never_pushed_value_fails() {
        let h = vec![
            ev::<Stack>(0, StackOp::Push(1), StackResp::Pushed, 0, 1),
            ev::<Stack>(1, StackOp::Pop, StackResp::Popped(Some(9)), 2, 3),
        ];
        assert_eq!(
            check_linearizable(&Stack, &h),
            Err(LinearizeError::NotLinearizable)
        );
    }

    #[test]
    fn inverted_interval_is_reported() {
        let h = vec![ev::<Counter>(0, CounterOp::Inc, 1, 5, 2)];
        assert_eq!(
            check_linearizable(&Counter, &h),
            Err(LinearizeError::BadInterval { index: 0 })
        );
    }

    #[test]
    fn empty_history_is_trivially_linearizable() {
        let h: Vec<HistoryEvent<Counter>> = Vec::new();
        assert_eq!(check_linearizable(&Counter, &h), Ok(vec![]));
    }

    #[test]
    fn pending_completion_ambiguity_resolves_both_ways() {
        // A Get overlapping an Inc may observe either side of it; the
        // checker must accept both resolutions of the ambiguity…
        let before = vec![
            ev::<Counter>(0, CounterOp::Inc, 1, 0, 10),
            ev::<Counter>(1, CounterOp::Get, 0, 0, 10),
        ];
        assert_eq!(check_linearizable(&Counter, &before), Ok(vec![1, 0]));
        let after = vec![
            ev::<Counter>(0, CounterOp::Inc, 1, 0, 10),
            ev::<Counter>(1, CounterOp::Get, 1, 0, 10),
        ];
        assert_eq!(check_linearizable(&Counter, &after), Ok(vec![0, 1]));
        // …but a response consistent with neither is a witness against.
        let neither = vec![
            ev::<Counter>(0, CounterOp::Inc, 1, 0, 10),
            ev::<Counter>(1, CounterOp::Get, 2, 0, 10),
        ];
        assert_eq!(
            check_linearizable(&Counter, &neither),
            Err(LinearizeError::NotLinearizable)
        );
    }

    #[test]
    fn adversarial_witness_forces_backtracking() {
        // All three ops are concurrent; a greedy left-to-right choice
        // (push 1 first) dead-ends because the pop saw 2 on top with 1
        // still below — the checker must backtrack to push-2-first.
        let h = vec![
            ev::<Stack>(0, StackOp::Push(1), StackResp::Pushed, 0, 10),
            ev::<Stack>(1, StackOp::Push(2), StackResp::Pushed, 0, 10),
            ev::<Stack>(2, StackOp::Pop, StackResp::Popped(Some(1)), 0, 10),
        ];
        let order = check_linearizable(&Stack, &h).expect("linearizable");
        // The DFS tries push1 then push2 first, hits the dead end (top
        // is 2, pop saw 1), and must back out of push2 before the pop.
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn wide_concurrent_rejection_terminates() {
        // Six concurrent increments with a duplicated rank: no order can
        // replay them, and the memoized dead-end set must keep the
        // factorial search from blowing up.
        let h: Vec<HistoryEvent<Counter>> = (0..6)
            .map(|i| ev::<Counter>(i, CounterOp::Inc, [1, 2, 3, 3, 5, 6][i], 0, 100))
            .collect();
        assert_eq!(
            check_linearizable(&Counter, &h),
            Err(LinearizeError::NotLinearizable)
        );
    }

    #[test]
    fn non_linearizable_witness_rejected_despite_partial_orders() {
        // Two sequential phases: phase one commits rank 1 to p0; in phase
        // two a Get claims to still see 0. Any linearization putting the
        // Get first violates real time ⇒ rejected.
        let h = vec![
            ev::<Counter>(0, CounterOp::Inc, 1, 0, 1),
            ev::<Counter>(1, CounterOp::Get, 0, 5, 6),
        ];
        assert_eq!(
            check_linearizable(&Counter, &h),
            Err(LinearizeError::NotLinearizable)
        );
    }
}
