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
//!
//! Counter runs of any length, complete or cut off, go through
//! [`counter_history_violations`]: an increment's response is its rank,
//! so ranks, holes and real-time order are checked directly, and the
//! complete search runs on top when the history is small and complete.

use crate::system::TbwfRun;
use std::collections::HashSet;
use std::hash::Hash;
use tbwf_sim::ProcId;
use tbwf_universal::object::Counter;
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
fn run_history<T: ObjectType>(run: &TbwfRun<T>) -> Vec<HistoryEvent<T>> {
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

/// Checks the complete history of a [`TbwfRun`]; on success returns the
/// history indices in linearization order.
///
/// Only sound when the history is *complete* — no operation took effect
/// without its response being reported (see the crate-level caveat on
/// crashed mid-flight operations); callers must gate on that.
///
/// # Errors
///
/// Exactly those of [`check_linearizable`].
pub fn check_run_linearizable<T>(ty: &T, run: &TbwfRun<T>) -> Result<Vec<usize>, LinearizeError>
where
    T: ObjectType,
    T::State: Hash + Eq,
{
    check_linearizable(ty, &run_history(run))
}

/// Convenience: checks the complete history of a [`TbwfRun`].
///
/// # Panics
///
/// Panics (with a descriptive message) if the history is not
/// linearizable — this is meant for tests and experiments.
pub fn assert_run_linearizable<T>(ty: &T, run: &TbwfRun<T>)
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

/// The counter-history oracle of a run of increments: why its history is
/// not linearizable, one message per broken rule, empty on a sound
/// history.
///
/// Every history is checked for ranks that are positive and distinct, at
/// most one unreported increment per process, well-formed intervals, and
/// ranks that respect real-time order. Sound on a history cut off by a
/// crash, a halt or the end of the run: the Wing & Gong search of
/// [`check_run_linearizable`], which needs a complete history, runs only
/// when every effective increment was reported.
pub fn counter_history_violations(run: &TbwfRun<Counter>) -> Vec<String> {
    let n = run.results.len();
    let mut violations = Vec::new();
    // Each increment's response is its rank in the linearization order,
    // so reported responses must be distinct (a duplicate rank means two
    // increments linearized at the same point — a genuine safety
    // violation). The ranks need not be contiguous: a process crashed or
    // halted between an increment taking effect and its response being
    // reported leaves a hole, at most one per process.
    let ops = || run.results.iter().flatten();
    let mut resp: Vec<i64> = ops().map(|r| r.resp).collect();
    let total_ops = resp.len();
    resp.sort_unstable();
    if let Some(&low) = resp.first().filter(|&&r| r < 1) {
        violations.push(format!("increment rank {low} is below 1"));
    }
    if resp.windows(2).any(|w| w[0] == w[1]) {
        violations.push(format!(
            "duplicate increment rank among {total_ops} responses"
        ));
    }
    let max_resp = resp.last().copied().unwrap_or(0);
    if max_resp - total_ops as i64 > n as i64 {
        violations.push(format!(
            "{} unreported effective increments (max rank {max_resp}, {total_ops} responses) \
             exceeds one in-flight operation per process (n = {n})",
            max_resp - total_ops as i64,
        ));
    }
    for (p, r) in run.results.iter().enumerate() {
        if r.iter().any(|op| op.time < op.invoked) {
            violations.push(format!("p{p} reports an inverted operation interval"));
        }
    }
    // Ranks respect real time: an increment that responded no later than
    // another was invoked has the lower rank. One sweep in invocation
    // order folds every increment responded by then into its maximum
    // rank. (`>` rather than `≥`: ranks of distinct increments are
    // distinct, checked above, and an increment never precedes itself.)
    let mut by_invocation: Vec<(u64, i64)> = ops().map(|r| (r.invoked, r.resp)).collect();
    let mut by_response: Vec<(u64, i64)> = ops().map(|r| (r.time, r.resp)).collect();
    by_invocation.sort_unstable();
    by_response.sort_unstable();
    let (mut responded, mut max_rank) = (0, i64::MIN);
    for &(invoked, rank) in &by_invocation {
        while responded < by_response.len() && by_response[responded].0 <= invoked {
            max_rank = max_rank.max(by_response[responded].1);
            responded += 1;
        }
        if max_rank > rank {
            violations.push(format!(
                "rank {rank} (invoked at {invoked}) is below rank {max_rank} of an increment \
                 that had already responded"
            ));
            break;
        }
    }

    // On small *complete* histories — every effective increment reported,
    // i.e. the ranks are exactly 1..=total — run the full Wing & Gong
    // search on top of the rank tests. Long campaigns produce thousands
    // of operations and skip this; the model checker's short horizons
    // land under the cap.
    if total_ops <= 256 && max_resp == total_ops as i64 {
        if let Err(e) = check_run_linearizable(&Counter, run) {
            violations.push(format!(
                "no linearization of the {total_ops}-operation history exists ({e:?})"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{TbwfSystemBuilder, Workload};
    use crate::types::{Stack, StackOp, StackResp};
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::RunConfig;
    use tbwf_universal::object::CounterOp;

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

    /// A fault-free two-process counter run of `steps` steps under
    /// round-robin.
    fn counter_run_of(steps: u64) -> TbwfRun<Counter> {
        TbwfSystemBuilder::new(Counter)
            .processes(2)
            .workload_all(Workload::Unlimited(CounterOp::Inc))
            .run(RunConfig::new(steps, RoundRobin::new()))
    }

    fn counter_run() -> TbwfRun<Counter> {
        counter_run_of(5_000)
    }

    fn max_rank(run: &TbwfRun<Counter>) -> i64 {
        run.results.iter().flatten().map(|r| r.resp).max().unwrap()
    }

    #[test]
    fn counter_oracle_accepts_a_truncated_history() {
        let mut run = counter_run();
        assert!(counter_history_violations(&run).is_empty());
        // The process whose last increment is not the latest one loses
        // that response, as if the run had been cut off before reporting
        // it: the increment took effect, so its rank leaves a hole.
        let top = max_rank(&run);
        let p = (0..2)
            .find(|&p| run.results[p].last().is_some_and(|r| r.resp != top))
            .unwrap();
        run.results[p].pop();
        assert_eq!(max_rank(&run), top);
        let total = run.results.iter().map(Vec::len).sum::<usize>() as i64;
        assert_eq!(top, total + 1, "one hole in the ranks");
        let violations = counter_history_violations(&run);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn counter_oracle_flags_ranks_against_real_time() {
        let mut run = counter_run_of(60_000);
        let total = run.results.iter().map(Vec::len).sum::<usize>();
        assert!(
            total > 256,
            "the Wing & Gong search must not run ({total} ops)"
        );
        // A hole, so the history is incomplete as well.
        let top = max_rank(&run);
        let p = (0..2)
            .find(|&p| run.results[p].last().is_some_and(|r| r.resp != top))
            .unwrap();
        run.results[p].pop();
        assert!(counter_history_violations(&run).is_empty());
        // p0's first increment responded before its last was invoked, so
        // swapping their ranks breaks real-time order and nothing else.
        let ops = &mut run.results[0];
        let last = ops.len() - 1;
        assert!(ops[0].time <= ops[last].invoked);
        let (first_rank, last_rank) = (ops[0].resp, ops[last].resp);
        ops[0].resp = last_rank;
        ops[last].resp = first_rank;
        let violations = counter_history_violations(&run);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("already responded"),
            "{violations:?}"
        );
    }

    #[test]
    fn counter_oracle_flags_a_rank_below_one() {
        let mut run = counter_run();
        run.results[0][0].resp = 0;
        let violations = counter_history_violations(&run);
        assert!(
            violations
                .iter()
                .any(|v| v == "increment rank 0 is below 1"),
            "{violations:?}"
        );
    }

    #[test]
    fn counter_oracle_flags_a_duplicated_rank() {
        let mut run = counter_run();
        run.results[0][0].resp = run.results[1][0].resp;
        let violations = counter_history_violations(&run);
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with("duplicate increment rank")),
            "{violations:?}"
        );
    }
}
