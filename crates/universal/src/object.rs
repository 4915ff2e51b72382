//! The sequential object framework: any type `T` as `(State, Op, Resp)`.

use std::fmt;

/// A sequential object type, in the sense of universal constructions:
/// a deterministic state machine with typed operations and responses.
///
/// Instances (not just the type) define the object, so configurable types
/// (e.g. a register file with `k` registers) are ordinary values.
pub trait ObjectType: 'static {
    /// The state of the object.
    type State: Clone + PartialEq + fmt::Debug;
    /// The operations of the object.
    type Op: Clone + PartialEq + fmt::Debug;
    /// The responses of the object.
    type Resp: Clone + PartialEq + fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Applies `op` to `state`, returning the response. Must be a pure
    /// deterministic function of `(state, op)`.
    fn apply(&self, state: &mut Self::State, op: &Self::Op) -> Self::Resp;
}

/// Result of an operation on a query-abortable object `O_QA` (footnote 3
/// of the paper and Section 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome<R> {
    /// A normal response: the operation took effect.
    Done(R),
    /// `⊥`: the operation aborted; it may or may not have taken effect.
    Bot,
    /// `F` (only from `query`): the queried operation did **not** take
    /// effect — and is guaranteed never to take effect.
    NoEffect,
}

impl<R> Outcome<R> {
    /// The response, if the outcome is `Done`.
    pub fn done(self) -> Option<R> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the outcome is `⊥`.
    pub fn is_bot(&self) -> bool {
        matches!(self, Outcome::Bot)
    }

    /// Whether the outcome is `F`.
    pub fn is_no_effect(&self) -> bool {
        matches!(self, Outcome::NoEffect)
    }
}

/// Replays `ops` sequentially from the initial state — the reference
/// execution that linearizability oracles compare against. Returns the
/// final state and the response of each operation, in order.
///
/// This is the ground truth of the whole construction: a history is
/// correct iff it can be reordered (respecting real-time precedence)
/// into some `replay` of its operations. The model checker also folds
/// the replayed terminal state into its run fingerprints, so runs that
/// differ only in scheduling noise but agree on the abstract object
/// state collapse into one equivalence class.
pub fn replay<T: ObjectType>(ty: &T, ops: &[T::Op]) -> (T::State, Vec<T::Resp>) {
    let mut state = ty.initial();
    let resps = ops.iter().map(|op| ty.apply(&mut state, op)).collect();
    (state, resps)
}

/// A shared counter: the canonical test type.
///
/// `Inc` returns the value *after* the increment, so in any linearizable
/// history all successful `Inc` responses are distinct and the largest
/// equals the number of effective increments — the invariant the
/// integration tests check.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter;

/// Operations of [`Counter`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CounterOp {
    /// Add one; responds with the new value.
    Inc,
    /// Read the current value.
    Get,
}

impl ObjectType for Counter {
    type State = i64;
    type Op = CounterOp;
    type Resp = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn apply(&self, state: &mut i64, op: &CounterOp) -> i64 {
        match op {
            CounterOp::Inc => {
                *state += 1;
                *state
            }
            CounterOp::Get => *state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let c = Counter;
        let mut s = c.initial();
        assert_eq!(c.apply(&mut s, &CounterOp::Inc), 1);
        assert_eq!(c.apply(&mut s, &CounterOp::Inc), 2);
        assert_eq!(c.apply(&mut s, &CounterOp::Get), 2);
        assert_eq!(s, 2);
    }

    #[test]
    fn replay_returns_every_response_in_order() {
        let (state, resps) = replay(
            &Counter,
            &[
                CounterOp::Inc,
                CounterOp::Get,
                CounterOp::Inc,
                CounterOp::Inc,
            ],
        );
        assert_eq!(state, 3);
        assert_eq!(resps, vec![1, 1, 2, 3]);
        let (empty_state, empty_resps) = replay(&Counter, &[]);
        assert_eq!(empty_state, 0);
        assert!(empty_resps.is_empty());
    }

    #[test]
    fn outcome_accessors() {
        let d: Outcome<i64> = Outcome::Done(5);
        assert_eq!(d.done(), Some(5));
        assert!(!d.is_bot());
        let b: Outcome<i64> = Outcome::Bot;
        assert!(b.is_bot());
        assert_eq!(b.done(), None);
        let f: Outcome<i64> = Outcome::NoEffect;
        assert!(f.is_no_effect());
    }
}
