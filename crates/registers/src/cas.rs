//! Compare-and-swap registers — the *strong* primitive used only by the
//! Herlihy-style baseline (Section 1.2 of the paper: "any object has a
//! wait-free implementation, provided one is allowed to use some strong
//! synchronization primitives like compare-and-swap"). The paper's own
//! constructions never use this.

use crate::stats::{OpEvent, OpKind, OpLog};
use parking_lot::Mutex;
use std::sync::Arc;
use tbwf_sim::{step, Env};

use crate::OpToken;

/// A linearizable compare-and-swap register. Never aborts.
///
/// Both operations linearize at their response step, so one invocation
/// serves either: [`CasRegister::invoke`] opens the operation and the
/// `complete_*` call made on the caller's next step decides what it was.
pub trait CasRegister<T: Clone + PartialEq>: Send + Sync {
    /// Invocation step of a compare-and-swap or a read.
    fn invoke(&self, env: &dyn Env) -> OpToken;

    /// Response step of a compare-and-swap: atomically, if the value
    /// equals `expected`, replace it with `new` and return `true`;
    /// otherwise return `false`.
    fn complete_cas(&self, env: &dyn Env, tok: OpToken, expected: &T, new: T) -> bool;

    /// Response step of a read; returns the current value.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T;
}

/// The compare-and-swap and the read of a CAS register, for `async`
/// bodies: each invokes the operation, takes one step, and completes it,
/// so it spans exactly the invocation and the response step.
impl<T: Clone + PartialEq> dyn CasRegister<T> + '_ {
    /// `CAS(expected, new)`: whether the value was `expected` (and is now
    /// `new`).
    pub async fn compare_and_swap(&self, env: &dyn Env, expected: &T, new: T) -> bool {
        let tok = self.invoke(env);
        step().await;
        self.complete_cas(env, tok, expected, new)
    }

    /// `READ`: the current value.
    pub async fn read(&self, env: &dyn Env) -> T {
        let tok = self.invoke(env);
        step().await;
        self.complete_read(env, tok)
    }
}

/// Simulated CAS register: two-step operation, linearizes at the response.
pub struct SimCasReg<T> {
    value: Mutex<T>,
    log: Arc<OpLog>,
}

impl<T: Clone + PartialEq + Send> SimCasReg<T> {
    pub(crate) fn new(init: T, log: Arc<OpLog>) -> Self {
        SimCasReg {
            value: Mutex::new(init),
            log,
        }
    }

    fn record(&self, env: &dyn Env, tok: OpToken, kind: OpKind) {
        self.log.push(OpEvent {
            invoked: tok.raw(),
            proc: env.pid(),
            kind,
            overlapped: false,
            aborted: false,
        });
    }
}

impl<T: Clone + PartialEq + Send + Sync> CasRegister<T> for SimCasReg<T> {
    /// The token carries the invocation time (for the operation log).
    fn invoke(&self, env: &dyn Env) -> OpToken {
        OpToken::new(env.now())
    }

    fn complete_cas(&self, env: &dyn Env, tok: OpToken, expected: &T, new: T) -> bool {
        let mut v = self.value.lock();
        let ok = *v == *expected;
        if ok {
            *v = new;
        }
        drop(v);
        self.record(env, tok, OpKind::Write);
        ok
    }

    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T {
        let v = self.value.lock().clone();
        self.record(env, tok, OpKind::Read);
        v
    }
}

/// Shorthand for a shared CAS register handle.
pub type SharedCas<T> = Arc<dyn CasRegister<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tbwf_sim::{FreeRunEnv, ProcId};

    fn cas<T: Clone + PartialEq>(r: &dyn CasRegister<T>, env: &FreeRunEnv, e: &T, new: T) -> bool {
        env.run_solo(r.compare_and_swap(env, e, new))
    }

    fn read<T: Clone + PartialEq>(r: &dyn CasRegister<T>, env: &FreeRunEnv) -> T {
        env.run_solo(r.read(env))
    }

    #[test]
    fn cas_succeeds_on_match() {
        let log = Arc::new(OpLog::new());
        let r = SimCasReg::new(0i64, log);
        let env = FreeRunEnv::new(ProcId(0));
        assert!(cas(&r, &env, &0, 5));
        assert_eq!(read(&r, &env), 5);
    }

    #[test]
    fn cas_fails_on_mismatch() {
        let log = Arc::new(OpLog::new());
        let r = SimCasReg::new(0i64, log);
        let env = FreeRunEnv::new(ProcId(0));
        assert!(!cas(&r, &env, &3, 5));
        assert_eq!(read(&r, &env), 0);
    }

    #[test]
    fn cas_on_option_values() {
        let log = Arc::new(OpLog::new());
        let r: SimCasReg<Option<u32>> = SimCasReg::new(None, log.clone());
        let env = FreeRunEnv::new(ProcId(0));
        assert!(cas(&r, &env, &None, Some(7)));
        assert!(!cas(&r, &env, &None, Some(9)));
        assert_eq!(read(&r, &env), Some(7));
        // Three operations, none overlapped or aborted; both CAS
        // attempts (failed or not) count as writes, dated by invocation:
        // the second was invoked at time 1, the read at 2.
        assert_eq!(log.abort_stats(), (3, 0, 0));
        assert_eq!(log.writers_since(1), BTreeSet::from([ProcId(0)]));
        assert!(log.writers_since(2).is_empty());
    }
}
