//! Property tests: the query-abortable universal construction under
//! random sequential interleavings of several sessions.
//!
//! With `FreeRunEnv` there is no genuine concurrency, so every register
//! operation is solo and the Figure 8 driver must complete each operation
//! in a bounded number of attempts; across sessions the decided log must
//! be a single consistent sequential history.

use proptest::prelude::*;
use std::sync::Arc;
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::{FreeRunEnv, ProcId};
use tbwf_universal::object::{Counter, CounterOp};
use tbwf_universal::{Outcome, QaObject, QaSession};

fn complete(session: &mut QaSession<Counter>, env: &FreeRunEnv, op: CounterOp) -> i64 {
    let mut query_next = false;
    for _ in 0..200 {
        let out = if query_next {
            env.run_solo(session.query(env))
        } else {
            env.run_solo(session.apply(env, op))
        };
        match out {
            Outcome::Done(v) => return v,
            Outcome::Bot => query_next = true,
            Outcome::NoEffect => query_next = false,
        }
    }
    panic!("operation did not complete in 200 attempts (solo!)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random alternation of three sessions performing increments: all
    /// responses are distinct and the union is exactly 1..=total.
    #[test]
    fn interleaved_increments_linearize(script in prop::collection::vec(0usize..3, 1..40), seed in 0u64..100) {
        let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig { seed, ..Default::default() }));
        let obj = QaObject::new(Counter, 3, factory);
        let envs: Vec<FreeRunEnv> = (0..3).map(|p| FreeRunEnv::new(ProcId(p))).collect();
        let mut sessions: Vec<QaSession<Counter>> =
            (0..3).map(|p| obj.session(ProcId(p))).collect();
        let mut responses = Vec::new();
        for &p in &script {
            responses.push(complete(&mut sessions[p], &envs[p], CounterOp::Inc));
        }
        let mut sorted = responses.clone();
        sorted.sort_unstable();
        let expect: Vec<i64> = (1..=script.len() as i64).collect();
        prop_assert_eq!(sorted, expect, "responses {:?}", responses);
    }

    /// Gets interleaved with incs: every Get returns the number of incs
    /// decided before it (session-local monotone view).
    #[test]
    fn gets_are_monotone(script in prop::collection::vec((0usize..3, prop::bool::ANY), 1..40)) {
        let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
        let obj = QaObject::new(Counter, 3, factory);
        let envs: Vec<FreeRunEnv> = (0..3).map(|p| FreeRunEnv::new(ProcId(p))).collect();
        let mut sessions: Vec<QaSession<Counter>> =
            (0..3).map(|p| obj.session(ProcId(p))).collect();
        let mut incs_so_far = 0i64;
        for &(p, is_inc) in &script {
            if is_inc {
                let v = complete(&mut sessions[p], &envs[p], CounterOp::Inc);
                incs_so_far += 1;
                prop_assert_eq!(v, incs_so_far);
            } else {
                let v = complete(&mut sessions[p], &envs[p], CounterOp::Get);
                prop_assert_eq!(v, incs_so_far, "Get saw a stale or future value");
            }
        }
    }

    /// All sessions converge to the same replica after replaying.
    #[test]
    fn replicas_agree_after_full_replay(script in prop::collection::vec(0usize..2, 1..30)) {
        let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
        let obj = QaObject::new(Counter, 2, factory);
        let envs: Vec<FreeRunEnv> = (0..2).map(|p| FreeRunEnv::new(ProcId(p))).collect();
        let mut sessions: Vec<QaSession<Counter>> =
            (0..2).map(|p| obj.session(ProcId(p))).collect();
        for &p in &script {
            complete(&mut sessions[p], &envs[p], CounterOp::Inc);
        }
        // Bring both up to date with a Get each. (Each Get occupies a log
        // slot itself, so the two sessions' replay cursors may differ by
        // the trailing Gets — but the counter value must agree.)
        for p in 0..2 {
            let v = complete(&mut sessions[p], &envs[p], CounterOp::Get);
            prop_assert_eq!(v, script.len() as i64);
        }
        prop_assert_eq!(*sessions[0].replica(), script.len() as i64);
        prop_assert_eq!(*sessions[0].replica(), *sessions[1].replica());
        let (a, b) = (sessions[0].decided_len(), sessions[1].decided_len());
        prop_assert!(a.abs_diff(b) <= 1, "cursors too far apart: {a} vs {b}");
    }
}
