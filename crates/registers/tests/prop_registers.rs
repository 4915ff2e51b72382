//! Property tests: register semantics under sequential (non-overlapping)
//! operation histories, plus policy laws.

use proptest::prelude::*;
use tbwf_registers::{
    AbortPolicy, AbortableRegister, AtomicRegister, EffectPolicy, OpToken, ReadOutcome,
    RegisterFactory, RegisterFactoryConfig, WriteOutcome,
};
use tbwf_sim::{FreeRunEnv, ProcId};

/// One solo operation: invoke, one step of the caller, complete.
fn solo<R>(
    env: &FreeRunEnv,
    invoke: impl FnOnce(&FreeRunEnv) -> OpToken,
    complete: impl FnOnce(&FreeRunEnv, OpToken) -> R,
) -> R {
    let tok = invoke(env);
    env.advance();
    complete(env, tok)
}

fn atomic_write(r: &dyn AtomicRegister<i64>, env: &FreeRunEnv, v: i64) {
    solo(env, |e| r.invoke_write(e, v), |e, t| r.complete_write(e, t));
}

fn atomic_read(r: &dyn AtomicRegister<i64>, env: &FreeRunEnv) -> i64 {
    solo(env, |e| r.invoke_read(e), |e, t| r.complete_read(e, t))
}

fn try_write(r: &dyn AbortableRegister<i64>, env: &FreeRunEnv, v: i64) -> WriteOutcome {
    solo(env, |e| r.invoke_write(e, v), |e, t| r.complete_write(e, t))
}

fn try_read(r: &dyn AbortableRegister<i64>, env: &FreeRunEnv) -> ReadOutcome<i64> {
    solo(env, |e| r.invoke_read(e), |e, t| r.complete_read(e, t))
}

#[derive(Clone, Copy, Debug)]
enum SeqOp {
    Write(i64),
    Read,
}

fn ops_strategy() -> impl Strategy<Value = Vec<SeqOp>> {
    prop::collection::vec(
        prop_oneof![(-100i64..100).prop_map(SeqOp::Write), Just(SeqOp::Read)],
        1..40,
    )
}

proptest! {
    /// Sequential operations on an atomic register: every read returns
    /// the most recently written value.
    #[test]
    fn atomic_register_is_a_register(ops in ops_strategy(), init in -100i64..100) {
        let f = RegisterFactory::default();
        let r = f.atomic("R", init);
        let env = FreeRunEnv::new(ProcId(0));
        let mut model = init;
        for op in ops {
            match op {
                SeqOp::Write(v) => { atomic_write(&*r, &env, v); model = v; }
                SeqOp::Read => prop_assert_eq!(atomic_read(&*r, &env), model),
            }
        }
    }

    /// Sequential operations never overlap, so an abortable register must
    /// behave exactly like an atomic register — no aborts, ever — even
    /// under the strongest abort policy.
    #[test]
    fn abortable_register_sequential_never_aborts(ops in ops_strategy(), init in -100i64..100, seed in 0u64..1000) {
        let f = RegisterFactory::new(RegisterFactoryConfig {
            seed,
            abort_policy: AbortPolicy::AlwaysOnOverlap,
            effect_policy: EffectPolicy::Never,
        });
        let r = f.abortable("R", init);
        let env = FreeRunEnv::new(ProcId(0));
        let mut model = init;
        for op in ops {
            match op {
                SeqOp::Write(v) => {
                    prop_assert_eq!(try_write(&*r, &env, v), WriteOutcome::Ok);
                    model = v;
                }
                SeqOp::Read => {
                    prop_assert_eq!(try_read(&*r, &env), ReadOutcome::Value(model));
                }
            }
        }
        // The log must agree: nothing overlapped, nothing aborted.
        let (total, overlapped, aborted) = f.log().abort_stats();
        prop_assert!(total > 0);
        prop_assert_eq!(overlapped, 0);
        prop_assert_eq!(aborted, 0);
    }

    /// CAS register: sequential compare-and-swap follows the model.
    #[test]
    fn cas_register_matches_model(ops in prop::collection::vec((0i64..4, 0i64..4), 1..40)) {
        let f = RegisterFactory::default();
        let r = f.cas("C", 0i64);
        let env = FreeRunEnv::new(ProcId(0));
        let mut model = 0i64;
        for (expected, new) in ops {
            let ok = solo(&env, |e| r.invoke(e), |e, t| r.complete_cas(e, t, &expected, new));
            prop_assert_eq!(ok, model == expected);
            if ok { model = new; }
            prop_assert_eq!(solo(&env, |e| r.invoke(e), |e, t| r.complete_read(e, t)), model);
        }
    }

    /// Abort-policy law: `Never` never aborts, `AlwaysOnOverlap` always
    /// does, and `Seeded` thresholds at `p_abort`.
    #[test]
    fn abort_policy_laws(u in 0.0f64..1.0, p in 0.0f64..1.0) {
        prop_assert!(!AbortPolicy::Never.aborts(u));
        prop_assert!(AbortPolicy::AlwaysOnOverlap.aborts(u));
        prop_assert_eq!(AbortPolicy::Seeded { p_abort: p }.aborts(u), u < p);
        prop_assert_eq!(EffectPolicy::Seeded { p_effect: p }.takes_effect(u), u < p);
    }

    /// Two factories with the same seed produce registers with identical
    /// adversary decisions (reproducibility of runs).
    #[test]
    fn same_seed_same_adversary(seed in 0u64..500) {
        let mk = || {
            let f = RegisterFactory::new(RegisterFactoryConfig {
                seed,
                abort_policy: AbortPolicy::Seeded { p_abort: 0.5 },
                effect_policy: EffectPolicy::Seeded { p_effect: 0.5 },
            });
            f.abortable("R", 0i64)
        };
        // Run the same sequential script on both and compare outcomes —
        // the decision *streams* are seed-determined even if unused.
        let env = FreeRunEnv::new(ProcId(0));
        let r1 = mk();
        let r2 = mk();
        for i in 0..10 {
            let a = try_write(&*r1, &env, i);
            let b = try_write(&*r2, &env, i);
            prop_assert_eq!(a, b);
        }
    }
}
