//! Property test: register semantics under overlapping operations.
//!
//! Random interleavings of invocations and completions by up to four
//! processes, with up to three operations in flight on the register and
//! random crash marks, are run on a real register and on a reference
//! model that keeps its in-flight operations in a plain `Vec`. After
//! every call the two must agree on the operation ids, the outcomes and
//! values, the overlap counts of the operation log, and every process's
//! in-flight gauge.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use tbwf_registers::{
    AbortPolicy, EffectPolicy, OpToken, ReadOutcome, RegisterFactory, RegisterFactoryConfig,
    SharedAbortable, SharedAtomic, WriteOutcome,
};
use tbwf_sim::{Env, ProcId};

const PROCS: usize = 4;
const MAX_INFLIGHT: usize = 3;

/// Processes sharing one clock and one set of crash marks.
#[derive(Clone)]
struct World {
    clock: Rc<Cell<u64>>,
    crashed: Rc<RefCell<[bool; PROCS]>>,
}

/// One process of the [`World`].
#[derive(Clone)]
struct ProcEnv {
    world: World,
    pid: ProcId,
}

impl Env for ProcEnv {
    fn now(&self) -> u64 {
        self.world.clock.get()
    }
    fn pid(&self) -> ProcId {
        self.pid
    }
    fn observe(&self, _key: &'static str, _idx: u32, _value: i64) {}
    fn is_crashed(&self, p: ProcId) -> bool {
        self.world.crashed.borrow()[p.0]
    }
    fn handle(&self) -> Rc<dyn Env> {
        Rc::new(self.clone())
    }
}

/// The register under test, of either kind.
enum Reg {
    Atomic(SharedAtomic<i64>),
    Abortable(SharedAbortable<i64>),
}

/// What a completion returned.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Write(WriteOutcome),
    Read(ReadOutcome<i64>),
}

impl Reg {
    fn invoke(&self, env: &dyn Env, write: Option<i64>) -> OpToken {
        match (self, write) {
            (Reg::Atomic(r), Some(v)) => r.invoke_write(env, v),
            (Reg::Atomic(r), None) => r.invoke_read(env),
            (Reg::Abortable(r), Some(v)) => r.invoke_write(env, v),
            (Reg::Abortable(r), None) => r.invoke_read(env),
        }
    }

    fn complete(&self, env: &dyn Env, tok: OpToken, is_write: bool) -> Outcome {
        match (self, is_write) {
            (Reg::Atomic(r), true) => {
                r.complete_write(env, tok);
                Outcome::Write(WriteOutcome::Ok)
            }
            (Reg::Atomic(r), false) => Outcome::Read(ReadOutcome::Value(r.complete_read(env, tok))),
            (Reg::Abortable(r), true) => Outcome::Write(r.complete_write(env, tok)),
            (Reg::Abortable(r), false) => Outcome::Read(r.complete_read(env, tok)),
        }
    }
}

struct ModelOp {
    id: u64,
    proc: usize,
    overlapped: bool,
    payload: Option<i64>,
}

/// The reference register: every in-flight operation in one `Vec`,
/// crashed processes' operations dropped at the next invocation, and
/// (for an abortable register) two samples drawn at every response.
struct Model {
    value: i64,
    inflight: Vec<ModelOp>,
    next_id: u64,
    /// The abortable register's stream; `None` for an atomic register.
    rng: Option<StdRng>,
    abort: AbortPolicy,
    effect: EffectPolicy,
    gauges: [i64; PROCS],
    /// `(total, overlapped, aborted)`, as the operation log counts them.
    stats: (u64, u64, u64),
}

impl Model {
    fn invoke(&mut self, proc: usize, payload: Option<i64>, crashed: &[bool; PROCS]) -> u64 {
        let gauges = &mut self.gauges;
        self.inflight.retain(|o| {
            if crashed[o.proc] {
                gauges[o.proc] -= 1;
            }
            !crashed[o.proc]
        });
        let any = !self.inflight.is_empty();
        for o in &mut self.inflight {
            o.overlapped = true;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.push(ModelOp {
            id,
            proc,
            overlapped: any,
            payload,
        });
        self.gauges[proc] += 1;
        id
    }

    fn complete(&mut self, pos: usize) -> Outcome {
        let op = self.inflight.remove(pos);
        self.gauges[op.proc] -= 1;
        let (u_abort, u_effect) = match &mut self.rng {
            Some(rng) => (rng.random::<f64>(), rng.random::<f64>()),
            None => (1.0, 1.0),
        };
        let aborted = self.rng.is_some() && op.overlapped && self.abort.aborts(u_abort);
        self.stats.0 += 1;
        self.stats.1 += op.overlapped as u64;
        self.stats.2 += aborted as u64;
        match op.payload {
            Some(v) => {
                if !aborted || self.effect.takes_effect(u_effect) {
                    self.value = v;
                }
                Outcome::Write(if aborted {
                    WriteOutcome::Aborted
                } else {
                    WriteOutcome::Ok
                })
            }
            None => Outcome::Read(if aborted {
                ReadOutcome::Aborted
            } else {
                ReadOutcome::Value(self.value)
            }),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Act {
    /// Process `proc` invokes a write of `Some(v)` or a read.
    Invoke { proc: usize, write: Option<i64> },
    /// The `pick`-th live in-flight operation (mod their number) completes.
    Complete { pick: usize },
    /// Process `proc` crashes.
    Crash { proc: usize },
}

fn act() -> impl Strategy<Value = Act> {
    // Weights 4 : 4 : 1 for invocations, completions and crashes; half of
    // the invocations are writes.
    (0u32..9, 0..PROCS, 0i64..100, 0..MAX_INFLIGHT).prop_map(|(kind, proc, v, pick)| match kind {
        0..=3 => Act::Invoke {
            proc,
            write: (v < 50).then_some(v),
        },
        4..=7 => Act::Complete { pick },
        _ => Act::Crash { proc },
    })
}

fn policies() -> impl Strategy<Value = (AbortPolicy, EffectPolicy)> {
    prop_oneof![
        Just((AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never)),
        Just((
            AbortPolicy::AlwaysOnOverlap,
            EffectPolicy::Seeded { p_effect: 0.5 }
        )),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(p_abort, p_effect)| (
            AbortPolicy::Seeded { p_abort },
            EffectPolicy::Seeded { p_effect }
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn overlapping_operations_match_the_vec_model(
        abortable in prop::bool::ANY,
        (abort, effect) in policies(),
        seed in 0u64..1_000_000_000,
        init in -50i64..50,
        acts in prop::collection::vec(act(), 1..80),
    ) {
        let f = RegisterFactory::new(RegisterFactoryConfig { seed, abort_policy: abort, effect_policy: effect });
        // An atomic register created first must still take a seed: the
        // register under test is the factory's second, with counter 1.
        let _first = f.atomic("first", 0i64);
        let reg = if abortable {
            Reg::Abortable(f.abortable("R", init))
        } else {
            Reg::Atomic(f.atomic("R", init))
        };
        let own_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut model = Model {
            value: init,
            inflight: Vec::new(),
            next_id: 0,
            rng: abortable.then(|| StdRng::seed_from_u64(own_seed)),
            abort,
            effect,
            gauges: [0; PROCS],
            stats: (0, 0, 0),
        };
        let world = World { clock: Rc::new(Cell::new(0)), crashed: Rc::new(RefCell::new([false; PROCS])) };
        let env = |p: usize| ProcEnv { world: world.clone(), pid: ProcId(p) };
        let gauges: Vec<_> = (0..PROCS).map(|p| f.inflight_gauge(ProcId(p))).collect();
        for a in acts {
            let crashed = *world.crashed.borrow();
            match a {
                Act::Invoke { proc, write } => {
                    let live = model.inflight.iter().filter(|o| !crashed[o.proc]).count();
                    if crashed[proc] || live >= MAX_INFLIGHT {
                        continue;
                    }
                    let tok = reg.invoke(&env(proc), write);
                    let id = model.invoke(proc, write, &crashed);
                    prop_assert_eq!(tok, OpToken::new(id));
                }
                Act::Complete { pick } => {
                    let live: Vec<usize> = (0..model.inflight.len())
                        .filter(|&i| !crashed[model.inflight[i].proc])
                        .collect();
                    if live.is_empty() {
                        continue;
                    }
                    let pos = live[pick % live.len()];
                    let (id, proc, is_write) = {
                        let o = &model.inflight[pos];
                        (o.id, o.proc, o.payload.is_some())
                    };
                    let got = reg.complete(&env(proc), OpToken::new(id), is_write);
                    let want = model.complete(pos);
                    prop_assert_eq!(got, want);
                }
                Act::Crash { proc } => world.crashed.borrow_mut()[proc] = true,
            }
            world.clock.set(world.clock.get() + 1);
            let real_gauges: Vec<i64> = gauges.iter().map(|g| g.get()).collect();
            prop_assert_eq!(&real_gauges[..], &model.gauges[..]);
            prop_assert_eq!(f.log().abort_stats(), model.stats);
        }
    }
}
