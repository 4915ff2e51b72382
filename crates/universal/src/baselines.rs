//! Baselines the paper positions itself against (Sections 1.2 and 2).
//!
//! * [`invoke_obstruction_free`] — the query-abortable object used
//!   directly, with no coordination at all: obstruction-free, and under
//!   steady contention essentially no one makes progress.
//! * [`invoke_flms`] — a panic-flag booster in the style of Fich,
//!   Luchangco, Moir & Shavit \[7\]: on contention everyone publishes a
//!   timestamp and defers to the minimal one. It boosts
//!   obstruction-freedom to wait-freedom **when all correct processes are
//!   timely**, but it is not gracefully degrading: a single
//!   correct-but-slow timestamp holder stalls every timely process
//!   (experiment E5 reproduces the paper's Section 2 claim). This is a
//!   faithful-in-spirit simplification of \[7\] — same coordination
//!   structure (panic flag + minimal timestamp wins), without the
//!   bounded-timeout rotation refinements.
//! * [`CasUniversal`] — a Herlihy-style wait-free universal construction
//!   from compare-and-swap with helping via an announce array: the
//!   "strong synchronization primitives" alternative of Section 1.2.
//!   Wait-free for everyone regardless of timeliness, but built from an
//!   object strictly stronger than (abortable) registers.
//!
//! Each is an `async fn` in the form of [`invoke_tbwf`](crate::tbwf::invoke_tbwf):
//! every `.await` of [`step()`] is one step, every register operation one
//! helper call, and the response is returned when the operation completes.

use crate::object::ObjectType;
use crate::qa::{Entry, QaSession, Replica};
use crate::tbwf::Fig8;
use std::cell::RefCell;
use std::rc::Rc;
use tbwf_registers::{RegisterFactory, SharedAtomic, SharedCas};
use tbwf_sim::{step, Env, ProcId};

/// One operation on the query-abortable object with *no* coordination:
/// the plain obstruction-free baseline. The response arrives once the
/// operation completes; under contention this may spin for the whole run
/// (which is the point of the baseline). After a `⊥` or `F` the process
/// takes one step before the next invocation starts.
pub async fn invoke_obstruction_free<T: ObjectType>(
    env: &dyn Env,
    session: &mut QaSession<T>,
    op: T::Op,
) -> T::Resp {
    let mut fig8 = Fig8::new(op);
    loop {
        if let Some(v) = fig8.invoke(env, session).await {
            return v;
        }
        step().await;
    }
}

/// Timestamp value meaning "not waiting".
const TS_INF: i64 = i64::MAX;

/// Fast-path attempts before a process raises the panic flag.
const PANIC_THRESHOLD: u32 = 4;

/// Shared state of the FLMS-style panic booster.
pub struct FlmsShared {
    /// The panic flag: set when some process suspects contention.
    pub panic: SharedAtomic<bool>,
    /// `ts[p]`: the timestamp `p` is waiting with (`TS_INF` if none).
    pub ts: Vec<SharedAtomic<i64>>,
    /// Timestamp generator (read-increment-write; ties broken by id).
    pub ts_gen: SharedAtomic<i64>,
}

impl FlmsShared {
    /// Creates the booster's shared registers for `n` processes.
    pub fn new(factory: &RegisterFactory, n: usize) -> Rc<Self> {
        Rc::new(FlmsShared {
            panic: factory.atomic("FLMS.panic", false),
            ts: (0..n).map(|_| factory.atomic("FLMS.ts", TS_INF)).collect(),
            ts_gen: factory.atomic("FLMS.tsGen", 0),
        })
    }
}

/// One operation through the FLMS-style booster: fast path while the
/// panic flag is clear; on panic, publish a timestamp and proceed only as
/// the minimal waiter.
pub async fn invoke_flms<T: ObjectType>(
    env: &dyn Env,
    session: &mut QaSession<T>,
    shared: &FlmsShared,
    op: T::Op,
) -> T::Resp {
    let p = session.pid().0;
    let mut fig8 = Fig8::new(op);
    let mut attempts = 0;
    let mut my_ts = None;
    loop {
        // Every pass of the retry loop starts with a step.
        step().await;
        let slow = shared.panic.read(env).await;
        if slow {
            // Panic mode: publish a timestamp once. The read+write on
            // ts_gen is not atomic, so two processes may acquire the same
            // timestamp; the minimal-waiter comparison tie-breaks on
            // (ts, id), which keeps the winner unique.
            let ts = match my_ts {
                Some(ts) => ts,
                None => {
                    let t = shared.ts_gen.read(env).await;
                    shared.ts_gen.write(env, t + 1).await;
                    shared.ts[p].write(env, t).await;
                    my_ts = Some(t);
                    t
                }
            };
            // Proceed only while holding the minimal (ts, id). This wait
            // is exactly what makes the booster non-gracefully-degrading:
            // the minimal holder may be arbitrarily slow.
            let mut min = (ts, p);
            for (q, ts_q) in shared.ts.iter().enumerate() {
                let tq = ts_q.read(env).await;
                if tq != TS_INF && (tq, q) < min {
                    min = (tq, q);
                }
            }
            if min != (ts, p) {
                continue;
            }
        }
        // Fast path, or the minimal waiter: try the obstruction-free
        // object.
        if let Some(v) = fig8.invoke(env, session).await {
            // Withdraw the timestamp (and, in panic mode, the flag)
            // before returning.
            if my_ts.is_some() {
                shared.ts[p].write(env, TS_INF).await;
                if slow {
                    shared.panic.write(env, false).await;
                }
            }
            return v;
        }
        if !slow {
            attempts += 1;
            if attempts > PANIC_THRESHOLD {
                shared.panic.write(env, true).await;
            }
        }
    }
}

/// Herlihy-style wait-free universal construction from CAS, with helping.
pub struct CasUniversal<T: ObjectType> {
    ty: Rc<T>,
    n: usize,
    factory: Rc<RegisterFactory>,
    announce: Vec<SharedAtomic<Option<Entry<T::Op>>>>,
    decisions: RefCell<Vec<DecisionReg<T>>>,
}

/// One slot's decision register in the CAS construction.
type DecisionReg<T> = SharedCas<Option<Entry<<T as ObjectType>::Op>>>;

impl<T: ObjectType> CasUniversal<T> {
    /// Creates the shared object for `n` processes.
    pub fn new(ty: T, n: usize, factory: Rc<RegisterFactory>) -> Rc<Self> {
        let announce = (0..n).map(|_| factory.atomic("Announce", None)).collect();
        Rc::new(CasUniversal {
            ty: Rc::new(ty),
            n,
            factory,
            announce,
            decisions: RefCell::new(Vec::new()),
        })
    }

    fn decision(&self, s: usize) -> DecisionReg<T> {
        let mut d = self.decisions.borrow_mut();
        while d.len() <= s {
            d.push(self.factory.cas("Decide", None));
        }
        Rc::clone(&d[s])
    }

    /// Opens a session for process `p`.
    pub fn session(self: &Rc<Self>, p: ProcId) -> CasSession<T> {
        CasSession {
            obj: Rc::clone(self),
            p,
            replica: Replica::new(&self.ty, self.n),
            my_seq: 0,
        }
    }
}

/// Per-process handle on a [`CasUniversal`] object.
pub struct CasSession<T: ObjectType> {
    obj: Rc<CasUniversal<T>>,
    p: ProcId,
    replica: Replica<T>,
    my_seq: u64,
}

impl<T: ObjectType> CasSession<T> {
    /// Executes `op` and returns its response. Wait-free for every
    /// process that keeps taking steps, via announce-array helping — but
    /// requires CAS, a strong primitive.
    pub async fn apply(&mut self, env: &dyn Env, op: T::Op) -> T::Resp {
        let me = self.p.0;
        self.my_seq += 1;
        let mine = Entry {
            proposer: self.p,
            seq: self.my_seq,
            op,
        };
        self.obj.announce[me].write(env, Some(mine.clone())).await;
        loop {
            // Replay decided slots.
            let d = self.obj.decision(self.replica.len());
            if let Some(e) = d.read(env).await {
                self.replica.replay(&e);
                continue;
            }
            if let Some(resp) = self.replica.response(self.p, mine.seq) {
                let resp = resp.clone();
                self.obj.announce[me].write(env, None).await;
                return resp;
            }
            // Decide the frontier slot, helping the slot's owner.
            let owner = self.replica.len() % self.obj.n;
            let cand = match self.obj.announce[owner].read(env).await {
                Some(e) if !self.replica.applied(&e) => e,
                _ => mine.clone(),
            };
            // The slot is now decided (by us or a racer): replay on.
            let _ = d.compare_and_swap(env, &None, Some(cand)).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp};
    use crate::qa::QaObject;
    use tbwf_registers::RegisterFactoryConfig;
    use tbwf_sim::FreeRunEnv;

    fn factory() -> Rc<RegisterFactory> {
        Rc::new(RegisterFactory::new(RegisterFactoryConfig::default()))
    }

    #[test]
    fn obstruction_free_driver_completes_solo() {
        let obj = QaObject::new(Counter, 2, factory());
        let env = FreeRunEnv::new(ProcId(0));
        let mut s = obj.session(ProcId(0));
        for i in 1..=10 {
            let v = env.run_solo(invoke_obstruction_free(&env, &mut s, CounterOp::Inc));
            assert_eq!(v, i);
        }
    }

    #[test]
    fn cas_universal_sequential_sessions() {
        let f = factory();
        let obj = CasUniversal::new(Counter, 2, f);
        let env0 = FreeRunEnv::new(ProcId(0));
        let env1 = FreeRunEnv::new(ProcId(1));
        let mut s0 = obj.session(ProcId(0));
        let mut s1 = obj.session(ProcId(1));
        let mut responses = Vec::new();
        for i in 0..10 {
            let (s, env) = if i % 2 == 0 {
                (&mut s0, &env0)
            } else {
                (&mut s1, &env1)
            };
            responses.push(env.run_solo(s.apply(env, CounterOp::Inc)));
        }
        let mut sorted = responses.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=10).collect::<Vec<i64>>());
    }

    #[test]
    fn flms_solo_completes() {
        let f = factory();
        let obj = QaObject::new(Counter, 2, Rc::clone(&f));
        let shared = FlmsShared::new(&f, 2);
        let env = FreeRunEnv::new(ProcId(0));
        let mut s = obj.session(ProcId(0));
        for i in 1..=5 {
            let v = env.run_solo(invoke_flms(&env, &mut s, &shared, CounterOp::Inc));
            assert_eq!(v, i);
        }
    }
}
