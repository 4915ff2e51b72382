//! Baselines the paper positions itself against (Sections 1.2 and 2).
//!
//! * [`ObstructionFreeCall`] — the query-abortable object used
//!   directly, with no coordination at all: obstruction-free, and under
//!   steady contention essentially no one makes progress.
//! * [`FlmsCall`] — a panic-flag booster in the style of Fich,
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
//! Like [`TbwfCall`](crate::tbwf::TbwfCall), each driver is a poll
//! machine: `poll` runs one segment of the operation and returns the
//! response when it completes; the caller takes one step per `None`.

use crate::object::ObjectType;
use crate::qa::{Entry, QaSession};
use crate::tbwf::Fig8;
use parking_lot::Mutex;
use std::sync::Arc;
use tbwf_registers::{OpToken, RegisterFactory, SharedAtomic, SharedCas};
use tbwf_sim::{Env, ProcId};

/// One operation on the query-abortable object with *no* coordination:
/// the plain obstruction-free baseline. The response arrives once the
/// operation completes; under contention this may spin for the whole run
/// (which is the point of the baseline).
pub struct ObstructionFreeCall<T: ObjectType> {
    fig8: Fig8<T>,
    in_flight: bool,
}

impl<T: ObjectType> ObstructionFreeCall<T> {
    /// Prepares `op`.
    pub fn new(op: T::Op) -> Self {
        ObstructionFreeCall {
            fig8: Fig8::new(op),
            in_flight: false,
        }
    }

    /// Runs one segment; returns the response when the operation has
    /// completed. After a `⊥` or `F` the process takes one step before
    /// the next invocation starts.
    pub fn poll(&mut self, env: &dyn Env, session: &mut QaSession<T>) -> Option<T::Resp> {
        if !self.in_flight {
            self.fig8.begin(session);
            self.in_flight = true;
        }
        let resp = self.fig8.poll(env, session)?;
        self.in_flight = false;
        resp
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
    pub fn new(factory: &RegisterFactory, n: usize) -> Arc<Self> {
        Arc::new(FlmsShared {
            panic: factory.atomic("FLMS.panic", false),
            ts: (0..n)
                .map(|q| factory.atomic(&format!("FLMS.ts[{q}]"), TS_INF))
                .collect(),
            ts_gen: factory.atomic("FLMS.tsGen", 0),
        })
    }
}

/// Where an [`FlmsCall`] is parked between segments. `Pending` register
/// operations carry the token of the invocation made at the end of the
/// previous segment.
enum FlmsState {
    /// First segment of the call.
    Start,
    /// Top of the retry loop, after its step: read the panic flag.
    Top,
    /// The panic-flag read is in flight.
    PanicRead(OpToken),
    /// An `op`/`query` invocation is in flight (`slow`: in panic mode).
    Drive { slow: bool },
    /// Raising the panic flag is in flight.
    PanicSet(OpToken),
    /// Panic mode registration: the `ts_gen` read is in flight.
    GenRead(OpToken),
    /// Registration: the `ts_gen` increment of `t` is in flight.
    GenWrite(OpToken, i64),
    /// Registration: publishing `ts[p] = t` is in flight.
    TsWrite(OpToken, i64),
    /// The minimal-waiter scan: the read of `ts[q]` is in flight.
    MinRead(usize, OpToken),
    /// After a response: clearing `ts[p]` is in flight (`slow`: the
    /// panic flag is cleared next).
    ClearTs { tok: OpToken, slow: bool },
    /// After a panic-mode response: clearing the panic flag is in flight.
    ClearPanic(OpToken),
}

/// One operation through the FLMS-style booster: fast path while the
/// panic flag is clear; on panic, publish a timestamp and proceed only as
/// the minimal waiter.
pub struct FlmsCall<T: ObjectType> {
    shared: Arc<FlmsShared>,
    fig8: Fig8<T>,
    attempts: u32,
    registered: bool,
    my_ts: i64,
    min: (i64, usize),
    resp: Option<T::Resp>,
    state: FlmsState,
}

impl<T: ObjectType> FlmsCall<T> {
    /// Prepares `op` against the booster's shared registers.
    pub fn new(shared: Arc<FlmsShared>, op: T::Op) -> Self {
        FlmsCall {
            shared,
            fig8: Fig8::new(op),
            attempts: 0,
            registered: false,
            my_ts: TS_INF,
            min: (TS_INF, 0),
            resp: None,
            state: FlmsState::Start,
        }
    }

    /// Starts an `op`/`query` invocation and runs its first segment.
    fn begin_drive(
        &mut self,
        env: &dyn Env,
        session: &mut QaSession<T>,
        slow: bool,
    ) -> Option<T::Resp> {
        self.fig8.begin(session);
        self.state = FlmsState::Drive { slow };
        self.drive(env, session, slow)
    }

    /// One segment of the in-flight invocation and what follows it.
    fn drive(&mut self, env: &dyn Env, session: &mut QaSession<T>, slow: bool) -> Option<T::Resp> {
        match self.fig8.poll(env, session)? {
            Some(v) if self.registered => {
                // Withdraw the timestamp (and, in panic mode, the flag)
                // before returning.
                let tok = self.shared.ts[session.pid().0].invoke_write(env, TS_INF);
                self.resp = Some(v);
                self.state = FlmsState::ClearTs { tok, slow };
                return None;
            }
            Some(v) => return Some(v),
            None => {}
        }
        if !slow {
            self.attempts += 1;
            if self.attempts > PANIC_THRESHOLD {
                let tok = self.shared.panic.invoke_write(env, true);
                self.state = FlmsState::PanicSet(tok);
                return None;
            }
        }
        // Not minimal, or the attempt failed: wait. This wait is exactly
        // what makes the booster non-gracefully-degrading — the minimal
        // holder may be arbitrarily slow.
        self.state = FlmsState::Top;
        None
    }

    /// The minimal-waiter scan from `q`: read every `ts[q]` and proceed
    /// only while holding the minimal `(ts, id)`.
    fn scan_from(
        &mut self,
        env: &dyn Env,
        session: &mut QaSession<T>,
        q: usize,
    ) -> Option<T::Resp> {
        let p = session.pid().0;
        if q == 0 {
            self.min = (self.my_ts, p);
        }
        if q < self.shared.ts.len() {
            let tok = self.shared.ts[q].invoke_read(env);
            self.state = FlmsState::MinRead(q, tok);
            return None;
        }
        if self.min == (self.my_ts, p) {
            return self.begin_drive(env, session, true);
        }
        self.state = FlmsState::Top;
        None
    }

    /// Runs one segment; returns the response when the operation has
    /// completed.
    pub fn poll(&mut self, env: &dyn Env, session: &mut QaSession<T>) -> Option<T::Resp> {
        let p = session.pid().0;
        let shared = Arc::clone(&self.shared);
        match self.state {
            // Every pass of the retry loop starts with a step.
            FlmsState::Start => {
                self.state = FlmsState::Top;
                None
            }
            FlmsState::Top => {
                self.state = FlmsState::PanicRead(shared.panic.invoke_read(env));
                None
            }
            FlmsState::PanicRead(tok) => {
                if !shared.panic.complete_read(env, tok) {
                    // Fast path: try the obstruction-free object directly.
                    return self.begin_drive(env, session, false);
                }
                // Panic mode: publish a timestamp once. The read+write on
                // ts_gen is not atomic, so two processes may acquire the
                // same timestamp; the minimal-waiter comparison tie-breaks
                // on (ts, id), which keeps the winner unique.
                if !self.registered {
                    self.state = FlmsState::GenRead(shared.ts_gen.invoke_read(env));
                    return None;
                }
                self.scan_from(env, session, 0)
            }
            FlmsState::Drive { slow } => self.drive(env, session, slow),
            FlmsState::PanicSet(tok) => {
                shared.panic.complete_write(env, tok);
                self.state = FlmsState::Top;
                None
            }
            FlmsState::GenRead(tok) => {
                let t = shared.ts_gen.complete_read(env, tok);
                self.state = FlmsState::GenWrite(shared.ts_gen.invoke_write(env, t + 1), t);
                None
            }
            FlmsState::GenWrite(tok, t) => {
                shared.ts_gen.complete_write(env, tok);
                self.state = FlmsState::TsWrite(shared.ts[p].invoke_write(env, t), t);
                None
            }
            FlmsState::TsWrite(tok, t) => {
                shared.ts[p].complete_write(env, tok);
                self.my_ts = t;
                self.registered = true;
                self.scan_from(env, session, 0)
            }
            FlmsState::MinRead(q, tok) => {
                let tq = shared.ts[q].complete_read(env, tok);
                if tq != TS_INF && (tq, q) < self.min {
                    self.min = (tq, q);
                }
                self.scan_from(env, session, q + 1)
            }
            FlmsState::ClearTs { tok, slow } => {
                shared.ts[p].complete_write(env, tok);
                if slow {
                    self.state = FlmsState::ClearPanic(shared.panic.invoke_write(env, false));
                    return None;
                }
                self.resp.take()
            }
            FlmsState::ClearPanic(tok) => {
                shared.panic.complete_write(env, tok);
                self.resp.take()
            }
        }
    }
}

/// Herlihy-style wait-free universal construction from CAS, with helping.
pub struct CasUniversal<T: ObjectType> {
    ty: Arc<T>,
    n: usize,
    factory: Arc<RegisterFactory>,
    announce: Vec<SharedAtomic<Option<Entry<T::Op>>>>,
    decisions: Mutex<Vec<DecisionReg<T>>>,
}

/// One slot's decision register in the CAS construction.
type DecisionReg<T> = SharedCas<Option<Entry<<T as ObjectType>::Op>>>;

impl<T: ObjectType> CasUniversal<T> {
    /// Creates the shared object for `n` processes.
    pub fn new(ty: T, n: usize, factory: Arc<RegisterFactory>) -> Arc<Self> {
        let announce = (0..n)
            .map(|q| factory.atomic(&format!("Announce[{q}]"), None))
            .collect();
        Arc::new(CasUniversal {
            ty: Arc::new(ty),
            n,
            factory,
            announce,
            decisions: Mutex::new(Vec::new()),
        })
    }

    fn decision(&self, s: usize) -> DecisionReg<T> {
        let mut d = self.decisions.lock();
        while d.len() <= s {
            let i = d.len();
            d.push(self.factory.cas(&format!("Decide[{i}]"), None));
        }
        Arc::clone(&d[s])
    }

    /// Opens a session for process `p`.
    pub fn session(self: &Arc<Self>, p: ProcId) -> CasSession<T> {
        CasSession {
            obj: Arc::clone(self),
            p,
            replica: self.ty.initial(),
            last_of: vec![None; self.n],
            cursor: 0,
            my_seq: 0,
            mine: None,
            resp: None,
            state: CasState::Idle,
        }
    }
}

/// Where a [`CasSession`]'s operation is parked between segments; each
/// register operation in flight carries its token.
enum CasState<T: ObjectType> {
    /// No operation in flight.
    Idle,
    /// Announcing the own entry.
    Announce(OpToken),
    /// Reading the decision of slot `cursor` (register held here).
    Decision(DecisionReg<T>, OpToken),
    /// Reading the announcement of the frontier slot's owner.
    Help(OpToken),
    /// Compare-and-swap of `cand` into the frontier slot.
    Cas(DecisionReg<T>, OpToken, Entry<T::Op>),
    /// Clearing the own announcement before returning.
    Unannounce(OpToken),
}

/// Per-process handle on a [`CasUniversal`] object.
pub struct CasSession<T: ObjectType> {
    obj: Arc<CasUniversal<T>>,
    p: ProcId,
    replica: T::State,
    last_of: Vec<Option<(u64, T::Resp)>>,
    cursor: usize,
    my_seq: u64,
    mine: Option<Entry<T::Op>>,
    resp: Option<T::Resp>,
    state: CasState<T>,
}

impl<T: ObjectType> CasSession<T> {
    fn applied(&self, e: &Entry<T::Op>) -> bool {
        self.last_of[e.proposer.0]
            .as_ref()
            .is_some_and(|(seq, _)| *seq >= e.seq)
    }

    fn replay_one(&mut self, e: Entry<T::Op>) {
        if !self.applied(&e) {
            let resp = self.obj.ty.apply(&mut self.replica, &e.op);
            self.last_of[e.proposer.0] = Some((e.seq, resp));
        }
        self.cursor += 1;
    }

    /// Starts executing `op`, driven by [`CasSession::poll_op`]. Wait-free
    /// for every process that keeps taking steps, via announce-array
    /// helping — but requires CAS, a strong primitive.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_apply(&mut self, op: T::Op) {
        assert!(
            matches!(self.state, CasState::Idle),
            "begin_apply while an operation is in flight"
        );
        self.my_seq += 1;
        self.mine = Some(Entry {
            proposer: self.p,
            seq: self.my_seq,
            op,
        });
    }

    /// Replays decided slots: invokes the read of slot `cursor`'s
    /// decision.
    fn read_decision(&mut self, env: &dyn Env) {
        let d = self.obj.decision(self.cursor);
        let tok = d.invoke(env);
        self.state = CasState::Decision(d, tok);
    }

    /// Runs one segment of the operation; returns its response when it
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if no operation was started with [`CasSession::begin_apply`].
    pub fn poll_op(&mut self, env: &dyn Env) -> Option<T::Resp> {
        let me = self.p.0;
        match std::mem::replace(&mut self.state, CasState::Idle) {
            CasState::Idle => {
                let mine = self.mine.clone().expect("begin_apply before poll_op");
                let tok = self.obj.announce[me].invoke_write(env, Some(mine));
                self.state = CasState::Announce(tok);
            }
            CasState::Announce(tok) => {
                self.obj.announce[me].complete_write(env, tok);
                self.read_decision(env);
            }
            CasState::Decision(d, tok) => {
                if let Some(e) = d.complete_read(env, tok) {
                    self.replay_one(e);
                    self.read_decision(env);
                    return None;
                }
                let seq = self.mine.as_ref().expect("operation in flight").seq;
                if let Some((s, resp)) = &self.last_of[me] {
                    if *s == seq {
                        self.resp = Some(resp.clone());
                        let tok = self.obj.announce[me].invoke_write(env, None);
                        self.state = CasState::Unannounce(tok);
                        return None;
                    }
                }
                // Decide the frontier slot, helping the slot's owner.
                let owner = self.cursor % self.obj.n;
                self.state = CasState::Help(self.obj.announce[owner].invoke_read(env));
            }
            CasState::Help(tok) => {
                let owner = self.cursor % self.obj.n;
                let cand = match self.obj.announce[owner].complete_read(env, tok) {
                    Some(e) if !self.applied(&e) => e,
                    _ => self.mine.clone().expect("operation in flight"),
                };
                let d = self.obj.decision(self.cursor);
                let tok = d.invoke(env);
                self.state = CasState::Cas(d, tok, cand);
            }
            CasState::Cas(d, tok, cand) => {
                let _ = d.complete_cas(env, tok, &None, Some(cand));
                // The slot is now decided (by us or a racer): replay on.
                self.read_decision(env);
            }
            CasState::Unannounce(tok) => {
                self.obj.announce[me].complete_write(env, tok);
                self.mine = None;
                return self.resp.take();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp};
    use crate::qa::QaObject;
    use tbwf_registers::RegisterFactoryConfig;
    use tbwf_sim::FreeRunEnv;

    fn factory() -> Arc<RegisterFactory> {
        Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()))
    }

    /// Polls until `poll` answers, one step of the caller per `None`.
    fn solo<R>(env: &FreeRunEnv, mut poll: impl FnMut(&FreeRunEnv) -> Option<R>) -> R {
        loop {
            if let Some(r) = poll(env) {
                return r;
            }
            env.advance();
        }
    }

    #[test]
    fn obstruction_free_driver_completes_solo() {
        let obj = QaObject::new(Counter, 2, factory());
        let env = FreeRunEnv::new(ProcId(0));
        let mut s = obj.session(ProcId(0));
        for i in 1..=10 {
            let mut call = ObstructionFreeCall::new(CounterOp::Inc);
            let v = solo(&env, |env| call.poll(env, &mut s));
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
            s.begin_apply(CounterOp::Inc);
            responses.push(solo(env, |env| s.poll_op(env)));
        }
        let mut sorted = responses.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=10).collect::<Vec<i64>>());
    }

    #[test]
    fn flms_solo_completes() {
        let f = factory();
        let obj = QaObject::new(Counter, 2, Arc::clone(&f));
        let shared = FlmsShared::new(&f, 2);
        let env = FreeRunEnv::new(ProcId(0));
        let mut s = obj.session(ProcId(0));
        for i in 1..=5 {
            let mut call = FlmsCall::new(Arc::clone(&shared), CounterOp::Inc);
            let v = solo(&env, |env| call.poll(env, &mut s));
            assert_eq!(v, i);
        }
    }
}
