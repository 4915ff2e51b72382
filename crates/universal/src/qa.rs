//! A wait-free **query-abortable universal construction** from abortable
//! registers.
//!
//! This is the workspace's substitute for the universal construction of
//! reference \[2\] of the paper (whose details are in a different PODC'07
//! paper). It provides, for any [`ObjectType`] `T`, an object `O_QA` of
//! the *query-abortable counterpart* type `T_QA`:
//!
//! * **wait-free** — every `apply`/`query` invocation returns after a
//!   finite number of the caller's own steps (possibly `⊥`);
//! * **abortable** — `⊥` is returned only when the invocation was
//!   concurrent with other work (some register operation aborted, or the
//!   consensus round was contended); an invocation that runs while no
//!   other process takes steps *succeeds or permanently advances*, and
//!   solo invocations eventually succeed — the property the elected
//!   leader of Figure 7 relies on;
//! * **linearizable with fate reporting** — effective operations form a
//!   single total order (the decided-slot log) and `query` reports, for
//!   the caller's last operation: the response (if it took effect), `F`
//!   (if it can never take effect), or `⊥` (undetermined).
//!
//! # Construction
//!
//! The object is a replicated log of *slots*, each decided by a
//! round-based adopt-commit agreement over abortable registers:
//!
//! * slot `s` has a decision register `D[s]` and rounds `r = 0, 1, …`,
//!   each with per-process proposal registers `A[s][r][q]` and
//!   adopt/commit registers `B[s][r][q]` (single-writer, multi-reader);
//! * a process proposes its pending entry `(p, seq, op)` — or a value
//!   adopted from an earlier round — one round per invocation: write
//!   `A[s][r][p]`; read all `A`; write `B[s][r][p] = (commit?, v)` where
//!   `commit?` holds iff every written `A` equals the own proposal; read
//!   all `B`; **commit** `w` iff every written `B` is `(commit, w)`;
//! * processes participate in the rounds of a slot strictly in order
//!   (memoizing their `A`/`B` values so retries after aborts are
//!   idempotent), which gives the adopt-commit chain property: once `w`
//!   is committed at round `r`, every process that reaches a later round
//!   carries `w`, so a slot never decides two values;
//! * an aborted write "may or may not take effect"; safety is preserved
//!   because retried writes rewrite the *same* memoized value, and a
//!   process records which slots it *exposed* its entry to (any write
//!   attempt counts): `query` answers `F` only when every exposed slot is
//!   decided against the entry — after which the entry can never be
//!   decided (its registers exist only in closed slots).
//!
//! Sessions replay the decided prefix into a local `Replica`, whose
//! `lastOf[q] = (seq, resp)` table both responses and `query` answers are
//! read from. A duplicate-suppression guard (`seq` monotone per proposer)
//! makes re-decided ghost entries harmless in depth.
//!
//! # Invocations
//!
//! [`QaSession::apply`] and [`QaSession::query`] are `async fn`s written
//! as the construction reads: catch up on the log, answer if the fate of
//! the pending operation is known, otherwise run one adopt-commit round
//! and, after a commit, catch up once more. Each register operation is one
//! `try_read`/`try_write` call, i.e. an invocation step and a response
//! step; the local code between two of them runs within one step.

use crate::object::{ObjectType, Outcome};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use tbwf_registers::{ReadOutcome, RegisterFactory, SharedAbortable};
use tbwf_sim::{Env, ProcId};

/// A log entry: one operation instance of one process.
#[derive(Clone, PartialEq, Debug)]
pub struct Entry<Op> {
    /// The proposing process.
    pub proposer: ProcId,
    /// The proposer's sequence number for this operation.
    pub seq: u64,
    /// The operation.
    pub op: Op,
}

/// A process's replay of a decided log: the object state after the
/// first [`Replica::len`] entries and, per proposer, the sequence number
/// and response of its last applied entry (`lastOf`).
///
/// Replay suppresses duplicates: an entry whose `seq` is not above its
/// proposer's `lastOf` leaves the state alone, so an operation decided in
/// two slots takes effect once. Shared by [`QaSession`] and the CAS
/// baseline's session.
pub(crate) struct Replica<T: ObjectType> {
    ty: Rc<T>,
    state: T::State,
    last_of: Vec<Option<(u64, T::Resp)>>,
    len: usize,
}

impl<T: ObjectType> Replica<T> {
    /// The empty log's replica for `n` proposers.
    pub(crate) fn new(ty: &Rc<T>, n: usize) -> Self {
        Replica {
            state: ty.initial(),
            ty: Rc::clone(ty),
            last_of: vec![None; n],
            len: 0,
        }
    }

    /// Number of log entries replayed: the index of the next one.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `e` (or a later operation of its proposer) was applied.
    pub(crate) fn applied(&self, e: &Entry<T::Op>) -> bool {
        self.last_of[e.proposer.0]
            .as_ref()
            .is_some_and(|(seq, _)| *seq >= e.seq)
    }

    /// Replays the next log entry `e`.
    pub(crate) fn replay(&mut self, e: &Entry<T::Op>) {
        if !self.applied(e) {
            let resp = self.ty.apply(&mut self.state, &e.op);
            self.last_of[e.proposer.0] = Some((e.seq, resp));
        }
        self.len += 1;
    }

    /// The response of operation `seq` of `p`, if it is the last of `p`'s
    /// operations applied so far.
    pub(crate) fn response(&self, p: ProcId, seq: u64) -> Option<&T::Resp> {
        match &self.last_of[p.0] {
            Some((s, resp)) if *s == seq => Some(resp),
            _ => None,
        }
    }
}

type BVal<Op> = (bool, Entry<Op>);

struct RoundRegs<Op> {
    a: Vec<SharedAbortable<Option<Entry<Op>>>>,
    b: Vec<SharedAbortable<Option<BVal<Op>>>>,
}

struct SlotRegs<Op> {
    d: SharedAbortable<Option<Entry<Op>>>,
    rounds: RefCell<Vec<Rc<RoundRegs<Op>>>>,
}

/// The shared part of the query-abortable object: its register space.
///
/// ```
/// use std::rc::Rc;
/// use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
/// use tbwf_sim::{FreeRunEnv, ProcId};
/// use tbwf_universal::object::{Counter, CounterOp};
/// use tbwf_universal::{Outcome, QaObject};
///
/// let factory = Rc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
/// let obj = QaObject::new(Counter, 2, factory);
/// let mut session = obj.session(ProcId(0));
/// let env = FreeRunEnv::new(ProcId(0));
/// // Solo, fresh slot: the very first attempt succeeds. `run_solo` takes
/// // one step of the caller whenever the invocation awaits one.
/// let out = env.run_solo(session.apply(&env, CounterOp::Inc));
/// assert_eq!(out, Outcome::Done(1));
/// ```
pub struct QaObject<T: ObjectType> {
    ty: Rc<T>,
    n: usize,
    factory: Rc<RegisterFactory>,
    slots: RefCell<Vec<Rc<SlotRegs<T::Op>>>>,
}

impl<T: ObjectType> QaObject<T> {
    /// Creates the shared object for `n` processes, allocating registers
    /// lazily from `factory`.
    pub fn new(ty: T, n: usize, factory: Rc<RegisterFactory>) -> Rc<Self> {
        Rc::new(QaObject {
            ty: Rc::new(ty),
            n,
            factory,
            slots: RefCell::new(Vec::new()),
        })
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sequential type instance.
    pub fn ty(&self) -> &T {
        &self.ty
    }

    fn slot(&self, s: usize) -> Rc<SlotRegs<T::Op>> {
        let mut slots = self.slots.borrow_mut();
        while slots.len() <= s {
            let i = slots.len();
            slots.push(Rc::new(SlotRegs {
                d: self.factory.abortable(&format!("D[{i}]"), None),
                rounds: RefCell::new(Vec::new()),
            }));
        }
        Rc::clone(&slots[s])
    }

    fn round(&self, slot_idx: usize, slot: &SlotRegs<T::Op>, r: usize) -> Rc<RoundRegs<T::Op>> {
        let mut rounds = slot.rounds.borrow_mut();
        while rounds.len() <= r {
            let ri = rounds.len();
            let a = (0..self.n)
                .map(|q| {
                    self.factory.abortable_swmr(
                        &format!("A[{slot_idx}][{ri}][{q}]"),
                        None,
                        ProcId(q),
                    )
                })
                .collect();
            let b = (0..self.n)
                .map(|q| {
                    self.factory.abortable_swmr(
                        &format!("B[{slot_idx}][{ri}][{q}]"),
                        None,
                        ProcId(q),
                    )
                })
                .collect();
            rounds.push(Rc::new(RoundRegs { a, b }));
        }
        Rc::clone(&rounds[r])
    }

    /// Opens a session for process `p`. Each process must use exactly one
    /// session for the lifetime of the object.
    pub fn session(self: &Rc<Self>, p: ProcId) -> QaSession<T> {
        QaSession {
            obj: Rc::clone(self),
            p,
            replica: Replica::new(&self.ty, self.n),
            my_seq: 0,
            pending: None,
            cur_round: 0,
            adopted: None,
            a_val: None,
            a_written: false,
            b_val: None,
            b_written: false,
            known_decided: BTreeMap::new(),
            last_fate: None,
        }
    }
}

struct PendingOp<Op> {
    seq: u64,
    op: Op,
    /// Slots in which the entry was (possibly) written to an `A` register.
    exposed: BTreeSet<usize>,
}

/// One process's handle on a [`QaObject`]: its replica, pending operation
/// and consensus-round state.
pub struct QaSession<T: ObjectType> {
    obj: Rc<QaObject<T>>,
    p: ProcId,
    /// The replayed log; its length is the *frontier slot*, the first
    /// slot this session does not know to be decided.
    replica: Replica<T>,
    my_seq: u64,
    pending: Option<PendingOp<T::Op>>,
    // --- adopt-commit state for the frontier slot ---
    cur_round: usize,
    adopted: Option<Entry<T::Op>>,
    a_val: Option<Entry<T::Op>>,
    a_written: bool,
    b_val: Option<BVal<T::Op>>,
    b_written: bool,
    /// Commits we performed whose `D` write may not have taken effect.
    known_decided: BTreeMap<usize, Entry<T::Op>>,
    /// The fate of the last resolved operation, so `query` keeps
    /// answering for it after resolution (footnote 3: query reports the
    /// fate of the last non-query operation).
    last_fate: Option<Outcome<T::Resp>>,
}

impl<T: ObjectType> QaSession<T> {
    /// The owning process.
    pub fn pid(&self) -> ProcId {
        self.p
    }

    /// A read-only view of the replica (the state after all decided
    /// operations this session has replayed).
    pub fn replica(&self) -> &T::State {
        &self.replica.state
    }

    /// Number of decided slots this session has replayed.
    pub fn decided_len(&self) -> usize {
        self.replica.len()
    }

    fn reset_round_state(&mut self) {
        self.a_val = None;
        self.a_written = false;
        self.b_val = None;
        self.b_written = false;
    }

    /// Replays the decision of the frontier slot; the next slot's rounds
    /// start afresh.
    fn apply_decided(&mut self, e: Entry<T::Op>) {
        self.replica.replay(&e);
        self.cur_round = 0;
        self.adopted = None;
        self.reset_round_state();
    }

    /// Resolves the pending operation if the replica has applied it.
    fn check_resolved(&mut self) -> Option<Outcome<T::Resp>> {
        let pend = self.pending.as_ref()?;
        let r = self.replica.response(self.p, pend.seq)?.clone();
        self.pending = None;
        self.last_fate = Some(Outcome::Done(r.clone()));
        Some(Outcome::Done(r))
    }

    /// `apply(op)`: one bounded attempt at `op`.
    ///
    /// Returns [`Outcome::Done`] and the response if the operation took
    /// effect during the invocation, or [`Outcome::Bot`] if it aborted —
    /// in which case the caller must `query` its fate before doing
    /// anything else, exactly as in Figure 8. Applying the *same*
    /// operation again resumes the attempt; this is what a caller that
    /// does not care about `⊥` semantics may do, and it is also safe.
    ///
    /// # Panics
    ///
    /// Panics if a *different* operation is still pending (protocol
    /// misuse: its fate must be resolved through `query` first).
    pub async fn apply(&mut self, env: &dyn Env, op: T::Op) -> Outcome<T::Resp> {
        match &self.pending {
            None => {
                self.my_seq += 1;
                self.pending = Some(PendingOp {
                    seq: self.my_seq,
                    op,
                    exposed: BTreeSet::new(),
                });
            }
            Some(pend) => {
                assert!(
                    pend.op == op,
                    "apply() while a different operation is pending; query() its fate first"
                );
            }
        }
        self.invoke(env, false).await
    }

    /// `query`: one bounded attempt to determine the fate of the last
    /// `apply`. Returns `Done(resp)` if the operation took effect,
    /// `NoEffect` if it can never take effect, and `Bot` if undetermined
    /// (try again).
    ///
    /// Besides reading the log, `query` *participates* in one consensus
    /// round of the slot the pending operation is exposed to. This is
    /// what makes the Figure 8 driver live: a solo process looping on
    /// `query` pushes the exposed slot to a decision, after which the
    /// fate is determined (`Done` or `F`). It cannot create *new*
    /// exposures: a fresh proposal is only made in a slot the entry was
    /// already exposed to — if all exposures are closed, `query` answers
    /// `F` before proposing anywhere.
    pub async fn query(&mut self, env: &dyn Env) -> Outcome<T::Resp> {
        self.invoke(env, true).await
    }

    /// The body of `apply` and `query`. A committed round is followed by
    /// a second catch-up, so the loop runs at most twice.
    async fn invoke(&mut self, env: &dyn Env, query: bool) -> Outcome<T::Resp> {
        let mut committed = false;
        loop {
            let clean = self.catch_up(env).await;
            if let Some(out) = self.check_resolved() {
                return out;
            }
            if query {
                if !committed && self.pending.is_none() {
                    // No pending operation: keep answering for the last
                    // resolved one (its response if it took effect, F if
                    // it did not).
                    return self.last_fate.clone().unwrap_or(Outcome::NoEffect);
                }
                if self.pending_dead() {
                    self.pending = None;
                    self.last_fate = Some(Outcome::NoEffect);
                    return Outcome::NoEffect;
                }
            }
            if committed || !clean || !self.adopt_commit_round(env).await {
                return Outcome::Bot;
            }
            committed = true;
        }
    }

    /// Replays the decided prefix: the slots this session committed
    /// itself, then one `D` read per slot up to the first undecided one.
    /// Returns `false` if a `D` read aborted.
    async fn catch_up(&mut self, env: &dyn Env) -> bool {
        loop {
            let s = self.replica.len();
            if let Some(e) = self.known_decided.remove(&s) {
                self.apply_decided(e);
                continue;
            }
            match self.obj.slot(s).d.try_read(env).await {
                ReadOutcome::Aborted => return false,
                ReadOutcome::Value(None) => return true,
                ReadOutcome::Value(Some(e)) => self.apply_decided(e),
            }
        }
    }

    /// One adopt-commit round at the frontier slot. Returns `true` if it
    /// committed the slot's decision (recorded in `known_decided` and,
    /// best-effort, in `D`). An aborted register operation ends the round
    /// early; the memoized `A`/`B` values let the next invocation resume
    /// it. A round that completes without a commit adopts a value and
    /// moves to the next round.
    async fn adopt_commit_round(&mut self, env: &dyn Env) -> bool {
        let s = self.replica.len();
        let me = self.p.0;
        // Choose (and memoize) the proposal for this round.
        let a_val = match &self.a_val {
            Some(v) => v.clone(),
            None => {
                let val = match &self.adopted {
                    Some(w) => w.clone(),
                    None => {
                        let pend = self
                            .pending
                            .as_ref()
                            .expect("proposing without a pending op");
                        Entry {
                            proposer: self.p,
                            seq: pend.seq,
                            op: pend.op.clone(),
                        }
                    }
                };
                if let Some(pend) = self.pending.as_mut() {
                    if val.proposer == self.p && val.seq == pend.seq {
                        // Any write attempt may take effect: record the
                        // exposure before the first attempt.
                        pend.exposed.insert(s);
                    }
                }
                self.a_val = Some(val.clone());
                val
            }
        };
        let slot = self.obj.slot(s);
        let regs = self.obj.round(s, &slot, self.cur_round);
        if !self.a_written {
            if regs.a[me]
                .try_write(env, Some(a_val.clone()))
                .await
                .is_aborted()
            {
                return false;
            }
            self.a_written = true;
        }
        let mut written = Vec::with_capacity(regs.a.len());
        for a in &regs.a {
            match a.try_read(env).await {
                ReadOutcome::Aborted => return false,
                ReadOutcome::Value(v) => written.extend(v),
            }
        }
        let b_val = match &self.b_val {
            Some(v) => v.clone(),
            None => {
                let v = if written.iter().all(|e| *e == a_val) {
                    (true, a_val)
                } else {
                    let w = written
                        .into_iter()
                        .min_by_key(|e| (e.proposer, e.seq))
                        .expect("own A value is visible");
                    (false, w)
                };
                self.b_val = Some(v.clone());
                v
            }
        };
        if !self.b_written {
            if regs.b[me].try_write(env, Some(b_val)).await.is_aborted() {
                return false;
            }
            self.b_written = true;
        }
        let mut b_view = Vec::with_capacity(regs.b.len());
        for b in &regs.b {
            match b.try_read(env).await {
                ReadOutcome::Aborted => return false,
                ReadOutcome::Value(v) => b_view.extend(v),
            }
        }
        debug_assert!(!b_view.is_empty(), "own B value is visible");
        let first = &b_view[0].1;
        if b_view.iter().all(|(c, w)| *c && w == first) {
            // Commit: the decision for slot `s` is `first`.
            let w = first.clone();
            self.known_decided.insert(s, w.clone());
            // Best-effort persist; an abort is fine (we know the
            // decision, and others re-derive it through the round chain).
            let _ = slot.d.try_write(env, Some(w)).await;
            return true;
        }
        let w = match b_view.iter().find(|(c, _)| *c) {
            Some((_, w)) => w,
            None => b_view
                .iter()
                .map(|(_, w)| w)
                .min_by_key(|e| (e.proposer, e.seq))
                .expect("non-empty B view"),
        };
        self.adopted = Some(w.clone());
        self.cur_round += 1;
        self.reset_round_state();
        false
    }

    /// Whether the fate of the pending op is already determined as
    /// "never takes effect": every exposed slot is decided (necessarily
    /// against the entry — otherwise [`QaSession::check_resolved`] would
    /// have fired). A slot never decides twice and entries never leak
    /// across slots, so `F` is final.
    fn pending_dead(&self) -> bool {
        match &self.pending {
            None => true,
            Some(pend) => pend.exposed.iter().all(|s| *s < self.replica.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp};
    use tbwf_registers::RegisterFactoryConfig;
    use tbwf_sim::FreeRunEnv;

    fn solo_setup() -> (Rc<QaObject<Counter>>, FreeRunEnv) {
        let factory = Rc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
        let obj = QaObject::new(Counter, 2, factory);
        (obj, FreeRunEnv::new(ProcId(0)))
    }

    fn apply(session: &mut QaSession<Counter>, env: &FreeRunEnv, op: CounterOp) -> Outcome<i64> {
        env.run_solo(session.apply(env, op))
    }

    fn query(session: &mut QaSession<Counter>, env: &FreeRunEnv) -> Outcome<i64> {
        env.run_solo(session.query(env))
    }

    /// Drives one logical operation to completion in a solo run,
    /// following the Figure 8 state machine.
    fn complete(
        session: &mut QaSession<Counter>,
        env: &FreeRunEnv,
        op: CounterOp,
        max_attempts: usize,
    ) -> i64 {
        let mut next_is_query = false;
        for _ in 0..max_attempts {
            let out = if next_is_query {
                query(session, env)
            } else {
                apply(session, env, op)
            };
            match out {
                Outcome::Done(v) => return v,
                Outcome::Bot => next_is_query = true,
                Outcome::NoEffect => next_is_query = false,
            }
        }
        panic!("operation did not complete within {max_attempts} attempts");
    }

    #[test]
    fn solo_increments_complete_and_are_sequential() {
        let (obj, env) = solo_setup();
        let mut s = obj.session(ProcId(0));
        for i in 1..=20 {
            let v = complete(&mut s, &env, CounterOp::Inc, 10);
            assert_eq!(v, i);
        }
        assert_eq!(*s.replica(), 20);
        assert_eq!(s.decided_len(), 20);
    }

    #[test]
    fn solo_first_attempt_succeeds_on_fresh_slot() {
        let (obj, env) = solo_setup();
        let mut s = obj.session(ProcId(0));
        // Fresh object, solo: the very first apply must succeed.
        let out = apply(&mut s, &env, CounterOp::Inc);
        assert_eq!(out, Outcome::Done(1));
    }

    #[test]
    fn second_process_sees_first_processes_ops() {
        let (obj, env) = solo_setup();
        let env1 = FreeRunEnv::new(ProcId(1));
        let mut s0 = obj.session(ProcId(0));
        let mut s1 = obj.session(ProcId(1));
        for _ in 0..5 {
            complete(&mut s0, &env, CounterOp::Inc, 10);
        }
        let v = complete(&mut s1, &env1, CounterOp::Get, 20);
        assert_eq!(v, 5);
        assert_eq!(s1.decided_len(), 6);
    }

    #[test]
    fn interleaved_sessions_agree_on_history() {
        // Sequential interleaving (no overlapping register ops): both
        // sessions must decide the same log and produce distinct
        // responses 1..=10.
        let (obj, env0) = solo_setup();
        let env1 = FreeRunEnv::new(ProcId(1));
        let mut s0 = obj.session(ProcId(0));
        let mut s1 = obj.session(ProcId(1));
        let mut responses = Vec::new();
        for i in 0..10 {
            let v = if i % 2 == 0 {
                complete(&mut s0, &env0, CounterOp::Inc, 30)
            } else {
                complete(&mut s1, &env1, CounterOp::Inc, 30)
            };
            responses.push(v);
        }
        let mut sorted = responses.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            10,
            "responses must be distinct: {responses:?}"
        );
        assert_eq!(*sorted.last().unwrap(), 10);
    }

    #[test]
    fn query_without_pending_is_no_effect() {
        let (obj, env) = solo_setup();
        let mut s = obj.session(ProcId(0));
        assert_eq!(query(&mut s, &env), Outcome::NoEffect);
    }

    #[test]
    fn query_after_done_repeats_the_response() {
        // Footnote 3: query reports the fate of the last non-query
        // operation — including after it completed normally.
        let (obj, env) = solo_setup();
        let mut s = obj.session(ProcId(0));
        assert_eq!(apply(&mut s, &env, CounterOp::Inc), Outcome::Done(1));
        assert_eq!(query(&mut s, &env), Outcome::Done(1));
        assert_eq!(query(&mut s, &env), Outcome::Done(1));
        assert_eq!(apply(&mut s, &env, CounterOp::Inc), Outcome::Done(2));
        assert_eq!(query(&mut s, &env), Outcome::Done(2));
    }

    #[test]
    #[should_panic(expected = "different operation is pending")]
    fn switching_ops_without_query_panics() {
        let (obj, env) = solo_setup();
        let mut s = obj.session(ProcId(0));
        // Force a pending op by a successful apply… that resolves it, so
        // instead create pending with an op and immediately call apply
        // with another op after an artificial Bot. Simplest: pend via a
        // manual first apply that succeeds, then a second one that also
        // succeeds — to really get a pending op we need an abort, which a
        // solo run never produces. So we simulate misuse directly:
        let _ = apply(&mut s, &env, CounterOp::Get);
        // Pending is now None (it resolved); create a fresh pending and
        // misuse:
        s.pending = Some(PendingOp {
            seq: 99,
            op: CounterOp::Get,
            exposed: BTreeSet::new(),
        });
        let _ = apply(&mut s, &env, CounterOp::Inc);
    }
}
