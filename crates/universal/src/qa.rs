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
//! Sessions replay the decided prefix into a local replica, maintaining a
//! `lastOf[q] = (seq, resp)` table from which both responses and `query`
//! answers are read. A duplicate-suppression guard (`seq` monotone per
//! proposer) makes re-decided ghost entries harmless in depth.

use crate::object::{ObjectType, Outcome};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tbwf_registers::{OpToken, ReadOutcome, RegisterFactory, SharedAbortable};
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

type BVal<Op> = (bool, Entry<Op>);

struct RoundRegs<Op> {
    a: Vec<SharedAbortable<Option<Entry<Op>>>>,
    b: Vec<SharedAbortable<Option<BVal<Op>>>>,
}

struct SlotRegs<Op> {
    d: SharedAbortable<Option<Entry<Op>>>,
    rounds: Mutex<Vec<Arc<RoundRegs<Op>>>>,
}

/// The shared part of the query-abortable object: its register space.
///
/// ```
/// use std::sync::Arc;
/// use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
/// use tbwf_sim::{FreeRunEnv, ProcId};
/// use tbwf_universal::object::{Counter, CounterOp};
/// use tbwf_universal::{Outcome, QaObject};
///
/// let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
/// let obj = QaObject::new(Counter, 2, factory);
/// let mut session = obj.session(ProcId(0));
/// let env = FreeRunEnv::new(ProcId(0));
/// // Solo, fresh slot: the very first attempt succeeds. The caller
/// // takes one step whenever the invocation is still running.
/// session.begin_apply(CounterOp::Inc);
/// let out = loop {
///     if let Some(out) = session.poll_op(&env) {
///         break out;
///     }
///     env.advance();
/// };
/// assert_eq!(out, Outcome::Done(1));
/// ```
pub struct QaObject<T: ObjectType> {
    ty: Arc<T>,
    n: usize,
    factory: Arc<RegisterFactory>,
    slots: Mutex<Vec<Arc<SlotRegs<T::Op>>>>,
}

impl<T: ObjectType> QaObject<T> {
    /// Creates the shared object for `n` processes, allocating registers
    /// lazily from `factory`.
    pub fn new(ty: T, n: usize, factory: Arc<RegisterFactory>) -> Arc<Self> {
        Arc::new(QaObject {
            ty: Arc::new(ty),
            n,
            factory,
            slots: Mutex::new(Vec::new()),
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

    fn slot(&self, s: usize) -> Arc<SlotRegs<T::Op>> {
        let mut slots = self.slots.lock();
        while slots.len() <= s {
            let i = slots.len();
            slots.push(Arc::new(SlotRegs {
                d: self.factory.abortable(&format!("D[{i}]"), None),
                rounds: Mutex::new(Vec::new()),
            }));
        }
        Arc::clone(&slots[s])
    }

    fn round(&self, slot_idx: usize, slot: &SlotRegs<T::Op>, r: usize) -> Arc<RoundRegs<T::Op>> {
        let mut rounds = slot.rounds.lock();
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
            rounds.push(Arc::new(RoundRegs { a, b }));
        }
        Arc::clone(&rounds[r])
    }

    /// Opens a session for process `p`. Each process must use exactly one
    /// session for the lifetime of the object.
    pub fn session(self: &Arc<Self>, p: ProcId) -> QaSession<T> {
        QaSession {
            obj: Arc::clone(self),
            p,
            replica: self.ty.initial(),
            last_of: vec![None; self.n],
            cursor: 0,
            my_seq: 0,
            pending: None,
            cur_slot: 0,
            cur_round: 0,
            adopted: None,
            a_val: None,
            a_written: false,
            b_val: None,
            b_written: false,
            known_decided: BTreeMap::new(),
            last_fate: None,
            inflight: None,
            stats: SessionStats::default(),
        }
    }
}

struct PendingOp<Op> {
    seq: u64,
    op: Op,
    /// Slots in which the entry was (possibly) written to an `A` register.
    exposed: BTreeSet<usize>,
}

/// Counters describing one session's activity (for experiments).
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// `apply` invocations.
    pub applies: u64,
    /// `query` invocations.
    pub queries: u64,
    /// Invocations that returned `Done`.
    pub dones: u64,
    /// Consensus rounds in which this session committed a value.
    pub commits: u64,
}

/// One process's handle on a [`QaObject`]: its replica, pending operation
/// and consensus-round state.
pub struct QaSession<T: ObjectType> {
    obj: Arc<QaObject<T>>,
    p: ProcId,
    replica: T::State,
    last_of: Vec<Option<(u64, T::Resp)>>,
    /// Next slot to replay (first slot not yet applied to the replica).
    cursor: usize,
    my_seq: u64,
    pending: Option<PendingOp<T::Op>>,
    // --- consensus state for the slot currently being agreed on ---
    cur_slot: usize,
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
    /// The in-flight invocation, if any (poll form).
    inflight: Option<OpProgress<T>>,
    stats: SessionStats,
}

/// How an adopt-commit round ended.
enum RoundStep {
    /// A register operation aborted; the round will resume next call.
    Interrupted,
    /// The round completed without commit; we advanced to the next round.
    Advanced,
    /// The round committed a value (the decision for `cur_slot`).
    Committed,
}

/// Which invocation the in-flight state machine is running.
#[derive(Clone, Copy, PartialEq, Eq)]
enum InvKind {
    Apply,
    Query,
}

/// Where an in-flight invocation is parked between segments: the
/// register operation invoked at the end of the previous segment.
enum InvStage {
    /// No register operation in flight yet (first segment).
    Start,
    /// `D[cursor]` read during catch-up.
    CatchUpRead(OpToken),
    /// The own `A` proposal write.
    AWrite(OpToken),
    /// The read of `A[q]`.
    ARead { q: usize, tok: OpToken },
    /// The own `B` adopt/commit write.
    BWrite(OpToken),
    /// The read of `B[q]`.
    BRead { q: usize, tok: OpToken },
    /// The best-effort decision persist to `D[cur_slot]`.
    DWrite(OpToken),
}

/// Per-invocation scratch state of the poll machine.
struct OpProgress<T: ObjectType> {
    kind: InvKind,
    stage: InvStage,
    /// Running the post-commit catch-up (the second one of apply/query)?
    after_commit: bool,
    a_view: Vec<Option<Entry<T::Op>>>,
    b_view: Vec<BVal<T::Op>>,
}

impl<T: ObjectType> OpProgress<T> {
    fn new(kind: InvKind) -> Self {
        OpProgress {
            kind,
            stage: InvStage::Start,
            after_commit: false,
            a_view: Vec::new(),
            b_view: Vec::new(),
        }
    }
}

impl<T: ObjectType> QaSession<T> {
    /// The owning process.
    pub fn pid(&self) -> ProcId {
        self.p
    }

    /// Session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// A read-only view of the replica (the state after all decided
    /// operations this session has replayed).
    pub fn replica(&self) -> &T::State {
        &self.replica
    }

    /// Number of decided slots this session has replayed.
    pub fn decided_len(&self) -> usize {
        self.cursor
    }

    fn reset_round_state(&mut self) {
        self.a_val = None;
        self.a_written = false;
        self.b_val = None;
        self.b_written = false;
    }

    fn reset_slot_state(&mut self, s: usize) {
        self.cur_slot = s;
        self.cur_round = 0;
        self.adopted = None;
        self.reset_round_state();
    }

    fn apply_decided(&mut self, e: Entry<T::Op>) {
        let dup = self.last_of[e.proposer.0]
            .as_ref()
            .is_some_and(|(seq, _)| *seq >= e.seq);
        if !dup {
            let resp = self.obj.ty.apply(&mut self.replica, &e.op);
            self.last_of[e.proposer.0] = Some((e.seq, resp));
        }
        self.known_decided.remove(&self.cursor);
        self.cursor += 1;
        if self.cur_slot < self.cursor {
            self.reset_slot_state(self.cursor);
        }
    }

    fn check_resolved(&mut self) -> Option<Outcome<T::Resp>> {
        let pend = self.pending.as_ref()?;
        if let Some((seq, resp)) = &self.last_of[self.p.0] {
            if *seq == pend.seq {
                let r = resp.clone();
                self.pending = None;
                self.last_fate = Some(Outcome::Done(r.clone()));
                return Some(Outcome::Done(r));
            }
        }
        None
    }

    /// The round registers of the frontier slot/round (idempotent lookup,
    /// so each segment can re-fetch them).
    fn round_regs(&self) -> Arc<RoundRegs<T::Op>> {
        let slot = self.obj.slot(self.cur_slot);
        self.obj.round(self.cur_slot, &slot, self.cur_round)
    }

    fn stage(&mut self) -> &mut InvStage {
        &mut self.inflight.as_mut().expect("invocation in flight").stage
    }

    /// Starts (or resumes) the catch-up loop: replays `known_decided`
    /// slots locally, then invokes the `D` read of the frontier slot.
    fn catchup_enter(&mut self, env: &dyn Env) -> Option<Outcome<T::Resp>> {
        loop {
            let s = self.cursor;
            if let Some(e) = self.known_decided.get(&s).cloned() {
                self.apply_decided(e);
                continue;
            }
            let tok = self.obj.slot(s).d.invoke_read(env);
            *self.stage() = InvStage::CatchUpRead(tok);
            return None;
        }
    }

    /// Completes a catch-up `D` read and either continues the loop or
    /// falls through to the post-catch-up logic of the invocation.
    fn catchup_complete(&mut self, env: &dyn Env, tok: OpToken) -> Option<Outcome<T::Resp>> {
        match self.obj.slot(self.cursor).d.complete_read(env, tok) {
            ReadOutcome::Aborted => self.after_catchup(env, false),
            ReadOutcome::Value(None) => self.after_catchup(env, true),
            ReadOutcome::Value(Some(e)) => {
                self.apply_decided(e);
                self.catchup_enter(env)
            }
        }
    }

    /// The invocation code between catch-up and the consensus round:
    /// resolution checks, fate checks, and entry into `advance_round`.
    fn after_catchup(&mut self, env: &dyn Env, clean: bool) -> Option<Outcome<T::Resp>> {
        let fl = self.inflight.as_ref().expect("invocation in flight");
        let (kind, after_commit) = (fl.kind, fl.after_commit);
        if let Some(out) = self.check_resolved() {
            self.stats.dones += 1;
            return Some(out);
        }
        if kind == InvKind::Query {
            if !after_commit && self.pending.is_none() {
                // No pending operation: keep answering for the last
                // resolved one (its response if it took effect, F if it
                // did not).
                return Some(self.last_fate.clone().unwrap_or(Outcome::NoEffect));
            }
            if self.pending_dead() {
                self.pending = None;
                self.last_fate = Some(Outcome::NoEffect);
                return Some(Outcome::NoEffect);
            }
        }
        if after_commit || !clean {
            return Some(Outcome::Bot);
        }
        self.round_enter(env)
    }

    /// Starts (or resumes) one adopt-commit round at the frontier slot:
    /// memoizes the proposal and invokes the own `A` write (or, when the
    /// write is already done, the first `A` read).
    fn round_enter(&mut self, env: &dyn Env) -> Option<Outcome<T::Resp>> {
        // Choose (and memoize) the proposal for this round.
        if self.a_val.is_none() {
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
            if val.proposer == self.p {
                if let Some(pend) = self.pending.as_mut() {
                    if pend.seq == val.seq {
                        // Any write attempt may take effect: record the
                        // exposure before the first attempt.
                        pend.exposed.insert(self.cur_slot);
                    }
                }
            }
            self.a_val = Some(val);
        }
        if !self.a_written {
            let aval = self.a_val.clone().expect("a_val set above");
            let tok = self.round_regs().a[self.p.0].invoke_write(env, Some(aval));
            *self.stage() = InvStage::AWrite(tok);
            return None;
        }
        self.a_read_enter(env, 0)
    }

    fn a_read_enter(&mut self, env: &dyn Env, q: usize) -> Option<Outcome<T::Resp>> {
        if q == 0 {
            self.inflight
                .as_mut()
                .expect("invocation in flight")
                .a_view
                .clear();
        }
        let tok = self.round_regs().a[q].invoke_read(env);
        *self.stage() = InvStage::ARead { q, tok };
        None
    }

    /// The local code between the `A` reads and the own `B` write.
    fn after_a_reads(&mut self, env: &dyn Env) -> Option<Outcome<T::Resp>> {
        if self.b_val.is_none() {
            let aval = self.a_val.clone().expect("a_val memoized");
            let fl = self.inflight.as_ref().expect("invocation in flight");
            let written: Vec<&Entry<T::Op>> = fl.a_view.iter().flatten().collect();
            let all_mine = written.iter().all(|e| **e == aval);
            let bval = if all_mine {
                (true, aval)
            } else {
                let w = written
                    .into_iter()
                    .min_by_key(|e| (e.proposer, e.seq))
                    .expect("own A value is visible")
                    .clone();
                (false, w)
            };
            self.b_val = Some(bval);
        }
        if !self.b_written {
            let bval = self.b_val.clone().expect("b_val set above");
            let tok = self.round_regs().b[self.p.0].invoke_write(env, Some(bval));
            *self.stage() = InvStage::BWrite(tok);
            return None;
        }
        self.b_read_enter(env, 0)
    }

    fn b_read_enter(&mut self, env: &dyn Env, q: usize) -> Option<Outcome<T::Resp>> {
        if q == 0 {
            self.inflight
                .as_mut()
                .expect("invocation in flight")
                .b_view
                .clear();
        }
        let tok = self.round_regs().b[q].invoke_read(env);
        *self.stage() = InvStage::BRead { q, tok };
        None
    }

    /// The commit/adopt decision after all `B` reads.
    fn after_b_reads(&mut self, env: &dyn Env) -> Option<Outcome<T::Resp>> {
        let committed = {
            let fl = self.inflight.as_ref().expect("invocation in flight");
            debug_assert!(!fl.b_view.is_empty(), "own B value is visible");
            let first = &fl.b_view[0].1;
            if fl.b_view.iter().all(|(c, w)| *c && w == first) {
                Ok(first.clone())
            } else if let Some((_, w)) = fl.b_view.iter().find(|(c, _)| *c) {
                Err(w.clone())
            } else {
                Err(fl
                    .b_view
                    .iter()
                    .map(|(_, w)| w)
                    .min_by_key(|e| (e.proposer, e.seq))
                    .expect("non-empty B view")
                    .clone())
            }
        };
        match committed {
            Ok(w) => {
                // Commit: the decision for cur_slot is `w`.
                self.stats.commits += 1;
                self.known_decided.insert(self.cur_slot, w.clone());
                // Best-effort persist; an abort is fine (we know the
                // decision, and others re-derive it through the round
                // chain).
                let tok = self.obj.slot(self.cur_slot).d.invoke_write(env, Some(w));
                *self.stage() = InvStage::DWrite(tok);
                None
            }
            Err(w) => {
                self.adopted = Some(w);
                self.cur_round += 1;
                self.reset_round_state();
                self.round_done(env, RoundStep::Advanced)
            }
        }
    }

    /// The invocation code after `advance_round`: a committed round is
    /// followed by a second catch-up; anything else answers `⊥`.
    fn round_done(&mut self, env: &dyn Env, step: RoundStep) -> Option<Outcome<T::Resp>> {
        match step {
            RoundStep::Committed => {
                self.inflight
                    .as_mut()
                    .expect("invocation in flight")
                    .after_commit = true;
                self.catchup_enter(env)
            }
            RoundStep::Advanced | RoundStep::Interrupted => Some(Outcome::Bot),
        }
    }

    /// Starts an `apply(op)` invocation (one bounded attempt), driven by
    /// [`QaSession::poll_op`].
    ///
    /// The invocation ends with [`Outcome::Done`] and the response if the
    /// operation took effect during it, or [`Outcome::Bot`] if it aborted
    /// — in which case the caller must `query` its fate before doing
    /// anything else, exactly as in Figure 8. Applying the *same*
    /// operation again resumes the attempt; this is what a caller that
    /// does not care about `⊥` semantics may do, and it is also safe.
    ///
    /// # Panics
    ///
    /// Panics if an invocation is already in flight, or if a *different*
    /// operation is still pending (protocol misuse: its fate must be
    /// resolved through `query` first).
    pub fn begin_apply(&mut self, op: T::Op) {
        assert!(
            self.inflight.is_none(),
            "begin_apply while an invocation is in flight"
        );
        self.stats.applies += 1;
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
        self.inflight = Some(OpProgress::new(InvKind::Apply));
    }

    /// Starts a `query` invocation (one bounded attempt), driven by
    /// [`QaSession::poll_op`]: it determines the fate of the last
    /// `apply` and ends with `Done(resp)` if the operation took effect,
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
    ///
    /// # Panics
    ///
    /// Panics if an invocation is already in flight.
    pub fn begin_query(&mut self) {
        assert!(
            self.inflight.is_none(),
            "begin_query while an invocation is in flight"
        );
        self.stats.queries += 1;
        self.inflight = Some(OpProgress::new(InvKind::Query));
    }

    /// Runs one segment of the in-flight invocation: completes the
    /// register operation invoked at the end of the previous segment,
    /// runs the local code up to the next register invocation (invoking
    /// it), and returns `Some` when the invocation finishes.
    ///
    /// The caller takes one step per `None` before polling again; a
    /// `Some` ends the invocation within the current segment.
    ///
    /// # Panics
    ///
    /// Panics if no invocation is in flight.
    pub fn poll_op(&mut self, env: &dyn Env) -> Option<Outcome<T::Resp>> {
        let stage = std::mem::replace(self.stage(), InvStage::Start);
        let out = match stage {
            InvStage::Start => self.catchup_enter(env),
            InvStage::CatchUpRead(tok) => self.catchup_complete(env, tok),
            InvStage::AWrite(tok) => {
                if self.round_regs().a[self.p.0]
                    .complete_write(env, tok)
                    .is_ok()
                {
                    self.a_written = true;
                    self.a_read_enter(env, 0)
                } else {
                    self.round_done(env, RoundStep::Interrupted)
                }
            }
            InvStage::ARead { q, tok } => match self.round_regs().a[q].complete_read(env, tok) {
                ReadOutcome::Aborted => self.round_done(env, RoundStep::Interrupted),
                ReadOutcome::Value(v) => {
                    self.inflight
                        .as_mut()
                        .expect("invocation in flight")
                        .a_view
                        .push(v);
                    if q + 1 < self.obj.n {
                        self.a_read_enter(env, q + 1)
                    } else {
                        self.after_a_reads(env)
                    }
                }
            },
            InvStage::BWrite(tok) => {
                if self.round_regs().b[self.p.0]
                    .complete_write(env, tok)
                    .is_ok()
                {
                    self.b_written = true;
                    self.b_read_enter(env, 0)
                } else {
                    self.round_done(env, RoundStep::Interrupted)
                }
            }
            InvStage::BRead { q, tok } => match self.round_regs().b[q].complete_read(env, tok) {
                ReadOutcome::Aborted => self.round_done(env, RoundStep::Interrupted),
                ReadOutcome::Value(v) => {
                    if let Some(v) = v {
                        self.inflight
                            .as_mut()
                            .expect("invocation in flight")
                            .b_view
                            .push(v);
                    }
                    if q + 1 < self.obj.n {
                        self.b_read_enter(env, q + 1)
                    } else {
                        self.after_b_reads(env)
                    }
                }
            },
            InvStage::DWrite(tok) => {
                let _ = self.obj.slot(self.cur_slot).d.complete_write(env, tok);
                self.round_done(env, RoundStep::Committed)
            }
        };
        if out.is_some() {
            self.inflight = None;
        }
        out
    }

    /// Whether the fate of the pending op is already determined as
    /// "never takes effect": every exposed slot is decided (necessarily
    /// against the entry — otherwise [`QaSession::check_resolved`] would
    /// have fired). A slot never decides twice and entries never leak
    /// across slots, so `F` is final.
    fn pending_dead(&self) -> bool {
        match &self.pending {
            None => true,
            Some(pend) => pend.exposed.iter().all(|s| *s < self.cursor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp};
    use tbwf_registers::RegisterFactoryConfig;
    use tbwf_sim::FreeRunEnv;

    fn solo_setup() -> (Arc<QaObject<Counter>>, FreeRunEnv) {
        let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
        let obj = QaObject::new(Counter, 2, factory);
        (obj, FreeRunEnv::new(ProcId(0)))
    }

    /// Runs one invocation solo: poll, one step of the caller, poll …
    fn finish(session: &mut QaSession<Counter>, env: &FreeRunEnv) -> Outcome<i64> {
        loop {
            if let Some(out) = session.poll_op(env) {
                return out;
            }
            env.advance();
        }
    }

    fn apply(session: &mut QaSession<Counter>, env: &FreeRunEnv, op: CounterOp) -> Outcome<i64> {
        session.begin_apply(op);
        finish(session, env)
    }

    fn query(session: &mut QaSession<Counter>, env: &FreeRunEnv) -> Outcome<i64> {
        session.begin_query();
        finish(session, env)
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
        s.begin_apply(CounterOp::Inc);
    }

    #[test]
    fn stats_track_activity() {
        let (obj, env) = solo_setup();
        let mut s = obj.session(ProcId(0));
        complete(&mut s, &env, CounterOp::Inc, 10);
        let st = s.stats();
        assert!(st.applies >= 1);
        assert!(st.dones >= 1);
        assert!(st.commits >= 1);
    }
}
