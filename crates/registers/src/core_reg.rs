//! The simulated register core: two-phase operations with overlap
//! detection, and the two register kinds built on it.

use crate::outcome::{ReadOutcome, WriteOutcome};
use crate::policy::{AbortPolicy, EffectPolicy, PolicyDial};
use crate::stats::{OpEvent, OpKind, OpLog};
use crate::{AbortableRegister, AtomicRegister, OpToken};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use tbwf_sim::{Env, Local, ProcId};

/// Per-process counters of operations currently in flight (invoked but
/// not yet completed) across all registers of one factory.
///
/// The cells are [`Local`] integers so a nemesis can watch one as a
/// gauge: `inflight[p] ≥ 1` holds exactly between `invoke_` and
/// `complete_` of an operation by `p`, which is the window a
/// crash-mid-operation injection targets. Every register of the factory
/// updates its invoker's cell through this one table, so a register
/// keeps no gauge handles of its own.
#[derive(Default)]
pub(crate) struct InflightGauges {
    cells: RefCell<Vec<Local<i64>>>,
}

impl InflightGauges {
    /// Runs `f` on the counter of process `p` (created on first use).
    fn with_cell<R>(&self, p: ProcId, f: impl FnOnce(&Local<i64>) -> R) -> R {
        let mut cells = self.cells.borrow_mut();
        if cells.len() <= p.0 {
            cells.resize_with(p.0 + 1, || Local::new(0));
        }
        f(&cells[p.0])
    }

    /// The shared counter of process `p` (created on first use).
    pub(crate) fn cell(&self, p: ProcId) -> Local<i64> {
        self.with_cell(p, Local::clone)
    }

    /// Adds `delta` to process `p`'s counter.
    fn add(&self, p: ProcId, delta: i64) {
        self.with_cell(p, |c| c.update(|g| *g += delta));
    }
}

/// What every register of one factory shares: the operation log, the
/// in-flight gauges, the policy dial and the base abort/effect policies.
pub(crate) struct FactoryShared {
    pub(crate) log: Arc<OpLog>,
    pub(crate) gauges: InflightGauges,
    pub(crate) dial: PolicyDial,
    pub(crate) abort_policy: AbortPolicy,
    pub(crate) effect_policy: EffectPolicy,
}

impl FactoryShared {
    /// A fresh context with the given base policies.
    pub(crate) fn new(abort_policy: AbortPolicy, effect_policy: EffectPolicy) -> Self {
        FactoryShared {
            log: Arc::new(OpLog::new()),
            gauges: InflightGauges::default(),
            dial: PolicyDial::new(),
            abort_policy,
            effect_policy,
        }
    }

    /// The abort/effect policies in force right now (the base policies,
    /// possibly overridden by the dial).
    fn policies(&self) -> (AbortPolicy, EffectPolicy) {
        self.dial.resolve((self.abort_policy, self.effect_policy))
    }
}

/// An operation in flight between its invocation and response steps.
struct Inflight<T> {
    id: u64,
    /// The invoking process (its in-flight gauge is held until the
    /// response step).
    proc: ProcId,
    /// Set as soon as any other operation's interval overlaps this one.
    overlapped: bool,
    /// Time of the invocation step (for the operation log).
    invoked: u64,
    /// A write's value, captured at invocation.
    payload: Option<T>,
}

/// The operations in flight on one register, as an unordered set.
///
/// Almost every register has at most one operation in flight at a time,
/// so the first is stored inline and `more` allocates only on a register
/// where two operations overlap.
struct InflightSet<T> {
    first: Option<Inflight<T>>,
    more: Vec<Inflight<T>>,
}

impl<T> InflightSet<T> {
    fn is_empty(&self) -> bool {
        self.first.is_none() && self.more.is_empty()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Inflight<T>> {
        self.first.iter_mut().chain(self.more.iter_mut())
    }

    fn insert(&mut self, op: Inflight<T>) {
        if self.first.is_none() {
            self.first = Some(op);
        } else {
            self.more.push(op);
        }
    }

    /// Removes and returns an operation matching `pred`, if any.
    fn take(&mut self, mut pred: impl FnMut(&Inflight<T>) -> bool) -> Option<Inflight<T>> {
        if self.first.as_ref().is_some_and(&mut pred) {
            return self.first.take();
        }
        let i = self.more.iter().position(pred)?;
        Some(self.more.swap_remove(i))
    }
}

struct CoreState<T> {
    value: T,
    inflight: InflightSet<T>,
    next_id: u64,
}

/// Shared core of one simulated register: its value, the operations in
/// flight on it, and the factory's context.
pub(crate) struct RegCore<T> {
    state: RefCell<CoreState<T>>,
    ctx: Rc<FactoryShared>,
}

/// What the core reports when an operation resolves.
struct Resolution<T> {
    overlapped: bool,
    /// Invocation time, echoed back from `begin`.
    invoked: u64,
    /// The invoking process, echoed back from `begin` (the completer is
    /// always the invoker, so `record` needs no `env.pid()` call).
    proc: ProcId,
    /// The write payload captured at invocation, if any.
    payload: Option<T>,
}

impl<T: Clone> RegCore<T> {
    pub(crate) fn new(init: T, ctx: Rc<FactoryShared>) -> Self {
        RegCore {
            state: RefCell::new(CoreState {
                value: init,
                inflight: InflightSet {
                    first: None,
                    more: Vec::new(),
                },
                next_id: 0,
            }),
            ctx,
        }
    }

    /// Invocation step: register the in-flight op and mark overlaps.
    ///
    /// Operations left pending by a crashed process are dropped first: a
    /// crashed process takes no further steps, so its unfinished
    /// operation cannot interfere with operations invoked after the
    /// crash (its write never takes effect — the crash landed before the
    /// linearization point). Without this, one crash mid-operation would
    /// mark every later operation on the register as overlapped forever,
    /// and an `AlwaysOnOverlap` abortable register would wedge all
    /// survivors. Overlap marks already made by the dead operation stand:
    /// operations genuinely concurrent with it before the crash may still
    /// abort.
    fn begin(&self, env: &dyn Env, payload: Option<T>) -> OpToken {
        let (proc, invoked) = (env.pid(), env.now());
        let gauges = &self.ctx.gauges;
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        while let Some(dead) = st.inflight.take(|o| env.is_crashed(o.proc)) {
            gauges.add(dead.proc, -1);
        }
        let id = st.next_id;
        st.next_id += 1;
        let any = !st.inflight.is_empty();
        for o in st.inflight.iter_mut() {
            o.overlapped = true;
        }
        st.inflight.insert(Inflight {
            id,
            proc,
            overlapped: any,
            invoked,
            payload,
        });
        gauges.add(proc, 1);
        OpToken::new(id)
    }

    /// Response step: remove the in-flight op and run `apply` on the
    /// resolution and the register value — all under one borrow of the
    /// state.
    fn resolve_apply<R>(
        &self,
        tok: OpToken,
        apply: impl FnOnce(&mut Resolution<T>, &mut T) -> R,
    ) -> (Resolution<T>, R) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let op = st
            .inflight
            .take(|o| o.id == tok.raw())
            .expect("resolving unknown operation");
        self.ctx.gauges.add(op.proc, -1);
        let mut res = Resolution {
            overlapped: op.overlapped,
            invoked: op.invoked,
            proc: op.proc,
            payload: op.payload,
        };
        let out = apply(&mut res, &mut st.value);
        (res, out)
    }

    /// Response step without a value effect (tests only; the register
    /// implementations fold their effect into [`Self::resolve_apply`]).
    #[cfg(test)]
    fn resolve(&self, tok: OpToken) -> Resolution<T> {
        self.resolve_apply(tok, |_, _| ()).0
    }

    fn record(&self, kind: OpKind, res: &Resolution<T>, aborted: bool) {
        self.ctx.log.push(OpEvent {
            invoked: res.invoked,
            proc: res.proc,
            kind,
            overlapped: res.overlapped,
            aborted,
        });
    }
}

/// Simulated atomic register (linearizes at the response step).
pub(crate) struct SimAtomicReg<T> {
    pub(crate) core: RegCore<T>,
}

impl<T: Clone> AtomicRegister<T> for SimAtomicReg<T> {
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken {
        self.core.begin(env, Some(v))
    }

    fn complete_write(&self, _env: &dyn Env, tok: OpToken) {
        let (res, ()) = self.core.resolve_apply(tok, |res, value| {
            *value = res.payload.take().expect("write resolved without payload");
        });
        self.core.record(OpKind::Write, &res, false);
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        self.core.begin(env, None)
    }

    fn complete_read(&self, _env: &dyn Env, tok: OpToken) -> T {
        let (res, v) = self.core.resolve_apply(tok, |_, value| value.clone());
        self.core.record(OpKind::Read, &res, false);
        v
    }
}

/// Simulated abortable register; its base policies and the run-wide
/// override dial come from the factory context.
pub(crate) struct SimAbortableReg<T> {
    pub(crate) core: RegCore<T>,
    /// The adversary's own stream of abort and effect samples.
    pub(crate) rng: RefCell<StdRng>,
    /// If set, only this process may write (single-writer enforcement).
    pub(crate) writer: Option<ProcId>,
    /// If set, only this process may read (single-reader enforcement).
    pub(crate) reader: Option<ProcId>,
}

/// Panics unless the invoker is the register's `owner` (if it has one).
fn assert_owner(owner: Option<ProcId>, env: &dyn Env, done: &str) {
    if let Some(owner) = owner {
        let p = env.pid();
        assert!(
            p == owner,
            "register {done} by non-owner {p} (owner {owner})"
        );
    }
}

impl<T: Clone> SimAbortableReg<T> {
    /// The uniform samples for one response's abort and effect decisions.
    ///
    /// Both are drawn at every response, even when the current policy
    /// ignores them: policy-dial changes must not shift the register's
    /// stream, or shrinking a fault plan would perturb the rest of the
    /// run.
    fn samples(&self) -> (f64, f64) {
        let mut rng = self.rng.borrow_mut();
        (rng.random(), rng.random())
    }
}

impl<T: Clone> AbortableRegister<T> for SimAbortableReg<T> {
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken {
        assert_owner(self.writer, env, "written");
        self.core.begin(env, Some(v))
    }

    fn complete_write(&self, _env: &dyn Env, tok: OpToken) -> WriteOutcome {
        let (abort_policy, effect_policy) = self.core.ctx.policies();
        let (u_abort, u_effect) = self.samples();
        let (res, aborted) = self.core.resolve_apply(tok, |res, value| {
            let v = res.payload.take().expect("write resolved without payload");
            let aborted = res.overlapped && abort_policy.aborts(u_abort);
            // An aborted write takes effect only if the effect policy says so.
            if !aborted || effect_policy.takes_effect(u_effect) {
                *value = v;
            }
            aborted
        });
        self.core.record(OpKind::Write, &res, aborted);
        if aborted {
            WriteOutcome::Aborted
        } else {
            WriteOutcome::Ok
        }
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        assert_owner(self.reader, env, "read");
        self.core.begin(env, None)
    }

    fn complete_read(&self, _env: &dyn Env, tok: OpToken) -> ReadOutcome<T> {
        let (abort_policy, _) = self.core.ctx.policies();
        let (u_abort, _) = self.samples();
        let (res, v) = self.core.resolve_apply(tok, |res, value| {
            if res.overlapped && abort_policy.aborts(u_abort) {
                None
            } else {
                Some(value.clone())
            }
        });
        match v {
            Some(v) => {
                self.core.record(OpKind::Read, &res, false);
                ReadOutcome::Value(v)
            }
            None => {
                self.core.record(OpKind::Read, &res, true);
                ReadOutcome::Aborted
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use tbwf_sim::FreeRunEnv;

    /// A register core with its own factory context under the given
    /// base policies.
    fn core(abort: AbortPolicy, effect: EffectPolicy) -> RegCore<i64> {
        let ctx = Rc::new(FactoryShared::new(abort, effect));
        RegCore::new(0, ctx)
    }

    fn abortable(abort: AbortPolicy, effect: EffectPolicy) -> SimAbortableReg<i64> {
        SimAbortableReg {
            core: core(abort, effect),
            rng: RefCell::new(StdRng::seed_from_u64(1)),
            writer: None,
            reader: None,
        }
    }

    // Solo operations: invoke, one step of the caller, complete.

    fn write<T: Clone>(r: &dyn AtomicRegister<T>, env: &FreeRunEnv, v: T) {
        let t = r.invoke_write(env, v);
        env.advance();
        r.complete_write(env, t);
    }

    fn read<T: Clone>(r: &dyn AtomicRegister<T>, env: &FreeRunEnv) -> T {
        let t = r.invoke_read(env);
        env.advance();
        r.complete_read(env, t)
    }

    fn try_write<T: Clone>(r: &dyn AbortableRegister<T>, env: &dyn Env, v: T) -> WriteOutcome {
        let t = r.invoke_write(env, v);
        r.complete_write(env, t)
    }

    fn try_read<T: Clone>(r: &dyn AbortableRegister<T>, env: &dyn Env) -> ReadOutcome<T> {
        let t = r.invoke_read(env);
        r.complete_read(env, t)
    }

    /// A free-running env that also reports a fixed set of crashed
    /// processes, for exercising the pending-op purge in `begin`.
    #[derive(Clone)]
    struct CrashyEnv {
        inner: FreeRunEnv,
        crashed: Vec<ProcId>,
    }

    impl Env for CrashyEnv {
        fn now(&self) -> u64 {
            self.inner.now()
        }
        fn pid(&self) -> ProcId {
            self.inner.pid()
        }
        fn observe(&self, key: &'static str, idx: u32, value: i64) {
            self.inner.observe(key, idx, value);
        }
        fn is_crashed(&self, p: ProcId) -> bool {
            self.crashed.contains(&p)
        }
        fn handle(&self) -> std::rc::Rc<dyn Env> {
            std::rc::Rc::new(self.clone())
        }
    }

    #[test]
    fn atomic_read_write_solo() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = SimAtomicReg {
            core: core(AbortPolicy::default(), EffectPolicy::default()),
        };
        write(&r, &env, 7);
        assert_eq!(read(&r, &env), 7);
    }

    #[test]
    fn abortable_solo_never_aborts() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = abortable(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
        for i in 0..100 {
            assert_eq!(try_write(&r, &env, i), WriteOutcome::Ok);
            assert_eq!(try_read(&r, &env), ReadOutcome::Value(i));
        }
    }

    #[test]
    fn overlap_detection_marks_both_ops() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = core(AbortPolicy::default(), EffectPolicy::default());
        let a = r.begin(&env, None);
        let b = r.begin(&FreeRunEnv::new(ProcId(1)), Some(1));
        let ra = r.resolve(a);
        let rb = r.resolve(b);
        assert!(ra.overlapped);
        assert!(rb.overlapped);
    }

    #[test]
    fn sequential_ops_do_not_overlap() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = core(AbortPolicy::default(), EffectPolicy::default());
        let a = r.begin(&env, None);
        let ra = r.resolve(a);
        env.advance();
        let b = r.begin(&env, Some(1));
        let rb = r.resolve(b);
        assert!(!ra.overlapped);
        assert!(!rb.overlapped);
    }

    #[test]
    #[should_panic(expected = "register written by non-owner p3 (owner p0)")]
    fn single_writer_enforced() {
        let env = FreeRunEnv::new(ProcId(3));
        let r = SimAbortableReg {
            writer: Some(ProcId(0)),
            ..abortable(AbortPolicy::default(), EffectPolicy::default())
        };
        let _ = r.invoke_write(&env, 1);
    }

    #[test]
    #[should_panic(expected = "register read by non-owner p3 (owner p1)")]
    fn single_reader_enforced() {
        let env = FreeRunEnv::new(ProcId(3));
        let r = SimAbortableReg {
            reader: Some(ProcId(1)),
            ..abortable(AbortPolicy::default(), EffectPolicy::default())
        };
        let _ = r.invoke_read(&env);
    }

    #[test]
    fn ops_are_logged() {
        let env = FreeRunEnv::new(ProcId(2));
        let r = SimAtomicReg {
            core: core(AbortPolicy::default(), EffectPolicy::default()),
        };
        let l = &r.core.ctx.log;
        write(&r, &env, 1); // invoked at 0
        read(&r, &env); // invoked at 1
        assert_eq!(l.abort_stats(), (2, 0, 0));
        // Only the write makes p2 a writer, dated by its invocation.
        assert_eq!(l.writers_since(0), BTreeSet::from([ProcId(2)]));
        assert!(l.writers_since(1).is_empty());
    }

    #[test]
    fn overlapped_and_aborted_ops_are_counted() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = abortable(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
        let l = &r.core.ctx.log;
        let t1 = r.invoke_write(&env, 1);
        let t2 = r.invoke_read(&env);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Aborted);
        assert_eq!(r.complete_read(&env, t2), ReadOutcome::Aborted);
        assert_eq!(try_read(&r, &env), ReadOutcome::Value(0));
        assert_eq!(l.abort_stats(), (3, 2, 2));
        // The aborted write (which did not take effect) still counts.
        assert_eq!(l.writers_since(0), BTreeSet::from([ProcId(0)]));
    }

    #[test]
    fn inflight_gauge_tracks_invoke_to_complete_window() {
        let r = core(AbortPolicy::default(), EffectPolicy::default());
        let env = FreeRunEnv::new(ProcId(2));
        let cell = r.ctx.gauges.cell(ProcId(2));
        assert_eq!(cell.get(), 0);
        let a = r.begin(&env, Some(1));
        assert_eq!(cell.get(), 1, "held between invoke and complete");
        let b = r.begin(&env, None);
        assert_eq!(cell.get(), 2);
        r.resolve(a);
        r.resolve(b);
        assert_eq!(cell.get(), 0);
    }

    #[test]
    fn crashed_pending_op_does_not_poison_later_ops() {
        // p1 invokes a write and crashes before completing it. Under
        // AlwaysOnOverlap, p0's next operations must still succeed: the
        // dead pending op is purged at the next invocation and no longer
        // counts as overlapping.
        let r = abortable(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
        let p1 = CrashyEnv {
            inner: FreeRunEnv::new(ProcId(1)),
            crashed: vec![],
        };
        let _dangling = r.invoke_write(&p1, 99); // never completed
        let p0 = CrashyEnv {
            inner: FreeRunEnv::new(ProcId(0)),
            crashed: vec![ProcId(1)],
        };
        for i in 0..50 {
            assert_eq!(try_write(&r, &p0, i), WriteOutcome::Ok);
            assert_eq!(try_read(&r, &p0), ReadOutcome::Value(i));
        }
        // The dead op's gauge was released when it was purged, and the
        // crashed write never took effect.
        assert_eq!(r.core.ctx.gauges.cell(ProcId(1)).get(), 0);
    }

    #[test]
    fn dial_overrides_only_while_set() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = abortable(AbortPolicy::Never, EffectPolicy::Never);
        let dial = &r.core.ctx.dial;
        // Overlapped ops under the base Never policy do not abort.
        let t1 = r.invoke_write(&env, 1);
        let t2 = r.invoke_write(&env, 2);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Ok);
        assert_eq!(r.complete_write(&env, t2), WriteOutcome::Ok);
        // Under the storm mode they abort (and the writes take effect).
        dial.set(crate::policy::DIAL_ABORT_STORM);
        let t1 = r.invoke_write(&env, 3);
        let t2 = r.invoke_write(&env, 4);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Aborted);
        assert_eq!(r.complete_write(&env, t2), WriteOutcome::Aborted);
        assert_eq!(try_read(&r, &env), ReadOutcome::Value(4));
        // Back to base: Never again.
        dial.set(crate::policy::DIAL_BASE);
        let t1 = r.invoke_write(&env, 5);
        let t2 = r.invoke_write(&env, 6);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Ok);
        assert_eq!(r.complete_write(&env, t2), WriteOutcome::Ok);
    }
}
