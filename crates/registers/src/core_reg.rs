//! The simulated register core: two-phase operations with overlap
//! detection, and the three register kinds built on it.

use crate::outcome::{ReadOutcome, WriteOutcome};
use crate::policy::{AbortPolicy, EffectPolicy, PolicyDial};
use crate::stats::{OpEvent, OpKind, OpLog};
use crate::{AbortableRegister, AtomicRegister, OpToken, SafeRegister};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// crash-mid-operation injection targets.
#[derive(Default)]
pub(crate) struct InflightGauges {
    cells: RefCell<Vec<Local<i64>>>,
}

impl InflightGauges {
    /// Creates gauges with all counters at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The shared counter of process `p` (created on first use).
    pub(crate) fn cell(&self, p: ProcId) -> Local<i64> {
        let mut cells = self.cells.borrow_mut();
        while cells.len() <= p.0 {
            cells.push(Local::new(0));
        }
        cells[p.0].clone()
    }
}

/// An operation in flight between its invocation and response steps.
struct Inflight<T> {
    id: u64,
    kind: OpKind,
    /// The invoking process (its in-flight gauge is held until the
    /// response step).
    proc: ProcId,
    /// Set as soon as any other operation's interval overlaps this one.
    overlapped: bool,
    /// Whether the overlap involved a write (needed by safe registers).
    overlapped_write: bool,
    /// Time of the invocation step (for the operation log).
    invoked: u64,
    /// A write's value, captured at invocation.
    payload: Option<T>,
}

struct CoreState<T> {
    value: T,
    inflight: Vec<Inflight<T>>,
    next_id: u64,
    rng: StdRng,
    /// Per-process gauge cells, cached on first use so the per-operation
    /// gauge updates skip the lookup through [`InflightGauges::cell`]
    /// (the hot path runs twice per operation).
    gauge_cache: Vec<Option<Local<i64>>>,
}

/// Shared core of one simulated register.
pub(crate) struct RegCore<T> {
    name: String,
    state: RefCell<CoreState<T>>,
    log: Arc<OpLog>,
    gauges: Rc<InflightGauges>,
}

/// What the core reports when an operation resolves.
struct Resolution<T> {
    overlapped: bool,
    overlapped_write: bool,
    /// Uniform samples for the abort and effect decisions.
    u_abort: f64,
    u_effect: f64,
    /// Invocation time, echoed back from `begin`.
    invoked: u64,
    /// The invoking process, echoed back from `begin` (the completer is
    /// always the invoker, so `record` needs no `env.pid()` call).
    proc: ProcId,
    /// The write payload captured at invocation, if any.
    payload: Option<T>,
}

impl<T: Clone> RegCore<T> {
    fn new(name: String, init: T, seed: u64, log: Arc<OpLog>, gauges: Rc<InflightGauges>) -> Self {
        RegCore {
            name,
            state: RefCell::new(CoreState {
                value: init,
                inflight: Vec::new(),
                next_id: 0,
                rng: StdRng::seed_from_u64(seed),
                gauge_cache: Vec::new(),
            }),
            log,
            gauges,
        }
    }

    /// Updates process `p`'s in-flight gauge through the per-register
    /// cache.
    fn gauge_add(&self, st: &mut CoreState<T>, p: ProcId, delta: i64) {
        if st.gauge_cache.len() <= p.0 {
            st.gauge_cache.resize(p.0 + 1, None);
        }
        st.gauge_cache[p.0]
            .get_or_insert_with(|| self.gauges.cell(p))
            .update(|g| *g += delta);
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
    fn begin(
        &self,
        env: &dyn Env,
        kind: OpKind,
        proc: ProcId,
        invoked: u64,
        payload: Option<T>,
    ) -> u64 {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let mut i = 0;
        while i < st.inflight.len() {
            if env.is_crashed(st.inflight[i].proc) {
                let dead = st.inflight.remove(i);
                self.gauge_add(st, dead.proc, -1);
            } else {
                i += 1;
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        let any = !st.inflight.is_empty();
        let any_write = st.inflight.iter().any(|o| o.kind == OpKind::Write);
        for o in &mut st.inflight {
            o.overlapped = true;
            o.overlapped_write |= kind == OpKind::Write;
        }
        st.inflight.push(Inflight {
            id,
            kind,
            proc,
            overlapped: any,
            overlapped_write: any_write,
            invoked,
            payload,
        });
        self.gauge_add(st, proc, 1);
        id
    }

    /// Response step: remove the in-flight op, sample the adversary, and
    /// run `apply` on the resolution and the register value — all under
    /// one borrow of the state.
    fn resolve_apply<R>(
        &self,
        id: u64,
        apply: impl FnOnce(&mut Resolution<T>, &mut T) -> R,
    ) -> (Resolution<T>, R) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let pos = st
            .inflight
            .iter()
            .position(|o| o.id == id)
            .expect("resolving unknown operation");
        let op = st.inflight.remove(pos);
        // The adversary samples are always drawn, even when the current
        // policy ignores them: policy-dial changes must not shift the
        // per-register RNG stream, or shrinking a fault plan would
        // perturb the rest of the run.
        let u_abort = st.rng.random::<f64>();
        let u_effect = st.rng.random::<f64>();
        self.gauge_add(st, op.proc, -1);
        let mut res = Resolution {
            overlapped: op.overlapped,
            overlapped_write: op.overlapped_write,
            u_abort,
            u_effect,
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
    fn resolve(&self, id: u64) -> Resolution<T> {
        self.resolve_apply(id, |_, _| ()).0
    }

    fn record(&self, kind: OpKind, res: &Resolution<T>, aborted: bool) {
        self.log.push(OpEvent {
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
    core: RegCore<T>,
}

impl<T: Clone> SimAtomicReg<T> {
    pub(crate) fn new(
        name: String,
        init: T,
        seed: u64,
        log: Arc<OpLog>,
        gauges: Rc<InflightGauges>,
    ) -> Self {
        SimAtomicReg {
            core: RegCore::new(name, init, seed, log, gauges),
        }
    }
}

impl<T: Clone> AtomicRegister<T> for SimAtomicReg<T> {
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken {
        OpToken::new(
            self.core
                .begin(env, OpKind::Write, env.pid(), env.now(), Some(v)),
        )
    }

    fn complete_write(&self, _env: &dyn Env, tok: OpToken) {
        let (res, ()) = self.core.resolve_apply(tok.raw(), |res, value| {
            *value = res.payload.take().expect("write resolved without payload");
        });
        self.core.record(OpKind::Write, &res, false);
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        OpToken::new(
            self.core
                .begin(env, OpKind::Read, env.pid(), env.now(), None),
        )
    }

    fn complete_read(&self, _env: &dyn Env, tok: OpToken) -> T {
        let (res, v) = self.core.resolve_apply(tok.raw(), |_, value| value.clone());
        self.core.record(OpKind::Read, &res, false);
        v
    }
}

/// Simulated abortable register.
pub(crate) struct SimAbortableReg<T> {
    core: RegCore<T>,
    abort_policy: AbortPolicy,
    effect_policy: EffectPolicy,
    /// Run-wide override dial shared with the factory (and the nemesis).
    dial: PolicyDial,
    /// If set, only this process may write (single-writer enforcement).
    writer: Option<ProcId>,
    /// If set, only this process may read (single-reader enforcement).
    reader: Option<ProcId>,
}

impl<T: Clone> SimAbortableReg<T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        init: T,
        seed: u64,
        log: Arc<OpLog>,
        gauges: Rc<InflightGauges>,
        abort_policy: AbortPolicy,
        effect_policy: EffectPolicy,
        dial: PolicyDial,
        writer: Option<ProcId>,
        reader: Option<ProcId>,
    ) -> Self {
        SimAbortableReg {
            core: RegCore::new(name, init, seed, log, gauges),
            abort_policy,
            effect_policy,
            dial,
            writer,
            reader,
        }
    }

    /// The abort/effect policies in force right now (base policies
    /// possibly overridden by the dial).
    fn policies(&self) -> (AbortPolicy, EffectPolicy) {
        self.dial.resolve((self.abort_policy, self.effect_policy))
    }
}

impl<T: Clone> AbortableRegister<T> for SimAbortableReg<T> {
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken {
        if let Some(w) = self.writer {
            assert_eq!(
                env.pid(),
                w,
                "register {} written by non-owner",
                self.core.name
            );
        }
        OpToken::new(
            self.core
                .begin(env, OpKind::Write, env.pid(), env.now(), Some(v)),
        )
    }

    fn complete_write(&self, _env: &dyn Env, tok: OpToken) -> WriteOutcome {
        let (abort_policy, effect_policy) = self.policies();
        let (res, aborted) = self.core.resolve_apply(tok.raw(), |res, value| {
            let v = res.payload.take().expect("write resolved without payload");
            let aborted = res.overlapped && abort_policy.aborts(res.u_abort);
            // An aborted write takes effect only if the effect policy says so.
            if !aborted || effect_policy.takes_effect(res.u_effect) {
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
        if let Some(r) = self.reader {
            assert_eq!(
                env.pid(),
                r,
                "register {} read by non-owner",
                self.core.name
            );
        }
        OpToken::new(
            self.core
                .begin(env, OpKind::Read, env.pid(), env.now(), None),
        )
    }

    fn complete_read(&self, _env: &dyn Env, tok: OpToken) -> ReadOutcome<T> {
        let (abort_policy, _) = self.policies();
        let (res, v) = self.core.resolve_apply(tok.raw(), |res, value| {
            if res.overlapped && abort_policy.aborts(res.u_abort) {
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

/// Simulated safe register over `u64`.
pub(crate) struct SimSafeReg {
    core: RegCore<u64>,
}

impl SimSafeReg {
    pub(crate) fn new(
        name: String,
        init: u64,
        seed: u64,
        log: Arc<OpLog>,
        gauges: Rc<InflightGauges>,
    ) -> Self {
        SimSafeReg {
            core: RegCore::new(name, init, seed, log, gauges),
        }
    }
}

impl SafeRegister for SimSafeReg {
    fn invoke_write(&self, env: &dyn Env, v: u64) -> OpToken {
        OpToken::new(
            self.core
                .begin(env, OpKind::Write, env.pid(), env.now(), Some(v)),
        )
    }

    fn complete_write(&self, _env: &dyn Env, tok: OpToken) {
        let (res, ()) = self.core.resolve_apply(tok.raw(), |res, value| {
            *value = res.payload.take().expect("write resolved without payload");
        });
        self.core.record(OpKind::Write, &res, false);
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        OpToken::new(
            self.core
                .begin(env, OpKind::Read, env.pid(), env.now(), None),
        )
    }

    fn complete_read(&self, _env: &dyn Env, tok: OpToken) -> u64 {
        let (res, stored) = self.core.resolve_apply(tok.raw(), |_, value| *value);
        let v = if res.overlapped_write {
            // Arbitrary value: safe semantics under read/write overlap.
            (res.u_abort * u64::MAX as f64) as u64
        } else {
            stored
        };
        self.core.record(OpKind::Read, &res, false);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tbwf_sim::FreeRunEnv;

    fn log() -> Arc<OpLog> {
        Arc::new(OpLog::new())
    }

    fn gauges() -> Rc<InflightGauges> {
        Rc::new(InflightGauges::new())
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
        let r = SimAtomicReg::new("R".into(), 0i64, 1, log(), gauges());
        write(&r, &env, 7);
        assert_eq!(read(&r, &env), 7);
    }

    #[test]
    fn abortable_solo_never_aborts() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            gauges(),
            AbortPolicy::AlwaysOnOverlap,
            EffectPolicy::Never,
            PolicyDial::new(),
            None,
            None,
        );
        for i in 0..100 {
            assert_eq!(try_write(&r, &env, i), WriteOutcome::Ok);
            assert_eq!(try_read(&r, &env), ReadOutcome::Value(i));
        }
    }

    #[test]
    fn overlap_detection_marks_both_ops() {
        let env = FreeRunEnv::new(ProcId(0));
        let r: RegCore<i64> = RegCore::new("R".into(), 0, 1, log(), gauges());
        let a = r.begin(&env, OpKind::Read, ProcId(0), 0, None);
        let b = r.begin(&env, OpKind::Write, ProcId(1), 0, Some(1));
        let ra = r.resolve(a);
        let rb = r.resolve(b);
        assert!(ra.overlapped);
        assert!(ra.overlapped_write);
        assert!(rb.overlapped);
        assert!(!rb.overlapped_write);
    }

    #[test]
    fn sequential_ops_do_not_overlap() {
        let env = FreeRunEnv::new(ProcId(0));
        let r: RegCore<i64> = RegCore::new("R".into(), 0, 1, log(), gauges());
        let a = r.begin(&env, OpKind::Read, ProcId(0), 0, None);
        let ra = r.resolve(a);
        let b = r.begin(&env, OpKind::Write, ProcId(0), 1, Some(1));
        let rb = r.resolve(b);
        assert!(!ra.overlapped);
        assert!(!rb.overlapped);
    }

    #[test]
    #[should_panic(expected = "written by non-owner")]
    fn single_writer_enforced() {
        let env = FreeRunEnv::new(ProcId(3));
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            gauges(),
            AbortPolicy::default(),
            EffectPolicy::default(),
            PolicyDial::new(),
            Some(ProcId(0)),
            None,
        );
        let _ = r.invoke_write(&env, 1);
    }

    #[test]
    fn ops_are_logged() {
        let env = FreeRunEnv::new(ProcId(2));
        let l = log();
        let r = SimAtomicReg::new("Reg".into(), 0i64, 1, Arc::clone(&l), gauges());
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
        let l = log();
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            Arc::clone(&l),
            gauges(),
            AbortPolicy::AlwaysOnOverlap,
            EffectPolicy::Never,
            PolicyDial::new(),
            None,
            None,
        );
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
    fn safe_register_solo_reads_are_exact() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = SimSafeReg::new("S".into(), 9, 1, log(), gauges());
        let safe_read = |env: &FreeRunEnv| {
            let t = r.invoke_read(env);
            env.advance();
            r.complete_read(env, t)
        };
        assert_eq!(safe_read(&env), 9);
        let t = r.invoke_write(&env, 11);
        env.advance();
        r.complete_write(&env, t);
        assert_eq!(safe_read(&env), 11);
    }

    #[test]
    fn inflight_gauge_tracks_invoke_to_complete_window() {
        let g = gauges();
        let r: RegCore<i64> = RegCore::new("R".into(), 0, 1, log(), Rc::clone(&g));
        let env = FreeRunEnv::new(ProcId(2));
        let cell = g.cell(ProcId(2));
        assert_eq!(cell.get(), 0);
        let a = r.begin(&env, OpKind::Write, ProcId(2), 0, Some(1));
        assert_eq!(cell.get(), 1, "held between invoke and complete");
        let b = r.begin(&env, OpKind::Read, ProcId(2), 0, None);
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
        let g = gauges();
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            Rc::clone(&g),
            AbortPolicy::AlwaysOnOverlap,
            EffectPolicy::Never,
            PolicyDial::new(),
            None,
            None,
        );
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
        assert_eq!(g.cell(ProcId(1)).get(), 0);
    }

    #[test]
    fn dial_overrides_only_while_set() {
        let env = FreeRunEnv::new(ProcId(0));
        let dial = PolicyDial::new();
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            gauges(),
            AbortPolicy::Never,
            EffectPolicy::Never,
            dial.clone(),
            None,
            None,
        );
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
