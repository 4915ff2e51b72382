//! The register factory: creates named, logged, seeded registers for one
//! run.

use crate::core_reg::{InflightGauges, SimAbortableReg, SimAtomicReg, SimSafeReg};
use crate::policy::{AbortPolicy, EffectPolicy, PolicyDial};
use crate::stats::OpLog;
use crate::{SafeRegister, SharedAbortable, SharedAtomic};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use tbwf_sim::{Local, ProcId};

/// Configuration for all registers created by one factory.
#[derive(Clone, Copy, Debug)]
pub struct RegisterFactoryConfig {
    /// Master seed; each register derives its own RNG from it.
    pub seed: u64,
    /// Abort policy for abortable registers.
    pub abort_policy: AbortPolicy,
    /// Effect policy for aborted writes.
    pub effect_policy: EffectPolicy,
}

impl Default for RegisterFactoryConfig {
    fn default() -> Self {
        RegisterFactoryConfig {
            seed: 0xB0A7,
            abort_policy: AbortPolicy::default(),
            effect_policy: EffectPolicy::default(),
        }
    }
}

/// Creates the shared registers of one run, all feeding a common
/// [`OpLog`].
///
/// ```
/// use tbwf_registers::{ReadOutcome, RegisterFactory, WriteOutcome};
/// use tbwf_sim::{FreeRunEnv, ProcId};
///
/// let factory = RegisterFactory::default();
/// let reg = factory.abortable("R", 0i64);
/// let env = FreeRunEnv::new(ProcId(0));
/// // Solo operations on an abortable register never abort. Each spans
/// // two steps of the caller: the invocation and the response.
/// let tok = reg.invoke_write(&env, 7);
/// env.advance();
/// assert_eq!(reg.complete_write(&env, tok), WriteOutcome::Ok);
/// let tok = reg.invoke_read(&env);
/// env.advance();
/// assert_eq!(reg.complete_read(&env, tok), ReadOutcome::Value(7));
/// assert_eq!(factory.log().len(), 2);
/// ```
pub struct RegisterFactory {
    config: RegisterFactoryConfig,
    log: Arc<OpLog>,
    counter: Cell<u64>,
    dial: PolicyDial,
    gauges: Rc<InflightGauges>,
}

impl RegisterFactory {
    /// Creates a factory with the given configuration.
    pub fn new(config: RegisterFactoryConfig) -> Self {
        RegisterFactory {
            config,
            log: Arc::new(OpLog::new()),
            counter: Cell::new(0),
            dial: PolicyDial::new(),
            gauges: Rc::new(InflightGauges::new()),
        }
    }

    /// The shared operation log.
    pub fn log(&self) -> Arc<OpLog> {
        Arc::clone(&self.log)
    }

    /// The factory configuration.
    pub fn config(&self) -> RegisterFactoryConfig {
        self.config
    }

    /// The run-wide policy-override dial shared by every abortable
    /// register of this factory (register its [`PolicyDial::handle`]
    /// with a nemesis to inject register fault bursts).
    pub fn policy_dial(&self) -> PolicyDial {
        self.dial.clone()
    }

    /// The in-flight-operation gauge of process `p` across all registers
    /// of this factory (register it with a nemesis to crash `p` between
    /// `invoke_` and `complete_` of an operation).
    pub fn inflight_gauge(&self, p: ProcId) -> Local<i64> {
        self.gauges.cell(p)
    }

    fn next_seed(&self) -> u64 {
        // SplitMix-style derivation keeps per-register streams independent.
        let i = self.counter.get();
        self.counter.set(i + 1);
        self.config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i)
    }

    /// Creates a multi-writer multi-reader atomic register.
    pub fn atomic<T: Clone + 'static>(&self, name: &str, init: T) -> SharedAtomic<T> {
        Rc::new(SimAtomicReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Rc::clone(&self.gauges),
        ))
    }

    /// Creates a multi-writer multi-reader abortable register.
    pub fn abortable<T: Clone + 'static>(&self, name: &str, init: T) -> SharedAbortable<T> {
        Rc::new(SimAbortableReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Rc::clone(&self.gauges),
            self.config.abort_policy,
            self.config.effect_policy,
            self.dial.clone(),
            None,
            None,
        ))
    }

    /// Creates a single-writer single-reader abortable register owned by
    /// `writer`/`reader` (ownership is asserted at every operation), as
    /// used throughout Section 6.
    pub fn abortable_swsr<T: Clone + 'static>(
        &self,
        name: &str,
        init: T,
        writer: ProcId,
        reader: ProcId,
    ) -> SharedAbortable<T> {
        Rc::new(SimAbortableReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Rc::clone(&self.gauges),
            self.config.abort_policy,
            self.config.effect_policy,
            self.dial.clone(),
            Some(writer),
            Some(reader),
        ))
    }

    /// Creates a single-writer multi-reader abortable register owned by
    /// `writer` (write ownership is asserted at every operation).
    pub fn abortable_swmr<T: Clone + 'static>(
        &self,
        name: &str,
        init: T,
        writer: ProcId,
    ) -> SharedAbortable<T> {
        Rc::new(SimAbortableReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Rc::clone(&self.gauges),
            self.config.abort_policy,
            self.config.effect_policy,
            self.dial.clone(),
            Some(writer),
            None,
        ))
    }

    /// Creates a safe register over `u64`.
    pub fn safe(&self, name: &str, init: u64) -> Rc<dyn SafeRegister> {
        Rc::new(SimSafeReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Rc::clone(&self.gauges),
        ))
    }

    /// Creates a compare-and-swap register (used only by the strong-
    /// primitive baseline, never by the paper's constructions).
    ///
    /// The name is accepted like every other register's but not kept: a
    /// CAS register has no owner whose check could name it in a panic.
    pub fn cas<T: Clone + PartialEq + 'static>(&self, _name: &str, init: T) -> crate::SharedCas<T> {
        Rc::new(crate::cas::SimCasReg::new(init, self.log()))
    }
}

impl Default for RegisterFactory {
    fn default() -> Self {
        RegisterFactory::new(RegisterFactoryConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbortableRegister, ReadOutcome, WriteOutcome};
    use std::collections::BTreeSet;
    use tbwf_sim::FreeRunEnv;

    fn try_write(r: &dyn AbortableRegister<i64>, env: &FreeRunEnv, v: i64) -> WriteOutcome {
        let t = r.invoke_write(env, v);
        env.advance();
        r.complete_write(env, t)
    }

    fn try_read(r: &dyn AbortableRegister<i64>, env: &FreeRunEnv) -> ReadOutcome<i64> {
        let t = r.invoke_read(env);
        env.advance();
        r.complete_read(env, t)
    }

    #[test]
    fn factory_creates_working_registers() {
        let f = RegisterFactory::default();
        let env = FreeRunEnv::new(ProcId(0));
        let a = f.atomic("A", 1i64);
        let b = f.abortable("B", 2i64);
        let s = f.safe("S", 3);
        let t = a.invoke_read(&env);
        assert_eq!(a.complete_read(&env, t), 1);
        assert_eq!(try_read(&*b, &env), ReadOutcome::Value(2));
        let t = s.invoke_read(&env);
        assert_eq!(s.complete_read(&env, t), 3);
        assert_eq!(try_write(&*b, &env, 9), WriteOutcome::Ok);
        assert_eq!(try_read(&*b, &env), ReadOutcome::Value(9));
        assert_eq!(f.log().len(), 5);
    }

    #[test]
    fn swsr_allows_owner() {
        let f = RegisterFactory::default();
        let env = FreeRunEnv::new(ProcId(1));
        let r = f.abortable_swsr("R", 0i64, ProcId(1), ProcId(1));
        assert_eq!(try_write(&*r, &env, 5), WriteOutcome::Ok);
        assert_eq!(try_read(&*r, &env), ReadOutcome::Value(5));
    }

    #[test]
    fn seeds_differ_per_register() {
        let f = RegisterFactory::new(RegisterFactoryConfig {
            seed: 42,
            ..Default::default()
        });
        // Two registers created by the same factory must not share RNG
        // streams; we can only check the derivation differs.
        let s1 = f.next_seed();
        let s2 = f.next_seed();
        assert_ne!(s1, s2);
    }

    #[test]
    fn logged_write_is_dated_by_its_invocation() {
        let f = RegisterFactory::default();
        let env = FreeRunEnv::new(ProcId(0));
        let a = f.atomic("A", 0i64);
        let t = a.invoke_write(&env, 1);
        env.advance();
        a.complete_write(&env, t);
        // Invoked at 0, responded at 1: a writer since 0, not since 1.
        let log = f.log();
        assert_eq!(log.writers_since(0), BTreeSet::from([ProcId(0)]));
        assert!(log.writers_since(1).is_empty());
        assert_eq!(log.abort_stats(), (1, 0, 0));
    }
}
