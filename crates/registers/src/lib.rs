//! Shared registers for the TBWF reproduction: atomic, safe, and
//! **abortable** registers.
//!
//! # Model
//!
//! In the paper's model (Section 3 and \[2\]) a register operation spans an
//! *invocation* step and a *response* step; two operations are
//! **concurrent** iff their invoke–response intervals overlap. The
//! simulated registers here implement exactly that:
//!
//! * an operation is split into an `invoke_*` call, made at the end of
//!   one step of the caller, and a `complete_*` call, made at the start
//!   of the caller's *next* step (arbitrarily far in global time), where
//!   it resolves;
//! * an **atomic** register linearizes at the response and never aborts;
//! * a **safe** register returns an arbitrary (seeded) value when a read
//!   overlaps a write;
//! * an **abortable** register *may abort* any operation that overlaps
//!   another operation on the same register: an aborted read returns no
//!   value, an aborted write returns `⊥` and *may or may not take effect*
//!   (the writer cannot tell) — the semantics of \[2\] as summarized in
//!   Section 1.2 of the paper. Operations that overlap nothing **never**
//!   abort, which is what makes solo execution (and hence
//!   obstruction-freedom) possible.
//!
//! Abort and effect decisions are driven by a seeded [`AbortPolicy`] /
//! [`EffectPolicy`] so every adversary is reproducible; the default policy
//! (`AlwaysOnOverlap`) is the strongest admissible adversary.
//!
//! The same registers serve the native thread harness of the `tbwf`
//! crate: their overlap detection is lock-based, so genuinely concurrent
//! operations overlap (and abortable ones may abort) there too.
//!
//! All registers are created through a [`RegisterFactory`], which tags each
//! register with a name and records every operation into a shared
//! [`OpLog`] — the write-efficiency experiment (E6) and the abort-rate
//! ablation (E8) read the log.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cas;
mod core_reg;
mod factory;
mod outcome;
mod policy;
pub mod stats;

pub use cas::{CasRegister, SharedCas};
pub use core_reg::InflightGauges;
pub use factory::{RegisterFactory, RegisterFactoryConfig};
pub use outcome::{ReadOutcome, WriteOutcome};
pub use policy::{
    AbortPolicy, EffectPolicy, PolicyDial, DIAL_ABORT_NO_EFFECT, DIAL_ABORT_STORM, DIAL_BASE,
    DIAL_CALM,
};
pub use stats::{OpEvent, OpKind, OpLog};

use std::sync::Arc;
use tbwf_sim::Env;

/// Opaque handle to one register operation between its invocation and its
/// response step.
///
/// Returned by the `invoke_*` methods; passed to the matching `complete_*`
/// method exactly once, on a *later* step of the same task (invoke at the
/// end of one segment, complete at the start of the next). Completing a
/// token twice, or a token from a different register, panics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpToken(u64);

impl OpToken {
    /// Wraps a raw operation id (for register implementors).
    pub fn new(raw: u64) -> Self {
        OpToken(raw)
    }

    /// The raw operation id (for register implementors).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A multi-writer multi-reader atomic register.
///
/// Operations never abort; each costs two steps (invoke + response). A
/// write value is captured at invocation.
pub trait AtomicRegister<T: Clone>: Send + Sync {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken;

    /// Response step of a write; linearization point.
    fn complete_write(&self, env: &dyn Env, tok: OpToken);

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; returns the value read.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T;
}

/// An abortable register (\[2\]; Section 1.2 of the paper).
///
/// Operations that are concurrent with other operations on the same
/// register **may** return `⊥` ([`WriteOutcome::Aborted`] /
/// [`ReadOutcome::Aborted`]); an aborted write may or may not have taken
/// effect. An operation concurrent with nothing never aborts.
pub trait AbortableRegister<T: Clone>: Send + Sync {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken;

    /// Response step of a write; reports whether it aborted.
    fn complete_write(&self, env: &dyn Env, tok: OpToken) -> WriteOutcome;

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; aborted reads return no value.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> ReadOutcome<T>;
}

/// A safe register holding `u64` values.
///
/// A read that overlaps a write returns an *arbitrary* value (here: a
/// seeded pseudo-random one). Included to demonstrate that abortable
/// registers are *weaker* than safe registers: a safe write always takes
/// effect, an abortable one may not.
pub trait SafeRegister: Send + Sync {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: u64) -> OpToken;

    /// Response step of a write (always takes effect).
    fn complete_write(&self, env: &dyn Env, tok: OpToken);

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; an overlapping write makes the result
    /// arbitrary.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> u64;
}

/// Shorthand for a shared atomic register handle.
pub type SharedAtomic<T> = Arc<dyn AtomicRegister<T>>;
/// Shorthand for a shared abortable register handle.
pub type SharedAbortable<T> = Arc<dyn AbortableRegister<T>>;
