//! Abort and effect policies: the register-level adversary.
//!
//! The specification of an abortable register says that operations that
//! are concurrent with other operations **may** abort; it does not say
//! when. The choice is therefore adversarial, and these policies let a run
//! pick its adversary. All randomness is seeded per register, so runs are
//! reproducible.
//!
//! A [`PolicyDial`] lets the adversary *change mid-run*: the nemesis
//! turns the dial to one of the [`DIAL_BASE`]/[`DIAL_ABORT_STORM`]/
//! [`DIAL_CALM`]/[`DIAL_ABORT_NO_EFFECT`] modes and every abortable
//! register of the factory immediately follows. All modes stay within
//! the abortable specification — only *overlapped* operations ever
//! abort, so a fault burst can never violate the register's contract,
//! it can only exercise the admissible adversary harder.

use tbwf_sim::Local;

/// When does an operation that overlapped another operation abort?
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum AbortPolicy {
    /// Every overlapping operation aborts: the strongest admissible
    /// adversary, and the default everywhere.
    #[default]
    AlwaysOnOverlap,
    /// An overlapping operation aborts with probability `p_abort`.
    Seeded {
        /// Probability that an overlapping operation aborts.
        p_abort: f64,
    },
    /// Overlapping operations never abort — the register behaves
    /// atomically. Useful as a control in ablations.
    Never,
}

impl AbortPolicy {
    /// Decides whether an overlapped operation aborts, given a uniform
    /// sample `u ∈ [0, 1)`.
    pub fn aborts(self, u: f64) -> bool {
        match self {
            AbortPolicy::AlwaysOnOverlap => true,
            AbortPolicy::Seeded { p_abort } => u < p_abort,
            AbortPolicy::Never => false,
        }
    }
}

/// Does an *aborted write* take effect anyway?
///
/// The writer gets `⊥` either way and cannot tell (Section 1.2 of the
/// paper, footnote 2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EffectPolicy {
    /// Aborted writes never take effect.
    Never,
    /// Aborted writes always take effect.
    Always,
    /// An aborted write takes effect with probability `p_effect`.
    Seeded {
        /// Probability that an aborted write takes effect.
        p_effect: f64,
    },
}

impl Default for EffectPolicy {
    fn default() -> Self {
        EffectPolicy::Seeded { p_effect: 0.5 }
    }
}

impl EffectPolicy {
    /// Decides whether an aborted write takes effect, given a uniform
    /// sample `u ∈ [0, 1)`.
    pub fn takes_effect(self, u: f64) -> bool {
        match self {
            EffectPolicy::Never => false,
            EffectPolicy::Always => true,
            EffectPolicy::Seeded { p_effect } => u < p_effect,
        }
    }
}

/// Dial mode: use the policies the factory was configured with.
pub const DIAL_BASE: i64 = 0;
/// Dial mode: every overlapped operation aborts and every aborted write
/// takes effect — the strongest admissible adversary.
pub const DIAL_ABORT_STORM: i64 = 1;
/// Dial mode: nothing aborts — the registers behave atomically.
pub const DIAL_CALM: i64 = 2;
/// Dial mode: every overlapped operation aborts and no aborted write
/// takes effect.
pub const DIAL_ABORT_NO_EFFECT: i64 = 3;

/// A run-wide override knob for the abort/effect policies of every
/// abortable register created by one factory.
///
/// Cloning yields another handle to the same dial. The raw handle
/// ([`PolicyDial::handle`]) can be registered with a nemesis as a dial
/// named in `SetDial` fault actions; unknown values behave like
/// [`DIAL_BASE`].
#[derive(Clone, Default)]
pub struct PolicyDial {
    mode: Local<i64>,
}

impl PolicyDial {
    /// Creates a dial in [`DIAL_BASE`] mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current mode.
    pub fn mode(&self) -> i64 {
        self.mode.get()
    }

    /// Sets the mode.
    pub fn set(&self, mode: i64) {
        self.mode.set(mode);
    }

    /// The shared cell behind the dial (for nemesis registration).
    pub fn handle(&self) -> Local<i64> {
        self.mode.clone()
    }

    /// The effective policies under the current mode, given the
    /// factory-configured base policies.
    pub fn resolve(&self, base: (AbortPolicy, EffectPolicy)) -> (AbortPolicy, EffectPolicy) {
        match self.mode() {
            DIAL_ABORT_STORM => (AbortPolicy::AlwaysOnOverlap, EffectPolicy::Always),
            DIAL_CALM => (AbortPolicy::Never, EffectPolicy::Never),
            DIAL_ABORT_NO_EFFECT => (AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never),
            _ => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dial_modes_resolve() {
        let dial = PolicyDial::new();
        let base = (AbortPolicy::Never, EffectPolicy::Never);
        assert_eq!(dial.resolve(base), base);
        dial.set(DIAL_ABORT_STORM);
        assert_eq!(
            dial.resolve(base),
            (AbortPolicy::AlwaysOnOverlap, EffectPolicy::Always)
        );
        dial.set(DIAL_CALM);
        assert_eq!(
            dial.resolve(base),
            (AbortPolicy::Never, EffectPolicy::Never)
        );
        dial.set(DIAL_ABORT_NO_EFFECT);
        assert_eq!(
            dial.resolve(base),
            (AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never)
        );
        dial.set(99);
        assert_eq!(dial.resolve(base), base, "unknown modes fall back to base");
    }

    #[test]
    fn dial_clones_share_state() {
        let dial = PolicyDial::new();
        let other = dial.clone();
        other.handle().set(DIAL_CALM);
        assert_eq!(dial.mode(), DIAL_CALM);
    }

    #[test]
    fn always_policy_always_aborts() {
        assert!(AbortPolicy::AlwaysOnOverlap.aborts(0.0));
        assert!(AbortPolicy::AlwaysOnOverlap.aborts(0.999));
    }

    #[test]
    fn never_policy_never_aborts() {
        assert!(!AbortPolicy::Never.aborts(0.0));
    }

    #[test]
    fn seeded_policy_thresholds() {
        let p = AbortPolicy::Seeded { p_abort: 0.3 };
        assert!(p.aborts(0.1));
        assert!(!p.aborts(0.5));
    }

    #[test]
    fn effect_policies() {
        assert!(!EffectPolicy::Never.takes_effect(0.0));
        assert!(EffectPolicy::Always.takes_effect(0.99));
        let s = EffectPolicy::Seeded { p_effect: 0.5 };
        assert!(s.takes_effect(0.2));
        assert!(!s.takes_effect(0.8));
    }

    #[test]
    fn defaults() {
        assert_eq!(AbortPolicy::default(), AbortPolicy::AlwaysOnOverlap);
        assert_eq!(
            EffectPolicy::default(),
            EffectPolicy::Seeded { p_effect: 0.5 }
        );
    }
}
