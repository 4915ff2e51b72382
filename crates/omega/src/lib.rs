//! The dynamic leader elector **Ω∆** — Sections 4–6 of the paper.
//!
//! Ω∆ lets processes *dynamically* compete for leadership through a local
//! input `candidate_p ∈ {true, false}` and a local output
//! `leader_p ∈ Π ∪ {?}`. Its specification (Definition 5) is stated in
//! terms of the *timeliness* of the candidates: if at least one timely
//! process is eventually a permanent candidate, then a timely candidate is
//! eventually elected at every permanent candidate — even if other
//! candidates flicker, crash, or are arbitrarily slow.
//!
//! Two implementations are provided:
//!
//! * [`atomic_impl`] — Figure 3: atomic registers plus a mesh of activity
//!   monitors (`tbwf-monitor`);
//! * [`abortable_impl`] — Figures 4–6: single-writer single-reader
//!   **abortable** registers only, using the final-value message channel
//!   (Fig. 4) and the two-register heartbeat (Fig. 5).
//!
//! [`spec`] turns Definition 5 / Theorem 7 into executable checks;
//! [`drivers`] provides candidate-input driver tasks (including the
//! *canonical use* of Definition 6); [`harness`] assembles complete
//! n-process systems for tests and experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod abortable_impl;
pub mod atomic_impl;
pub mod drivers;
pub mod harness;
pub mod omega_fd;
pub mod spec;

pub use drivers::{
    add_candidate_driver, add_external_candidate_driver, set_candidate, CandidateScript,
};
pub use harness::{run_omega_system, OmegaKind, OmegaSystemConfig};
pub use omega_fd::{install_omega_fd, OmegaFdHandle};
pub use spec::{check_spec, classify_candidate, CandidateClass, OmegaRunData, OmegaVerdict};

use tbwf_sim::{Env, Local, ProcId};

/// Observation key for the `leader` output (`? = −1`, else the process id).
pub const OBS_LEADER: &str = "leader";
/// Observation key for the `candidate` input (0/1).
pub const OBS_CANDIDATE: &str = "candidate";

/// The local interface between one process and Ω∆ (Section 4).
#[derive(Clone)]
pub struct OmegaHandles {
    /// Input `candidate_p`: set true to compete for leadership.
    pub candidate: Local<bool>,
    /// Output `leader_p`: `None` encodes `?`.
    pub leader: Local<Option<ProcId>>,
}

impl OmegaHandles {
    /// Fresh handles: not a candidate, leader `?`.
    pub fn new() -> Self {
        OmegaHandles {
            candidate: Local::new(false),
            leader: Local::new(None),
        }
    }
}

impl Default for OmegaHandles {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes a leader value for the trace (`? = −1`).
pub fn leader_code(v: Option<ProcId>) -> i64 {
    v.map(|p| p.0 as i64).unwrap_or(-1)
}

/// Sets `leader_p` and records the change in the trace (only on change).
pub(crate) fn set_leader(env: &dyn Env, handle: &Local<Option<ProcId>>, v: Option<ProcId>) {
    if handle.get() != v {
        handle.set(v);
        env.observe(OBS_LEADER, 0, leader_code(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_code_encodes_unknown() {
        assert_eq!(leader_code(None), -1);
        assert_eq!(leader_code(Some(ProcId(4))), 4);
    }

    #[test]
    fn handles_default_state() {
        let h = OmegaHandles::new();
        assert!(!h.candidate.get());
        assert_eq!(h.leader.get(), None);
    }
}
