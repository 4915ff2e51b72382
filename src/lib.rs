//! **tbwf-repro** — umbrella crate of the reproduction of
//! *"Timeliness-Based Wait-Freedom: A Gracefully Degrading Progress
//! Condition"* (Aguilera & Toueg, PODC 2008).
//!
//! This crate exists to host the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`); it simply re-exports
//! the member crates. Library users should depend on [`tbwf`] directly.
//!
//! Workspace layout:
//!
//! * [`sim`] — deterministic partial-synchrony simulator (Section 3's
//!   model: steps, schedules, crashes, measured timeliness);
//! * [`registers`] — atomic and **abortable** registers;
//! * [`monitor`] — activity monitors `A(p, q)` (Figure 2);
//! * [`omega`] — the dynamic leader elector Ω∆ from atomic registers
//!   (Figure 3) and from abortable registers (Figures 4–6);
//! * [`universal`] — the query-abortable universal construction, the
//!   TBWF transform (Figure 7), and the baselines;
//! * [`tbwf`] — object-type library and the high-level system builder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tbwf;
pub use tbwf_monitor as monitor;
pub use tbwf_omega as omega;
pub use tbwf_registers as registers;
pub use tbwf_sim as sim;
pub use tbwf_universal as universal;
