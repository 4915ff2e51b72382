//! Universal constructions for timeliness-based wait-freedom (Section 7).
//!
//! * [`object`] — the [`ObjectType`] framework: any
//!   sequential type `T` given as `(State, Op, Resp, apply)`.
//! * [`qa`] — a **wait-free query-abortable universal construction** from
//!   abortable registers: the substitute for the construction of
//!   reference \[2\] (Aguilera, Frolund, Hadzilacos, Horn, Toueg,
//!   PODC'07), which this paper uses as a black box. See `DESIGN.md` §4
//!   for why the substitution preserves the three properties Figure 7
//!   needs: wait-freedom, solo success, and linearizable effects with
//!   fate-reporting `query`.
//! * [`tbwf`] — Figure 7: the transform that combines Ω∆ (from
//!   `tbwf-omega`) with the query-abortable object to obtain a
//!   timeliness-based wait-free object of any type (Theorems 14–15).
//! * [`baselines`] — what the paper compares against in prose: a plain
//!   obstruction-free driver (no Ω∆), an FLMS-style panic-flag booster
//!   \[7\] (assumes *all* processes timely; not gracefully degrading),
//!   and a Herlihy-style wait-free construction from CAS (strong
//!   primitives).
//!
//! The runner that assembles these into n-process systems and executes
//! workloads on them is `tbwf::system`, in the umbrella crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod object;
pub mod qa;
pub mod tbwf;

pub use object::{replay, Counter, ObjectType, Outcome};
pub use qa::{QaObject, QaSession};
