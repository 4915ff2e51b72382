//! `tbwf-check` — a bounded model checker over schedules and fault
//! placements for the TBWF reproduction.
//!
//! The gauntlet (E12) samples the fault space; this crate *exhausts* a
//! bounded slice of it. A [`CheckConfig`] pins a base scenario — system
//! kind, seed, run length, background fault plan — and carves out a
//! **decision window** of `depth` consecutive step slots. Within the
//! window the checker, not the background schedule, decides everything:
//! which process takes each step, and at which slots the catalogue
//! injections (candidacy churn, crashes, policy-dial bursts, demotions)
//! fire. Exploration is bounded by a CHESS-style preemption budget and
//! an injection budget, reduced by sleep-set pruning (delaying an
//! injection past a step that cannot observe it yields the same run),
//! and deduplicated by terminal-state fingerprints.
//!
//! Every enumerated assignment is run to the horizon through the
//! gauntlet's own entry point ([`run_scenario_under`]), so the oracles
//! are exactly the paper's invariants: Definition 9 monitor properties,
//! the Definition 5 Ω∆ spec plus quiescence, bounded `faultCntr`,
//! post-stabilization leader agreement, linearizability of the Figure 7
//! counter (full Wing & Gong on the checker's short horizons), and
//! timely-process progress. A recording tap on the schedule validates
//! each run against the enumerator's analytic prediction, so the tree
//! that was explored is provably the tree that was executed.
//!
//! Violating leaves are ddmin-shrunk and serialized as self-contained
//! artifacts in the gauntlet's repro JSON format, extended with the
//! decision-window script. The frontier is sharded across the
//! work-stealing [`Executor`] in fixed chunks of the canonical leaf
//! list, so reports are byte-identical for every worker count.
//!
//! [`run_scenario_under`]: tbwf_bench::gauntlet::run_scenario_under
//! [`Executor`]: tbwf_sim::Executor

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod config;
pub mod enumerate;
pub mod exec;
pub mod report;
pub mod suite;

pub use config::{CheckConfig, InjectionSpec};
pub use enumerate::{enumerate, Enumeration, Leaf};
pub use exec::{check, fingerprint, materialize, replay_counterexample, run_leaf, CHUNK_LEAVES};
pub use report::{
    counterexample_from_artifact, window_from_artifact, CheckReport, CheckStats, Counterexample,
    LoadedCounterexample,
};
pub use suite::{ablation_config, suite, SuiteScale};
