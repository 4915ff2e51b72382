//! **tbwf** — timeliness-based wait-freedom: gracefully degrading shared
//! objects.
//!
//! This is the umbrella crate of a full reproduction of
//! *"Timeliness-Based Wait-Freedom: A Gracefully Degrading Progress
//! Condition"* (Marcos K. Aguilera and Sam Toueg, PODC 2008). It provides:
//!
//! * a library of sequential [`types`] (counter, fetch-and-add, stack,
//!   FIFO queue, double-ended queue, register file, CAS object) usable
//!   with every universal construction in the workspace;
//! * the high-level [`system`] runner: [`TbwfSystemBuilder`] assembles an
//!   n-process simulated system running any object type under the
//!   paper's TBWF construction (Ω∆ + query-abortable object, Figure 7),
//!   and [`system::run_counter_workload`] runs an increment workload on
//!   that construction or on one of the baselines; both execute the
//!   workloads under a chosen partial-synchrony schedule and collect
//!   per-process results;
//! * [`linearize`]: a complete linearizability checker and the
//!   counter-history oracle every counter run is checked with;
//! * a [`prelude`] re-exporting the commonly used items from all the
//!   member crates.
//!
//! # Quick example
//!
//! ```
//! use tbwf::prelude::*;
//!
//! // Three processes each push then pop on a TBWF stack, round-robin
//! // schedule (everyone timely): every timely process completes all its
//! // operations — wait-freedom in the fully synchronous regime.
//! let run = TbwfSystemBuilder::new(Stack)
//!     .processes(3)
//!     .workload_all(Workload::Script(vec![
//!         StackOp::Push(7),
//!         StackOp::Pop,
//!     ]))
//!     .run(RunConfig::new(150_000, RoundRobin::new()));
//! run.report.assert_no_panics();
//! assert_eq!(run.completed, vec![2, 2, 2]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod linearize;
pub mod prelude;
pub mod system;
pub mod types;

pub use system::{OpResult, TbwfRun, TbwfSystemBuilder, Workload};
pub use types::{
    CasObject, CasOp, CasResp, Consensus, ConsensusOp, ConsensusResp, Deque, DequeOp, DequeResp,
    FetchAdd, FetchAddOp, Queue, QueueOp, QueueResp, RegFile, RegFileOp, RegFileResp, Snapshot,
    SnapshotOp, SnapshotResp, Stack, StackOp, StackResp,
};
