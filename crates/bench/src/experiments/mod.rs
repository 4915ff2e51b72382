//! The experiments E1–E12, one module each, named after its binary
//! (`src/bin/<module>.rs`). Each `run` returns exactly the text the
//! binary prints and asserts the paper claim it measures (a violated
//! claim panics); `tests/results.rs` compares that text with the
//! committed `results/<module>.txt`. E11 and E12 shard their grid over
//! an [`Executor`](tbwf_sim::Executor), and E12 returns its repro
//! artifacts as well ([`Findings`](crate::Findings)). E13 is
//! `tbwf_check::e13_model_check`.

pub mod e10_self_punishment;
pub mod e11_scaling;
pub mod e12_gauntlet;
pub mod e1_activity_monitor;
pub mod e2_omega_registers;
pub mod e3_omega_abortable;
pub mod e4_graceful_degradation;
pub mod e5_boosting_comparison;
pub mod e6_write_efficiency;
pub mod e7_canonical_use;
pub mod e8_abortable_ablation;
pub mod e9_adaptive_timeout;

use tbwf_monitor::fig2::ActivityMonitorPair;
use tbwf_sim::{FutureTask, SimBuilder};

/// E1's and E9's system: `p0` runs `pair`'s monitoring side and `p1` its
/// monitored side.
fn monitor_pair_system(pair: ActivityMonitorPair) -> SimBuilder {
    let (monitoring_side, monitored_side) = (pair.monitoring_side, pair.monitored_side);
    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    let monitoring = FutureTask::new(|env| monitoring_side.run(env));
    b.add_stepper(p0, "monitoring", Box::new(monitoring));
    let p1 = b.add_process("p1");
    let monitored = FutureTask::new(|env| monitored_side.run(env));
    b.add_stepper(p1, "monitored", Box::new(monitored));
    b
}
