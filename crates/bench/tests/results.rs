//! Every committed result table is what its experiment produces now:
//! one test per table (E11 is a release CI step, too slow in debug), so
//! the tables run in parallel and a failure names its table. E12's test
//! also compares its repro artifact. Nothing is written.

mod common;

use tbwf_bench::experiments::*;
use tbwf_sim::Executor;

fn assert_table(name: &str, text: &str) {
    common::assert_committed(&format!("{name}.txt"), text, &[]);
}

#[test]
fn e1_table() {
    assert_table("e1_activity_monitor", &e1_activity_monitor::run());
}

#[test]
fn e2_table() {
    assert_table("e2_omega_registers", &e2_omega_registers::run());
}

#[test]
fn e3_table() {
    assert_table("e3_omega_abortable", &e3_omega_abortable::run());
}

#[test]
fn e4_table() {
    assert_table("e4_graceful_degradation", &e4_graceful_degradation::run());
}

#[test]
fn e5_table() {
    assert_table("e5_boosting_comparison", &e5_boosting_comparison::run());
}

#[test]
fn e6_table() {
    assert_table("e6_write_efficiency", &e6_write_efficiency::run());
}

#[test]
fn e7_table() {
    assert_table("e7_canonical_use", &e7_canonical_use::run());
}

#[test]
fn e8_table() {
    assert_table("e8_abortable_ablation", &e8_abortable_ablation::run());
}

#[test]
fn e9_table() {
    assert_table("e9_adaptive_timeout", &e9_adaptive_timeout::run());
}

#[test]
fn e10_table() {
    assert_table("e10_self_punishment", &e10_self_punishment::run());
}

#[test]
fn e12_table_and_artifact() {
    let findings = e12_gauntlet::run(&Executor::new(2));
    common::assert_findings("e12_gauntlet", &findings, "e12_ablation_repro");
}
