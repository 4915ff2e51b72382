//! The committed E13 table and counterexample artifact are what the
//! experiment produces now. Nothing is written.

#[path = "../../bench/tests/common/mod.rs"]
mod common;

use tbwf_check::e13_model_check;
use tbwf_sim::Executor;

#[test]
fn e13_table_and_artifact() {
    let findings = e13_model_check::run(&Executor::new(2));
    common::assert_findings("e13_model_check", &findings, "e13_counterexample");
}
