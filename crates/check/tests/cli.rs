//! The command line of e13.

#[path = "../../bench/tests/common/mod.rs"]
mod common;

const E13: &str = env!("CARGO_BIN_EXE_e13_model_check");

#[test]
fn bad_arguments_print_the_usage() {
    common::assert_refuses_bad_arguments(E13);
}

#[test]
fn e13_replays_the_committed_counterexample() {
    common::assert_replays(E13, "results/e13_counterexample.json");
}

#[test]
fn e13_refuses_unreadable_artifacts() {
    common::assert_refuses_unreadable_artifacts(E13);
}
