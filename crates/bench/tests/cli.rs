//! The command lines of e11, e12 and `explore`.

mod common;

const E12: &str = env!("CARGO_BIN_EXE_e12_gauntlet");

#[test]
fn bad_arguments_print_the_usage() {
    for bin in [
        env!("CARGO_BIN_EXE_e11_scaling"),
        E12,
        env!("CARGO_BIN_EXE_explore"),
    ] {
        common::assert_refuses_bad_arguments(bin);
    }
}

#[test]
fn e12_replays_the_committed_artifact() {
    common::assert_replays(E12, "results/e12_ablation_repro.json");
}

#[test]
fn e12_refuses_unreadable_artifacts() {
    common::assert_refuses_unreadable_artifacts(E12);
}
