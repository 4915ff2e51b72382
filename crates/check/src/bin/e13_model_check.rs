//! `e13_model_check [--jobs N] [--repro FILE]`: runs
//! [`tbwf_check::e13_model_check`], or replays a counterexample artifact.

use std::path::Path;
use std::process::ExitCode;
use tbwf_bench::gauntlet::Outcome;
use tbwf_check::{counterexample_from_artifact, e13_model_check, replay_counterexample};

fn replay(path: &str) -> Result<(String, Outcome), String> {
    let (sc, (start, script)) = counterexample_from_artifact(Path::new(path))?;
    let header = format!(
        "replaying {path}: kind = {}, n = {}, window [{start}, {}), {} fault events",
        sc.kind.name(),
        sc.n,
        start + script.len() as u64,
        sc.plan.events.len()
    );
    Ok((header, replay_counterexample(&sc, start, &script)))
}

fn main() -> ExitCode {
    tbwf_bench::sharded_main("e13_model_check", Some(replay), |executor| {
        e13_model_check::run(executor).finish()
    })
}
