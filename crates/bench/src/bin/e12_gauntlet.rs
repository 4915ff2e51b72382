//! `e12_gauntlet [--jobs N] [--repro FILE]`: runs
//! [`tbwf_bench::experiments::e12_gauntlet`], or replays an artifact.

use std::path::Path;
use std::process::ExitCode;
use tbwf_bench::experiments::e12_gauntlet;
use tbwf_bench::gauntlet::{read_artifact, run_scenario, Outcome};

fn replay(path: &str) -> Result<(String, Outcome), String> {
    let (_, sc) = read_artifact(Path::new(path))?;
    let header = format!(
        "replaying {path}: kind = {}, seed = {}, n = {}, {} fault events",
        sc.kind.name(),
        sc.seed,
        sc.n,
        sc.plan.events.len()
    );
    Ok((header, run_scenario(&sc)))
}

fn main() -> ExitCode {
    tbwf_bench::sharded_main("e12_gauntlet", Some(replay), |executor| {
        e12_gauntlet::run(executor).finish()
    })
}
