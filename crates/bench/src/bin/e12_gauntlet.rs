//! **E12 — the degradation gauntlet** (robustness of the whole
//! reproduction; Sections 1.1 and 3, Definitions 5 and 9, Figure 7).
//!
//! Seeded randomized fault campaigns — crashes (timed, leader-aimed,
//! mid-register-operation), temporary demotions and flickers, candidacy
//! churn, register-adversary dial bursts — against four systems: the
//! activity-monitor mesh, both Ω∆ implementations, and the full TBWF
//! transform. After each campaign the paper's invariants are checked
//! post-stabilization; any violation is shrunk to a 1-minimal fault plan
//! (ddmin) and written to `results/` as a self-contained repro artifact.
//!
//! Campaigns are independent seeded runs, so they execute on a
//! work-sharded thread pool (`--jobs`, default all cores); results are
//! collected and reported in campaign order, making the output
//! byte-identical for every worker count.
//!
//! The run ends with the *ablation* demonstration: self-punishment
//! (Figure 3 lines 7–8) disabled plus post-settle candidacy churn
//! produces a quiescence violation, whose shrunken artifact lands in
//! `results/e12_ablation_repro.json` — the shrinker proven on a real
//! violation, not just asserted idle.

use std::path::Path;
use std::process::ExitCode;
use tbwf_bench::gauntlet::{
    ablation_scenario, artifact_json, campaign_list, read_artifact, run_campaigns, run_scenario,
    shrink, write_artifact, SystemKind,
};
use tbwf_bench::{positive_arg, print_table};
use tbwf_sim::{resolve_jobs, Executor};

const RESULTS_DIR: &str = "results";

const USAGE: &str = "\
usage: e12_gauntlet [--campaigns N] [--jobs N] [--repro FILE]

  --campaigns N    total campaigns across the four system kinds
                   (default 240; must be at least 1)
  --jobs N         worker threads (default: all cores; must be at least 1)
  --repro FILE     replay a repro artifact instead of running campaigns";

struct Cli {
    total: usize,
    jobs: Option<usize>,
    repro: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        total: 240,
        jobs: None,
        repro: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--campaigns" => {
                cli.total = positive_arg(args, i + 1, "--campaigns")?;
                i += 1;
            }
            "--jobs" => {
                cli.jobs = Some(positive_arg(args, i + 1, "--jobs")?);
                i += 1;
            }
            "--repro" => {
                cli.repro = Some(
                    args.get(i + 1)
                        .ok_or_else(|| "--repro needs a file".to_string())?
                        .clone(),
                );
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn repro(path: &str) -> ExitCode {
    let sc = match read_artifact(Path::new(path)) {
        Ok((_, sc)) => sc,
        Err(e) => {
            eprintln!("cannot load artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {}: kind = {}, seed = {}, n = {}, {} fault events",
        path,
        sc.kind.name(),
        sc.seed,
        sc.n,
        sc.plan.events.len()
    );
    let out = run_scenario(&sc);
    for inj in &out.injections {
        println!("  injected: {inj}");
    }
    if out.violations.is_empty() {
        println!("no violations — the artifact does not reproduce here");
        ExitCode::FAILURE
    } else {
        for v in &out.violations {
            println!("  violation [{}]: {}", v.invariant, v.detail);
        }
        ExitCode::SUCCESS
    }
}

fn campaigns(total: usize, executor: &Executor) -> usize {
    let scenarios = campaign_list(total);
    let per_kind = scenarios.len() / SystemKind::ALL.len();
    println!(
        "E12: degradation gauntlet, {} campaigns per system kind ({} total), {} worker(s)\n",
        per_kind,
        scenarios.len(),
        executor.jobs()
    );
    let results = run_campaigns(&scenarios, executor);

    // Campaigns ran sharded across workers; everything below iterates the
    // index-ordered result list, so the report (and any artifact writes)
    // is byte-identical to a serial run.
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for (k, kind) in SystemKind::ALL.into_iter().enumerate() {
        let mut injected = 0usize;
        let mut events = 0usize;
        let mut violated = 0usize;
        for res in &results[k * per_kind..(k + 1) * per_kind] {
            injected += res.outcome.injections.len();
            events += res.scenario.plan.events.len();
            if let Some((min, min_out)) = &res.shrunk {
                violated += 1;
                failures += 1;
                eprintln!(
                    "VIOLATION in {} seed {}: {:?}",
                    kind.name(),
                    res.scenario.seed,
                    res.outcome
                        .violations
                        .iter()
                        .map(|v| v.invariant.as_str())
                        .collect::<Vec<_>>()
                );
                let stem = format!("e12_violation_{}_{}", kind.name(), res.scenario.seed);
                match write_artifact(Path::new(RESULTS_DIR), &stem, &artifact_json(min, min_out)) {
                    Ok(p) => eprintln!(
                        "  shrunk {} -> {} events, artifact: {}",
                        res.scenario.plan.events.len(),
                        min.plan.events.len(),
                        p.display()
                    ),
                    Err(e) => eprintln!("  cannot write artifact: {e}"),
                }
            }
        }
        rows.push(vec![
            kind.name().to_string(),
            per_kind.to_string(),
            events.to_string(),
            injected.to_string(),
            violated.to_string(),
        ]);
    }
    print_table(
        &["system", "campaigns", "planned", "fired", "violations"],
        &rows,
    );
    failures
}

fn ablation() -> Result<(), String> {
    println!("\nablation: self-punishment disabled + post-settle candidacy churn");
    let sc = ablation_scenario(0xAB1A);
    let out = run_scenario(&sc);
    if out.violations.is_empty() {
        return Err("ablation produced no violation — the gauntlet is blind".into());
    }
    for v in &out.violations {
        println!("  violation [{}]: {}", v.invariant, v.detail);
    }
    let min = shrink(&sc);
    let min_out = run_scenario(&min);
    println!(
        "  shrunk fault plan: {} -> {} events",
        sc.plan.events.len(),
        min.plan.events.len()
    );
    if min.plan.events.is_empty() || min.plan.events.len() > 5 {
        return Err(format!(
            "shrunken plan has {} events, expected 1..=5",
            min.plan.events.len()
        ));
    }
    if min_out.violations.is_empty() {
        return Err("shrunken plan no longer reproduces".into());
    }
    let path = write_artifact(
        Path::new(RESULTS_DIR),
        "e12_ablation_repro",
        &artifact_json(&min, &min_out),
    )
    .map_err(|e| format!("cannot write artifact: {e}"))?;
    println!("  repro artifact: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e12_gauntlet: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cli.repro {
        return repro(path);
    }

    let executor = Executor::new(resolve_jobs(cli.jobs));
    let failures = campaigns(cli.total, &executor);
    let mut ok = failures == 0;
    if failures > 0 {
        eprintln!("\n{failures} campaign(s) violated an invariant");
    } else {
        println!("\nall campaigns passed");
    }
    match ablation() {
        Ok(()) => println!("ablation detected and shrunk as expected"),
        Err(e) => {
            eprintln!("ablation FAILED: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
