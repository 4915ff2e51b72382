//! **E13 — bounded model checking** (exhaustive small-scope exploration
//! of schedules and fault placements; Definitions 5 and 9, Figure 7).
//!
//! Runs the checked-configuration suite — the activity-monitor mesh
//! (n ∈ {2, 3}), both Ω∆ implementations, and the Figure 7 transform
//! over a two-process counter — exploring every admissible assignment
//! of window steps and catalogue injections within the configured
//! bounds, and evaluating the gauntlet's oracles on every terminal run.
//! The unmodified system must check clean everywhere.
//!
//! The run ends with the *ablation*: self-punishment (Figure 3 lines
//! 7–8) disabled, the checker must *find* the quiescence violation —
//! a single well-placed candidacy flip — and shrink it to one placed
//! injection, written to `results/e13_counterexample.json` in the
//! gauntlet repro format extended with the decision-window script. A
//! `--quick` run prints its counterexample instead, leaving the committed
//! full-scale artifact alone.
//!
//! Exploration is sharded across fixed chunks of the canonical leaf
//! list (`--jobs`), so every report is byte-identical for every worker
//! count; `tests/determinism.rs` pins this down.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tbwf_bench::gauntlet::write_artifact;
use tbwf_bench::{positive_arg, print_table};
use tbwf_check::{
    ablation_config, check, counterexample_from_artifact, replay_counterexample, suite,
    CheckReport, SuiteScale,
};
use tbwf_sim::{resolve_jobs, Executor};

const RESULTS_DIR: &str = "results";

const USAGE: &str = "\
usage: e13_model_check [--quick] [--jobs N] [--repro FILE]

  --quick          smoke bounds (depth 3, one preemption) instead of the
                   full experiment bounds; prints the ablation
                   counterexample instead of writing it to results/
  --jobs N         worker threads (default: all cores; must be at least 1)
  --repro FILE     replay a counterexample artifact instead of checking";

struct Cli {
    scale: SuiteScale,
    jobs: Option<usize>,
    repro: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: SuiteScale::Full,
        jobs: None,
        repro: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cli.scale = SuiteScale::Quick,
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
    let (sc, window) = match counterexample_from_artifact(Path::new(path)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot load artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (start, script) = window;
    println!(
        "replaying {}: kind = {}, n = {}, window [{start}, {}), {} fault events",
        path,
        sc.kind.name(),
        sc.n,
        start + script.len() as u64,
        sc.plan.events.len()
    );
    let out = replay_counterexample(&sc, start, &script);
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

fn report_row(report: &CheckReport) -> Vec<String> {
    vec![
        report.config.name.clone(),
        format!("{}", report.config.scenario.n),
        format!("{}", report.config.depth),
        format!("{}", report.stats.leaves),
        format!("{}", report.stats.pruned_branches),
        format!("{}", report.stats.distinct_states),
        format!("{}", report.stats.deduped),
        format!("{}", report.stats.violating),
    ]
}

fn run_suite(scale: SuiteScale, executor: &Executor) -> Result<usize, String> {
    let configs = suite(scale);
    println!(
        "E13: bounded model checking, {} configurations, {} worker(s)\n",
        configs.len(),
        executor.jobs()
    );
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for cfg in &configs {
        let t0 = Instant::now();
        let report = check(cfg, executor)?;
        eprintln!(
            "  {}: {} states in {:.1?}",
            cfg.name,
            report.stats.leaves,
            t0.elapsed()
        );
        rows.push(report_row(&report));
        if let Some(cex) = &report.counterexample {
            failures += 1;
            eprintln!(
                "VIOLATION in {}: {:?}",
                cfg.name,
                cex.outcome
                    .violations
                    .iter()
                    .map(|v| v.invariant.as_str())
                    .collect::<Vec<_>>()
            );
            let stem = format!("e13_violation_{}", cfg.name);
            match write_artifact(Path::new(RESULTS_DIR), &stem, &cex.to_json()) {
                Ok(p) => eprintln!("  shrunk counterexample: {}", p.display()),
                Err(e) => eprintln!("  cannot write artifact: {e}"),
            }
        }
    }
    print_table(
        &[
            "config",
            "n",
            "depth",
            "states",
            "pruned",
            "distinct",
            "deduped",
            "violating",
        ],
        &rows,
    );
    Ok(failures)
}

fn ablation(scale: SuiteScale, executor: &Executor) -> Result<(), String> {
    println!("\nablation: self-punishment disabled, checker must find the quiescence theft");
    let cfg = ablation_config(scale);
    let report = check(&cfg, executor)?;
    println!(
        "  {} states explored, {} violating",
        report.stats.leaves, report.stats.violating
    );
    let cex = report
        .counterexample
        .ok_or("checker found no counterexample — the exploration is blind")?;
    if report.stats.violating == report.stats.leaves {
        return Err("every leaf violated — the checker is not actually searching".into());
    }
    for v in &cex.outcome.violations {
        println!("  violation [{}]: {}", v.invariant, v.detail);
    }
    if cex.injections_placed != 1 {
        return Err(format!(
            "counterexample shrank to {} placed injections, expected exactly 1",
            cex.injections_placed
        ));
    }
    if cex.outcome.violations.is_empty() {
        return Err("shrunk counterexample no longer reproduces".into());
    }
    // The committed artifact is the full-scale counterexample; a quick
    // run prints its own instead of overwriting it.
    if scale == SuiteScale::Quick {
        println!(
            "  shrunk counterexample (quick scale, not written): {}",
            cex.to_json().to_string_compact()
        );
        return Ok(());
    }
    let path = write_artifact(Path::new(RESULTS_DIR), "e13_counterexample", &cex.to_json())
        .map_err(|e| format!("cannot write artifact: {e}"))?;
    println!("  shrunk counterexample artifact: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e13_model_check: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cli.repro {
        return repro(path);
    }

    let executor = Executor::new(resolve_jobs(cli.jobs));
    let mut ok = true;
    match run_suite(cli.scale, &executor) {
        Ok(0) => println!("\nall configurations check clean"),
        Ok(failures) => {
            eprintln!("\n{failures} configuration(s) violated an invariant");
            ok = false;
        }
        Err(e) => {
            eprintln!("e13_model_check: {e}");
            return ExitCode::FAILURE;
        }
    }
    match ablation(cli.scale, &executor) {
        Ok(()) => println!("ablation counterexample found and shrunk as expected"),
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
