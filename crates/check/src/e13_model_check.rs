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
//! injection, the artifact `results/e13_counterexample.json` in the
//! gauntlet repro format extended with the decision-window script.
//!
//! Exploration is sharded across fixed chunks of the canonical leaf
//! list, so every report is byte-identical for every worker count;
//! `tests/determinism.rs` pins this down.

use tbwf_bench::{table, Findings, RESULTS_DIR};
use tbwf_sim::Executor;

use crate::{ablation_config, check, suite, SuiteScale};

/// Stem of the ablation's counterexample artifact under `results/`.
const ABLATION_ARTIFACT: &str = "e13_counterexample";

/// Checks the full suite on `executor`, then the ablation. Each violating
/// configuration, and a blind or unshrinkable ablation, is a problem.
pub fn run(executor: &Executor) -> Findings {
    let mut findings = Findings::default();
    if let Err(e) = run_suite(executor, &mut findings) {
        findings.problems.push(e);
        return findings;
    }
    findings.text +=
        "\nablation: self-punishment disabled, checker must find the quiescence theft\n";
    match ablation(executor, &mut findings) {
        Ok(()) => findings.text += "ablation counterexample found and shrunk as expected\n",
        Err(e) => findings.problems.push(format!("ablation FAILED: {e}")),
    }
    findings
}

fn run_suite(executor: &Executor, findings: &mut Findings) -> Result<(), String> {
    let configs = suite(SuiteScale::Full);
    findings.text += &format!(
        "E13: bounded model checking, {} configurations\n\n",
        configs.len()
    );
    let mut rows = Vec::new();
    for cfg in &configs {
        let report = check(cfg, executor)?;
        let stats = &report.stats;
        rows.push(vec![
            cfg.name.clone(),
            cfg.scenario.n.to_string(),
            cfg.depth.to_string(),
            stats.leaves.to_string(),
            stats.pruned_branches.to_string(),
            stats.distinct_states.to_string(),
            stats.deduped.to_string(),
            stats.violating.to_string(),
        ]);
        if let Some(cex) = &report.counterexample {
            let stem = format!("e13_violation_{}", cfg.name);
            findings.problems.push(format!(
                "VIOLATION in {}: {:?}; shrunk counterexample: {RESULTS_DIR}/{stem}.json",
                cfg.name,
                cex.outcome
                    .violations
                    .iter()
                    .map(|v| v.invariant.as_str())
                    .collect::<Vec<_>>()
            ));
            findings.artifacts.push((stem, cex.to_json()));
        }
    }
    findings.text += &table(
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
    if findings.problems.is_empty() {
        findings.text += "\nall configurations check clean\n";
    }
    Ok(())
}

fn ablation(executor: &Executor, findings: &mut Findings) -> Result<(), String> {
    let report = check(&ablation_config(SuiteScale::Full), executor)?;
    findings.text += &format!(
        "  {} states explored, {} violating\n",
        report.stats.leaves, report.stats.violating
    );
    let cex = report
        .counterexample
        .ok_or("checker found no counterexample — the exploration is blind")?;
    if report.stats.violating == report.stats.leaves {
        return Err("every leaf violated — the checker is not actually searching".into());
    }
    for v in &cex.outcome.violations {
        findings.text += &format!("  violation [{}]: {}\n", v.invariant, v.detail);
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
    findings.text +=
        &format!("  shrunk counterexample artifact: {RESULTS_DIR}/{ABLATION_ARTIFACT}.json\n");
    findings
        .artifacts
        .push((ABLATION_ARTIFACT.to_string(), cex.to_json()));
    Ok(())
}
