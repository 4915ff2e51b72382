//! **E12 — the degradation gauntlet** (robustness of the whole
//! reproduction; Sections 1.1 and 3, Definitions 5 and 9, Figure 7).
//!
//! Seeded randomized fault campaigns — crashes (timed, leader-aimed,
//! mid-register-operation), temporary demotions and flickers, candidacy
//! churn, register-adversary dial bursts — against four systems: the
//! activity-monitor mesh, both Ω∆ implementations, and the full TBWF
//! transform. After each campaign the paper's invariants are checked
//! post-stabilization; any violation is shrunk to a 1-minimal fault plan
//! (ddmin) and becomes a self-contained repro artifact.
//!
//! Campaigns are independent seeded runs, so they execute on a
//! work-sharded thread pool; results are collected and reported in
//! campaign order, making the output byte-identical for every worker
//! count.
//!
//! The run ends with the *ablation* demonstration: self-punishment
//! (Figure 3 lines 7–8) disabled plus post-settle candidacy churn
//! produces a quiescence violation, whose shrunken artifact is
//! `results/e12_ablation_repro.json` — the shrinker proven on a real
//! violation, not just asserted idle.

use crate::gauntlet::{
    ablation_scenario, artifact_json, campaign_list, run_campaigns, run_scenario, shrink,
    SystemKind,
};
use crate::{table, Findings, RESULTS_DIR};
use tbwf_sim::Executor;

/// Campaigns across the four system kinds.
const CAMPAIGNS: usize = 240;

/// Stem of the ablation's repro artifact under `results/`.
const ABLATION_ARTIFACT: &str = "e12_ablation_repro";

/// Runs every campaign on `executor`, then the ablation. Each violating
/// campaign, and a blind or unshrinkable ablation, is a problem.
pub fn run(executor: &Executor) -> Findings {
    let scenarios = campaign_list(CAMPAIGNS);
    let per_kind = scenarios.len() / SystemKind::ALL.len();
    let mut findings = Findings {
        text: format!(
            "E12: degradation gauntlet, {per_kind} campaigns per system kind ({} total)\n\n",
            scenarios.len()
        ),
        ..Findings::default()
    };
    let results = run_campaigns(&scenarios, executor);

    // Campaigns ran sharded across workers; everything below iterates the
    // index-ordered result list, so the report and the artifacts are
    // byte-identical to a serial run.
    let mut rows = Vec::new();
    for (k, kind) in SystemKind::ALL.into_iter().enumerate() {
        let mut injected = 0usize;
        let mut events = 0usize;
        let mut violated = 0usize;
        for res in &results[k * per_kind..(k + 1) * per_kind] {
            injected += res.outcome.injections.len();
            events += res.scenario.plan.events.len();
            if let Some((min, min_out)) = &res.shrunk {
                violated += 1;
                let stem = format!("e12_violation_{}_{}", kind.name(), res.scenario.seed);
                findings.problems.push(format!(
                    "VIOLATION in {} seed {}: {:?}; shrunk {} -> {} events, artifact: \
                     {RESULTS_DIR}/{stem}.json",
                    kind.name(),
                    res.scenario.seed,
                    res.outcome
                        .violations
                        .iter()
                        .map(|v| v.invariant.as_str())
                        .collect::<Vec<_>>(),
                    res.scenario.plan.events.len(),
                    min.plan.events.len(),
                ));
                findings.artifacts.push((stem, artifact_json(min, min_out)));
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
    findings.text += &table(
        &["system", "campaigns", "planned", "fired", "violations"],
        &rows,
    );
    if findings.problems.is_empty() {
        findings.text += "\nall campaigns passed\n";
    }
    findings.text += "\nablation: self-punishment disabled + post-settle candidacy churn\n";
    match ablation(&mut findings) {
        Ok(()) => findings.text += "ablation detected and shrunk as expected\n",
        Err(e) => findings.problems.push(format!("ablation FAILED: {e}")),
    }
    findings
}

fn ablation(findings: &mut Findings) -> Result<(), String> {
    let sc = ablation_scenario(0xAB1A);
    let out = run_scenario(&sc);
    if out.violations.is_empty() {
        return Err("ablation produced no violation — the gauntlet is blind".into());
    }
    for v in &out.violations {
        findings.text += &format!("  violation [{}]: {}\n", v.invariant, v.detail);
    }
    let min = shrink(&sc);
    let min_out = run_scenario(&min);
    findings.text += &format!(
        "  shrunk fault plan: {} -> {} events\n",
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
    findings.text += &format!("  repro artifact: {RESULTS_DIR}/{ABLATION_ARTIFACT}.json\n");
    findings
        .artifacts
        .push((ABLATION_ARTIFACT.to_string(), artifact_json(&min, &min_out)));
    Ok(())
}
