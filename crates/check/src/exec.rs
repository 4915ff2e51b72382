//! Leaf execution and the top-level check loop.
//!
//! Each leaf is run to the scenario's full horizon under a spliced
//! schedule: the background [`NemesisSchedule`] everywhere, overridden
//! by the leaf's step script inside the decision window, the whole thing
//! wrapped in a [`Tapped`] recorder. After the run the recorder's
//! decisions are compared against the enumerator's analytic prediction
//! (chosen process and full runnable mask per slot) — any divergence is
//! a checker bug and panics rather than silently exploring the wrong
//! tree.
//!
//! Terminal runs are fingerprinted (FNV-1a over the step sequence,
//! every observation, the crash record, and the oracle-relevant plan
//! digest) so equivalent terminal states collapse into one equivalence
//! class in the report. The frontier is sharded across the PR-3
//! [`Executor`] in fixed chunks of the canonical leaf list with
//! index-ordered merging, which makes the report byte-identical for
//! every worker count.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tbwf_bench::gauntlet::{
    churned, ddmin, run_scenario_under, Outcome, Scenario, SystemKind, Violation,
};
use tbwf_omega::spec::{agreement_violations, OmegaRunData};
use tbwf_sim::timeliness::measured_timely_set;
use tbwf_sim::{
    DecisionLog, Executor, NemesisSchedule, ProcId, RunReport, ScriptedWindow, Tapped, Trigger,
};
use tbwf_universal::object::CounterOp;
use tbwf_universal::{replay, Counter};

use crate::config::CheckConfig;
use crate::enumerate::{enumerate, Leaf};
use crate::report::{CheckReport, CheckStats, Counterexample};

/// Leaves per executor job. Chunking is a property of the canonical leaf
/// list, not of the worker count, so job boundaries — and with them every
/// stat and verdict — are identical for any `--jobs` value.
pub const CHUNK_LEAVES: usize = 64;

/// The verdict of one leaf.
#[derive(Clone, Debug)]
pub struct LeafRun {
    /// The gauntlet oracles' outcome, extended with the checker's
    /// leader-agreement oracle.
    pub outcome: Outcome,
    /// Terminal-state fingerprint.
    pub fingerprint: u64,
}

/// Materializes a leaf into a self-contained gauntlet scenario: the base
/// plan plus one `Trigger::At(window_start + slot)` event per placed
/// injection, appended in canonical `(slot, catalogue index)` order.
pub fn materialize(cfg: &CheckConfig, leaf: &Leaf) -> Scenario {
    let mut sc = cfg.scenario.clone();
    let mut plan = sc.plan.clone();
    for &(slot, cat) in &leaf.injections {
        plan = plan.with(
            Trigger::At(cfg.window_start + slot as u64),
            cfg.catalogue[cat].action.clone(),
        );
    }
    sc.plan = plan;
    sc
}

/// Runs one leaf to the horizon, validates the tap against the analytic
/// prediction, evaluates the oracles, and fingerprints the terminal run.
///
/// # Panics
///
/// Panics if the recorded window decisions diverge from the enumerator's
/// prediction — the exploration would be unsound, so this is fatal.
pub fn run_leaf(cfg: &CheckConfig, leaf: &Leaf) -> LeafRun {
    let sc = materialize(cfg, leaf);
    let log = DecisionLog::new();
    let script = leaf.steps.clone();
    let w0 = cfg.window_start;
    let (mut outcome, report) = run_scenario_under(&sc, &mut |ctl| {
        Box::new(Tapped::new(
            ScriptedWindow::new(w0, script.clone(), NemesisSchedule::new(ctl)),
            log.clone(),
        ))
    });
    validate_window(cfg, leaf, &log);
    agreement_oracle(cfg, &sc, &report, &mut outcome);
    let fingerprint = fingerprint(&sc, &report);
    LeafRun {
        outcome,
        fingerprint,
    }
}

/// Asserts that what the runner actually did inside the window is what
/// the enumerator predicted: one decision per slot, the scripted process
/// chosen, and the recorded runnable mask equal to "everyone except the
/// processes crashed by injections at or before this slot".
fn validate_window(cfg: &CheckConfig, leaf: &Leaf, log: &DecisionLog) {
    let n = cfg.scenario.n;
    let w0 = cfg.window_start;
    let end = w0 + cfg.depth as u64;
    let decisions = log.snapshot();
    let window: Vec<_> = decisions
        .iter()
        .filter(|d| d.time >= w0 && d.time < end)
        .collect();
    assert_eq!(
        window.len(),
        cfg.depth,
        "{}: expected one decision per window slot, got {} (leaf: {})",
        cfg.name,
        window.len(),
        leaf.describe(cfg)
    );
    let full: u64 = u64::MAX >> (64 - n);
    let mut crashed_mask: u64 = 0;
    for (k, d) in window.iter().enumerate() {
        for &(slot, cat) in &leaf.injections {
            if slot == k {
                if let Some(t) = cfg.catalogue[cat].crashes {
                    crashed_mask |= 1 << t;
                }
            }
        }
        assert_eq!(
            d.chosen,
            leaf.steps[k],
            "{}: slot {k} stepped p{} instead of the scripted p{} (leaf: {})",
            cfg.name,
            d.chosen.0,
            leaf.steps[k].0,
            leaf.describe(cfg)
        );
        assert_eq!(
            d.runnable,
            full & !crashed_mask,
            "{}: slot {k} runnable-mask prediction diverged (leaf: {})",
            cfg.name,
            leaf.describe(cfg)
        );
    }
}

/// Leader agreement after stabilization (Ω∆ kinds): once the window has
/// played out and the tail has re-stabilized, no two non-crashed
/// measured-timely processes may name different concrete leaders.
fn agreement_oracle(cfg: &CheckConfig, sc: &Scenario, report: &RunReport, out: &mut Outcome) {
    agreement_oracle_at(cfg.window_start + cfg.depth as u64, sc, report, out);
}

fn agreement_oracle_at(window_end: u64, sc: &Scenario, report: &RunReport, out: &mut Outcome) {
    if !matches!(
        sc.kind,
        SystemKind::OmegaAtomic | SystemKind::OmegaAbortable
    ) {
        return;
    }
    let crashed: Vec<ProcId> = report.trace.crashes.iter().map(|&(_, p)| p).collect();
    let measured = measured_timely_set(&report.trace.steps, sc.n, &crashed);
    let data = OmegaRunData::from_trace(&report.trace, sc.n, &measured);
    // Halfway between the window and the horizon: far enough out that a
    // legitimate leadership handover triggered by a window injection has
    // reached everyone.
    let from = window_end + (sc.steps - window_end) / 2;
    for msg in agreement_violations(&data, from) {
        out.violations.push(Violation::new("leader-agreement", msg));
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
}

/// FNV-1a fingerprint of a terminal run: the full step sequence, every
/// observation, the crash record, the oracle-relevant plan digest (which
/// processes the plan churns — the quiescence exemptions), and for Fig-7
/// runs the sequential replay of the completed operations (the abstract
/// object state). Two leaves with equal fingerprints present identical
/// evidence to every oracle, so their verdicts must agree; the check
/// loop asserts exactly that.
pub fn fingerprint(sc: &Scenario, report: &RunReport) -> u64 {
    let trace = &report.trace;
    let mut h = Fnv::new();
    h.u64(trace.steps.len() as u64);
    for p in trace.steps.iter() {
        h.byte(p.0 as u8);
    }
    h.u64(trace.obs.len() as u64);
    for o in &trace.obs {
        h.u64(o.time);
        h.byte(o.proc.0 as u8);
        h.str(o.key);
        h.u64(o.idx as u64);
        h.i64(o.value);
    }
    h.u64(trace.crashes.len() as u64);
    for &(t, p) in &trace.crashes {
        h.u64(t);
        h.byte(p.0 as u8);
    }
    for c in churned(&sc.plan, sc.n) {
        h.byte(c as u8);
    }
    if sc.kind == SystemKind::Tbwf {
        let completed: usize = (0..sc.n)
            .map(|p| {
                trace
                    .obs_series(ProcId(p), tbwf::prelude::OBS_COMPLETED, 0)
                    .last()
                    .map_or(0, |&(_, v)| v.max(0) as usize)
            })
            .sum();
        let (state, _) = replay(&Counter, &vec![CounterOp::Inc; completed]);
        h.i64(state);
    }
    h.0
}

/// Explores the whole bounded tree of `cfg` and reports.
///
/// The canonical leaf list is split into fixed [`CHUNK_LEAVES`]-sized
/// chunks, one executor job per chunk; per-leaf verdicts are merged in
/// canonical order, so the returned report — stats, first violating
/// leaf, shrunk counterexample — is byte-identical for every worker
/// count.
///
/// # Errors
///
/// Returns the configuration's validation error, if any.
pub fn check(cfg: &CheckConfig, executor: &Executor) -> Result<CheckReport, String> {
    cfg.validate()?;
    let en = enumerate(cfg);
    let total = en.leaves.len();
    let chunks = total.div_ceil(CHUNK_LEAVES);
    let results: Vec<Vec<(u64, Vec<Violation>)>> = executor.run(chunks, |ci| {
        let lo = ci * CHUNK_LEAVES;
        let hi = (lo + CHUNK_LEAVES).min(total);
        en.leaves[lo..hi]
            .iter()
            .map(|leaf| {
                let lr = run_leaf(cfg, leaf);
                (lr.fingerprint, lr.outcome.violations)
            })
            .collect()
    });

    let mut seen: HashMap<u64, bool> = HashMap::new();
    let mut deduped = 0usize;
    let mut violating = 0usize;
    let mut first_violating: Option<usize> = None;
    for (idx, (fp, violations)) in results.iter().flatten().enumerate() {
        let violated = !violations.is_empty();
        if violated {
            violating += 1;
            if first_violating.is_none() {
                first_violating = Some(idx);
            }
        }
        match seen.entry(*fp) {
            Entry::Occupied(e) => {
                deduped += 1;
                assert_eq!(
                    *e.get(),
                    violated,
                    "{}: two leaves with equal fingerprints disagree on the verdict",
                    cfg.name
                );
            }
            Entry::Vacant(v) => {
                v.insert(violated);
            }
        }
    }

    let counterexample = first_violating.map(|i| shrink_leaf(cfg, &en.leaves[i]));
    Ok(CheckReport {
        config: cfg.clone(),
        stats: CheckStats {
            leaves: total,
            pruned_branches: en.pruned_branches,
            distinct_states: seen.len(),
            deduped,
            violating,
        },
        counterexample,
    })
}

/// ddmin-shrinks the first violating leaf's injection placement (the
/// step script is kept — it is already preemption-bounded) and packages
/// the result as a self-contained repro artifact.
fn shrink_leaf(cfg: &CheckConfig, leaf: &Leaf) -> Counterexample {
    let mut violates = |inj: &[(usize, usize)]| {
        let cand = Leaf {
            steps: leaf.steps.clone(),
            injections: inj.to_vec(),
        };
        !run_leaf(cfg, &cand).outcome.violations.is_empty()
    };
    let min_injections = ddmin(&leaf.injections, &mut violates);
    let min = Leaf {
        steps: leaf.steps.clone(),
        injections: min_injections,
    };
    let lr = run_leaf(cfg, &min);
    Counterexample {
        scenario: materialize(cfg, &min),
        window_start: cfg.window_start,
        script: min.steps.iter().map(|p| p.0).collect(),
        injections_placed: min.injections.len(),
        outcome: lr.outcome,
    }
}

/// Replays a counterexample artifact: re-runs the serialized scenario
/// under its serialized window script and returns the outcome.
pub fn replay_counterexample(sc: &Scenario, window_start: u64, script: &[usize]) -> Outcome {
    let steps: Vec<ProcId> = script.iter().map(|&p| ProcId(p)).collect();
    let log = DecisionLog::new();
    let (mut outcome, report) = run_scenario_under(sc, &mut |ctl| {
        Box::new(Tapped::new(
            ScriptedWindow::new(window_start, steps.clone(), NemesisSchedule::new(ctl)),
            log.clone(),
        ))
    });
    agreement_oracle_at(
        window_start + script.len() as u64,
        sc,
        &report,
        &mut outcome,
    );
    outcome
}
