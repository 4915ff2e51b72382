//! `modelcheck`: the E13 suite at full scale through `tbwf_check::check`
//! on the sharded executor — thousands of near-identical full-horizon
//! replays that share their prefix up to the decision window.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tbwf_bench::gauntlet::{run_scenario_under, Scenario, SystemKind};
use tbwf_check::{
    ablation_config, check, enumerate, fingerprint, materialize, run_leaf, suite, CheckConfig,
    CheckReport, CheckStats, Leaf, SuiteScale, CHUNK_LEAVES,
};
use tbwf_sim::{Executor, Json, NemesisSchedule, ScriptedWindow};

use crate::common::{
    faults, ms_between, panic_message, peak_rss, secs_since, tail_detail, trace_mb, Params,
    PassRates, Report, SetupSampler, WORKERS,
};
use crate::digest::Fnv;
use crate::gauntlet::{completed_ops, time_analysis};
use crate::stamp::{Stamped, Stamps};
use crate::stats::{median, tail};

/// The suite's configurations, validated. The E13 suite is fixed, so
/// this workload's inputs do not depend on the seed.
fn configs(rep: &mut Report) -> Vec<CheckConfig> {
    let cfgs = suite(SuiteScale::Full);
    for cfg in &cfgs {
        if let Err(e) = cfg.validate() {
            rep.problems
                .push(format!("{}: invalid configuration: {e}", cfg.name));
        }
    }
    cfgs
}

/// One pass of `check` over the suite: reports, per-configuration host
/// times in ms, and the pass's wall time in seconds.
fn pass(
    cfgs: &[CheckConfig],
    exec: &Executor,
    rep: &mut Report,
) -> (Vec<CheckReport>, Vec<f64>, f64) {
    let mut reports = Vec::new();
    let mut ms = Vec::new();
    let t0 = Instant::now();
    for cfg in cfgs {
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| check(cfg, exec)));
        ms.push(secs_since(t) * 1e3);
        match result {
            Ok(Ok(r)) => {
                rep.attempted += r.stats.leaves as u64;
                rep.failed += r.stats.violating as u64;
                rep.require(r.stats.violating == 0 && r.counterexample.is_none(), || {
                    format!("{}: {} violating leaves", cfg.name, r.stats.violating)
                });
                reports.push(r);
            }
            Ok(Err(e)) => rep.problems.push(format!("{}: {e}", cfg.name)),
            Err(p) => {
                rep.failed += 1;
                rep.problems
                    .push(format!("{}: panicked: {}", cfg.name, panic_message(&*p)));
            }
        }
    }
    let wall = secs_since(t0);
    let mut h = Fnv::default();
    for r in &reports {
        h.write(r.to_json().to_string_compact().as_bytes());
    }
    rep.expect_digest(h.finish(), &format!("a pass on {} worker(s)", exec.jobs()));
    (reports, ms, wall)
}

/// What re-running one leaf outside `check` shows: the leaf's run
/// report, reduced to counts, plus host timings when stamped.
#[derive(Default)]
struct Replay {
    fingerprint: u64,
    steps: u64,
    obs: u64,
    ops: u64,
    injections: u64,
    trace_mb: f64,
    build_ms: f64,
    run_ns: f64,
    oracle_ms: f64,
    analysis_ms: f64,
}

/// Re-runs a leaf exactly as `run_leaf` schedules it (the window script
/// spliced into the background nemesis schedule) to read its report.
fn replay(cfg: &CheckConfig, leaf: &Leaf) -> Replay {
    let sc = materialize(cfg, leaf);
    let stamps = Stamps::default();
    let script = leaf.steps.clone();
    let t0 = Instant::now();
    let (_, report) = run_scenario_under(&sc, &mut |ctl| {
        Box::new(Stamped::new(
            ScriptedWindow::new(cfg.window_start, script.clone(), NemesisSchedule::new(ctl)),
            sc.steps,
            &stamps,
        ))
    });
    let t1 = Instant::now();
    let first = stamps.first().unwrap_or(t0);
    let last = stamps.last().unwrap_or(t1);
    Replay {
        fingerprint: fingerprint(&sc, &report),
        steps: report.trace.len() as u64,
        obs: report.trace.obs.len() as u64,
        ops: if sc.kind == SystemKind::Tbwf {
            completed_ops(&report)
        } else {
            0
        },
        injections: report.trace.injections.len() as u64,
        trace_mb: trace_mb(&report),
        build_ms: ms_between(t0, first),
        run_ns: ms_between(first, last) * 1e6,
        oracle_ms: ms_between(last, t1),
        analysis_ms: time_analysis(&sc, &report),
    }
}

/// Replays every leaf of the suite and cross-checks the fingerprint
/// classes against `check`'s statistics.
fn replay_suite(
    cfgs: &[CheckConfig],
    reports: &[CheckReport],
    exec: &Executor,
    rep: &mut Report,
) -> Vec<(SystemKind, Replay)> {
    let mut out = Vec::new();
    for (cfg, r) in cfgs.iter().zip(reports) {
        let en = enumerate(cfg);
        let replays = exec.run(en.leaves.len(), |i| replay(cfg, &en.leaves[i]));
        let distinct: HashSet<u64> = replays.iter().map(|r| r.fingerprint).collect();
        rep.require(distinct.len() == r.stats.distinct_states, || {
            format!(
                "{}: replays give {} distinct fingerprints, check reports {}",
                cfg.name,
                distinct.len(),
                r.stats.distinct_states
            )
        });
        out.extend(replays.into_iter().map(|x| (cfg.scenario.kind, x)));
    }
    out
}

/// Set-up of one pass: the suite's configurations, their enumerations,
/// and every leaf's system built up to its first simulated step.
fn setup_once() -> f64 {
    let t0 = Instant::now();
    let cfgs = suite(SuiteScale::Full);
    let ens: Vec<_> = cfgs.iter().map(enumerate).collect();
    let mut total = secs_since(t0);
    for (cfg, en) in cfgs.iter().zip(&ens) {
        for leaf in &en.leaves {
            let one = Scenario {
                steps: 1,
                ..materialize(cfg, leaf)
            };
            let stamps = Stamps::default();
            let t = Instant::now();
            // The 1-step run only reaches the first step; its verdict is
            // meaningless and ignored.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                run_scenario_under(&one, &mut |ctl| {
                    Box::new(Stamped::new(NemesisSchedule::new(ctl), 1, &stamps))
                })
            }));
            total += ms_between(t, stamps.first().unwrap_or_else(Instant::now)) / 1e3;
        }
    }
    total
}

/// Positive control: with self-punishment off the checker must find
/// violating leaves and shrink the counterexample to one injection.
fn control(exec: &Executor, rep: &mut Report) {
    let cfg = ablation_config(SuiteScale::Full);
    match check(&cfg, exec) {
        Ok(r) => {
            let placed = r.counterexample.as_ref().map(|c| c.injections_placed);
            rep.require(r.stats.violating > 0 && placed == Some(1), || {
                format!(
                    "positive control: ablation_config found {} violating leaves, counterexample with {placed:?} injections",
                    r.stats.violating
                )
            });
            rep.detail(
                "control",
                Json::obj([
                    ("config", Json::str(cfg.name.clone())),
                    ("violating", Json::Int(r.stats.violating as i128)),
                    ("leaves", Json::Int(r.stats.leaves as i128)),
                ]),
            );
        }
        Err(e) => rep.problems.push(format!("positive control: {e}")),
    }
}

/// Measured passes whose per-configuration times feed `run_ms_tail`.
/// A pass gives one sample per configuration, so a count that followed
/// the host's speed would move the tail between percentiles (p75 below
/// 100 samples, p90 from 100); a fixed count keeps it at one.
const TAIL_PASSES: usize = 10;

/// Runs the workload and reports its end-to-end (untraced) or per-layer
/// (traced) metrics.
pub fn run(p: &Params) -> Report {
    let mut rep = Report::default();
    let cfgs = configs(&mut rep);
    let exec = Executor::new(WORKERS);
    if p.trace {
        traced(&cfgs, &exec, &mut rep);
        return rep;
    }
    let mut setup = SetupSampler::new(setup_once);

    let (mut ms, mut walls, mut tail_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    // Warm-up inside the window: checked like every pass, not sampled.
    let (mut reports, _, _) = pass(&cfgs, &exec, &mut rep);
    while walls.is_empty() || start.elapsed() < p.window() {
        setup.sample();
        let (r, m, w) = pass(&cfgs, &exec, &mut rep);
        if walls.len() < TAIL_PASSES {
            tail_ms.extend(&m);
        }
        ms.extend(m);
        walls.push(w);
        reports = r;
    }
    pass(&cfgs, &Executor::new(1), &mut rep);
    control(&exec, &mut rep);

    // Simulated counts per pass come from replaying the leaves once.
    let replays = replay_suite(&cfgs, &reports, &exec, &mut rep);
    let leaves: usize = reports.iter().map(|r| r.stats.leaves).sum();
    let steps: u64 = replays.iter().map(|(_, r)| r.steps).sum();
    let ops: u64 = replays.iter().map(|(_, r)| r.ops).sum();
    let tbwf_steps: u64 = replays
        .iter()
        .filter(|(k, _)| *k == SystemKind::Tbwf)
        .map(|(_, r)| r.steps)
        .sum();
    let t = tail(&tail_ms);
    rep.metric("setup_s", setup.median(), "s");
    let mut rates = PassRates::default();
    for w in &walls {
        rates.push(leaves as u64, steps, ops, *w);
    }
    rates.report(&mut rep);
    rep.metric("run_ms_p50", median(&ms), "ms");
    rep.metric("run_ms_tail", t.value, "ms");
    rep.metric(
        "sim_steps_per_op",
        tbwf_steps as f64 / ops.max(1) as f64,
        "steps",
    );
    peak_rss(&mut rep);
    rep.detail("passes", Json::Int(walls.len() as i128));
    rep.detail("leaves_per_pass", Json::Int(leaves as i128));
    rep.detail("run", Json::str("one configuration (check call)"));
    tail_detail(&mut rep, &t);
    rep
}

fn traced(cfgs: &[CheckConfig], exec: &Executor, rep: &mut Report) {
    let (reports, _, w_plain) = pass(cfgs, exec, rep);

    // The traced pass drives enumerate + run_leaf itself, chunked like
    // `check`, and must reproduce check's statistics.
    let f0 = faults(rep);
    let t0 = Instant::now();
    let mut enum_ms = 0.0;
    let mut exec_s = 0.0;
    let mut leaf_ms = Vec::new();
    let (mut leaves, mut pruned, mut deduped) = (0usize, 0u64, 0usize);
    for (cfg, r) in cfgs.iter().zip(&reports) {
        let t = Instant::now();
        let en = enumerate(cfg);
        enum_ms += secs_since(t) * 1e3;
        let total = en.leaves.len();
        let t = Instant::now();
        let runs: Vec<Vec<(f64, u64, bool)>> = exec.run(total.div_ceil(CHUNK_LEAVES), |ci| {
            let lo = ci * CHUNK_LEAVES;
            en.leaves[lo..(lo + CHUNK_LEAVES).min(total)]
                .iter()
                .map(|leaf| {
                    let t = Instant::now();
                    let lr = run_leaf(cfg, leaf);
                    (
                        secs_since(t) * 1e3,
                        lr.fingerprint,
                        !lr.outcome.violations.is_empty(),
                    )
                })
                .collect()
        });
        exec_s += secs_since(t);
        let runs: Vec<_> = runs.into_iter().flatten().collect();
        let distinct: HashSet<u64> = runs.iter().map(|x| x.1).collect();
        let stats = CheckStats {
            leaves: total,
            pruned_branches: en.pruned_branches,
            distinct_states: distinct.len(),
            deduped: total - distinct.len(),
            violating: runs.iter().filter(|x| x.2).count(),
        };
        rep.require(stats == r.stats, || {
            format!(
                "{}: traced pass gives {stats:?}, check gave {:?}",
                cfg.name, r.stats
            )
        });
        leaf_ms.extend(runs.iter().map(|x| x.0));
        leaves += stats.leaves;
        pruned += stats.pruned_branches;
        deduped += stats.deduped;
    }
    let w_traced = secs_since(t0);
    let minor = faults(rep).saturating_sub(f0);
    control(exec, rep);

    let replays: Vec<Replay> = replay_suite(cfgs, &reports, exec, rep)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let steps: u64 = replays.iter().map(|r| r.steps).sum();
    let col = |f: fn(&Replay) -> f64| replays.iter().map(f).collect::<Vec<f64>>();
    rep.metric(
        "sim.run.ns_per_step",
        col(|r| r.run_ns).iter().sum::<f64>() / steps as f64,
        "ns",
    );
    rep.metric("sim.build.ms", median(&col(|r| r.build_ms)), "ms");
    rep.metric("sim.trace.steps", steps as f64, "count");
    rep.metric("sim.trace.obs", col(|r| r.obs as f64).iter().sum(), "count");
    rep.metric(
        "sim.trace.mb",
        col(|r| r.trace_mb).into_iter().fold(0.0, f64::max),
        "MB",
    );
    rep.metric("sim.minor_faults", minor as f64, "count");
    rep.metric(
        "sim.executor.busy_frac",
        leaf_ms.iter().sum::<f64>() / (exec_s * 1e3 * exec.jobs() as f64),
        "ratio",
    );
    rep.metric(
        "sim.nemesis.injections",
        col(|r| r.injections as f64).iter().sum(),
        "count",
    );
    rep.metric("sim.analysis.ms", median(&col(|r| r.analysis_ms)), "ms");
    rep.metric("gauntlet.oracle.ms", median(&col(|r| r.oracle_ms)), "ms");
    rep.metric("check.enumerate.ms", enum_ms, "ms");
    rep.metric("check.run_leaf.ms_p50", median(&leaf_ms), "ms");
    rep.metric("check.leaves", leaves as f64, "count");
    rep.metric("check.pruned_branches", pruned as f64, "count");
    rep.metric("check.dedup_ratio", deduped as f64 / leaves as f64, "ratio");
    rep.metric("bench.trace_overhead", w_traced / w_plain - 1.0, "ratio");
}
