//! `gauntlet`: the E12 campaign grid — 240 `random_scenario` campaigns
//! over all four system kinds at n = 2–4 — on the sharded executor,
//! with every oracle on. Many short, independent, fault-heavy runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tbwf::prelude::OBS_COMPLETED;
use tbwf_bench::gauntlet::{
    ablation_scenario, campaign_list, report_json, run_scenario, run_scenario_under, shrink,
    CampaignResult, Outcome, Scenario, SystemKind, Violation,
};
use tbwf_omega::spec::convergence_time;
use tbwf_sim::timeliness::measured_timely_set;
use tbwf_sim::{Executor, Json, NemesisSchedule, ProcId, RunReport};

use crate::common::{
    faults, ms_between, panic_message, peak_rss, secs_since, splitmix64, tail_detail, trace_mb,
    Params, PassRates, Report, SetupSampler, WORKERS,
};
use crate::digest::fnv1a;
use crate::stamp::{Stamped, Stamps};
use crate::stats::{median, tail};

/// Campaigns per pass: the E12 default grid.
pub const CAMPAIGNS: usize = 240;

/// Seed of the deliberately broken campaign (the one E12 ships).
const ABLATION_SEED: u64 = 0xAB1A;

/// The E12 grid, in the order the executor hands campaigns out: as
/// listed without a seed, else shuffled by the seed. The campaigns
/// themselves are always E12's `campaign_seed` sequence; results are
/// digested in grid order, so the digest does not depend on the seed.
pub fn scenarios(seed: Option<u64>) -> Vec<(usize, Scenario)> {
    let mut grid: Vec<(usize, Scenario)> =
        campaign_list(CAMPAIGNS).into_iter().enumerate().collect();
    if let Some(s) = seed {
        // Fisher–Yates driven by SplitMix64.
        let mut state = s;
        for i in (1..grid.len()).rev() {
            state = splitmix64(state);
            grid.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
    grid
}

/// What one campaign produced, plus host timings.
struct Run {
    /// Position in the E12 grid.
    index: usize,
    scenario: Scenario,
    outcome: Outcome,
    ms: f64,
    steps: u64,
    obs: u64,
    ops: u64,
    injections: u64,
    trace_mb: f64,
    /// Traced runs only: set-up, step loop, and oracle split.
    split: Option<Split>,
}

struct Split {
    build_ms: f64,
    run_ns: f64,
    oracle_ms: f64,
    analysis_ms: f64,
}

/// Completed TBWF operations: the last `completed` observation of each
/// process.
pub fn completed_ops(report: &RunReport) -> u64 {
    (0..report.n())
        .map(|p| {
            report
                .trace
                .last_value(ProcId(p), OBS_COMPLETED, 0)
                .unwrap_or(0)
                .max(0) as u64
        })
        .sum()
}

/// Host-time cost of the trace analyses the oracles use, called from
/// here on the returned report.
pub fn time_analysis(sc: &Scenario, report: &RunReport) -> f64 {
    let t = Instant::now();
    let crashed: Vec<ProcId> = report.trace.crashes.iter().map(|&(_, p)| p).collect();
    std::hint::black_box(measured_timely_set(&report.trace.steps, sc.n, &crashed));
    if matches!(
        sc.kind,
        SystemKind::OmegaAtomic | SystemKind::OmegaAbortable
    ) {
        std::hint::black_box(convergence_time(&report.trace, sc.n));
    }
    secs_since(t) * 1e3
}

fn run_one(index: usize, sc: &Scenario, traced: bool) -> Run {
    let stamps = Stamps::default();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            run_scenario_under(sc, &mut |ctl| {
                Box::new(Stamped::new(NemesisSchedule::new(ctl), sc.steps, &stamps))
            })
        } else {
            run_scenario_under(sc, &mut |ctl| Box::new(NemesisSchedule::new(ctl)))
        }
    }));
    let t1 = Instant::now();
    let (outcome, report) = match result {
        Ok(r) => r,
        Err(payload) => {
            let outcome = Outcome {
                violations: vec![Violation::new("no-panic", panic_message(&*payload))],
                ..Outcome::default()
            };
            return Run {
                index,
                scenario: sc.clone(),
                outcome,
                ms: ms_between(t0, t1),
                steps: 0,
                obs: 0,
                ops: 0,
                injections: 0,
                trace_mb: 0.0,
                split: None,
            };
        }
    };
    let split = traced.then(|| {
        let first = stamps.first().unwrap_or(t0);
        let last = stamps.last().unwrap_or(t1);
        Split {
            build_ms: ms_between(t0, first),
            run_ns: ms_between(first, last) * 1e6,
            oracle_ms: ms_between(last, t1),
            analysis_ms: time_analysis(sc, &report),
        }
    });
    Run {
        index,
        scenario: sc.clone(),
        outcome,
        ms: ms_between(t0, t1),
        steps: report.trace.len() as u64,
        obs: report.trace.obs.len() as u64,
        ops: if sc.kind == SystemKind::Tbwf {
            completed_ops(&report)
        } else {
            0
        },
        injections: report.trace.injections.len() as u64,
        trace_mb: trace_mb(&report),
        split,
    }
}

/// One pass over the grid; returns the runs and the pass's wall time.
fn pass(scs: &[(usize, Scenario)], exec: &Executor, traced: bool) -> (Vec<Run>, f64) {
    let t = Instant::now();
    let runs = exec.run(scs.len(), |i| run_one(scs[i].0, &scs[i].1, traced));
    (runs, secs_since(t))
}

/// `report_json` of the pass, exactly as `run_campaigns` would build it
/// for a clean grid.
fn digest(runs: &[Run]) -> u64 {
    let mut ordered: Vec<&Run> = runs.iter().collect();
    ordered.sort_by_key(|r| r.index);
    let results: Vec<CampaignResult> = ordered
        .iter()
        .map(|r| CampaignResult {
            scenario: r.scenario.clone(),
            outcome: r.outcome.clone(),
            shrunk: None,
        })
        .collect();
    fnv1a(report_json(&results).to_string_compact().as_bytes())
}

fn tally(rep: &mut Report, runs: &[Run]) {
    rep.attempted += runs.len() as u64;
    for r in runs.iter().filter(|r| !r.outcome.violations.is_empty()) {
        rep.failed += 1;
        if rep.problems.len() < 8 {
            rep.problems.push(format!(
                "{} n={} seed={:#x}: {:?}",
                r.scenario.kind.name(),
                r.scenario.n,
                r.scenario.seed,
                r.outcome.violations
            ));
        }
    }
}

/// Set-up of one pass: generating the grid, then building every
/// campaign's system up to its first simulated step.
fn setup_once(seed: Option<u64>) -> f64 {
    let t0 = Instant::now();
    let scs = scenarios(seed);
    let mut total = secs_since(t0);
    for (_, sc) in scs {
        let one = Scenario { steps: 1, ..sc };
        let stamps = Stamps::default();
        let t = Instant::now();
        // The 1-step run exists only to reach the first step; its verdict
        // is meaningless and ignored.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_scenario_under(&one, &mut |ctl| {
                Box::new(Stamped::new(NemesisSchedule::new(ctl), 1, &stamps))
            })
        }));
        total += ms_between(t, stamps.first().unwrap_or_else(Instant::now)) / 1e3;
    }
    total
}

/// Positive control: the ablation campaign must violate and shrink to a
/// single fault event. Returns the shrink time in ms.
fn control(rep: &mut Report) -> f64 {
    let sc = ablation_scenario(ABLATION_SEED);
    let out = run_scenario(&sc);
    rep.require(!out.violations.is_empty(), || {
        "positive control: ablation_scenario no longer violates".into()
    });
    let t = Instant::now();
    let min = shrink(&sc);
    let shrink_ms = secs_since(t) * 1e3;
    let min_out = run_scenario(&min);
    rep.require(
        min.plan.events.len() == 1 && !min_out.violations.is_empty(),
        || {
            format!(
                "positive control: ablation shrank to {} events (violating: {})",
                min.plan.events.len(),
                !min_out.violations.is_empty()
            )
        },
    );
    rep.detail(
        "control",
        Json::obj([
            ("scenario", Json::str("ablation_scenario")),
            ("violations", Json::Int(out.violations.len() as i128)),
            ("shrunk_events", Json::Int(min.plan.events.len() as i128)),
        ]),
    );
    shrink_ms
}

fn kind_p50(runs: &[Run], kind: SystemKind) -> f64 {
    let ms: Vec<f64> = runs
        .iter()
        .filter(|r| r.scenario.kind == kind)
        .map(|r| r.ms)
        .collect();
    if ms.is_empty() {
        0.0
    } else {
        median(&ms)
    }
}

/// Runs the workload and reports its end-to-end (untraced) or per-layer
/// (traced) metrics.
pub fn run(p: &Params) -> Report {
    let mut rep = Report::default();
    let scs = scenarios(p.seed);
    let exec = Executor::new(WORKERS);
    if p.trace {
        traced(&scs, &exec, &mut rep);
        return rep;
    }

    let mut setup = SetupSampler::new(|| setup_once(p.seed));

    // Runs are reduced to numbers pass by pass, so the retained state
    // (and with it the peak RSS) does not grow with the pass count.
    let (mut ms, mut rates, mut tbwf_steps, mut ops) =
        (Vec::new(), PassRates::default(), 0u64, 0u64);
    let start = Instant::now();
    // Warm-up inside the window: checked like every pass, not sampled.
    let (warm, _) = pass(&scs, &exec, false);
    tally(&mut rep, &warm);
    rep.expect_digest(digest(&warm), "the warm-up pass");
    drop(warm);
    while rates.passes() == 0 || start.elapsed() < p.window() {
        setup.sample();
        let (runs, w) = pass(&scs, &exec, false);
        tally(&mut rep, &runs);
        rep.expect_digest(digest(&runs), "a measured pass");
        ms.extend(runs.iter().map(|r| r.ms));
        let pass_ops: u64 = runs.iter().map(|r| r.ops).sum();
        let steps: u64 = runs.iter().map(|r| r.steps).sum();
        rates.push(runs.len() as u64, steps, pass_ops, w);
        ops += pass_ops;
        tbwf_steps += runs
            .iter()
            .filter(|r| r.scenario.kind == SystemKind::Tbwf)
            .map(|r| r.steps)
            .sum::<u64>();
    }
    peak_rss(&mut rep);

    // Worker-count independence: the same grid on one worker.
    let (serial, _) = pass(&scs, &Executor::new(1), false);
    tally(&mut rep, &serial);
    rep.expect_digest(digest(&serial), "the one-worker pass");
    drop(serial);

    control(&mut rep);

    let t = tail(&ms);
    rep.metric("setup_s", setup.median(), "s");
    rates.report(&mut rep);
    rep.metric("run_ms_p50", median(&ms), "ms");
    rep.metric("run_ms_tail", t.value, "ms");
    rep.metric(
        "sim_steps_per_op",
        tbwf_steps as f64 / ops.max(1) as f64,
        "steps",
    );
    rep.detail("passes", Json::Int(rates.passes() as i128));
    rep.detail("campaigns_per_pass", Json::Int(scs.len() as i128));
    rep.detail("run", Json::str("one campaign (run_scenario_under call)"));
    tail_detail(&mut rep, &t);
    rep
}

fn traced(scs: &[(usize, Scenario)], exec: &Executor, rep: &mut Report) {
    let (plain, w_plain) = pass(scs, exec, false);
    tally(rep, &plain);
    rep.expect_digest(digest(&plain), "the untraced pass");
    drop(plain);

    let f0 = faults(rep);
    let (runs, w_traced) = pass(scs, exec, true);
    let minor = faults(rep).saturating_sub(f0);
    tally(rep, &runs);
    rep.expect_digest(digest(&runs), "the traced pass");

    let shrink_ms = control(rep);

    let splits: Vec<&Split> = runs.iter().filter_map(|r| r.split.as_ref()).collect();
    let steps: u64 = runs.iter().map(|r| r.steps).sum();
    let job_ms: f64 = runs.iter().map(|r| r.ms).sum();
    let run_ns: f64 = splits.iter().map(|s| s.run_ns).sum();
    let col = |f: fn(&Split) -> f64| splits.iter().map(|s| f(s)).collect::<Vec<f64>>();
    rep.metric("sim.run.ns_per_step", run_ns / steps.max(1) as f64, "ns");
    rep.metric("sim.build.ms", median(&col(|s| s.build_ms)), "ms");
    rep.metric("sim.trace.steps", steps as f64, "count");
    rep.metric(
        "sim.trace.obs",
        runs.iter().map(|r| r.obs).sum::<u64>() as f64,
        "count",
    );
    rep.metric(
        "sim.trace.mb",
        runs.iter().map(|r| r.trace_mb).fold(0.0, f64::max),
        "MB",
    );
    rep.metric("sim.minor_faults", minor as f64, "count");
    rep.metric(
        "sim.executor.busy_frac",
        job_ms / (w_traced * 1e3 * exec.jobs() as f64),
        "ratio",
    );
    rep.metric(
        "sim.nemesis.injections",
        runs.iter().map(|r| r.injections).sum::<u64>() as f64,
        "count",
    );
    rep.metric("sim.analysis.ms", median(&col(|s| s.analysis_ms)), "ms");
    rep.metric("gauntlet.oracle.ms", median(&col(|s| s.oracle_ms)), "ms");
    for (kind, name) in [
        (SystemKind::Monitor, "gauntlet.monitor.run_ms_p50"),
        (SystemKind::OmegaAtomic, "gauntlet.omega_atomic.run_ms_p50"),
        (
            SystemKind::OmegaAbortable,
            "gauntlet.omega_abortable.run_ms_p50",
        ),
        (SystemKind::Tbwf, "gauntlet.tbwf.run_ms_p50"),
    ] {
        rep.metric(name, kind_p50(&runs, kind), "ms");
    }
    rep.metric("gauntlet.shrink.ms", shrink_ms, "ms");
    rep.metric("bench.trace_overhead", w_traced / w_plain - 1.0, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_only_permutes_the_grid() {
        let grid = scenarios(None);
        let shuffled = scenarios(Some(7));
        assert_eq!(shuffled.len(), CAMPAIGNS);
        assert_ne!(
            grid.iter().map(|g| g.0).collect::<Vec<_>>(),
            shuffled.iter().map(|g| g.0).collect::<Vec<_>>()
        );
        let mut sorted = shuffled.clone();
        sorted.sort_by_key(|g| g.0);
        for ((i, a), (j, b)) in grid.iter().zip(&sorted) {
            assert_eq!((i, a.seed, a.kind), (j, b.seed, b.kind));
        }
        let again = scenarios(Some(7));
        assert!(again.iter().zip(&shuffled).all(|(a, b)| a.0 == b.0));
    }
}
