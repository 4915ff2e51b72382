//! E12 — the degradation gauntlet: seeded randomized fault campaigns
//! over every layer of the reproduction, with shrinking repro artifacts.
//!
//! A campaign is a [`Scenario`]: a system kind (activity-monitor mesh,
//! Ω∆ on atomic or abortable registers, or the full Figure 7 TBWF
//! transform), a process count, a run length, and a [`FaultPlan`] for
//! the nemesis. [`run_scenario`] executes it deterministically and
//! checks the paper's invariants *after stabilization*:
//!
//! * **Monitor** — Properties 1–6 of Definition 9 for every ordered
//!   pair, with timeliness measured from the trace;
//! * **Ω∆ (both implementations)** — the Definition 5 spec
//!   ([`check_spec`]), plus *quiescence*: once the fault plan has played
//!   out and the settle point has passed, no measured-timely unchurned
//!   process may change its `leader` output again;
//! * **Ω∆ (atomic)** — `faultCntr_p[q]` stays bounded whenever `q` is
//!   measured-timely or crashed (Property 5 through the mesh);
//! * **TBWF** — no task panics, the counter history is linearizable,
//!   and every measured-timely process keeps completing operations
//!   after the settle point (timeliness-based wait-freedom).
//!
//! On a violation the caller shrinks the fault plan with [`shrink`]
//! (classic ddmin over the event list; every candidate subset is re-run
//! from the same seed) and serializes a self-contained repro artifact —
//! seed, scenario, minimized plan, violations — via [`artifact_json`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use tbwf::linearize::check_run_linearizable;
use tbwf::prelude::OBS_COMPLETED;
use tbwf::{TbwfRun, TbwfSystemBuilder, Workload};
use tbwf_monitor::fig2::{OBS_FAULT, OBS_STATUS};
use tbwf_monitor::props::{check_pair, CheckParams, PairRun};
use tbwf_monitor::MonitorMesh;
use tbwf_omega::harness::{install_omega_with, OmegaOptions};
use tbwf_omega::spec::{check_spec, OmegaRunData, SpecParams};
use tbwf_omega::{add_external_candidate_driver, OmegaKind, OBS_LEADER};
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_registers::{DIAL_ABORT_NO_EFFECT, DIAL_ABORT_STORM, DIAL_BASE, DIAL_CALM};
use tbwf_sim::analysis::{bounded_suffix, value_at};
use tbwf_sim::timeliness::measured_timely_set;
use tbwf_sim::{
    Executor, FaultAction, FaultEvent, FaultPlan, FaultTarget, Json, Local, Nemesis,
    NemesisSchedule, ProcId, RunConfig, RunReport, Schedule, ScheduleCtl, SimBuilder, TaskOutcome,
    Trigger,
};
use tbwf_universal::object::{Counter, CounterOp};

/// Which system a campaign drives through the nemesis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// A full mesh of Figure 2 activity monitors, all inputs on.
    Monitor,
    /// Figure 3 Ω∆ (atomic registers + monitor mesh).
    OmegaAtomic,
    /// Figures 4–6 Ω∆ (SWSR abortable registers).
    OmegaAbortable,
    /// The Figure 7 transform over a shared counter.
    Tbwf,
}

impl SystemKind {
    /// All kinds, in gauntlet order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Monitor,
        SystemKind::OmegaAtomic,
        SystemKind::OmegaAbortable,
        SystemKind::Tbwf,
    ];

    /// Stable name used in JSON artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Monitor => "monitor",
            SystemKind::OmegaAtomic => "omega_atomic",
            SystemKind::OmegaAbortable => "omega_abortable",
            SystemKind::Tbwf => "tbwf",
        }
    }

    /// Inverse of [`SystemKind::name`].
    pub fn from_name(s: &str) -> Option<SystemKind> {
        SystemKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Largest process count a [`Scenario`] may have (the largest system the
/// experiments run; E11's top row).
const MAX_N: usize = 64;

/// Longest run a [`Scenario`] may ask for, in global steps.
const MAX_STEPS: u64 = 100_000_000;

/// One self-contained campaign: everything [`run_scenario`] needs to
/// reproduce a run bit-for-bit.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Register-backend master seed.
    pub seed: u64,
    /// The system under test.
    pub kind: SystemKind,
    /// Number of processes.
    pub n: usize,
    /// Run length in global steps.
    pub steps: u64,
    /// The stabilization point: invariants that speak about "after the
    /// faults have played out" are checked from here on.
    pub settle: u64,
    /// Figure 3 lines 7–8 (self-punishment); `false` only in ablations.
    pub self_punish: bool,
    /// The fault plan the nemesis executes.
    pub plan: FaultPlan,
}

impl Scenario {
    /// Serializes the scenario (the `scenario` object of an artifact).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed as i128)),
            ("kind", Json::str(self.kind.name())),
            ("n", Json::Int(self.n as i128)),
            ("steps", Json::Int(self.steps as i128)),
            ("settle", Json::Int(self.settle as i128)),
            ("self_punish", Json::Bool(self.self_punish)),
            ("plan", self.plan.to_json()),
        ])
    }

    /// Checks that the scenario can run: `2 ≤ n ≤ 64` (the largest
    /// system the experiments run), `steps ≤ 10⁸`, and the fault plan
    /// passes the nemesis check against exactly what [`run_scenario`]
    /// registers for this kind.
    ///
    /// # Errors
    ///
    /// Describes the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_N).contains(&self.n) {
            return Err(format!("`n` = {} is outside 2..={MAX_N}", self.n));
        }
        if self.steps > MAX_STEPS {
            return Err(format!("`steps` = {} exceeds {MAX_STEPS}", self.steps));
        }
        let factory = RegisterFactory::new(factory_config(self));
        let mut nem = base_nemesis(self, &factory, &ScheduleCtl::new());
        if matches!(
            self.kind,
            SystemKind::OmegaAtomic | SystemKind::OmegaAbortable
        ) {
            for p in 0..self.n {
                nem.register_switch(&switch_name(p), Local::new(true));
            }
        }
        nem.validate(self.n)
            .map_err(|e| format!("invalid fault plan: {e}"))
    }

    /// Parses a scenario serialized by [`Scenario::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<Scenario, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("scenario lacks `{k}`"));
        let int = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` not an integer"))
        };
        let kind_name = field("kind")?.as_str().ok_or("`kind` not a string")?;
        Ok(Scenario {
            seed: int("seed")?,
            kind: SystemKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown system kind {kind_name:?}"))?,
            n: usize::try_from(int("n")?).map_err(|_| "`n` out of range".to_string())?,
            steps: int("steps")?,
            settle: int("settle")?,
            self_punish: field("self_punish")?
                .as_bool()
                .ok_or("`self_punish` not a bool")?,
            plan: FaultPlan::from_json(field("plan")?)?,
        })
    }
}

/// One invariant violation found by [`run_scenario`].
#[derive(Clone, Debug)]
pub struct Violation {
    /// Short machine-readable invariant name (`quiescence`, …).
    pub invariant: String,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl Violation {
    /// Builds a violation record for the named invariant.
    pub fn new(invariant: &str, detail: String) -> Violation {
        Violation {
            invariant: invariant.to_string(),
            detail,
        }
    }
}

/// The outcome of one campaign.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Invariant violations (empty on a passing campaign).
    pub violations: Vec<Violation>,
    /// Descriptions of the fault injections that actually fired, in
    /// firing order (from the trace's injection log).
    pub injections: Vec<String>,
    /// The measured timely set of the run.
    pub measured_timely: Vec<usize>,
}

fn collect_panics(report: &RunReport, out: &mut Vec<Violation>) {
    for (p, pr) in report.procs.iter().enumerate() {
        for (tname, outcome) in &pr.tasks {
            if let TaskOutcome::Panicked(m) = outcome {
                out.push(Violation::new("no-panic", format!("p{p}/{tname}: {m}")));
            }
        }
    }
}

/// The switch name of process `p`'s candidacy flag.
pub fn switch_name(p: usize) -> String {
    format!("cand[{p}]")
}

/// The gauge name of process `p`'s in-flight register-operation count.
pub fn gauge_name(p: usize) -> String {
    format!("inflight[{p}]")
}

/// Name of the factory-wide abort/effect policy dial.
pub const DIAL_NAME: &str = "policy";

/// Builds the nemesis for a scenario: schedule control, the factory's
/// policy dial, and one in-flight gauge per process. Candidacy switches
/// (Ω∆ kinds only) are registered by the caller.
fn base_nemesis(sc: &Scenario, factory: &RegisterFactory, ctl: &ScheduleCtl) -> Nemesis {
    let mut nem = Nemesis::new(sc.plan.clone());
    nem.control_schedule(ctl.clone());
    nem.register_dial(DIAL_NAME, factory.policy_dial().handle());
    for p in 0..sc.n {
        nem.register_gauge(&gauge_name(p), factory.inflight_gauge(ProcId(p)));
    }
    nem
}

fn factory_config(sc: &Scenario) -> RegisterFactoryConfig {
    RegisterFactoryConfig {
        seed: sc.seed,
        ..RegisterFactoryConfig::default()
    }
}

/// Which processes the plan churns via their candidacy switch; those are
/// exempt from the quiescence invariant (an R-candidate's own `leader`
/// output legitimately toggles through `?` on every churn).
pub fn churned(plan: &FaultPlan, n: usize) -> Vec<bool> {
    let mut c = vec![false; n];
    for ev in &plan.events {
        if let FaultAction::SetSwitch { switch, .. } = &ev.action {
            for (p, flag) in c.iter_mut().enumerate() {
                if *switch == switch_name(p) {
                    *flag = true;
                }
            }
        }
    }
    c
}

fn outcome_from_report(report: &RunReport, n: usize) -> (Outcome, Vec<ProcId>, Vec<ProcId>) {
    let crashed: Vec<ProcId> = report.trace.crashes.iter().map(|&(_, p)| p).collect();
    let measured = measured_timely_set(&report.trace.steps, n, &crashed);
    let mut out = Outcome {
        violations: Vec::new(),
        injections: report
            .trace
            .injections
            .iter()
            .map(|i| i.desc.clone())
            .collect(),
        measured_timely: measured.iter().map(|p| p.0).collect(),
    };
    collect_panics(report, &mut out.violations);
    (out, measured, crashed)
}

/// The schedule factory a scenario runs under: given the nemesis's
/// [`ScheduleCtl`] (which the fault plan's demote/flicker actions steer),
/// produce the run's schedule.
pub type MkSchedule<'a> = &'a mut dyn FnMut(ScheduleCtl) -> Box<dyn Schedule>;

/// Runs one campaign deterministically and checks its invariants.
pub fn run_scenario(sc: &Scenario) -> Outcome {
    run_scenario_under(sc, &mut |ctl| Box::new(NemesisSchedule::new(ctl))).0
}

/// Like [`run_scenario`], but the caller supplies the schedule and gets
/// the raw run report back alongside the verdict.
///
/// This is the model checker's seam: `tbwf-check` splices an enumerated
/// decision window into the background [`NemesisSchedule`] (wrapped in a
/// validation tap) and fingerprints the returned trace, while the
/// oracles stay exactly the gauntlet's. The default schedule —
/// `|ctl| Box::new(NemesisSchedule::new(ctl))` — reproduces
/// [`run_scenario`].
pub fn run_scenario_under(sc: &Scenario, mk_schedule: MkSchedule<'_>) -> (Outcome, RunReport) {
    match sc.kind {
        SystemKind::Monitor => run_monitor(sc, mk_schedule),
        SystemKind::OmegaAtomic | SystemKind::OmegaAbortable => run_omega(sc, mk_schedule),
        SystemKind::Tbwf => run_tbwf(sc, mk_schedule),
    }
}

fn run_monitor(sc: &Scenario, mk_schedule: MkSchedule<'_>) -> (Outcome, RunReport) {
    let factory = RegisterFactory::new(factory_config(sc));
    let mut b = SimBuilder::new();
    for p in 0..sc.n {
        b.add_process(&format!("p{p}"));
    }
    let mesh = MonitorMesh::install(&mut b, &factory, sc.n);
    for p in 0..sc.n {
        for q in 0..sc.n {
            if p != q {
                mesh.handles[p].monitoring.cell(ProcId(q)).set(true);
                mesh.handles[p].active_for.cell(ProcId(q)).set(true);
            }
        }
    }
    let ctl = ScheduleCtl::new();
    let nem = base_nemesis(sc, &factory, &ctl);
    let run = RunConfig::new(sc.steps, mk_schedule(ctl)).with_nemesis(nem);
    let report = b.build().run(run);

    let (mut out, measured, _) = outcome_from_report(&report, sc.n);
    let trace = &report.trace;
    let total = trace.len() as u64;
    for p in 0..sc.n {
        for q in 0..sc.n {
            if p == q {
                continue;
            }
            let pair = PairRun {
                total_time: total,
                // Both inputs are held on for the whole run.
                monitoring: vec![(0, 1)],
                active_for: vec![(0, 1)],
                status: trace.obs_series(ProcId(p), OBS_STATUS, q as u32),
                fault: trace.obs_series(ProcId(p), OBS_FAULT, q as u32),
                q_crash: trace.crash_time(ProcId(q)),
                q_p_timely: measured.contains(&ProcId(q)),
                p_correct: trace.is_correct(ProcId(p)),
            };
            let rep = check_pair(&pair, CheckParams::default());
            if !rep.all_ok() {
                out.violations.push(Violation::new(
                    "monitor-props",
                    format!("A(p{p}, p{q}) violates properties {:?}", rep.violations()),
                ));
            }
        }
    }
    (out, report)
}

fn run_omega(sc: &Scenario, mk_schedule: MkSchedule<'_>) -> (Outcome, RunReport) {
    let kind = match sc.kind {
        SystemKind::OmegaAtomic => OmegaKind::Atomic,
        _ => OmegaKind::Abortable,
    };
    let factory = RegisterFactory::new(factory_config(sc));
    let mut b = SimBuilder::new();
    for p in 0..sc.n {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega_with(
        &mut b,
        &factory,
        sc.n,
        kind,
        OmegaOptions {
            self_punish: sc.self_punish,
        },
    );
    let ctl = ScheduleCtl::new();
    let mut nem = base_nemesis(sc, &factory, &ctl);
    for (p, h) in handles.iter().enumerate() {
        let desired = add_external_candidate_driver(&mut b, ProcId(p), h, true);
        nem.register_switch(&switch_name(p), desired);
    }
    let run = RunConfig::new(sc.steps, mk_schedule(ctl)).with_nemesis(nem);
    let report = b.build().run(run);

    let (mut out, measured, crashed) = outcome_from_report(&report, sc.n);
    let trace = &report.trace;
    let total = trace.len() as u64;

    // Definition 5 against the measured timely set.
    let data = OmegaRunData::from_trace(trace, sc.n, &measured);
    let verdict = check_spec(&data, SpecParams::default(), false);
    for f in &verdict.failures {
        out.violations.push(Violation::new("omega-spec", f.clone()));
    }

    // Quiescence: after the settle point, no measured-timely unchurned
    // process changes its leader output again.
    let churn = churned(&sc.plan, sc.n);
    for (p, churned_p) in churn.iter().enumerate() {
        if *churned_p || !measured.contains(&ProcId(p)) {
            continue;
        }
        let series = trace.obs_series(ProcId(p), OBS_LEADER, 0);
        if let Some(&(t, v)) = series.last() {
            if t > sc.settle {
                out.violations.push(Violation::new(
                    "quiescence",
                    format!(
                        "leader_p{p} still changed at t = {t} (to {v}), after settle = {}",
                        sc.settle
                    ),
                ));
            }
        }
    }

    // Property 5 through the mesh (atomic implementation only): the
    // fault counter on a timely or crashed peer stays bounded.
    if kind == OmegaKind::Atomic {
        for &p in &measured {
            for q in 0..sc.n {
                if q == p.0 {
                    continue;
                }
                let timely_or_crashed =
                    measured.contains(&ProcId(q)) || crashed.contains(&ProcId(q));
                if !timely_or_crashed {
                    continue;
                }
                let fault = trace.obs_series(p, OBS_FAULT, q as u32);
                if !bounded_suffix(&fault, total, 0.25) {
                    out.violations.push(Violation::new(
                        "fault-bounded",
                        format!(
                            "faultCntr_p{}[p{q}] keeps growing although p{q} is {}",
                            p.0,
                            if crashed.contains(&ProcId(q)) {
                                "crashed"
                            } else {
                                "timely"
                            }
                        ),
                    ));
                }
            }
        }
    }
    (out, report)
}

/// The counter-history oracle of a TBWF counter run of `n` processes:
/// its `linearizable` violations, empty on a sound history.
///
/// Every history is checked for distinct ranks, at most one unreported
/// increment per process, well-formed intervals, and ranks that respect
/// real-time order. Sound on a history cut off by a crash, a halt or the
/// end of the run: the Wing & Gong search, which needs a complete
/// history, runs only when every effective increment was reported.
pub fn counter_history_violations(run: &TbwfRun<Counter>, n: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Each increment's response is its rank in the linearization order,
    // so reported responses must be distinct (a duplicate rank means two
    // increments linearized at the same point — a genuine safety
    // violation). The ranks need not be contiguous: a process crashed or
    // halted between an increment taking effect and its response being
    // reported leaves a hole, at most one per process.
    let ops = || run.results.iter().flatten();
    let mut resp: Vec<i64> = ops().map(|r| r.resp).collect();
    let total_ops = resp.len();
    resp.sort_unstable();
    if resp.windows(2).any(|w| w[0] == w[1]) {
        violations.push(Violation::new(
            "linearizable",
            format!("duplicate increment rank among {total_ops} responses"),
        ));
    }
    let max_resp = resp.last().copied().unwrap_or(0);
    if max_resp - total_ops as i64 > n as i64 {
        violations.push(Violation::new(
            "linearizable",
            format!(
                "{} unreported effective increments (max rank {max_resp}, {total_ops} responses) \
                 exceeds one in-flight operation per process (n = {n})",
                max_resp - total_ops as i64,
            ),
        ));
    }
    for (p, r) in run.results.iter().enumerate() {
        if r.iter().any(|op| op.time < op.invoked) {
            violations.push(Violation::new(
                "linearizable",
                format!("p{p} reports an inverted operation interval"),
            ));
        }
    }
    // Ranks respect real time: an increment that responded no later than
    // another was invoked has the lower rank. One sweep in invocation
    // order folds every increment responded by then into its maximum
    // rank. (`>` rather than `≥`: ranks of distinct increments are
    // distinct, checked above, and an increment never precedes itself.)
    let mut by_invocation: Vec<(u64, i64)> = ops().map(|r| (r.invoked, r.resp)).collect();
    let mut by_response: Vec<(u64, i64)> = ops().map(|r| (r.time, r.resp)).collect();
    by_invocation.sort_unstable();
    by_response.sort_unstable();
    let (mut responded, mut max_rank) = (0, i64::MIN);
    for &(invoked, rank) in &by_invocation {
        while responded < by_response.len() && by_response[responded].0 <= invoked {
            max_rank = max_rank.max(by_response[responded].1);
            responded += 1;
        }
        if max_rank > rank {
            violations.push(Violation::new(
                "linearizable",
                format!(
                    "rank {rank} (invoked at {invoked}) is below rank {max_rank} of an increment \
                     that had already responded"
                ),
            ));
            break;
        }
    }

    // On small *complete* histories — every effective increment reported,
    // i.e. the ranks are exactly 1..=total — run the full Wing & Gong
    // search on top of the rank tests. Gauntlet-scale campaigns produce
    // thousands of operations and skip this; the model checker's short
    // horizons land under the cap.
    if total_ops <= 256 && max_resp == total_ops as i64 {
        if let Err(e) = check_run_linearizable(&Counter, run) {
            violations.push(Violation::new(
                "linearizable",
                format!("no linearization of the {total_ops}-operation history exists ({e:?})"),
            ));
        }
    }
    violations
}

fn run_tbwf(sc: &Scenario, mk_schedule: MkSchedule<'_>) -> (Outcome, RunReport) {
    let ctl = ScheduleCtl::new();
    let run = TbwfSystemBuilder::new(Counter)
        .processes(sc.n)
        .omega(OmegaKind::Atomic)
        .seed(sc.seed)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
        .run_wired(
            RunConfig::new(sc.steps, mk_schedule(ctl.clone())),
            |factory, cfg| cfg.nemesis = Some(base_nemesis(sc, factory, &ctl)),
        );

    let (mut out, measured, _) = outcome_from_report(&run.report, sc.n);
    let trace = &run.report.trace;

    out.violations
        .extend(counter_history_violations(&run, sc.n));

    // Timeliness-based wait-freedom: every measured-timely process keeps
    // completing operations after the settle point.
    for &p in &measured {
        let series = trace.obs_series(p, OBS_COMPLETED, 0);
        let at_settle = value_at(&series, sc.settle).unwrap_or(0);
        let at_end = series.last().map(|&(_, v)| v).unwrap_or(0);
        if at_end <= at_settle {
            out.violations.push(Violation::new(
                "timely-progress",
                format!(
                    "timely p{} completed no operation after settle = {} (stuck at {at_end})",
                    p.0, sc.settle
                ),
            ));
        }
    }
    (out, run.report)
}

// ---------------------------------------------------------------------
// Campaign generation
// ---------------------------------------------------------------------

/// Generates the `i`-th healthy campaign for a system kind: a random but
/// *admissible* fault plan — crashes (timed, leader-aimed, mid-operation),
/// temporary demotions and flickers (always paired with their recovery),
/// candidacy churn (Ω∆ kinds), and register-adversary dial bursts — all
/// scheduled to play out before the settle point so the paper's
/// after-stabilization invariants apply.
pub fn random_scenario(kind: SystemKind, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15E_A5E5_u64);
    let (n, steps) = match kind {
        SystemKind::Monitor => (rng.random_range(2..=4usize), 40_000u64),
        SystemKind::OmegaAtomic => (rng.random_range(2..=4usize), 40_000),
        SystemKind::OmegaAbortable => (rng.random_range(2..=3usize), 40_000),
        SystemKind::Tbwf => (rng.random_range(2..=3usize), 200_000),
    };
    let settle = steps / 2;
    // Every event fires in the first 3/8 of the run, leaving an eighth
    // of the run for re-stabilization before the settle point.
    let horizon = (steps * 3) / 8;
    let mut plan = FaultPlan::new();
    let mut crashes = 0usize;
    let units = rng.random_range(1..=4usize);
    for _ in 0..units {
        let p = rng.random_range(0..n);
        let t1 = rng.random_range(200..horizon / 2);
        let t2 = rng.random_range(t1 + 100..horizon);
        match rng.random_range(0..6u32) {
            0 | 1 if crashes + 1 < n => {
                crashes += 1;
                plan = match rng.random_range(0..3u32) {
                    // A plain timed crash.
                    0 => plan.with(Trigger::At(t1), FaultAction::Crash(FaultTarget::Proc(p))),
                    // Crash whoever is leader when the trigger fires
                    // (Ω∆-backed kinds only; the monitor mesh announces
                    // no leader, so fall back to a timed crash).
                    1 if kind != SystemKind::Monitor => plan.with(
                        Trigger::OnObs {
                            at: t1,
                            key: OBS_LEADER.to_string(),
                        },
                        FaultAction::Crash(FaultTarget::ObsValue),
                    ),
                    // Crash p between `invoke_` and `complete_` of a
                    // register operation.
                    _ => plan.with(
                        Trigger::OnGauge {
                            at: t1,
                            gauge: gauge_name(p),
                            min: 1,
                        },
                        FaultAction::Crash(FaultTarget::Proc(p)),
                    ),
                };
            }
            2 => {
                plan = plan
                    .with(Trigger::At(t1), FaultAction::Demote(FaultTarget::Proc(p)))
                    .with(Trigger::At(t2), FaultAction::Promote(FaultTarget::Proc(p)));
            }
            3 => {
                plan = plan
                    .with(
                        Trigger::At(t1),
                        FaultAction::FlickerStart(FaultTarget::Proc(p)),
                    )
                    .with(
                        Trigger::At(t2),
                        FaultAction::FlickerStop(FaultTarget::Proc(p)),
                    );
            }
            4 if matches!(kind, SystemKind::OmegaAtomic | SystemKind::OmegaAbortable) => {
                plan = plan
                    .with(
                        Trigger::At(t1),
                        FaultAction::SetSwitch {
                            switch: switch_name(p),
                            on: false,
                        },
                    )
                    .with(
                        Trigger::At(t2),
                        FaultAction::SetSwitch {
                            switch: switch_name(p),
                            on: true,
                        },
                    );
            }
            _ => {
                let mode = [DIAL_ABORT_STORM, DIAL_CALM, DIAL_ABORT_NO_EFFECT]
                    [rng.random_range(0..3usize)];
                plan = plan
                    .with(
                        Trigger::At(t1),
                        FaultAction::SetDial {
                            dial: DIAL_NAME.to_string(),
                            value: mode,
                        },
                    )
                    .with(
                        Trigger::At(t2),
                        FaultAction::SetDial {
                            dial: DIAL_NAME.to_string(),
                            value: DIAL_BASE,
                        },
                    );
            }
        }
    }
    Scenario {
        seed,
        kind,
        n,
        steps,
        settle,
        self_punish: true,
        plan,
    }
}

/// The deliberately broken campaign: Figure 3 Ω∆ with self-punishment
/// (lines 7–8) disabled and a candidacy churner that re-enters the
/// competition *after* the settle point. With punishment the churner's
/// counter is handicapped and leadership never moves; without it the
/// churner re-enters at counter parity, steals leadership from the
/// stable leader, and violates quiescence at the unchurned process.
pub fn ablation_scenario(seed: u64) -> Scenario {
    let churn = |t: u64, on: bool| {
        (
            Trigger::At(t),
            FaultAction::SetSwitch {
                switch: switch_name(0),
                on,
            },
        )
    };
    let mut plan = FaultPlan::new();
    for (trig, act) in [
        // Priming churn, well before the settle point: under
        // self-punishment this leaves p0 handicapped.
        churn(2_000, false),
        churn(3_000, true),
        // Post-settle churn: the event the ablation turns into a
        // leadership theft.
        churn(18_000, false),
        churn(21_000, true),
    ] {
        plan = plan.with(trig, act);
    }
    Scenario {
        seed,
        kind: SystemKind::OmegaAtomic,
        n: 2,
        steps: 30_000,
        settle: 15_000,
        self_punish: false,
        plan,
    }
}

// ---------------------------------------------------------------------
// Parallel campaign execution
// ---------------------------------------------------------------------

/// The seed of the `i`-th campaign of a gauntlet run (shared by every
/// driver so serial and parallel runs test identical scenarios).
pub fn campaign_seed(i: usize) -> u64 {
    0xE12_000 + i as u64
}

/// The deterministic campaign list of a gauntlet run: `total` campaigns
/// split evenly (ceiling division) across the four system kinds,
/// kind-major, with the gauntlet's fixed seed sequence.
pub fn campaign_list(total: usize) -> Vec<Scenario> {
    let per_kind = total.div_ceil(SystemKind::ALL.len());
    let mut out = Vec::with_capacity(per_kind * SystemKind::ALL.len());
    for kind in SystemKind::ALL {
        for i in 0..per_kind {
            out.push(random_scenario(kind, campaign_seed(i)));
        }
    }
    out
}

/// The full record of one campaign: its outcome plus, when it violated,
/// the ddmin-shrunk scenario and the shrunk plan's re-run outcome.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The campaign as executed.
    pub scenario: Scenario,
    /// Verdict of the full plan.
    pub outcome: Outcome,
    /// On a violation: the 1-minimal repro scenario and its outcome
    /// (exactly what [`artifact_json`] serializes to disk).
    pub shrunk: Option<(Scenario, Outcome)>,
}

impl CampaignResult {
    /// Serializes the campaign record — scenario, verdict, violations,
    /// and the shrunk repro plan if any.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("campaign", artifact_json(&self.scenario, &self.outcome)),
            (
                "shrunk",
                match &self.shrunk {
                    Some((sc, out)) => artifact_json(sc, out),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Runs every scenario through the executor — one campaign per job,
/// shrinking any failure inside the job — and returns the results in
/// campaign order.
///
/// Campaigns share no state (each builds its own registers, nemesis and
/// schedule, and each run is a deterministic function of its scenario),
/// and the executor collects by index, so the result list — verdicts,
/// violation lists, shrunk repro plans — is byte-identical for every
/// worker count. `tests/parallel_determinism.rs` pins this down.
pub fn run_campaigns(scenarios: &[Scenario], executor: &Executor) -> Vec<CampaignResult> {
    executor.run(scenarios.len(), |i| {
        let scenario = scenarios[i].clone();
        let outcome = run_scenario(&scenario);
        let shrunk = if outcome.violations.is_empty() {
            None
        } else {
            let min = shrink(&scenario);
            let min_out = run_scenario(&min);
            Some((min, min_out))
        };
        CampaignResult {
            scenario,
            outcome,
            shrunk,
        }
    })
}

/// Serializes a whole gauntlet run as one JSON array, in campaign order.
/// The parallel-determinism test compares this byte-for-byte across
/// worker counts.
pub fn report_json(results: &[CampaignResult]) -> Json {
    Json::Arr(results.iter().map(CampaignResult::to_json).collect())
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Classic ddmin over an arbitrary item list: repeatedly tests subsets
/// (and complements of subsets) of `items`, keeping any strictly smaller
/// list for which `violates` still holds, until the list is 1-minimal.
/// Returns `items` unchanged if the full list does not violate (nothing
/// to shrink). Deterministic: candidate order is a pure function of the
/// input, so equal inputs shrink identically.
pub fn ddmin<E: Clone>(items: &[E], violates: &mut dyn FnMut(&[E]) -> bool) -> Vec<E> {
    let mut cur: Vec<E> = items.to_vec();
    if !violates(&cur) {
        return cur;
    }
    let mut granularity = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(granularity);
        let chunks: Vec<&[E]> = cur.chunks(chunk).collect();
        let mut reduced = None;
        // Try each chunk alone (fast path to tiny lists)…
        for c in &chunks {
            if c.len() < cur.len() && violates(c) {
                reduced = Some((c.to_vec(), 2));
                break;
            }
        }
        // …then each complement.
        if reduced.is_none() && chunks.len() > 2 {
            for i in 0..chunks.len() {
                let complement: Vec<E> = chunks
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .flat_map(|(_, c)| c.iter().cloned())
                    .collect();
                if complement.len() < cur.len() && violates(&complement) {
                    reduced = Some((complement, granularity.saturating_sub(1).max(2)));
                    break;
                }
            }
        }
        match reduced {
            Some((next, g)) => {
                cur = next;
                granularity = g.min(cur.len().max(2));
            }
            None if granularity < cur.len() => granularity = (granularity * 2).min(cur.len()),
            None => break,
        }
    }
    cur
}

/// Minimizes a violating scenario's fault plan with [`ddmin`]: every
/// candidate subset is re-run from the same seed, and any subset that
/// still violates is kept. Returns the shrunken scenario (identical to
/// the input except for the plan; unchanged if not reproducible).
pub fn shrink(sc: &Scenario) -> Scenario {
    let mut violates = |events: &[FaultEvent]| -> bool {
        let mut cand = sc.clone();
        cand.plan = FaultPlan {
            events: events.to_vec(),
        };
        !run_scenario(&cand).violations.is_empty()
    };
    let mut min = sc.clone();
    min.plan = FaultPlan {
        events: ddmin(&sc.plan.events, &mut violates),
    };
    min
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

/// Serializes a self-contained repro artifact: the (possibly shrunken)
/// scenario plus the violations and injections of its run.
pub fn artifact_json(sc: &Scenario, out: &Outcome) -> Json {
    Json::obj([
        ("scenario", sc.to_json()),
        (
            "violations",
            Json::Arr(
                out.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("invariant", Json::str(&v.invariant)),
                            ("detail", Json::str(&v.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "injections",
            Json::Arr(out.injections.iter().map(Json::str).collect()),
        ),
        (
            "measured_timely",
            Json::Arr(
                out.measured_timely
                    .iter()
                    .map(|&p| Json::Int(p as i128))
                    .collect(),
            ),
        ),
    ])
}

/// Writes an artifact as pretty-printed JSON to `dir/stem.json`,
/// creating `dir` if needed; returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifact(dir: &Path, stem: &str, artifact: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, artifact.to_string_pretty() + "\n")?;
    Ok(path)
}

/// Reads an artifact file (the `--repro` modes of the gauntlet and the
/// model checker): the parsed JSON document and its validated scenario.
///
/// # Errors
///
/// Returns a description of the I/O or parse failure, or of why the
/// scenario cannot run ([`Scenario::validate`]).
pub fn read_artifact(path: &Path) -> Result<(Json, Scenario), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    let sc = Scenario::from_json(json.get("scenario").unwrap_or(&json))?;
    sc.validate()?;
    Ok((json, sc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_json_round_trips() {
        let sc = random_scenario(SystemKind::OmegaAtomic, 42);
        let json = sc.to_json();
        let back = Scenario::from_json(&json).expect("parse");
        assert_eq!(back.seed, sc.seed);
        assert_eq!(back.kind, sc.kind);
        assert_eq!(back.n, sc.n);
        assert_eq!(back.steps, sc.steps);
        assert_eq!(back.settle, sc.settle);
        assert_eq!(back.self_punish, sc.self_punish);
        assert_eq!(back.plan, sc.plan);
        // And through text.
        let reparsed = Json::parse(&json.to_string_compact()).expect("reparse");
        assert_eq!(Scenario::from_json(&reparsed).unwrap().plan, sc.plan);
    }

    #[test]
    fn ablation_shape_is_healthy_with_punishment_enabled() {
        let mut sc = ablation_scenario(7);
        sc.self_punish = true;
        let out = run_scenario(&sc);
        assert!(
            out.violations.is_empty(),
            "punishment enabled must pass: {:?}",
            out.violations
        );
    }

    #[test]
    fn ablation_violates_quiescence_and_shrinks_small() {
        let sc = ablation_scenario(7);
        let out = run_scenario(&sc);
        assert!(
            out.violations.iter().any(|v| v.invariant == "quiescence"),
            "expected a quiescence violation, got {:?}",
            out.violations
        );
        let min = shrink(&sc);
        assert!(
            !min.plan.events.is_empty() && min.plan.events.len() <= 5,
            "shrunken plan has {} events",
            min.plan.events.len()
        );
        // The minimized plan still reproduces.
        assert!(!run_scenario(&min).violations.is_empty());
    }

    #[test]
    fn healthy_campaigns_have_no_violations() {
        for kind in [SystemKind::Monitor, SystemKind::OmegaAtomic] {
            let sc = random_scenario(kind, 3);
            let out = run_scenario(&sc);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                kind.name(),
                out.violations
            );
        }
    }

    /// A fault-free two-process counter run of `steps` steps under
    /// round-robin.
    fn counter_run_of(steps: u64) -> TbwfRun<Counter> {
        TbwfSystemBuilder::new(Counter)
            .processes(2)
            .workload_all(Workload::Unlimited(CounterOp::Inc))
            .run(RunConfig::new(steps, tbwf_sim::schedule::RoundRobin::new()))
    }

    fn counter_run() -> TbwfRun<Counter> {
        counter_run_of(5_000)
    }

    fn max_rank(run: &TbwfRun<Counter>) -> i64 {
        run.results.iter().flatten().map(|r| r.resp).max().unwrap()
    }

    #[test]
    fn counter_oracle_accepts_a_truncated_history() {
        let mut run = counter_run();
        assert!(counter_history_violations(&run, 2).is_empty());
        // The process whose last increment is not the latest one loses
        // that response, as if the run had been cut off before reporting
        // it: the increment took effect, so its rank leaves a hole.
        let top = max_rank(&run);
        let p = (0..2)
            .find(|&p| run.results[p].last().is_some_and(|r| r.resp != top))
            .unwrap();
        run.results[p].pop();
        assert_eq!(max_rank(&run), top);
        let total = run.results.iter().map(Vec::len).sum::<usize>() as i64;
        assert_eq!(top, total + 1, "one hole in the ranks");
        let violations = counter_history_violations(&run, 2);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn counter_oracle_flags_ranks_against_real_time() {
        let mut run = counter_run_of(60_000);
        let total = run.results.iter().map(Vec::len).sum::<usize>();
        assert!(
            total > 256,
            "the Wing & Gong search must not run ({total} ops)"
        );
        // A hole, so the history is incomplete as well.
        let top = max_rank(&run);
        let p = (0..2)
            .find(|&p| run.results[p].last().is_some_and(|r| r.resp != top))
            .unwrap();
        run.results[p].pop();
        assert!(counter_history_violations(&run, 2).is_empty());
        // p0's first increment responded before its last was invoked, so
        // swapping their ranks breaks real-time order and nothing else.
        let ops = &mut run.results[0];
        let last = ops.len() - 1;
        assert!(ops[0].time <= ops[last].invoked);
        let (first_rank, last_rank) = (ops[0].resp, ops[last].resp);
        ops[0].resp = last_rank;
        ops[last].resp = first_rank;
        let violations = counter_history_violations(&run, 2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].detail.contains("already responded"),
            "{violations:?}"
        );
    }

    #[test]
    fn counter_oracle_flags_a_duplicated_rank() {
        let mut run = counter_run();
        run.results[0][0].resp = run.results[1][0].resp;
        let violations = counter_history_violations(&run, 2);
        assert!(
            violations
                .iter()
                .any(|v| v.detail.starts_with("duplicate increment rank")),
            "{violations:?}"
        );
    }
}
