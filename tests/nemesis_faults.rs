//! Integration tests for the nemesis fault-injection layer: crashes
//! landing *inside* a register operation must not corrupt shared state
//! or wedge the survivors, and a fault plan is part of the deterministic
//! run description — identical (seed, schedule, plan) triples replay the
//! exact same run.

use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;
use tbwf_omega::harness::install_omega;
use tbwf_omega::{add_external_candidate_driver, OBS_LEADER};
use tbwf_registers::{DIAL_ABORT_STORM, DIAL_BASE};
use tbwf_sim::analysis::value_at;
use tbwf_sim::{
    FaultAction, FaultPlan, FaultTarget, Nemesis, NemesisSchedule, Obs, ScheduleCtl, StepLog,
    Trigger,
};

/// Crash a process *between* `invoke_` and `complete_` of a register
/// operation (the in-flight gauge trigger fires exactly there) and check
/// that the run stays consistent: survivors keep completing operations
/// long after the crash, the counter history is linearizable, and
/// the crashed process goes silent at its crash time.
#[test]
fn crash_mid_operation_never_wedges_survivors() {
    let n = 3;
    let steps = 120_000u64;
    let run = TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(OmegaKind::Atomic)
        .seed(11)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
        .run_wired(
            RunConfig::new(steps, SeededRandom::new(5)),
            |factory, cfg| {
                let plan = FaultPlan::new().with(
                    Trigger::OnGauge {
                        at: 40_000,
                        gauge: "inflight[1]".into(),
                        min: 1,
                    },
                    FaultAction::Crash(FaultTarget::Proc(1)),
                );
                let mut nem = Nemesis::new(plan);
                nem.register_gauge("inflight[1]", factory.inflight_gauge(ProcId(1)));
                cfg.with_nemesis(nem)
            },
        );
    run.report.assert_no_panics();
    let trace = &run.report.trace;

    // The crash fired, mid-operation, at or after the arming time.
    let tc = trace
        .crash_time(ProcId(1))
        .expect("the OnGauge crash never fired");
    assert!(tc >= 40_000, "crash fired before its arming time: {tc}");
    assert_eq!(trace.injections.len(), 1, "exactly one injection fired");

    // The crashed process is silent from its crash on.
    let last_obs_p1 = trace
        .obs
        .iter()
        .filter(|o: &&Obs| o.proc == ProcId(1))
        .map(|o| o.time)
        .max()
        .unwrap_or(0);
    assert!(
        last_obs_p1 <= tc,
        "crashed p1 still observed at t = {last_obs_p1}, after its crash at {tc}"
    );

    // Survivors keep completing operations well past the crash — the
    // dangling half-open operation must not poison shared registers.
    for p in [0, 2] {
        let series = trace.obs_series(ProcId(p), OBS_COMPLETED, 0);
        let at_crash = value_at(&series, tc).unwrap_or(0);
        let at_end = series.last().map(|&(_, v)| v).unwrap_or(0);
        assert!(
            at_end > at_crash + 10,
            "p{p} wedged after the crash: {at_crash} -> {at_end} completions"
        );
    }

    // The counter history is linearizable, the crash hole included.
    let violations = counter_history_violations(&run);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Everything a replay comparison needs from one run: steps,
/// observations, crashes, and the injection log.
struct RunFingerprint {
    steps: StepLog,
    obs: Vec<Obs>,
    crashes: Vec<(u64, ProcId)>,
    injections: Vec<String>,
}

fn omega_under_faults() -> RunFingerprint {
    let n = 3;
    let factory = RegisterFactory::new(RegisterFactoryConfig {
        seed: 77,
        ..RegisterFactoryConfig::default()
    });
    let mut b = SimBuilder::new();
    for p in 0..n {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega(&mut b, &factory, n, OmegaKind::Abortable);
    let switches: Vec<(String, Local<bool>)> = handles
        .iter()
        .enumerate()
        .map(|(p, h)| {
            let sw = add_external_candidate_driver(&mut b, ProcId(p), h, true);
            (format!("cand[{p}]"), sw)
        })
        .collect();

    // One fault of every flavor: crash, candidacy churn, schedule
    // perturbation, register-adversary burst.
    let plan = FaultPlan::new()
        .with(
            Trigger::At(3_000),
            FaultAction::Demote(FaultTarget::Proc(1)),
        )
        .with(
            Trigger::At(5_000),
            FaultAction::SetSwitch {
                switch: "cand[0]".into(),
                on: false,
            },
        )
        .with(
            Trigger::At(7_000),
            FaultAction::SetDial {
                dial: "policy".into(),
                value: DIAL_ABORT_STORM,
            },
        )
        .with(
            Trigger::At(9_000),
            FaultAction::Promote(FaultTarget::Proc(1)),
        )
        .with(
            Trigger::At(10_000),
            FaultAction::SetDial {
                dial: "policy".into(),
                value: DIAL_BASE,
            },
        )
        .with(
            Trigger::At(11_000),
            FaultAction::SetSwitch {
                switch: "cand[0]".into(),
                on: true,
            },
        )
        .with(
            // Fires on the first leader announcement after the candidacy
            // churn starts (leader observations are recorded on change,
            // so the trigger must sit inside a re-election window).
            Trigger::OnObs {
                at: 5_500,
                key: OBS_LEADER.to_string(),
            },
            FaultAction::Crash(FaultTarget::ObsValue),
        );
    let ctl = ScheduleCtl::new();
    let mut nem = Nemesis::new(plan);
    nem.control_schedule(ctl.clone());
    nem.register_dial("policy", factory.policy_dial().handle());
    for (name, sw) in &switches {
        nem.register_switch(name, sw.clone());
    }
    let report = b
        .build()
        .run(RunConfig::new(20_000, NemesisSchedule::new(ctl)).with_nemesis(nem));
    report.assert_no_panics();
    RunFingerprint {
        steps: report.trace.steps.clone(),
        obs: report.trace.obs.clone(),
        crashes: report.trace.crashes.clone(),
        injections: report
            .trace
            .injections
            .iter()
            .map(|i| format!("{}@{}", i.desc, i.time))
            .collect(),
    }
}

/// The same program under the same seed, schedule, and fault plan takes
/// the exact same steps, records the exact same observations, and fires
/// the exact same injections in two independent runs.
#[test]
fn identical_plan_replays_identically() {
    let first = omega_under_faults();
    let second = omega_under_faults();
    assert_eq!(first.steps, second.steps, "step sequences differ");
    assert_eq!(first.obs, second.obs, "observations differ");
    assert_eq!(first.crashes, second.crashes, "crash times differ");
    assert_eq!(first.injections, second.injections, "injection logs differ");
    // The plan actually did something.
    assert_eq!(
        first.injections.len(),
        7,
        "all seven fault events should fire"
    );
    assert_eq!(first.crashes.len(), 1, "the leader-aimed crash should land");
}
