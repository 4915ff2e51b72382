//! Integration tests: activity-monitor specification (Definition 9) on
//! full simulated runs — the assertion form of experiment E1.

use std::rc::Rc;
use tbwf::prelude::*;
use tbwf_monitor::fig2::{activity_monitor, OBS_FAULT, OBS_STATUS};
use tbwf_monitor::props::{check_pair, PairRun};
use tbwf_sim::schedule::GapGrowth;

struct PairSetup {
    monitoring_on: bool,
    active_on: bool,
    q_timely: bool,
    q_crash_at: Option<u64>,
    steps: u64,
}

fn run_pair(s: PairSetup) -> PairRun {
    let factory = RegisterFactory::default();
    let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    pair.monitoring_side.monitoring.set(s.monitoring_on);
    pair.monitored_side.active_for.set(s.active_on);

    // Each side records its (constant) input in its first segment.
    let (monitoring, monitored) = (pair.monitoring_side, pair.monitored_side);
    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    let monitoring_task = FutureTask::new(move |env: Rc<dyn Env>| async move {
        env.observe("monitoring", 1, s.monitoring_on as i64);
        monitoring.run(env).await
    });
    b.add_stepper(p0, "monitoring", Box::new(monitoring_task));
    let p1 = b.add_process("p1");
    let monitored_task = FutureTask::new(move |env: Rc<dyn Env>| async move {
        env.observe("active_for", 0, s.active_on as i64);
        monitored.run(env).await
    });
    b.add_stepper(p1, "monitored", Box::new(monitored_task));

    let schedule: Box<dyn tbwf_sim::Schedule> = if s.q_timely {
        Box::new(RoundRobin::new())
    } else {
        Box::new(PartiallySynchronous::with_growth(
            vec![ProcId(0)],
            4,
            GapGrowth::Linear(4),
        ))
    };
    let mut cfg = RunConfig::new(s.steps, schedule);
    if let Some(t) = s.q_crash_at {
        cfg = cfg.crash(t, ProcId(1));
    }
    let report = b.build().run(cfg);
    report.assert_no_panics();
    let trace = &report.trace;
    PairRun {
        total_time: trace.len() as u64,
        monitoring: trace.obs_series(ProcId(0), "monitoring", 1),
        active_for: trace.obs_series(ProcId(1), "active_for", 0),
        status: trace.obs_series(ProcId(0), OBS_STATUS, 1),
        fault: trace.obs_series(ProcId(0), OBS_FAULT, 1),
        q_crash: trace.crash_time(ProcId(1)),
        q_p_timely: s.q_timely && s.q_crash_at.is_none(),
        p_correct: true,
    }
}

#[test]
fn timely_active_q_satisfies_all_properties() {
    let run = run_pair(PairSetup {
        monitoring_on: true,
        active_on: true,
        q_timely: true,
        q_crash_at: None,
        steps: 50_000,
    });
    let rep = check_pair(&run);
    assert!(rep.all_ok(), "violations: {:?}", rep.violations());
    // Property 4 must be *applicable* here, not just vacuous.
    assert_eq!(rep.p4, tbwf_monitor::PropVerdict::Holds);
    assert_eq!(rep.p5, tbwf_monitor::PropVerdict::Holds);
}

#[test]
fn non_timely_q_grows_fault_counter_without_bound() {
    let run = run_pair(PairSetup {
        monitoring_on: true,
        active_on: true,
        q_timely: false,
        q_crash_at: None,
        steps: 60_000,
    });
    let rep = check_pair(&run);
    assert_eq!(
        rep.p6,
        tbwf_monitor::PropVerdict::Holds,
        "P6 must hold and apply"
    );
    assert!(rep.all_ok(), "violations: {:?}", rep.violations());
}

#[test]
fn crashed_q_is_eventually_inactive_with_bounded_faults() {
    let run = run_pair(PairSetup {
        monitoring_on: true,
        active_on: true,
        q_timely: true,
        q_crash_at: Some(10_000),
        steps: 60_000,
    });
    let rep = check_pair(&run);
    assert_eq!(rep.p3, tbwf_monitor::PropVerdict::Holds);
    assert_eq!(rep.p5, tbwf_monitor::PropVerdict::Holds);
    assert!(rep.all_ok(), "violations: {:?}", rep.violations());
}

#[test]
fn monitoring_off_keeps_status_unknown_forever() {
    let run = run_pair(PairSetup {
        monitoring_on: false,
        active_on: true,
        q_timely: true,
        q_crash_at: None,
        steps: 30_000,
    });
    let rep = check_pair(&run);
    assert_eq!(rep.p1, tbwf_monitor::PropVerdict::Holds);
    assert!(
        run.fault.len() <= 1,
        "faultCntr must stay 0 while not monitoring"
    );
}
