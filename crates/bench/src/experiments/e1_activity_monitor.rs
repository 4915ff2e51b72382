//! **E1 — Activity monitor conformance** (Figure 2, Theorem 10).
//!
//! Sweeps the full input grid of `A(p, q)` — each of `monitoring_p[q]`
//! and `active-for_q[p]` eventually-on, eventually-off, or toggling
//! forever — against three behaviors of the monitored process `q`
//! (timely, not timely, crashing), and checks Properties 1–6 of
//! Definition 9 on every run.
//!
//! Expected result: no property is ever violated (`viol` column empty).

use crate::table;
use std::rc::Rc;
use tbwf_monitor::fig2::{activity_monitor, OBS_FAULT, OBS_STATUS};
use tbwf_monitor::props::{check_pair, PairRun};
use tbwf_registers::RegisterFactory;
use tbwf_sim::schedule::{GapGrowth, PartiallySynchronous, RoundRobin, Schedule};
use tbwf_sim::{step, Env, FutureTask, Local, ProcId, RunConfig, SimBuilder};

#[derive(Clone, Copy, Debug)]
enum InputScript {
    On,
    Off,
    Toggle,
}

impl InputScript {
    fn value_at(self, t: u64) -> bool {
        match self {
            InputScript::On => true,
            InputScript::Off => false,
            InputScript::Toggle => (t / 6_000).is_multiple_of(2),
        }
    }

    fn label(self) -> &'static str {
        match self {
            InputScript::On => "on",
            InputScript::Off => "off",
            InputScript::Toggle => "toggle",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum QBehavior {
    Timely,
    Slow,
    Crash,
}

impl QBehavior {
    fn label(self) -> &'static str {
        match self {
            QBehavior::Timely => "timely",
            QBehavior::Slow => "slow",
            QBehavior::Crash => "crash",
        }
    }
}

/// Drives one monitor input: every step sets `cell` to the script's
/// value at the current time, observing each change (and, first, the
/// initial value).
async fn input_driver(
    env: Rc<dyn Env>,
    (key, idx): (&'static str, u32),
    cell: Local<bool>,
    script: InputScript,
) {
    env.observe(key, idx, cell.get() as i64);
    loop {
        let v = script.value_at(env.now());
        if cell.get() != v {
            cell.set(v);
            env.observe(key, idx, v as i64);
        }
        step().await;
    }
}

fn add_input_driver(
    b: &mut SimBuilder,
    pid: ProcId,
    key: &'static str,
    idx: u32,
    cell: Local<bool>,
    script: InputScript,
) {
    let driver = FutureTask::new(move |env| input_driver(env, (key, idx), cell, script));
    b.add_stepper(pid, "driver", Box::new(driver));
}

fn run_one(mon: InputScript, act: InputScript, beh: QBehavior, steps: u64) -> PairRun {
    let factory = RegisterFactory::default();
    let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    let monitoring = pair.monitoring_side.monitoring.clone();
    let active_for = pair.monitored_side.active_for.clone();

    let mut b = super::monitor_pair_system(pair);
    add_input_driver(&mut b, ProcId(0), "monitoring", 1, monitoring, mon);
    add_input_driver(&mut b, ProcId(1), "active_for", 0, active_for, act);

    // Linear gap growth: q is not timely (no fixed bound exists) but its
    // steps stay dense enough that "faultCntr increases without bound"
    // (Property 6) is visible in every window of a finite trace.
    let schedule: Box<dyn Schedule> = match beh {
        QBehavior::Slow => Box::new(PartiallySynchronous::with_growth(
            vec![ProcId(0)],
            4,
            GapGrowth::Linear(4),
        )),
        _ => Box::new(RoundRobin::new()),
    };
    let mut config = RunConfig::new(steps, schedule);
    if matches!(beh, QBehavior::Crash) {
        config = config.crash(steps / 4, ProcId(1));
    }
    let report = b.build().run(config);
    report.assert_no_panics();
    let trace = &report.trace;

    PairRun {
        total_time: trace.len() as u64,
        monitoring: trace.obs_series(ProcId(0), "monitoring", 1),
        active_for: trace.obs_series(ProcId(1), "active_for", 0),
        status: trace.obs_series(ProcId(0), OBS_STATUS, 1),
        fault: trace.obs_series(ProcId(0), OBS_FAULT, 1),
        q_crash: trace.crash_time(ProcId(1)),
        q_p_timely: matches!(beh, QBehavior::Timely),
        p_correct: true,
    }
}

pub fn run() -> String {
    let steps = 60_000;
    let scripts = [InputScript::On, InputScript::Off, InputScript::Toggle];
    let behaviors = [QBehavior::Timely, QBehavior::Slow, QBehavior::Crash];
    let mut out =
        String::from("E1: A(p,q) specification (Def. 9, Props 1-6) over the full input grid\n");
    out += &format!("    {steps} steps per run, strongest register adversary\n\n");

    let mut rows = Vec::new();
    let mut violations = 0;
    for beh in behaviors {
        for mon in scripts {
            for act in scripts {
                let run = run_one(mon, act, beh, steps);
                let rep = check_pair(&run);
                let verd = [rep.p1, rep.p2, rep.p3, rep.p4, rep.p5, rep.p6];
                let cells: Vec<String> = verd
                    .iter()
                    .map(|v| {
                        match v {
                            tbwf_monitor::PropVerdict::NotApplicable => "-",
                            tbwf_monitor::PropVerdict::Holds => "ok",
                            tbwf_monitor::PropVerdict::Violated => "VIOL",
                        }
                        .to_string()
                    })
                    .collect();
                if !rep.all_ok() {
                    violations += 1;
                }
                let mut row = vec![
                    beh.label().to_string(),
                    mon.label().to_string(),
                    act.label().to_string(),
                ];
                row.extend(cells);
                row.push(format!("{:?}", rep.violations()));
                rows.push(row);
            }
        }
    }
    out += &table(
        &[
            "q is",
            "monitoring",
            "active-for",
            "P1",
            "P2",
            "P3",
            "P4",
            "P5",
            "P6",
            "viol",
        ],
        &rows,
    );
    out += &format!("\n{violations} run(s) with violations (paper predicts 0)\n");
    assert_eq!(violations, 0, "Definition 9 violated");
    out
}
