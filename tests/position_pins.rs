//! Step-position pins: every Figure 2–6 task, candidate driver and the Ω
//! adapter, the Figure 7/8 transform over the query-abortable object, and
//! the E5 baselines, run in small fixed configurations, must reproduce the exact
//! run record — which process took each step, and every observation with
//! its time — that the committed code produced when the pins were taken.
//!
//! Each run is folded into an FNV-1a digest of `(trace.steps,
//! trace.obs)`. A digest changes when any task moves a step, adds or
//! drops one, or observes at a different point; the E1–E13 tables would
//! show the same drift, but only when an experiment is rerun and diffed.

use std::rc::Rc;
use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;
use tbwf_monitor::fig2::{activity_monitor, MonitoredSide, MonitoringSide};
use tbwf_omega::harness::install_omega_with;
use tbwf_omega::{add_candidate_driver, add_external_candidate_driver, install_omega_fd};
use tbwf_registers::{DIAL_ABORT_STORM, DIAL_BASE};
use tbwf_sim::schedule::SeededRandom;
use tbwf_sim::{step, FaultAction, FaultPlan, FutureTask, Nemesis, Trace, Trigger};

/// FNV-1a over the step record and the observation log.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in trace.steps.iter() {
        eat(&[p.0 as u8]);
    }
    for o in &trace.obs {
        eat(&o.time.to_le_bytes());
        eat(&(o.proc.0 as u64).to_le_bytes());
        eat(o.key.as_bytes());
        eat(&o.idx.to_le_bytes());
        eat(&o.value.to_le_bytes());
    }
    h
}

fn processes(n: usize) -> SimBuilder {
    let mut b = SimBuilder::new();
    for p in 0..n {
        b.add_process(&format!("p{p}"));
    }
    b
}

fn run(b: SimBuilder, config: RunConfig) -> u64 {
    let report = b.build().run(config);
    report.assert_no_panics();
    assert!(!report.trace.is_empty());
    digest(&report.trace)
}

fn monitoring_task(side: MonitoringSide) -> Box<dyn Stepper> {
    Box::new(FutureTask::new(move |env: Rc<dyn Env>| side.run(env)))
}

fn monitored_task(side: MonitoredSide) -> Box<dyn Stepper> {
    Box::new(FutureTask::new(move |env: Rc<dyn Env>| side.run(env)))
}

/// Toggles `cell` every `period` steps of global time, starting on.
fn toggle(cell: Local<bool>, period: u64) -> Box<dyn Stepper> {
    Box::new(FutureTask::new(move |env: Rc<dyn Env>| async move {
        loop {
            cell.set((env.now() / period).is_multiple_of(2));
            step().await;
        }
    }))
}

#[test]
fn figure2_pair_with_toggled_inputs() {
    let factory = RegisterFactory::default();
    let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    let monitoring = pair.monitoring_side.monitoring.clone();
    let active_for = pair.monitored_side.active_for.clone();
    let mut b = processes(2);
    b.add_stepper(
        ProcId(0),
        "monitoring",
        monitoring_task(pair.monitoring_side),
    );
    b.add_stepper(ProcId(0), "toggle", toggle(monitoring, 700));
    b.add_stepper(ProcId(1), "monitored", monitored_task(pair.monitored_side));
    b.add_stepper(ProcId(1), "toggle", toggle(active_for, 1_100));
    let d = run(b, RunConfig::new(12_000, SeededRandom::new(7)));
    assert_eq!(d, 0xc59f_03f1_bc81_38f4, "figure 2 digest {d:#018x}");
}

/// Figure 3 (or Figures 4–6) at n = 3 with every kind of candidacy.
fn omega_scripts() -> Vec<CandidateScript> {
    vec![
        CandidateScript::Always,
        CandidateScript::Blink {
            on: 3_000,
            off: 1_000,
        },
        CandidateScript::CanonicalBlink {
            on: 2_000,
            off: 500,
        },
    ]
}

fn omega_run(kind: OmegaKind, self_punish: bool, nemesis: Option<Nemesis>, crash: bool) -> u64 {
    let factory = RegisterFactory::default();
    let mut b = processes(3);
    let handles = install_omega_with(&mut b, &factory, 3, kind, self_punish);
    for (p, script) in omega_scripts().into_iter().enumerate() {
        add_candidate_driver(&mut b, ProcId(p), &handles[p], script);
    }
    let mut config = RunConfig::new(40_000, SeededRandom::new(11));
    if crash {
        config = config.crash(15_000, ProcId(0));
    }
    if let Some(mut nem) = nemesis {
        nem.register_dial("policy", factory.policy_dial().handle());
        config = config.with_nemesis(nem);
    }
    run(b, config)
}

#[test]
fn figure3_with_a_crash() {
    let d = omega_run(OmegaKind::Atomic, true, None, true);
    assert_eq!(d, 0xd1cb_051b_b8ba_cbc6, "figure 3 digest {d:#018x}");
}

#[test]
fn figure3_without_self_punishment() {
    let d = omega_run(OmegaKind::Atomic, false, None, true);
    assert_eq!(
        d, 0x8c9e_8abf_3396_c955,
        "figure 3 (no self-punishment) digest {d:#018x}"
    );
}

#[test]
fn figures4_to_6_under_an_abort_storm() {
    let set = |value| FaultAction::SetDial {
        dial: "policy".into(),
        value,
    };
    let plan = FaultPlan::new()
        .with(Trigger::At(8_000), set(DIAL_ABORT_STORM))
        .with(Trigger::At(20_000), set(DIAL_BASE));
    let d = omega_run(OmegaKind::Abortable, true, Some(Nemesis::new(plan)), false);
    assert_eq!(d, 0x81dd_0982_6b95_9f2a, "figures 4-6 digest {d:#018x}");
}

#[test]
fn every_candidate_script() {
    let scripts = [
        CandidateScript::Never,
        CandidateScript::Always,
        CandidateScript::From(40),
        CandidateScript::Until(60),
        CandidateScript::Blink { on: 7, off: 5 },
        CandidateScript::Blink { on: 0, off: 3 },
        CandidateScript::CanonicalBlink { on: 6, off: 4 },
        CandidateScript::CanonicalBlink { on: 0, off: 2 },
    ];
    let mut b = processes(scripts.len() + 1);
    let mut leaders = Vec::new();
    for (p, &script) in scripts.iter().enumerate() {
        let h = OmegaHandles::new();
        // Every driver believes it leads until t = 150, so the canonical
        // ones wait at the Definition 6 gate for a while.
        h.leader.set(Some(ProcId(p)));
        add_candidate_driver(&mut b, ProcId(p), &h, script);
        leaders.push(h.leader);
    }
    let abdicate = FutureTask::new(|env: Rc<dyn Env>| async move {
        while env.now() < 150 {
            step().await;
        }
        leaders.iter().for_each(|l| l.set(None));
        loop {
            step().await;
        }
    });
    b.add_stepper(ProcId(0), "abdicate", Box::new(abdicate));
    let ext = scripts.len();
    let desired = add_external_candidate_driver(&mut b, ProcId(ext), &OmegaHandles::new(), false);
    let set = |on| FaultAction::SetSwitch {
        switch: "ext".into(),
        on,
    };
    let plan = FaultPlan::new()
        .with(Trigger::At(30), set(true))
        .with(Trigger::At(90), set(false));
    let mut nem = Nemesis::new(plan);
    nem.register_switch("ext", desired);
    let d = run(
        b,
        RunConfig::new(400, SeededRandom::new(3)).with_nemesis(nem),
    );
    assert_eq!(
        d, 0xa15a_09d7_0891_56e8,
        "candidate drivers digest {d:#018x}"
    );
}

#[test]
fn omega_adapter() {
    for (kind, want) in [
        (OmegaKind::Atomic, 0xc3b4_fd5d_ba11_d416),
        (OmegaKind::Abortable, 0xe93c_b0c6_b19c_d80f),
    ] {
        let factory = RegisterFactory::default();
        let mut b = processes(3);
        install_omega_fd(&mut b, &factory, 3, kind);
        let d = run(
            b,
            RunConfig::new(30_000, SeededRandom::new(5)).crash(12_000, ProcId(0)),
        );
        assert_eq!(d, want, "{kind:?} Ω adapter digest {d:#018x}");
    }
}

/// Figure 7 (canonical) with Figure 8 over `O_QA`: three processes
/// incrementing forever, p0 crashing mid-run.
#[test]
fn figure7_canonical_with_a_crash() {
    for (kind, want) in [
        (OmegaKind::Atomic, 0x24a1_709f_6ea2_82f4),
        (OmegaKind::Abortable, 0x301b_8479_8865_90ba),
    ] {
        let run = TbwfSystemBuilder::new(Counter)
            .processes(3)
            .omega(kind)
            .seed(13)
            .workload_all(Workload::Unlimited(CounterOp::Inc))
            .run(RunConfig::new(60_000, SeededRandom::new(17)).crash(25_000, ProcId(0)));
        run.report.assert_no_panics();
        assert!(run.completed.iter().all(|&c| c > 0), "{:?}", run.completed);
        let d = digest(&run.report.trace);
        assert_eq!(d, want, "{kind:?} figure 7 digest {d:#018x}");
    }
}

/// Figure 7 under a register abort storm: the contended `O_QA`
/// invocations return `⊥`, so Figure 8's `query` and `F` paths run.
#[test]
fn figure7_under_an_abort_storm() {
    let set = |value| FaultAction::SetDial {
        dial: "policy".into(),
        value,
    };
    let run = TbwfSystemBuilder::new(Counter)
        .processes(3)
        .omega(OmegaKind::Abortable)
        .seed(29)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
        .run_wired(
            RunConfig::new(60_000, SeededRandom::new(23)),
            |factory, cfg| {
                let plan = FaultPlan::new()
                    .with(Trigger::At(5_000), set(DIAL_ABORT_STORM))
                    .with(Trigger::At(35_000), set(DIAL_BASE));
                let mut nem = Nemesis::new(plan);
                nem.register_dial("policy", factory.policy_dial().handle());
                cfg.with_nemesis(nem)
            },
        );
    run.report.assert_no_panics();
    assert!(run.completed.iter().all(|&c| c > 0), "{:?}", run.completed);
    let d = digest(&run.report.trace);
    assert_eq!(
        d, 0x7db0_3331_53cc_5edf,
        "figure 7 abort-storm digest {d:#018x}"
    );
}

/// The E5/E7 engines other than canonical TBWF, through the counter
/// workload runner.
#[test]
fn counter_workload_engines() {
    for (engine, want) in [
        (
            Engine::TbwfNonCanonical(OmegaKind::Atomic),
            0x2893_927a_c2db_93cc,
        ),
        (Engine::PlainOf, 0xaebb_2382_2fd4_eb49),
        (Engine::FlmsBoost, 0x1cd0_5f6e_0901_4b4d),
        (Engine::HerlihyCas, 0x8655_1330_5386_0637),
    ] {
        let cfg = WorkloadConfig {
            n: 3,
            engine,
            ops_per_proc: 25,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(40_000, SeededRandom::new(31)));
        out.report.assert_no_panics();
        let violations = counter_history_violations(&out);
        assert!(violations.is_empty(), "{engine:?}: {violations:?}");
        let d = digest(&out.report.trace);
        assert_eq!(d, want, "{engine:?} digest {d:#018x}");
    }
}
