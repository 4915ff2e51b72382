//! Integration tests: full-stack determinism — a run is a pure function
//! of (program, schedule, seed). This is what makes every experiment in
//! EXPERIMENTS.md exactly reproducible.

use tbwf::prelude::*;
use tbwf_sim::StepLog;

fn run_once(seed: u64, sched_seed: u64) -> (Vec<u64>, StepLog, usize) {
    // A probabilistic abort policy so the register seed has bite (the
    // default always-abort policy never consults its RNG for aborts).
    let run = TbwfSystemBuilder::new(Counter)
        .processes(3)
        .omega(OmegaKind::Abortable)
        .seed(seed)
        .register_policy(
            AbortPolicy::Seeded { p_abort: 0.5 },
            EffectPolicy::Seeded { p_effect: 0.5 },
        )
        .workload_all(Workload::Unlimited(CounterOp::Inc))
        .run(RunConfig::new(80_000, SeededRandom::new(sched_seed)));
    run.report.assert_no_panics();
    (
        run.completed.clone(),
        run.report.trace.steps.clone(),
        run.report.trace.obs.len(),
    )
}

#[test]
fn identical_seeds_reproduce_the_exact_run() {
    let a = run_once(42, 7);
    let b = run_once(42, 7);
    assert_eq!(a.0, b.0, "completion counts differ");
    assert_eq!(a.1, b.1, "step sequences differ");
    assert_eq!(a.2, b.2, "observation counts differ");
}

#[test]
fn different_register_seeds_change_the_run() {
    let a = run_once(42, 7);
    let b = run_once(43, 7);
    // The step sequence is schedule-driven and identical; the outcome
    // (completions/observations) depends on the register adversary.
    assert_eq!(a.1, b.1, "schedule must be unaffected by the register seed");
    assert!(
        a.0 != b.0 || a.2 != b.2,
        "register seed had no observable effect (suspicious)"
    );
}

#[test]
fn different_schedule_seeds_change_the_interleaving() {
    let a = run_once(42, 7);
    let b = run_once(42, 8);
    assert_ne!(
        a.1, b.1,
        "schedule seeds must produce different interleavings"
    );
}

#[test]
fn omega_runs_are_deterministic_too() {
    let go = || {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Atomic,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(60_000, SeededRandom::new(3)));
        out.report.assert_no_panics();
        (
            out.report.trace.steps.clone(),
            out.handles
                .iter()
                .map(|h| h.leader.get())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(go(), go());
}
