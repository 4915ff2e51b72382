//! Integration tests: the comparison baselines behave as the paper's
//! discussion (Sections 1.2 and 2) predicts.

use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;
use tbwf_sim::schedule::GapGrowth;

/// Herlihy's CAS construction is wait-free for *everyone* that keeps
/// taking steps — timely or not.
#[test]
fn herlihy_cas_completes_for_all_under_round_robin() {
    let cfg = WorkloadConfig {
        n: 4,
        engine: Engine::HerlihyCas,
        ops_per_proc: 8,
        ..Default::default()
    };
    let out = run_counter_workload(&cfg, RunConfig::new(100_000, RoundRobin::new()));
    out.report.assert_no_panics();
    assert_eq!(out.completed, vec![8, 8, 8, 8]);
    let violations = counter_history_violations(&out);
    assert!(violations.is_empty(), "{violations:?}");
}

/// FLMS-style boosting works when all processes are timely…
#[test]
fn flms_boost_completes_when_all_timely() {
    let cfg = WorkloadConfig {
        n: 3,
        engine: Engine::FlmsBoost,
        ops_per_proc: 5,
        ..Default::default()
    };
    let out = run_counter_workload(&cfg, RunConfig::new(400_000, RoundRobin::new()));
    out.report.assert_no_panics();
    assert_eq!(out.completed, vec![5, 5, 5]);
}

/// …but is not gracefully degrading: with one non-timely process, the
/// timely ones essentially stop (Section 2's claim about [7]/[8]),
/// while TBWF keeps all timely processes going under the same schedule.
#[test]
fn flms_boost_degrades_where_tbwf_does_not() {
    let schedule = || {
        PartiallySynchronous::with_growth(
            vec![ProcId(0), ProcId(1), ProcId(2)],
            4,
            GapGrowth::Doubling,
        )
    };
    let steps = 400_000;

    let flms = run_counter_workload(
        &WorkloadConfig {
            n: 4,
            engine: Engine::FlmsBoost,
            ..Default::default()
        },
        RunConfig::new(steps, schedule()),
    );
    flms.report.assert_no_panics();
    let tbwf = run_counter_workload(
        &WorkloadConfig {
            n: 4,
            engine: Engine::Tbwf(OmegaKind::Atomic),
            ..Default::default()
        },
        RunConfig::new(steps, schedule()),
    );
    tbwf.report.assert_no_panics();

    let tbwf_min = *tbwf.completed[..3].iter().min().unwrap();
    let flms_min = *flms.completed[..3].iter().min().unwrap();
    assert!(
        tbwf_min > 0,
        "TBWF must protect the timely: {:?}",
        tbwf.completed
    );
    assert!(
        flms_min * 10 < tbwf_min.max(10),
        "FLMS should collapse relative to TBWF: flms={:?} tbwf={:?}",
        flms.completed,
        tbwf.completed
    );
}

/// Plain obstruction-freedom collapses under steady contention (that is
/// precisely why the paper adds Ω∆ on top).
#[test]
fn plain_of_starves_under_contention_but_works_solo() {
    let contended = run_counter_workload(
        &WorkloadConfig {
            n: 3,
            engine: Engine::PlainOf,
            ..Default::default()
        },
        RunConfig::new(150_000, RoundRobin::new()),
    );
    contended.report.assert_no_panics();
    let total: u64 = contended.completed.iter().sum();
    assert!(
        total <= 3,
        "plain OF should make (almost) no progress under contention: {:?}",
        contended.completed
    );

    let solo = run_counter_workload(
        &WorkloadConfig {
            n: 1,
            engine: Engine::PlainOf,
            ops_per_proc: 20,
            ..Default::default()
        },
        RunConfig::new(20_000, RoundRobin::new()),
    );
    solo.report.assert_no_panics();
    assert_eq!(solo.completed, vec![20]);
}
