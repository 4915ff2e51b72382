//! Integration tests: the TBWF progress condition (Definition 3) across
//! synchrony regimes — the workspace-level statement of Theorems 14–15.

use tbwf::prelude::*;

fn inc_system(n: usize, kind: OmegaKind, seed: u64) -> TbwfSystemBuilder<Counter> {
    TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(kind)
        .seed(seed)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
}

/// Fully synchronous regime: TBWF behaves like wait-freedom — every
/// process completes operations.
#[test]
fn all_timely_implies_everyone_progresses() {
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        let run = inc_system(3, kind, 1).run(RunConfig::new(250_000, RoundRobin::new()));
        run.report.assert_no_panics();
        assert!(
            run.completed.iter().all(|&c| c > 0),
            "{kind:?}: all timely must progress: {:?}",
            run.completed
        );
    }
}

/// Partial synchrony: exactly the timely processes are guaranteed
/// progress; the non-timely ones cannot block them.
#[test]
fn only_timely_processes_are_guaranteed_progress() {
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        let timely: Vec<ProcId> = vec![ProcId(0), ProcId(1)];
        let schedule = PartiallySynchronous::new(timely, 4);
        let run = inc_system(4, kind, 2).run(RunConfig::new(300_000, schedule));
        run.report.assert_no_panics();
        assert!(
            run.completed[0] > 0,
            "{kind:?}: timely p0 starved: {:?}",
            run.completed
        );
        assert!(
            run.completed[1] > 0,
            "{kind:?}: timely p1 starved: {:?}",
            run.completed
        );
    }
}

/// Obstruction-freedom regime (Section 1.1): a process that eventually
/// runs solo is timely by definition and must complete its operations.
#[test]
fn solo_runner_completes_operations() {
    let run = TbwfSystemBuilder::new(Counter)
        .processes(3)
        .seed(3)
        .workload(2, Workload::Repeat(CounterOp::Inc, 5))
        .run(RunConfig::new(200_000, SoloAfter::new(10_000, ProcId(2))));
    run.report.assert_no_panics();
    assert_eq!(run.completed[2], 5, "solo process must finish all its ops");
}

/// Crash tolerance: the crash of the current leader does not block the
/// surviving timely processes.
#[test]
fn leader_crash_does_not_block_survivors() {
    let run = inc_system(3, OmegaKind::Atomic, 4)
        .run(RunConfig::new(400_000, RoundRobin::new()).crash(50_000, ProcId(0)));
    run.report.assert_no_panics();
    let after_crash: Vec<usize> = (1..3)
        .map(|p| run.results[p].iter().filter(|r| r.time > 50_000).count())
        .collect();
    assert!(
        after_crash.iter().all(|&c| c > 0),
        "survivors made no progress after the crash: {after_crash:?}"
    );
}

/// The flickering adversary of Section 4: a process oscillating between
/// timely and silent cannot prevent timely processes from progressing.
#[test]
fn flickering_process_cannot_block_timely_ones() {
    let run = inc_system(3, OmegaKind::Atomic, 5)
        .run(RunConfig::new(400_000, Flicker::new(ProcId(2), 64, 3_000)));
    run.report.assert_no_panics();
    assert!(
        run.completed[0] > 0 && run.completed[1] > 0,
        "{:?}",
        run.completed
    );
}

/// Finite workloads complete and the run can end early.
#[test]
fn finite_workloads_complete() {
    let run = TbwfSystemBuilder::new(Counter)
        .processes(2)
        .seed(6)
        .workload_all(Workload::Repeat(CounterOp::Inc, 3))
        .run(RunConfig::new(300_000, RoundRobin::new()));
    run.report.assert_no_panics();
    assert_eq!(run.completed, vec![3, 3]);
    // Responses across both processes are exactly 1..=6.
    let mut resp: Vec<i64> = run.results.iter().flatten().map(|r| r.resp).collect();
    resp.sort_unstable();
    assert_eq!(resp, (1..=6).collect::<Vec<i64>>());
}
