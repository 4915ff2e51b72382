//! Integration tests: linearizability of TBWF objects, checked through
//! type-specific invariants on concurrent histories.

use std::collections::HashSet;
use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;

/// Counter: every `Inc` response is the unique post-increment value, in
/// real-time order (the counter-history oracle).
#[test]
fn counter_inc_responses_are_distinct_across_seeds() {
    for seed in [11u64, 22, 33] {
        let run = TbwfSystemBuilder::new(Counter)
            .processes(3)
            .seed(seed)
            .workload_all(Workload::Unlimited(CounterOp::Inc))
            .run(RunConfig::new(200_000, SeededRandom::new(seed)));
        run.report.assert_no_panics();
        let violations = counter_history_violations(&run);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// Fetch-and-add: responses are the pre-add values; with delta 1 they are
/// distinct and the set of responses is an integer range prefix union.
#[test]
fn fetch_add_old_values_are_distinct() {
    let run = TbwfSystemBuilder::new(FetchAdd)
        .processes(3)
        .seed(7)
        .workload_all(Workload::Unlimited(FetchAddOp(1)))
        .run(RunConfig::new(200_000, RoundRobin::new()));
    run.report.assert_no_panics();
    let resp: Vec<i64> = run.results.iter().flatten().map(|r| r.resp).collect();
    let uniq: HashSet<i64> = resp.iter().copied().collect();
    assert_eq!(uniq.len(), resp.len(), "duplicate fetch-add old values");
}

/// Stack: every popped value was pushed, and no value is popped twice.
#[test]
fn stack_pops_are_pushed_values_without_duplicates() {
    // Each process pushes distinct tagged values, then pops.
    let mut builder = TbwfSystemBuilder::new(Stack).processes(3).seed(13);
    for p in 0..3 {
        let mut script = Vec::new();
        for i in 0..4 {
            script.push(StackOp::Push((p * 100 + i) as i64));
        }
        for _ in 0..4 {
            script.push(StackOp::Pop);
        }
        builder = builder.workload(p, Workload::Script(script));
    }
    let run = builder.run(RunConfig::new(600_000, RoundRobin::new()));
    run.report.assert_no_panics();

    let mut pushed = HashSet::new();
    let mut popped = Vec::new();
    for r in run.results.iter().flatten() {
        match (&r.op, &r.resp) {
            (StackOp::Push(v), StackResp::Pushed) => {
                pushed.insert(*v);
            }
            (StackOp::Pop, StackResp::Popped(Some(v))) => popped.push(*v),
            (StackOp::Pop, StackResp::Popped(None)) => {}
            other => panic!("inconsistent op/resp pair: {other:?}"),
        }
    }
    let mut seen = HashSet::new();
    for v in &popped {
        assert!(pushed.contains(v), "popped value {v} was never pushed");
        assert!(seen.insert(*v), "value {v} popped twice");
    }
}

/// FIFO queue: per-producer order is preserved among dequeued values.
#[test]
fn queue_preserves_per_producer_fifo_order() {
    let mut builder = TbwfSystemBuilder::new(Queue).processes(3).seed(17);
    for p in 0..2 {
        let script: Vec<QueueOp> = (0..5).map(|i| QueueOp::Enq((p * 100 + i) as i64)).collect();
        builder = builder.workload(p, Workload::Script(script));
    }
    builder = builder.workload(2, Workload::Repeat(QueueOp::Deq, 12));
    let run = builder.run(RunConfig::new(800_000, RoundRobin::new()));
    run.report.assert_no_panics();

    let dequeued: Vec<i64> = run.results[2]
        .iter()
        .filter_map(|r| match r.resp {
            QueueResp::Dequeued(Some(v)) => Some(v),
            _ => None,
        })
        .collect();
    for producer in 0..2i64 {
        let series: Vec<i64> = dequeued
            .iter()
            .copied()
            .filter(|v| v / 100 == producer)
            .collect();
        let mut sorted = series.clone();
        sorted.sort_unstable();
        assert_eq!(
            series, sorted,
            "producer {producer} order violated: {series:?}"
        );
    }
    // No duplicates overall.
    let uniq: HashSet<i64> = dequeued.iter().copied().collect();
    assert_eq!(
        uniq.len(),
        dequeued.len(),
        "value dequeued twice: {dequeued:?}"
    );
}

/// Register file: a read returns the last written value in completion
/// order when operations do not overlap (each process owns one cell).
#[test]
fn regfile_per_cell_reads_see_own_writes() {
    let mut builder = TbwfSystemBuilder::new(RegFile::new(3))
        .processes(3)
        .seed(19);
    for p in 0..3 {
        builder = builder.workload(
            p,
            Workload::Script(vec![
                RegFileOp::Write(p, (p + 1) as i64 * 11),
                RegFileOp::Read(p),
            ]),
        );
    }
    let run = builder.run(RunConfig::new(400_000, RoundRobin::new()));
    run.report.assert_no_panics();
    for p in 0..3 {
        assert_eq!(
            run.completed[p], 2,
            "p{p} did not finish: {:?}",
            run.completed
        );
        let read = &run.results[p][1];
        assert_eq!(
            read.resp,
            RegFileResp::Value((p + 1) as i64 * 11),
            "p{p} read a value it did not write"
        );
    }
}

/// CAS object built over TBWF: at most one of n concurrent CAS(0 → tag)
/// operations succeeds.
#[test]
fn cas_object_at_most_one_winner() {
    let mut builder = TbwfSystemBuilder::new(CasObject).processes(3).seed(23);
    for p in 0..3 {
        builder = builder.workload(
            p,
            Workload::Script(vec![CasOp::Cas {
                expected: 0,
                new: (p + 1) as i64,
            }]),
        );
    }
    let run = builder.run(RunConfig::new(300_000, RoundRobin::new()));
    run.report.assert_no_panics();
    let winners = run
        .results
        .iter()
        .flatten()
        .filter(|r| r.resp == CasResp::Swapped(true))
        .count();
    assert_eq!(winners, 1, "exactly one CAS(0, _) must win");
}
