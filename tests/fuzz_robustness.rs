//! Seeded fuzz tests: random schedules, random crashes — the full stack
//! must stay panic-free, linearizable (checked with the complete
//! Wing–Gong checker), and progressive for measured-timely processes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tbwf::prelude::*;

fn fuzz_once(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..=4);
    let kind = if rng.random_bool(0.5) {
        OmegaKind::Atomic
    } else {
        OmegaKind::Abortable
    };
    let steps: u64 = rng.random_range(100_000..250_000);
    let ops = rng.random_range(1..=3);

    let mut b = TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(kind)
        .seed(seed)
        .register_policy(
            AbortPolicy::Seeded {
                p_abort: rng.random_range(0.2..1.0),
            },
            EffectPolicy::Seeded {
                p_effect: rng.random_range(0.0..1.0),
            },
        );
    for p in 0..n {
        b = b.workload(p, Workload::Repeat(CounterOp::Inc, ops));
    }
    let mut cfg = RunConfig::new(steps, SeededRandom::new(seed ^ 0xF00D));
    // Crash up to one process, at a random time, sometimes.
    let mut crashed: Vec<ProcId> = Vec::new();
    if rng.random_bool(0.4) {
        let victim = ProcId(rng.random_range(0..n));
        cfg = cfg.crash(rng.random_range(0..steps / 2), victim);
        crashed.push(victim);
    }

    let run = b.run(cfg);
    run.report.assert_no_panics();

    // Complete linearizability check over the whole history.
    assert_run_linearizable(&Counter, &run);

    // Progress: every correct process completed its (small) workload in
    // a (large) uniformly-random run — uniform scheduling keeps everyone
    // timely with overwhelming probability.
    for p in 0..n {
        if !crashed.contains(&ProcId(p)) {
            assert_eq!(
                run.completed[p], ops,
                "seed {seed}: correct p{p} did not finish {ops} ops: {:?} (crashed: {crashed:?})",
                run.completed
            );
        }
    }
}

#[test]
fn fuzz_counter_runs_seed_batch_a() {
    for seed in 0..6 {
        fuzz_once(seed);
    }
}

#[test]
fn fuzz_counter_runs_seed_batch_b() {
    for seed in 6..12 {
        fuzz_once(seed);
    }
}

#[test]
fn fuzz_stack_history_is_linearizable() {
    for seed in [100u64, 101, 102] {
        let n = 3;
        let mut b = TbwfSystemBuilder::new(Stack).processes(n).seed(seed);
        for p in 0..n {
            b = b.workload(
                p,
                Workload::Script(vec![
                    StackOp::Push(p as i64 * 10),
                    StackOp::Pop,
                    StackOp::Push(p as i64 * 10 + 1),
                ]),
            );
        }
        let run = b.run(RunConfig::new(250_000, SeededRandom::new(seed)));
        run.report.assert_no_panics();
        assert_run_linearizable(&Stack, &run);
    }
}

#[test]
fn fuzz_queue_history_is_linearizable() {
    for seed in [200u64, 201] {
        let n = 3;
        let mut b = TbwfSystemBuilder::new(Queue).processes(n).seed(seed);
        for p in 0..n {
            b = b.workload(
                p,
                Workload::Script(vec![
                    QueueOp::Enq(p as i64),
                    QueueOp::Deq,
                    QueueOp::Enq(p as i64 + 100),
                ]),
            );
        }
        let run = b.run(RunConfig::new(250_000, SeededRandom::new(seed)));
        run.report.assert_no_panics();
        assert_run_linearizable(&Queue, &run);
    }
}
