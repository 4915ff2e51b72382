//! Quickstart: a timeliness-based wait-free shared counter.
//!
//! Three processes share one counter built from **abortable registers
//! only** (weaker than safe registers!) via the paper's construction:
//! Ω∆ elects a timely leader, the leader operates the wait-free
//! query-abortable object, and the canonical use of Ω∆ rotates leadership
//! fairly among the timely processes.
//!
//! Run with: `cargo run --example quickstart`

use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;

fn main() {
    let n = 3;
    let steps = 300_000;

    // Everyone performs increments for the whole run; the round-robin
    // schedule makes every process timely, so (TBWF = wait-freedom here)
    // everyone must make progress.
    let run = TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(OmegaKind::Atomic)
        .seed(42)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
        .run(RunConfig::new(steps, RoundRobin::new()));
    run.report.assert_no_panics();

    println!("TBWF counter, {n} processes, {steps} steps, all timely (round-robin):");
    for (p, count) in run.completed.iter().enumerate() {
        println!("  p{p}: {count} increments completed");
    }

    // Linearizability check: every Inc response is the unique value after
    // that increment, so the responses are distinct ranks that respect
    // real-time order.
    let violations = counter_history_violations(&run);
    assert!(violations.is_empty(), "not linearizable: {violations:?}");
    let total: u64 = run.completed.iter().sum();
    println!("  {total} operations total, all responses distinct (linearizable) ✓");

    assert!(
        run.completed.iter().all(|&c| c > 0),
        "every timely process must complete operations"
    );
    println!("  every timely process made progress (wait-freedom regime) ✓");
}
