//! Consensus from abortable registers — the Section 1.2 corollary.
//!
//! "One can implement Ω — a failure detector which is sufficient to
//! solve consensus — in a system with abortable registers and only one
//! timely process."
//!
//! We go one step further and *solve consensus* outright: a decide-once
//! object wrapped by the TBWF construction over the abortable-register
//! Ω∆. Each process proposes its own value; agreement and validity
//! follow from linearizability, and termination for every timely process
//! follows from TBWF. We demonstrate it in the hardest regime the
//! corollary allows: exactly one timely process.
//!
//! Run with: `cargo run --release --example consensus_from_abortable_registers`

use tbwf::prelude::*;

fn main() {
    let n = 4;
    let steps = 400_000;

    println!("Consensus over abortable registers (TBWF + decide-once object):\n");

    // Regime 1: everyone timely — everyone decides.
    let mut b = TbwfSystemBuilder::new(Consensus)
        .processes(n)
        .omega(OmegaKind::Abortable);
    for p in 0..n {
        b = b.workload(
            p,
            Workload::Script(vec![ConsensusOp::Propose(100 + p as i64)]),
        );
    }
    let run = b.run(RunConfig::new(steps, RoundRobin::new()));
    run.report.assert_no_panics();
    let decisions: Vec<ConsensusResp> = run.results.iter().flatten().map(|r| r.resp).collect();
    println!("all timely:       decisions = {decisions:?}");
    assert_eq!(decisions.len(), n, "every timely proposer must decide");
    assert!(
        decisions.iter().all(|d| *d == decisions[0]),
        "agreement violated: {decisions:?}"
    );
    let ConsensusResp::Decided(v) = decisions[0] else {
        panic!("undecided")
    };
    assert!((100..100 + n as i64).contains(&v), "validity violated: {v}");

    // Regime 2: only p0 is timely — the corollary's minimal assumption.
    // p0 must decide; agreement still binds anyone who manages to finish.
    let mut b = TbwfSystemBuilder::new(Consensus)
        .processes(n)
        .omega(OmegaKind::Abortable);
    for p in 0..n {
        b = b.workload(
            p,
            Workload::Script(vec![ConsensusOp::Propose(200 + p as i64)]),
        );
    }
    let run = b.run(RunConfig::new(
        steps,
        PartiallySynchronous::new(vec![ProcId(0)], 4),
    ));
    run.report.assert_no_panics();
    println!("one timely (p0):  completed = {:?}", run.completed);
    assert!(
        run.completed[0] >= 1,
        "the single timely process must decide"
    );
    let all: Vec<ConsensusResp> = run.results.iter().flatten().map(|r| r.resp).collect();
    assert!(
        all.iter().all(|d| *d == all[0]),
        "agreement violated: {all:?}"
    );
    println!("one timely (p0):  decision  = {:?}", all[0]);
    println!("\nvalidity + agreement + termination-for-the-timely hold ✓");
}
