//! **E4 — Graceful degradation** (the headline claim, Section 1.1;
//! Theorems 14–15).
//!
//! n processes hammer one TBWF counter while the schedule keeps only `k`
//! of them timely (the rest step with exponentially growing gaps —
//! correct but not timely). Reported per `k`, for both Ω∆ backends:
//!
//! * operations completed by the *least productive* timely process — the
//!   wait-freedom-for-the-timely guarantee (must be > 0 for every k ≥ 1);
//! * total timely / non-timely throughput — the gradual
//!   obstruction-freedom → lock-freedom → wait-freedom bridge.
//!
//! The paper has no empirical section; this experiment renders its
//! Section 1.1 narrative as a measurable curve (see EXPERIMENTS.md).

use crate::{summarize, table};
use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;

pub fn run() -> String {
    let n = 6;
    let steps: u64 = 400_000;
    let mut out = format!("E4: graceful degradation of a TBWF counter, n = {n}, {steps} steps\n");
    out += "    k = number of timely processes (rest: growing step gaps)\n\n";

    let mut rows = Vec::new();
    let mut starved = 0;
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        for k in 1..=n {
            let timely: Vec<ProcId> = (0..k).map(ProcId).collect();
            let schedule = PartiallySynchronous::new(timely.clone(), 4);
            let run = TbwfSystemBuilder::new(Counter)
                .processes(n)
                .omega(kind)
                .seed(0xE4 + k as u64)
                .workload_all(Workload::Unlimited(CounterOp::Inc))
                .run(RunConfig::new(steps, schedule));
            run.report.assert_no_panics();
            let timely_ops: Vec<u64> = (0..k).map(|p| run.completed[p]).collect();
            let slow_ops: Vec<u64> = (k..n).map(|p| run.completed[p]).collect();
            let min_timely = *timely_ops.iter().min().unwrap();
            if min_timely == 0 {
                starved += 1;
            }
            // Linearizability on the side.
            let violations = counter_history_violations(&run);
            assert!(violations.is_empty(), "{kind:?}, k = {k}: {violations:?}");
            rows.push(vec![
                format!("{kind:?}"),
                k.to_string(),
                min_timely.to_string(),
                summarize(&timely_ops),
                summarize(&slow_ops),
            ]);
        }
    }
    out += &table(
        &[
            "omega",
            "k timely",
            "min timely ops",
            "timely ops",
            "non-timely ops",
        ],
        &rows,
    );
    out += &format!("\nstarved timely processes across all cells: {starved} (paper predicts 0)\n");
    out += "all responses distinct in every run (linearizable) ok\n";
    assert_eq!(starved, 0, "a timely process starved: TBWF violated");
    out
}
