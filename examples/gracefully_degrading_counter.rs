//! The headline claim of the paper (Section 1.1): graceful degradation.
//!
//! Six processes hammer one TBWF counter. We sweep the number of *timely*
//! processes k from 1 to 6 (the rest step with exponentially growing
//! gaps, so they are correct but not timely) and report the progress of
//! each group:
//!
//! * every **timely** process completes operations — wait-freedom for the
//!   timely, no matter how few they are;
//! * non-timely processes may starve, but they **cannot hinder** the
//!   timely ones.
//!
//! Run with: `cargo run --release --example gracefully_degrading_counter`

use tbwf::prelude::*;

fn main() {
    let n = 6;
    let steps = 400_000;
    println!("TBWF counter, n = {n}, {steps} steps; sweeping timely set size k:");
    println!(
        "{:>3} | {:>28} | {:>28}",
        "k", "ops by timely (min..max)", "ops by non-timely"
    );

    for k in 1..=n {
        let timely: Vec<ProcId> = (0..k).map(ProcId).collect();
        let schedule = PartiallySynchronous::new(timely.clone(), 4);
        let run = TbwfSystemBuilder::new(Counter)
            .processes(n)
            .omega(OmegaKind::Atomic)
            .seed(1000 + k as u64)
            .workload_all(Workload::Unlimited(CounterOp::Inc))
            .run(RunConfig::new(steps, schedule));
        run.report.assert_no_panics();

        let timely_ops: Vec<u64> = (0..k).map(|p| run.completed[p]).collect();
        let slow_ops: Vec<u64> = (k..n).map(|p| run.completed[p]).collect();
        println!(
            "{:>3} | {:>28} | {:>28}",
            k,
            format!(
                "{}..{} (total {})",
                timely_ops.iter().min().unwrap(),
                timely_ops.iter().max().unwrap(),
                timely_ops.iter().sum::<u64>()
            ),
            format!("{slow_ops:?}")
        );

        assert!(
            timely_ops.iter().all(|&c| c > 0),
            "k={k}: some timely process starved: {timely_ops:?}"
        );
    }
    println!("every timely process made progress at every k ✓ (graceful degradation)");
}
