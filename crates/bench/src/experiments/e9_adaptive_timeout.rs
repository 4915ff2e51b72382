//! **E9 — Ablation: adaptive vs. fixed timeouts in Figure 2** (DESIGN.md
//! §8).
//!
//! The paper's monitor grows `hbTimeout` by one on every suspicion ("we
//! use adaptive timeouts that increase over time"). The timeliness bound
//! of a timely process is *unknown and run-dependent*, so any fixed
//! timeout is wrong for some run: a timely-but-coarse `q` is suspected
//! forever and `faultCntr` grows without bound — violating Property 5(a)
//! and (through Figure 3's punishments) dethroning a perfectly timely
//! leader.
//!
//! We monitor a timely process that takes 1 step per `gap` system steps
//! (a *constant* gap: `q` is timely with bound ≈ gap) and compare the
//! final `faultCntr` and its growth under adaptive vs. fixed timeouts.

use crate::table;
use tbwf_monitor::fig2::{activity_monitor, OBS_FAULT};
use tbwf_registers::RegisterFactory;
use tbwf_sim::analysis::increases_without_bound;
use tbwf_sim::schedule::{GapGrowth, PartiallySynchronous};
use tbwf_sim::{ProcId, RunConfig};

fn run_monitor(adaptive: bool, gap: u64, steps: u64) -> (u64, bool) {
    let factory = RegisterFactory::default();
    let mut pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    pair.monitoring_side.adaptive_timeout = adaptive;
    pair.monitoring_side.monitoring.set(true);
    pair.monitored_side.active_for.set(true);
    let fault = pair.monitoring_side.fault_cntr.clone();

    let b = super::monitor_pair_system(pair);
    // q (= p1) is *timely*: constant gap ⇒ a bound exists (≈ gap).
    let schedule = PartiallySynchronous::with_growth(vec![ProcId(0)], gap, GapGrowth::Constant);
    let report = b.build().run(RunConfig::new(steps, schedule));
    report.assert_no_panics();
    let series = report.trace.obs_series(ProcId(0), OBS_FAULT, 1);
    let unbounded = increases_without_bound(&series, steps, 4);
    (fault.get(), unbounded)
}

pub fn run() -> String {
    let steps = 120_000;
    let mut out =
        String::from("E9: Fig. 2 timeout ablation — monitored process is TIMELY (constant gap)\n");
    out += "    Property 5(a) demands a bounded faultCntr in every row\n\n";
    let mut rows = Vec::new();
    let mut fixed_failures = 0;
    let mut adaptive_failures = 0;
    for gap in [2u64, 4, 8, 16] {
        for adaptive in [true, false] {
            let (fault, unbounded) = run_monitor(adaptive, gap, steps);
            let verdict = if unbounded {
                "UNBOUNDED (P5 violated)"
            } else {
                "bounded ok"
            };
            if unbounded {
                if adaptive {
                    adaptive_failures += 1;
                } else {
                    fixed_failures += 1;
                }
            }
            rows.push(vec![
                gap.to_string(),
                if adaptive {
                    "adaptive (paper)"
                } else {
                    "fixed"
                }
                .to_string(),
                fault.to_string(),
                verdict.to_string(),
            ]);
        }
    }
    out += &table(
        &[
            "q step gap",
            "timeout",
            "final faultCntr",
            "faultCntr growth",
        ],
        &rows,
    );
    out.push('\n');
    out += &format!(
        "adaptive violations: {adaptive_failures} (paper predicts 0); \
         fixed violations: {fixed_failures} (expected > 0 for coarse q)\n"
    );
    assert_eq!(
        adaptive_failures, 0,
        "the paper's adaptive rule must satisfy P5(a)"
    );
    assert!(
        fixed_failures > 0,
        "the ablation should demonstrate why fixed timeouts fail"
    );
    out
}
