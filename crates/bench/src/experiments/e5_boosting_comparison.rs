//! **E5 — TBWF vs. boosting vs. obstruction-freedom vs. CAS**
//! (Sections 1.2 and 2).
//!
//! Four engines run the same increment workload under two synchrony
//! regimes:
//!
//! * **all timely** (round-robin): every coordinated engine should let
//!   everyone progress;
//! * **one non-timely** process (growing gaps): the paper's Section 2
//!   claim — boosting à la \[7\]/\[8\] is *not* gracefully degrading: the
//!   non-timely process can stall all the timely ones; TBWF protects the
//!   timely ones; plain obstruction-freedom collapses under contention
//!   either way; Herlihy's CAS construction is immune but needs a strong
//!   primitive.

use crate::{summarize, table};
use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;

pub fn run() -> String {
    let n = 4;
    let steps: u64 = 500_000;
    let mut out = String::from("E5: progress per engine under full vs. partial synchrony\n");
    out += &format!("    n = {n}, {steps} steps, unlimited increments per process\n\n");

    let engines: [(&str, Engine); 4] = [
        ("TBWF (paper)", Engine::Tbwf(OmegaKind::Atomic)),
        ("FLMS-boost [7]", Engine::FlmsBoost),
        ("plain OF", Engine::PlainOf),
        ("Herlihy CAS", Engine::HerlihyCas),
    ];
    let regimes: [(&str, usize); 2] = [("all timely", n), ("one non-timely", n - 1)];

    let mut rows = Vec::new();
    for (rname, k) in regimes {
        for (ename, engine) in engines {
            let cfg = WorkloadConfig {
                n,
                engine,
                ops_per_proc: u64::MAX,
                ..Default::default()
            };
            let schedule: Box<dyn Schedule> = if k == n {
                Box::new(RoundRobin::new())
            } else {
                Box::new(PartiallySynchronous::new((0..k).map(ProcId).collect(), 4))
            };
            let out = run_counter_workload(&cfg, RunConfig::new(steps, schedule));
            out.report.assert_no_panics();
            let violations = counter_history_violations(&out);
            assert!(violations.is_empty(), "{ename}, {rname}: {violations:?}");
            let timely: Vec<u64> = out.completed[..k].to_vec();
            let slow: Vec<u64> = out.completed[k..].to_vec();
            rows.push(vec![
                rname.to_string(),
                ename.to_string(),
                summarize(&timely),
                summarize(&slow),
                (*timely.iter().min().unwrap()).to_string(),
            ]);
        }
    }
    out += &table(
        &[
            "regime",
            "engine",
            "timely ops",
            "non-timely ops",
            "min timely",
        ],
        &rows,
    );
    out.push('\n');
    out += "expected shape (paper, Sections 1.2 & 2):\n";
    out += "  - all timely: TBWF, FLMS and CAS all progress for everyone\n";
    out += "  - one non-timely: TBWF keeps every timely process > 0;\n";
    out += "    FLMS lets the slow process stall the timely ones (min ~ 0);\n";
    out += "    plain OF collapses under contention; CAS is immune (strong primitive)\n";
    out
}
