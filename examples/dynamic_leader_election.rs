//! Dynamic leader election with Ω∆ (Section 4).
//!
//! Four processes with different candidacy behaviors:
//!   * p0 joins the competition only from step 40 000 (late P-candidate);
//!   * p1 competes from the start (P-candidate);
//!   * p2 repeatedly joins and leaves (R-candidate);
//!   * p3 never competes (N-candidate).
//!
//! Ω∆ must eventually elect a timely permanent-or-repeated candidate at
//! every permanent candidate; the N-candidate must end with `leader = ?`.
//!
//! Run with: `cargo run --example dynamic_leader_election`

use tbwf::prelude::*;
use tbwf_omega::OBS_LEADER;

fn main() {
    let cfg = OmegaSystemConfig {
        n: 4,
        kind: OmegaKind::Atomic,
        scripts: vec![
            CandidateScript::From(40_000),
            CandidateScript::Always,
            CandidateScript::Blink {
                on: 8_000,
                off: 8_000,
            },
            CandidateScript::Never,
        ],
        ..Default::default()
    };
    let steps = 200_000;
    let out = run_omega_system(&cfg, RunConfig::new(steps, RoundRobin::new()));
    out.report.assert_no_panics();

    println!("Ω∆ with dynamic candidates ({} steps, round-robin):", steps);
    for p in 0..4 {
        let series = out.report.trace.obs_series(ProcId(p), OBS_LEADER, 0);
        let transitions: Vec<String> = series
            .iter()
            .map(|(t, v)| {
                let who = if *v < 0 {
                    "?".to_string()
                } else {
                    format!("p{v}")
                };
                format!("t={t}:{who}")
            })
            .collect();
        let shown = if transitions.len() > 6 {
            format!(
                "{} … {}",
                transitions[..3].join("  "),
                transitions[transitions.len() - 3..].join("  ")
            )
        } else {
            transitions.join("  ")
        };
        println!("  p{p} leader timeline: {shown}");
    }

    // Check the Ω∆ specification (Definition 5) on the trace.
    let timely: Vec<ProcId> = (0..4).map(ProcId).collect();
    let data = OmegaRunData::from_trace(&out.report.trace, 4, &timely);
    let verdict = check_spec(&data, false);
    println!("  classes: {:?}", verdict.classes);
    println!(
        "  elected leader: {:?}  spec ok: {}",
        verdict.elected, verdict.ok
    );
    assert!(
        verdict.ok,
        "Ω∆ specification violated: {:?}",
        verdict.failures
    );
    assert_eq!(
        out.handles[3].leader.get(),
        None,
        "N-candidate must end with ?"
    );
}
