//! **E6 — Write efficiency of the register-based Ω∆** (closing remark of
//! Section 5.2).
//!
//! "If Pcandidates ∩ Timely ≠ ∅ then there is a time after which the only
//! processes that write to shared registers are the leader and processes
//! in Rcandidates."
//!
//! We run Figure 3 with (a) all-permanent candidates and (b) one
//! R-candidate blinker, and report which processes wrote to any shared
//! register during the last quarter of the run.

use crate::table;
use std::collections::BTreeSet;
use tbwf_omega::{run_omega_system, CandidateScript, OmegaKind, OmegaSystemConfig, OBS_LEADER};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{ProcId, RunConfig};

pub fn run() -> String {
    let n = 4;
    let steps: u64 = 240_000;
    let mut out =
        String::from("E6: write efficiency of Fig. 3 (who writes after stabilization?)\n");
    out += &format!("    n = {n}, {steps} steps, writers measured over the last quarter\n\n");

    let scenarios: [(&str, Vec<CandidateScript>); 2] = [
        ("all P-candidates", vec![CandidateScript::Always; n]),
        ("one R-candidate (p3)", {
            let mut s = vec![CandidateScript::Always; n];
            s[n - 1] = CandidateScript::Blink {
                on: 10_000,
                off: 10_000,
            };
            s
        }),
    ];

    let mut rows = Vec::new();
    for (name, scripts) in scenarios {
        let cfg = OmegaSystemConfig {
            n,
            kind: OmegaKind::Atomic,
            scripts,
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(steps, RoundRobin::new()));
        out.report.assert_no_panics();
        let leader = out.handles[0].leader.get().expect("a leader is elected");
        let t0 = steps * 3 / 4;
        let writer_set = out.log.writers_since(t0);
        let allowed: BTreeSet<ProcId> = if name.starts_with("one R") {
            [leader, ProcId(n - 1)].into_iter().collect()
        } else {
            [leader].into_iter().collect()
        };
        let ok = writer_set.is_subset(&allowed);
        rows.push(vec![
            name.to_string(),
            leader.to_string(),
            format!("{writer_set:?}"),
            format!("{allowed:?}"),
            if ok { "ok".into() } else { "FAIL".into() },
        ]);
        assert!(
            ok,
            "{name}: writers {writer_set:?} not within allowed {allowed:?}"
        );
        // Sanity: the leader is stable over the measured window.
        let changes_late = out
            .report
            .trace
            .obs_series(ProcId(0), OBS_LEADER, 0)
            .iter()
            .filter(|(t, _)| *t >= t0)
            .count();
        assert_eq!(changes_late, 0, "leadership not stable in the window");
    }
    out += &table(
        &["scenario", "leader", "writers (last 1/4)", "allowed", "ok"],
        &rows,
    );
    out += "\nwrite-efficiency claim of Section 5.2 holds ok\n";
    out
}
