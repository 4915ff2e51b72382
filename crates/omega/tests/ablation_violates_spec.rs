//! The spec checker has teeth: running the *ablated* algorithm (Figure 3
//! without self-punishment) in the paper's own counterexample scenario
//! must produce a Definition 5 violation, while the faithful algorithm
//! passes in the identical scenario.
//!
//! This guards against a vacuous checker (one that passes everything)
//! using a real buggy implementation rather than a synthetic trace.

use tbwf_omega::harness::install_omega_with;
use tbwf_omega::{add_candidate_driver, check_spec, CandidateScript, OmegaKind, OmegaRunData};
use tbwf_registers::RegisterFactory;
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{ProcId, RunConfig, SimBuilder};

fn run_blinker_scenario(self_punish: bool) -> OmegaRunData {
    let factory = RegisterFactory::default();
    let mut b = SimBuilder::new();
    for p in 0..2 {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega_with(&mut b, &factory, 2, OmegaKind::Atomic, self_punish);
    // p0: lowest id, blinks forever (R-candidate); p1: permanent.
    add_candidate_driver(
        &mut b,
        ProcId(0),
        &handles[0],
        CandidateScript::Blink {
            on: 8_000,
            off: 8_000,
        },
    );
    add_candidate_driver(&mut b, ProcId(1), &handles[1], CandidateScript::Always);
    let report = b.build().run(RunConfig::new(400_000, RoundRobin::new()));
    report.assert_no_panics();
    let timely = vec![ProcId(0), ProcId(1)];
    OmegaRunData::from_trace(&report.trace, 2, &timely)
}

#[test]
fn faithful_algorithm_passes_the_blinker_scenario() {
    let data = run_blinker_scenario(true);
    let v = check_spec(&data, false);
    assert!(
        v.ok,
        "the paper's algorithm must satisfy Def. 5: {:?}",
        v.failures
    );
}

#[test]
fn ablated_algorithm_fails_the_blinker_scenario() {
    let data = run_blinker_scenario(false);
    let v = check_spec(&data, false);
    assert!(
        !v.ok,
        "without self-punishment the oscillation must violate Def. 5 \
         (checker would be vacuous otherwise); classes: {:?}",
        v.classes
    );
}
