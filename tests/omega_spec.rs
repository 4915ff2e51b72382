//! Integration tests: both Ω∆ implementations against the Definition 5 /
//! Theorem 7 specification on a shared scenario grid.

use tbwf::prelude::*;
use tbwf_sim::schedule::GapGrowth;

fn check(
    kind: OmegaKind,
    n: usize,
    scripts: Vec<CandidateScript>,
    schedule: Box<dyn Schedule>,
    timely: Vec<ProcId>,
    steps: u64,
    canonical: bool,
) {
    let cfg = OmegaSystemConfig {
        n,
        kind,
        scripts,
        ..Default::default()
    };
    let out = run_omega_system(&cfg, RunConfig::new(steps, schedule));
    out.report.assert_no_panics();
    let data = OmegaRunData::from_trace(&out.report.trace, n, &timely);
    let v = check_spec(&data, canonical);
    assert!(v.ok, "{kind:?} n={n}: spec failures: {:?}", v.failures);
}

#[test]
fn both_impls_satisfy_def5_with_all_permanent_candidates() {
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        check(
            kind,
            3,
            vec![CandidateScript::Always; 3],
            Box::new(RoundRobin::new()),
            (0..3).map(ProcId).collect(),
            150_000,
            false,
        );
    }
}

#[test]
fn both_impls_ignore_never_candidates() {
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        check(
            kind,
            3,
            vec![
                CandidateScript::Always,
                CandidateScript::Always,
                CandidateScript::Never,
            ],
            Box::new(RoundRobin::new()),
            (0..3).map(ProcId).collect(),
            150_000,
            false,
        );
    }
}

#[test]
fn both_impls_tolerate_a_non_timely_candidate() {
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        check(
            kind,
            3,
            vec![CandidateScript::Always; 3],
            Box::new(PartiallySynchronous::with_growth(
                vec![ProcId(0), ProcId(1)],
                4,
                GapGrowth::Linear(4),
            )),
            vec![ProcId(0), ProcId(1)],
            400_000,
            false,
        );
    }
}

#[test]
fn canonical_use_elects_a_permanent_candidate() {
    // An R-candidate that uses Ω∆ canonically (waits for leader ≠ self
    // before re-entering) must not end up as the stable leader, because
    // the canonical gate keeps it out whenever it holds leadership.
    check(
        OmegaKind::Atomic,
        3,
        vec![
            CandidateScript::Always,
            CandidateScript::Always,
            CandidateScript::CanonicalBlink {
                on: 10_000,
                off: 10_000,
            },
        ],
        Box::new(RoundRobin::new()),
        (0..3).map(ProcId).collect(),
        240_000,
        true,
    );
}

#[test]
fn atomic_impl_emits_question_mark_while_not_candidate() {
    let cfg = OmegaSystemConfig {
        n: 2,
        kind: OmegaKind::Atomic,
        scripts: vec![CandidateScript::Always, CandidateScript::Until(30_000)],
        ..Default::default()
    };
    let out = run_omega_system(&cfg, RunConfig::new(120_000, RoundRobin::new()));
    out.report.assert_no_panics();
    // After p1 leaves the competition, its leader output returns to ?.
    assert_eq!(out.handles[1].leader.get(), None);
    // …and p0 still leads for itself.
    assert_eq!(out.handles[0].leader.get(), Some(ProcId(0)));
}

#[test]
fn abortable_impl_works_under_every_abort_policy() {
    for policy in [
        AbortPolicy::AlwaysOnOverlap,
        AbortPolicy::Seeded { p_abort: 0.3 },
        AbortPolicy::Never,
    ] {
        let cfg = OmegaSystemConfig {
            n: 2,
            kind: OmegaKind::Abortable,
            scripts: vec![CandidateScript::Always; 2],
            factory: RegisterFactoryConfig {
                seed: 99,
                abort_policy: policy,
                effect_policy: EffectPolicy::Seeded { p_effect: 0.5 },
            },
        };
        let out = run_omega_system(&cfg, RunConfig::new(150_000, RoundRobin::new()));
        out.report.assert_no_panics();
        assert_eq!(
            out.handles[0].leader.get(),
            Some(ProcId(0)),
            "policy {policy:?}"
        );
        assert_eq!(
            out.handles[1].leader.get(),
            Some(ProcId(0)),
            "policy {policy:?}"
        );
    }
}
