//! **E7 — Why the canonical use of Ω∆ matters** (Definition 6, Theorem 7,
//! and the discussion after Figure 7).
//!
//! The TBWF transform's line 2 (`while leader_p = p do skip`) enforces
//! the canonical use of Ω∆. The paper warns that without it "a timely
//! process would be able to monopolize the access to the implemented
//! object […] thereby preventing all the other timely processes from
//! executing their operations."
//!
//! We run the same all-timely workload with and without the wait and
//! report the per-process completion counts and a Jain fairness index.

use crate::table;
use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;

fn jain(xs: &[u64]) -> f64 {
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sumsq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sumsq == 0.0 {
        return 0.0;
    }
    sum * sum / (xs.len() as f64 * sumsq)
}

pub fn run() -> String {
    let n = 3;
    let steps: u64 = 300_000;
    let mut out = String::from("E7: canonical vs non-canonical use of Omega-Delta in Fig. 7\n");
    out += &format!("    n = {n}, {steps} steps, all timely (round-robin)\n\n");

    let variants: [(&str, Engine); 2] = [
        ("canonical (Fig. 7)", Engine::Tbwf(OmegaKind::Atomic)),
        ("non-canonical", Engine::TbwfNonCanonical(OmegaKind::Atomic)),
    ];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, engine) in variants {
        let cfg = WorkloadConfig {
            n,
            engine,
            ops_per_proc: u64::MAX,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(steps, RoundRobin::new()));
        out.report.assert_no_panics();
        let violations = counter_history_violations(&out);
        assert!(violations.is_empty(), "{name}: {violations:?}");
        let f = jain(&out.completed);
        rows.push(vec![
            name.to_string(),
            format!("{:?}", out.completed),
            (*out.completed.iter().min().unwrap()).to_string(),
            format!("{f:.3}"),
        ]);
        results.push((name, out.completed.clone(), f));
    }
    out += &table(
        &["variant", "ops per process", "min", "Jain fairness"],
        &rows,
    );

    let (_, canonical, f_canon) = &results[0];
    let (_, noncanon, _) = &results[1];
    assert!(
        canonical.iter().all(|&c| c > 0),
        "canonical: every timely process must progress: {canonical:?}"
    );
    assert!(*f_canon > 0.5, "canonical use should be reasonably fair");
    let starved = noncanon.iter().filter(|&&c| c == 0).count();
    out += &format!(
        "\nnon-canonical run starves {starved} of {n} timely processes \
         (paper predicts monopolization: n-1 starved)\n"
    );
    assert!(
        starved >= 1,
        "expected monopolization without the canonical wait: {noncanon:?}"
    );
    out
}
