//! **E11 — Scaling with the number of processes** (synthetic figure; the
//! paper has no evaluation section, see EXPERIMENTS.md).
//!
//! Two series as n grows:
//!
//! 1. **Election convergence** — global steps until the last leader-output
//!    change, for both Ω∆ implementations, all processes permanent timely
//!    candidates. Expected shape: grows with n (the atomic backend pays
//!    the monitor mesh — each process hosts 2(n−1) monitor tasks, so a
//!    full Figure 3 iteration takes Θ(n) of the process's steps and each
//!    process gets 1/n of the global steps ⇒ ≳ quadratic growth; the
//!    abortable backend pays per-pair channels similarly).
//! 2. **TBWF throughput** — total and per-process completed increments in
//!    a fixed budget of global steps. Expected shape: total throughput
//!    falls with n (each completed operation pays a canonical leadership
//!    rotation whose cost grows with n), while fairness holds: the
//!    minimum per-process count stays positive.
//!
//! Every cell of both series is an independent seeded run, so the grid
//! executes on the work-sharded executor (`--jobs`, default all cores);
//! rows are collected by grid index, keeping the tables byte-identical to
//! a serial sweep.

use crate::table;
use tbwf::prelude::*;
use tbwf_omega::spec::convergence_time;
use tbwf_sim::Executor;

const NS: [usize; 8] = [2, 3, 4, 6, 8, 16, 32, 64];

/// Runs the experiment on `executor` and returns its report; panics if
/// an election or the fairness claim fails.
pub fn run(executor: &Executor) -> String {
    let mut out = String::from("E11: scaling with n (all processes timely, round-robin)\n\n");
    out += "Series 1: election convergence (steps until last leader change)\n";
    // One job per (n, kind) cell, row-major so chunking by 2 restores rows.
    let cells: Vec<(usize, OmegaKind)> = NS
        .iter()
        .flat_map(|&n| [(n, OmegaKind::Atomic), (n, OmegaKind::Abortable)])
        .collect();
    let conv = executor.run(cells.len(), |i| {
        let (n, kind) = cells[i];
        let steps = 120_000 * n as u64;
        let cfg = OmegaSystemConfig {
            n,
            kind,
            scripts: vec![CandidateScript::Always; n],
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(steps, RoundRobin::new()));
        out.report.assert_no_panics();
        assert!(
            out.handles[0].leader.get().is_some(),
            "n={n} {kind:?}: no leader elected"
        );
        convergence_time(&out.report.trace, n).to_string()
    });
    let rows: Vec<Vec<String>> = NS
        .iter()
        .zip(conv.chunks(2))
        .map(|(&n, pair)| vec![n.to_string(), pair[0].clone(), pair[1].clone()])
        .collect();
    out += &table(&["n", "atomic conv@", "abortable conv@"], &rows);

    // Each completed operation pays a canonical leadership rotation: the
    // leader's Ω∆ iteration is Θ(n) of its own steps and the leader gets
    // 1/n of the global steps, so one operation costs Θ(n²) global steps
    // and all n processes completing at least once needs Θ(n³). Scale the
    // budget accordingly so fairness is measurable at every n.
    out += "\nSeries 2: TBWF counter throughput, step budget max(300k, 600·n³)\n";
    let rows = executor.run(NS.len(), |i| {
        let n = NS[i];
        let steps = 300_000u64.max(600 * (n as u64).pow(3));
        let run = TbwfSystemBuilder::new(Counter)
            .processes(n)
            .omega(OmegaKind::Abortable)
            .seed(0xE11)
            .workload_all(Workload::Unlimited(CounterOp::Inc))
            .run(RunConfig::new(steps, RoundRobin::new()));
        run.report.assert_no_panics();
        let total: u64 = run.completed.iter().sum();
        let min = *run.completed.iter().min().unwrap();
        assert!(
            min > 0,
            "n={n}: a timely process starved: {:?}",
            run.completed
        );
        vec![
            n.to_string(),
            steps.to_string(),
            total.to_string(),
            min.to_string(),
            format!("{:.0}", steps as f64 / total as f64),
        ]
    });
    out += &table(
        &["n", "steps", "total ops", "min per proc", "steps per op"],
        &rows,
    );
    out += "\nshape: convergence grows with n; steps per op grow with n;\n";
    out += "fairness (min per proc > 0) holds at every n ok\n";
    out
}
