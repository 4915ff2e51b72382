//! B5 — step-engine throughput: complete 3-process Ω∆ systems (both
//! implementations, with their candidate drivers and, for the atomic one,
//! the activity-monitor mesh) driven by direct `Stepper::step` calls.
//!
//! Self-timed harness (no criterion): wall-clocks whole system runs and
//! emits both a human table and `results/bench_step_throughput.json`
//! (via `tbwf_sim::Json`), so the perf trajectory is diffable across
//! PRs. Pass `--quick` for a smoke-sized measurement window.

// `for p in 0..N` indexing parallel handle vectors mirrors the paper's
// per-process wiring; an iterator chain would obscure it.
#![allow(clippy::needless_range_loop)]

use std::path::Path;
use std::time::{Duration, Instant};
use tbwf_bench::gauntlet::write_artifact;
use tbwf_bench::print_table;
use tbwf_omega::harness::install_omega;
use tbwf_omega::{add_candidate_driver, CandidateScript, OmegaKind};
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{Json, ProcId, RunConfig, SimBuilder};

/// Global steps per iteration; one iteration = one complete system run.
const STEPS: u64 = 10_000;
const N: usize = 3;

fn omega_run(kind: OmegaKind) {
    let factory = RegisterFactory::new(RegisterFactoryConfig::default());
    let mut b = SimBuilder::new();
    for p in 0..N {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega(&mut b, &factory, N, kind);
    for p in 0..N {
        add_candidate_driver(&mut b, ProcId(p), &handles[p], CandidateScript::Always);
    }
    let report = b.build().run(RunConfig::new(STEPS, RoundRobin::new()));
    report.assert_no_panics();
    assert!(
        handles[0].leader.get().is_some(),
        "no leader elected in bench run"
    );
}

/// Runs `f` once to warm up, then repeatedly until `target` wall time has
/// elapsed; returns `(iterations, seconds)`.
fn measure(target: Duration, mut f: impl FnMut()) -> (u32, f64) {
    f();
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= target {
            return (iters, elapsed.as_secs_f64());
        }
    }
}

struct Sample {
    system: &'static str,
    iters: u32,
    secs: f64,
}

impl Sample {
    fn secs_per_iter(&self) -> f64 {
        self.secs / self.iters as f64
    }

    fn steps_per_sec(&self) -> f64 {
        STEPS as f64 / self.secs_per_iter()
    }
}

fn main() {
    // Cargo passes `--bench` (and possibly criterion-style filters) to a
    // harness = false main; only `--quick` is meaningful here.
    let quick = std::env::args().any(|a| a == "--quick");
    let target = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(5)
    };
    println!(
        "step_throughput: {N}-process Omega-Delta, {STEPS} steps/run, \
         {:.1}s window per cell{}\n",
        target.as_secs_f64(),
        if quick { " (--quick)" } else { "" }
    );

    let mut samples = Vec::new();
    for (kind, system) in [
        (OmegaKind::Atomic, "atomic"),
        (OmegaKind::Abortable, "abortable"),
    ] {
        let (iters, secs) = measure(target, || omega_run(kind));
        samples.push(Sample {
            system,
            iters,
            secs,
        });
    }

    let mut rows = Vec::new();
    for s in &samples {
        rows.push(vec![
            s.system.to_string(),
            s.iters.to_string(),
            format!("{:.3}", s.secs_per_iter() * 1e3),
            format!("{:.2}", s.steps_per_sec() / 1e6),
        ]);
    }
    print_table(&["system", "iters", "ms/iter", "Msteps/s"], &rows);

    let json = Json::obj([
        ("bench", Json::str("step_throughput")),
        (
            "config",
            Json::obj([
                ("n", Json::Int(N as i128)),
                ("steps_per_run", Json::Int(STEPS as i128)),
                ("quick", Json::Bool(quick)),
            ]),
        ),
        (
            "series",
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("system", Json::str(s.system)),
                            ("iters", Json::Int(s.iters as i128)),
                            ("secs", Json::Float(s.secs)),
                            ("secs_per_iter", Json::Float(s.secs_per_iter())),
                            ("steps_per_sec", Json::Float(s.steps_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // Cargo runs bench binaries with cwd = the package root; anchor the
    // artifact in the workspace-level results/ directory instead.
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    match write_artifact(&results, "bench_step_throughput", &json) {
        Ok(p) => println!("json: {}", p.display()),
        Err(e) => eprintln!("cannot write bench json: {e}"),
    }
}
