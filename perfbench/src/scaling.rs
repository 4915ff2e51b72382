//! `scaling`: E11-shaped single large-n runs, serially, in a fixed cell
//! order, all processes timely under `RoundRobin`, no faults. The step
//! engine, the monitor mesh and the Ω∆ loop dominate; the retained run
//! record is large.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use tbwf::linearize::check_run_linearizable;
use tbwf::{TbwfRun, TbwfSystemBuilder, Workload};
use tbwf_omega::harness::install_omega;
use tbwf_omega::spec::convergence_time;
use tbwf_omega::{add_candidate_driver, CandidateScript, OmegaKind};
use tbwf_registers::{OpEvent, OpLog, RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::timeliness::measured_timely_set;
use tbwf_sim::{Json, ProcId, RunConfig, RunReport, Sim, SimBuilder, TaskOutcome};
use tbwf_universal::object::{Counter, CounterOp};

use crate::common::{
    faults, ms_between, panic_message, peak_rss, secs_since, splitmix64, tail_detail, trace_mb,
    Params, PassRates, Report, SetupSampler,
};
use crate::digest::fnv1a;
use crate::ladder;
use crate::stamp::{Stamped, Stamps};
use crate::stats::{median, percentile, tail};

/// Host seconds one round of [`CELLS`] takes on a 2-core x86-64 host
/// (14–16 s measured); `--seconds` is converted to whole rounds with it.
const NOMINAL_ROUND_S: u64 = 15;

/// One E11 cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Ω∆ election convergence, all processes permanent candidates.
    Omega(usize, OmegaKind),
    /// TBWF counter throughput over abortable-register Ω∆.
    Tbwf(usize),
}

/// The cells, in the order they always run: the heap a cell starts
/// from depends on the cells before it, so the order is part of the
/// workload.
pub const CELLS: [Cell; 5] = [
    Cell::Omega(32, OmegaKind::Atomic),
    Cell::Omega(32, OmegaKind::Abortable),
    Cell::Omega(64, OmegaKind::Atomic),
    Cell::Omega(64, OmegaKind::Abortable),
    Cell::Tbwf(32),
];

/// Index of the TBWF cell in [`CELLS`].
const TBWF_CELL: usize = 4;
const _: () = assert!(matches!(CELLS[TBWF_CELL], Cell::Tbwf(_)));

impl Cell {
    /// Process count.
    pub fn n(self) -> usize {
        match self {
            Cell::Omega(n, _) | Cell::Tbwf(n) => n,
        }
    }

    /// E11's step budget: 120 000·n for convergence, 600·n³ for TBWF.
    pub fn steps(self) -> u64 {
        match self {
            Cell::Omega(n, _) => 120_000 * n as u64,
            Cell::Tbwf(n) => 600 * (n as u64).pow(3),
        }
    }

    /// Stable label.
    pub fn name(self) -> String {
        match self {
            Cell::Omega(n, OmegaKind::Atomic) => format!("omega_atomic_n{n}"),
            Cell::Omega(n, OmegaKind::Abortable) => format!("omega_abortable_n{n}"),
            Cell::Tbwf(n) => format!("tbwf_n{n}"),
        }
    }
}

/// Register seed of the cells: E11's values by default (the factory
/// default for Ω∆, `0xE11` for TBWF), else derived from the seed.
fn register_seed(cell: Cell, seed: Option<u64>) -> u64 {
    match (seed, cell) {
        (Some(s), _) => splitmix64(s),
        (None, Cell::Omega(..)) => RegisterFactoryConfig::default().seed,
        (None, Cell::Tbwf(_)) => 0xE11,
    }
}

fn build_omega(
    n: usize,
    kind: OmegaKind,
    reg_seed: u64,
) -> (Sim, Vec<tbwf_omega::OmegaHandles>, Arc<OpLog>) {
    let factory = RegisterFactory::new(RegisterFactoryConfig {
        seed: reg_seed,
        ..RegisterFactoryConfig::default()
    });
    let mut b = SimBuilder::new();
    for p in 0..n {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega(&mut b, &factory, n, kind);
    for (p, h) in handles.iter().enumerate() {
        add_candidate_driver(&mut b, ProcId(p), h, CandidateScript::Always);
    }
    (b.build(), handles, factory.log())
}

fn tbwf_builder(n: usize, reg_seed: u64) -> TbwfSystemBuilder<Counter> {
    TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(OmegaKind::Abortable)
        .seed(reg_seed)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
}

/// What one cell produced, plus host timings.
#[derive(Clone, Debug, Default)]
pub struct CellRun {
    /// Host time of the whole cell: set-up, run, checks.
    pub ms: f64,
    /// Set-up: start of the cell to its first simulated step.
    pub build_ms: f64,
    /// Host time inside the step loop.
    pub run_ns: f64,
    /// `measured_timely_set` + `convergence_time`.
    pub analysis_ms: f64,
    /// `check_run_linearizable` (TBWF cell).
    pub linearize_ms: f64,
    /// Simulated steps taken.
    pub steps: u64,
    /// Observations recorded.
    pub obs: u64,
    /// Retained run record in MB.
    pub trace_mb: f64,
    /// Convergence time (Ω∆ cells).
    pub conv: u64,
    /// Completed TBWF operations, total and per-process minimum.
    pub ops: u64,
    /// Fewest operations completed by one process.
    pub min_ops: u64,
    /// Steps from invocation to response of every TBWF operation.
    pub op_steps: Vec<u64>,
    /// Register log `(total, overlapped, aborted)`.
    pub reg: (u64, u64, u64),
    /// Tasks per process (for the L0 rung).
    pub tasks: Vec<usize>,
    /// Nemesis injections (none: the workload has no faults).
    pub injections: u64,
    /// Check failures.
    pub failures: Vec<String>,
}

impl CellRun {
    /// The cell's simulated outputs, as digested.
    pub fn row(&self, cell: Cell) -> String {
        format!(
            "{} steps={} conv={} ops={} min={}\n",
            cell.name(),
            self.steps,
            self.conv,
            self.ops,
            self.min_ops
        )
    }
}

fn common_checks(run: &mut CellRun, report: &RunReport, n: usize) {
    for (p, pr) in report.procs.iter().enumerate() {
        for (task, outcome) in &pr.tasks {
            if let TaskOutcome::Panicked(m) = outcome {
                run.failures.push(format!("p{p}/{task} panicked: {m}"));
            }
        }
    }
    run.steps = report.trace.len() as u64;
    run.obs = report.trace.obs.len() as u64;
    run.trace_mb = trace_mb(report);
    run.injections = report.trace.injections.len() as u64;
    run.tasks = report.procs.iter().map(|p| p.tasks.len()).collect();
    let t = Instant::now();
    let timely = measured_timely_set(&report.trace.steps, n, &[]);
    run.conv = convergence_time(&report.trace, n);
    run.analysis_ms = secs_since(t) * 1e3;
    if timely.len() != n {
        run.failures.push(format!(
            "starved timely process: measured timely set {timely:?} of {n}"
        ));
    }
}

fn omega_cell(n: usize, kind: OmegaKind, seed: u64) -> CellRun {
    let t0 = Instant::now();
    let (sim, handles, log) = build_omega(n, kind, seed);
    let t_built = Instant::now();
    let report = sim.run(RunConfig::new(
        Cell::Omega(n, kind).steps(),
        RoundRobin::new(),
    ));
    let t_ran = Instant::now();
    let mut run = CellRun {
        build_ms: ms_between(t0, t_built),
        run_ns: ms_between(t_built, t_ran) * 1e6,
        reg: log.abort_stats(),
        ..CellRun::default()
    };
    common_checks(&mut run, &report, n);
    let leaders: Vec<Option<ProcId>> = handles.iter().map(|h| h.leader.get()).collect();
    if leaders[0].is_none() || leaders.iter().any(|l| *l != leaders[0]) {
        run.failures
            .push(format!("missing or split leader: {leaders:?}"));
    }
    drop(report);
    run.ms = secs_since(t0) * 1e3;
    run
}

fn tbwf_cell(n: usize, seed: u64, traced: bool) -> CellRun {
    let steps = Cell::Tbwf(n).steps();
    let stamps = Stamps::default();
    let t0 = Instant::now();
    let out: TbwfRun<Counter> = if traced {
        tbwf_builder(n, seed).run(RunConfig::new(
            steps,
            Stamped::new(RoundRobin::new(), steps, &stamps),
        ))
    } else {
        tbwf_builder(n, seed).run(RunConfig::new(steps, RoundRobin::new()))
    };
    let t_ran = Instant::now();
    let mut run = CellRun {
        reg: out.log.abort_stats(),
        ..CellRun::default()
    };
    if traced {
        let first = stamps.first().unwrap_or(t0);
        run.build_ms = ms_between(t0, first);
        run.run_ns = ms_between(first, stamps.last().unwrap_or(t_ran)) * 1e6;
    }
    common_checks(&mut run, &out.report, n);
    run.ops = out.completed.iter().sum();
    run.min_ops = out.completed.iter().copied().min().unwrap_or(0);
    if run.min_ops == 0 {
        run.failures.push(format!(
            "starved timely process: completed {:?}",
            out.completed
        ));
    }
    run.op_steps = out
        .results
        .iter()
        .flatten()
        .map(|r| r.time.saturating_sub(r.invoked))
        .collect();
    let t = Instant::now();
    if let Err(e) = check_run_linearizable(&Counter, &out) {
        run.failures
            .push(format!("TBWF history not linearizable: {e:?}"));
    }
    run.linearize_ms = secs_since(t) * 1e3;
    drop(out);
    run.ms = secs_since(t0) * 1e3;
    run
}

/// Runs one cell; a panic becomes a failure.
pub fn run_cell(cell: Cell, seed: Option<u64>, traced: bool) -> CellRun {
    let reg_seed = register_seed(cell, seed);
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(|| match cell {
        Cell::Omega(n, kind) => omega_cell(n, kind, reg_seed),
        Cell::Tbwf(n) => tbwf_cell(n, reg_seed, traced),
    }))
    .unwrap_or_else(|payload| CellRun {
        ms: secs_since(t0) * 1e3,
        failures: vec![format!("panicked: {}", panic_message(&*payload))],
        ..CellRun::default()
    })
}

/// Set-up of one round: every cell's system built up to its first step.
fn setup_once(seed: Option<u64>) -> f64 {
    let mut total = 0.0;
    for cell in CELLS {
        let reg_seed = register_seed(cell, seed);
        let stamps = Stamps::default();
        let t0 = Instant::now();
        match cell {
            Cell::Omega(n, kind) => {
                let (sim, _, _) = build_omega(n, kind, reg_seed);
                drop(sim.run(RunConfig::new(
                    1,
                    Stamped::new(RoundRobin::new(), 1, &stamps),
                )));
            }
            Cell::Tbwf(n) => {
                drop(tbwf_builder(n, reg_seed).run(RunConfig::new(
                    1,
                    Stamped::new(RoundRobin::new(), 1, &stamps),
                )));
            }
        }
        total += ms_between(t0, stamps.first().unwrap_or_else(Instant::now)) / 1e3;
    }
    total
}

/// One round over [`CELLS`]; `before_cell` runs ahead of each cell.
pub fn round(
    seed: Option<u64>,
    traced: bool,
    rep: &mut Report,
    before_cell: &mut dyn FnMut(),
) -> Vec<CellRun> {
    let runs: Vec<CellRun> = CELLS
        .iter()
        .map(|&c| {
            before_cell();
            run_cell(c, seed, traced)
        })
        .collect();
    let mut rows = String::new();
    for (cell, run) in CELLS.iter().zip(&runs) {
        rep.attempted += 1;
        if !run.failures.is_empty() {
            rep.failed += 1;
            rep.problems
                .push(format!("{}: {}", cell.name(), run.failures.join("; ")));
        }
        rows.push_str(&run.row(*cell));
    }
    rep.expect_digest(fnv1a(rows.as_bytes()), "a round's cell rows");
    if rep.details.iter().all(|(k, _)| *k != "rows") {
        rep.detail("rows", Json::str(rows));
    }
    runs
}

fn sum_by(runs: &[CellRun], f: impl Fn(&CellRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

/// Runs the workload and reports its end-to-end (untraced) or per-layer
/// (traced) metrics.
pub fn run(p: &Params) -> Report {
    let mut rep = Report::default();
    if p.trace {
        traced(p, &mut rep);
        return rep;
    }
    let mut setup = SetupSampler::new(|| setup_once(p.seed));

    // Whole rounds only, a count fixed by --seconds rather than by how
    // fast this host is, so every run measures the same mix of cells.
    let rounds = (p.seconds / NOMINAL_ROUND_S).max(1) as usize;
    let (mut ms, mut rates, mut ops, mut tbwf_steps) = (Vec::new(), PassRates::default(), 0, 0);
    for _ in 0..rounds {
        let runs = round(p.seed, false, &mut rep, &mut || setup.sample());
        let tbwf = &runs[TBWF_CELL];
        rates.push(
            runs.len() as u64,
            runs.iter().map(|r| r.steps).sum(),
            tbwf.ops,
            sum_by(&runs, |r| r.ms) / 1e3,
        );
        ops += tbwf.ops;
        tbwf_steps += tbwf.steps;
        ms.extend(runs.iter().map(|r| r.ms));
    }
    let t = tail(&ms);
    rep.metric("setup_s", setup.median(), "s");
    rates.report(&mut rep);
    rep.metric("run_ms_p50", median(&ms), "ms");
    rep.metric("run_ms_tail", t.value, "ms");
    rep.metric(
        "sim_steps_per_op",
        tbwf_steps as f64 / ops.max(1) as f64,
        "steps",
    );
    peak_rss(&mut rep);
    rep.detail("rounds", Json::Int(rounds as i128));
    rep.detail("run", Json::str("one cell"));
    tail_detail(&mut rep, &t);
    rep
}

fn traced(p: &Params, rep: &mut Report) {
    let t = Instant::now();
    let plain = round(p.seed, false, rep, &mut || {});
    let w_plain = secs_since(t);

    let f0 = faults(rep);
    let t = Instant::now();
    let runs = round(p.seed, true, rep, &mut || {});
    let w_traced = secs_since(t);
    let minor = faults(rep).saturating_sub(f0);

    let steps = sum_by(&runs, |r| r.steps as f64);
    let per_kind = |want: fn(Cell) -> bool| {
        let (ns, steps) = CELLS
            .iter()
            .zip(&runs)
            .filter(|(c, _)| want(**c))
            .fold((0.0, 0.0), |(ns, st), (_, r)| {
                (ns + r.run_ns, st + r.steps as f64)
            });
        ns / steps
    };
    let reg = runs.iter().fold((0, 0, 0), |a, r| {
        (a.0 + r.reg.0, a.1 + r.reg.1, a.2 + r.reg.2)
    });
    let tbwf = &runs[TBWF_CELL];
    let op_steps: Vec<f64> = tbwf.op_steps.iter().map(|&s| s as f64).collect();

    rep.metric(
        "sim.run.ns_per_step",
        sum_by(&runs, |r| r.run_ns) / steps,
        "ns",
    );
    rep.metric(
        "sim.build.ms",
        median(&runs.iter().map(|r| r.build_ms).collect::<Vec<_>>()),
        "ms",
    );
    rep.metric("sim.trace.steps", steps, "count");
    rep.metric("sim.trace.obs", sum_by(&runs, |r| r.obs as f64), "count");
    rep.metric(
        "sim.trace.mb",
        runs.iter().map(|r| r.trace_mb).fold(0.0, f64::max),
        "MB",
    );
    rep.metric("sim.minor_faults", minor as f64, "count");
    rep.metric(
        "sim.nemesis.injections",
        sum_by(&runs, |r| r.injections as f64),
        "count",
    );
    rep.metric(
        "sim.analysis.ms",
        median(&runs.iter().map(|r| r.analysis_ms).collect::<Vec<_>>()),
        "ms",
    );
    rep.metric("registers.ops", reg.0 as f64, "count");
    rep.metric("registers.ops_per_step", reg.0 as f64 / steps, "ratio");
    rep.metric(
        "registers.overlap_ratio",
        reg.1 as f64 / reg.0.max(1) as f64,
        "ratio",
    );
    rep.metric(
        "registers.abort_ratio",
        reg.2 as f64 / reg.0.max(1) as f64,
        "ratio",
    );
    rep.metric(
        "registers.oplog_mb",
        runs.iter()
            .map(|r| (r.reg.0 as usize * std::mem::size_of::<OpEvent>()) as f64 / 1e6)
            .fold(0.0, f64::max),
        "MB",
    );
    rep.metric(
        "omega.atomic.ns_per_step",
        per_kind(|c| c == Cell::Omega(c.n(), OmegaKind::Atomic)),
        "ns",
    );
    rep.metric(
        "omega.abortable.ns_per_step",
        per_kind(|c| c == Cell::Omega(c.n(), OmegaKind::Abortable)),
        "ns",
    );
    rep.metric(
        "omega.conv_steps",
        CELLS
            .iter()
            .zip(&runs)
            .filter(|(c, _)| matches!(c, Cell::Omega(..)))
            .map(|(_, r)| r.conv as f64)
            .sum(),
        "steps",
    );
    rep.metric(
        "universal.tbwf.ns_per_op",
        tbwf.run_ns / tbwf.ops.max(1) as f64,
        "ns",
    );
    if op_steps.is_empty() {
        rep.problems.push("TBWF cell completed no operation".into());
    } else {
        let p = |q| percentile(&op_steps, q);
        rep.metric("universal.tbwf.op_steps_p50", p(50.0), "steps");
        rep.metric("universal.tbwf.op_steps_p99", p(99.0), "steps");
    }
    rep.metric("core.linearize.ms", tbwf.linearize_ms, "ms");
    rep.metric("bench.trace_overhead", w_traced / w_plain - 1.0, "ratio");

    ladder::run(&plain, rep);
}
