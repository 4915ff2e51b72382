//! The outside-in cost ladder, run at the `scaling` cells' shapes from
//! public constructors only. Each rung adds one layer; a rung minus the
//! rung below attributes a `scaling` step's host cost to that layer:
//!
//! * L0 `sim` — no-op steppers, same tasks per process and budget as
//!   each cell (pure dispatch);
//! * L1 `registers` atomic and L2 abortable — every task alternates a
//!   write and a read on a register of its own (invoke/complete);
//! * L3 `monitor` — the full activity-monitor mesh;
//! * L4 `omega` and L5 `universal` are the cells themselves, timed by
//!   the traced round.

use std::hint::black_box;
use std::time::Instant;

use tbwf_monitor::MonitorMesh;
use tbwf_omega::OmegaKind;
use tbwf_registers::{OpToken, RegisterFactory, SharedAbortable, SharedAtomic};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{Control, ProcId, RunConfig, SimBuilder, StepCtx, Stepper};

use crate::common::Report;
use crate::scaling::{Cell, CellRun, CELLS};

struct Noop;

impl Stepper for Noop {
    fn step(&mut self, _: &mut StepCtx<'_>) -> Control {
        Control::Yield
    }
}

/// Write, then read, forever: one register step per simulated step.
struct RegisterLoop<R> {
    reg: R,
    phase: u8,
    tok: Option<OpToken>,
    value: u64,
}

impl<R> RegisterLoop<R> {
    fn new(reg: R) -> Self {
        RegisterLoop {
            reg,
            phase: 0,
            tok: None,
            value: 0,
        }
    }
}

impl Stepper for RegisterLoop<SharedAtomic<u64>> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.phase {
            0 => self.tok = Some(self.reg.invoke_write(env, self.value)),
            1 => self
                .reg
                .complete_write(env, self.tok.take().expect("write invoked")),
            2 => self.tok = Some(self.reg.invoke_read(env)),
            _ => {
                self.value = black_box(
                    self.reg
                        .complete_read(env, self.tok.take().expect("read invoked")),
                ) + 1
            }
        }
        self.phase = (self.phase + 1) % 4;
        Control::Yield
    }
}

impl Stepper for RegisterLoop<SharedAbortable<u64>> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.phase {
            0 => self.tok = Some(self.reg.invoke_write(env, self.value)),
            1 => {
                black_box(
                    self.reg
                        .complete_write(env, self.tok.take().expect("write invoked")),
                );
            }
            2 => self.tok = Some(self.reg.invoke_read(env)),
            _ => {
                let read = self
                    .reg
                    .complete_read(env, self.tok.take().expect("read invoked"));
                self.value = black_box(read.value().unwrap_or(self.value)) + 1;
            }
        }
        self.phase = (self.phase + 1) % 4;
        Control::Yield
    }
}

/// Runs `b` for `steps` round-robin steps; returns host ns and steps.
fn timed(b: SimBuilder, steps: u64) -> (f64, f64) {
    let sim = b.build();
    let t = Instant::now();
    let report = sim.run(RunConfig::new(steps, RoundRobin::new()));
    let ns = t.elapsed().as_secs_f64() * 1e9;
    (ns, report.trace.len() as f64)
}

fn processes(n: usize) -> SimBuilder {
    let mut b = SimBuilder::new();
    for p in 0..n {
        b.add_process(&format!("p{p}"));
    }
    b
}

/// L1/L2 at one shape; returns host ns and completed register operations.
fn register_rung(tasks: &[usize], steps: u64, atomic: bool) -> (f64, f64) {
    let factory = RegisterFactory::default();
    let mut b = processes(tasks.len());
    for (p, &k) in tasks.iter().enumerate() {
        // One register per task, as each monitor pair has its own.
        for t in 0..k {
            let name = format!("R[{p}][{t}]");
            let s: Box<dyn Stepper> = if atomic {
                Box::new(RegisterLoop::new(factory.atomic(&name, 0u64)))
            } else {
                Box::new(RegisterLoop::new(factory.abortable(&name, 0u64)))
            };
            b.add_stepper(ProcId(p), "reg", s);
        }
    }
    let (ns, _) = timed(b, steps);
    (ns, factory.log().len() as f64)
}

/// Runs L0–L3 and reports them. `plain` is an untraced round of
/// [`CELLS`], which supplies each cell's tasks per process.
pub fn run(plain: &[CellRun], rep: &mut Report) {
    let mut l0 = (0.0, 0.0);
    for (cell, run) in CELLS.iter().zip(plain) {
        let mut b = processes(cell.n());
        for (p, &k) in run.tasks.iter().enumerate() {
            for _ in 0..k {
                b.add_stepper(ProcId(p), "noop", Box::new(Noop));
            }
        }
        let (ns, steps) = timed(b, cell.steps());
        l0 = (l0.0 + ns, l0.1 + steps);
    }
    rep.metric("sim.dispatch.ns_per_step", l0.0 / l0.1, "ns");

    // L1–L3 at the atomic Ω∆ cells' shapes (the mesh's task count).
    let shapes: Vec<(usize, u64, &[usize])> = CELLS
        .iter()
        .zip(plain)
        .filter(|(c, _)| matches!(c, Cell::Omega(_, OmegaKind::Atomic)))
        .map(|(c, r)| (c.n(), c.steps(), r.tasks.as_slice()))
        .collect();
    for (atomic, name) in [
        (true, "registers.atomic.ns_per_op"),
        (false, "registers.abortable.ns_per_op"),
    ] {
        let (ns, ops) = shapes.iter().fold((0.0, 0.0), |acc, &(_, steps, tasks)| {
            let (ns, ops) = register_rung(tasks, steps, atomic);
            (acc.0 + ns, acc.1 + ops)
        });
        rep.metric(name, ns / ops, "ns");
    }
    let (ns, steps) = shapes.iter().fold((0.0, 0.0), |acc, &(n, steps, _)| {
        let factory = RegisterFactory::default();
        let mut b = processes(n);
        let mesh = MonitorMesh::install(&mut b, &factory, n);
        for p in 0..n {
            for q in (0..n).filter(|&q| q != p) {
                mesh.handles[p].monitoring.cell(ProcId(q)).set(true);
                mesh.handles[p].active_for.cell(ProcId(q)).set(true);
            }
        }
        let (ns, st) = timed(b, steps);
        (acc.0 + ns, acc.1 + st)
    });
    rep.metric("monitor.ns_per_step", ns / steps, "ns");
}
