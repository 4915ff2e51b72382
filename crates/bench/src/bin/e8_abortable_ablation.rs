//! **E8 — Abortable-register ablations** (Section 6).
//!
//! Part A: abort rates on a shared abortable register — solo operations
//! never abort; the abort rate under contention grows with the number of
//! hammering processes (this is the weakness the Figure 4/5 mechanisms
//! are designed around).
//!
//! Part B: **why the heartbeat of Figure 5 needs two registers.** With a
//! single heartbeat register, an aborted read only proves the writer is
//! *alive*; a slow writer that is perpetually mid-write makes every read
//! abort and is judged timely forever. With two alternating registers, a
//! slow writer is caught: while it dawdles on one register, reads of the
//! other neither abort nor return anything new. We measure the fraction
//! of reader polls that judge the writer timely, for a timely and for a
//! slow writer, under both detector rules.

use std::sync::Arc;
use tbwf_bench::print_table;
use tbwf_registers::{OpToken, ReadOutcome, RegisterFactory, SharedAbortable};
use tbwf_sim::schedule::{RoundRobin, Weighted};
use tbwf_sim::{Control, ProcId, RunConfig, Schedule, SimBuilder, StepCtx, Stepper};

/// Part A's task: write `i`, read, `i + 1`, … forever; every operation
/// spans two steps.
struct Hammer {
    reg: SharedAbortable<i64>,
    i: i64,
    pending: Option<(bool, OpToken)>,
}

impl Stepper for Hammer {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.pending.take() {
            None => {}
            // The write responds; read next.
            Some((true, tok)) => {
                let _ = self.reg.complete_write(env, tok);
                self.pending = Some((false, self.reg.invoke_read(env)));
                return Control::Yield;
            }
            // The read responds; write the next value.
            Some((false, tok)) => {
                let _ = self.reg.complete_read(env, tok);
            }
        }
        self.i += 1;
        self.pending = Some((true, self.reg.invoke_write(env, self.i)));
        Control::Yield
    }
}

/// Part B's writer: heartbeat `c` to every register in turn, then
/// `c + 1`, … forever (write aborts are ignored).
struct HbWriter {
    regs: Vec<SharedAbortable<i64>>,
    c: i64,
    k: usize,
    pending: Option<OpToken>,
}

impl Stepper for HbWriter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        if let Some(tok) = self.pending.take() {
            let _ = self.regs[self.k].complete_write(env, tok);
            self.k += 1;
        }
        if self.k == self.regs.len() {
            self.k = 0;
        }
        if self.k == 0 {
            self.c += 1;
        }
        self.pending = Some(self.regs[self.k].invoke_write(env, self.c));
        Control::Yield
    }
}

/// Steps Part B's reader waits between polls (a fixed timeout: the
/// ablation isolates the register-count question from adaptivity).
const POLL_EVERY: u8 = 8;

/// Where Part B's reader is: waiting out `.0` more steps before the next
/// poll, or with the read of register `i` in flight.
enum DetectState {
    Wait(u8),
    Read { i: usize, tok: OpToken },
}

/// Part B's reader: every [`POLL_EVERY`] own steps, read every register;
/// the writer is judged timely iff each read aborted or changed.
struct Detector {
    regs: Vec<SharedAbortable<i64>>,
    prev: Vec<Option<i64>>,
    fresh_all: bool,
    timely: i64,
    polls: i64,
    state: DetectState,
}

impl Stepper for Detector {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.state {
            DetectState::Wait(k) if k > 0 => self.state = DetectState::Wait(k - 1),
            DetectState::Wait(_) => {
                self.fresh_all = true;
                let tok = self.regs[0].invoke_read(env);
                self.state = DetectState::Read { i: 0, tok };
            }
            DetectState::Read { i, tok } => {
                let cur = match self.regs[i].complete_read(env, tok) {
                    ReadOutcome::Aborted => None,
                    ReadOutcome::Value(v) => Some(v),
                };
                let fresh = cur.is_none() || cur != self.prev[i];
                self.fresh_all &= fresh;
                self.prev[i] = cur;
                if i + 1 < self.regs.len() {
                    let tok = self.regs[i + 1].invoke_read(env);
                    self.state = DetectState::Read { i: i + 1, tok };
                } else {
                    self.polls += 1;
                    if self.fresh_all {
                        self.timely += 1;
                    }
                    ctx.observe("timely_verdicts", 0, self.timely);
                    ctx.observe("polls", 0, self.polls);
                    // This step is the first of the next wait.
                    self.state = DetectState::Wait(POLL_EVERY - 1);
                }
            }
        }
        Control::Yield
    }
}

/// Part A: n processes hammer one MWMR abortable register.
fn abort_rate(n: usize, steps: u64) -> (u64, u64, u64) {
    let factory = RegisterFactory::default();
    let reg = factory.abortable("R", 0i64);
    let mut b = SimBuilder::new();
    for p in 0..n {
        let pid = b.add_process(&format!("p{p}"));
        let hammer = Hammer {
            reg: Arc::clone(&reg),
            i: 0,
            pending: None,
        };
        b.add_stepper(pid, "hammer", Box::new(hammer));
    }
    let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
    report.assert_no_panics();
    factory.log().abort_stats()
}

/// Part B: a writer heartbeats through `regs` (alternating); the reader
/// judges timeliness with the k-register rule (all registers must abort
/// or change). Returns (timely_verdicts, polls).
fn heartbeat_detector(slow_writer: bool, two_regs: bool, steps: u64) -> (u64, u64) {
    let factory = RegisterFactory::default();
    let regs: Vec<SharedAbortable<i64>> = (0..if two_regs { 2 } else { 1 })
        .map(|i| factory.abortable_swsr(&format!("Hb{i}"), 0i64, ProcId(1), ProcId(0)))
        .collect();

    let mut b = SimBuilder::new();
    let reader = b.add_process("reader");
    let writer = b.add_process("writer");

    let hb = HbWriter {
        regs: regs.clone(),
        c: 0,
        k: 0,
        pending: None,
    };
    b.add_stepper(writer, "hb", Box::new(hb));
    let detect = Detector {
        prev: vec![Some(0); regs.len()],
        regs,
        fresh_all: true,
        timely: 0,
        polls: 0,
        state: DetectState::Wait(POLL_EVERY),
    };
    b.add_stepper(reader, "detect", Box::new(detect));

    let schedule: Box<dyn Schedule> = if slow_writer {
        // The writer gets a step ~once per 400 reader steps: its writes
        // stay in flight for long stretches.
        Box::new(Weighted::new(vec![400.0, 1.0], 0xE8))
    } else {
        Box::new(RoundRobin::new())
    };
    let report = b.build().run(RunConfig {
        max_steps: steps,
        crashes: Vec::new(),
        schedule,
        nemesis: None,
    });
    report.assert_no_panics();
    let timely = report
        .trace
        .last_value(ProcId(0), "timely_verdicts", 0)
        .unwrap_or(0) as u64;
    let polls = report.trace.last_value(ProcId(0), "polls", 0).unwrap_or(0) as u64;
    (timely, polls)
}

fn main() {
    println!("E8: abortable-register ablations (Section 6)\n");

    println!("Part A: abort rate on one shared abortable register");
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let (total, overlapped, aborted) = abort_rate(n, 40_000);
        rows.push(vec![
            n.to_string(),
            total.to_string(),
            overlapped.to_string(),
            aborted.to_string(),
            format!("{:.1}%", 100.0 * aborted as f64 / total.max(1) as f64),
        ]);
        if n == 1 {
            assert_eq!(aborted, 0, "solo operations must never abort");
        }
    }
    print_table(
        &["procs", "ops", "overlapped", "aborted", "abort rate"],
        &rows,
    );
    println!("  solo operations never abort ok\n");

    println!("Part B: heartbeat detector — 1 register vs 2 registers (Fig. 5)");
    let steps = 200_000;
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (wname, slow) in [("timely writer", false), ("slow writer", true)] {
        for (dname, two) in [("1 register", false), ("2 registers", true)] {
            let (timely, polls) = heartbeat_detector(slow, two, steps);
            let frac = timely as f64 / polls.max(1) as f64;
            measured.push((slow, two, frac));
            rows.push(vec![
                wname.to_string(),
                dname.to_string(),
                polls.to_string(),
                format!("{:.1}%", frac * 100.0),
            ]);
        }
    }
    print_table(&["writer", "detector", "polls", "judged timely"], &rows);

    let one_reg_slow = measured.iter().find(|(s, t, _)| *s && !t).unwrap().2;
    let two_reg_slow = measured.iter().find(|(s, t, _)| *s && *t).unwrap().2;
    let two_reg_timely = measured.iter().find(|(s, t, _)| !s && *t).unwrap().2;
    println!();
    println!(
        "  slow writer judged timely: {:.0}% with one register vs {:.0}% with two",
        one_reg_slow * 100.0,
        two_reg_slow * 100.0
    );
    assert!(
        one_reg_slow > two_reg_slow + 0.3,
        "two registers must sharply reduce false-timely verdicts \
         ({one_reg_slow:.2} vs {two_reg_slow:.2})"
    );
    assert!(
        two_reg_timely > 0.9,
        "a timely writer must still be judged timely ({two_reg_timely:.2})"
    );
    println!("  the Figure 5 two-register scheme is necessary and sufficient ok");
}
