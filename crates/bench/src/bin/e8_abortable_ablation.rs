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

use std::rc::Rc;
use tbwf_bench::print_table;
use tbwf_registers::{RegisterFactory, SharedAbortable};
use tbwf_sim::schedule::{RoundRobin, Weighted};
use tbwf_sim::{step, Env, FutureTask, ProcId, RunConfig, Schedule, SimBuilder};

/// Part A's task: write `i`, read, `i + 1`, … forever; every operation
/// spans two steps.
async fn hammer(env: Rc<dyn Env>, reg: SharedAbortable<i64>) {
    for i in 1.. {
        let _ = reg.try_write(&*env, i).await;
        let _ = reg.try_read(&*env).await;
    }
}

/// Part B's writer: heartbeat `c` to every register in turn, then
/// `c + 1`, … forever (write aborts are ignored).
async fn hb_writer(env: Rc<dyn Env>, regs: Vec<SharedAbortable<i64>>) {
    for c in 1.. {
        for reg in &regs {
            let _ = reg.try_write(&*env, c).await;
        }
    }
}

/// Steps Part B's reader waits between polls (a fixed timeout: the
/// ablation isolates the register-count question from adaptivity).
const POLL_EVERY: u8 = 8;

/// Part B's reader: every [`POLL_EVERY`] own steps, read every register;
/// the writer is judged timely iff each read aborted or changed.
async fn detector(env: Rc<dyn Env>, regs: Vec<SharedAbortable<i64>>) {
    let mut prev = vec![Some(0); regs.len()];
    let (mut timely, mut polls) = (0, 0);
    loop {
        for _ in 0..POLL_EVERY {
            step().await;
        }
        let mut fresh_all = true;
        for (reg, prev) in regs.iter().zip(&mut prev) {
            let cur = reg.try_read(&*env).await.value();
            fresh_all &= cur.is_none() || cur != *prev;
            *prev = cur;
        }
        polls += 1;
        if fresh_all {
            timely += 1;
        }
        env.observe("timely_verdicts", 0, timely);
        env.observe("polls", 0, polls);
    }
}

/// Part A: n processes hammer one MWMR abortable register.
fn abort_rate(n: usize, steps: u64) -> (u64, u64, u64) {
    let factory = RegisterFactory::default();
    let reg = factory.abortable("R", 0i64);
    let mut b = SimBuilder::new();
    for p in 0..n {
        let pid = b.add_process(&format!("p{p}"));
        let reg = Rc::clone(&reg);
        b.add_stepper(
            pid,
            "hammer",
            Box::new(FutureTask::new(|env| hammer(env, reg))),
        );
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

    let writer_regs = regs.clone();
    b.add_stepper(
        writer,
        "hb",
        Box::new(FutureTask::new(|env| hb_writer(env, writer_regs))),
    );
    b.add_stepper(
        reader,
        "detect",
        Box::new(FutureTask::new(|env| detector(env, regs))),
    );

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
