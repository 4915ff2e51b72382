//! Deterministic overlap tests: drive two processes with a scripted
//! schedule so that register operations overlap (or don't) exactly as
//! planned, and check the abortable semantics at the boundary.

use std::rc::Rc;
use tbwf_registers::{
    AbortPolicy, EffectPolicy, ReadOutcome, RegisterFactory, RegisterFactoryConfig,
    SharedAbortable, WriteOutcome,
};
use tbwf_sim::schedule::Scripted;
use tbwf_sim::{step, Env, FutureTask, Local, ProcId, RunConfig, SimBuilder};

fn factory(abort: AbortPolicy, effect: EffectPolicy) -> RegisterFactory {
    RegisterFactory::new(RegisterFactoryConfig {
        seed: 1,
        abort_policy: abort,
        effect_policy: effect,
    })
}

/// One instruction of a [`Script`]: each takes one step (an operation's
/// response lands at the start of the following step).
#[derive(Clone, Copy)]
enum Ins {
    Write(i64),
    Read,
    Idle,
}

#[derive(Clone, Debug, PartialEq)]
enum Res {
    Wrote(WriteOutcome),
    Read(ReadOutcome<i64>),
}

/// A task running a fixed list of register instructions, then finishing;
/// every response is appended to `out`.
async fn run_ins(env: Rc<dyn Env>, reg: SharedAbortable<i64>, ins: Vec<Ins>, out: Local<Vec<Res>>) {
    let env = &*env;
    for ins in ins {
        let res = match ins {
            Ins::Write(v) => Res::Wrote(reg.try_write(env, v).await),
            Ins::Read => Res::Read(reg.try_read(env).await),
            Ins::Idle => {
                step().await;
                continue;
            }
        };
        out.update(|v| v.push(res));
    }
}

/// Runs a writer script on p0 and a reader script on p1 under the
/// repeating `script` schedule; returns each side's responses.
fn run(
    reg: SharedAbortable<i64>,
    writer: &[Ins],
    reader: &[Ins],
    script: Vec<ProcId>,
) -> (Vec<Res>, Vec<Res>) {
    let mut b = SimBuilder::new();
    let mut outs = Vec::new();
    for (name, ins) in [("writer", writer), ("reader", reader)] {
        let out = Local::new(Vec::new());
        let pid = b.add_process(&format!("p{}", outs.len()));
        let (reg, ins, task_out) = (Rc::clone(&reg), ins.to_vec(), out.clone());
        b.add_stepper(
            pid,
            name,
            Box::new(FutureTask::new(|env| run_ins(env, reg, ins, task_out))),
        );
        outs.push(out);
    }
    let report = b.build().run(RunConfig::new(30, Scripted::new(script)));
    report.assert_no_panics();
    (outs[0].get(), outs[1].get())
}

/// Schedule [p0, p1, p0, p1]: p0's write spans steps 0–2, p1's read spans
/// steps 1–3 ⇒ the intervals overlap ⇒ both abort under AlwaysOnOverlap.
#[test]
fn interleaved_ops_overlap_and_abort() {
    let f = factory(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
    // With the [p0, p1] script the read's invocation (p1's first step,
    // t=1) falls inside the write's [t=0, t=2] interval.
    let (w, r) = run(
        f.abortable("R", 0i64),
        &[Ins::Write(7)],
        &[Ins::Read],
        vec![ProcId(0), ProcId(1)],
    );
    assert_eq!(
        w,
        vec![Res::Wrote(WriteOutcome::Aborted)],
        "write must abort"
    );
    assert_eq!(r, vec![Res::Read(ReadOutcome::Aborted)], "read must abort");
    let (_, overlapped, aborted) = f.log().abort_stats();
    assert_eq!(overlapped, 2);
    assert_eq!(aborted, 2);
}

/// Same shape but the ops are strictly sequential (p0 finishes before p1
/// starts): nothing overlaps, nothing aborts, the read sees the write.
#[test]
fn sequential_ops_do_not_abort() {
    let f = factory(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
    // p0 takes both its steps before p1's read begins; p1 also burns
    // steps until the writer has definitely finished.
    let (w, r) = run(
        f.abortable("R", 0i64),
        &[Ins::Write(7)],
        &[Ins::Idle, Ins::Idle, Ins::Idle, Ins::Idle, Ins::Read],
        vec![ProcId(0), ProcId(0), ProcId(1)],
    );
    assert_eq!(w, vec![Res::Wrote(WriteOutcome::Ok)]);
    assert_eq!(r, vec![Res::Read(ReadOutcome::Value(7))]);
    let (_, overlapped, aborted) = f.log().abort_stats();
    assert_eq!(overlapped, 0);
    assert_eq!(aborted, 0);
}

/// The reader of the effect tests: a read racing the write, then (after
/// the writer is done) a solo read, which must succeed.
const RACE_THEN_SOLO: [Ins; 6] = [
    Ins::Read,
    Ins::Idle,
    Ins::Idle,
    Ins::Idle,
    Ins::Idle,
    Ins::Read,
];

/// EffectPolicy::Always: an aborted write *does* take effect — the writer
/// gets ⊥ but a later read sees the value (footnote 2 of the paper).
#[test]
fn aborted_write_may_take_effect() {
    let f = factory(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Always);
    let (w, r) = run(
        f.abortable("R", 0i64),
        &[Ins::Write(42)],
        &RACE_THEN_SOLO,
        vec![ProcId(0), ProcId(1)],
    );
    assert_eq!(
        w,
        vec![Res::Wrote(WriteOutcome::Aborted)],
        "writer must see ⊥"
    );
    assert_eq!(
        r.last(),
        Some(&Res::Read(ReadOutcome::Value(42))),
        "the aborted write must have taken effect"
    );
}

/// EffectPolicy::Never: the aborted write leaves the register unchanged.
#[test]
fn aborted_write_may_not_take_effect() {
    let f = factory(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
    let (w, r) = run(
        f.abortable("R", 0i64),
        &[Ins::Write(42)],
        &RACE_THEN_SOLO,
        vec![ProcId(0), ProcId(1)],
    );
    assert_eq!(w, vec![Res::Wrote(WriteOutcome::Aborted)]);
    assert_eq!(
        r.last(),
        Some(&Res::Read(ReadOutcome::Value(0))),
        "no effect expected"
    );
}
