//! The simulation runner: builds processes/tasks and executes a run.
//!
//! A run is one totally ordered sequence of steps, executed on the
//! thread calling [`Sim::run`]. The tasks of a process share one env,
//! and every env shares the run's single state (clock, crash flags,
//! observation log), so observations are logged in execution order as
//! they happen.

use crate::ids::ProcId;
use crate::nemesis::{FaultAction, FaultEvent, FaultPlan, FaultTarget, Nemesis, Trigger};
use crate::schedule::{Schedule, ScheduleView};
use crate::step::{Control, RunState, StepCtx, StepEnv, Stepper};
use crate::trace::{StepLog, Trace};
use std::panic::AssertUnwindSafe;
use std::rc::Rc;

struct TaskSpec {
    name: String,
    stepper: Box<dyn Stepper>,
}

struct ProcSpec {
    name: String,
    tasks: Vec<TaskSpec>,
}

/// Builder for a simulated system.
///
/// Add processes, then add one or more tasks to each; `build` wires them
/// to the run's shared state (clock, crash flags and observation log).
#[derive(Default)]
pub struct SimBuilder {
    procs: Vec<ProcSpec>,
}

impl SimBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a process and returns its id (ids are assigned in order).
    pub fn add_process(&mut self, name: &str) -> ProcId {
        self.procs.push(ProcSpec {
            name: name.to_string(),
            tasks: Vec::new(),
        });
        ProcId(self.procs.len() - 1)
    }

    /// Adds a task to process `pid`.
    ///
    /// The scheduler drives the stepper by direct [`Stepper::step`] calls
    /// on the thread executing [`Sim::run`]; see the [`step`](mod@crate::step)
    /// module for the contract.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not returned by [`SimBuilder::add_process`].
    pub fn add_stepper(&mut self, pid: ProcId, name: &str, stepper: Box<dyn Stepper>) {
        self.procs[pid.0].tasks.push(TaskSpec {
            name: name.to_string(),
            stepper,
        });
    }

    /// Number of processes added so far.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Wires every task to the run's shared state, and returns the
    /// runnable system.
    ///
    /// # Panics
    ///
    /// Panics if any process has no tasks, or if there are more than
    /// [`StepLog::MAX_PROCS`] (256) processes: the run record stores each
    /// step's process id in one byte.
    pub fn build(self) -> Sim {
        assert!(
            self.procs.len() <= StepLog::MAX_PROCS,
            "{} processes exceed the simulator's limit of {}",
            self.procs.len(),
            StepLog::MAX_PROCS
        );
        let run = RunState::new(self.procs.len());
        let mut procs = Vec::with_capacity(self.procs.len());
        for (pi, spec) in self.procs.into_iter().enumerate() {
            assert!(!spec.tasks.is_empty(), "process {} has no tasks", spec.name);
            let tasks = spec
                .tasks
                .into_iter()
                .map(|t| TaskRt {
                    name: t.name,
                    stepper: t.stepper,
                    exited: false,
                    finished: false,
                    panic: None,
                })
                .collect();
            procs.push(ProcRt {
                name: spec.name,
                tasks,
                env: StepEnv::new(ProcId(pi), Rc::clone(&run)),
                cursor: 0,
                crashed: false,
            });
        }
        Sim { procs, run }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

struct TaskRt {
    name: String,
    stepper: Box<dyn Stepper>,
    exited: bool,
    /// Exited by returning [`Control::Done`] (vs. by panicking).
    finished: bool,
    panic: Option<String>,
}

struct ProcRt {
    name: String,
    tasks: Vec<TaskRt>,
    /// The env every task of the process runs against (and async task
    /// bodies hold a handle to).
    env: Rc<StepEnv>,
    /// The task to try first at the process's next step (`< tasks.len()`).
    cursor: usize,
    crashed: bool,
}

impl ProcRt {
    fn runnable(&self) -> bool {
        !self.crashed && self.tasks.iter().any(|t| !t.exited)
    }
}

/// Configuration of a single run: the step budget, the schedule and the
/// fault plan. Every fault, a planned crash included, goes through the
/// run's [`Nemesis`].
pub struct RunConfig {
    max_steps: u64,
    schedule: Box<dyn Schedule>,
    nemesis: Option<Nemesis>,
}

impl RunConfig {
    /// Creates a run of at most `max_steps` global steps under `schedule`,
    /// with no faults.
    pub fn new(max_steps: u64, schedule: impl Schedule + 'static) -> Self {
        RunConfig {
            max_steps,
            schedule: Box::new(schedule),
            nemesis: None,
        }
    }

    /// Adds a crash of `p` at time `t`: appends `At(t) → Crash(Proc(p))`
    /// to the run's fault plan (to an empty [`Nemesis`] if there is none
    /// yet). From time `t` on, `p` is never scheduled again.
    ///
    /// # Panics
    ///
    /// Panics if the plan already crashes `p` at a fixed time: a process
    /// crashes at most once in the paper's model (no crash-recovery), and
    /// a silent duplicate would hide a misconfigured experiment.
    /// Out-of-range ids are caught by [`Sim::run`], which knows the system
    /// size.
    #[must_use]
    pub fn crash(mut self, t: u64, p: ProcId) -> Self {
        let nem = self
            .nemesis
            .get_or_insert_with(|| Nemesis::new(FaultPlan::new()));
        push_event(
            nem,
            FaultEvent {
                trigger: Trigger::At(t),
                action: FaultAction::Crash(FaultTarget::Proc(p.0)),
            },
        );
        self
    }

    /// Attaches a nemesis to the run. What is already planned on this
    /// configuration (by [`RunConfig::crash`] or an earlier
    /// `with_nemesis`) is merged into `nemesis`, so the order of the calls
    /// does not matter: the earlier events are appended to its plan, and
    /// the earlier switches, dials, gauges and schedule control are kept
    /// where `nemesis` registers none of the same name.
    ///
    /// # Panics
    ///
    /// Panics, as [`RunConfig::crash`] does, if the merged plan would
    /// crash one process at two fixed times.
    #[must_use]
    pub fn with_nemesis(mut self, mut nemesis: Nemesis) -> Self {
        if let Some(earlier) = self.nemesis.take() {
            for e in nemesis.absorb(earlier) {
                push_event(&mut nemesis, e);
            }
        }
        self.nemesis = Some(nemesis);
        self
    }
}

/// Appends `event` to `nem`'s plan, panicking on a second fixed-time crash
/// of one process (see [`RunConfig::crash`]).
fn push_event(nem: &mut Nemesis, event: FaultEvent) {
    if let (Trigger::At(_), FaultAction::Crash(FaultTarget::Proc(p))) =
        (&event.trigger, &event.action)
    {
        assert!(
            !nem.plan()
                .events
                .iter()
                .any(|e| matches!(e.trigger, Trigger::At(_)) && e.action == event.action),
            "duplicate crash of process {p} in the fault plan"
        );
    }
    nem.push(event);
}

/// How a task ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskOutcome {
    /// Still running when the run ended (normal for the paper's
    /// `repeat forever` algorithms).
    Halted,
    /// The task returned [`Control::Done`] before the run ended.
    Finished,
    /// The task panicked; the message is attached.
    Panicked(String),
}

/// Per-process summary of a run.
#[derive(Clone, Debug)]
pub struct ProcReport {
    /// Process name given at build time.
    pub name: String,
    /// Outcome of each task, in creation order.
    pub tasks: Vec<(String, TaskOutcome)>,
}

/// The result of a run: the trace plus per-process outcomes.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The recorded trace.
    pub trace: Trace,
    /// Per-process reports, indexed by process id.
    pub procs: Vec<ProcReport>,
}

impl RunReport {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Panics if any task panicked, reporting all panic messages.
    pub fn assert_no_panics(&self) {
        let mut msgs = Vec::new();
        for (p, pr) in self.procs.iter().enumerate() {
            for (tname, out) in &pr.tasks {
                if let TaskOutcome::Panicked(m) = out {
                    msgs.push(format!("p{p}/{tname}: {m}"));
                }
            }
        }
        assert!(msgs.is_empty(), "task panics: {msgs:?}");
    }
}

/// A built system, ready to run once.
pub struct Sim {
    procs: Vec<ProcRt>,
    /// Shared with every task env: the clock, the crash flags registers
    /// consult (see [`crate::Env::is_crashed`]) and the observation log.
    run: Rc<RunState>,
}

impl Sim {
    /// Executes the run to completion and returns the report.
    ///
    /// The run ends when `max_steps` steps have been taken or no process is
    /// runnable. Tasks still running then are simply never polled again.
    ///
    /// # Panics
    ///
    /// Panics before the first step if the fault plan is invalid
    /// (out-of-range targets, a planned crash of a process outside the
    /// system included; unregistered switch/dial/gauge names; schedule
    /// actions without a [`ScheduleCtl`](crate::schedule::ScheduleCtl)).
    pub fn run(mut self, mut config: RunConfig) -> RunReport {
        let n = self.procs.len();
        if let Some(nem) = &config.nemesis {
            if let Err(e) = nem.validate(n) {
                panic!("invalid fault plan: {e}");
            }
        }
        // Pre-size the step record from the step budget, capped at 4 MiB:
        // huge budgets (the E11 n = 64 sweep asks for ~1.6e8 steps) grow it
        // as they go. Observations are rare next to steps, so their log is
        // not pre-sized at all.
        let mut steps = StepLog::with_capacity((config.max_steps as usize).min(1 << 22));
        let mut crashes_applied: Vec<(u64, ProcId)> = Vec::new();
        // The runnable mask is built once and then kept equal to
        // `ProcRt::runnable()` for every process: it can only change when a
        // process crashes (`crash` below) or its last task exits (an
        // ungranted slot), so the hot loop never rescans all n processes.
        let mut runnable: Vec<bool> = self.procs.iter().map(ProcRt::runnable).collect();
        // `validate` range-checks only fixed targets: a crash whose victim
        // is an observed value (`FaultTarget::ObsValue`) may name a process
        // outside the system, and is then ignored.
        let mut crash = |procs: &mut [ProcRt], runnable: &mut [bool], t: u64, cp: ProcId| {
            if cp.0 < n && !procs[cp.0].crashed {
                procs[cp.0].crashed = true;
                runnable[cp.0] = false;
                self.run.crashed[cp.0].set(true);
                crashes_applied.push((t, cp));
            }
        };
        // Scratch buffer reused across steps (the hot loop allocates
        // nothing per iteration): the crashes a nemesis poll requests.
        let mut nem_crashes: Vec<ProcId> = Vec::new();

        for t in 0..config.max_steps {
            if let Some(nem) = config.nemesis.as_mut() {
                nem.poll_pre(t, &mut nem_crashes);
                for cp in nem_crashes.drain(..) {
                    crash(&mut self.procs, &mut runnable, t, cp);
                }
            }
            debug_assert!(
                runnable
                    .iter()
                    .zip(&self.procs)
                    .all(|(&flag, proc)| flag == proc.runnable()),
                "maintained runnable mask diverged at t = {t}"
            );
            let view = ScheduleView {
                n,
                runnable: &runnable,
                time: t,
            };
            if !view.any_runnable() {
                break;
            }
            let mut p = config.schedule.next(&view);
            if p.0 >= n || !runnable[p.0] {
                p = view.next_runnable_from(p.0).expect("some process runnable");
            }
            // Rotate to the process's next live task and grant one step.
            let watch_obs = config.nemesis.as_ref().is_some_and(|nm| nm.wants_obs());
            let proc = &mut self.procs[p.0];
            let ntasks = proc.tasks.len();
            let mut granted = false;
            // Where the granted task's observations start in the log. Marked
            // before each attempt, so a task that exits in this slot (its
            // `Done` segment may observe) is not reported as the step's.
            let mut obs_mark = 0;
            self.run.now.set(t);
            let mut next_ti = proc.cursor;
            for _ in 0..ntasks {
                let ti = next_ti;
                next_ti = if ti + 1 == ntasks { 0 } else { ti + 1 };
                let task = &mut proc.tasks[ti];
                if task.exited {
                    continue;
                }
                obs_mark = self.run.obs.borrow().len();
                let (stepper, env) = (&mut task.stepper, &*proc.env);
                let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    stepper.step(&mut StepCtx::new(env))
                }));
                match step {
                    Ok(Control::Yield) => {
                        proc.cursor = next_ti;
                        granted = true;
                        break;
                    }
                    Ok(Control::Done) => {
                        task.exited = true;
                        task.finished = true;
                    }
                    Err(p) => {
                        task.exited = true;
                        task.panic = Some(panic_message(&*p));
                    }
                }
            }
            if granted {
                steps.push(p);
                if let Some(nem) = config.nemesis.as_mut() {
                    let obs = self.run.obs.borrow();
                    let step_obs = if watch_obs { &obs[obs_mark..] } else { &[] };
                    nem.poll_post(t, p, step_obs, &mut nem_crashes);
                    for cp in nem_crashes.drain(..) {
                        crash(&mut self.procs, &mut runnable, t, cp);
                    }
                }
            } else {
                // No task of p could take a step (all just exited): the
                // time slot is skipped and p leaves the mask. A task exit
                // followed by another task's step leaves p runnable.
                runnable[p.0] = proc.runnable();
            }
        }

        let mut reports = Vec::with_capacity(n);
        for proc in &self.procs {
            let mut touts = Vec::new();
            for task in &proc.tasks {
                let outcome = if let Some(m) = &task.panic {
                    TaskOutcome::Panicked(m.clone())
                } else if task.exited && task.finished {
                    TaskOutcome::Finished
                } else {
                    TaskOutcome::Halted
                };
                touts.push((task.name.clone(), outcome));
            }
            reports.push(ProcReport {
                name: proc.name.clone(),
                tasks: touts,
            });
        }

        let trace = Trace {
            steps,
            obs: self.run.obs.take(),
            crashes: crashes_applied,
            injections: config
                .nemesis
                .as_mut()
                .map(|nm| nm.take_injections())
                .unwrap_or_default(),
        };
        RunReport {
            trace,
            procs: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{RoundRobin, Scripted};

    /// Yields forever without observing anything.
    struct Spin;

    impl Stepper for Spin {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Control {
            Control::Yield
        }
    }

    /// Yields `.0` times, then finishes.
    struct Countdown(u64);

    impl Stepper for Countdown {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Control {
            if self.0 == 0 {
                return Control::Done;
            }
            self.0 -= 1;
            Control::Yield
        }
    }

    /// Observes `("task", 0, .0)` on every step, forever.
    struct Tagger(i64);

    impl Stepper for Tagger {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
            ctx.observe("task", 0, self.0);
            Control::Yield
        }
    }

    fn spinners(n: usize) -> SimBuilder {
        let mut b = SimBuilder::new();
        for p in 0..n {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "main", Box::new(Spin));
        }
        b
    }

    #[test]
    fn round_robin_run_is_deterministic() {
        struct Clock;
        impl Stepper for Clock {
            fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
                ctx.observe("t", 0, ctx.now() as i64);
                Control::Yield
            }
        }
        let build = || {
            let mut b = SimBuilder::new();
            for p in 0..3 {
                let pid = b.add_process(&format!("p{p}"));
                b.add_stepper(pid, "main", Box::new(Clock));
            }
            b.build()
        };
        let r1 = build().run(RunConfig::new(300, RoundRobin::new()));
        let r2 = build().run(RunConfig::new(300, RoundRobin::new()));
        r1.assert_no_panics();
        assert_eq!(r1.trace.steps, r2.trace.steps);
        assert_eq!(r1.trace.obs, r2.trace.obs);
        assert_eq!(r1.trace.step_counts(3), vec![100, 100, 100]);
    }

    #[test]
    fn crash_stops_scheduling() {
        let report = spinners(2)
            .build()
            .run(RunConfig::new(100, RoundRobin::new()).crash(10, ProcId(1)));
        report.assert_no_panics();
        let counts = report.trace.step_counts(2);
        assert!(counts[1] <= 6, "crashed process kept stepping: {counts:?}");
        assert!(counts[0] >= 90);
        assert_eq!(report.trace.crashes, vec![(10, ProcId(1))]);
        // The crash is an event of the run's fault plan.
        assert_eq!(
            report.trace.injections,
            vec![crate::nemesis::InjectionRecord {
                time: 10,
                event: 0,
                desc: "crash p1".to_string(),
            }]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate crash of process 1 in the fault plan")]
    fn a_duplicate_crash_panics() {
        let _ = RunConfig::new(100, RoundRobin::new())
            .crash(10, ProcId(1))
            .crash(20, ProcId(1));
    }

    #[test]
    #[should_panic(expected = "duplicate crash of process 1 in the fault plan")]
    fn a_duplicate_crash_panics_when_the_nemesis_comes_second() {
        let plan = FaultPlan::new().with(Trigger::At(20), FaultAction::Crash(FaultTarget::Proc(1)));
        let _ = RunConfig::new(100, RoundRobin::new())
            .crash(10, ProcId(1))
            .with_nemesis(Nemesis::new(plan));
    }

    #[test]
    fn an_observed_victim_outside_the_system_is_ignored() {
        // p1 observes 7 on its first step; the plan crashes "process 7".
        let plan = FaultPlan::new().with(
            Trigger::OnObs {
                at: 0,
                key: "task".into(),
            },
            FaultAction::Crash(FaultTarget::ObsValue),
        );
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "main", Box::new(Spin));
        let p1 = b.add_process("p1");
        b.add_stepper(p1, "tag", Box::new(Tagger(7)));
        let report = b
            .build()
            .run(RunConfig::new(20, RoundRobin::new()).with_nemesis(Nemesis::new(plan)));
        report.assert_no_panics();
        assert!(report.trace.crashes.is_empty());
        assert_eq!(report.trace.step_counts(2), vec![10, 10]);
        assert_eq!(report.trace.injections[0].desc, "crash p7");
    }

    #[test]
    fn a_second_nemesis_keeps_the_first_ones_registrations() {
        use crate::local::Local;
        let switch = Local::new(false);
        let mut first = Nemesis::new(FaultPlan::new().with(
            Trigger::At(3),
            FaultAction::SetSwitch {
                switch: "s".into(),
                on: true,
            },
        ));
        first.register_switch("s", switch.clone());
        let config = RunConfig::new(10, RoundRobin::new())
            .with_nemesis(first)
            .with_nemesis(Nemesis::new(FaultPlan::new()));
        let report = spinners(1).build().run(config);
        assert!(switch.get());
        assert_eq!(report.trace.injections[0].desc, "switch s := true");
    }

    #[test]
    #[should_panic(expected = "invalid fault plan: event 0: target process 2 out of range (n=2)")]
    fn a_crash_outside_the_system_panics_in_run() {
        let _ = spinners(2)
            .build()
            .run(RunConfig::new(100, RoundRobin::new()).crash(10, ProcId(2)));
    }

    #[test]
    fn crashes_and_a_nemesis_compose_in_either_order() {
        let nemesis = || {
            let plan = FaultPlan::new().with(
                Trigger::OnObs {
                    at: 20,
                    key: "task".into(),
                },
                FaultAction::Crash(FaultTarget::Stepper),
            );
            Nemesis::new(plan)
        };
        let run = |config: RunConfig| {
            let mut b = SimBuilder::new();
            for p in 0..3 {
                let pid = b.add_process(&format!("p{p}"));
                b.add_stepper(pid, "tag", Box::new(Tagger(p as i64)));
            }
            b.build().run(config)
        };
        let config = || RunConfig::new(60, RoundRobin::new());
        let crash_first = run(config().crash(5, ProcId(0)).with_nemesis(nemesis()));
        let nemesis_first = run(config().with_nemesis(nemesis()).crash(5, ProcId(0)));
        // p0 crashes at 5, then p2 and p1 alternate: p1's step at 20 fires
        // the OnObs crash.
        let want = vec![(5, ProcId(0)), (20, ProcId(1))];
        assert_eq!(crash_first.trace.crashes, want);
        assert_eq!(nemesis_first.trace.crashes, want);
        assert_eq!(crash_first.trace.steps, nemesis_first.trace.steps);
        assert_eq!(crash_first.trace.injections, nemesis_first.trace.injections);
    }

    #[test]
    fn finished_tasks_are_skipped() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "short", Box::new(Countdown(1)));
        b.add_stepper(p0, "long", Box::new(Spin));
        let report = b.build().run(RunConfig::new(50, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.procs[0].tasks[0].1, TaskOutcome::Finished);
        assert_eq!(report.procs[0].tasks[1].1, TaskOutcome::Halted);
        // All 50 steps were taken by p0 (its long task keeps running).
        assert_eq!(report.trace.step_counts(1), vec![50]);
    }

    #[test]
    fn tasks_of_one_process_rotate() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        for t in 0..2 {
            b.add_stepper(p0, &format!("t{t}"), Box::new(Tagger(t)));
        }
        let report = b.build().run(RunConfig::new(10, RoundRobin::new()));
        report.assert_no_panics();
        let series = report.trace.obs_series(ProcId(0), "task", 0);
        let vals: Vec<i64> = series.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals.len(), 10);
        // strict alternation 0,1,0,1,...
        for w in vals.windows(2) {
            assert_ne!(w[0], w[1], "tasks must alternate: {vals:?}");
        }
    }

    #[test]
    fn scripted_schedule_is_followed() {
        let script = vec![ProcId(1), ProcId(1), ProcId(0)];
        let report = spinners(2)
            .build()
            .run(RunConfig::new(9, Scripted::new(script)));
        let got: Vec<usize> = report.trace.steps.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![1, 1, 0, 1, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn scripted_nonrunnable_decision_falls_back() {
        // A script naming a crashed process: the runner falls back to the
        // next runnable process at or after the named id, wrapping.
        let report = spinners(3)
            .build()
            .run(RunConfig::new(6, Scripted::new(vec![ProcId(1)])).crash(0, ProcId(1)));
        report.assert_no_panics();
        let got: Vec<usize> = report.trace.steps.iter().map(|p| p.0).collect();
        // Fallback from id 1 finds p2 first (1 is crashed), every slot.
        assert_eq!(got, vec![2, 2, 2, 2, 2, 2]);
    }

    /// Observes the step index, yields `yields` times, then finishes.
    struct CountingStepper {
        yields: u64,
        done: u64,
    }

    impl Stepper for CountingStepper {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
            if self.done < self.yields {
                ctx.observe("i", 0, self.done as i64);
                self.done += 1;
                Control::Yield
            } else {
                ctx.observe("final", 0, -1);
                Control::Done
            }
        }
    }

    #[test]
    fn stepper_tasks_run_without_threads() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(
            p0,
            "count",
            Box::new(CountingStepper { yields: 5, done: 0 }),
        );
        let report = b.build().run(RunConfig::new(100, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.procs[0].tasks[0].1, TaskOutcome::Finished);
        // 5 yields = 5 counted steps; the Done segment is not counted.
        assert_eq!(report.trace.len(), 5);
        assert_eq!(report.trace.obs_series(p0, "i", 0).len(), 5);
        // The final (Done) segment still gets to observe.
        assert_eq!(report.trace.last_value(p0, "final", 0), Some(-1));
    }

    #[test]
    fn stepper_panic_is_reported_not_propagated() {
        struct Bomb;
        impl Stepper for Bomb {
            fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Control {
                panic!("fizzle");
            }
        }
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "bomb", Box::new(Bomb));
        let p1 = b.add_process("p1");
        b.add_stepper(p1, "good", Box::new(Spin));
        let report = b.build().run(RunConfig::new(30, RoundRobin::new()));
        match &report.procs[0].tasks[0].1 {
            TaskOutcome::Panicked(m) => assert!(m.contains("fizzle")),
            o => panic!("expected panic outcome, got {o:?}"),
        }
        assert_eq!(report.procs[1].tasks[0].1, TaskOutcome::Halted);
    }

    #[test]
    fn runnable_mask_tracks_crashes_and_exits_in_the_same_slot() {
        use crate::schedule::{DecisionLog, Tapped};
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "m", Box::new(CountingStepper { yields: 2, done: 0 }));
        let p1 = b.add_process("p1");
        b.add_stepper(
            p1,
            "short",
            Box::new(CountingStepper { yields: 1, done: 0 }),
        );
        b.add_stepper(p1, "long", Box::new(CountingStepper { yields: 4, done: 0 }));
        let p2 = b.add_process("p2");
        b.add_stepper(p2, "countdown", Box::new(Countdown(3)));
        for p in 3..5 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "spin", Box::new(Spin));
        }
        // Slot 10: the plan crashes p3 while p0's only task finishes.
        // Slot 11: p1's short task finishes, its long task takes the step,
        // and that step's observation makes the nemesis crash p4 post-step.
        // Slot 14: p2's countdown task returns.
        let plan = FaultPlan::new().with(
            Trigger::OnObs {
                at: 11,
                key: "i".into(),
            },
            FaultAction::Crash(FaultTarget::Proc(4)),
        );
        let log = DecisionLog::new(0..1000);
        let config = RunConfig::new(1000, Tapped::new(RoundRobin::new(), log.clone()))
            .crash(10, ProcId(3))
            .with_nemesis(Nemesis::new(plan));
        let report = b.build().run(config);
        report.assert_no_panics();
        let got: Vec<usize> = report.trace.steps.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 1, 2, 1, 1]);
        assert_eq!(report.trace.crashes, vec![(10, ProcId(3)), (11, ProcId(4))]);
        // The mask each decision saw; after slot 16 nothing is runnable and
        // the run ends with 984 steps of budget left.
        let masks: Vec<(u64, u64)> = log
            .snapshot()
            .iter()
            .map(|d| (d.time, d.runnable))
            .collect();
        let mut want: Vec<(u64, u64)> = (0..10).map(|t| (t, 0b11111)).collect();
        want.extend([(10, 0b10111), (11, 0b10110), (12, 0b110), (13, 0b110)]);
        want.extend([(14, 0b110), (15, 0b10), (16, 0b10)]);
        assert_eq!(masks, want);
        let outcomes: Vec<Vec<TaskOutcome>> = report
            .procs
            .iter()
            .map(|pr| pr.tasks.iter().map(|(_, o)| o.clone()).collect())
            .collect();
        use TaskOutcome::{Finished, Halted};
        assert_eq!(
            outcomes,
            vec![
                vec![Finished],
                vec![Finished, Finished],
                vec![Finished],
                vec![Halted],
                vec![Halted]
            ]
        );
    }

    #[test]
    fn trace_obs_keeps_recording_order_across_tasks_and_processes() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "tag", Box::new(Tagger(10)));
        b.add_stepper(
            p0,
            "count",
            Box::new(CountingStepper { yields: 1, done: 0 }),
        );
        let p1 = b.add_process("p1");
        b.add_stepper(p1, "tag", Box::new(Tagger(20)));
        let report = b.build().run(RunConfig::new(8, RoundRobin::new()));
        report.assert_no_panics();
        let got: Vec<(u64, usize, &str, i64)> = report
            .trace
            .obs
            .iter()
            .map(|o| (o.time, o.proc.0, o.key, o.value))
            .collect();
        // At t = 6 p0's second task observes in its `Done` segment, then
        // its first task takes the step and observes at the same time.
        let want = vec![
            (0, 0, "task", 10),
            (1, 1, "task", 20),
            (2, 0, "i", 0),
            (3, 1, "task", 20),
            (4, 0, "task", 10),
            (5, 1, "task", 20),
            (6, 0, "final", -1),
            (6, 0, "task", 10),
            (7, 1, "task", 20),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn on_obs_sees_only_the_granted_tasks_observations() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(
            p0,
            "count",
            Box::new(CountingStepper { yields: 1, done: 0 }),
        );
        b.add_stepper(p0, "tag", Box::new(Tagger(10)));
        for p in 1..3 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "spin", Box::new(Spin));
        }
        let on = |key: &str| Trigger::OnObs {
            at: 0,
            key: key.into(),
        };
        let crash = |p| FaultAction::Crash(FaultTarget::Proc(p));
        let plan = FaultPlan::new()
            .with(on("final"), crash(1))
            .with(on("i"), crash(2));
        let config = RunConfig::new(9, RoundRobin::new()).with_nemesis(Nemesis::new(plan));
        let report = b.build().run(config);
        report.assert_no_panics();
        // The "i" step at t = 0 crashes p2. At t = 4 p0's counting task
        // observes "final" as it exits and its tagging task takes the step:
        // that step observed only "task", so the "final" trigger never fires.
        assert!(report
            .trace
            .obs
            .iter()
            .any(|o| (o.time, o.key) == (4, "final")));
        assert_eq!(report.trace.crashes, vec![(0, ProcId(2))]);
    }

    #[test]
    fn build_accepts_256_processes() {
        let report = spinners(256)
            .build()
            .run(RunConfig::new(512, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.trace.step_counts(256), vec![2; 256]);
        assert_eq!(report.trace.steps.iter().next_back(), Some(ProcId(255)));
    }

    #[test]
    #[should_panic(expected = "257 processes exceed the simulator's limit of 256")]
    fn build_refuses_257_processes() {
        let _ = spinners(257).build();
    }

    #[test]
    fn run_ends_when_everyone_finishes() {
        let mut b = SimBuilder::new();
        for p in 0..2 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "main", Box::new(Countdown(5)));
        }
        let report = b.build().run(RunConfig::new(10_000, RoundRobin::new()));
        report.assert_no_panics();
        assert!(report.trace.len() <= 12);
        for pr in &report.procs {
            assert_eq!(pr.tasks[0].1, TaskOutcome::Finished);
        }
    }
}
