//! Figure 3: implementation of Ω∆ using activity monitors and atomic
//! registers (Theorems 11–12).
//!
//! Each process `p` ranks candidates by a shared `CounterRegister[q]`
//! (roughly: how many times `q` has been considered "bad" for leadership)
//! and elects the *active* process with the smallest `(counter, id)` pair.
//! Two punishment rules keep the ranking honest:
//!
//! * **self-punishment** — every time `p` (re-)becomes a candidate it
//!   increments its own counter (lines 7–8), so a process that joins and
//!   leaves forever cannot keep the smallest counter;
//! * **fault punishment** — when `A(p, q)` suspects `q` anew
//!   (`faultCntr[q]` grew), `p` increments `CounterRegister[q]`
//!   (lines 18–21), so non-timely processes drift out of contention.
//!
//! Line numbers in comments refer to Figure 3.

use crate::{set_leader, OmegaHandles};
use tbwf_monitor::{ProcessMonitorHandles, Status};
use tbwf_registers::{OpToken, SharedAtomic};
use tbwf_sim::{Control, Env, ProcId, StepCtx, Stepper};

/// The per-process state and code of the Figure 3 algorithm.
pub struct AtomicOmegaProcess {
    /// This process.
    pub p: ProcId,
    /// Number of processes.
    pub n: usize,
    /// The Ω∆ input/output handles.
    pub handles: OmegaHandles,
    /// This process's view of the activity-monitor mesh.
    pub monitors: ProcessMonitorHandles,
    /// `CounterRegister[q]` for every `q` (shared, multi-writer atomic).
    pub counter_regs: Vec<SharedAtomic<i64>>,
    /// **Ablation knob** (paper behavior: `true`). When `false`, lines
    /// 7–8 (the self-punishment on re-candidacy) are skipped. The paper:
    /// "Without this self-punishment, it is easy to find a scenario
    /// where r has the smallest CounterRegister and leadership oscillates
    /// forever between r and another process." See experiment E10.
    pub self_punish: bool,
}

impl AtomicOmegaProcess {
    /// The main task of Figure 3 as a [`Stepper`]: one
    /// [`step`](Stepper::step) runs the code between two consecutive steps
    /// of the loop, and register operations straddle a step boundary
    /// (invoke at the end of one segment, complete at the start of the
    /// next).
    pub fn into_stepper(self) -> AtomicOmegaStepper {
        let n = self.n;
        // { Initial state }
        AtomicOmegaStepper {
            fault_cntr: vec![0; n],
            max_fault_cntr: vec![0; n],
            counter: vec![0; n],
            status: vec![Status::Unknown; n],
            active_set: Vec::new(),
            last_active_mask: -1,
            last_counter_obs: vec![i64::MIN; n],
            state: AtomicState::Start,
            proc: self,
        }
    }
}

/// Where the Figure 3 control flow is parked between steps. Each variant
/// names the segment the *next* step executes; `Pending` variants carry
/// the token of a register operation invoked at the end of the previous
/// segment.
#[derive(Clone, Copy)]
enum AtomicState {
    /// Lines 1–5: top of the outer loop.
    Start,
    /// Line 5: waiting to become a candidate.
    WaitCand,
    /// Lines 7–8: the self-punishment read is in flight.
    SelfReadPending(OpToken),
    /// Lines 7–8: the self-punishment write is in flight.
    SelfWritePending(OpToken),
    /// Line 9's per-iteration step taken: run lines 10 onward.
    MainBody,
    /// Lines 10–11: waiting for a non-`?` status of `q`.
    StatusWait { q: usize },
    /// Line 13: the read of `CounterRegister[q]` is in flight.
    CounterRead { q: usize, tok: OpToken },
    /// Lines 18–21: the punishment write for `q` is in flight.
    PunishWrite { q: usize, tok: OpToken },
}

/// The Figure 3 main loop (lines 1–21) as a [`Stepper`] state machine.
/// Built with [`AtomicOmegaProcess::into_stepper`]. The `activeset` and
/// `counter` observations are trace-only diagnostics, recorded on change.
pub struct AtomicOmegaStepper {
    proc: AtomicOmegaProcess,
    fault_cntr: Vec<u64>,
    max_fault_cntr: Vec<u64>,
    counter: Vec<i64>,
    status: Vec<Status>,
    active_set: Vec<ProcId>,
    last_active_mask: i64,
    last_counter_obs: Vec<i64>,
    state: AtomicState,
}

impl AtomicOmegaStepper {
    fn others(&self) -> impl Iterator<Item = ProcId> + '_ {
        let p = self.proc.p;
        (0..self.proc.n).map(ProcId).filter(move |&q| q != p)
    }

    /// Lines 2–4, then fall through to the line-5 check.
    fn outer_top(&mut self, env: &dyn Env) {
        // 1: repeat forever
        // 2: LEADER ← ?
        set_leader(env, &self.proc.handles.leader, None);
        // 3–4: stop monitoring and stop being active for everyone.
        for q in self.others().collect::<Vec<_>>() {
            self.proc.monitors.monitoring.set(q, false);
            self.proc.monitors.active_for.set(q, false);
        }
        self.arm_or_wait(env);
    }

    /// Line 5; on candidacy, lines 6–8 and entry into the line-9 loop.
    fn arm_or_wait(&mut self, env: &dyn Env) {
        // 5: while CANDIDATE = false do skip (one step per iteration)
        if !self.proc.handles.candidate.get() {
            self.state = AtomicState::WaitCand;
            return;
        }
        // 6: for each q do MONITORING[q] ← on
        for q in self.others().collect::<Vec<_>>() {
            self.proc.monitors.monitoring.set(q, true);
        }
        // 7–8: self-punishment (ablatable): read own counter, write +1.
        if self.proc.self_punish {
            let p = self.proc.p.0;
            let tok = self.proc.counter_regs[p].invoke_read(env);
            self.state = AtomicState::SelfReadPending(tok);
        } else {
            self.loop_or_leave(env);
        }
    }

    /// The line-9 while-head check.
    fn loop_or_leave(&mut self, env: &dyn Env) {
        // 9: while CANDIDATE = true do (one step per iteration)
        if self.proc.handles.candidate.get() {
            self.state = AtomicState::MainBody;
        } else {
            self.outer_top(env);
        }
    }

    /// Lines 10–11 resumed at process `from`; on completion the footnote-6
    /// self pair, line 12, and the first line-13 read.
    fn scan_status_from(&mut self, env: &dyn Env, from: usize) {
        let p = self.proc.p.0;
        let n = self.proc.n;
        // 10–11: consult A(p, q) until a non-? status for each q, one
        // step per retry. (Terminates: monitoring[q] is on, so the A(p, q)
        // task sets a non-? status after its next register read.)
        let mut q = from;
        while q < n {
            if q == p {
                q += 1;
                continue;
            }
            self.status[q] = self.proc.monitors.status.get(ProcId(q));
            self.fault_cntr[q] = self.proc.monitors.fault.get(ProcId(q));
            if self.status[q] == Status::Unknown {
                self.state = AtomicState::StatusWait { q };
                return;
            }
            q += 1;
        }
        // footnote 6: the self pair is trivially active.
        self.status[p] = Status::Active;
        self.fault_cntr[p] = 0;
        // 12: activeSet ← {q : status[q] = active} ∪ {p}
        self.active_set = (0..n)
            .map(ProcId)
            .filter(|&q| q.0 == p || self.status[q.0] == Status::Active)
            .collect();
        let mask = self.active_set.iter().fold(0i64, |m, q| m | (1 << q.0));
        if mask != self.last_active_mask {
            self.last_active_mask = mask;
            env.observe("activeset", 0, mask);
        }
        // 13: for each q do counter[q] ← READ(CounterRegister[q]) —
        // the first invocation; `CounterRead` completes each and invokes
        // the next.
        let tok = self.proc.counter_regs[0].invoke_read(env);
        self.state = AtomicState::CounterRead { q: 0, tok };
    }

    /// Lines 14–17, then the line 18–21 punishment scan.
    fn elect_and_punish(&mut self, env: &dyn Env) {
        let p = self.proc.p;
        // 14: LEADER ← ℓ minimizing (counter[ℓ], ℓ) over activeSet
        let leader = *self
            .active_set
            .iter()
            .min_by_key(|&&q| (self.counter[q.0], q))
            .expect("activeSet contains p");
        set_leader(env, &self.proc.handles.leader, Some(leader));
        // 15–17: be active for others iff we believe we lead.
        let lead = leader == p;
        for q in self.others().collect::<Vec<_>>() {
            self.proc.monitors.active_for.set(q, lead);
        }
        self.punish_from(env, 0);
    }

    /// Lines 18–21 resumed at process `from`; on completion the line-9
    /// re-check.
    fn punish_from(&mut self, env: &dyn Env, from: usize) {
        let p = self.proc.p.0;
        // 18–21: punish processes whose fault counter grew: write
        // counter[q] + 1 and remember the new maximum.
        for q in from..self.proc.n {
            if q == p {
                continue;
            }
            if self.fault_cntr[q] > self.max_fault_cntr[q] {
                let tok = self.proc.counter_regs[q].invoke_write(env, self.counter[q] + 1);
                self.state = AtomicState::PunishWrite { q, tok };
                return;
            }
        }
        self.loop_or_leave(env);
    }
}

impl Stepper for AtomicOmegaStepper {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.state {
            AtomicState::Start => self.outer_top(env),
            AtomicState::WaitCand => self.arm_or_wait(env),
            AtomicState::SelfReadPending(tok) => {
                // 7–8: the read responds; write own + 1.
                let p = self.proc.p.0;
                let own = self.proc.counter_regs[p].complete_read(env, tok);
                let tok = self.proc.counter_regs[p].invoke_write(env, own + 1);
                self.state = AtomicState::SelfWritePending(tok);
            }
            AtomicState::SelfWritePending(tok) => {
                let p = self.proc.p.0;
                self.proc.counter_regs[p].complete_write(env, tok);
                self.loop_or_leave(env);
            }
            AtomicState::MainBody => self.scan_status_from(env, 0),
            AtomicState::StatusWait { q } => self.scan_status_from(env, q),
            AtomicState::CounterRead { q, tok } => {
                // 13: response for q.
                self.counter[q] = self.proc.counter_regs[q].complete_read(env, tok);
                if self.counter[q] != self.last_counter_obs[q] {
                    self.last_counter_obs[q] = self.counter[q];
                    env.observe("counter", q as u32, self.counter[q]);
                }
                if q + 1 < self.proc.n {
                    let tok = self.proc.counter_regs[q + 1].invoke_read(env);
                    self.state = AtomicState::CounterRead { q: q + 1, tok };
                } else {
                    self.elect_and_punish(env);
                }
            }
            AtomicState::PunishWrite { q, tok } => {
                // 18–21: the punishment write responds; record the new maximum.
                self.proc.counter_regs[q].complete_write(env, tok);
                self.max_fault_cntr[q] = self.fault_cntr[q];
                self.punish_from(env, q + 1);
            }
        }
        Control::Yield
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::{run_omega_system, OmegaKind, OmegaSystemConfig};
    use crate::spec::{check_spec, OmegaRunData, SpecParams};
    use crate::CandidateScript;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{ProcId, RunConfig};

    #[test]
    fn all_timely_permanent_candidates_elect_p0() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Atomic,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(60_000, RoundRobin::new()));
        out.report.assert_no_panics();
        let timely: Vec<ProcId> = (0..3).map(ProcId).collect();
        let data = OmegaRunData::from_trace(&out.report.trace, 3, &timely);
        let v = check_spec(&data, SpecParams::default(), false);
        assert!(v.ok, "spec failures: {:?}", v.failures);
        // With equal counters the smallest id wins.
        assert_eq!(v.elected, Some(ProcId(0)));
    }

    #[test]
    fn non_candidates_keep_unknown_leader() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Atomic,
            scripts: vec![
                CandidateScript::Always,
                CandidateScript::Always,
                CandidateScript::Never,
            ],
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(60_000, RoundRobin::new()));
        out.report.assert_no_panics();
        assert_eq!(out.handles[2].leader.get(), None);
        let timely: Vec<ProcId> = (0..3).map(ProcId).collect();
        let data = OmegaRunData::from_trace(&out.report.trace, 3, &timely);
        let v = check_spec(&data, SpecParams::default(), false);
        assert!(v.ok, "spec failures: {:?}", v.failures);
    }

    #[test]
    fn crashed_leader_is_replaced() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Atomic,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(
            &cfg,
            RunConfig::new(120_000, RoundRobin::new()).crash(20_000, ProcId(0)),
        );
        out.report.assert_no_panics();
        // p0 crashes; the survivors must converge on a new leader.
        assert_eq!(out.handles[1].leader.get(), Some(ProcId(1)));
        assert_eq!(out.handles[2].leader.get(), Some(ProcId(1)));
    }
}
