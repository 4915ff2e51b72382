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
use std::rc::Rc;
use tbwf_monitor::{ProcessMonitorHandles, Status};
use tbwf_registers::SharedAtomic;
use tbwf_sim::{step, Env, ProcId};

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
    /// The main task of Figure 3 (lines 1–21). The `activeset` and
    /// `counter` observations are trace-only diagnostics, recorded on
    /// change.
    pub async fn run(self, env: Rc<dyn Env>) {
        let env = &*env;
        let (p, n) = (self.p, self.n);
        let (leader_out, candidate) = (&self.handles.leader, &self.handles.candidate);
        let monitors = &self.monitors;
        let regs = &self.counter_regs;
        let others: Vec<ProcId> = (0..n).map(ProcId).filter(|&q| q != p).collect();
        // { Initial state }
        let mut fault_cntr = vec![0u64; n];
        let mut max_fault_cntr = vec![0u64; n];
        let mut counter = vec![0i64; n];
        let mut status = vec![Status::Unknown; n];
        let mut last_active_mask = -1i64;
        let mut last_counter_obs = vec![i64::MIN; n];
        // 1: repeat forever
        loop {
            // 2: LEADER ← ?
            set_leader(env, leader_out, None);
            // 3–4: stop monitoring and stop being active for everyone.
            for &q in &others {
                monitors.monitoring.set(q, false);
                monitors.active_for.set(q, false);
            }
            // 5: while CANDIDATE = false do skip
            while !candidate.get() {
                step().await;
            }
            // 6: for each q do MONITORING[q] ← on
            for &q in &others {
                monitors.monitoring.set(q, true);
            }
            // 7–8 (ablatable): self-punishment, raise own counter.
            if self.self_punish {
                let own = regs[p.0].read(env).await;
                regs[p.0].write(env, own + 1).await;
            }
            // 9: while CANDIDATE = true do (one step per iteration)
            while candidate.get() {
                step().await;
                // 10–11: consult A(p, q) until a non-? status for each q,
                // one step per retry. (Terminates: monitoring[q] is on, so
                // the A(p, q) task sets a non-? status after its next
                // register read.)
                for &q in &others {
                    loop {
                        status[q.0] = monitors.status.get(q);
                        fault_cntr[q.0] = monitors.fault.get(q);
                        if status[q.0] != Status::Unknown {
                            break;
                        }
                        step().await;
                    }
                }
                // footnote 6: the self pair is trivially active.
                status[p.0] = Status::Active;
                fault_cntr[p.0] = 0;
                // 12: activeSet ← {q : status[q] = active} ∪ {p}
                let active_set: Vec<ProcId> = (0..n)
                    .map(ProcId)
                    .filter(|&q| q == p || status[q.0] == Status::Active)
                    .collect();
                let mask = active_set.iter().fold(0i64, |m, q| m | (1 << q.0));
                if mask != last_active_mask {
                    last_active_mask = mask;
                    env.observe("activeset", 0, mask);
                }
                // 13: for each q do counter[q] ← READ(CounterRegister[q])
                for (q, reg) in regs.iter().enumerate() {
                    counter[q] = reg.read(env).await;
                    if counter[q] != last_counter_obs[q] {
                        last_counter_obs[q] = counter[q];
                        env.observe("counter", q as u32, counter[q]);
                    }
                }
                // 14: LEADER ← ℓ minimizing (counter[ℓ], ℓ) over activeSet
                let leader = *active_set
                    .iter()
                    .min_by_key(|&&q| (counter[q.0], q))
                    .expect("activeSet contains p");
                set_leader(env, leader_out, Some(leader));
                // 15–17: be active for others iff we believe we lead.
                for &q in &others {
                    monitors.active_for.set(q, leader == p);
                }
                // 18–21: punish processes whose fault counter grew: write
                // counter[q] + 1 and remember the new maximum.
                for &q in &others {
                    if fault_cntr[q.0] > max_fault_cntr[q.0] {
                        regs[q.0].write(env, counter[q.0] + 1).await;
                        max_fault_cntr[q.0] = fault_cntr[q.0];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::{run_omega_system, OmegaKind, OmegaSystemConfig};
    use crate::spec::{check_spec, OmegaRunData};
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
        let v = check_spec(&data, false);
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
        let v = check_spec(&data, false);
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
