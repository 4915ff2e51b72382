//! The classic failure detector **Ω** obtained from Ω∆ (Section 1.2,
//! final remark).
//!
//! "The implementation of Ω∆ using abortable registers implies that one
//! can implement Ω — a failure detector which is sufficient to solve
//! consensus — in a system with abortable registers and only one timely
//! process."
//!
//! Ω's interface is a single output per process, `leader_p ∈ Π`, such
//! that eventually every correct process permanently outputs the same
//! correct process. The reduction is the obvious one: every process is a
//! *permanent candidate* of Ω∆ (`candidate_p = true` forever); when Ω∆
//! outputs `?`, Ω repeats its previous estimate (Ω must always name
//! somebody). If at least one correct process is timely, Ω∆'s property 1
//! yields the required eventual agreement on a timely (hence correct)
//! leader.

use crate::drivers::add_candidate_driver;
use crate::harness::install_omega;
use crate::{CandidateScript, OmegaHandles, OmegaKind};
use std::rc::Rc;
use tbwf_registers::RegisterFactory;
use tbwf_sim::{step, Env, Local, ProcId, SimBuilder};

/// Observation key for the Ω output (always a process id).
pub const OBS_OMEGA: &str = "omega_leader";

/// The per-process Ω output.
#[derive(Clone)]
pub struct OmegaFdHandle {
    /// Current leader estimate (Ω always outputs *some* process).
    pub leader: Local<ProcId>,
}

/// The per-process adapter task: every step, copies a non-`?` Ω∆ leader
/// into the Ω output (which therefore holds its last estimate through
/// `?` phases).
async fn adapter(env: Rc<dyn Env>, leader_in: Local<Option<ProcId>>, leader_out: Local<ProcId>) {
    env.observe(OBS_OMEGA, 0, leader_out.get().0 as i64);
    loop {
        if let Some(l) = leader_in.get() {
            if l != leader_out.get() {
                leader_out.set(l);
                env.observe(OBS_OMEGA, 0, l.0 as i64);
            }
        }
        step().await;
    }
}

/// Installs the failure detector Ω for all `n` processes on top of the
/// chosen Ω∆ implementation. Every process permanently competes; a small
/// adapter task per process converts the Ω∆ output into Ω's
/// never-`?` output (holding the last estimate through `?` phases).
///
/// Returns the Ω output handles. The processes `0..n` must already exist
/// in `builder`.
pub fn install_omega_fd(
    builder: &mut SimBuilder,
    factory: &RegisterFactory,
    n: usize,
    kind: OmegaKind,
) -> Vec<OmegaFdHandle> {
    let delta_handles: Vec<OmegaHandles> = install_omega(builder, factory, n, kind);
    let mut fd_handles = Vec::with_capacity(n);
    for (p, dh) in delta_handles.iter().enumerate() {
        // Permanent candidacy: Π = the candidate set, forever.
        add_candidate_driver(builder, ProcId(p), dh, CandidateScript::Always);
        let out = OmegaFdHandle {
            leader: Local::new(ProcId(p)),
        };
        let (leader_in, leader_out) = (dh.leader.clone(), out.leader.clone());
        builder.spawn_task(ProcId(p), "omega-fd", |env| {
            adapter(env, leader_in, leader_out)
        });
        fd_handles.push(out);
    }
    fd_handles
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::{PartiallySynchronous, RoundRobin};
    use tbwf_sim::RunConfig;

    fn run_fd(
        n: usize,
        kind: OmegaKind,
        config: impl FnOnce() -> RunConfig,
    ) -> (Vec<OmegaFdHandle>, tbwf_sim::RunReport) {
        let factory = RegisterFactory::default();
        let mut b = SimBuilder::new();
        for p in 0..n {
            b.add_process(&format!("p{p}"));
        }
        let handles = install_omega_fd(&mut b, &factory, n, kind);
        let report = b.build().run(config());
        report.assert_no_panics();
        (handles, report)
    }

    #[test]
    fn omega_converges_with_all_timely() {
        for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
            let (handles, _) = run_fd(3, kind, || RunConfig::new(120_000, RoundRobin::new()));
            let l = handles[0].leader.get();
            for h in &handles {
                assert_eq!(h.leader.get(), l, "{kind:?}: Ω outputs disagree");
            }
        }
    }

    #[test]
    fn omega_works_with_a_single_timely_process() {
        // The remark of Section 1.2: Ω from abortable registers with only
        // one timely process. p0 is the only timely process; Ω must
        // converge on it at p0 itself (the others are too slow to matter
        // within the prefix, but must not corrupt p0's view).
        let (handles, _) = run_fd(3, OmegaKind::Abortable, || {
            RunConfig::new(300_000, PartiallySynchronous::new(vec![ProcId(0)], 4, true))
        });
        assert_eq!(handles[0].leader.get(), ProcId(0));
    }

    #[test]
    fn omega_replaces_a_crashed_leader() {
        let (handles, report) = run_fd(3, OmegaKind::Atomic, || {
            RunConfig::new(200_000, RoundRobin::new()).crash(30_000, ProcId(0))
        });
        let survivors = [1, 2];
        let l = handles[1].leader.get();
        assert_ne!(l, ProcId(0), "crashed process still named by Ω");
        for p in survivors {
            assert_eq!(handles[p].leader.get(), l, "survivors disagree");
        }
        assert!(report.trace.crash_time(ProcId(0)).is_some());
    }

    #[test]
    fn omega_output_is_never_unknown() {
        // Unlike Ω∆, Ω has no `?`: the adapter holds the last estimate.
        let (_, report) = run_fd(2, OmegaKind::Atomic, || {
            RunConfig::new(40_000, RoundRobin::new())
        });
        for p in 0..2 {
            for (_, v) in report.trace.obs_series(ProcId(p), OBS_OMEGA, 0) {
                assert!(v >= 0, "Ω emitted a non-process value {v}");
            }
        }
    }
}
