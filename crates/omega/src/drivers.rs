//! Candidate-input drivers: scripted tasks that flip `candidate_p` over
//! time, realizing the N/P/R candidacy classes of Definition 4 and the
//! canonical use of Definition 6.

use crate::{OmegaHandles, OBS_CANDIDATE};
use std::rc::Rc;
use tbwf_sim::{step, Env, Local, ProcId, SimBuilder};

/// A scripted candidacy pattern for one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateScript {
    /// Never competes (`Ncandidates` if it starts false).
    Never,
    /// Competes from the start, forever (`Pcandidates`).
    Always,
    /// Starts competing at time `t` and never stops (`Pcandidates`).
    From(u64),
    /// Competes until time `t`, then stops forever (`Ncandidates`).
    Until(u64),
    /// Alternates: candidate for `on` steps, not candidate for `off`
    /// steps, forever (`Rcandidates`).
    Blink {
        /// Steps spent as a candidate per cycle.
        on: u64,
        /// Steps spent not competing per cycle.
        off: u64,
    },
    /// Like `Blink`, but *canonical* (Definition 6): after leaving the
    /// competition, waits until `leader_p ≠ p` before re-entering.
    CanonicalBlink {
        /// Steps spent as a candidate per cycle.
        on: u64,
        /// Minimum steps spent out of the competition per cycle.
        off: u64,
    },
}

impl CandidateScript {
    fn desired(self, t: u64) -> Option<bool> {
        match self {
            CandidateScript::Never => Some(false),
            CandidateScript::Always => Some(true),
            CandidateScript::From(t0) => Some(t >= t0),
            CandidateScript::Until(t0) => Some(t < t0),
            CandidateScript::Blink { on, off } => Some(t % (on + off) < on),
            CandidateScript::CanonicalBlink { .. } => None, // stateful
        }
    }
}

/// `candidate_p ← v`, observed under [`OBS_CANDIDATE`] when it changes.
/// Every writer of a candidate input goes through it: the drivers here
/// and Figure 7.
pub fn set_candidate(env: &dyn Env, candidate: &Local<bool>, v: bool) {
    if candidate.get() != v {
        candidate.set(v);
        env.observe(OBS_CANDIDATE, 0, v as i64);
    }
}

/// Driver for the stateless scripts: every step sets `candidate` to the
/// value the script wants at the current time.
async fn scripted(env: Rc<dyn Env>, script: CandidateScript, candidate: Local<bool>) {
    env.observe(OBS_CANDIDATE, 0, candidate.get() as i64);
    loop {
        if let Some(v) = script.desired(env.now()) {
            set_candidate(&*env, &candidate, v);
        }
        step().await;
    }
}

/// Driver for [`CandidateScript::CanonicalBlink`] (Definition 6):
/// on-phase, off-phase, then wait out own leadership. A phase of length
/// 0 falls through without spending a step.
async fn canonical_blink(
    env: Rc<dyn Env>,
    (on, off): (u64, u64),
    candidate: Local<bool>,
    leader: Local<Option<ProcId>>,
) {
    let env = &*env;
    env.observe(OBS_CANDIDATE, 0, candidate.get() as i64);
    loop {
        set_candidate(env, &candidate, true);
        for _ in 0..on {
            step().await;
        }
        set_candidate(env, &candidate, false);
        for _ in 0..off {
            step().await;
        }
        // Definition 6 gate: re-enter only once `leader ≠ p`.
        while leader.get() == Some(env.pid()) {
            step().await;
        }
    }
}

/// Driver whose desired candidacy is an externally shared flag rather
/// than a time script: every step it copies the flag into `candidate_p`.
/// A nemesis flips the flag via a registered switch to realize
/// *fault-driven* candidacy churn.
async fn external(env: Rc<dyn Env>, desired: Local<bool>, candidate: Local<bool>) {
    env.observe(OBS_CANDIDATE, 0, candidate.get() as i64);
    loop {
        set_candidate(&*env, &candidate, desired.get());
        step().await;
    }
}

/// Adds a driver task for process `pid` whose candidacy follows a shared
/// *desired* flag (initially `initial`) instead of a time script.
///
/// Returns the flag; register it as a nemesis switch so `SetSwitch`
/// fault actions churn the process's candidacy mid-run. Changes take
/// effect on the driver's next step, like every scripted transition.
pub fn add_external_candidate_driver(
    b: &mut SimBuilder,
    pid: ProcId,
    handles: &OmegaHandles,
    initial: bool,
) -> Local<bool> {
    let desired = Local::new(initial);
    let (flag, candidate) = (desired.clone(), handles.candidate.clone());
    b.spawn_task(pid, "candidacy", |env| external(env, flag, candidate));
    desired
}

/// Adds a driver task for process `pid` that follows `script`, observing
/// every change of `candidate_p` into the trace.
///
/// # Panics
///
/// Panics if `script` is a `Blink` or `CanonicalBlink` with
/// `on = off = 0`: its cycle would be empty, so `Blink` has no phase to
/// be in and `CanonicalBlink` would loop without ever taking a step.
pub fn add_candidate_driver(
    b: &mut SimBuilder,
    pid: ProcId,
    handles: &OmegaHandles,
    script: CandidateScript,
) {
    if let CandidateScript::Blink { on, off } | CandidateScript::CanonicalBlink { on, off } = script
    {
        assert!(
            on > 0 || off > 0,
            "{script:?}: a blink cycle needs at least one step (on + off > 0)"
        );
    }
    let candidate = handles.candidate.clone();
    match script {
        CandidateScript::CanonicalBlink { on, off } => {
            let leader = handles.leader.clone();
            b.spawn_task(pid, "candidacy", move |env| {
                canonical_blink(env, (on, off), candidate, leader)
            });
        }
        script => b.spawn_task(pid, "candidacy", move |env| {
            scripted(env, script, candidate)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::RunConfig;

    fn run_script(script: CandidateScript, steps: u64) -> Vec<(u64, i64)> {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        let h = OmegaHandles::new();
        add_candidate_driver(&mut b, p, &h, script);
        let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
        report.assert_no_panics();
        report.trace.obs_series(ProcId(0), OBS_CANDIDATE, 0)
    }

    #[test]
    fn always_script_sets_true_once() {
        let s = run_script(CandidateScript::Always, 100);
        assert_eq!(s.first().map(|(_, v)| *v), Some(0));
        assert_eq!(s.last().map(|(_, v)| *v), Some(1));
        assert!(s.len() <= 2);
    }

    #[test]
    fn from_script_waits() {
        let s = run_script(CandidateScript::From(50), 200);
        let flip = s.iter().find(|(_, v)| *v == 1).map(|(t, _)| *t).unwrap();
        assert!(flip >= 50);
    }

    #[test]
    fn blink_script_oscillates() {
        let s = run_script(CandidateScript::Blink { on: 20, off: 20 }, 400);
        let ones = s.iter().filter(|(_, v)| *v == 1).count();
        let zeros = s.iter().filter(|(_, v)| *v == 0).count();
        assert!(ones >= 3, "expected several on-phases, got {ones}");
        assert!(zeros >= 3, "expected several off-phases, got {zeros}");
    }

    /// Installs `script` and runs a few steps: an empty blink cycle must
    /// be refused when the driver is added, never reached inside the run.
    fn install_and_run(script: CandidateScript) {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        let h = OmegaHandles::new();
        h.leader.set(Some(ProcId(1)));
        add_candidate_driver(&mut b, p, &h, script);
        b.build().run(RunConfig::new(10, RoundRobin::new()));
    }

    #[test]
    #[should_panic(expected = "Blink { on: 0, off: 0 }: a blink cycle needs at least one step")]
    fn empty_blink_cycle_is_refused() {
        install_and_run(CandidateScript::Blink { on: 0, off: 0 });
    }

    #[test]
    #[should_panic(
        expected = "CanonicalBlink { on: 0, off: 0 }: a blink cycle needs at least one step"
    )]
    fn empty_canonical_blink_cycle_is_refused() {
        install_and_run(CandidateScript::CanonicalBlink { on: 0, off: 0 });
    }

    #[test]
    fn canonical_blink_respects_leader_gate() {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        let h = OmegaHandles::new();
        // The process believes it is the leader forever: after its first
        // off-phase it must never become a candidate again.
        h.leader.set(Some(ProcId(0)));
        add_candidate_driver(
            &mut b,
            p,
            &h,
            CandidateScript::CanonicalBlink { on: 10, off: 5 },
        );
        let report = b.build().run(RunConfig::new(500, RoundRobin::new()));
        report.assert_no_panics();
        let s = report.trace.obs_series(ProcId(0), OBS_CANDIDATE, 0);
        // initial 0, one rise, one fall — then gated forever.
        let changes: Vec<i64> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(changes, vec![0, 1, 0]);
    }
}
