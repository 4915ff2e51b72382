//! Executable specification of Ω∆ (Definitions 4–5, Theorem 7).

use crate::{OBS_CANDIDATE, OBS_LEADER};
use tbwf_sim::analysis::{holds_infinitely_often, stable_fraction, value_at};
use tbwf_sim::{ProcId, Trace};

/// The time of the last `leader` output change at any correct process —
/// the election's convergence time on a converged run (used by E2, E3
/// and E11).
pub fn convergence_time(trace: &Trace, n: usize) -> u64 {
    (0..n)
        .map(ProcId)
        .filter(|p| trace.is_correct(*p))
        .filter_map(|p| trace.obs_series(p, OBS_LEADER, 0).last().map(|(t, _)| *t))
        .max()
        .unwrap_or(0)
}

/// The candidacy class of a correct process in a run (Definition 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CandidateClass {
    /// `Ncandidates`: eventually always `candidate = false`.
    Never,
    /// `Pcandidates`: eventually always `candidate = true`.
    Permanent,
    /// `Rcandidates`: `candidate` is both true and false infinitely often.
    Repeated,
    /// The finite trace does not decide the class (should not happen with
    /// the driver scripts used in this workspace).
    Unclassified,
}

/// Final-streak fraction of the run for which a `candidate` series must
/// hold one value to classify the process as an N or P candidate.
pub const CLASS_FRAC: f64 = 0.3;
/// Number of windows in which an R candidate's `candidate` must be both
/// true and false (the finite-trace "infinitely often").
pub const IO_WINDOWS: usize = 3;
/// Final-streak fraction of the run for which a leader output must hold
/// its converged value.
pub const CONSEQUENT_FRAC: f64 = 0.05;

/// Classifies one correct process from its `candidate` series.
pub fn classify_candidate(series: &[(u64, i64)], total_time: u64) -> CandidateClass {
    if stable_fraction(series, total_time, |v| v == 0) >= CLASS_FRAC {
        return CandidateClass::Never;
    }
    if stable_fraction(series, total_time, |v| v == 1) >= CLASS_FRAC {
        return CandidateClass::Permanent;
    }
    let io_true = holds_infinitely_often(series, total_time, IO_WINDOWS, |v| v == 1);
    let io_false = holds_infinitely_often(series, total_time, IO_WINDOWS, |v| v == 0);
    if io_true && io_false {
        return CandidateClass::Repeated;
    }
    CandidateClass::Unclassified
}

/// Everything the spec checker needs about one run of Ω∆.
#[derive(Clone, Debug)]
pub struct OmegaRunData {
    /// Number of processes.
    pub n: usize,
    /// Run length in steps.
    pub total_time: u64,
    /// `candidate_p` series per process.
    pub candidate: Vec<Vec<(u64, i64)>>,
    /// `leader_p` series per process (`? = −1`).
    pub leader: Vec<Vec<(u64, i64)>>,
    /// Which processes crashed.
    pub crashed: Vec<bool>,
    /// Which processes are timely (by schedule design or measurement).
    pub timely: Vec<bool>,
}

impl OmegaRunData {
    /// Extracts the run data from a trace (observation conventions of this
    /// crate) plus the timely set.
    pub fn from_trace(trace: &Trace, n: usize, timely: &[ProcId]) -> Self {
        let total_time = trace.len() as u64;
        OmegaRunData {
            n,
            total_time,
            candidate: (0..n)
                .map(|p| trace.obs_series(ProcId(p), OBS_CANDIDATE, 0))
                .collect(),
            leader: (0..n)
                .map(|p| trace.obs_series(ProcId(p), OBS_LEADER, 0))
                .collect(),
            crashed: (0..n).map(|p| !trace.is_correct(ProcId(p))).collect(),
            timely: (0..n).map(|p| timely.contains(&ProcId(p))).collect(),
        }
    }

    /// The candidacy class of each process (crashed ⇒ `None`).
    pub fn classes(&self) -> Vec<Option<CandidateClass>> {
        (0..self.n)
            .map(|p| {
                if self.crashed[p] {
                    None
                } else {
                    Some(classify_candidate(&self.candidate[p], self.total_time))
                }
            })
            .collect()
    }
}

/// Instant-wise leader agreement after stabilization: from time `from`
/// on, any two correct timely processes that both output a *concrete*
/// leader (not `?`) must name the same process. Returns one message per
/// disagreeing pair (first disagreement only).
///
/// `from` must be a genuine stabilization point — after the last fault
/// has played out plus a re-convergence margin — since a leader change
/// (crash, churn) legitimately reaches the processes at different times.
/// The E12 gauntlet guarantees this for `settle`; the model checker
/// derives `from` from its decision window.
pub fn agreement_violations(data: &OmegaRunData, from: u64) -> Vec<String> {
    let procs: Vec<usize> = (0..data.n)
        .filter(|&p| !data.crashed[p] && data.timely[p])
        .collect();
    // Only leader-output changes can create or resolve a disagreement,
    // so checking at each observation time ≥ `from` (plus `from` itself)
    // is exhaustive over the suffix.
    let mut times: Vec<u64> = procs
        .iter()
        .flat_map(|&p| data.leader[p].iter().map(|&(t, _)| t))
        .filter(|&t| t >= from)
        .collect();
    times.push(from);
    times.sort_unstable();
    times.dedup();
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for &t in &times {
        for (i, &p) in procs.iter().enumerate() {
            for &q in &procs[i + 1..] {
                let (a, b) = (
                    value_at(&data.leader[p], t).unwrap_or(-1),
                    value_at(&data.leader[q], t).unwrap_or(-1),
                );
                if a >= 0 && b >= 0 && a != b && seen.insert((p, q)) {
                    out.push(format!(
                        "leader disagreement at t = {t}: leader_p{p} = p{a} but leader_p{q} = p{b}"
                    ));
                }
            }
        }
    }
    out
}

/// Result of checking Definition 5 (or Theorem 7) on one run.
#[derive(Clone, Debug)]
pub struct OmegaVerdict {
    /// Whether every applicable clause held.
    pub ok: bool,
    /// The elected leader, when condition 1 applied.
    pub elected: Option<ProcId>,
    /// Human-readable failures.
    pub failures: Vec<String>,
    /// The candidacy classes that were inferred.
    pub classes: Vec<Option<CandidateClass>>,
}

/// Checks Definition 5 on a run. With `canonical = true` it checks the
/// stronger Theorem 7 instead (the elected leader must be a *permanent*
/// timely candidate).
pub fn check_spec(data: &OmegaRunData, canonical: bool) -> OmegaVerdict {
    let classes = data.classes();
    let mut failures = Vec::new();

    let in_class = |p: usize, c: CandidateClass| classes[p] == Some(c);
    let p_and_timely: Vec<usize> = (0..data.n)
        .filter(|&p| in_class(p, CandidateClass::Permanent) && data.timely[p])
        .collect();

    let mut elected = None;
    if !p_and_timely.is_empty() {
        // Condition 1: some timely candidate ℓ is eventually elected.
        // Infer ℓ from the final leader value of the lowest-id process in
        // Pcandidates ∩ Timely (clause (b) forces them all to agree).
        let witness = p_and_timely[0];
        let lval = data.leader[witness].last().map(|(_, v)| *v).unwrap_or(-1);
        if lval < 0 {
            failures.push(format!(
                "p{witness} ∈ Pcandidates ∩ Timely ends with leader = ? (no election)"
            ));
        } else {
            let l = lval as usize;
            elected = Some(ProcId(l));
            // ℓ must be a timely (P ∪ R)-candidate; under canonical use, a
            // timely P-candidate (Theorem 7).
            let class_ok = if canonical {
                in_class(l, CandidateClass::Permanent)
            } else {
                in_class(l, CandidateClass::Permanent) || in_class(l, CandidateClass::Repeated)
            };
            if !class_ok {
                failures.push(format!(
                    "elected p{l} has class {:?}, not allowed (canonical = {canonical})",
                    classes[l]
                ));
            }
            if !data.timely[l] {
                failures.push(format!("elected p{l} is not timely"));
            }
            // (a) eventually always leader_ℓ = ℓ.
            if stable_fraction(&data.leader[l], data.total_time, |v| v == l as i64)
                < CONSEQUENT_FRAC
            {
                failures.push(format!("leader_p{l} does not stabilize to p{l}"));
            }
            // (b) every P-candidate converges to ℓ.
            for p in 0..data.n {
                if in_class(p, CandidateClass::Permanent)
                    && stable_fraction(&data.leader[p], data.total_time, |v| v == l as i64)
                        < CONSEQUENT_FRAC
                {
                    failures.push(format!(
                        "leader_p{p} (P-candidate) does not stabilize to p{l}"
                    ));
                }
            }
            // (c) every R-candidate converges into {?, ℓ}.
            for p in 0..data.n {
                if in_class(p, CandidateClass::Repeated)
                    && stable_fraction(&data.leader[p], data.total_time, |v| {
                        v == -1 || v == l as i64
                    }) < CONSEQUENT_FRAC
                {
                    failures.push(format!(
                        "leader_p{p} (R-candidate) leaves {{?, p{l}}} near the end"
                    ));
                }
            }
        }
    }

    // Condition 2: every N-candidate ends with leader = ?.
    for p in 0..data.n {
        if in_class(p, CandidateClass::Never) {
            let series = &data.leader[p];
            let ok = if series.is_empty() {
                true // never observed a change from the initial `?`
            } else {
                stable_fraction(series, data.total_time, |v| v == -1) >= CONSEQUENT_FRAC
            };
            if !ok {
                failures.push(format!("leader_p{p} (N-candidate) does not return to ?"));
            }
        }
    }

    OmegaVerdict {
        ok: failures.is_empty(),
        elected,
        failures,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(v: i64) -> Vec<(u64, i64)> {
        vec![(0, v)]
    }

    #[test]
    fn classification_basics() {
        assert_eq!(
            classify_candidate(&steady(1), 1000),
            CandidateClass::Permanent
        );
        assert_eq!(classify_candidate(&steady(0), 1000), CandidateClass::Never);
        let blink: Vec<(u64, i64)> = (0..20).map(|i| (i * 50, (i % 2) as i64)).collect();
        assert_eq!(classify_candidate(&blink, 1000), CandidateClass::Repeated);
    }

    fn two_proc_data(leader0: Vec<(u64, i64)>, leader1: Vec<(u64, i64)>) -> OmegaRunData {
        OmegaRunData {
            n: 2,
            total_time: 1000,
            candidate: vec![steady(1), steady(1)],
            leader: vec![leader0, leader1],
            crashed: vec![false, false],
            timely: vec![true, true],
        }
    }

    #[test]
    fn agreement_on_lowest_counter_leader_passes() {
        let d = two_proc_data(vec![(0, -1), (100, 0)], vec![(0, -1), (120, 0)]);
        let v = check_spec(&d, false);
        assert!(v.ok, "failures: {:?}", v.failures);
        assert_eq!(v.elected, Some(ProcId(0)));
    }

    #[test]
    fn disagreement_fails() {
        let d = two_proc_data(vec![(0, 0)], vec![(0, 1)]);
        let v = check_spec(&d, false);
        assert!(!v.ok);
        assert!(v.failures.iter().any(|f| f.contains("does not stabilize")));
    }

    #[test]
    fn no_election_for_timely_p_candidate_fails() {
        let d = two_proc_data(vec![(0, -1)], vec![(0, -1)]);
        let v = check_spec(&d, false);
        assert!(!v.ok);
    }

    #[test]
    fn n_candidates_must_end_unknown() {
        let mut d = two_proc_data(vec![(0, 0)], vec![(0, 0)]);
        d.candidate[1] = steady(0); // p1 never candidates…
        d.leader[1] = vec![(0, 0)]; // …but still outputs a leader forever
        let v = check_spec(&d, false);
        assert!(!v.ok);
        assert!(v.failures.iter().any(|f| f.contains("N-candidate")));
    }

    #[test]
    fn canonical_rejects_repeated_leader() {
        let mut d = two_proc_data(vec![(0, 1)], vec![(0, 1)]);
        // p1 (the elected one) is an R-candidate.
        d.candidate[1] = (0..20).map(|i| (i * 50, (i % 2) as i64)).collect();
        let lax = check_spec(&d, false);
        assert!(lax.ok, "Def 5 allows an R leader: {:?}", lax.failures);
        let strict = check_spec(&d, true);
        assert!(!strict.ok, "Thm 7 forbids an R leader");
    }

    #[test]
    fn agreement_violations_finds_post_settle_splits() {
        // Agreement holds from t = 500 on…
        let d = two_proc_data(vec![(0, 0)], vec![(0, 1), (400, 0)]);
        assert!(agreement_violations(&d, 500).is_empty());
        // …but not from t = 300 (p1 still names p1 at 300).
        let v = agreement_violations(&d, 300);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("t = 300"), "got {v:?}");
        // `?` outputs never disagree with anyone.
        let q = two_proc_data(vec![(0, 0)], vec![(0, -1)]);
        assert!(agreement_violations(&q, 0).is_empty());
        // Crashed and non-timely processes are exempt.
        let mut c = two_proc_data(vec![(0, 0)], vec![(0, 1)]);
        c.crashed[1] = true;
        assert!(agreement_violations(&c, 0).is_empty());
    }

    #[test]
    fn empty_system_without_timely_p_only_checks_condition2() {
        let mut d = two_proc_data(vec![(0, -1)], vec![(0, -1)]);
        d.candidate = vec![steady(0), steady(0)];
        let v = check_spec(&d, false);
        assert!(v.ok, "failures: {:?}", v.failures);
        assert_eq!(v.elected, None);
    }
}
