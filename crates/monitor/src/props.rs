//! Executable versions of the six `A(p, q)` specification properties
//! (Definition 9 of the paper), evaluated over a finite run trace.
//!
//! The paper's properties quantify over infinite runs ("there is a time
//! after which …", "increases without bound"). On finite traces we use the
//! stabilization helpers of [`tbwf_sim::analysis`]: an *antecedent* such
//! as "eventually always `monitoring = on`" is taken to hold when the
//! input was in that state for at least [`ANTECEDENT_FRAC`]
//! of the run; the matching *consequent* must then hold for at least
//! [`CONSEQUENT_FRAC`] of the run (the gap leaves the
//! algorithm time to converge). Boundedness and unbounded growth use
//! [`bounded_suffix`] and [`increases_without_bound`].

use crate::Status;
use tbwf_sim::analysis::{bounded_suffix, increases_without_bound, stable_fraction};

/// Minimum final-streak fraction of the run for an input to count as
/// "eventually always" in that state.
pub const ANTECEDENT_FRAC: f64 = 0.25;
/// Minimum final-streak fraction of the run required of the output.
pub const CONSEQUENT_FRAC: f64 = 0.05;
/// Fraction of the run over which a "bounded" counter must be flat.
pub const BOUNDED_FRAC: f64 = 0.25;
/// Number of windows across which an "unbounded" counter must grow.
pub const GROWTH_WINDOWS: usize = 4;

/// Everything the checker needs to know about one `A(p, q)` pair in one
/// run. All series are `(time, value)` with the conventions of the crate
/// (`bool` inputs as 0/1, status as [`Status::code`]).
#[derive(Clone, Debug)]
pub struct PairRun {
    /// Total run length in steps.
    pub total_time: u64,
    /// Series of `monitoring_p[q]` (0/1).
    pub monitoring: Vec<(u64, i64)>,
    /// Series of `active-for_q[p]` (0/1).
    pub active_for: Vec<(u64, i64)>,
    /// Series of `status_p[q]` (codes).
    pub status: Vec<(u64, i64)>,
    /// Series of `faultCntr_p[q]`.
    pub fault: Vec<(u64, i64)>,
    /// Whether `q` crashed, and when.
    pub q_crash: Option<u64>,
    /// Whether `q` is `p`-timely in this run (measured or by design).
    pub q_p_timely: bool,
    /// Whether `p` is correct (the whole spec is conditional on this).
    pub p_correct: bool,
}

/// Verdict for one property.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PropVerdict {
    /// The property's antecedent is not satisfied by this run.
    NotApplicable,
    /// Antecedent satisfied and consequent observed.
    Holds,
    /// Antecedent satisfied but consequent violated.
    Violated,
}

impl PropVerdict {
    /// True unless the verdict is [`PropVerdict::Violated`].
    pub fn ok(self) -> bool {
        self != PropVerdict::Violated
    }
}

/// The verdicts for Properties 1–6 of Definition 9.
#[derive(Clone, Copy, Debug)]
pub struct PropReport {
    /// 1: eventually-always `monitoring = off` ⇒ eventually `status = ?`.
    pub p1: PropVerdict,
    /// 2: eventually-always `monitoring = on` ⇒ eventually `status ≠ ?`.
    pub p2: PropVerdict,
    /// 3: `q` crashes or eventually-always `active-for = off` ⇒ eventually
    ///    `status ≠ active`.
    pub p3: PropVerdict,
    /// 4: `q` `p`-timely and eventually-always `active-for = on` ⇒
    ///    eventually `status ≠ inactive`.
    pub p4: PropVerdict,
    /// 5: `faultCntr` bounded under any of conditions (a)–(d).
    pub p5: PropVerdict,
    /// 6: `faultCntr` increases without bound under conditions (a)–(d).
    pub p6: PropVerdict,
}

impl PropReport {
    /// Whether no property is violated.
    pub fn all_ok(&self) -> bool {
        [self.p1, self.p2, self.p3, self.p4, self.p5, self.p6]
            .iter()
            .all(|v| v.ok())
    }

    /// The list of violated property numbers.
    pub fn violations(&self) -> Vec<u8> {
        [self.p1, self.p2, self.p3, self.p4, self.p5, self.p6]
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.ok())
            .map(|(i, _)| i as u8 + 1)
            .collect()
    }
}

fn ev_always(series: &[(u64, i64)], total: u64, frac: f64, pred: impl Fn(i64) -> bool) -> bool {
    stable_fraction(series, total, pred) >= frac
}

/// Evaluates Properties 1–6 for one pair over one run.
pub fn check_pair(run: &PairRun) -> PropReport {
    let t = run.total_time;
    if !run.p_correct {
        // Definition 9 only constrains runs in which p is correct.
        let na = PropVerdict::NotApplicable;
        return PropReport {
            p1: na,
            p2: na,
            p3: na,
            p4: na,
            p5: na,
            p6: na,
        };
    }

    let mon_off = ev_always(&run.monitoring, t, ANTECEDENT_FRAC, |v| v == 0);
    let mon_on = ev_always(&run.monitoring, t, ANTECEDENT_FRAC, |v| v == 1);
    let act_off = ev_always(&run.active_for, t, ANTECEDENT_FRAC, |v| v == 0);
    let act_on = ev_always(&run.active_for, t, ANTECEDENT_FRAC, |v| v == 1);
    let q_crashed = run.q_crash.is_some();

    let verdict = |applicable: bool, holds: bool| {
        if !applicable {
            PropVerdict::NotApplicable
        } else if holds {
            PropVerdict::Holds
        } else {
            PropVerdict::Violated
        }
    };

    // Property 1.
    let p1 = verdict(
        mon_off,
        ev_always(&run.status, t, CONSEQUENT_FRAC, |v| {
            v == Status::Unknown.code()
        }),
    );
    // Property 2.
    let p2 = verdict(
        mon_on,
        ev_always(&run.status, t, CONSEQUENT_FRAC, |v| {
            v != Status::Unknown.code()
        }),
    );
    // Property 3. The consequent only speaks about status while it is
    // being produced; if monitoring is off the status is ? which also
    // satisfies "≠ active".
    let p3 = verdict(
        q_crashed || act_off,
        ev_always(&run.status, t, CONSEQUENT_FRAC, |v| {
            v != Status::Active.code()
        }),
    );
    // Property 4.
    let p4 = verdict(
        run.q_p_timely && act_on,
        ev_always(&run.status, t, CONSEQUENT_FRAC, |v| {
            v != Status::Inactive.code()
        }),
    );
    // Property 5: bounded under (a) q p-timely, (b) q crashes, (c)
    // eventually-always active-for = off, (d) eventually-always
    // monitoring = off.
    let p5_applicable = run.q_p_timely || q_crashed || act_off || mon_off;
    let p5 = verdict(p5_applicable, bounded_suffix(&run.fault, t, BOUNDED_FRAC));
    // Property 6: unbounded when q is correct but not p-timely while both
    // sides stay on.
    let p6_applicable = !run.q_p_timely && !q_crashed && act_on && mon_on;
    let p6 = verdict(
        p6_applicable,
        increases_without_bound(&run.fault, t, GROWTH_WINDOWS),
    );

    PropReport {
        p1,
        p2,
        p3,
        p4,
        p5,
        p6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_run() -> PairRun {
        PairRun {
            total_time: 1_000,
            monitoring: vec![(0, 1)],
            active_for: vec![(0, 1)],
            status: vec![(0, 0), (50, 1)],
            fault: vec![(0, 0), (20, 1), (40, 2)],
            q_crash: None,
            q_p_timely: true,
            p_correct: true,
        }
    }

    #[test]
    fn healthy_pair_satisfies_all() {
        let r = base_run();
        let rep = check_pair(&r);
        assert!(rep.all_ok(), "violations: {:?}", rep.violations());
        assert_eq!(rep.p2, PropVerdict::Holds);
        assert_eq!(rep.p4, PropVerdict::Holds);
        assert_eq!(rep.p5, PropVerdict::Holds);
        assert_eq!(rep.p6, PropVerdict::NotApplicable);
    }

    #[test]
    fn crashed_p_makes_everything_vacuous() {
        let mut r = base_run();
        r.p_correct = false;
        let rep = check_pair(&r);
        assert_eq!(rep.p1, PropVerdict::NotApplicable);
        assert!(rep.all_ok());
    }

    #[test]
    fn stuck_unknown_violates_p2() {
        let mut r = base_run();
        r.status = vec![(0, 0)]; // ? forever while monitoring on
        let rep = check_pair(&r);
        assert_eq!(rep.p2, PropVerdict::Violated);
        assert!(!rep.all_ok());
        assert_eq!(rep.violations(), vec![2]);
    }

    #[test]
    fn growing_fault_on_timely_q_violates_p5() {
        let mut r = base_run();
        r.fault = (0..20).map(|i| (i * 50, i as i64)).collect();
        let rep = check_pair(&r);
        assert_eq!(rep.p5, PropVerdict::Violated);
    }

    #[test]
    fn untimely_q_requires_growth() {
        let mut r = base_run();
        r.q_p_timely = false;
        r.status = vec![(0, 0), (50, 2)];
        // growing fault counter: p6 holds
        r.fault = (0..20).map(|i| (i * 50, i as i64)).collect();
        let rep = check_pair(&r);
        assert_eq!(rep.p6, PropVerdict::Holds);
        // flat fault counter: p6 violated
        r.fault = vec![(0, 0), (100, 3)];
        let rep = check_pair(&r);
        assert_eq!(rep.p6, PropVerdict::Violated);
    }

    #[test]
    fn crashed_q_applies_p3_and_p5() {
        let mut r = base_run();
        r.q_crash = Some(100);
        r.q_p_timely = false;
        r.status = vec![(0, 0), (50, 1), (150, 2)];
        r.fault = vec![(0, 0), (150, 1)];
        let rep = check_pair(&r);
        assert_eq!(rep.p3, PropVerdict::Holds);
        assert_eq!(rep.p5, PropVerdict::Holds);
        assert_eq!(rep.p6, PropVerdict::NotApplicable);
    }

    #[test]
    fn monitoring_off_requires_unknown() {
        let mut r = base_run();
        r.monitoring = vec![(0, 0)];
        r.status = vec![(0, 0)];
        r.fault = vec![(0, 0)];
        let rep = check_pair(&r);
        assert_eq!(rep.p1, PropVerdict::Holds);
        assert_eq!(rep.p2, PropVerdict::NotApplicable);
    }
}
