//! Property tests: the timeliness analyzer against brute-force
//! enumerations of Definition 1, the one-pass measured timely set over a
//! one-byte-per-step `StepLog` against its per-process definition over a
//! `Vec<ProcId>`, and the `StepLog` round trip.

use proptest::prelude::*;
use proptest::strategy::TestRng;
use tbwf_sim::timeliness::{
    is_timely_windowed, measured_timely_set, q_timely_bound, timely_bound, windowed_bounds,
};
use tbwf_sim::{ProcId, StepLog};

/// Brute force for Definition 1: the minimal `i ≥ 1` such that every
/// contiguous interval containing `i` steps of `q` has at least one step
/// of `p` — computed by enumerating all intervals.
fn brute_q_timely_bound(steps: &[ProcId], p: ProcId, q: ProcId) -> u64 {
    let n = steps.len();
    let mut worst = 0u64; // max q-steps in a p-free interval
    for lo in 0..n {
        let mut qs = 0u64;
        for s in &steps[lo..] {
            if *s == p {
                break;
            }
            if *s == q {
                qs += 1;
            }
            worst = worst.max(qs);
        }
    }
    worst + 1
}

fn brute_timely_bound(steps: &[ProcId], p: ProcId) -> u64 {
    let n = steps.len();
    let mut worst = 0u64;
    for lo in 0..n {
        let mut len = 0u64;
        for s in &steps[lo..] {
            if *s == p {
                break;
            }
            len += 1;
            worst = worst.max(len);
        }
    }
    worst + 1
}

fn steps_strategy() -> impl Strategy<Value = Vec<ProcId>> {
    prop::collection::vec(0usize..4, 0..60).prop_map(|v| v.into_iter().map(ProcId).collect())
}

proptest! {
    #[test]
    fn q_timely_bound_matches_brute_force(steps in steps_strategy(), p in 0usize..4, q in 0usize..4) {
        prop_assume!(p != q);
        let fast = q_timely_bound(&steps, ProcId(p), ProcId(q));
        let brute = brute_q_timely_bound(&steps, ProcId(p), ProcId(q));
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn timely_bound_matches_brute_force(steps in steps_strategy(), p in 0usize..4) {
        let fast = timely_bound(&steps, ProcId(p));
        let brute = brute_timely_bound(&steps, ProcId(p));
        prop_assert_eq!(fast, brute);
    }

    /// Bounds are at least 1 and at most the trace length + 1.
    #[test]
    fn bounds_are_in_range(steps in steps_strategy(), p in 0usize..4) {
        let b = timely_bound(&steps, ProcId(p));
        prop_assert!(b >= 1);
        prop_assert!(b as usize <= steps.len() + 1);
    }

    /// A process that takes every step has bound exactly 1.
    #[test]
    fn solo_process_has_bound_one(len in 1usize..50) {
        let steps = vec![ProcId(2); len];
        prop_assert_eq!(timely_bound(&steps, ProcId(2)), 1);
    }

    /// Appending more steps of p never increases p's bound beyond the
    /// old bound plus nothing — monotonicity: the bound over a prefix is
    /// at most the bound over the full trace when the suffix is all-p.
    #[test]
    fn all_p_suffix_never_hurts(steps in steps_strategy(), p in 0usize..4, extra in 1usize..10) {
        let base = timely_bound(&steps, ProcId(p));
        let mut longer = steps.clone();
        longer.extend(std::iter::repeat_n(ProcId(p), extra));
        let b = timely_bound(&longer, ProcId(p));
        prop_assert!(b <= base, "suffix of p-steps increased the bound: {b} > {base}");
    }

    /// Windowed bounds never exceed the whole-trace bound + window edge
    /// effects are bounded by the window content itself.
    #[test]
    fn windowed_bounds_are_local(steps in steps_strategy(), p in 0usize..4, w in 1usize..6) {
        let bounds = windowed_bounds(&steps, ProcId(p), w);
        prop_assert_eq!(bounds.len(), if steps.is_empty() { w } else { steps.len().div_ceil(steps.len().div_ceil(w)) });
        for b in bounds {
            prop_assert!(b >= 1);
        }
    }
}

/// The definition `measured_timely_set` must reproduce: every process not
/// crashed that `is_timely_windowed` (4 windows, factor 2) accepts, read
/// from the plain `Vec<ProcId>` rather than the byte record.
fn reference_timely_set(steps: &[ProcId], n: usize, crashed: &[ProcId]) -> Vec<ProcId> {
    (0..n)
        .map(ProcId)
        .filter(|p| !crashed.contains(p))
        .filter(|&p| is_timely_windowed(steps, p, 4, 2.0))
        .collect()
}

/// A random trace case: `(n, steps, crashed)`.
type TraceCase = (usize, Vec<ProcId>, Vec<ProcId>);

/// Random traces of 0–300 steps over n = 1–6 processes. Step ids run up
/// to `n` (one past the last process: a gap step for everyone). One
/// process, the victim, is shaped three ways: left as drawn, faded out
/// after a cut point, or given silences that double, so that both
/// verdicts occur.
fn trace_case_strategy() -> impl Strategy<Value = TraceCase> {
    (
        (1usize..7, prop::collection::vec(0usize..7, 0..301)),
        (0usize..3, 0usize..6, 1usize..8),
        0u64..64,
    )
        .prop_map(|((n, raw), (shape, victim, knob), crash_mask)| {
            let v = victim % n;
            let ids = raw.iter().map(|&r| r % (n + 1));
            let steps: Vec<usize> = match shape {
                0 => ids.collect(),
                // Fade: no step of v after the first knob/8 of the trace.
                1 => {
                    let cut = raw.len() * knob / 8;
                    ids.enumerate()
                        .map(|(i, s)| {
                            if i >= cut && s == v {
                                (v + 1) % (n + 1)
                            } else {
                                s
                            }
                        })
                        .collect()
                }
                // Doubling silences: v, then `knob` others, v, then 2·knob
                // others, ... with the fillers drawn from the raw ids.
                _ => {
                    let mut fillers = ids.map(|s| if s == v { n } else { s });
                    let mut out = Vec::with_capacity(raw.len());
                    let mut gap = knob;
                    while out.len() < raw.len() {
                        out.push(v);
                        out.extend(fillers.by_ref().take(gap));
                        gap *= 2;
                    }
                    out.truncate(raw.len());
                    out
                }
            };
            let crashed = (0..n)
                .filter(|p| crash_mask >> p & 1 == 1)
                .map(ProcId)
                .collect();
            (n, steps.into_iter().map(ProcId).collect(), crashed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one-pass measured timely set equals the per-process reference.
    #[test]
    fn measured_timely_set_matches_reference((n, steps, crashed) in trace_case_strategy()) {
        let log: StepLog = steps.iter().copied().collect();
        prop_assert_eq!(
            measured_timely_set(&log, n, &crashed),
            reference_timely_set(&steps, n, &crashed)
        );
    }

    /// A `StepLog` gives back exactly the ids it was built from.
    #[test]
    fn step_log_round_trips(ids in prop::collection::vec(0usize..256, 0..300)) {
        let steps: Vec<ProcId> = ids.iter().copied().map(ProcId).collect();
        let log: StepLog = steps.iter().copied().collect();
        prop_assert_eq!(log.len(), steps.len());
        prop_assert_eq!(log.is_empty(), steps.is_empty());
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), steps.clone());
        prop_assert_eq!(log.iter().rev().collect::<Vec<_>>(), steps.iter().rev().copied().collect::<Vec<_>>());
        prop_assert_eq!(&log, &log.clone());
        prop_assert_eq!(log.iter().collect::<StepLog>(), log.clone());
        prop_assert_eq!(format!("{log:?}"), format!("{steps:?}"));
        // Changing any one step makes the logs differ.
        if let Some(&first) = ids.first() {
            let changed: StepLog = std::iter::once(ProcId((first + 1) % 256))
                .chain(steps[1..].iter().copied())
                .collect();
            prop_assert_ne!(changed, log);
        }
    }
}

#[test]
#[should_panic(expected = "step of process 256 does not fit in a byte")]
fn step_log_refuses_ids_past_a_byte() {
    let _: StepLog = [ProcId(255), ProcId(256)].into_iter().collect();
}

/// The generated traces reach both verdicts and crash processes, so the
/// equivalence above is not vacuous.
#[test]
fn trace_cases_reach_both_verdicts() {
    let mut rng = TestRng::new(0x7131e1);
    let (mut timely, mut untimely, mut crashed_seen) = (0, 0, 0);
    for _ in 0..512 {
        let (n, steps, crashed) = trace_case_strategy().generate(&mut rng);
        crashed_seen += crashed.len();
        for p in (0..n).map(ProcId) {
            if is_timely_windowed(&steps, p, 4, 2.0) {
                timely += 1;
            } else {
                untimely += 1;
            }
        }
    }
    assert!(
        timely > 100 && untimely > 100 && crashed_seen > 100,
        "timely {timely}, untimely {untimely}, crashed {crashed_seen}"
    );
}

#[test]
fn measured_timely_set_edge_cases() {
    let ids = |v: &[usize]| v.iter().map(|&i| ProcId(i)).collect::<Vec<_>>();
    // p0's last-window bound (4) is exactly twice its first (2): accepted
    // by the f64 `<=`.
    let log = |v: &[ProcId]| v.iter().copied().collect::<StepLog>();
    let exact = ids(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1]);
    assert_eq!(measured_timely_set(&log(&exact), 2, &[]), ids(&[0, 1]));
    // w = 3 but the last window has 1 step: p0's only tail step lies in
    // the window before it.
    let reach_back = ids(&[0, 1, 0, 1, 0, 1, 0, 0, 1, 1]);
    assert_eq!(measured_timely_set(&log(&reach_back), 2, &[]), ids(&[0, 1]));
    let cases = [
        // empty trace: nobody is timely
        (3, vec![]),
        // too short for 4 windows: 1, 2, 3 and 5 steps (5 gives 3 windows)
        (2, ids(&[1])),
        (2, ids(&[0, 1])),
        (3, ids(&[2, 0, 1])),
        (2, ids(&[0, 1, 0, 1, 1])),
        // step ids >= n are gap steps
        (2, ids(&[0, 5, 2, 0, 2, 2, 0, 9, 1, 0, 2, 0])),
        (2, exact),
        (2, reach_back),
    ];
    for (n, steps) in &cases {
        for crashed in [vec![], vec![ProcId(0)]] {
            assert_eq!(
                measured_timely_set(&log(steps), *n, &crashed),
                reference_timely_set(steps, *n, &crashed),
                "n = {n}, steps = {steps:?}, crashed = {crashed:?}"
            );
        }
    }
}
