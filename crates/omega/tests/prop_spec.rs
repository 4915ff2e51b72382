//! Property tests: the candidacy classifier and spec checker.

use proptest::prelude::*;
use tbwf_omega::{check_spec, classify_candidate, CandidateClass, OmegaRunData};

proptest! {
    /// A series that ends in a long true-streak classifies Permanent.
    #[test]
    fn long_true_suffix_is_permanent(flips in prop::collection::vec((0u64..400, 0i64..2), 0..10)) {
        let mut series: Vec<(u64, i64)> = flips;
        series.sort_by_key(|(t, _)| *t);
        series.dedup_by_key(|(t, _)| *t);
        series.push((500, 1)); // long final true streak over [500, 1000)
        let c = classify_candidate(&series, 1000);
        prop_assert_eq!(c, CandidateClass::Permanent);
    }

    /// A regular blink classifies Repeated regardless of phase.
    #[test]
    fn regular_blink_is_repeated(period in 20u64..120, phase in 0u64..50) {
        let mut series = Vec::new();
        let mut t = phase;
        let mut v = 1i64;
        while t < 1000 {
            series.push((t, v));
            v = 1 - v;
            t += period;
        }
        prop_assume!(series.len() >= 8);
        let c = classify_candidate(&series, 1000);
        prop_assert_eq!(c, CandidateClass::Repeated);
    }

    /// The checker accepts any run in which all P-candidates converge to
    /// the same timely P-candidate and N-candidates end with `?`.
    #[test]
    fn checker_accepts_consistent_runs(n in 2usize..6, leader in 0usize..6, conv in 1u64..300) {
        let leader = leader % n;
        let data = OmegaRunData {
            n,
            total_time: 1000,
            candidate: (0..n).map(|_| vec![(0, 1)]).collect(),
            leader: (0..n)
                .map(|_| vec![(0, -1), (conv, leader as i64)])
                .collect(),
            crashed: vec![false; n],
            timely: vec![true; n],
        };
        let v = check_spec(&data, false);
        prop_assert!(v.ok, "failures: {:?}", v.failures);
    }

    /// The checker rejects any run in which two permanent timely
    /// candidates settle on different leaders.
    #[test]
    fn checker_rejects_split_brain(n in 2usize..6, a in 0usize..6, b in 0usize..6) {
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let mut leaders: Vec<Vec<(u64, i64)>> = (0..n).map(|_| vec![(0, a as i64)]).collect();
        leaders[1] = vec![(0, b as i64)];
        let data = OmegaRunData {
            n,
            total_time: 1000,
            candidate: (0..n).map(|_| vec![(0, 1)]).collect(),
            leader: leaders,
            crashed: vec![false; n],
            timely: vec![true; n],
        };
        let v = check_spec(&data, false);
        prop_assert!(!v.ok, "split-brain accepted");
    }
}
