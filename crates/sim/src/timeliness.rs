//! Measuring timeliness (Definitions 1 and 2 of the paper) from a trace.
//!
//! Timeliness is a property of *infinite* runs; on the finite prefixes the
//! simulator produces we report exact witness bounds over the prefix and
//! offer a windowed growth test to distinguish "bounded forever" from
//! "grows without bound" behaviors. A schedule also declares the timely
//! set it *intends* ([`Schedule::intended_timely`](crate::Schedule::intended_timely));
//! only the schedule tests read that, while experiments and oracles use
//! the measured set.
//!
//! Of the windowed test's per-window bounds, only the first window's and
//! the last window's decide the verdict, together with whether the process
//! steps in the trace's tail (its last `ceil(len / windows)` steps, which
//! may reach back past the start of a short last window). So
//! [`measured_timely_set`] reads just those three stretches of the run's
//! one-byte-per-step [`StepLog`], once for all processes: O(T + n) for a
//! trace of T steps (about T/2 bytes read), not the O(n·T) of running
//! [`is_timely_windowed`] per process.
//!
//! The per-process functions take a plain `&[ProcId]`; they are the
//! definitions that `measured_timely_set` is tested against.

use crate::ids::ProcId;
use crate::trace::StepLog;

/// The minimal `i ≥ 1` such that, in this trace, every time interval
/// containing `i` steps of `q` has at least one step of `p` (Definition 1).
///
/// Boundary segments (before `p`'s first step and after its last) count:
/// an interval need not be bracketed by `p`-steps.
///
/// Returns `i = (max q-steps in any p-step-free segment) + 1`. If `q`
/// takes no steps the condition is vacuous and the bound is 1. Note that a
/// finite trace always yields *some* finite bound; use
/// [`windowed_bounds`] to detect growth.
pub fn q_timely_bound(steps: &[ProcId], p: ProcId, q: ProcId) -> u64 {
    let mut max_gap = 0u64;
    let mut gap = 0u64;
    for &s in steps {
        if s == p {
            max_gap = max_gap.max(gap);
            gap = 0;
        } else if s == q {
            gap += 1;
        }
    }
    max_gap = max_gap.max(gap);
    max_gap + 1
}

/// The minimal `i ≥ 1` such that every `i` consecutive process steps in the
/// trace contain at least one step of `p` (the characterization of *timely*
/// right after Definition 2).
///
/// ```
/// use tbwf_sim::{timeliness::timely_bound, ProcId};
///
/// // Round-robin over three processes: everyone has bound 3.
/// let steps: Vec<ProcId> = (0..9).map(|i| ProcId(i % 3)).collect();
/// assert_eq!(timely_bound(&steps, ProcId(1)), 3);
/// ```
pub fn timely_bound(steps: &[ProcId], p: ProcId) -> u64 {
    let mut max_gap = 0u64;
    let mut gap = 0u64;
    for &s in steps {
        if s == p {
            max_gap = max_gap.max(gap);
            gap = 0;
        } else {
            gap += 1;
        }
    }
    max_gap = max_gap.max(gap);
    max_gap + 1
}

/// [`timely_bound`] computed separately over `windows` equal slices of the
/// trace. A process whose bound grows from window to window is (evidence
/// of being) not timely; a process with a small stable bound is timely.
pub fn windowed_bounds(steps: &[ProcId], p: ProcId, windows: usize) -> Vec<u64> {
    assert!(windows >= 1);
    let len = steps.len();
    if len == 0 {
        return vec![1; windows];
    }
    let w = len.div_ceil(windows);
    steps.chunks(w).map(|c| timely_bound(c, p)).collect()
}

/// Heuristic verdict: is `p` timely in this (finite prefix of a) run?
///
/// `p` is judged timely iff its per-window bound does not grow: the bound
/// over the last window is at most `growth_factor ×` the bound over the
/// first window (and `p` takes at least one step in the last window).
/// With the schedules in [`crate::schedule`] this classifies correctly
/// for runs of a few thousand steps; it is a heuristic, not a proof.
pub fn is_timely_windowed(steps: &[ProcId], p: ProcId, windows: usize, growth_factor: f64) -> bool {
    let bounds = windowed_bounds(steps, p, windows);
    if bounds.is_empty() {
        return false;
    }
    let first = bounds[0] as f64;
    let last = *bounds.last().unwrap() as f64;
    let stepped_late = steps
        .iter()
        .rev()
        .take(steps.len().div_ceil(windows))
        .any(|&s| s == p);
    stepped_late && last <= first * growth_factor
}

/// The measured timely set of a run: every correct process judged timely
/// by [`is_timely_windowed`] with default parameters (4 windows, factor 2).
///
/// Computes the same set as calling [`is_timely_windowed`] per process,
/// but for all processes at once: only the first window, the last window
/// and the last `ceil(len / 4)` steps are read, each once.
pub fn measured_timely_set(steps: &StepLog, n: usize, crashed: &[ProcId]) -> Vec<ProcId> {
    const WINDOWS: usize = 4;
    let steps = steps.as_bytes();
    let len = steps.len();
    if len == 0 {
        // No step in the tail: nobody is timely.
        return Vec::new();
    }
    let w = len.div_ceil(WINDOWS);
    let first = timely_bounds_all(&steps[..w], n);
    let last = timely_bounds_all(&steps[(len - 1) / w * w..], n);
    let mut stepped_late = vec![false; n];
    for &s in &steps[len - w..] {
        if let Some(flag) = stepped_late.get_mut(s as usize) {
            *flag = true;
        }
    }
    (0..n)
        .filter(|&p| stepped_late[p] && last[p] as f64 <= first[p] as f64 * 2.0)
        .map(ProcId)
        .filter(|p| !crashed.contains(p))
        .collect()
}

/// [`timely_bound`] of every process `0..n` over the step bytes, in one
/// pass. Step ids `>= n` only count as gap steps.
fn timely_bounds_all(steps: &[u8], n: usize) -> Vec<u64> {
    // `next[p]`: index just past p's latest step (0 before its first).
    let mut next = vec![0usize; n];
    let mut max_gap = vec![0usize; n];
    for (i, &s) in steps.iter().enumerate() {
        let s = s as usize;
        if let Some(gap) = max_gap.get_mut(s) {
            *gap = (*gap).max(i - next[s]);
            next[s] = i + 1;
        }
    }
    max_gap
        .iter()
        .zip(&next)
        .map(|(&gap, &from)| (gap.max(steps.len() - from) + 1) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ids: &[usize]) -> Vec<ProcId> {
        ids.iter().map(|&i| ProcId(i)).collect()
    }

    #[test]
    fn round_robin_bounds_are_n() {
        let steps = seq(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(timely_bound(&steps, ProcId(0)), 3);
        assert_eq!(timely_bound(&steps, ProcId(2)), 3);
        // q-timely: between two p0 steps there is exactly one p1 step
        assert_eq!(q_timely_bound(&steps, ProcId(0), ProcId(1)), 2);
    }

    #[test]
    fn absent_process_has_large_bound() {
        let steps = seq(&[0, 1, 0, 1, 0, 1]);
        assert_eq!(timely_bound(&steps, ProcId(2)), 7);
        // vacuous: p2 takes no steps, so anyone is p2-timely with bound 1
        assert_eq!(q_timely_bound(&steps, ProcId(0), ProcId(2)), 1);
    }

    #[test]
    fn boundary_gaps_count() {
        // p0 steps only at the very start: the tail gap dominates.
        let steps = seq(&[0, 1, 1, 1, 1]);
        assert_eq!(timely_bound(&steps, ProcId(0)), 5);
    }

    #[test]
    fn solo_runner_is_timely() {
        let steps = seq(&[2; 100]);
        assert_eq!(timely_bound(&steps, ProcId(2)), 1);
        assert!(is_timely_windowed(&steps, ProcId(2), 4, 2.0));
    }

    #[test]
    fn growing_gaps_detected_as_not_timely() {
        // p1's silences double: 2, 4, 8, 16, ...
        let mut steps = Vec::new();
        let mut gap = 2usize;
        for _ in 0..7 {
            steps.push(ProcId(1));
            for _ in 0..gap {
                steps.push(ProcId(0));
            }
            gap *= 2;
        }
        assert!(!is_timely_windowed(&steps, ProcId(1), 4, 2.0));
        assert!(is_timely_windowed(&steps, ProcId(0), 4, 2.0));
    }

    #[test]
    fn measured_set_excludes_crashed() {
        let steps = seq(&[0, 1, 0, 1, 0, 1, 0, 1]).into_iter().collect();
        let set = measured_timely_set(&steps, 2, &[ProcId(1)]);
        assert_eq!(set, vec![ProcId(0)]);
    }

    #[test]
    fn windowed_bounds_shape() {
        let steps = seq(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let b = windowed_bounds(&steps, ProcId(0), 4);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|&x| x <= 3));
    }
}
