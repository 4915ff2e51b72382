//! Run traces: step sequences and observations of local output variables.
//!
//! A run's record is exact but compact. The step sequence is a
//! [`StepLog`] of one byte per step (so a system has at most
//! [`StepLog::MAX_PROCS`] processes). The observations are one log that
//! every task of the run appends to as it observes, so their order is
//! the execution order; they are rare next to steps and grow on demand:
//! nothing is reserved from the step budget.

use crate::ids::ProcId;

/// One observation of a local output variable.
///
/// Conventions used across the workspace:
/// * `leader` observations encode `?` as `-1` and process `q` as `q as i64`;
/// * `status[q]` observations encode `?` as `0`, `active` as `1`,
///   `inactive` as `2` (see `tbwf-monitor`);
/// * counters are recorded verbatim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Obs {
    /// Global time of the observation.
    pub time: u64,
    /// Observing process.
    pub proc: ProcId,
    /// Variable name.
    pub key: &'static str,
    /// Vector index (e.g. the `q` of `status[q]`), `0` for scalars.
    pub idx: u32,
    /// Observed value.
    pub value: i64,
}

/// The step sequence of a run: entry `t` is the process that took the
/// step at time `t`, stored as one byte.
///
/// ```
/// use tbwf_sim::{trace::StepLog, ProcId};
///
/// let steps: StepLog = [2, 0, 2].into_iter().map(ProcId).collect();
/// assert_eq!(steps.len(), 3);
/// assert_eq!(steps.iter().collect::<Vec<_>>(), [ProcId(2), ProcId(0), ProcId(2)]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StepLog(Vec<u8>);

impl StepLog {
    /// The most processes a step can name: ids `0..=255` fit in a byte.
    pub const MAX_PROCS: usize = 1 << u8::BITS;

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        StepLog(Vec::with_capacity(capacity))
    }

    /// Appends a step of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not below [`StepLog::MAX_PROCS`].
    pub(crate) fn push(&mut self, p: ProcId) {
        let b = u8::try_from(p.0)
            .unwrap_or_else(|_| panic!("step of process {} does not fit in a byte", p.0));
        self.0.push(b);
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no step was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The steps in time order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = ProcId> + ExactSizeIterator + '_ {
        self.0.iter().map(|&b| ProcId(b as usize))
    }

    /// The raw step bytes (entry `t` is the id of the process of step `t`).
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// # Panics
///
/// Panics on a process id not below [`StepLog::MAX_PROCS`].
impl FromIterator<ProcId> for StepLog {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> Self {
        let mut log = StepLog::default();
        for p in iter {
            log.push(p);
        }
        log
    }
}

impl std::fmt::Debug for StepLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The complete record of a run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `steps[t]` is the process that took the step at time `t`.
    pub steps: StepLog,
    /// All observations, in execution order (which is also time order;
    /// several can share a time when a task exits and its successor
    /// steps in the same slot).
    pub obs: Vec<Obs>,
    /// Crash events `(time, process)` that were applied during the run,
    /// in the order they took effect: the run's one crash record.
    pub crashes: Vec<(u64, ProcId)>,
    /// Nemesis injections applied during the run, in firing order.
    pub injections: Vec<crate::nemesis::InjectionRecord>,
}

impl Trace {
    /// Total number of steps in the run.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the run took no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The time at which `p` crashed, if it did.
    pub fn crash_time(&self, p: ProcId) -> Option<u64> {
        self.crashes.iter().find(|(_, q)| *q == p).map(|(t, _)| *t)
    }

    /// Whether `p` is *correct* in this run (never crashed).
    pub fn is_correct(&self, p: ProcId) -> bool {
        self.crash_time(p).is_none()
    }

    /// The time series of observations of `(proc, key, idx)`.
    pub fn obs_series(&self, proc: ProcId, key: &'static str, idx: u32) -> Vec<(u64, i64)> {
        self.obs
            .iter()
            .filter(|o| o.proc == proc && o.key == key && o.idx == idx)
            .map(|o| (o.time, o.value))
            .collect()
    }

    /// The last observed value of `(proc, key, idx)`, if any.
    pub fn last_value(&self, proc: ProcId, key: &'static str, idx: u32) -> Option<i64> {
        self.obs
            .iter()
            .rev()
            .find(|o| o.proc == proc && o.key == key && o.idx == idx)
            .map(|o| o.value)
    }

    /// Number of steps each process took, indexed by process id.
    pub fn step_counts(&self, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n];
        for p in self.steps.iter() {
            counts[p.0] += 1;
        }
        counts
    }

    /// Renders an ASCII timeline of the run: one row per process, one
    /// column per bucket of `bucket` steps; each cell shows how busy the
    /// process was in that bucket (` `, `.`, `:`, `#` for 0 %, <25 %,
    /// <75 %, ≥75 % of an even share) with `X` marking the crash bucket.
    /// A debugging aid for schedules and starvation questions.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is 0.
    pub fn ascii_timeline(&self, n: usize, bucket: u64) -> String {
        assert!(bucket > 0, "bucket must be positive");
        let total = self.len() as u64;
        let cols = total.div_ceil(bucket) as usize;
        let mut counts = vec![vec![0u64; cols]; n];
        for (t, p) in self.steps.iter().enumerate() {
            counts[p.0][t / bucket as usize] += 1;
        }
        let fair = bucket as f64 / n as f64;
        let mut out = String::new();
        for (p, row) in counts.iter().enumerate() {
            out.push_str(&format!("p{p:<2} |"));
            let crash_col = self.crash_time(ProcId(p)).map(|t| (t / bucket) as usize);
            for (c, &k) in row.iter().enumerate() {
                let ch = if crash_col == Some(c) {
                    'X'
                } else if k == 0 {
                    ' '
                } else if (k as f64) < fair * 0.25 {
                    '.'
                } else if (k as f64) < fair * 0.75 {
                    ':'
                } else {
                    '#'
                };
                out.push(ch);
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace() -> Trace {
        Trace {
            steps: [0, 1, 0, 1, 1].into_iter().map(ProcId).collect(),
            obs: vec![
                Obs {
                    time: 0,
                    proc: ProcId(0),
                    key: "x",
                    idx: 0,
                    value: 1,
                },
                Obs {
                    time: 2,
                    proc: ProcId(0),
                    key: "x",
                    idx: 0,
                    value: 2,
                },
                Obs {
                    time: 3,
                    proc: ProcId(1),
                    key: "x",
                    idx: 0,
                    value: 9,
                },
                Obs {
                    time: 4,
                    proc: ProcId(1),
                    key: "y",
                    idx: 3,
                    value: 7,
                },
            ],
            crashes: vec![(4, ProcId(1))],
            injections: vec![],
        }
    }

    #[test]
    fn series_filters_by_proc_key_idx() {
        let t = mk_trace();
        assert_eq!(t.obs_series(ProcId(0), "x", 0), vec![(0, 1), (2, 2)]);
        assert_eq!(t.obs_series(ProcId(1), "y", 3), vec![(4, 7)]);
        assert!(t.obs_series(ProcId(1), "y", 0).is_empty());
    }

    #[test]
    fn last_value_works() {
        let t = mk_trace();
        assert_eq!(t.last_value(ProcId(0), "x", 0), Some(2));
        assert_eq!(t.last_value(ProcId(0), "z", 0), None);
    }

    #[test]
    fn step_counts_and_crash() {
        let t = mk_trace();
        assert_eq!(t.step_counts(2), vec![2, 3]);
        assert_eq!(t.crash_time(ProcId(1)), Some(4));
        assert!(t.is_correct(ProcId(0)));
        assert!(!t.is_correct(ProcId(1)));
    }

    #[test]
    fn ascii_timeline_shapes() {
        let steps = [0; 10].into_iter().chain([1; 10]).map(ProcId).collect();
        let t = Trace {
            steps,
            obs: vec![],
            crashes: vec![(15, ProcId(1))],
            injections: vec![],
        };
        let art = t.ascii_timeline(2, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        // p0 fully busy in bucket 0, idle in bucket 1.
        assert!(lines[0].contains("|# |"), "got {art}");
        // p1 idle then crashed-in-bucket-1.
        assert!(lines[1].contains("| X|"), "got {art}");
    }

    #[test]
    #[should_panic(expected = "bucket must be positive")]
    fn ascii_timeline_rejects_zero_bucket() {
        let t = mk_trace();
        let _ = t.ascii_timeline(2, 0);
    }
}
