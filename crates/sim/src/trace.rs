//! Run traces: step sequences and observations of local output variables.

use crate::ids::ProcId;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// The run-global observation stamp counter, shared by every task's
/// [`ObsBuf`].
///
/// A run is single-threaded by construction: the scheduler calls
/// `Stepper::step` directly from `Sim::run`, so every `record` and every
/// runner-side read happens on the one thread driving the run. The
/// `Sync` assertion below exists only because [`crate::Env`] (which the
/// runner's `StepEnv` implements) is a `Send + Sync` trait; it is never
/// exercised across threads.
///
/// # Safety
///
/// Constructed only by `SimBuilder::build`, and only ever touched from
/// the thread executing `Sim::run`. Nothing hands a task's env to another
/// thread: `StepCtx` borrows it for the duration of one synchronous
/// `step` call.
pub(crate) struct ObsSeq(Cell<u64>);

// SAFETY: see the type-level invariant above — all access is confined to
// the thread driving `Sim::run`.
unsafe impl Sync for ObsSeq {}

impl ObsSeq {
    /// A fresh counter for one run.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ObsSeq(Cell::new(0)))
    }

    fn next(&self) -> u64 {
        let v = self.0.get();
        self.0.set(v + 1);
        v
    }

    /// A fresh per-task buffer drawing stamps from this counter.
    pub(crate) fn new_buf(self: &Arc<Self>) -> ObsBuf {
        ObsBuf {
            seq: Arc::clone(self),
            items: RefCell::new(Vec::new()),
        }
    }
}

/// Per-task observation buffer with a run-global sequence stamp.
///
/// Each task appends into its own buffer, but every record draws a stamp
/// from the [`ObsSeq`] shared by all buffers of a run; merging the
/// buffers sorted by stamp reproduces the exact global recording order.
/// The stamp (not `Obs::time`) is what orders observations: several
/// tasks can observe at the same time `t` when an exiting task's final
/// segment and its successor run in the same slot.
///
/// Same confinement invariant (and the same reason for the `Sync`
/// assertion) as [`ObsSeq`]; the `RefCell` turns any violation of the
/// aliasing discipline into a deterministic panic instead of UB.
pub(crate) struct ObsBuf {
    seq: Arc<ObsSeq>,
    items: RefCell<Vec<(u64, Obs)>>,
}

// SAFETY: `items` is a `RefCell` that, like the counter behind `seq`,
// is only touched from the thread driving `Sim::run` (see `ObsSeq`);
// `seq` is an `Arc<ObsSeq>`, `Sync` by the assertion above.
unsafe impl Sync for ObsBuf {}

impl ObsBuf {
    pub(crate) fn record(&self, time: u64, proc: ProcId, key: &'static str, idx: u32, value: i64) {
        let obs = Obs {
            time,
            proc,
            key,
            idx,
            value,
        };
        self.items.borrow_mut().push((self.seq.next(), obs));
    }

    /// Grows the buffer's capacity ahead of the run (sized from the step
    /// budget by the runner, so steady-state records never reallocate).
    pub(crate) fn reserve(&self, additional: usize) {
        self.items.borrow_mut().reserve(additional);
    }

    /// Number of observations recorded so far (used by the runner to
    /// mark a position before granting a step).
    pub(crate) fn mark(&self) -> usize {
        self.items.borrow().len()
    }

    /// Appends the observations recorded since `mark` into `out` (what
    /// one granted step observed; fed to the nemesis for trace-aware
    /// triggers). `out` is a runner-owned scratch buffer reused across
    /// steps.
    pub(crate) fn since_into(&self, mark: usize, out: &mut Vec<Obs>) {
        out.extend(self.items.borrow()[mark..].iter().map(|(_, o)| *o));
    }

    /// Merges buffers into one observation list in global recording order,
    /// releasing each buffer's storage as it goes.
    pub(crate) fn merge<'a>(bufs: impl IntoIterator<Item = &'a ObsBuf>) -> Vec<Obs> {
        let mut all: Vec<(u64, Obs)> = Vec::new();
        for buf in bufs {
            all.extend(std::mem::take(&mut *buf.items.borrow_mut()));
        }
        all.sort_by_key(|(stamp, _)| *stamp);
        all.into_iter().map(|(_, o)| o).collect()
    }
}

/// Thread-safe sink the tasks append observations to while running.
pub(crate) struct TraceSink {
    obs: Mutex<Vec<Obs>>,
}

impl TraceSink {
    pub(crate) fn new() -> Self {
        TraceSink {
            obs: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn record(&self, time: u64, proc: ProcId, key: &'static str, idx: u32, value: i64) {
        self.obs.lock().push(Obs {
            time,
            proc,
            key,
            idx,
            value,
        });
    }

    pub(crate) fn drain(&self) -> Vec<Obs> {
        std::mem::take(&mut self.obs.lock())
    }
}

/// The complete record of a run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `steps[t]` is the process that took the step at time `t`.
    pub steps: Vec<ProcId>,
    /// All observations, in recording order (which is also time order).
    pub obs: Vec<Obs>,
    /// Crash events `(time, process)` that were applied during the run
    /// (from the static crash plan and from nemesis injections alike).
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
        for p in &self.steps {
            counts[p.0] += 1;
        }
        counts
    }

    /// The distinct `(key, idx)` pairs observed by `proc` (diagnostics).
    pub fn observed_keys(&self, proc: ProcId) -> Vec<(&'static str, u32)> {
        let mut set = BTreeMap::new();
        for o in self.obs.iter().filter(|o| o.proc == proc) {
            set.insert((o.key, o.idx), ());
        }
        set.into_keys().collect()
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
            steps: vec![ProcId(0), ProcId(1), ProcId(0), ProcId(1), ProcId(1)],
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
    fn obs_buf_merge_restores_recording_order() {
        let seq = ObsSeq::new();
        let a = seq.new_buf();
        let b = seq.new_buf();
        // Interleave records across buffers; same `time` throughout, so
        // only the stamp can restore the order.
        a.record(5, ProcId(0), "x", 0, 1);
        b.record(5, ProcId(1), "x", 0, 2);
        a.record(5, ProcId(0), "x", 0, 3);
        let merged = ObsBuf::merge([&b, &a]);
        let values: Vec<i64> = merged.iter().map(|o| o.value).collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn obs_buf_mark_and_since_into_agree() {
        let buf = ObsSeq::new().new_buf();
        buf.record(0, ProcId(0), "x", 0, 1);
        let mark = buf.mark();
        assert_eq!(mark, 1);
        buf.record(1, ProcId(0), "x", 0, 2);
        buf.record(2, ProcId(0), "y", 1, 3);
        let mut out = Vec::new();
        buf.since_into(mark, &mut out);
        let vals: Vec<i64> = out.iter().map(|o| o.value).collect();
        assert_eq!(vals, vec![2, 3]);
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
    fn observed_keys_sorted_unique() {
        let t = mk_trace();
        assert_eq!(t.observed_keys(ProcId(1)), vec![("x", 0), ("y", 3)]);
    }

    #[test]
    fn ascii_timeline_shapes() {
        let mut steps = vec![ProcId(0); 10];
        steps.extend(vec![ProcId(1); 10]);
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
