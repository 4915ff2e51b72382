//! The shared operation log: what the analyses read about a run's
//! register operations, folded as the operations complete.
//!
//! The log keeps no per-operation history. It keeps the `(total,
//! overlapped, aborted)` counts (the abort-rate ablation E8, E3 and the
//! benchmark) and, per process, the invocation time of its latest write
//! (the write-efficiency experiment E6 asks which processes wrote after a
//! given time). So its size does not grow with the run.

use std::collections::BTreeSet;
use std::sync::Mutex;
use tbwf_sim::ProcId;

/// Kind of a register operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// A read operation.
    Read,
    /// A write operation.
    Write,
}

/// One completed register operation, as a register reports it to the
/// [`OpLog`].
#[derive(Clone, Copy, Debug)]
pub struct OpEvent {
    /// Global time of the invocation step.
    pub invoked: u64,
    /// The process that performed the operation.
    pub proc: ProcId,
    /// Read or write.
    pub kind: OpKind,
    /// Whether the operation overlapped another operation on the register.
    pub overlapped: bool,
    /// Whether the operation aborted (always false on atomic registers).
    pub aborted: bool,
}

#[derive(Default)]
struct Tally {
    total: u64,
    overlapped: u64,
    aborted: u64,
    /// `last_write[p]`: invocation time of `p`'s latest completed write.
    last_write: Vec<Option<u64>>,
}

/// Operation counts and latest write times shared by all registers of one
/// [`RegisterFactory`](crate::RegisterFactory).
///
/// Everything else a run shares lives in single-threaded cells, but the
/// log is handed out as an `Arc<OpLog>` (a public signature the benchmark
/// names), and an `Arc` of a value that is not `Sync` is a lint error.
/// So the tally sits behind a `std::sync::Mutex`, which a run only ever
/// takes uncontended.
#[derive(Default)]
pub struct OpLog {
    tally: Mutex<Tally>,
}

impl OpLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tally; a panic elsewhere cannot leave it half-updated, so a
    /// poisoned lock is taken as is.
    fn tally(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn push(&self, e: OpEvent) {
        let mut t = self.tally();
        t.total += 1;
        t.overlapped += e.overlapped as u64;
        t.aborted += e.aborted as u64;
        if e.kind == OpKind::Write {
            if t.last_write.len() <= e.proc.0 {
                t.last_write.resize(e.proc.0 + 1, None);
            }
            let last = &mut t.last_write[e.proc.0];
            *last = (*last).max(Some(e.invoked));
        }
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.tally().total as usize
    }

    /// Whether no operation was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Processes that performed at least one *write* invoked at or after
    /// time `t0` (aborted writes included: the writer cannot tell whether
    /// they took effect).
    ///
    /// This is the measurement behind the paper's closing remark of
    /// Section 5.2: after stabilization "the only processes that write to
    /// shared registers are the leader and processes in Rcandidates".
    pub fn writers_since(&self, t0: u64) -> BTreeSet<ProcId> {
        let t = self.tally();
        (0..t.last_write.len())
            .filter(|&p| t.last_write[p].is_some_and(|w| w >= t0))
            .map(ProcId)
            .collect()
    }

    /// `(total, overlapped, aborted)` counts over all operations.
    pub fn abort_stats(&self) -> (u64, u64, u64) {
        let t = self.tally();
        (t.total, t.overlapped, t.aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(invoked: u64, proc: usize, kind: OpKind, aborted: bool) -> OpEvent {
        OpEvent {
            invoked,
            proc: ProcId(proc),
            kind,
            overlapped: aborted,
            aborted,
        }
    }

    fn ids(v: &[usize]) -> BTreeSet<ProcId> {
        v.iter().copied().map(ProcId).collect()
    }

    #[test]
    fn writers_since_filters_by_time_and_kind() {
        let log = OpLog::new();
        log.push(ev(9, 0, OpKind::Write, false)); // just before t0
        log.push(ev(10, 1, OpKind::Write, false)); // exactly at t0
        log.push(ev(20, 2, OpKind::Read, false)); // reads never count
        log.push(ev(30, 3, OpKind::Write, true)); // aborted writes count
        assert_eq!(log.writers_since(10), ids(&[1, 3]));
        assert_eq!(log.writers_since(11), ids(&[3]));
        assert_eq!(log.writers_since(0), ids(&[0, 1, 3]));
        assert_eq!(log.writers_since(31), ids(&[]));
    }

    #[test]
    fn writers_since_keeps_the_latest_write() {
        // Completion order need not follow invocation order (two tasks of
        // one process): an earlier invocation completing later must not
        // hide the later one.
        let log = OpLog::new();
        log.push(ev(50, 0, OpKind::Write, false));
        log.push(ev(40, 0, OpKind::Write, false));
        assert_eq!(log.writers_since(50), ids(&[0]));
        assert_eq!(log.writers_since(51), ids(&[]));
    }

    #[test]
    fn abort_stats_counts() {
        let log = OpLog::new();
        assert!(log.is_empty());
        log.push(ev(0, 0, OpKind::Read, true));
        log.push(ev(1, 0, OpKind::Read, false));
        log.push(ev(2, 1, OpKind::Write, true));
        log.push(ev(3, 1, OpKind::Write, false));
        assert_eq!(log.abort_stats(), (4, 2, 2));
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }
}
