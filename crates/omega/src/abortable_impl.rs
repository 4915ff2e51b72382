//! Figures 4–6: implementation of Ω∆ using single-writer single-reader
//! **abortable** registers only (Theorem 13).
//!
//! Three pieces, exactly as in the paper, run as one task: the Figure 6
//! loop [`AbortableOmegaProcess::run`] awaits the Figure 4/5 procedures,
//! which are `async` methods of [`MsgChannels`] and [`HeartbeatChannels`]
//! (their local variables are the channels' fields):
//!
//! * [`MsgChannels`] (Figure 4) — communicating the *final value of a
//!   variable that stops changing*: the writer retries until one write
//!   succeeds; the reader backs off (doubling `readTimeout`) whenever its
//!   reads abort or return nothing new, eventually letting a `q`-timely
//!   writer run solo.
//! * [`HeartbeatChannels`] (Figure 5) — communicating a heartbeat through
//!   **two** alternating registers. One register is not enough: a read
//!   that aborts proves the writer is alive but not that it is timely —
//!   a slow writer can keep one register perpetually "under write". With
//!   two registers a slow writer is caught: while it dawdles on one
//!   register, reads of the *other* neither abort nor see a new value.
//! * [`AbortableOmegaProcess`] (Figure 6) — the main loop: rank by local
//!   counter views, punish inactive processes by *asking them* to raise
//!   their own counter (`actrTo`), self-punish on re-candidacy, and gate
//!   heartbeats on `writeDone` so that a process that cannot deliver its
//!   counter to `q` stops looking active to `q`.
//!
//! Line numbers in comments refer to Figures 4, 5 and 6.

// The `for q in 0..n` loops below deliberately mirror the paper's
// "for each q ∈ Π − {p}" iterations over several parallel vectors.
#![allow(clippy::needless_range_loop)]

use crate::{set_leader, OmegaHandles};
use std::collections::BTreeSet;
use std::rc::Rc;
use tbwf_registers::{ReadOutcome, SharedAbortable};
use tbwf_sim::{step, Env, ProcId};

/// A Figure 4/6 message: `⟨counter_p[p], actrTo_p[q]⟩`.
pub type Msg = (i64, i64);

/// The Figure 4 communication state of one process `p`: the registers
/// and local variables of `WriteMsgs` (lines 1–7) and `ReadMsgs`
/// (lines 8–19).
pub struct MsgChannels {
    /// `MsgRegister[p, q]`, written by `p`, read by `q` (index `q`).
    out: Vec<Option<SharedAbortable<Msg>>>,
    /// `MsgRegister[q, p]`, written by `q`, read by `p` (index `q`).
    inn: Vec<Option<SharedAbortable<Msg>>>,
    msg_curr: Vec<Msg>,
    prev_msg_from: Vec<Msg>,
    read_timer: Vec<u64>,
    read_timeout: Vec<u64>,
    prev_write_done: Vec<bool>,
}

impl MsgChannels {
    /// Creates the channel state. `out[q]`/`inn[q]` must be `Some` exactly
    /// for `q ≠ p`.
    pub fn new(
        p: ProcId,
        n: usize,
        out: Vec<Option<SharedAbortable<Msg>>>,
        inn: Vec<Option<SharedAbortable<Msg>>>,
    ) -> Self {
        debug_assert!(out.len() == n && out[p.0].is_none());
        MsgChannels {
            out,
            inn,
            msg_curr: vec![(0, 0); n],
            prev_msg_from: vec![(0, 0); n],
            read_timer: vec![1; n],
            read_timeout: vec![1; n],
            prev_write_done: vec![true; n],
        }
    }

    /// `WriteMsgs(msgTo)` (Figure 4, lines 1–7): returns `prevWriteDone`.
    pub async fn write_msgs(&mut self, env: &dyn Env, msg_to: &[Msg]) -> &[bool] {
        // 2: for each q ∈ Π − {p} do (one step per q)
        for (q, out) in self.out.iter().enumerate() {
            let Some(out) = out else { continue };
            step().await;
            // 3: if (not prevWriteDone[q]) or msgCurr[q] ≠ msgTo[q] then
            if !self.prev_write_done[q] || self.msg_curr[q] != msg_to[q] {
                // 4: if prevWriteDone[q] then msgCurr[q] ← msgTo[q]
                if self.prev_write_done[q] {
                    self.msg_curr[q] = msg_to[q];
                }
                // 5: res ← WRITE(MsgRegister[p, q], msgCurr[q])
                let res = out.try_write(env, self.msg_curr[q]).await;
                // 6: prevWriteDone[q] ← (res = ok)
                self.prev_write_done[q] = res.is_ok();
            }
        }
        // 7: return prevWriteDone
        &self.prev_write_done
    }

    /// `ReadMsgs()` (Figure 4, lines 8–19): returns `prevMsgFrom`.
    pub async fn read_msgs(&mut self, env: &dyn Env) -> &[Msg] {
        // 9: for each q ∈ Π − {p} do (one step per q)
        for (q, inn) in self.inn.iter().enumerate() {
            let Some(inn) = inn else { continue };
            step().await;
            // 10: if readTimer[q] ≥ 1 then readTimer[q] ← readTimer[q] − 1
            if self.read_timer[q] >= 1 {
                self.read_timer[q] -= 1;
            }
            // 11: if readTimer[q] = 0 then
            if self.read_timer[q] == 0 {
                // 12: readTimer[q] ← readTimeout[q]
                self.read_timer[q] = self.read_timeout[q];
                // 13: res[q] ← READ(MsgRegister[q, p])
                match inn.try_read(env).await {
                    // 14–15: abort or stale ⇒ back off.
                    ReadOutcome::Aborted => self.read_timeout[q] += 1,
                    ReadOutcome::Value(v) if v == self.prev_msg_from[q] => {
                        self.read_timeout[q] += 1;
                    }
                    // 16–18: fresh value ⇒ record it, reset the backoff.
                    ReadOutcome::Value(v) => {
                        self.prev_msg_from[q] = v;
                        self.read_timeout[q] = 1;
                    }
                }
            }
        }
        // 19: return prevMsgFrom
        &self.prev_msg_from
    }
}

/// The Figure 5 heartbeat state of one process `p`: the registers and
/// local variables of `SendHeartbeat` (lines 20–25) and
/// `ReceiveHeartbeat` (lines 26–40).
pub struct HeartbeatChannels {
    /// `HbRegister1[p, q]` / `HbRegister2[p, q]` (written by `p`).
    hb1_out: Vec<Option<SharedAbortable<i64>>>,
    hb2_out: Vec<Option<SharedAbortable<i64>>>,
    /// `HbRegister1[q, p]` / `HbRegister2[q, p]` (read by `p`).
    hb1_in: Vec<Option<SharedAbortable<i64>>>,
    hb2_in: Vec<Option<SharedAbortable<i64>>>,
    hb_timeout: Vec<u64>,
    hb_timer: Vec<u64>,
    /// `None` encodes `⊥` (an aborted read).
    prev_hb1: Vec<Option<i64>>,
    prev_hb2: Vec<Option<i64>>,
    hb1: Vec<Option<i64>>,
    hb2: Vec<Option<i64>>,
    hb_send_counter: i64,
    active_set: BTreeSet<ProcId>,
}

impl HeartbeatChannels {
    /// Creates the heartbeat state; register vectors must be `Some`
    /// exactly for `q ≠ p`.
    pub fn new(
        p: ProcId,
        n: usize,
        hb1_out: Vec<Option<SharedAbortable<i64>>>,
        hb2_out: Vec<Option<SharedAbortable<i64>>>,
        hb1_in: Vec<Option<SharedAbortable<i64>>>,
        hb2_in: Vec<Option<SharedAbortable<i64>>>,
    ) -> Self {
        let mut active_set = BTreeSet::new();
        active_set.insert(p); // { Initial state }: activeSet = {p}
        HeartbeatChannels {
            hb1_out,
            hb2_out,
            hb1_in,
            hb2_in,
            hb_timeout: vec![1; n],
            hb_timer: vec![1; n],
            prev_hb1: vec![Some(0); n],
            prev_hb2: vec![Some(0); n],
            hb1: vec![Some(0); n],
            hb2: vec![Some(0); n],
            hb_send_counter: 0,
            active_set,
        }
    }

    /// `SendHeartbeat(dest)` (Figure 5, lines 20–25).
    pub async fn send_heartbeat(&mut self, env: &dyn Env, dest: &[bool]) {
        // 21: hbSendCounter ← hbSendCounter + 1
        self.hb_send_counter += 1;
        // 22: for each q ∈ Π − {p} do (one step per q)
        for (q, (hb1, hb2)) in self.hb1_out.iter().zip(&self.hb2_out).enumerate() {
            let (Some(hb1), Some(hb2)) = (hb1, hb2) else {
                continue;
            };
            step().await;
            // 23: if dest[q] then
            if dest[q] {
                // 24–25: write both heartbeat registers (aborts are
                // deliberately ignored).
                let _ = hb1.try_write(env, self.hb_send_counter).await;
                let _ = hb2.try_write(env, self.hb_send_counter).await;
            }
        }
    }

    /// `ReceiveHeartbeat()` (Figure 5, lines 26–40): returns `activeSet`.
    pub async fn receive_heartbeat(&mut self, env: &dyn Env) -> &BTreeSet<ProcId> {
        // 27: for each q ∈ Π − {p} do (one step per q)
        for (q, (hb1, hb2)) in self.hb1_in.iter().zip(&self.hb2_in).enumerate() {
            let (Some(hb1), Some(hb2)) = (hb1, hb2) else {
                continue;
            };
            step().await;
            // 28: if hbTimer[q] ≥ 1 then hbTimer[q] ← hbTimer[q] − 1
            if self.hb_timer[q] >= 1 {
                self.hb_timer[q] -= 1;
            }
            // 29: if hbTimer[q] = 0 then
            if self.hb_timer[q] == 0 {
                // 30: hbTimer[q] ← hbTimeout[q]
                self.hb_timer[q] = self.hb_timeout[q];
                // 31–32: remember the previous samples.
                self.prev_hb1[q] = self.hb1[q];
                self.prev_hb2[q] = self.hb2[q];
                // 33–34: read both registers (⊥ becomes None).
                self.hb1[q] = hb1.try_read(env).await.value();
                self.hb2[q] = hb2.try_read(env).await.value();
                // 35: fresh-or-aborted on BOTH registers ⇒ active.
                let fresh1 = self.hb1[q].is_none() || self.hb1[q] != self.prev_hb1[q];
                let fresh2 = self.hb2[q].is_none() || self.hb2[q] != self.prev_hb2[q];
                if fresh1 && fresh2 {
                    // 36: activeSet ← activeSet ∪ {q}
                    self.active_set.insert(ProcId(q));
                } else {
                    // 38–39: activeSet ← activeSet − {q}; adapt timeout.
                    self.active_set.remove(&ProcId(q));
                    self.hb_timeout[q] += 1;
                }
            }
        }
        // 40: return activeSet
        &self.active_set
    }
}

/// The per-process state of the Figure 6 main algorithm.
pub struct AbortableOmegaProcess {
    /// This process.
    pub p: ProcId,
    /// Number of processes.
    pub n: usize,
    /// The Ω∆ input/output handles.
    pub handles: OmegaHandles,
    /// Figure 4 channel state.
    pub msgs: MsgChannels,
    /// Figure 5 heartbeat state.
    pub hb: HeartbeatChannels,
}

impl AbortableOmegaProcess {
    /// The main task of Figure 6 (lines 41–59), which awaits the Figure 4
    /// and 5 procedures.
    pub async fn run(self, env: Rc<dyn Env>) {
        let env = &*env;
        let AbortableOmegaProcess {
            p,
            n,
            handles,
            mut msgs,
            mut hb,
        } = self;
        // { Initial state }
        let mut leader = p;
        let mut counter = vec![0i64; n];
        let mut actr_to = vec![0i64; n];
        let mut write_done = vec![false; n];
        let mut msg_to: Vec<Msg> = vec![(0, 0); n];
        // 41: repeat forever
        loop {
            // 42: LEADER ← ?
            set_leader(env, &handles.leader, None);
            // 43: while CANDIDATE = false do skip
            while !handles.candidate.get() {
                step().await;
            }
            // 44: self-punishment beyond the current leader's counter.
            counter[p.0] = counter[p.0].max(counter[leader.0] + 1);
            // 45: do (one step per iteration)
            loop {
                step().await;
                // 46: SendHeartbeat(writeDone)
                hb.send_heartbeat(env, &write_done).await;
                // 47: activeSet ← ReceiveHeartbeat()
                let active_set = hb.receive_heartbeat(env).await;
                // 48: pick the active process with the smallest counter.
                leader = *active_set
                    .iter()
                    .min_by_key(|&&q| (counter[q.0], q))
                    .expect("activeSet always contains p");
                // 49: LEADER ← leader
                set_leader(env, &handles.leader, Some(leader));
                // 50–53: assemble messages, punishing inactive processes.
                for q in 0..n {
                    if q == p.0 {
                        continue;
                    }
                    // 51–52: ask inactive q to raise its counter beyond the
                    // current leader's.
                    if !active_set.contains(&ProcId(q)) {
                        actr_to[q] = actr_to[q].max(counter[leader.0] + 1);
                    }
                    // 53: msgTo[q] ← ⟨counter[p], actrTo[q]⟩
                    msg_to[q] = (counter[p.0], actr_to[q]);
                }
                // 54: writeDone ← WriteMsgs(msgTo)
                write_done.copy_from_slice(msgs.write_msgs(env, &msg_to).await);
                // 55: msgFrom ← ReadMsgs()
                let msg_from = msgs.read_msgs(env).await;
                // 56–58: adopt counters and apply received punishments.
                for q in 0..n {
                    if q == p.0 {
                        continue;
                    }
                    let (cq, actr_from_q) = msg_from[q];
                    counter[q] = cq;
                    counter[p.0] = counter[p.0].max(actr_from_q);
                }
                // 59: while CANDIDATE = true
                if !handles.candidate.get() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::{run_omega_system, OmegaKind, OmegaSystemConfig};
    use crate::spec::{check_spec, OmegaRunData};
    use crate::CandidateScript;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{ProcId, RunConfig};

    #[test]
    fn abortable_omega_elects_with_all_timely() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Abortable,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(120_000, RoundRobin::new()));
        out.report.assert_no_panics();
        let timely: Vec<ProcId> = (0..3).map(ProcId).collect();
        let data = OmegaRunData::from_trace(&out.report.trace, 3, &timely);
        let v = check_spec(&data, false);
        assert!(v.ok, "spec failures: {:?}", v.failures);
        let l = v.elected.expect("a leader must be elected");
        for p in 0..3 {
            assert_eq!(out.handles[p].leader.get(), Some(l), "p{p} disagrees");
        }
    }

    #[test]
    fn abortable_omega_survives_leader_crash() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Abortable,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(
            &cfg,
            RunConfig::new(300_000, RoundRobin::new()).crash(30_000, ProcId(0)),
        );
        out.report.assert_no_panics();
        let l1 = out.handles[1].leader.get();
        let l2 = out.handles[2].leader.get();
        assert_eq!(l1, l2, "survivors disagree: {l1:?} vs {l2:?}");
        assert_ne!(l1, Some(ProcId(0)), "crashed process still leads");
        assert!(l1.is_some(), "no leader after crash");
    }
}
