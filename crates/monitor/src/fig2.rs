//! Figure 2: implementation of `A(p, q)` using (atomic) registers.
//!
//! The shared state is a single atomic register `HbRegister[q, p]`, written
//! by the monitored process `q` and read by the monitoring process `p`.
//! When `q` is active for `p` it writes an increasing heartbeat counter;
//! when it stops willingly it writes the special value `−1`. The
//! monitoring side reads the register with an *adaptive* timeout
//! (`hbTimeout` grows by one on every suspicion), which is what makes
//! `faultCntr` bounded whenever `q` is `p`-timely — there is an unknown
//! but fixed bound to adapt to.
//!
//! Line numbers in the comments refer to Figure 2 of the paper.

use crate::Status;
use std::rc::Rc;
use tbwf_registers::{RegisterFactory, SharedAtomic};
use tbwf_sim::{step, Env, Local, ProcId};

/// Observation keys used by the monitoring side.
pub const OBS_STATUS: &str = "status";
/// Observation key for `faultCntr_p[q]`.
pub const OBS_FAULT: &str = "faultCntr";

/// The monitored side of `A(p, q)`: code run *by `q`* (Figure 2, top).
pub struct MonitoredSide {
    /// `active-for_q[p]`: whether `q` currently wants to appear active to
    /// `p`. Input variable, written by `q`'s other tasks at any time.
    pub active_for: Local<bool>,
    hb: SharedAtomic<i64>,
}

impl MonitoredSide {
    /// The task run by `q` (Figure 2, lines 1–6).
    pub async fn run(self, env: Rc<dyn Env>) {
        let env = &*env;
        let mut hb_counter = 0;
        // 1: repeat forever
        loop {
            // 2: WRITE(HbRegister[q, p], −1)
            self.hb.write(env, -1).await;
            // 3: while ACTIVE-FOR[p] = off do skip
            while !self.active_for.get() {
                step().await;
            }
            // 4: while ACTIVE-FOR[p] = on do
            while self.active_for.get() {
                // 5: hbCounter ← hbCounter + 1
                hb_counter += 1;
                // 6: WRITE(HbRegister[q, p], hbCounter)
                self.hb.write(env, hb_counter).await;
            }
        }
    }
}

/// The monitoring side of `A(p, q)`: code run *by `p`* (Figure 2, bottom).
pub struct MonitoringSide {
    /// The monitored process `q` (used as the observation index).
    pub q: ProcId,
    /// `monitoring_p[q]`: whether `p` currently wants to monitor `q`.
    pub monitoring: Local<bool>,
    /// Output `status_p[q]`.
    pub status: Local<Status>,
    /// Output `faultCntr_p[q]`.
    pub fault_cntr: Local<u64>,
    /// **Ablation knob** (paper behavior: `true`). When `false`, line 25
    /// (`hbTimeout ← hbTimeout + 1`) is skipped, i.e. the timeout is
    /// fixed at its initial value. This breaks Property 5(a): a timely
    /// `q` whose (unknown) timeliness bound exceeds the fixed timeout is
    /// suspected over and over, so `faultCntr` grows without bound —
    /// exactly why the paper adapts the timeout. See experiment E9.
    pub adaptive_timeout: bool,
    hb: SharedAtomic<i64>,
}

impl MonitoringSide {
    fn set_status(&self, env: &dyn Env, s: Status) {
        if self.status.get() != s {
            self.status.set(s);
            env.observe(OBS_STATUS, self.q.0 as u32, s.code());
        }
    }

    fn bump_fault(&self, env: &dyn Env) {
        let v = self.fault_cntr.update(|f| {
            *f += 1;
            *f
        });
        env.observe(OBS_FAULT, self.q.0 as u32, v as i64);
    }

    /// The task run by `p` (Figure 2, lines 7–26).
    pub async fn run(self, env: Rc<dyn Env>) {
        let env = &*env;
        let q = self.q.0 as u32;
        // { Initial state }, recorded into the trace. (hbTimer and
        // prevHbCounter are set at lines 10 and 15 before any use.)
        let mut hb_timeout: u64 = 1;
        let mut hb_timer: u64;
        let mut hb_counter: i64 = 0;
        let mut prev_hb_counter: i64;
        let mut allow_increment = true;
        env.observe(OBS_STATUS, q, self.status.get().code());
        env.observe(OBS_FAULT, q, self.fault_cntr.get() as i64);
        // 7: repeat forever
        loop {
            // 8: STATUS[q] ← ?
            self.set_status(env, Status::Unknown);
            // 9: while MONITORING[q] = off do skip
            while !self.monitoring.get() {
                step().await;
            }
            // 10: hbTimer ← hbTimeout
            hb_timer = hb_timeout;
            // 11: while MONITORING[q] = on do (one step per iteration)
            while self.monitoring.get() {
                step().await;
                // 12: if hbTimer ≥ 1 then hbTimer ← hbTimer − 1
                if hb_timer >= 1 {
                    hb_timer -= 1;
                }
                // 13: if hbTimer = 0 then
                if hb_timer == 0 {
                    // 14: hbTimer ← hbTimeout
                    hb_timer = hb_timeout;
                    // 15: prevHbCounter ← hbCounter
                    prev_hb_counter = hb_counter;
                    // 16: hbCounter ← READ(HbRegister[q, p])
                    hb_counter = self.hb.read(env).await;
                    // 17: if hbCounter < 0 then STATUS[q] ← inactive
                    if hb_counter < 0 {
                        self.set_status(env, Status::Inactive);
                    }
                    // 18–20: fresh heartbeat ⇒ active, re-arm increment
                    if hb_counter >= 0 && hb_counter > prev_hb_counter {
                        self.set_status(env, Status::Active);
                        allow_increment = true;
                    }
                    // 21–26: stale heartbeat ⇒ inactive; suspicion counts
                    // only if the register is not −1 (condition (a) of the
                    // prose) and increased since the last increment
                    // (condition (b), tracked by allowIncrement).
                    if hb_counter >= 0 && hb_counter <= prev_hb_counter {
                        self.set_status(env, Status::Inactive);
                        if allow_increment {
                            self.bump_fault(env);
                            // 25 (ablatable): adapt the timeout upward.
                            if self.adaptive_timeout {
                                hb_timeout += 1;
                            }
                            allow_increment = false;
                        }
                    }
                }
            }
        }
    }
}

/// The two sides of one activity monitor `A(p, q)`.
pub struct ActivityMonitorPair {
    /// Code and handles for the monitoring process `p`.
    pub monitoring_side: MonitoringSide,
    /// Code and handles for the monitored process `q`.
    pub monitored_side: MonitoredSide,
}

/// Creates the activity monitor `A(p, q)` (its shared heartbeat register
/// and both side handles) for `p` monitoring `q`.
///
/// ```
/// use tbwf_monitor::{activity_monitor, Status};
/// use tbwf_registers::RegisterFactory;
/// use tbwf_sim::schedule::RoundRobin;
/// use tbwf_sim::{FutureTask, ProcId, RunConfig, SimBuilder};
///
/// let factory = RegisterFactory::default();
/// let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
/// pair.monitoring_side.monitoring.set(true);
/// pair.monitored_side.active_for.set(true);
/// let status = pair.monitoring_side.status.clone();
/// let (monitoring, monitored) = (pair.monitoring_side, pair.monitored_side);
///
/// let mut b = SimBuilder::new();
/// let p0 = b.add_process("p0");
/// b.add_stepper(p0, "monitoring", Box::new(FutureTask::new(|env| monitoring.run(env))));
/// let p1 = b.add_process("p1");
/// b.add_stepper(p1, "monitored", Box::new(FutureTask::new(|env| monitored.run(env))));
/// b.build().run(RunConfig::new(3_000, RoundRobin::new())).assert_no_panics();
/// assert_eq!(status.get(), Status::Active); // q is timely and active
/// ```
///
/// # Panics
///
/// Panics if `p == q` (the paper's footnote 6: `A(p, p)` is trivial and
/// implemented inline by users instead).
pub fn activity_monitor(factory: &RegisterFactory, p: ProcId, q: ProcId) -> ActivityMonitorPair {
    assert_ne!(p, q, "A(p, p) is trivial and not register-backed");
    let hb = factory.atomic(&format!("Hb[{q},{p}]"), -1i64);
    ActivityMonitorPair {
        monitoring_side: MonitoringSide {
            q,
            monitoring: Local::new(false),
            status: Local::new(Status::Unknown),
            fault_cntr: Local::new(0),
            adaptive_timeout: true,
            hb: hb.clone(),
        },
        monitored_side: MonitoredSide {
            active_for: Local::new(false),
            hb,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{FutureTask, RunConfig, SimBuilder};

    /// Builds a two-process system in which p0 monitors p1; the driver
    /// closures configure the inputs.
    fn run_pair(
        steps: u64,
        configure_p: impl Fn(&Local<bool>),
        configure_q: impl Fn(&Local<bool>),
    ) -> (tbwf_sim::RunReport, Local<Status>, Local<u64>) {
        let factory = RegisterFactory::default();
        let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
        let status = pair.monitoring_side.status.clone();
        let fault = pair.monitoring_side.fault_cntr.clone();
        let monitoring = pair.monitoring_side.monitoring.clone();
        let active_for = pair.monitored_side.active_for.clone();
        configure_p(&monitoring);
        configure_q(&active_for);

        let (monitoring_side, monitored_side) = (pair.monitoring_side, pair.monitored_side);
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(
            p0,
            "monitoring",
            Box::new(FutureTask::new(|env| monitoring_side.run(env))),
        );
        let p1 = b.add_process("p1");
        b.add_stepper(
            p1,
            "monitored",
            Box::new(FutureTask::new(|env| monitored_side.run(env))),
        );
        let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
        report.assert_no_panics();
        (report, status, fault)
    }

    #[test]
    fn active_timely_q_is_reported_active() {
        let (_r, status, _fault) = run_pair(4_000, |m| m.set(true), |a| a.set(true));
        assert_eq!(status.get(), Status::Active);
    }

    #[test]
    fn inactive_q_is_reported_inactive() {
        let (_r, status, _fault) = run_pair(4_000, |m| m.set(true), |a| a.set(false));
        assert_eq!(status.get(), Status::Inactive);
    }

    #[test]
    fn not_monitoring_keeps_status_unknown() {
        let (_r, status, fault) = run_pair(2_000, |m| m.set(false), |a| a.set(true));
        assert_eq!(status.get(), Status::Unknown);
        assert_eq!(fault.get(), 0);
    }

    #[test]
    fn fault_cntr_is_bounded_for_timely_active_q() {
        // Round-robin keeps q timely: faultCntr must stabilize quickly.
        let (r, _status, fault) = run_pair(12_000, |m| m.set(true), |a| a.set(true));
        let series = r.trace.obs_series(ProcId(0), OBS_FAULT, 1);
        let final_val = fault.get();
        // The counter must have stopped growing well before the end.
        let last_change = series.last().map(|(t, _)| *t).unwrap_or(0);
        assert!(
            last_change < 6_000,
            "faultCntr still changing at t={last_change} (value {final_val})"
        );
    }

    #[test]
    #[should_panic(expected = "trivial")]
    fn self_pair_rejected() {
        let factory = RegisterFactory::default();
        let _ = activity_monitor(&factory, ProcId(0), ProcId(0));
    }
}
