//! A full mesh of activity monitors `A(p, q)` for all ordered pairs, as
//! required by the Ω∆ implementation of Figure 3 ("a system with registers
//! where every pair of processes (p, q) is equipped with an activity
//! monitor A(p, q)").

use crate::fig2::activity_monitor;
use crate::Status;
use tbwf_registers::RegisterFactory;
use tbwf_sim::{LocalVec, ProcId, SimBuilder};

/// The per-process view of the monitor mesh: the four vectors of local
/// variables of Figure 1, indexed by the peer process.
///
/// For the owner process `p`:
/// * `monitoring.cell(q)` is `p`'s input to `A(p, q)`;
/// * `status.cell(q)` / `fault.cell(q)` are the outputs of `A(p, q)`;
/// * `active_for.cell(q)` is `p`'s input to `A(q, p)` (whether `p` is
///   willing to appear active to `q`).
///
/// The diagonal cells (`q == p`) are the trivial self-monitor of footnote
/// 6: `status.cell(p)` is pre-set to [`Status::Active`] and `fault` to 0;
/// users treat the self pair inline.
#[derive(Clone)]
pub struct ProcessMonitorHandles {
    /// `monitoring_p[·]` inputs.
    pub monitoring: LocalVec<bool>,
    /// `active-for_p[·]` inputs.
    pub active_for: LocalVec<bool>,
    /// `status_p[·]` outputs.
    pub status: LocalVec<Status>,
    /// `faultCntr_p[·]` outputs.
    pub fault: LocalVec<u64>,
}

/// A fully built monitor mesh: handles for every process.
pub struct MonitorMesh {
    /// `handles[p]` is process `p`'s view.
    pub handles: Vec<ProcessMonitorHandles>,
}

impl MonitorMesh {
    /// Creates the mesh registers/handles and adds the 2·n·(n−1) monitor
    /// tasks to `b` (one monitoring task per `(p, q)` at `p`, one
    /// monitored task per `(p, q)` at `q`).
    ///
    /// The processes `0..n` must already exist in `b`.
    pub fn install(b: &mut SimBuilder, factory: &RegisterFactory, n: usize) -> MonitorMesh {
        let handles: Vec<ProcessMonitorHandles> = (0..n)
            .map(|_| ProcessMonitorHandles {
                monitoring: LocalVec::new(n, false),
                active_for: LocalVec::new(n, false),
                status: LocalVec::new(n, Status::Unknown),
                fault: LocalVec::new(n, 0),
            })
            .collect();
        // The diagonal self pairs (footnote 6) have no tasks: users treat
        // them inline (Figure 3 special-cases q = p as permanently
        // active with faultCntr 0).
        for p in 0..n {
            for q in 0..n {
                if p == q {
                    continue;
                }
                let pair = activity_monitor(factory, ProcId(p), ProcId(q));
                // Wire the pair's local cells to the mesh handles.
                let monitoring_cell = handles[p].monitoring.cell(ProcId(q)).clone();
                let status_cell = handles[p].status.cell(ProcId(q)).clone();
                let fault_cell = handles[p].fault.cell(ProcId(q)).clone();
                let active_cell = handles[q].active_for.cell(ProcId(p)).clone();

                let mut ms = pair.monitoring_side;
                ms.monitoring = monitoring_cell;
                ms.status = status_cell;
                ms.fault_cntr = fault_cell;
                let mut md = pair.monitored_side;
                md.active_for = active_cell;

                b.spawn_task(ProcId(p), &format!("mon[{p}->{q}]"), |env| ms.run(env));
                b.spawn_task(ProcId(q), &format!("hb[{q}->{p}]"), |env| md.run(env));
            }
        }
        MonitorMesh { handles }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // per-process assertions index parallel vectors
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{step, FutureTask, RunConfig, Stepper};

    /// A driver task that only takes steps.
    fn idle() -> Box<dyn Stepper> {
        Box::new(FutureTask::new(|_env| async {
            loop {
                step().await;
            }
        }))
    }

    #[test]
    fn mesh_reports_mutual_activity() {
        let n = 3;
        let factory = RegisterFactory::default();
        let mut b = SimBuilder::new();
        for p in 0..n {
            b.add_process(&format!("p{p}"));
        }
        let mesh = MonitorMesh::install(&mut b, &factory, n);
        // Turn everything on and let a driver task per process idle.
        for p in 0..n {
            for q in 0..n {
                if p != q {
                    mesh.handles[p].monitoring.set(ProcId(q), true);
                    mesh.handles[p].active_for.set(ProcId(q), true);
                }
            }
        }
        for p in 0..n {
            b.add_stepper(ProcId(p), "idle", idle());
        }
        let handles = mesh.handles.clone();
        let report = b.build().run(RunConfig::new(30_000, RoundRobin::new()));
        report.assert_no_panics();
        for p in 0..n {
            for q in 0..n {
                if p != q {
                    assert_eq!(
                        handles[p].status.get(ProcId(q)),
                        Status::Active,
                        "p{p} should see p{q} active"
                    );
                }
            }
        }
    }

    #[test]
    fn crashed_process_becomes_inactive_everywhere() {
        let n = 3;
        let factory = RegisterFactory::default();
        let mut b = SimBuilder::new();
        for p in 0..n {
            b.add_process(&format!("p{p}"));
        }
        let mesh = MonitorMesh::install(&mut b, &factory, n);
        for p in 0..n {
            for q in 0..n {
                if p != q {
                    mesh.handles[p].monitoring.set(ProcId(q), true);
                    mesh.handles[p].active_for.set(ProcId(q), true);
                }
            }
        }
        for p in 0..n {
            b.add_stepper(ProcId(p), "idle", idle());
        }
        let handles = mesh.handles.clone();
        let report = b
            .build()
            .run(RunConfig::new(40_000, RoundRobin::new()).crash(5_000, ProcId(2)));
        report.assert_no_panics();
        for p in 0..2 {
            assert_eq!(
                handles[p].status.get(ProcId(2)),
                Status::Inactive,
                "p{p} should see crashed p2 inactive"
            );
        }
        // And fault counters for the crashed process must have stopped
        // growing (Property 5(b)): check the last observation is early.
        for p in 0..2 {
            let series = report
                .trace
                .obs_series(ProcId(p), crate::fig2::OBS_FAULT, 2);
            if let Some((t, _)) = series.last() {
                assert!(*t < 30_000, "faultCntr[p2] at p{p} still moving at {t}");
            }
        }
    }
}
