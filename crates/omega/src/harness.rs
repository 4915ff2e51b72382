//! Assembling complete Ω∆ systems: registers, monitor mesh (when needed),
//! algorithm tasks, and candidate drivers.

// `for p in 0..n` indexing parallel handle vectors mirrors the paper's
// per-process wiring; an iterator chain would obscure it.
#![allow(clippy::needless_range_loop)]

use crate::abortable_impl::{AbortableOmegaProcess, HeartbeatChannels, Msg, MsgChannels};
use crate::atomic_impl::AtomicOmegaProcess;
use crate::drivers::{add_candidate_driver, CandidateScript};
use crate::OmegaHandles;
use std::sync::Arc;
use tbwf_monitor::MonitorMesh;
use tbwf_registers::{OpLog, RegisterFactory, RegisterFactoryConfig, SharedAbortable};
use tbwf_sim::{ProcId, RunConfig, RunReport, SimBuilder};

/// Which Ω∆ implementation to install.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OmegaKind {
    /// Figure 3 — atomic registers + activity monitors.
    Atomic,
    /// Figures 4–6 — SWSR abortable registers only.
    Abortable,
}

/// Configuration of a self-contained Ω∆ system run.
#[derive(Clone, Debug)]
pub struct OmegaSystemConfig {
    /// Number of processes.
    pub n: usize,
    /// Implementation to use.
    pub kind: OmegaKind,
    /// One candidacy script per process.
    pub scripts: Vec<CandidateScript>,
    /// Register backend configuration (seed, abort/effect policies).
    pub factory: RegisterFactoryConfig,
}

impl Default for OmegaSystemConfig {
    fn default() -> Self {
        OmegaSystemConfig {
            n: 2,
            kind: OmegaKind::Atomic,
            scripts: vec![CandidateScript::Always; 2],
            factory: RegisterFactoryConfig::default(),
        }
    }
}

/// Installs the Ω∆ implementation (registers + algorithm tasks, but *no*
/// candidate drivers) into `builder`. The `n` processes must already
/// exist. Returns the per-process handles.
///
/// Used directly by the TBWF transform (`tbwf-universal`), whose object
/// driver controls candidacy itself (Figure 7).
pub fn install_omega(
    b: &mut SimBuilder,
    factory: &RegisterFactory,
    n: usize,
    kind: OmegaKind,
) -> Vec<OmegaHandles> {
    install_omega_with(b, factory, n, kind, true)
}

/// [`install_omega`] with the self-punishment of Figure 3 lines 7–8
/// switchable: `self_punish = true` is the paper's exact algorithm,
/// `false` the ablation.
pub fn install_omega_with(
    b: &mut SimBuilder,
    factory: &RegisterFactory,
    n: usize,
    kind: OmegaKind,
    self_punish: bool,
) -> Vec<OmegaHandles> {
    let handles: Vec<OmegaHandles> = (0..n).map(|_| OmegaHandles::new()).collect();
    match kind {
        OmegaKind::Atomic => {
            let counter_regs: Vec<_> = (0..n)
                .map(|_| factory.atomic("CounterRegister", 0i64))
                .collect();
            let mesh = MonitorMesh::install(b, factory, n);
            for p in 0..n {
                let proc = AtomicOmegaProcess {
                    p: ProcId(p),
                    n,
                    handles: handles[p].clone(),
                    monitors: mesh.handles[p].clone(),
                    counter_regs: counter_regs.clone(),
                    self_punish,
                };
                b.spawn_task(ProcId(p), "omega", |env| proc.run(env));
            }
        }
        OmegaKind::Abortable => {
            // Full matrices of SWSR abortable registers.
            let mut msg: Vec<Vec<Option<SharedAbortable<Msg>>>> = vec![vec![None; n]; n];
            let mut hb1: Vec<Vec<Option<SharedAbortable<i64>>>> = vec![vec![None; n]; n];
            let mut hb2: Vec<Vec<Option<SharedAbortable<i64>>>> = vec![vec![None; n]; n];
            for p in 0..n {
                for q in 0..n {
                    if p == q {
                        continue;
                    }
                    let (wp, rq) = (ProcId(p), ProcId(q));
                    msg[p][q] = Some(factory.abortable_swsr("MsgRegister", (0i64, 0i64), wp, rq));
                    hb1[p][q] = Some(factory.abortable_swsr("HbRegister1", 0i64, wp, rq));
                    hb2[p][q] = Some(factory.abortable_swsr("HbRegister2", 0i64, wp, rq));
                }
            }
            for p in 0..n {
                let out: Vec<_> = (0..n).map(|q| msg[p][q].clone()).collect();
                let inn: Vec<_> = (0..n).map(|q| msg[q][p].clone()).collect();
                let hb1_out: Vec<_> = (0..n).map(|q| hb1[p][q].clone()).collect();
                let hb2_out: Vec<_> = (0..n).map(|q| hb2[p][q].clone()).collect();
                let hb1_in: Vec<_> = (0..n).map(|q| hb1[q][p].clone()).collect();
                let hb2_in: Vec<_> = (0..n).map(|q| hb2[q][p].clone()).collect();
                let proc = AbortableOmegaProcess {
                    p: ProcId(p),
                    n,
                    handles: handles[p].clone(),
                    msgs: MsgChannels::new(ProcId(p), n, out, inn),
                    hb: HeartbeatChannels::new(ProcId(p), n, hb1_out, hb2_out, hb1_in, hb2_in),
                };
                b.spawn_task(ProcId(p), "omega", |env| proc.run(env));
            }
        }
    }
    handles
}

/// The result of [`run_omega_system`].
pub struct OmegaSystemOutput {
    /// The run report (trace + task outcomes).
    pub report: RunReport,
    /// Per-process Ω∆ handles (final values readable after the run).
    pub handles: Vec<OmegaHandles>,
    /// The register operation log.
    pub log: Arc<OpLog>,
}

/// Builds and runs a complete Ω∆ system: processes, implementation,
/// scripted candidate drivers.
///
/// ```
/// use tbwf_omega::{run_omega_system, CandidateScript, OmegaKind, OmegaSystemConfig};
/// use tbwf_sim::schedule::RoundRobin;
/// use tbwf_sim::{ProcId, RunConfig};
///
/// let cfg = OmegaSystemConfig {
///     n: 2,
///     kind: OmegaKind::Atomic,
///     scripts: vec![CandidateScript::Always; 2],
///     ..Default::default()
/// };
/// let out = run_omega_system(&cfg, RunConfig::new(10_000, RoundRobin::new()));
/// out.report.assert_no_panics();
/// // Equal counters: the lowest-id candidate wins at both processes.
/// assert_eq!(out.handles[0].leader.get(), Some(ProcId(0)));
/// assert_eq!(out.handles[1].leader.get(), Some(ProcId(0)));
/// ```
///
/// # Panics
///
/// Panics if `cfg.scripts.len() != cfg.n`.
pub fn run_omega_system(cfg: &OmegaSystemConfig, run: RunConfig) -> OmegaSystemOutput {
    assert_eq!(cfg.scripts.len(), cfg.n, "one candidacy script per process");
    let factory = RegisterFactory::new(cfg.factory);
    let mut b = SimBuilder::new();
    for p in 0..cfg.n {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega(&mut b, &factory, cfg.n, cfg.kind);
    for p in 0..cfg.n {
        add_candidate_driver(&mut b, ProcId(p), &handles[p], cfg.scripts[p]);
    }
    let report = b.build().run(run);
    OmegaSystemOutput {
        report,
        handles,
        log: factory.log(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;

    #[test]
    fn two_process_atomic_smoke() {
        let cfg = OmegaSystemConfig::default();
        let out = run_omega_system(&cfg, RunConfig::new(30_000, RoundRobin::new()));
        out.report.assert_no_panics();
        // Both permanent candidates must agree on p0 (equal counters,
        // smallest id wins).
        assert_eq!(out.handles[0].leader.get(), Some(ProcId(0)));
        assert_eq!(out.handles[1].leader.get(), Some(ProcId(0)));
    }

    #[test]
    #[should_panic(expected = "one candidacy script per process")]
    fn script_count_must_match() {
        let cfg = OmegaSystemConfig {
            n: 3,
            ..Default::default()
        };
        let _ = run_omega_system(&cfg, RunConfig::new(100, RoundRobin::new()));
    }
}
