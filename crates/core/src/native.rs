//! Native harness: the full TBWF stack on **real OS threads**.
//!
//! The deterministic simulator is the reference backend (it is where the
//! specifications are checked); this harness runs the *same algorithm
//! code* — the monitor mesh, Ω∆, and the query-abortable object — with
//! real parallelism and OS scheduling: each task's stepper is polled in a
//! loop on an OS thread of its own, and each client polls its
//! [`TbwfCall`] on the calling thread. Registers
//! are the same simulated-register implementations: their two-phase
//! overlap detection works under genuine concurrency, so abortable
//! registers abort on real races.
//!
//! Timeliness becomes a property of the OS scheduler: on an unloaded
//! machine every thread is timely, so the TBWF object behaves wait-free.
//! The harness is an extension beyond the paper's model, demonstrating
//! that the algorithms are not simulator-bound.
//!
//! # Example
//!
//! ```
//! use tbwf::native::NativeTbwf;
//! use tbwf::prelude::*;
//!
//! let system = NativeTbwf::start(Counter, 2, OmegaKind::Atomic);
//! let mut client = system.client(0);
//! let v = client.invoke(CounterOp::Inc).expect("system is running");
//! assert_eq!(v, 1);
//! system.shutdown();
//! ```

use crate::system::OBS_COMPLETED;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tbwf_omega::harness::{install_omega_with, OmegaOptions};
use tbwf_omega::{OmegaHandles, OmegaKind};
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::{Control, Env, ProcId, StepCtx, Stepper, TaskSpawner};
use tbwf_universal::qa::QaObject;
use tbwf_universal::tbwf::TbwfCall;
use tbwf_universal::ObjectType;

/// The system was shut down while an operation was in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Halted;

impl fmt::Display for Halted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "native system halted")
    }
}

impl std::error::Error for Halted {}

/// The environment of one native process.
///
/// `now` is the process's own step count: monotone but — unlike the
/// simulator — not a total order of steps. Observations are dropped
/// (native runs are for throughput, not trace checking).
#[derive(Clone)]
struct NativeEnv {
    pid: ProcId,
    stop: Arc<AtomicBool>,
    clock: Arc<AtomicU64>,
}

impl NativeEnv {
    fn new(pid: ProcId, stop: Arc<AtomicBool>) -> Self {
        NativeEnv {
            pid,
            stop,
            clock: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Takes one step between two segments: fails once the system is
    /// stopping, else advances the clock.
    fn step(&self) -> Result<(), Halted> {
        if self.stop.load(Ordering::Relaxed) {
            return Err(Halted);
        }
        self.clock.fetch_add(1, Ordering::Relaxed);
        std::hint::spin_loop();
        Ok(())
    }
}

impl Env for NativeEnv {
    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, _key: &'static str, _idx: u32, _value: i64) {}
}

/// A [`TaskSpawner`] that polls each task on its own OS thread.
struct ThreadSpawner {
    envs: Vec<NativeEnv>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadSpawner {
    fn new(n: usize, stop: &Arc<AtomicBool>) -> Self {
        let envs = (0..n)
            .map(|p| NativeEnv::new(ProcId(p), Arc::clone(stop)))
            .collect();
        ThreadSpawner {
            envs,
            handles: Vec::new(),
        }
    }
}

impl TaskSpawner for ThreadSpawner {
    fn spawn_stepper(&mut self, pid: ProcId, name: &str, mut stepper: Box<dyn Stepper>) {
        let env = self.envs[pid.0].clone();
        let handle = std::thread::Builder::new()
            .name(format!("{pid}-{name}"))
            .spawn(move || {
                // One segment per step until the task finishes or the
                // system stops.
                while stepper.step(&mut StepCtx::new(&env)) == Control::Yield && env.step().is_ok()
                {
                }
            })
            .expect("failed to spawn native task thread");
        self.handles.push(handle);
    }
}

/// A running native TBWF system: Ω∆ (and, for the atomic flavor, the
/// whole activity-monitor mesh) live on background threads; clients
/// invoke operations from any thread.
pub struct NativeTbwf<T: ObjectType> {
    obj: Arc<QaObject<T>>,
    omega_handles: Vec<OmegaHandles>,
    envs: Vec<NativeEnv>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: ObjectType> NativeTbwf<T> {
    /// Starts the system for `n` processes with default register policies.
    pub fn start(ty: T, n: usize, kind: OmegaKind) -> Self {
        Self::start_with(ty, n, kind, RegisterFactoryConfig::default())
    }

    /// Starts the system with explicit register policies.
    pub fn start_with(ty: T, n: usize, kind: OmegaKind, config: RegisterFactoryConfig) -> Self {
        let factory = Arc::new(RegisterFactory::new_unlogged(config));
        let stop = Arc::new(AtomicBool::new(false));
        let mut spawner = ThreadSpawner::new(n, &stop);
        let omega_handles =
            install_omega_with(&mut spawner, &factory, n, kind, OmegaOptions::default());
        let obj = QaObject::new(ty, n, Arc::clone(&factory));
        NativeTbwf {
            obj,
            omega_handles,
            envs: spawner.envs,
            stop,
            handles: spawner.handles,
        }
    }

    /// A client handle for process `p`. Each process must have at most
    /// one client (it owns that process's object session).
    pub fn client(&self, p: usize) -> NativeClient<T> {
        NativeClient {
            env: self.envs[p].clone(),
            session: self.obj.session(ProcId(p)),
            omega: self.omega_handles[p].clone(),
            completed: 0,
        }
    }

    /// Stops every background thread and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<T: ObjectType> Drop for NativeTbwf<T> {
    fn drop(&mut self) {
        // Belt and braces: never leave spinning threads behind.
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A per-process client of a [`NativeTbwf`] system.
pub struct NativeClient<T: ObjectType> {
    env: NativeEnv,
    session: tbwf_universal::qa::QaSession<T>,
    omega: OmegaHandles,
    completed: u64,
}

impl<T: ObjectType> NativeClient<T> {
    /// Executes one operation through the Figure 7 transform, blocking
    /// until it completes.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the system was shut down while the
    /// operation was in progress.
    pub fn invoke(&mut self, op: T::Op) -> Result<T::Resp, Halted> {
        let mut call = TbwfCall::new(op, true);
        let resp = loop {
            if let Some(resp) = call.poll(&self.env, &mut self.session, &self.omega) {
                break resp;
            }
            self.env.step()?;
        };
        self.completed += 1;
        self.env.observe(OBS_COMPLETED, 0, self.completed as i64);
        Ok(resp)
    }

    /// Operations completed by this client.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Stack, StackOp, StackResp};
    use tbwf_universal::object::{Counter, CounterOp};

    #[test]
    fn native_counter_single_client() {
        let system = NativeTbwf::start(Counter, 2, OmegaKind::Atomic);
        let mut c = system.client(0);
        for i in 1..=10 {
            assert_eq!(c.invoke(CounterOp::Inc).unwrap(), i);
        }
        assert_eq!(c.completed(), 10);
        system.shutdown();
    }

    #[test]
    fn native_counter_parallel_clients_linearize() {
        let system = NativeTbwf::start(Counter, 3, OmegaKind::Atomic);
        let mut threads = Vec::new();
        for p in 0..3 {
            let mut client = system.client(p);
            threads.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..20 {
                    got.push(client.invoke(CounterOp::Inc).unwrap());
                }
                got
            }));
        }
        let mut all: Vec<i64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        system.shutdown();
        all.sort_unstable();
        let expect: Vec<i64> = (1..=60).collect();
        assert_eq!(all, expect, "responses must be exactly 1..=60");
    }

    #[test]
    fn native_abortable_omega_works_too() {
        let system = NativeTbwf::start(Counter, 2, OmegaKind::Abortable);
        let mut c = system.client(1);
        assert_eq!(c.invoke(CounterOp::Inc).unwrap(), 1);
        system.shutdown();
    }

    #[test]
    fn native_stack_roundtrip() {
        let system = NativeTbwf::start(Stack, 2, OmegaKind::Atomic);
        let mut c = system.client(0);
        assert_eq!(c.invoke(StackOp::Push(5)).unwrap(), StackResp::Pushed);
        assert_eq!(c.invoke(StackOp::Pop).unwrap(), StackResp::Popped(Some(5)));
        assert_eq!(c.invoke(StackOp::Pop).unwrap(), StackResp::Popped(None));
        system.shutdown();
    }

    #[test]
    fn shutdown_unblocks_inflight_invocations() {
        let system = NativeTbwf::start(Counter, 2, OmegaKind::Atomic);
        // A client on a process whose leader never becomes itself would
        // block; shutting down must release it with Halted.
        let mut client = system.client(0);
        let stopper = {
            let stop = system.stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(100));
                stop.store(true, Ordering::SeqCst);
            })
        };
        // Run invocations until Halted arrives.
        let mut halted = false;
        for _ in 0..1_000_000 {
            match client.invoke(CounterOp::Inc) {
                Ok(_) => {}
                Err(Halted) => {
                    halted = true;
                    break;
                }
            }
        }
        stopper.join().unwrap();
        assert!(halted, "shutdown must surface as Halted");
        system.shutdown();
    }
}
