//! The [`TaskSpawner`] abstraction: where algorithm tasks get attached.
//!
//! The paper's algorithms are `async` task bodies run by [`FutureTask`];
//! *who runs them* is orthogonal. The deterministic simulator attaches
//! them to [`SimBuilder`] processes; the native harness (in the `tbwf`
//! crate) polls each one on an OS thread of its own. A built task holds
//! its env through an `Rc` and never changes threads, so a spawner is
//! handed a `Send` *maker* of the task and calls it where the task will
//! run: the simulator at once, the native harness on the task's own
//! thread. Mesh and Ω∆ installers accept `&mut dyn TaskSpawner` and
//! therefore work on both unchanged.

use crate::env::Env;
use crate::ids::ProcId;
use crate::runner::SimBuilder;
use crate::step::{FutureTask, Stepper};
use std::future::Future;
use std::rc::Rc;

/// Something that can host algorithm tasks for processes `0..n`.
pub trait TaskSpawner {
    /// Attaches the task `make()` to process `pid`; `make` is called on
    /// the thread that will poll the task.
    fn spawn_stepper(
        &mut self,
        pid: ProcId,
        name: &str,
        make: Box<dyn FnOnce() -> Box<dyn Stepper> + Send>,
    );
}

impl TaskSpawner for SimBuilder {
    fn spawn_stepper(
        &mut self,
        pid: ProcId,
        name: &str,
        make: Box<dyn FnOnce() -> Box<dyn Stepper> + Send>,
    ) {
        self.add_stepper(pid, name, make());
    }
}

/// Attaches the `async` task `body(env)` to process `pid` of `spawner`,
/// run by a [`FutureTask`].
pub fn spawn_task<B, F>(spawner: &mut dyn TaskSpawner, pid: ProcId, name: &str, body: B)
where
    B: FnOnce(Rc<dyn Env>) -> F + Send + 'static,
    F: Future<Output = ()> + 'static,
{
    spawner.spawn_stepper(pid, name, Box::new(move || Box::new(FutureTask::new(body))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RoundRobin;
    use crate::step::step;
    use crate::RunConfig;

    async fn five_steps(env: Rc<dyn Env>) {
        for i in 0..5 {
            env.observe("i", 0, i);
            step().await;
        }
    }

    fn generic_install(spawner: &mut dyn TaskSpawner, pid: ProcId) {
        spawn_task(spawner, pid, "generic", five_steps);
    }

    #[test]
    fn sim_builder_hosts_generic_tasks() {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        generic_install(&mut b, p);
        let report = b.build().run(RunConfig::new(100, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.trace.obs_series(p, "i", 0).len(), 5);
        assert_eq!(report.trace.len(), 5);
    }
}
