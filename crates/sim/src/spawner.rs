//! Attaching `async` task bodies to the processes of a [`SimBuilder`].
//!
//! The paper's algorithms are `async` task bodies run by [`FutureTask`].
//! [`SimBuilder::spawn_task`] wraps one and attaches it to a process, so
//! mesh and Ω∆ installers take `&mut SimBuilder` and never name the
//! adapter. A run lives on one thread: the body is built at once and
//! never changes threads, so it need not be `Send`.

use crate::env::Env;
use crate::ids::ProcId;
use crate::runner::SimBuilder;
use crate::step::FutureTask;
use std::future::Future;
use std::rc::Rc;

impl SimBuilder {
    /// Attaches the `async` task `body(env)` to process `pid`, run by a
    /// [`FutureTask`].
    pub fn spawn_task<B, F>(&mut self, pid: ProcId, name: &str, body: B)
    where
        B: FnOnce(Rc<dyn Env>) -> F + 'static,
        F: Future<Output = ()> + 'static,
    {
        self.add_stepper(pid, name, Box::new(FutureTask::new(body)));
    }
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

    #[test]
    fn sim_builder_hosts_generic_tasks() {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        b.spawn_task(p, "generic", five_steps);
        let report = b.build().run(RunConfig::new(100, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.trace.obs_series(p, "i", 0).len(), 5);
        assert_eq!(report.trace.len(), 5);
    }
}
