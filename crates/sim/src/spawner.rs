//! The [`TaskSpawner`] abstraction: where algorithm tasks get attached.
//!
//! The paper's algorithms are written as [`Stepper`]s; *who runs them*
//! is orthogonal. The deterministic simulator attaches them to
//! [`SimBuilder`] processes; the native harness (in the `tbwf` crate)
//! polls each one on an OS thread of its own. Mesh and Ω∆ installers
//! accept `&mut dyn TaskSpawner` and therefore work on both unchanged.

use crate::ids::ProcId;
use crate::runner::SimBuilder;
use crate::step::Stepper;

/// Something that can host algorithm tasks for processes `0..n`.
pub trait TaskSpawner {
    /// Attaches `stepper` as a task of process `pid`.
    fn spawn_stepper(&mut self, pid: ProcId, name: &str, stepper: Box<dyn Stepper>);
}

impl TaskSpawner for SimBuilder {
    fn spawn_stepper(&mut self, pid: ProcId, name: &str, stepper: Box<dyn Stepper>) {
        self.add_stepper(pid, name, stepper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RoundRobin;
    use crate::step::{Control, StepCtx};
    use crate::RunConfig;

    struct FiveSteps {
        i: i64,
    }

    impl Stepper for FiveSteps {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
            if self.i < 5 {
                ctx.observe("i", 0, self.i);
                self.i += 1;
                Control::Yield
            } else {
                Control::Done
            }
        }
    }

    fn generic_install(spawner: &mut dyn TaskSpawner, pid: ProcId) {
        spawner.spawn_stepper(pid, "generic", Box::new(FiveSteps { i: 0 }));
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
