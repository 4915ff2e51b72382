//! Checker configuration: the base scenario, the decision window, the
//! exploration bounds, and the injection catalogue.

use tbwf_bench::gauntlet::{switch_name, Scenario, DIAL_NAME};
use tbwf_sim::{FaultAction, FaultTarget, Json};

/// One nemesis action the checker may place before any step slot of the
/// decision window (each catalogue entry is placed at most once per
/// explored run; an injection before slot `k` fires at `window_start + k`,
/// before that slot's step is granted).
#[derive(Clone, Debug)]
pub struct InjectionSpec {
    /// Human-readable label used in reports and usage output.
    pub label: String,
    /// The fault-plan action the placement materializes.
    pub action: FaultAction,
    /// `Some(p)`: only process `p` ever observes the action's effect, so
    /// the injection commutes with a window step of any *other* process —
    /// the fact the sleep-set pruning rule exploits. `None`: conservatively
    /// assume every process may observe it (never commutes).
    pub transparent_to_others: Option<usize>,
}

impl InjectionSpec {
    /// `Some(p)`: the action crashes process `p`. Drives the enumerator's
    /// runnable-mask prediction (a crashed process takes no further window
    /// step).
    pub fn crashes(&self) -> Option<usize> {
        match self.action {
            FaultAction::Crash(FaultTarget::Proc(p)) => Some(p),
            _ => None,
        }
    }

    /// Sets process `p`'s external candidacy switch (Ω∆ kinds only).
    /// Only `p`'s own driver task reads the desired-candidacy flag, so
    /// the flip is transparent to steps of every other process.
    pub fn candidacy(p: usize, on: bool) -> InjectionSpec {
        InjectionSpec {
            label: format!("{} := {on}", switch_name(p)),
            action: FaultAction::SetSwitch {
                switch: switch_name(p),
                on,
            },
            transparent_to_others: Some(p),
        }
    }

    /// Crashes process `p` (never commutes: every peer can observe the
    /// silence through its activity monitor).
    pub fn crash(p: usize) -> InjectionSpec {
        InjectionSpec {
            label: format!("crash p{p}"),
            action: FaultAction::Crash(FaultTarget::Proc(p)),
            transparent_to_others: None,
        }
    }

    /// Turns the register factory's abort/effect policy dial (never
    /// commutes: every process's register operations see the policy).
    pub fn dial(label: &str, value: i64) -> InjectionSpec {
        InjectionSpec {
            label: label.to_string(),
            action: FaultAction::SetDial {
                dial: DIAL_NAME.to_string(),
                value,
            },
            transparent_to_others: None,
        }
    }

    /// Demotes process `p` in the background [`NemesisSchedule`]'s timely
    /// set. The demotion takes effect once the schedule resumes after the
    /// decision window; it is treated as non-commuting because the slowed
    /// stepping pattern is visible to every monitor.
    ///
    /// [`NemesisSchedule`]: tbwf_sim::NemesisSchedule
    pub fn demote(p: usize) -> InjectionSpec {
        InjectionSpec {
            label: format!("demote p{p}"),
            action: FaultAction::Demote(FaultTarget::Proc(p)),
            transparent_to_others: None,
        }
    }
}

/// A bounded model-checking problem: a base [`Scenario`] (system kind,
/// seed, run length, background fault plan), a decision window, and the
/// exploration bounds.
///
/// The checker enumerates every admissible assignment of (a) which
/// process steps at each of the `depth` window slots and (b) where among
/// the slots the catalogue injections land, then runs each assignment to
/// the scenario's full horizon and evaluates the gauntlet oracles on the
/// terminal run.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Stable configuration name used in reports and artifacts.
    pub name: String,
    /// The base campaign; its plan must be crash-free (crashes belong in
    /// the catalogue, where the enumerator can account for them).
    pub scenario: Scenario,
    /// First time slot of the decision window.
    pub window_start: u64,
    /// Number of consecutive step slots the checker controls.
    pub depth: usize,
    /// CHESS-style preemption bound: a slot that switches to a different
    /// process than the previous slot costs one preemption (free when the
    /// previous process crashed, and for the first slot).
    pub preemptions: usize,
    /// Maximum number of catalogue injections placed per explored run.
    pub max_injections: usize,
    /// The injections available for placement.
    pub catalogue: Vec<InjectionSpec>,
}

impl CheckConfig {
    /// Checks the configuration is explorable and its analytic
    /// runnable-mask prediction is sound.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.scenario.n;
        if n == 0 || n > 64 {
            return Err(format!("n = {n} outside the checkable range 1..=64"));
        }
        if self.depth == 0 {
            return Err("depth must be at least 1".into());
        }
        let end = self.window_start + self.depth as u64;
        let last_quarter = self.scenario.steps - self.scenario.steps / 4;
        if end > last_quarter {
            return Err(format!(
                "decision window ends at {end}, inside the final quarter of the run \
                 (≥ {last_quarter}); soloing there would distort the measured timely set \
                 the oracles depend on"
            ));
        }
        for ev in &self.scenario.plan.events {
            if matches!(ev.action, FaultAction::Crash(_)) {
                return Err(
                    "base plan must be crash-free: put crashes in the catalogue, where the \
                     enumerator can predict the runnable set"
                        .into(),
                );
            }
        }
        for (i, spec) in self.catalogue.iter().enumerate() {
            if let Some(p) = spec.crashes() {
                if p >= n {
                    return Err(format!("catalogue[{i}] crashes p{p}, but n = {n}"));
                }
            }
            if let Some(p) = spec.transparent_to_others {
                if p >= n {
                    return Err(format!("catalogue[{i}] is owned by p{p}, but n = {n}"));
                }
            }
        }
        Ok(())
    }

    /// Serializes the configuration (the `config` object of a report).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("scenario", self.scenario.to_json()),
            ("window_start", Json::Int(self.window_start as i128)),
            ("depth", Json::Int(self.depth as i128)),
            ("preemptions", Json::Int(self.preemptions as i128)),
            ("max_injections", Json::Int(self.max_injections as i128)),
            (
                "catalogue",
                Json::Arr(self.catalogue.iter().map(|s| Json::str(&s.label)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_bench::gauntlet::SystemKind;
    use tbwf_sim::{FaultPlan, Trigger};

    fn base(n: usize) -> CheckConfig {
        CheckConfig {
            name: "test".into(),
            scenario: Scenario {
                seed: 1,
                kind: SystemKind::OmegaAtomic,
                n,
                steps: 1_000,
                settle: 500,
                self_punish: true,
                plan: FaultPlan::new(),
            },
            window_start: 600,
            depth: 4,
            preemptions: 2,
            max_injections: 1,
            catalogue: vec![InjectionSpec::candidacy(0, false)],
        }
    }

    #[test]
    fn accepts_a_sound_config() {
        base(2).validate().expect("valid");
    }

    #[test]
    fn rejects_window_in_final_quarter() {
        let mut cfg = base(2);
        cfg.window_start = 900;
        assert!(cfg.validate().unwrap_err().contains("final quarter"));
    }

    #[test]
    fn rejects_crashes_in_base_plan() {
        let mut cfg = base(2);
        cfg.scenario.plan =
            FaultPlan::new().with(Trigger::At(100), FaultAction::Crash(FaultTarget::Proc(0)));
        assert!(cfg.validate().unwrap_err().contains("crash-free"));
    }

    #[test]
    fn rejects_out_of_range_catalogue_targets() {
        let mut cfg = base(2);
        cfg.catalogue = vec![InjectionSpec::crash(5)];
        assert!(cfg.validate().is_err());
        cfg.catalogue = vec![InjectionSpec::candidacy(3, true)];
        assert!(cfg.validate().is_err());
    }
}
