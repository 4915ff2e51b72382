//! Checker reports and counterexample artifacts.

use std::path::Path;

use tbwf_bench::gauntlet::{artifact_json, read_artifact, Outcome, Scenario};
use tbwf_sim::Json;

use crate::config::CheckConfig;

/// Exploration statistics of one configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckStats {
    /// Terminal runs executed (states visited).
    pub leaves: usize,
    /// Branches dropped by the sleep-set rule before execution.
    pub pruned_branches: u64,
    /// Distinct terminal-state fingerprints among the visited leaves.
    pub distinct_states: usize,
    /// Leaves whose fingerprint repeated an earlier (canonical-order)
    /// leaf — equivalent terminal states collapsed in the report.
    pub deduped: usize,
    /// Leaves on which at least one oracle fired.
    pub violating: usize,
}

/// A shrunk, self-contained counterexample: the materialized scenario
/// (base plan plus the surviving placed injections) together with the
/// decision-window step script it must replay under.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The materialized scenario, in the gauntlet's repro format.
    pub scenario: Scenario,
    /// First slot of the decision window.
    pub window_start: u64,
    /// The window's step script (process per slot).
    pub script: Vec<usize>,
    /// Placed injections surviving ddmin.
    pub injections_placed: usize,
    /// The shrunk run's outcome.
    pub outcome: Outcome,
}

impl Counterexample {
    /// Serializes the counterexample: the gauntlet artifact (scenario,
    /// violations, injections, measured timely set) extended with the
    /// `window` object that `e13_model_check --repro` replays under.
    pub fn to_json(&self) -> Json {
        let mut artifact = artifact_json(&self.scenario, &self.outcome);
        if let Json::Obj(pairs) = &mut artifact {
            pairs.push((
                "window".to_string(),
                Json::obj([
                    ("start", Json::Int(self.window_start as i128)),
                    (
                        "script",
                        Json::Arr(self.script.iter().map(|&p| Json::Int(p as i128)).collect()),
                    ),
                ]),
            ));
        }
        artifact
    }
}

/// The result of checking one configuration.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The configuration as explored.
    pub config: CheckConfig,
    /// Exploration statistics.
    pub stats: CheckStats,
    /// The first (canonical order) violating leaf, ddmin-shrunk; `None`
    /// when every leaf passed all oracles.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// Serializes the full report. Pure function of the exploration, so
    /// the determinism test compares it byte-for-byte across worker
    /// counts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            (
                "stats",
                Json::obj([
                    ("leaves", Json::Int(self.stats.leaves as i128)),
                    (
                        "pruned_branches",
                        Json::Int(self.stats.pruned_branches as i128),
                    ),
                    (
                        "distinct_states",
                        Json::Int(self.stats.distinct_states as i128),
                    ),
                    ("deduped", Json::Int(self.stats.deduped as i128)),
                    ("violating", Json::Int(self.stats.violating as i128)),
                ]),
            ),
            (
                "counterexample",
                match &self.counterexample {
                    Some(cex) => cex.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Parses the `window` object back out of a counterexample artifact.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn window_from_artifact(artifact: &Json) -> Result<(u64, Vec<usize>), String> {
    let window = artifact
        .get("window")
        .ok_or("artifact lacks `window` (not a model-checker counterexample?)")?;
    let start = window
        .get("start")
        .and_then(Json::as_u64)
        .ok_or("`window.start` not an integer")?;
    let script = window
        .get("script")
        .and_then(Json::as_arr)
        .ok_or("`window.script` not an array")?
        .iter()
        .map(|v| v.as_u64().map(|p| p as usize))
        .collect::<Option<Vec<usize>>>()
        .ok_or("`window.script` holds a non-integer")?;
    Ok((start, script))
}

/// A counterexample read back from its artifact file: the scenario and
/// its decision window `(start, script)`.
pub type LoadedCounterexample = (Scenario, (u64, Vec<usize>));

/// Reads a counterexample artifact (the `--repro` mode of
/// `e13_model_check`): the validated scenario and its window, which must
/// lie inside the run and name only processes of the system.
///
/// # Errors
///
/// Returns a description of the I/O or parse failure, or of why the
/// artifact cannot be replayed.
pub fn counterexample_from_artifact(path: &Path) -> Result<LoadedCounterexample, String> {
    let (json, sc) = read_artifact(path)?;
    let (start, script) = window_from_artifact(&json)?;
    if let Some(p) = script.iter().find(|&&p| p >= sc.n) {
        return Err(format!(
            "`window.script` names process {p} but n = {}",
            sc.n
        ));
    }
    let end = start.checked_add(script.len() as u64);
    if end.is_none_or(|end| end > sc.steps) {
        return Err(format!(
            "window of {} slots from {start} ends past the run's {} steps",
            script.len(),
            sc.steps
        ));
    }
    Ok((sc, (start, script)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_bench::gauntlet::SystemKind;
    use tbwf_sim::FaultPlan;

    #[test]
    fn counterexample_json_round_trips_through_the_gauntlet_format() {
        let cex = Counterexample {
            scenario: Scenario {
                seed: 9,
                kind: SystemKind::OmegaAtomic,
                n: 2,
                steps: 1_000,
                settle: 500,
                self_punish: false,
                plan: FaultPlan::new(),
            },
            window_start: 600,
            script: vec![0, 0, 1],
            injections_placed: 1,
            outcome: Outcome::default(),
        };
        let json = cex.to_json();
        // The scenario parses with the gauntlet's own loader…
        let sc = Scenario::from_json(json.get("scenario").expect("scenario")).expect("parse");
        assert_eq!(sc.seed, 9);
        // …and the window survives a text round trip.
        let reparsed = Json::parse(&json.to_string_pretty()).expect("reparse");
        let (start, script) = window_from_artifact(&reparsed).expect("window");
        assert_eq!(start, 600);
        assert_eq!(script, vec![0, 0, 1]);
    }
}
