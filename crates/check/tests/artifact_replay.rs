//! The committed repro artifacts replay to exactly the violations they
//! record, and malformed artifacts are refused with an error before
//! anything runs.

use std::path::{Path, PathBuf};

use tbwf_bench::gauntlet::{artifact_json, read_artifact, run_scenario, Outcome};
use tbwf_check::{counterexample_from_artifact, replay_counterexample};
use tbwf_sim::Json;

fn results(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file)
}

/// The replayed run must reproduce the artifact's recorded violations,
/// injections and measured timely set verbatim.
fn assert_reproduces(recorded: &Json, replayed: &Json) {
    for field in ["violations", "injections", "measured_timely"] {
        assert_eq!(
            replayed.get(field),
            recorded.get(field),
            "`{field}` differs from the artifact"
        );
    }
    let violations = recorded.get("violations").and_then(Json::as_arr);
    assert!(
        violations.is_some_and(|v| !v.is_empty()),
        "the artifact records no violation"
    );
}

#[test]
fn committed_gauntlet_artifact_reproduces() {
    let (recorded, sc) = read_artifact(&results("e12_ablation_repro.json")).expect("artifact");
    let out = run_scenario(&sc);
    assert_reproduces(&recorded, &artifact_json(&sc, &out));
}

#[test]
fn committed_model_check_counterexample_reproduces() {
    let path = results("e13_counterexample.json");
    let (sc, (start, script)) = counterexample_from_artifact(&path).expect("artifact");
    let out: Outcome = replay_counterexample(&sc, start, &script);
    let recorded = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_reproduces(&recorded, &artifact_json(&sc, &out));
}

/// Writes `text` to a scratch file and loads it both ways.
fn load(name: &str, text: &str) -> (Result<(), String>, Result<(), String>) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, text).unwrap();
    (
        read_artifact(&path).map(|_| ()),
        counterexample_from_artifact(&path).map(|_| ()),
    )
}

/// The committed E13 counterexample with `edit` applied to its text.
fn edited(edit: impl FnOnce(&str) -> String) -> String {
    edit(&std::fs::read_to_string(results("e13_counterexample.json")).unwrap())
}

#[test]
fn malformed_artifacts_are_refused() {
    let cases = [
        ("n_zero", edited(|t| t.replacen("\"n\": 2", "\"n\": 0", 1))),
        (
            "n_huge",
            edited(|t| t.replacen("\"n\": 2", "\"n\": 100000", 1)),
        ),
        (
            "n_too_wide",
            edited(|t| t.replacen("\"n\": 2", "\"n\": 18446744073709551615", 1)),
        ),
        (
            "steps_huge",
            edited(|t| t.replacen("\"steps\": 30000", "\"steps\": 1000000000000", 1)),
        ),
        (
            "switch_out_of_range",
            edited(|t| t.replace("cand[0]", "cand[7]")),
        ),
        ("not_json", "{\"scenario\": ".to_string()),
        (
            "after_proc_steps",
            edited(|t| {
                let steps = "\"after_proc_steps\": {\"proc\": 0, \"count\": 2000}";
                t.replacen("\"at\": 2000", steps, 1)
            }),
        ),
    ];
    for (name, text) in &cases {
        let (gauntlet, checker) = load(name, text);
        for (loader, res) in [("gauntlet", gauntlet), ("checker", checker)] {
            let err = res.expect_err(&format!("{name}: the {loader} accepted it"));
            if *name == "after_proc_steps" {
                assert!(err.contains("unknown trigger"), "{name}: {err}");
            }
        }
    }
}

#[test]
fn malformed_windows_are_refused() {
    let bad_script = edited(|t| {
        let at = t.find("\"script\": [").expect("window script");
        let (head, tail) = t.split_at(at);
        format!(
            "{head}{}",
            tail.replacen(|c: char| c.is_ascii_digit(), "9", 1)
        )
    });
    let past_end = edited(|t| t.replacen("\"start\": ", "\"start\": 99", 1));
    for (name, text) in [
        ("script_out_of_range", bad_script),
        ("window_past_end", past_end),
    ] {
        let (gauntlet, checker) = load(name, &text);
        assert!(gauntlet.is_ok(), "{name}: the scenario itself is fine");
        let err = checker.expect_err(name);
        assert!(err.contains("window"), "{name}: {err}");
    }
}
