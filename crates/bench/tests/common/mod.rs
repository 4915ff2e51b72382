//! Checks shared by the `results.rs` and `cli.rs` tests of `tbwf-bench`
//! and `tbwf-check`: committed results, and the experiment binaries'
//! command lines. Every binary runs from the workspace root, as CI runs
//! it.

#![allow(dead_code)] // each test crate uses part of this module

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tbwf_bench::Findings;
use tbwf_sim::Json;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Panics with the first line where `actual` differs from the committed
/// `results/<file>`, and any problems the experiment reported.
pub fn assert_committed(file: &str, actual: &str, problems: &[String]) {
    let committed = std::fs::read_to_string(workspace_root().join("results").join(file))
        .expect("committed result");
    if committed == actual {
        return;
    }
    let want: Vec<&str> = committed.split('\n').collect();
    let got: Vec<&str> = actual.split('\n').collect();
    let i = (0..)
        .find(|&i| want.get(i) != got.get(i))
        .expect("unequal texts differ in some line");
    panic!(
        "results/{file} differs at line {}: committed {:?}, produced {:?}; problems: {problems:?}",
        i + 1,
        want.get(i).unwrap_or(&"(end)"),
        got.get(i).unwrap_or(&"(end)")
    );
}

/// Compares E12's or E13's text with `results/<name>.txt` and its
/// artifact `stem`, as its binary writes it, with `results/<stem>.json`;
/// then requires that the experiment reported no problem.
pub fn assert_findings(name: &str, findings: &Findings, stem: &str) {
    let problems = &findings.problems;
    assert_committed(&format!("{name}.txt"), &findings.text, problems);
    let (_, artifact) = findings
        .artifacts
        .iter()
        .find(|(s, _)| s == stem)
        .unwrap_or_else(|| panic!("no artifact {stem}; problems: {problems:?}"));
    let written = artifact.to_string_pretty() + "\n";
    assert_committed(&format!("{stem}.json"), &written, problems);
    assert!(problems.is_empty(), "{problems:?}");
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("the binary starts")
}

/// Runs `bin` with `args` and asserts that it exits with status 1 and a
/// stderr containing `message`, without panicking.
pub fn assert_fails(bin: &str, args: &[&str], message: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

/// A zero or non-numeric `--jobs`, an unknown flag, and the removed
/// `--campaigns` and `--quick` flags are each refused with the usage.
pub fn assert_refuses_bad_arguments(bin: &str) {
    for args in [
        &["--jobs", "0"][..],
        &["--jobs", "x"],
        &["--bogus"],
        &["--campaigns", "10"],
        &["--quick"],
    ] {
        assert_fails(bin, args, "usage:");
    }
}

/// `bin --repro <artifact>` succeeds and prints every violation the
/// committed artifact records, and leaves the artifact's bytes alone.
pub fn assert_replays(bin: &str, artifact: &str) {
    let path = workspace_root().join(artifact);
    let before = std::fs::read_to_string(&path).expect("committed artifact");
    let out = run(bin, &["--repro", artifact]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let recorded = Json::parse(&before).expect("artifact JSON");
    let violations = recorded.get("violations").and_then(Json::as_arr);
    assert!(violations.is_some_and(|v| !v.is_empty()), "{artifact}");
    for v in violations.unwrap() {
        let field = |k: &str| v.get(k).and_then(Json::as_str).expect("violation field");
        let line = format!("  violation [{}]: {}", field("invariant"), field("detail"));
        assert!(stdout.contains(&line), "missing {line:?} in {stdout}");
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
}

/// A missing and a malformed `--repro` file each fail with
/// `cannot load artifact`.
pub fn assert_refuses_unreadable_artifacts(bin: &str) {
    assert_fails(
        bin,
        &["--repro", "results/no_such_artifact.json"],
        "cannot load artifact",
    );
    let name = Path::new(bin).file_name().unwrap().to_string_lossy();
    let malformed = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}_malformed.json"));
    std::fs::write(&malformed, "{\"scenario\": [").unwrap();
    assert_fails(
        bin,
        &["--repro", malformed.to_str().unwrap()],
        "cannot load artifact",
    );
}
