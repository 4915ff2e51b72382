//! One benchmark for the TBWF stack.
//!
//! ```text
//! tbwf-perfbench --workload gauntlet|scaling|modelcheck [--seed N]
//!                [--seconds N] [--trace 0|1]
//! ```
//!
//! Each invocation runs one workload in this process. An untraced run
//! (`--trace 0`) measures the end-to-end metrics for `--seconds`; a
//! traced run (`--trace 1`) times the calls into each layer's public
//! functions from this crate and reports the per-layer metrics plus the
//! tracing overhead against an untraced pass of the same work. Every run
//! checks the program's outputs: oracle verdicts, a determinism digest
//! across passes and worker counts, and positive controls that must
//! still fire. The last line of standard output is the result object;
//! the line before it records provenance.

mod common;
mod digest;
mod gauntlet;
mod ladder;
mod modelcheck;
mod procfs;
mod scaling;
mod stamp;
mod stats;

use std::fs;
use std::process::ExitCode;

use common::{Params, Report, WORKERS};
use tbwf_sim::Json;

const WORKLOADS: [&str; 3] = ["gauntlet", "scaling", "modelcheck"];

/// End-to-end metrics (untraced runs), in output order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "runs_per_s",
    "steps_per_s",
    "run_ms_p50",
    "run_ms_tail",
    "tbwf_ops_per_s",
    "sim_steps_per_op",
    "peak_rss_mb",
];

/// Per-layer metrics (traced runs) with their units. A workload that
/// cannot observe a layer through the public API reports 0 and lists the
/// metric under `not_observed` on the provenance line.
const PER_LAYER: [(&str, &str); 37] = [
    ("sim.run.ns_per_step", "ns"),
    ("sim.build.ms", "ms"),
    ("sim.dispatch.ns_per_step", "ns"),
    ("sim.trace.steps", "count"),
    ("sim.trace.obs", "count"),
    ("sim.trace.mb", "MB"),
    ("sim.minor_faults", "count"),
    ("sim.executor.busy_frac", "ratio"),
    ("sim.nemesis.injections", "count"),
    ("sim.analysis.ms", "ms"),
    ("registers.ops", "count"),
    ("registers.ops_per_step", "ratio"),
    ("registers.abort_ratio", "ratio"),
    ("registers.overlap_ratio", "ratio"),
    ("registers.oplog_mb", "MB"),
    ("registers.atomic.ns_per_op", "ns"),
    ("registers.abortable.ns_per_op", "ns"),
    ("monitor.ns_per_step", "ns"),
    ("omega.atomic.ns_per_step", "ns"),
    ("omega.abortable.ns_per_step", "ns"),
    ("omega.conv_steps", "steps"),
    ("universal.tbwf.ns_per_op", "ns"),
    ("universal.tbwf.op_steps_p50", "steps"),
    ("universal.tbwf.op_steps_p99", "steps"),
    ("core.linearize.ms", "ms"),
    ("gauntlet.monitor.run_ms_p50", "ms"),
    ("gauntlet.omega_atomic.run_ms_p50", "ms"),
    ("gauntlet.omega_abortable.run_ms_p50", "ms"),
    ("gauntlet.tbwf.run_ms_p50", "ms"),
    ("gauntlet.oracle.ms", "ms"),
    ("gauntlet.shrink.ms", "ms"),
    ("check.enumerate.ms", "ms"),
    ("check.run_leaf.ms_p50", "ms"),
    ("check.leaves", "count"),
    ("check.pruned_branches", "count"),
    ("check.dedup_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

const USAGE: &str = "\
usage: tbwf-perfbench --workload gauntlet|scaling|modelcheck [--seed N]
                      [--seconds N] [--trace 0|1]

  --workload W   the workload to run
  --seed N       input seed (default: the workload's fixed inputs, for
                 gauntlet E12's campaign_seed sequence)
  --seconds N    measuring time of an untraced run (default 40, >= 1)
  --trace 0|1    1 reports per-layer metrics instead (default 0)";

fn parse_args(args: &[String]) -> Result<(&'static str, Params), String> {
    let mut workload = None;
    let mut params = Params {
        seed: None,
        seconds: 40,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a non-negative integer"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => params.seed = Some(number(value()?)?),
            "--seconds" => {
                params.seconds = number(value()?)?;
                if params.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                params.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, params))
}

/// The commit the checkout was made from, read from `.git` in the
/// working directory only; `none` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// Puts the metrics in the order and set `BENCHMARK.json` lists for this
/// kind of run. A missing end-to-end metric is a bug in this crate; a
/// missing per-layer metric is a layer the workload cannot observe.
fn finish_metrics(rep: &mut Report, trace: bool) {
    let wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&n| (n, "")).collect()
    };
    let mut ordered = Vec::new();
    let mut unobserved = Vec::new();
    for (name, unit) in wanted {
        match rep.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => ordered.push(m.clone()),
            Some(m) => {
                rep.problems.push(format!("{name} is {}", m.value));
                ordered.push(common::Metric {
                    value: 0.0,
                    ..m.clone()
                });
            }
            None if trace => {
                unobserved.push(Json::str(name));
                ordered.push(common::Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
            None => panic!("workload did not report end-to-end metric {name}"),
        }
    }
    if let Some(extra) = rep
        .metrics
        .iter()
        .find(|m| !ordered.iter().any(|o| o.name == m.name))
    {
        panic!("workload reported unlisted metric {}", extra.name);
    }
    rep.metrics = ordered;
    if trace {
        rep.detail("not_observed", Json::Arr(unobserved));
    }
}

fn result_line(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.problems.is_empty() && rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, params) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tbwf-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rep = match workload {
        "gauntlet" => gauntlet::run(&params),
        "scaling" => scaling::run(&params),
        _ => modelcheck::run(&params),
    };
    finish_metrics(&mut rep, params.trace);
    for p in &rep.problems {
        eprintln!("tbwf-perfbench: check failed: {p}");
    }
    let mut provenance = vec![
        ("workload", Json::str(workload)),
        (
            "seed",
            params
                .seed
                .map_or(Json::str("default"), |s| Json::Int(s as i128)),
        ),
        ("seconds", Json::Int(params.seconds as i128)),
        ("trace", Json::Bool(params.trace)),
        (
            "workers",
            // `scaling` runs its cells one at a time on the main thread.
            Json::Int(if workload == "scaling" { 1 } else { WORKERS } as i128),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("git_rev", Json::str(git_rev())),
        (
            "digest",
            rep.digest
                .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
        ),
        (
            "problems",
            Json::Arr(rep.problems.iter().map(|p| Json::str(p.clone())).collect()),
        ),
    ];
    provenance.append(&mut std::mem::take(&mut rep.details));
    println!("{}", Json::obj(provenance).to_string_compact());
    println!("{}", result_line(&rep));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, p) =
            parse_args(&args("--workload scaling --seed 9 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (w, p.seed, p.seconds, p.trace),
            ("scaling", Some(9), 3, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload gauntlet --seconds 0",
            "--workload gauntlet --seconds -1",
            "--workload gauntlet --trace 2",
            "--workload gauntlet --seed",
            "--workload gauntlet --jobs 2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json");
        let json = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|m| m.0).collect();
        assert_eq!(e2e, END_TO_END.to_vec());
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }
}
