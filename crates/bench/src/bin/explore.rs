//! `explore` — an interactive-ish CLI for poking at TBWF runs.
//!
//! Runs a counter workload under a chosen schedule and prints the
//! per-process completions, the leader timeline, and an ASCII step
//! timeline — the quickest way to *see* partial synchrony and graceful
//! degradation.

use std::process::ExitCode;
use tbwf::linearize::counter_history_violations;
use tbwf::prelude::*;
use tbwf_omega::OBS_LEADER;
use tbwf_sim::StepLog;

const USAGE: &str = "\
usage: explore [n] [steps] [schedule] [omega]

  n         number of processes            (default 4; 2 to 256)
  steps     run length in global steps     (default 200000; at least 1)
  schedule  rr | partial:<k> | flicker | random:<seed> | solo:<p>
                                           (default rr)
  omega     atomic | abortable             (default atomic)";

struct Cli {
    n: usize,
    steps: u64,
    sched_spec: String,
    omega: OmegaKind,
}

fn positive<T: std::str::FromStr + PartialEq + Default>(
    raw: &str,
    what: &str,
) -> Result<T, String> {
    let v: T = raw
        .parse()
        .map_err(|_| format!("{what}: {raw:?} is not a number"))?;
    if v == T::default() {
        return Err(format!("{what} must be at least 1"));
    }
    Ok(v)
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    if args.len() > 4 {
        return Err(format!("unexpected argument {:?}", args[4]));
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag {flag:?}"));
    }
    let n: usize = match args.first() {
        Some(raw) => positive(raw, "n")?,
        None => 4,
    };
    if n < 2 {
        return Err("n must be at least 2".into());
    }
    if n > StepLog::MAX_PROCS {
        return Err(format!(
            "n = {n} exceeds the simulator's limit of {} processes",
            StepLog::MAX_PROCS
        ));
    }
    let steps: u64 = match args.get(1) {
        Some(raw) => positive(raw, "steps")?,
        None => 200_000,
    };
    let omega = match args.get(3).map(|s| s.as_str()) {
        None | Some("atomic") => OmegaKind::Atomic,
        Some("abortable") => OmegaKind::Abortable,
        Some(other) => return Err(format!("unknown omega {other:?} (want atomic | abortable)")),
    };
    Ok(Cli {
        n,
        steps,
        sched_spec: args.get(2).map_or("rr", |s| s.as_str()).to_string(),
        omega,
    })
}

fn parse_schedule(spec: &str, n: usize, steps: u64) -> Result<Box<dyn Schedule>, String> {
    if let Some(k) = spec.strip_prefix("partial:") {
        let k: usize = positive(k, "partial:<k>")?;
        if k > n {
            return Err(format!("partial:<k>: k = {k} exceeds n = {n}"));
        }
        Ok(Box::new(PartiallySynchronous::new(
            (0..k).map(ProcId).collect(),
            4,
        )))
    } else if let Some(seed) = spec.strip_prefix("random:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("random:<seed>: {seed:?} is not a number"))?;
        Ok(Box::new(SeededRandom::new(seed)))
    } else if let Some(p) = spec.strip_prefix("solo:") {
        let p: usize = p
            .parse()
            .map_err(|_| format!("solo:<p>: {p:?} is not a process id"))?;
        if p >= n {
            return Err(format!("solo:<p>: p{p} out of range (n = {n})"));
        }
        Ok(Box::new(SoloAfter::new(steps / 4, ProcId(p))))
    } else {
        match spec {
            "rr" => Ok(Box::new(RoundRobin::new())),
            "flicker" => Ok(Box::new(Flicker::new(ProcId(n - 1), 64, 2_000))),
            other => Err(format!(
                "unknown schedule {other:?} (want rr | partial:<k> | flicker | \
                 random:<seed> | solo:<p>)"
            )),
        }
    }
}

/// Runs the counter workload on every process and returns the report,
/// or the counter oracle's violations. The step budget can cut off an
/// increment that has taken effect before its response is reported, so
/// the history is checked with the counter oracle, which is sound on
/// such a history.
fn explore(cli: &Cli, schedule: Box<dyn Schedule>) -> Result<String, Vec<String>> {
    let (n, steps) = (cli.n, cli.steps);
    let run = TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(cli.omega)
        .workload_all(Workload::Unlimited(CounterOp::Inc))
        .run(RunConfig::new(steps, schedule));
    run.report.assert_no_panics();
    let violations = counter_history_violations(&run);
    if !violations.is_empty() {
        return Err(violations.iter().map(ToString::to_string).collect());
    }

    let mut out = format!(
        "explore: n={n} steps={steps} schedule={} omega={:?}\n\n",
        cli.sched_spec, cli.omega
    );
    out += &format!("completed operations per process: {:?}\n", run.completed);
    let measured = tbwf_sim::timeliness::measured_timely_set(&run.report.trace.steps, n, &[]);
    out += &format!("measured timely set:              {measured:?}\n\n");

    let bucket = (steps / 64).max(1);
    out += &format!("step timeline (one column ≈ {bucket} steps; ' .:#' = share of steps):\n");
    out += &run.report.trace.ascii_timeline(n, bucket);

    out += "\nleader timeline at p0 (last 8 changes):\n";
    let series = run.report.trace.obs_series(ProcId(0), OBS_LEADER, 0);
    for (t, v) in series.iter().rev().take(8).rev() {
        let who = if *v < 0 { "?".into() } else { format!("p{v}") };
        out += &format!("  t={t:<8} leader = {who}\n");
    }
    out += "\nhistory linearizable ok\n";
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cli, schedule) = match parse_args(&args)
        .and_then(|cli| Ok((parse_schedule(&cli.sched_spec, cli.n, cli.steps)?, cli)))
    {
        Ok((schedule, cli)) => (cli, schedule),
        Err(e) => {
            eprintln!("explore: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match explore(&cli, schedule) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("explore: linearizable: {v}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn n_is_bounded_by_the_simulator_limit() {
        assert_eq!(parse_args(&args(&["256"])).map(|c| c.n), Ok(256));
        let err = parse_args(&args(&["257"]))
            .err()
            .expect("n = 257 is refused");
        assert!(err.contains("limit of 256"), "{err}");
        assert!(parse_args(&args(&["1"])).is_err());
    }

    /// The default configuration, every schedule spec under both Ω∆
    /// kinds, and the shortest run all pass the counter oracle.
    #[test]
    fn default_config_passes_the_counter_oracle() {
        let mut cases = vec![args(&[]), args(&["2", "10"])];
        for omega in ["atomic", "abortable"] {
            for spec in ["rr", "partial:2", "flicker", "random:7", "solo:1"] {
                cases.push(args(&["3", "20000", spec, omega]));
            }
        }
        for case in cases {
            let cli = parse_args(&case).expect("a valid command line");
            let schedule = parse_schedule(&cli.sched_spec, cli.n, cli.steps).unwrap();
            let report = explore(&cli, schedule).unwrap_or_else(|v| panic!("{case:?}: {v:?}"));
            assert!(report.ends_with("history linearizable ok\n"), "{case:?}");
        }
    }
}
