//! The experiments E1–E12 ([`experiments`]), the degradation gauntlet
//! behind E12 ([`gauntlet`]), and what the experiment binaries (E1–E13
//! and `explore`) share: the table formatter, the `--jobs`/`--repro`
//! command line and the replay printer. See `EXPERIMENTS.md` at the
//! workspace root for the mapping from experiments to paper claims.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod gauntlet;

use std::path::Path;
use std::process::ExitCode;

use gauntlet::{write_artifact, Outcome};
use tbwf_sim::{resolve_jobs, Executor, Json};

/// Where the experiments' tables and artifacts are committed, relative to
/// the workspace root (the directory the binaries run from).
pub const RESULTS_DIR: &str = "results";

/// Formats an aligned text table, every line ending in a newline.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let mut out = line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    out += &format!(
        "|{}|\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        out += &line(row);
    }
    out
}

/// Parses `args[i]`, the value of the CLI flag `flag`, as a count of at
/// least 1.
///
/// # Errors
///
/// Names the flag when the value is missing, not a number, or zero.
pub fn positive_arg(args: &[String], i: usize, flag: &str) -> Result<usize, String> {
    let raw = args
        .get(i)
        .ok_or_else(|| format!("{flag} needs a number"))?;
    let v: usize = raw
        .parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a number"))?;
    if v == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(v)
}

/// Deterministic seed list for multi-seed experiments.
pub fn seeds(k: usize) -> Vec<u64> {
    (0..k as u64).map(|i| 0xE4B5 + i * 7919).collect()
}

/// Formats a `min..max (sum)` summary of a slice.
pub fn summarize(xs: &[u64]) -> String {
    if xs.is_empty() {
        return "-".to_string();
    }
    format!(
        "{}..{} (S{})",
        xs.iter().min().unwrap(),
        xs.iter().max().unwrap(),
        xs.iter().sum::<u64>()
    )
}

/// Everything E12 or E13 produces. The experiment writes nothing itself;
/// its binary prints and writes this ([`Findings::finish`]), and the
/// result tests compare it with the committed files.
#[derive(Clone, Debug, Default)]
pub struct Findings {
    /// The text printed on stdout.
    pub text: String,
    /// Repro artifacts, each written to `results/<stem>.json`.
    pub artifacts: Vec<(String, Json)>,
    /// Violating campaigns or configurations and failed ablation checks;
    /// empty when the experiment's claims hold.
    pub problems: Vec<String>,
}

impl Findings {
    /// Prints the text, writes the artifacts under [`RESULTS_DIR`], and
    /// reports the problems on stderr. Fails if there is a problem or an
    /// artifact cannot be written.
    pub fn finish(self) -> ExitCode {
        print!("{}", self.text);
        let mut ok = self.problems.is_empty();
        for (stem, artifact) in &self.artifacts {
            if let Err(e) = write_artifact(Path::new(RESULTS_DIR), stem, artifact) {
                eprintln!("cannot write artifact {stem}: {e}");
                ok = false;
            }
        }
        for p in &self.problems {
            eprintln!("{p}");
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Loads a repro artifact for `--repro`: a header line to print and the
/// outcome of replaying the artifact, or why it cannot be loaded.
pub type Replay = fn(&str) -> Result<(String, Outcome), String>;

/// Parses `--jobs N` and, when `repro` holds, `--repro FILE`.
fn parse_flags(args: &[String], repro: bool) -> Result<(Option<usize>, Option<&str>), String> {
    let (mut jobs, mut file) = (None, None);
    for i in (0..args.len()).step_by(2) {
        match args[i].as_str() {
            "--jobs" => jobs = Some(positive_arg(args, i + 1, "--jobs")?),
            "--repro" if repro => {
                file = Some(args.get(i + 1).ok_or("--repro needs a file")?.as_str());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((jobs, file))
}

/// The `main` of a sharded experiment binary (e11, e12, e13). With
/// `--repro FILE` (accepted when `replay` is given) it prints the replayed
/// injections and violations, and succeeds only if the artifact still
/// violates. Otherwise it runs `experiment` on `--jobs N` workers
/// (default all cores), printing the worker count on stderr so stdout is
/// the same for every count. Bad arguments exit 1 with the usage.
pub fn sharded_main(
    name: &str,
    replay: Option<Replay>,
    experiment: impl FnOnce(&Executor) -> ExitCode,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, file) = match parse_flags(&args, replay.is_some()) {
        Ok(flags) => flags,
        Err(e) => {
            let repro = if replay.is_some() {
                " [--repro FILE]"
            } else {
                ""
            };
            eprintln!("{name}: {e}\nusage: {name} [--jobs N]{repro}");
            return ExitCode::FAILURE;
        }
    };
    let Some((file, replay)) = file.zip(replay) else {
        let executor = Executor::new(resolve_jobs(jobs));
        eprintln!("{name}: {} worker(s)", executor.jobs());
        return experiment(&executor);
    };
    let (header, out) = match replay(file) {
        Ok(replayed) => replayed,
        Err(e) => {
            eprintln!("cannot load artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{header}");
    for inj in &out.injections {
        println!("  injected: {inj}");
    }
    if out.violations.is_empty() {
        println!("no violations — the artifact does not reproduce here");
        return ExitCode::FAILURE;
    }
    for v in &out.violations {
        println!("  violation [{}]: {}", v.invariant, v.detail);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_formats() {
        assert_eq!(summarize(&[1, 5, 3]), "1..5 (S9)");
        assert_eq!(summarize(&[]), "-");
    }

    #[test]
    fn positive_arg_accepts_only_counts() {
        let args: Vec<String> = ["--jobs", "x", "0", "3"].map(String::from).into();
        assert_eq!(positive_arg(&args, 3, "--jobs"), Ok(3));
        assert_eq!(
            positive_arg(&args, 4, "--jobs"),
            Err("--jobs needs a number".to_string())
        );
        assert_eq!(
            positive_arg(&args, 1, "--jobs"),
            Err("--jobs: \"x\" is not a number".to_string())
        );
        assert_eq!(
            positive_arg(&args, 2, "--jobs"),
            Err("--jobs must be at least 1".to_string())
        );
    }

    #[test]
    fn seeds_are_distinct() {
        let s = seeds(10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
    }
}
