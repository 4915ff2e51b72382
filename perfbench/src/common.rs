//! Types and helpers shared by the workloads: the report, set-up and
//! throughput sampling, seeds, timing and memory readings.

use std::time::{Duration, Instant};
use tbwf_sim::{Json, ProcId, RunReport};

use crate::procfs;
use crate::stats::Tail;

/// Worker threads for the workloads that shard (`gauntlet`,
/// `modelcheck`); fixed so results compare across hosts.
pub const WORKERS: usize = 2;

/// Timed set-up repetitions before each measured pass or cell.
pub const SETUP_PER_PASS: usize = 3;

/// Collects `setup_s` samples. The repetitions are spread over the
/// measuring window, a few before each pass, so that set-up is sampled
/// over the same stretch of host time as the throughput metrics rather
/// than in one burst at start-up.
pub struct SetupSampler<F> {
    once: F,
    samples: Vec<f64>,
}

impl<F: FnMut() -> f64> SetupSampler<F> {
    /// Wraps `once` (one set-up, returning seconds) and runs it once
    /// untimed, so that lazy allocation in a fresh process is not counted.
    pub fn new(mut once: F) -> Self {
        once();
        SetupSampler {
            once,
            samples: Vec::new(),
        }
    }

    /// Takes [`SETUP_PER_PASS`] samples.
    pub fn sample(&mut self) {
        for _ in 0..SETUP_PER_PASS {
            let s = (self.once)();
            self.samples.push(s);
        }
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

/// Throughput of each measured pass; the metrics are medians over
/// passes, so a transient stall of the host moves one sample, not the
/// result.
#[derive(Debug, Default)]
pub struct PassRates {
    runs: Vec<f64>,
    steps: Vec<f64>,
    ops: Vec<f64>,
}

impl PassRates {
    /// Records one pass: runs, simulated steps and completed TBWF
    /// operations done in `secs` of host time.
    pub fn push(&mut self, runs: u64, steps: u64, ops: u64, secs: f64) {
        self.runs.push(runs as f64 / secs);
        self.steps.push(steps as f64 / secs);
        self.ops.push(ops as f64 / secs);
    }

    /// Passes recorded.
    pub fn passes(&self) -> usize {
        self.runs.len()
    }

    /// Reports `runs_per_s`, `steps_per_s` and `tbwf_ops_per_s`, and the
    /// per-pass run rates as a detail.
    pub fn report(&self, rep: &mut Report) {
        rep.metric("runs_per_s", crate::stats::median(&self.runs), "1/s");
        rep.metric("steps_per_s", crate::stats::median(&self.steps), "1/s");
        rep.metric("tbwf_ops_per_s", crate::stats::median(&self.ops), "1/s");
        rep.detail(
            "pass_runs_per_s",
            Json::Arr(self.runs.iter().map(|&r| Json::Float(r)).collect()),
        );
    }
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one workload invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Independent simulated runs attempted (positive controls excluded).
    pub attempted: u64,
    /// Attempted runs with an oracle violation, panic, missing leader or
    /// starved timely process.
    pub failed: u64,
    /// Failed output checks that are not per-run: digests, controls,
    /// cross-checks. Any entry makes the result incorrect.
    pub problems: Vec<String>,
    /// The metrics printed in the result line.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the simulated outputs.
    pub digest: Option<u64>,
    /// Extra context printed on the provenance line.
    pub details: Vec<(&'static str, Json)>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a detail.
    pub fn detail(&mut self, key: &'static str, value: Json) {
        self.details.push((key, value));
    }

    /// Records a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records `digest` as the workload's digest, or a problem if a digest
    /// from another pass or worker count differs.
    pub fn expect_digest(&mut self, digest: u64, source: &str) {
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d == digest => {}
            Some(d) => self.problems.push(format!(
                "digest of {source} is {digest:016x}, earlier passes gave {d:016x}"
            )),
        }
    }
}

/// The benchmark's command line after validation.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// `None` runs the workload's default inputs (for `gauntlet`, the
    /// E12 `campaign_seed` sequence).
    pub seed: Option<u64>,
    /// Measuring time of the untraced phase.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Params {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// SplitMix64: spreads a user seed over the 64-bit space so that nearby
/// seeds give unrelated inputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds since `t` as `f64`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds between two instants.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Formats a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Size of the retained run record: step vector plus observations.
pub fn trace_mb(report: &RunReport) -> f64 {
    (report.trace.steps.len() * std::mem::size_of::<ProcId>()
        + report.trace.obs.len() * std::mem::size_of::<tbwf_sim::Obs>()) as f64
        / 1e6
}

/// Reports `peak_rss_mb`, or a problem when `/proc` is unreadable.
pub fn peak_rss(rep: &mut Report) {
    match procfs::peak_rss_mb() {
        Ok(mb) => rep.metric("peak_rss_mb", mb, "MB"),
        Err(e) => rep.problems.push(format!("peak RSS: {e}")),
    }
}

/// Minor faults so far, or a problem.
pub fn faults(rep: &mut Report) -> u64 {
    procfs::minor_faults().unwrap_or_else(|e| {
        rep.problems.push(format!("minor faults: {e}"));
        0
    })
}

/// Records the tail percentile behind `run_ms_tail` and its support.
pub fn tail_detail(rep: &mut Report, t: &Tail) {
    rep.detail(
        "run_ms_tail",
        Json::obj([
            ("percentile", Json::Float(t.percentile)),
            ("samples", Json::Int(t.samples as i128)),
            ("beyond", Json::Int(t.beyond as i128)),
            ("supported", Json::Bool(t.supported())),
        ]),
    );
}
