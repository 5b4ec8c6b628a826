//! `perfbench`: one command that measures the dds serving stack and
//! training path end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <ingest_mixed|ingest_saturate|train_refit>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the reference seed is
//! [`REFERENCE_SEED`] and [`HELD_OUT_SEED`] is kept back for confirming a
//! claimed gain. The timed phase lasts `--seconds`. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1` the
//! run measures the untraced pass again, then a traced pass, and the last
//! line carries the per-layer metrics (spans go to `.bench_trace/`). The
//! lines before it print every metric by the name the workload gives it.
//! Any failed correctness check prints no result line and exits non-zero.

mod alloc;
mod ingest;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::PeakHeap = alloc::PeakHeap;

/// The seed the benchmark is tuned and compared on.
pub const REFERENCE_SEED: u64 = 1;
/// A seed not used while tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 977;

/// Worker threads the training and simulation paths run with; matches the
/// host the benchmark was sized on (`nproc` = 2).
pub const THREADS: usize = 2;

/// Set-up repetitions whose median is reported as `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Idle pause between set-up and a timed phase. A cold train frees about
/// a gigabyte, and the kernel keeps reclaiming it for a few seconds;
/// serving measured inside that window runs several times slower at the
/// tail. The pause is neither set-up nor measured time.
pub const SETTLE: std::time::Duration = std::time::Duration::from_secs(3);

/// Every per-layer metric a traced run reports, in print order. A layer
/// a workload does not exercise reports 0 (the ingest workloads never
/// refit; `train_refit` serves nothing).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("http.transport_ms.p50", "ms"),
    ("http.transport_ms.p99", "ms"),
    ("service.ingest_handle_ms.p50", "ms"),
    ("service.ingest_handle_ms.p99", "ms"),
    ("service.scrape_handle_ms.p50", "ms"),
    ("service.scrape_handle_ms.p99", "ms"),
    ("wire.decode_ns_per_record", "ns"),
    ("queue.wait_ms.p50", "ms"),
    ("queue.wait_ms.p99", "ms"),
    ("queue.batches_per_drain", "count"),
    ("queue.shed_batches", "count"),
    ("queue.useful_ratio", "ratio"),
    ("shard.batch_ms.p50", "ms"),
    ("shard.batch_ms.p99", "ms"),
    ("shard.sanitize_s", "s"),
    ("shard.score_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.busy_ratio", "ratio"),
    ("shard.skew", "ratio"),
    ("quality.quarantined", "count"),
    ("quality.imputed_attrs", "count"),
    ("drift.observe_ms.p50", "ms"),
    ("drift.observe_ms.p99", "ms"),
    ("tick.ms.p50", "ms"),
    ("tick.ms.p99", "ms"),
    ("drain.busy_ratio", "ratio"),
    ("train.stage_s.columnar", "s"),
    ("train.stage_s.categorize", "s"),
    ("train.stage_s.degradation", "s"),
    ("train.stage_s.features", "s"),
    ("train.stage_s.influence_zscore", "s"),
    ("train.stage_s.predict", "s"),
    ("train.stage_s.model", "s"),
    ("refit.stage_s.columnar", "s"),
    ("refit.stage_s.categorize", "s"),
    ("refit.stage_s.degradation", "s"),
    ("refit.stage_s.features", "s"),
    ("refit.stage_s.influence_zscore", "s"),
    ("refit.stage_s.predict", "s"),
    ("refit.stage_s.model", "s"),
    ("gen.late_ms.p99", "ms"),
    ("http.responses_5xx", "count"),
    ("trace.overhead_latency_p50_ms", "ms"),
    ("pipeline.train_s", "s"),
    ("online.refit_s", "s"),
    ("pipeline.train_rmse", "1"),
    ("online.refit_rmse", "1"),
];

/// Puts a traced run's metrics in [`PER_LAYER`] order, adding 0 for every
/// layer the workload did not exercise.
fn complete_per_layer(metrics: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric { name: name.to_string(), value, unit }
        })
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        match flag {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                values.insert(flag, value.as_str());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let get = |flag: &str| values.get(flag).copied().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args { workload: get("--workload")?.to_string(), seed: number("--seed")?, seconds, trace })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Contract name (`latency_p50_ms`, `queue.wait_ms.p99`, …).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `count`, …).
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// print order, under their contract names.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines: every metric under the name the
    /// workload gives it, plus accounting and validity notes.
    pub report: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness failures; any entry voids the run.
    pub errors: Vec<String>,
    /// Generator lateness p99 in ms (run metadata; 0 without a schedule).
    pub gen_late_p99_ms: f64,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Appends a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.report.push(text.into());
    }

    /// Records a correctness failure.
    pub fn error(&mut self, text: impl Into<String>) {
        self.errors.push(text.into());
    }
}

/// Peak resident set size of this process in MiB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s (2 × 2 longs) followed by
    // fourteen longs, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // SAFETY: `usage` is a writable buffer of 18 longs, the size of
    // `struct rusage` on 64-bit Linux; RUSAGE_SELF (0) fills exactly it.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 / 1024.0
}

/// The commit the benchmark was built from: `DDS_GIT_SHA` when set,
/// otherwise `.git/HEAD` of the working directory, otherwise `unknown`.
fn git_commit() -> String {
    if let Ok(sha) = std::env::var("DDS_GIT_SHA") {
        return sha;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs").ok().and_then(|packed| {
                    let line = packed.lines().find(|l| l.ends_with(reference))?;
                    line.get(..40).map(str::to_string)
                })
            })
            .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string()),
        None if head.len() == 40 => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Renders a metric value with every digit it has.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload <ingest_mixed|ingest_saturate|\
                 train_refit> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = match args.workload.as_str() {
        "ingest_mixed" => ingest::run(ingest::Kind::Mixed, args.seed, args.seconds, args.trace),
        "ingest_saturate" => {
            ingest::run(ingest::Kind::Saturate, args.seed, args.seconds, args.trace)
        }
        "train_refit" => train::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: run failed: {message}");
            return ExitCode::from(1);
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "meta: workload={} seed={} (reference {REFERENCE_SEED}, held-out {HELD_OUT_SEED}) \
         seconds={} trace={} cores={cores} threads={THREADS} commit={} gen_late_p99_ms={:.4}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        outcome.gen_late_p99_ms,
    );
    for line in &outcome.report {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(
        out,
        "operations: {} attempted, {} succeeded, {} failed",
        outcome.attempted,
        outcome.attempted.saturating_sub(outcome.failed),
        outcome.failed
    );
    print!("{out}");
    if !outcome.errors.is_empty() {
        for error in &outcome.errors {
            eprintln!("perfbench: CHECK FAILED: {error}");
        }
        eprintln!("perfbench: run void ({} failed checks)", outcome.errors.len());
        return ExitCode::from(1);
    }
    let metrics =
        if args.trace { complete_per_layer(&outcome.metrics) } else { outcome.metrics.clone() };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = dds_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .expect("per_layer array")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(|v| v.as_str()).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
