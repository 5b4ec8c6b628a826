//! Implementation of the `dds` command-line tool.
//!
//! The binary wires the workspace into four operator workflows:
//!
//! ```text
//! dds simulate --scale bench --seed 7 --out fleet.csv   # synthesize + export
//! dds analyze fleet.csv [--full-report] [--k N]         # run the paper's analysis
//! dds monitor --train fleet_a.csv --live fleet_b.csv    # train + stream alerts
//! dds pipeline --scale test --seed 7                    # simulate → analyze → monitor
//! dds serve --scale test --listen 127.0.0.1:9150        # continuous ingest + scraping
//! ```
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency); every subcommand is a pure function from parsed options to
//! an output string, which keeps the tool fully unit-testable.
//!
//! Every subcommand also accepts the observability flags
//! `--trace-level <level>` (pretty spans on stderr), `--trace-json <path>`
//! (JSON-lines span/event log) and `--metrics <path>` (JSON metrics
//! snapshot written after the run); see `docs/OPERATIONS.md`. `dds serve`
//! runs the monitor as a long-lived service with live scrape endpoints
//! ([`serve`]), and `dds monitor`/`dds pipeline` expose the same endpoints
//! during batch runs via `--listen ADDR`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod serve;
pub mod signal;
pub mod top;

use dds_chaos::{ChaosEngine, ChaosSpec, FaultCounts};
use dds_core::categorize::CategorizationConfig;
use dds_core::quality::{needs_sanitizing, sanitize_dataset};
use dds_core::{
    report, sanitize_profiles, Analysis, AnalysisConfig, QualityPolicy, TrainingContext,
    MODEL_FORMAT_VERSION,
};
use dds_monitor::{
    Alert, AlertHistory, ModelBundle, MonitorConfig, MonitorService, Severity, ShardedFleetMonitor,
};
use dds_obs::http::HttpServer;
use dds_obs::profile::StageProfiler;
use dds_obs::subscribers::{JsonLinesSubscriber, StderrSubscriber, TeeSubscriber};
use dds_obs::trace::{self, Level, Subscriber};
use dds_obs::watchdog::HealthState;
use dds_smartsim::dataset::RawProfile;
use dds_smartsim::io::{read_csv, write_csv};
use dds_smartsim::stream::drive_major;
use dds_smartsim::{Dataset, DriveId, FleetConfig, FleetSimulator, HealthRecord};
use dds_stats::par::Parallelism;
use serve::{load_model, register_build_info, ServeOptions};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;
use top::TopOptions;

/// Observability options shared by every subcommand.
///
/// All three are off by default, leaving the tracing facade in its null
/// state (one atomic load per instrumentation site) so observability never
/// perturbs results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsOptions {
    /// Pretty-print spans/events at this level and above to stderr
    /// (`--trace-level`).
    pub trace_level: Option<Level>,
    /// Write every span/event as one JSON object per line (`--trace-json`).
    pub trace_json: Option<PathBuf>,
    /// Write a JSON metrics snapshot after the run (`--metrics`).
    pub metrics: Option<PathBuf>,
}

impl ObsOptions {
    /// Whether any observability output was requested.
    pub fn active(&self) -> bool {
        self.trace_level.is_some() || self.trace_json.is_some() || self.metrics.is_some()
    }

    /// Consumes one observability flag if `arg` is one, reading its value
    /// from `iter`. Returns whether the flag was recognized.
    fn consume(
        &mut self,
        arg: &str,
        iter: &mut std::vec::IntoIter<String>,
    ) -> Result<bool, Box<dyn Error>> {
        match arg {
            "--trace-level" => {
                let raw = take_value(iter, "--trace-level")?;
                self.trace_level = Some(raw.parse().map_err(|e| CliError(format!("{e}")))?);
                Ok(true)
            }
            "--trace-json" => {
                self.trace_json = Some(PathBuf::from(take_value(iter, "--trace-json")?));
                Ok(true)
            }
            "--metrics" => {
                self.metrics = Some(PathBuf::from(take_value(iter, "--metrics")?));
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// Fault-injection options shared by `monitor`, `pipeline` and `serve`.
///
/// The default is the identity spec: no operator fires and every code
/// path is byte-identical to a chaos-free build.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Operator rates (`--chaos drop=0.05,nullattr=0.02`).
    pub spec: ChaosSpec,
    /// Master seed for the fault-injection RNG streams (`--chaos-seed`).
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions { spec: ChaosSpec::none(), seed: 7 }
    }
}

impl ChaosOptions {
    /// Whether any operator has a non-zero rate.
    pub fn active(&self) -> bool {
        !self.spec.is_identity()
    }

    /// Corrupts `records` under `salt` and publishes the injected faults
    /// when the spec is active; otherwise hands them back untouched with
    /// an empty tally.
    fn corrupt(
        &self,
        salt: u64,
        records: Vec<(DriveId, HealthRecord)>,
    ) -> (Vec<(DriveId, HealthRecord)>, FaultCounts) {
        if !self.active() {
            return (records, FaultCounts::default());
        }
        let engine = ChaosEngine::new(self.spec.clone(), self.seed);
        let (corrupted, faults) = engine.corrupt_stream(salt, &records);
        engine.publish(&faults);
        (corrupted, faults)
    }

    /// Consumes one chaos flag if `arg` is one, reading its value from
    /// `iter`. Returns whether the flag was recognized.
    fn consume(
        &mut self,
        arg: &str,
        iter: &mut std::vec::IntoIter<String>,
    ) -> Result<bool, Box<dyn Error>> {
        match arg {
            "--chaos" => {
                let raw = take_value(iter, "--chaos")?;
                self.spec = raw.parse().map_err(|e| CliError(format!("{e}")))?;
                Ok(true)
            }
            "--chaos-seed" => {
                self.seed = parse_value(iter, "--chaos-seed", "chaos seed")?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// A live observability session: subscribers installed at start, trace
/// reset + metrics/stage-table emission at finish.
struct ObsSession {
    profiler: Option<Arc<StageProfiler>>,
    metrics_path: Option<PathBuf>,
}

impl ObsSession {
    /// Installs the subscribers `obs` asks for. With no flags set this is
    /// a no-op and the facade stays in its null state — unless
    /// `force_profiler` is set (serving mode: the `/profile` endpoint
    /// needs a live stage profiler regardless of flags).
    fn start(obs: &ObsOptions, force_profiler: bool) -> Result<Self, Box<dyn Error>> {
        if !obs.active() && !force_profiler {
            return Ok(ObsSession { profiler: None, metrics_path: None });
        }
        let mut children: Vec<Arc<dyn Subscriber>> = Vec::new();
        if let Some(level) = obs.trace_level {
            children.push(Arc::new(StderrSubscriber::new(level)));
        }
        if let Some(path) = &obs.trace_json {
            let writer = JsonLinesSubscriber::create(path)
                .map_err(|e| CliError(format!("cannot create {}: {e}", path.display())))?;
            children.push(Arc::new(writer));
        }
        // Any observability request also aggregates the per-stage table.
        let profiler = Arc::new(StageProfiler::new(Level::Trace));
        children.push(profiler.clone());
        trace::install(Arc::new(TeeSubscriber::new(children)));
        Ok(ObsSession { profiler: Some(profiler), metrics_path: obs.metrics.clone() })
    }

    /// Uninstalls the subscribers and appends the metrics snapshot and the
    /// stage-profile table to the command output.
    fn finish(self, out: &mut String) -> Result<(), Box<dyn Error>> {
        trace::reset();
        if let Some(path) = &self.metrics_path {
            let snapshot = dds_obs::metrics::global().snapshot();
            // Atomic (temp + rename) so a scraper tailing the snapshot
            // never reads a half-written file.
            dds_obs::fsio::atomic_write(path, snapshot.to_json().as_bytes())
                .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
            out.push_str(&format!("metrics snapshot written to {}\n", path.display()));
        }
        if let Some(profiler) = &self.profiler {
            out.push_str("\nstage profile:\n");
            out.push_str(&profiler.render_table());
        }
        Ok(())
    }
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

impl CliError {
    fn boxed(message: impl Into<String>) -> Box<dyn Error> {
        Box::new(CliError(message.into()))
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `dds simulate`: synthesize a fleet and export it as CSV.
    Simulate {
        /// Simulation scale (`test`, `bench`, `consumer` or `paper`).
        scale: String,
        /// RNG seed.
        seed: u64,
        /// Output CSV path.
        out: PathBuf,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Observability flags.
        obs: ObsOptions,
    },
    /// `dds analyze`: run the full paper analysis on a CSV dataset.
    Analyze {
        /// Input CSV path.
        input: PathBuf,
        /// Print every figure/table instead of the summary.
        full_report: bool,
        /// Force a cluster count instead of the elbow choice.
        k: Option<usize>,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Observability flags.
        obs: ObsOptions,
    },
    /// `dds monitor`: train on one CSV fleet, stream another through the
    /// monitor.
    Monitor {
        /// Training CSV path.
        train: PathBuf,
        /// Live CSV path.
        live: PathBuf,
        /// Maximum alerts to print.
        limit: usize,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Expose the scrape endpoints on this address during the run.
        listen: Option<String>,
        /// Hash drives across this many monitor shards; alerts merge in
        /// (hour, drive id) order at any count.
        shards: usize,
        /// Fault injection applied to the live stream.
        chaos: ChaosOptions,
        /// Observability flags.
        obs: ObsOptions,
    },
    /// `dds pipeline`: simulate a training fleet, analyze it, then stream
    /// a second simulated fleet through the monitor — the whole system in
    /// one in-memory run, the natural target for `--trace-json`/`--metrics`.
    Pipeline {
        /// Simulation scale (`test`, `bench`, `consumer` or `paper`).
        scale: String,
        /// RNG seed; the live fleet derives its own seed from it.
        seed: u64,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Expose the scrape endpoints on this address during the run.
        listen: Option<String>,
        /// Fault injection applied to both fleets.
        chaos: ChaosOptions,
        /// Observability flags.
        obs: ObsOptions,
    },
    /// `dds train`: train the pipeline once and save a versioned,
    /// checksummed model artifact for later warm starts.
    Train {
        /// Simulation scale (`test`, `bench`, `consumer` or `paper`),
        /// used when no `--input` CSV is given.
        scale: String,
        /// RNG seed for the simulated training fleet.
        seed: u64,
        /// Train on this CSV fleet instead of simulating one.
        input: Option<PathBuf>,
        /// Artifact output path.
        save_model: PathBuf,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Observability flags.
        obs: ObsOptions,
    },
    /// `dds predict`: warm-start from a saved artifact and stream a live
    /// CSV fleet through the monitor — `dds monitor` without retraining.
    Predict {
        /// Saved model artifact path.
        model: PathBuf,
        /// Live CSV path.
        live: PathBuf,
        /// Maximum alerts to print.
        limit: usize,
        /// Observability flags.
        obs: ObsOptions,
    },
    /// `dds serve`: long-lived serving mode — continuous simulated ingest
    /// with live scrape endpoints, SLO watchdog and clean Ctrl-C shutdown.
    Serve(ServeOptions),
    /// `dds top`: live terminal dashboard polling a running `dds serve`
    /// (braille sparklines, per-shard grid, recent alerts, watchdog).
    Top(TopOptions),
    /// `dds help` or `--help`.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
dds — disk degradation signatures (IISWC 2015 reproduction)

USAGE:
  dds simulate --out <fleet.csv> [--scale test|bench|consumer|paper] [--seed N] [--threads N]
  dds analyze <fleet.csv> [--full-report] [--k N] [--threads N]
  dds monitor --train <fleet.csv> --live <fleet.csv> [--limit N] [--threads N] [--listen ADDR]
              [--shards N]
  dds pipeline [--scale test|bench|consumer|paper] [--seed N] [--threads N] [--listen ADDR]
  dds train --save-model <model.dds> [--input <fleet.csv>] [--scale S] [--seed N] [--threads N]
  dds predict --model <model.dds> --live <fleet.csv> [--limit N]
  dds serve [--scale S] [--seed N] [--threads N] [--listen ADDR] [--epochs N] [--tick-ms N]
            [--model <model.dds>] [--shards N] [--ingest-queue N] [--refit-every N]
  dds top [--url HOST:PORT] [--interval-ms N] [--frames N] [--once] [--ascii] [--width N]
  dds help

monitor, pipeline and serve also accept fault injection
(see docs/OPERATIONS.md \"Fault injection\"):
  --chaos op=rate[,op=rate...]   corrupt the SMART stream before ingest;
                                 operators: drop, truncate, nullattr,
                                 sentinel, dup, reorder, skew (rates 0..=1)
  --chaos-seed N                 seed for the fault RNG streams (default 7)
  --chaos-epochs N               serve only: corrupt the first N epochs,
                                 then stream clean (0 = all epochs)
monitor corrupts the live CSV stream; pipeline corrupts both simulated
fleets; serve corrupts the ingest epochs. Corrupted records flow through
the data-quality gate (quarantine + imputation) instead of panicking, and
the same --chaos/--chaos-seed pair replays bit-identically.

Every subcommand accepts --threads N: 0 (the default) uses all cores,
1 forces sequential execution; results are identical either way.

Model artifacts (see docs/OPERATIONS.md \"Model artifacts\"):
  dds train runs the full analysis once and saves a versioned, checksummed
  model artifact (train --save-model). dds predict and dds serve --model
  warm-start from it — no retraining — and behave bit-for-bit like a
  cold start trained on the same fleet. Corrupted or incompatible
  artifacts are rejected with a typed error; /model on the serve scrape
  server reports the serving model's provenance, and the gauges
  dds_model_load_seconds / dds_model_age_seconds track warm-start cost
  and artifact staleness.

Serving (see docs/OPERATIONS.md \"Serving & scraping\"):
  dds serve trains a model bundle, then ingests simulated fleet epochs
  forever (or for --epochs N), pacing each fleet-hour by --tick-ms
  (default 50). The scrape server (default 127.0.0.1:9150) answers
  /metrics, /metrics.json, /healthz, /readyz, /alerts?n=K, /shards and
  /profile throughout; an SLO watchdog degrades /healthz on latency,
  alert-spike, error-budget or ingest shed-budget violations. Ctrl-C
  (SIGINT/SIGTERM) shuts down cleanly and prints the final summary.
  --listen on monitor/pipeline exposes the same endpoints during a
  batch run.

Live dashboard (see docs/OPERATIONS.md \"Live dashboard & trace\"):
  dds top polls a running serve instance (--url, default 127.0.0.1:9150)
  and redraws a terminal dashboard every --interval-ms (default 1000):
  braille sparklines of ingest rate and batch p99, fleet quantiles, a
  per-shard health grid, top alerting failure types, recent alerts and
  the watchdog verdict. Quit with q + Enter or Ctrl-C. --once renders a
  single frame and exits; --ascii uses a pure-ASCII repertoire (CI diffs
  `dds top --once --ascii` against a pinned golden frame); --frames N
  stops after N frames; --width N sets the frame width (default 80).

Sharded serving (see docs/SCALING.md):
  --shards N hashes drives onto N independent monitor shards, each with
  its own models, sanitizer and escalation state; aggregated alerts,
  /metrics and /healthz are byte-identical at any shard count. External
  collectors POST record batches (binary DDSB or CSV chunks) to /ingest;
  --ingest-queue N bounds the queue (default 256 batches), and a full
  queue sheds the batch with a 429 receipt instead of blocking. monitor,
  pipeline and predict replay the live fleet through the same sharded
  path (monitor takes --shards N, the others one shard); alerts sort by
  hour, then drive id.

Online learning (see docs/OPERATIONS.md \"Online refit & promotion\"):
  serve always watches the live stream for drift against the serving
  model's training metadata (dds_drift_* metrics, /drift endpoint, the
  watchdog's drift-budget rule). --refit-every N additionally refits a
  candidate model on the last full epoch window every N epochs; the
  candidate shadow-scores subsequent traffic (dds_shadow_* metrics,
  alerts never emitted) until POST /model/promote atomically hot-swaps
  it into the serving path — /model's generation counter increments and
  the drift baseline adopts the candidate's expected disorder. With no
  candidate soaking, promote re-publishes the serving model (the alert
  stream is untouched). Under --model, a promotion also persists the
  candidate artifact to that path atomically.

Observability (any subcommand; see docs/OPERATIONS.md):
  --trace-level trace|debug|info|warn|error   pretty-print spans to stderr
  --trace-json <path>                         write spans/events as JSON lines
  --metrics <path>                            write a JSON metrics snapshot
Any of these also appends a per-stage wall-time/allocation table to the
output. All are off by default and never change computed results.
";

/// Chaos RNG salt for a corrupted *training* dataset (`dds pipeline`).
const TRAIN_SALT: u64 = 0;
/// Chaos RNG salt for a corrupted *live* dataset (`dds monitor`,
/// `dds pipeline`); `dds serve` salts each epoch by its index instead.
const LIVE_SALT: u64 = 1;

fn parse_shards(raw: &str) -> Result<usize, Box<dyn Error>> {
    match raw.parse() {
        Ok(0) | Err(_) => {
            Err(CliError::boxed(format!("invalid shard count {raw:?} (must be at least 1)")))
        }
        Ok(shards) => Ok(shards),
    }
}

fn take_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> Result<String, Box<dyn Error>> {
    args.next().ok_or_else(|| CliError::boxed(format!("{flag} needs a value")))
}

/// Reads `flag`'s value and parses it as a `T`; a value that does not
/// parse is reported as an invalid `what`.
fn parse_value<T: std::str::FromStr>(
    args: &mut std::vec::IntoIter<String>,
    flag: &str,
    what: &str,
) -> Result<T, Box<dyn Error>> {
    let raw = take_value(args, flag)?;
    raw.parse().map_err(|_| CliError::boxed(format!("invalid {what} {raw:?}")))
}

/// Parses a raw argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: Vec<String>) -> Result<Command, Box<dyn Error>> {
    let mut iter = args.into_iter();
    let Some(subcommand) = iter.next() else {
        return Ok(Command::Help);
    };
    match subcommand.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "simulate" => {
            let mut scale = "bench".to_string();
            let mut seed = 0x2015_115Cu64;
            let mut out: Option<PathBuf> = None;
            let mut threads = 0usize;
            let mut obs = ObsOptions::default();
            while let Some(arg) = iter.next() {
                if obs.consume(&arg, &mut iter)? {
                    continue;
                }
                match arg.as_str() {
                    "--scale" => scale = take_value(&mut iter, "--scale")?,
                    "--seed" => seed = parse_value(&mut iter, "--seed", "seed")?,
                    "--out" => out = Some(PathBuf::from(take_value(&mut iter, "--out")?)),
                    "--threads" => threads = parse_value(&mut iter, "--threads", "thread count")?,
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            let out = out.ok_or_else(|| CliError::boxed("simulate requires --out <path>"))?;
            validate_scale(&scale)?;
            Ok(Command::Simulate { scale, seed, out, threads, obs })
        }
        "analyze" => {
            let mut input: Option<PathBuf> = None;
            let mut full_report = false;
            let mut k = None;
            let mut threads = 0usize;
            let mut obs = ObsOptions::default();
            while let Some(arg) = iter.next() {
                if obs.consume(&arg, &mut iter)? {
                    continue;
                }
                match arg.as_str() {
                    "--full-report" => full_report = true,
                    "--k" => k = Some(parse_value(&mut iter, "--k", "cluster count")?),
                    "--threads" => threads = parse_value(&mut iter, "--threads", "thread count")?,
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(PathBuf::from(other));
                    }
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            let input =
                input.ok_or_else(|| CliError::boxed("analyze requires an input CSV path"))?;
            Ok(Command::Analyze { input, full_report, k, threads, obs })
        }
        "monitor" => {
            let mut train: Option<PathBuf> = None;
            let mut live: Option<PathBuf> = None;
            let mut limit = 20usize;
            let mut threads = 0usize;
            let mut listen = None;
            let mut shards = 1usize;
            let mut chaos = ChaosOptions::default();
            let mut obs = ObsOptions::default();
            while let Some(arg) = iter.next() {
                if obs.consume(&arg, &mut iter)? || chaos.consume(&arg, &mut iter)? {
                    continue;
                }
                match arg.as_str() {
                    "--train" => train = Some(PathBuf::from(take_value(&mut iter, "--train")?)),
                    "--live" => live = Some(PathBuf::from(take_value(&mut iter, "--live")?)),
                    "--limit" => limit = parse_value(&mut iter, "--limit", "limit")?,
                    "--threads" => threads = parse_value(&mut iter, "--threads", "thread count")?,
                    "--listen" => listen = Some(take_value(&mut iter, "--listen")?),
                    "--shards" => shards = parse_shards(&take_value(&mut iter, "--shards")?)?,
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            let train = train.ok_or_else(|| CliError::boxed("monitor requires --train <path>"))?;
            let live = live.ok_or_else(|| CliError::boxed("monitor requires --live <path>"))?;
            Ok(Command::Monitor { train, live, limit, threads, listen, shards, chaos, obs })
        }
        "pipeline" => {
            let mut scale = "test".to_string();
            let mut seed = 0x2015_115Cu64;
            let mut threads = 0usize;
            let mut listen = None;
            let mut chaos = ChaosOptions::default();
            let mut obs = ObsOptions::default();
            while let Some(arg) = iter.next() {
                if obs.consume(&arg, &mut iter)? || chaos.consume(&arg, &mut iter)? {
                    continue;
                }
                match arg.as_str() {
                    "--scale" => scale = take_value(&mut iter, "--scale")?,
                    "--seed" => seed = parse_value(&mut iter, "--seed", "seed")?,
                    "--threads" => threads = parse_value(&mut iter, "--threads", "thread count")?,
                    "--listen" => listen = Some(take_value(&mut iter, "--listen")?),
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            validate_scale(&scale)?;
            Ok(Command::Pipeline { scale, seed, threads, listen, chaos, obs })
        }
        "train" => {
            let mut scale = "test".to_string();
            let mut seed = 0x2015_115Cu64;
            let mut input: Option<PathBuf> = None;
            let mut save_model: Option<PathBuf> = None;
            let mut threads = 0usize;
            let mut obs = ObsOptions::default();
            while let Some(arg) = iter.next() {
                if obs.consume(&arg, &mut iter)? {
                    continue;
                }
                match arg.as_str() {
                    "--scale" => scale = take_value(&mut iter, "--scale")?,
                    "--seed" => seed = parse_value(&mut iter, "--seed", "seed")?,
                    "--input" => input = Some(PathBuf::from(take_value(&mut iter, "--input")?)),
                    "--save-model" => {
                        save_model = Some(PathBuf::from(take_value(&mut iter, "--save-model")?));
                    }
                    "--threads" => threads = parse_value(&mut iter, "--threads", "thread count")?,
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            let save_model =
                save_model.ok_or_else(|| CliError::boxed("train requires --save-model <path>"))?;
            validate_scale(&scale)?;
            Ok(Command::Train { scale, seed, input, save_model, threads, obs })
        }
        "predict" => {
            let mut model: Option<PathBuf> = None;
            let mut live: Option<PathBuf> = None;
            let mut limit = 20usize;
            let mut obs = ObsOptions::default();
            while let Some(arg) = iter.next() {
                if obs.consume(&arg, &mut iter)? {
                    continue;
                }
                match arg.as_str() {
                    "--model" => model = Some(PathBuf::from(take_value(&mut iter, "--model")?)),
                    "--live" => live = Some(PathBuf::from(take_value(&mut iter, "--live")?)),
                    "--limit" => limit = parse_value(&mut iter, "--limit", "limit")?,
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            let model = model.ok_or_else(|| CliError::boxed("predict requires --model <path>"))?;
            let live = live.ok_or_else(|| CliError::boxed("predict requires --live <path>"))?;
            Ok(Command::Predict { model, live, limit, obs })
        }
        "serve" => {
            let mut options = ServeOptions::default();
            while let Some(arg) = iter.next() {
                if options.obs.consume(&arg, &mut iter)?
                    || options.chaos.consume(&arg, &mut iter)?
                {
                    continue;
                }
                match arg.as_str() {
                    "--scale" => options.scale = take_value(&mut iter, "--scale")?,
                    "--seed" => options.seed = parse_value(&mut iter, "--seed", "seed")?,
                    "--threads" => {
                        options.threads = parse_value(&mut iter, "--threads", "thread count")?;
                    }
                    "--listen" => options.listen = take_value(&mut iter, "--listen")?,
                    "--epochs" => {
                        options.epochs = parse_value(&mut iter, "--epochs", "epoch count")?;
                    }
                    "--tick-ms" => options.tick_ms = parse_value(&mut iter, "--tick-ms", "tick")?,
                    "--chaos-epochs" => {
                        options.chaos_epochs =
                            parse_value(&mut iter, "--chaos-epochs", "chaos epoch count")?;
                    }
                    "--model" => {
                        options.model = Some(PathBuf::from(take_value(&mut iter, "--model")?));
                    }
                    "--shards" => {
                        options.shards = parse_shards(&take_value(&mut iter, "--shards")?)?;
                    }
                    "--refit-every" => {
                        options.refit_every =
                            parse_value(&mut iter, "--refit-every", "refit cadence")?;
                    }
                    "--ingest-queue" => {
                        let raw = take_value(&mut iter, "--ingest-queue")?;
                        options.ingest_queue = match raw.parse() {
                            Ok(0) | Err(_) => {
                                return Err(CliError::boxed(format!(
                                    "invalid ingest queue capacity {raw:?} (must be at least 1)"
                                )))
                            }
                            Ok(capacity) => capacity,
                        };
                    }
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            validate_scale(&options.scale)?;
            Ok(Command::Serve(options))
        }
        "top" => {
            let mut options = TopOptions::default();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--url" => options.url = take_value(&mut iter, "--url")?,
                    "--interval-ms" => {
                        options.interval_ms = parse_value(&mut iter, "--interval-ms", "interval")?;
                    }
                    "--frames" => {
                        options.frames = parse_value(&mut iter, "--frames", "frame count")?;
                    }
                    "--once" => options.once = true,
                    "--ascii" => options.ascii = true,
                    "--width" => {
                        let raw = take_value(&mut iter, "--width")?;
                        options.width = match raw.parse() {
                            Ok(width) if width >= 40 => width,
                            _ => {
                                return Err(CliError::boxed(format!(
                                    "invalid width {raw:?} (must be at least 40 columns)"
                                )))
                            }
                        };
                    }
                    other => return Err(CliError::boxed(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Top(options))
        }
        other => Err(CliError::boxed(format!("unknown subcommand {other:?}; try `dds help`"))),
    }
}

fn validate_scale(scale: &str) -> Result<(), Box<dyn Error>> {
    if matches!(scale, "test" | "bench" | "consumer" | "paper") {
        Ok(())
    } else {
        Err(CliError::boxed(format!(
            "unknown scale {scale:?} (expected test, bench, consumer or paper)"
        )))
    }
}

fn fleet_config(scale: &str) -> FleetConfig {
    match scale {
        "test" => FleetConfig::test_scale(),
        "consumer" => FleetConfig::consumer_scale(),
        "paper" => FleetConfig::paper_scale(),
        _ => FleetConfig::bench_scale(),
    }
}

fn load(path: &PathBuf) -> Result<Dataset, Box<dyn Error>> {
    let file =
        File::open(path).map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
    Ok(read_csv(file)?)
}

/// Loads a CSV to train or analyze on. `Analysis` takes clean input only,
/// so a CSV that carries missing values (the vendor sentinel) passes the
/// quality gate here, where it enters. Live CSVs are loaded with [`load`]:
/// the serving gate counts their records.
fn load_training(path: &PathBuf) -> Result<Dataset, Box<dyn Error>> {
    let dataset = load(path)?;
    let policy = QualityPolicy::default();
    if !needs_sanitizing(&dataset, &policy) {
        return Ok(dataset);
    }
    Ok(sanitize_dataset(&dataset, policy)?.0)
}

fn analysis_config(k: Option<usize>, threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        categorization: CategorizationConfig { fixed_k: k, ..Default::default() },
        parallelism: Parallelism::from_thread_count(threads),
        ..Default::default()
    }
}

/// Regroups a corrupted [`drive_major`] stream of `fleet` into one
/// [`RawProfile`] per fleet drive, in fleet order. Chaos keeps each
/// drive's records contiguous, and a drive it removed entirely keeps an
/// empty profile, so the quality gate still counts it as dropped.
fn raw_profiles(fleet: &Dataset, records: Vec<(DriveId, HealthRecord)>) -> Vec<RawProfile> {
    let mut records = records.into_iter().peekable();
    fleet
        .drives()
        .iter()
        .map(|drive| RawProfile {
            id: drive.id(),
            label: drive.label(),
            rack: drive.rack(),
            records: std::iter::from_fn(|| records.next_if(|(id, _)| *id == drive.id()))
                .map(|(_, record)| record)
                .collect(),
        })
        .collect()
}

/// The alert report `dds monitor` and `dds predict` share: a count line,
/// the first `limit` alerts, and the critical total.
fn render_alerts(alerts: &[Alert], fleet: &Dataset, limit: usize) -> String {
    let mut out = format!(
        "{} alerts over {} drives ({} failed); showing up to {limit}:\n",
        alerts.len(),
        fleet.drives().len(),
        fleet.failed_drives().count()
    );
    for alert in alerts.iter().take(limit) {
        out.push_str(&format!("  {alert}\n"));
    }
    let critical = alerts.iter().filter(|a| a.severity == Severity::Critical).count();
    out.push_str(&format!("{critical} critical alerts in total\n"));
    out
}

/// Executes a parsed command, returning the text to print.
///
/// When the command carries active [`ObsOptions`], the requested
/// subscribers are installed for the duration of the run and removed
/// afterwards (also on error), the metrics snapshot is written, and the
/// per-stage profile table is appended to the output.
///
/// # Errors
///
/// Returns an error for I/O problems, malformed CSV or analysis failures.
pub fn run(command: Command) -> Result<String, Box<dyn Error>> {
    let obs = match &command {
        Command::Simulate { obs, .. }
        | Command::Analyze { obs, .. }
        | Command::Monitor { obs, .. }
        | Command::Pipeline { obs, .. }
        | Command::Train { obs, .. }
        | Command::Predict { obs, .. } => obs.clone(),
        Command::Serve(options) => options.obs.clone(),
        Command::Top(_) | Command::Help => ObsOptions::default(),
    };
    // Serving mode always aggregates stage profiles — `/profile` serves
    // them live.
    let force_profiler = matches!(command, Command::Serve(_));
    let session = ObsSession::start(&obs, force_profiler)?;
    match run_inner(command, session.profiler.clone()) {
        Ok(mut out) => {
            session.finish(&mut out)?;
            Ok(out)
        }
        Err(e) => {
            trace::reset();
            Err(e)
        }
    }
}

/// Binds the batch-mode scrape server (`--listen` on monitor/pipeline),
/// serving the shared history/health while the batch run proceeds.
fn batch_server(
    listen: &str,
    history: Arc<AlertHistory>,
    health: Arc<HealthState>,
    profiler: Option<Arc<StageProfiler>>,
) -> Result<HttpServer, Box<dyn Error>> {
    register_build_info(dds_obs::metrics::global());
    let mut service = MonitorService::new(history, health);
    if let Some(profiler) = profiler {
        service = service.with_profiler(profiler);
    }
    HttpServer::bind(listen, 2, Arc::new(service))
        .map_err(|e| CliError::boxed(format!("cannot listen on {listen}: {e}")))
}

fn run_inner(
    command: Command,
    profiler: Option<Arc<StageProfiler>>,
) -> Result<String, Box<dyn Error>> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Simulate { scale, seed, out, threads, obs: _ } => {
            let config = fleet_config(&scale)
                .with_seed(seed)
                .with_parallelism(Parallelism::from_thread_count(threads));
            let dataset = FleetSimulator::new(config).run();
            let file = File::create(&out)
                .map_err(|e| CliError(format!("cannot create {}: {e}", out.display())))?;
            write_csv(&dataset, BufWriter::new(file))?;
            Ok(format!(
                "wrote {} drives / {} records ({} failed) to {}\n",
                dataset.drives().len(),
                dataset.num_records(),
                dataset.failed_drives().count(),
                out.display()
            ))
        }
        Command::Analyze { input, full_report, k, threads, obs: _ } => {
            let dataset = load_training(&input)?;
            let analysis = Analysis::new(analysis_config(k, threads)).run(&dataset)?;
            if full_report {
                Ok(report::render_full_report(&analysis))
            } else {
                let mut out = String::new();
                out.push_str(&report::render_failure_categories(&analysis.categorization));
                for group in &analysis.degradation {
                    out.push_str(&format!(
                        "Group {}: {} over {:.0} h windows\n",
                        group.group_index + 1,
                        group.dominant_form.formula(),
                        group.window_stats.1
                    ));
                }
                out.push_str(&report::render_prediction_table(&analysis.prediction));
                Ok(out)
            }
        }
        Command::Monitor { train, live, limit, threads, listen, shards, chaos, obs: _ } => {
            let training = load_training(&train)?;
            let analysis = Analysis::new(analysis_config(None, threads)).run(&training)?;
            let bundle = ModelBundle::from_analysis(&training, &analysis);
            let live_fleet = load(&live)?;
            let history = Arc::new(AlertHistory::default());
            let health = HealthState::new();
            let server = listen
                .as_deref()
                .map(|addr| batch_server(addr, Arc::clone(&history), Arc::clone(&health), profiler))
                .transpose()?;
            health.set_ready(true);
            let mut monitor = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), shards)
                .with_history(Arc::clone(&history));
            let (batch, live_faults) = chaos.corrupt(LIVE_SALT, drive_major(&live_fleet));
            let alerts = monitor.ingest_batch(&batch);
            let mut out = render_alerts(&alerts, &live_fleet, limit);
            if chaos.active() {
                out.push_str(&format!(
                    "chaos {} (seed {}): {live_faults} faults injected into the live stream\n\
                     live quality: {}\n",
                    chaos.spec,
                    chaos.seed,
                    monitor.quality_stats(),
                ));
            }
            if let Some(server) = server {
                server.shutdown();
            }
            Ok(out)
        }
        Command::Pipeline { scale, seed, threads, listen, chaos, obs: _ } => {
            let par = Parallelism::from_thread_count(threads);
            let simulated =
                FleetSimulator::new(fleet_config(&scale).with_seed(seed).with_parallelism(par))
                    .run();
            // Under chaos the training telemetry is corrupted, then passed
            // through the quality gate before analysis — the whole point is
            // exercising the degraded path end to end.
            let (training, train_chaos) = if chaos.active() {
                let (records, faults) = chaos.corrupt(TRAIN_SALT, drive_major(&simulated));
                let raw = raw_profiles(&simulated, records);
                let (clean, stats) = sanitize_profiles(&raw, QualityPolicy::default())?;
                (clean, Some((faults, stats)))
            } else {
                (simulated, None)
            };
            let analysis = Analysis::new(analysis_config(None, threads)).run(&training)?;
            let bundle = ModelBundle::from_analysis(&training, &analysis);
            let history = Arc::new(AlertHistory::default());
            let health = HealthState::new();
            let server = listen
                .as_deref()
                .map(|addr| batch_server(addr, Arc::clone(&history), Arc::clone(&health), profiler))
                .transpose()?;
            // An independent live fleet: same scale, derived seed.
            let live_seed = seed.wrapping_add(1);
            let live_fleet = FleetSimulator::new(
                fleet_config(&scale).with_seed(live_seed).with_parallelism(par),
            )
            .run();
            let mut monitor = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 1)
                .with_history(Arc::clone(&history));
            health.set_ready(true);
            let (batch, live_faults) = chaos.corrupt(LIVE_SALT, drive_major(&live_fleet));
            let alerts = monitor.ingest_batch(&batch);
            let critical = alerts.iter().filter(|a| a.severity == Severity::Critical).count();
            if let Some(server) = server {
                server.shutdown();
            }
            let mut out = format!(
                "trained on {} drives (seed {seed}): {} failure groups\n\
                 monitored {} drives (seed {live_seed}): {} alerts, {critical} critical\n",
                training.drives().len(),
                analysis.categorization.num_groups(),
                live_fleet.drives().len(),
                alerts.len(),
            );
            if let Some((train_faults, train_quality)) = train_chaos {
                out.push_str(&format!(
                    "chaos {} (seed {}): {train_faults} train faults, {live_faults} live faults\n\
                     training quality: {train_quality}\n\
                     live quality: {}\n",
                    chaos.spec,
                    chaos.seed,
                    monitor.quality_stats(),
                ));
            }
            Ok(out)
        }
        Command::Train { scale, seed, input, save_model, threads, obs: _ } => {
            let (training, ctx) = match &input {
                Some(path) => {
                    let ctx = TrainingContext {
                        seed,
                        scale: format!("csv:{}", path.display()),
                        git_sha: option_env!("DDS_GIT_SHA").unwrap_or("unknown").to_string(),
                    };
                    (load_training(path)?, ctx)
                }
                None => {
                    let config = fleet_config(&scale)
                        .with_seed(seed)
                        .with_parallelism(Parallelism::from_thread_count(threads));
                    let ctx = TrainingContext {
                        seed,
                        scale: scale.clone(),
                        git_sha: option_env!("DDS_GIT_SHA").unwrap_or("unknown").to_string(),
                    };
                    (FleetSimulator::new(config).run(), ctx)
                }
            };
            let (analysis, model) =
                Analysis::new(analysis_config(None, threads)).train(&training, &ctx)?;
            let bytes =
                model.to_bytes().map_err(|e| CliError(format!("cannot serialize model: {e}")))?;
            dds_obs::fsio::atomic_write(&save_model, &bytes)
                .map_err(|e| CliError(format!("cannot write {}: {e}", save_model.display())))?;
            let mut out = format!(
                "trained on {} drives ({} failed, {} failure groups; seed {seed}, scale {})\n",
                training.drives().len(),
                training.failed_drives().count(),
                analysis.categorization.num_groups(),
                ctx.scale,
            );
            out.push_str(&report::render_prediction_table(&analysis.prediction));
            out.push_str(&format!(
                "model saved to {} ({} bytes, format v{MODEL_FORMAT_VERSION})\n",
                save_model.display(),
                bytes.len(),
            ));
            Ok(out)
        }
        Command::Predict { model, live, limit, obs: _ } => {
            let trained = load_model(&model, dds_obs::metrics::global())?;
            let bundle = ModelBundle::from_trained(&trained)
                .map_err(|e| CliError(format!("model {}: {e}", model.display())))?;
            let live_fleet = load(&live)?;
            let mut monitor = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 1);
            let alerts = monitor.ingest_batch(&drive_major(&live_fleet));
            // One header line, then a body byte-identical to `dds monitor`
            // trained on the same fleet (the warm-start guarantee).
            let mut out = format!(
                "loaded model {} ({} groups; seed {}, scale {}, format v{})\n",
                model.display(),
                trained.groups.len(),
                trained.meta.seed,
                trained.meta.scale,
                MODEL_FORMAT_VERSION,
            );
            out.push_str(&render_alerts(&alerts, &live_fleet, limit));
            Ok(out)
        }
        Command::Serve(options) => {
            let stop = signal::install();
            stop.store(false, std::sync::atomic::Ordering::SeqCst);
            serve::serve(&options, stop, profiler, |addr| {
                eprintln!("dds serve listening on {addr}");
            })
        }
        Command::Top(options) => {
            let stop = signal::install();
            stop.store(false, std::sync::atomic::Ordering::SeqCst);
            top::run_top(&options, stop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unparseable_flag_values_name_the_flag_and_the_value() {
        for (args, message) in [
            (&["simulate", "--out", "x", "--seed", "NaN"][..], r#"invalid seed "NaN""#),
            (&["simulate", "--out", "x", "--threads", "lots"], r#"invalid thread count "lots""#),
            (&["analyze", "a.csv", "--k", "three"], r#"invalid cluster count "three""#),
            (&["analyze", "a.csv", "--threads", "-1"], r#"invalid thread count "-1""#),
            (&["monitor", "--limit", "ten"], r#"invalid limit "ten""#),
            (&["monitor", "--threads", "x"], r#"invalid thread count "x""#),
            (&["monitor", "--shards", "0"], r#"invalid shard count "0" (must be at least 1)"#),
            (&["monitor", "--chaos-seed", "soon"], r#"invalid chaos seed "soon""#),
            (&["pipeline", "--seed", "s"], r#"invalid seed "s""#),
            (&["pipeline", "--threads", "t"], r#"invalid thread count "t""#),
            (&["train", "--seed", "s"], r#"invalid seed "s""#),
            (&["train", "--threads", "t"], r#"invalid thread count "t""#),
            (&["predict", "--limit", "l"], r#"invalid limit "l""#),
            (&["serve", "--seed", "s"], r#"invalid seed "s""#),
            (&["serve", "--threads", "t"], r#"invalid thread count "t""#),
            (&["serve", "--epochs", "many"], r#"invalid epoch count "many""#),
            (&["serve", "--tick-ms", "fast"], r#"invalid tick "fast""#),
            (&["serve", "--chaos-epochs", "few"], r#"invalid chaos epoch count "few""#),
            (&["serve", "--refit-every", "hourly"], r#"invalid refit cadence "hourly""#),
            (&["serve", "--shards", "many"], r#"invalid shard count "many" (must be at least 1)"#),
            (
                &["serve", "--ingest-queue", "0"],
                r#"invalid ingest queue capacity "0" (must be at least 1)"#,
            ),
            (&["top", "--interval-ms", "soon"], r#"invalid interval "soon""#),
            (&["top", "--frames", "lots"], r#"invalid frame count "lots""#),
            (&["top", "--width", "10"], r#"invalid width "10" (must be at least 40 columns)"#),
            (&["serve", "--seed"], "--seed needs a value"),
        ] {
            let err = parse(argv(args)).unwrap_err();
            assert_eq!(err.to_string(), message, "{args:?}");
        }
    }

    #[test]
    fn parses_help_variants() {
        for args in [vec![], argv(&["help"]), argv(&["--help"]), argv(&["-h"])] {
            assert_eq!(parse(args).unwrap(), Command::Help);
        }
        assert!(run(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn parses_simulate() {
        let cmd =
            parse(argv(&["simulate", "--scale", "test", "--seed", "9", "--out", "/tmp/x.csv"]))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                scale: "test".to_string(),
                seed: 9,
                out: PathBuf::from("/tmp/x.csv"),
                threads: 0,
                obs: ObsOptions::default(),
            }
        );
    }

    #[test]
    fn parses_threads_flag() {
        let cmd = parse(argv(&["simulate", "--out", "x.csv", "--threads", "4"])).unwrap();
        assert!(matches!(cmd, Command::Simulate { threads: 4, .. }));
        let cmd = parse(argv(&["analyze", "a.csv", "--threads", "1"])).unwrap();
        assert!(matches!(cmd, Command::Analyze { threads: 1, .. }));
        let cmd =
            parse(argv(&["monitor", "--train", "a", "--live", "b", "--threads", "2"])).unwrap();
        assert!(matches!(cmd, Command::Monitor { threads: 2, .. }));
        assert!(parse(argv(&["analyze", "a.csv", "--threads", "lots"])).is_err());
    }

    #[test]
    fn simulate_validation() {
        assert!(parse(argv(&["simulate"])).is_err()); // missing --out
        assert!(parse(argv(&["simulate", "--out", "x", "--scale", "huge"])).is_err());
        assert!(parse(argv(&["simulate", "--out", "x", "--seed", "NaN"])).is_err());
        assert!(parse(argv(&["simulate", "--bogus"])).is_err());
    }

    #[test]
    fn parses_analyze() {
        let cmd = parse(argv(&["analyze", "fleet.csv", "--full-report", "--k", "4"])).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                input: PathBuf::from("fleet.csv"),
                full_report: true,
                k: Some(4),
                threads: 0,
                obs: ObsOptions::default(),
            }
        );
        assert!(parse(argv(&["analyze"])).is_err());
        assert!(parse(argv(&["analyze", "a.csv", "--k", "three"])).is_err());
    }

    #[test]
    fn parses_monitor() {
        let cmd = parse(argv(&["monitor", "--train", "a.csv", "--live", "b.csv", "--limit", "5"]))
            .unwrap();
        assert_eq!(
            cmd,
            Command::Monitor {
                train: PathBuf::from("a.csv"),
                live: PathBuf::from("b.csv"),
                limit: 5,
                threads: 0,
                listen: None,
                shards: 1,
                chaos: ChaosOptions::default(),
                obs: ObsOptions::default(),
            }
        );
        assert!(parse(argv(&["monitor", "--train", "a.csv"])).is_err());
    }

    #[test]
    fn parses_sharding_flags() {
        let cmd = parse(argv(&["serve", "--shards", "4", "--ingest-queue", "32"])).unwrap();
        let Command::Serve(options) = cmd else { panic!("expected serve") };
        assert_eq!(options.shards, 4);
        assert_eq!(options.ingest_queue, 32);

        let cmd =
            parse(argv(&["monitor", "--train", "a", "--live", "b", "--shards", "8"])).unwrap();
        assert!(matches!(cmd, Command::Monitor { shards: 8, .. }));

        // Defaults: one shard, 256 queued batches.
        let Command::Serve(defaults) = parse(argv(&["serve"])).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(defaults.shards, 1);
        assert_eq!(defaults.ingest_queue, 256);

        // Zero or garbage values are clean errors.
        assert!(parse(argv(&["serve", "--shards", "0"])).is_err());
        assert!(parse(argv(&["serve", "--shards", "many"])).is_err());
        assert!(parse(argv(&["serve", "--ingest-queue", "0"])).is_err());
        assert!(parse(argv(&["monitor", "--train", "a", "--live", "b", "--shards", "0"])).is_err());
        // --ingest-queue is serve-only.
        assert!(parse(argv(&["monitor", "--train", "a", "--live", "b", "--ingest-queue", "4"]))
            .is_err());
    }

    #[test]
    fn parses_refit_flag() {
        let cmd = parse(argv(&["serve", "--refit-every", "3"])).unwrap();
        let Command::Serve(options) = cmd else { panic!("expected serve") };
        assert_eq!(options.refit_every, 3);

        // Default: online refit off.
        let Command::Serve(defaults) = parse(argv(&["serve"])).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(defaults.refit_every, 0);

        // Garbage cadence is a clean error; the flag is serve-only.
        assert!(parse(argv(&["serve", "--refit-every", "hourly"])).is_err());
        assert!(
            parse(argv(&["monitor", "--train", "a", "--live", "b", "--refit-every", "2"])).is_err()
        );
    }

    #[test]
    fn parses_serve_and_listen_flags() {
        let cmd = parse(argv(&[
            "serve",
            "--scale",
            "test",
            "--seed",
            "4",
            "--listen",
            "127.0.0.1:0",
            "--epochs",
            "2",
            "--tick-ms",
            "0",
            "--threads",
            "1",
        ]))
        .unwrap();
        let Command::Serve(options) = cmd else { panic!("expected serve") };
        assert_eq!(options.scale, "test");
        assert_eq!(options.seed, 4);
        assert_eq!(options.listen, "127.0.0.1:0");
        assert_eq!(options.epochs, 2);
        assert_eq!(options.tick_ms, 0);
        assert_eq!(options.threads, 1);

        // Defaults.
        let Command::Serve(defaults) = parse(argv(&["serve"])).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(defaults, ServeOptions::default());
        assert!(parse(argv(&["serve", "--scale", "galactic"])).is_err());
        assert!(parse(argv(&["serve", "--epochs", "many"])).is_err());

        // --listen on the batch subcommands.
        let cmd =
            parse(argv(&["monitor", "--train", "a", "--live", "b", "--listen", "127.0.0.1:9200"]))
                .unwrap();
        assert!(
            matches!(cmd, Command::Monitor { listen: Some(ref l), .. } if l == "127.0.0.1:9200")
        );
        let cmd = parse(argv(&["pipeline", "--listen", "127.0.0.1:9201"])).unwrap();
        assert!(
            matches!(cmd, Command::Pipeline { listen: Some(ref l), .. } if l == "127.0.0.1:9201")
        );
    }

    #[test]
    fn parses_train_and_predict() {
        let cmd = parse(argv(&[
            "train",
            "--scale",
            "test",
            "--seed",
            "11",
            "--save-model",
            "model.dds",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                scale: "test".to_string(),
                seed: 11,
                input: None,
                save_model: PathBuf::from("model.dds"),
                threads: 1,
                obs: ObsOptions::default(),
            }
        );
        let cmd = parse(argv(&["train", "--input", "fleet.csv", "--save-model", "m.dds"])).unwrap();
        assert!(
            matches!(cmd, Command::Train { input: Some(ref p), .. } if p == &PathBuf::from("fleet.csv"))
        );
        // --save-model is mandatory; bad scales are rejected.
        assert!(parse(argv(&["train"])).is_err());
        assert!(parse(argv(&["train", "--save-model", "m", "--scale", "huge"])).is_err());

        let cmd = parse(argv(&["predict", "--model", "m.dds", "--live", "b.csv", "--limit", "3"]))
            .unwrap();
        assert_eq!(
            cmd,
            Command::Predict {
                model: PathBuf::from("m.dds"),
                live: PathBuf::from("b.csv"),
                limit: 3,
                obs: ObsOptions::default(),
            }
        );
        assert!(parse(argv(&["predict", "--model", "m.dds"])).is_err());
        assert!(parse(argv(&["predict", "--live", "b.csv"])).is_err());

        // serve accepts --model for warm starts.
        let cmd = parse(argv(&["serve", "--model", "m.dds"])).unwrap();
        let Command::Serve(options) = cmd else { panic!("expected serve") };
        assert_eq!(options.model, Some(PathBuf::from("m.dds")));
    }

    #[test]
    fn parses_top_flags() {
        let cmd = parse(argv(&[
            "top",
            "--url",
            "127.0.0.1:9999",
            "--interval-ms",
            "250",
            "--frames",
            "3",
            "--once",
            "--ascii",
            "--width",
            "100",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Top(TopOptions {
                url: "127.0.0.1:9999".to_string(),
                interval_ms: 250,
                frames: 3,
                once: true,
                ascii: true,
                width: 100,
            })
        );

        // Defaults.
        let Command::Top(defaults) = parse(argv(&["top"])).unwrap() else { panic!("expected top") };
        assert_eq!(defaults, TopOptions::default());
        assert_eq!(defaults.url, "127.0.0.1:9150");
        assert!(!defaults.once && !defaults.ascii);

        // Garbage values are clean errors.
        assert!(parse(argv(&["top", "--interval-ms", "soon"])).is_err());
        assert!(parse(argv(&["top", "--frames", "lots"])).is_err());
        assert!(parse(argv(&["top", "--width", "10"])).is_err(), "width floor is 40");
        assert!(parse(argv(&["top", "--bogus"])).is_err());
    }

    #[test]
    fn predict_missing_model_is_a_clean_error() {
        let err = run(Command::Predict {
            model: PathBuf::from("/nonexistent/model.dds"),
            live: PathBuf::from("/nonexistent/live.csv"),
            limit: 5,
            obs: ObsOptions::default(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot load model"));
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let err = parse(argv(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn analyze_missing_file_is_a_clean_error() {
        let err = run(Command::Analyze {
            input: PathBuf::from("/nonexistent/x.csv"),
            full_report: false,
            k: None,
            threads: 0,
            obs: ObsOptions::default(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }

    #[test]
    fn parses_pipeline() {
        let cmd = parse(argv(&["pipeline", "--scale", "test", "--seed", "3"])).unwrap();
        assert_eq!(
            cmd,
            Command::Pipeline {
                scale: "test".to_string(),
                seed: 3,
                threads: 0,
                listen: None,
                chaos: ChaosOptions::default(),
                obs: ObsOptions::default(),
            }
        );
        assert!(parse(argv(&["pipeline", "--scale", "galactic"])).is_err());
    }

    #[test]
    fn parses_chaos_flags() {
        use dds_chaos::FaultKind;

        let cmd =
            parse(argv(&["pipeline", "--chaos", "drop=0.05,nullattr=0.02", "--chaos-seed", "7"]))
                .unwrap();
        let Command::Pipeline { chaos, .. } = cmd else { panic!("expected pipeline") };
        assert!(chaos.active());
        assert_eq!(chaos.seed, 7);
        assert_eq!(chaos.spec.rate(FaultKind::Drop), 0.05);
        assert_eq!(chaos.spec.rate(FaultKind::NullAttr), 0.02);

        let cmd =
            parse(argv(&["monitor", "--train", "a", "--live", "b", "--chaos", "dup=0.1"])).unwrap();
        let Command::Monitor { chaos, .. } = cmd else { panic!("expected monitor") };
        assert!(chaos.active());

        let cmd = parse(argv(&[
            "serve",
            "--chaos",
            "reorder=0.2",
            "--chaos-seed",
            "23",
            "--chaos-epochs",
            "3",
        ]))
        .unwrap();
        let Command::Serve(options) = cmd else { panic!("expected serve") };
        assert!(options.chaos.active());
        assert_eq!(options.chaos.seed, 23);
        assert_eq!(options.chaos_epochs, 3);

        // An explicit identity spec parses and stays inactive.
        let cmd = parse(argv(&["pipeline", "--chaos", "none"])).unwrap();
        let Command::Pipeline { chaos, .. } = cmd else { panic!("expected pipeline") };
        assert!(!chaos.active());

        // Malformed specs and values are clean errors.
        assert!(parse(argv(&["pipeline", "--chaos", "warp=0.1"])).is_err());
        assert!(parse(argv(&["pipeline", "--chaos", "drop=2.0"])).is_err());
        assert!(parse(argv(&["pipeline", "--chaos-seed", "soon"])).is_err());
        assert!(parse(argv(&["serve", "--chaos-epochs", "few"])).is_err());
        // --chaos-epochs is serve-only.
        assert!(parse(argv(&["pipeline", "--chaos-epochs", "3"])).is_err());
    }

    #[test]
    fn parses_obs_flags_on_every_subcommand() {
        let cmd = parse(argv(&[
            "pipeline",
            "--trace-level",
            "debug",
            "--trace-json",
            "trace.jsonl",
            "--metrics",
            "metrics.json",
        ]))
        .unwrap();
        let Command::Pipeline { obs, .. } = cmd else { panic!("expected pipeline") };
        assert_eq!(obs.trace_level, Some(Level::Debug));
        assert_eq!(obs.trace_json, Some(PathBuf::from("trace.jsonl")));
        assert_eq!(obs.metrics, Some(PathBuf::from("metrics.json")));
        assert!(obs.active());

        for args in [
            argv(&["simulate", "--out", "x.csv", "--trace-level", "info"]),
            argv(&["analyze", "a.csv", "--metrics", "m.json"]),
            argv(&["monitor", "--train", "a", "--live", "b", "--trace-json", "t.jsonl"]),
        ] {
            let cmd = parse(args).unwrap();
            let (Command::Simulate { obs, .. }
            | Command::Analyze { obs, .. }
            | Command::Monitor { obs, .. }
            | Command::Pipeline { obs, .. }) = cmd
            else {
                panic!("expected a subcommand")
            };
            assert!(obs.active());
        }

        assert!(parse(argv(&["analyze", "a.csv", "--trace-level", "loud"])).is_err());
        assert!(parse(argv(&["analyze", "a.csv", "--trace-json"])).is_err());
    }
}
