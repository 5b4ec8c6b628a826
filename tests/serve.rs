//! Integration tests of serving mode: a real `dds serve` loop (in
//! process) answering scrapes over raw TCP while ingesting, the watchdog
//! flipping `/healthz`, malformed-request resilience, hot-swap promotion
//! under concurrent load, and bit-for-bit Sequential-vs-Threads(4)
//! determinism with the server enabled.
//!
//! The serve loop writes the process-global metrics registry and trace
//! facade, so every test takes `SERVE_LOCK` first.

use dds_cli::serve::{serve, ServeOptions};
use dds_cli::{parse, run, ChaosOptions};
use dds_core::{Analysis, AnalysisConfig, TrainingContext};
use dds_smartsim::{FleetConfig, FleetSimulator};
use dds_stats::par::Parallelism;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERVE_LOCK: Mutex<()> = Mutex::new(());

fn serve_lock() -> MutexGuard<'static, ()> {
    SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_options() -> ServeOptions {
    ServeOptions {
        scale: "test".to_string(),
        seed: 77,
        threads: 1,
        listen: "127.0.0.1:0".to_string(),
        epochs: 0, // run until the test flips the stop flag
        tick_ms: 1,
        ..ServeOptions::default()
    }
}

/// A minimal HTTP GET over raw TCP: returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    raw_roundtrip(stream, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"))
}

/// A body-less HTTP POST over raw TCP: returns (status, body). The
/// promotion endpoint rendezvouses with the serve loop, so the read
/// timeout is generous.
fn http_post(addr: SocketAddr, path: &str) -> (u16, String) {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).expect("connect");
    raw_roundtrip(
        stream,
        &format!("POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n"),
    )
}

/// Extracts the `"generation": N` counter from a `/model` or promotion
/// reply.
fn generation_of(body: &str) -> u64 {
    body.split("\"generation\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no generation counter in {body:?}"))
}

fn raw_roundtrip(mut stream: TcpStream, request: &str) -> (u16, String) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(request.as_bytes()).expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let status: u16 = reply
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {reply:?}"));
    let body = reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Polls `path` until `pred` accepts the response or the deadline passes.
fn poll_until(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
    pred: impl Fn(u16, &str) -> bool,
) -> (u16, String) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = http_get(addr, path);
        if pred(status, &body) {
            return (status, body);
        }
        assert!(Instant::now() < deadline, "timed out polling {path}; last: {status} {body}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Checks the Prometheus text exposition grammar the registry's
/// `to_prometheus()` promises: comment lines start with `#`, every sample
/// line is `name[{labels}] value` with a metric-identifier name and a
/// float (or `+Inf`) value.
fn assert_prometheus_format(body: &str) {
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparsable sample value in {line:?}"
        );
        let name = &series[..series.find('{').unwrap_or(series.len())];
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "no samples in exposition");
}

/// Runs the serve loop on a background thread, hands its bound address to
/// `body`, then stops the loop and returns its summary output.
fn with_serve_loop(options: ServeOptions, body: impl FnOnce(SocketAddr)) -> String {
    let stop = AtomicBool::new(false);
    let (addr_tx, addr_rx) = mpsc::channel();
    let mut summary = None;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            serve(&options, &stop, None, move |addr| addr_tx.send(addr).unwrap())
                .expect("serve loop")
        });
        // A panicking body must still flip the stop flag, or the scope
        // would join the endless serve thread forever and turn an
        // assertion failure into a hang.
        let body_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let addr = addr_rx.recv_timeout(Duration::from_secs(10)).expect("server bound");
            body(addr);
        }));
        stop.store(true, Ordering::SeqCst);
        let serve_result = handle.join().expect("serve thread");
        if let Err(panic) = body_result {
            std::panic::resume_unwind(panic);
        }
        summary = Some(serve_result);
    });
    summary.expect("serve summary")
}

#[test]
fn concurrent_scrapes_succeed_mid_ingest_and_abuse_does_not_kill_the_server() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    let summary = with_serve_loop(test_options(), |addr| {
        // Readiness flips once the bundle is trained.
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);
        // Ingest must eventually emit alerts (the simulated fleet contains
        // failing drives).
        let (_, metrics) = poll_until(addr, "/metrics", Duration::from_secs(60), |s, b| {
            s == 200
                && b.lines().any(|l| {
                    l.strip_prefix("dds_monitor_alerts_total ")
                        .and_then(|v| v.parse::<f64>().ok())
                        .is_some_and(|v| v > 0.0)
                })
        });
        assert_prometheus_format(&metrics);
        assert!(metrics.contains("dds_build_info{"), "build info labels exported");
        assert!(metrics.contains("dds_monitor_ingest_seconds_p99"), "derived p99 gauge");
        assert!(metrics.contains("dds_uptime_seconds"));

        // Four clients hammer /metrics mid-ingest: zero non-200s allowed.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..10 {
                        let (status, body) = http_get(addr, "/metrics");
                        assert_eq!(status, 200, "scrape failed mid-ingest");
                        assert_prometheus_format(&body);
                    }
                });
            }
        });

        // Abuse: malformed request line, unknown path, bogus query —
        // then the server still answers normal scrapes.
        let garbage = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!(raw_roundtrip(garbage, "BLARG\r\n\r\n").0, 400);
        assert_eq!(http_get(addr, "/definitely-not-a-route").0, 404);
        assert_eq!(http_get(addr, "/alerts?n=banana").0, 400);
        let (status, json) = http_get(addr, "/alerts?n=3");
        assert_eq!(status, 200);
        dds_obs::json::validate(&json).expect("alerts JSON");
        let (status, json) = http_get(addr, "/metrics.json");
        assert_eq!(status, 200);
        dds_obs::json::validate(&json).expect("metrics JSON");
        let (status, json) = http_get(addr, "/profile");
        assert_eq!(status, 200);
        dds_obs::json::validate(&json).expect("profile JSON");

        // The dashboard endpoints are live even on an unsharded serve:
        // the flight recorder journals the streaming epochs and the
        // time-series store answers with fleet windows plus the single
        // shard's series.
        let (status, trace) = http_get(addr, "/trace?n=5");
        assert_eq!(status, 200);
        assert!(!trace.is_empty(), "streaming epochs journal batch spans");
        for line in trace.lines() {
            dds_obs::json::validate(line).expect("trace JSON-line");
        }
        assert!(trace.contains("\"source\": \"stream\""), "{trace}");
        let (status, timeseries) = http_get(addr, "/timeseries");
        assert_eq!(status, 200);
        dds_obs::json::validate(&timeseries).expect("timeseries JSON");
        assert!(timeseries.contains("\"fleet\""), "{timeseries}");
        assert!(timeseries.contains("\"shard\": 0"), "{timeseries}");

        // The declared Content-Type actually crosses the wire.
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"GET /metrics.json HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let headers = reply.split_once("\r\n\r\n").map(|(h, _)| h).unwrap_or(&reply);
        assert!(
            headers.contains("Content-Type: application/json"),
            "/metrics.json wire headers: {headers}"
        );

        assert_eq!(http_get(addr, "/metrics").0, 200, "server survived the abuse");
    });

    assert!(summary.contains("records ingested"), "summary reports ingest volume: {summary}");
    assert!(summary.contains("alerts emitted"), "summary reports alerts: {summary}");
}

#[test]
fn healthz_degrades_when_the_watchdog_trips_the_error_budget() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    with_serve_loop(test_options(), |addr| {
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "healthy while ingest behaves: {body}");
        assert!(body.contains("\"ok\""));

        // Blow the 1% ingest-error budget: the next watchdog evaluation
        // (one per ingested fleet-hour) must degrade /healthz.
        dds_obs::metrics::global().counter("dds_serve_ingest_errors_total").add(1_000_000);
        let (_, degraded) = poll_until(addr, "/healthz", Duration::from_secs(60), |s, _| s == 503);
        assert!(degraded.contains("degraded"), "reason surfaced: {degraded}");
        assert!(degraded.contains("error"), "error-budget rule named: {degraded}");
    });
}

#[test]
fn chaos_epochs_degrade_healthz_on_quarantine_budget_and_recovery_follows() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    // Corrupt only the first two epochs with duplicated hours, which the
    // quality gate quarantines wholesale: ~1/3 of offered records, far
    // past the watchdog's 10% quarantine budget. Duplicates sit at their
    // original hour, so the serve loop's per-fleet-hour pacing tick is
    // unchanged (out-of-order faults would multiply hour transitions and
    // stretch the corrupt phase past any sane poll deadline). Later
    // epochs stream clean, so the breach must age out of the 30s SLO
    // window.
    let options = ServeOptions {
        chaos: ChaosOptions { spec: "dup=0.5".parse().unwrap(), seed: 1051 },
        chaos_epochs: 2,
        ..test_options()
    };

    let summary = with_serve_loop(options, |addr| {
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);

        // The quarantine budget trips while the corrupt epochs stream.
        let (_, degraded) = poll_until(addr, "/healthz", Duration::from_secs(60), |s, _| s == 503);
        assert!(degraded.contains("degraded"), "reason surfaced: {degraded}");
        assert!(degraded.contains("quarantine budget"), "budget rule named: {degraded}");

        // Degraded health is a signal, not an outage: every data endpoint
        // keeps answering 200 mid-corruption.
        for path in ["/metrics", "/metrics.json", "/alerts?n=5", "/readyz", "/profile"] {
            let (status, _) = http_get(addr, path);
            assert_eq!(status, 200, "{path} must not fail under chaos");
        }
        let (_, metrics) = http_get(addr, "/metrics");
        assert_prometheus_format(&metrics);
        assert!(metrics.contains("dds_records_quarantined_total"), "{metrics}");
        assert!(metrics.contains("dds_chaos_faults_injected_total"), "{metrics}");

        // Recovery: clean epochs push the corrupt samples out of the
        // watchdog window and /healthz flips back on its own.
        let (_, healthy) = poll_until(addr, "/healthz", Duration::from_secs(120), |s, _| s == 200);
        assert!(healthy.contains("\"ok\""), "recovered health body: {healthy}");
    });

    assert!(summary.contains("records quarantined:"), "summary reports quarantine: {summary}");
    assert!(
        summary.contains("chaos dup=0.5 (seed 1051) applied to the first 2 epochs"),
        "summary reports the chaos window: {summary}"
    );
}

/// Runs a bounded serve loop to completion and returns its summary with
/// the ephemeral listen address masked (the only run-to-run variation).
fn masked_summary(options: &ServeOptions) -> String {
    let stop = AtomicBool::new(false);
    let addr_cell = std::cell::Cell::new(None);
    let summary =
        serve(options, &stop, None, |addr| addr_cell.set(Some(addr))).expect("bounded serve run");
    let addr = addr_cell.get().expect("server bound");
    summary.replace(&addr.to_string(), "ADDR")
}

#[test]
fn warm_start_serves_bit_identically_to_a_cold_start() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    // Train the artifact exactly the way the cold serve path trains:
    // same scale, seed and parallelism.
    let base = ServeOptions { epochs: 2, tick_ms: 0, ..test_options() };
    let par = Parallelism::from_thread_count(base.threads);
    let training =
        FleetSimulator::new(FleetConfig::test_scale().with_seed(base.seed).with_parallelism(par))
            .run();
    let ctx =
        TrainingContext { seed: base.seed, scale: base.scale.clone(), git_sha: String::new() };
    let config = AnalysisConfig { parallelism: par, ..Default::default() };
    let (_, model) = Analysis::new(config).train(&training, &ctx).expect("training");
    let mut artifact = std::env::temp_dir();
    artifact.push(format!("dds_serve_warm_{}.dds", std::process::id()));
    model.save(&artifact).expect("save artifact");

    // Cold (train in-process) and warm (load the artifact) runs must be
    // byte-identical once the ephemeral port is masked.
    let cold = masked_summary(&base);
    let warm = masked_summary(&ServeOptions { model: Some(artifact.clone()), ..base.clone() });
    assert!(cold.contains("2 epochs"), "bounded run completed: {cold}");
    assert_eq!(cold, warm, "warm start must not perturb serving output");

    // A warm server exposes the artifact's provenance on /model and the
    // warm-start gauges on /metrics, and reaches readiness.
    let options = ServeOptions { model: Some(artifact.clone()), ..test_options() };
    with_serve_loop(options, |addr| {
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);
        let (status, provenance) = http_get(addr, "/model");
        assert_eq!(status, 200);
        dds_obs::json::validate(&provenance).expect("provenance JSON");
        assert!(provenance.contains("dds-model"), "provenance: {provenance}");
        assert!(
            provenance.contains(&dds_obs::json::escape(&artifact.display().to_string())),
            "provenance names the artifact: {provenance}"
        );
        let (_, metrics) = http_get(addr, "/metrics");
        assert!(metrics.contains("dds_model_load_seconds"), "{metrics}");
        assert!(metrics.contains("dds_model_age_seconds"), "{metrics}");
    });
    let _ = std::fs::remove_file(&artifact);

    // A missing artifact is a clean startup error, not a fallback retrain.
    let mut missing = std::env::temp_dir();
    missing.push("dds_serve_warm_missing.dds");
    let bad = ServeOptions { model: Some(missing), ..test_options() };
    let err = serve(&bad, &AtomicBool::new(false), None, |_| {}).expect_err("must not start");
    assert!(err.to_string().contains("cannot load model"), "{err}");
}

#[test]
fn cold_start_publishes_in_process_provenance() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    with_serve_loop(test_options(), |addr| {
        // Before training completes /model answers 503; once ready it
        // reports the in-process training run.
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);
        let (status, provenance) =
            poll_until(addr, "/model", Duration::from_secs(60), |s, _| s == 200);
        assert_eq!(status, 200);
        dds_obs::json::validate(&provenance).expect("provenance JSON");
        assert!(provenance.contains("trained in-process"), "provenance: {provenance}");
        assert!(provenance.contains("\"seed\":\"77\""), "provenance: {provenance}");
    });
}

/// Like [`masked_summary`], but runs the bounded serve loop on a
/// background thread so `body` can act on the live server while the
/// epoch budget plays out. The loop exits on its own epoch budget; the
/// stop flag is only forced when `body` panics (so a failed assertion
/// cannot hang the join).
fn masked_summary_with(options: &ServeOptions, body: impl FnOnce(SocketAddr)) -> String {
    let stop = AtomicBool::new(false);
    let (addr_tx, addr_rx) = mpsc::channel();
    let mut out = None;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            serve(options, &stop, None, move |addr| addr_tx.send(addr).unwrap())
                .expect("bounded serve run")
        });
        let body_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let addr = addr_rx.recv_timeout(Duration::from_secs(10)).expect("server bound");
            body(addr);
            addr
        }));
        if body_result.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        let summary = handle.join().expect("serve thread");
        match body_result {
            Ok(addr) => out = Some(summary.replace(&addr.to_string(), "ADDR")),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    out.expect("serve summary")
}

/// Drops the online-learning summary lines (present exactly when refits
/// or promotions happened) so promotion runs compare against baselines.
fn without_online_lines(summary: &str) -> String {
    summary
        .lines()
        .filter(|l| !l.starts_with("online learning:") && !l.starts_with("drift:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn hot_swap_torture_identical_promotion_never_perturbs_the_alert_stream() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    // Baseline: the same bounded run with no promotions at all.
    let options = ServeOptions { epochs: 2, tick_ms: 1, ..test_options() };
    let baseline = masked_summary(&options);
    assert!(baseline.contains("2 epochs"), "bounded baseline completed: {baseline}");

    dds_obs::metrics::global().reset();

    // Torture run: scrape threads hammer /metrics, /model and /alerts
    // while a promoter thread hot-swaps the serving model (no candidate
    // is soaking, so each promote re-publishes the same bytes). Zero
    // non-200s allowed anywhere, /model must never be torn, and its
    // generation counter must never move backwards.
    let torture = masked_summary_with(&options, |addr| {
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);
        std::thread::scope(|scope| {
            for path in ["/metrics", "/alerts?n=5", "/model"] {
                scope.spawn(move || {
                    let mut last_generation = 0;
                    for _ in 0..25 {
                        let (status, body) = http_get(addr, path);
                        assert_eq!(status, 200, "{path} failed mid-promotion: {body}");
                        if path == "/model" {
                            dds_obs::json::validate(&body).expect("/model JSON never torn");
                            let generation = generation_of(&body);
                            assert!(
                                generation >= last_generation,
                                "generation rewound {last_generation} -> {generation}"
                            );
                            last_generation = generation;
                        }
                    }
                });
            }
            scope.spawn(move || {
                let mut last_generation = 1;
                for _ in 0..5 {
                    let (status, body) = http_post(addr, "/model/promote");
                    assert_eq!(status, 200, "promotion failed: {body}");
                    assert!(body.contains("\"promoted\": \"serving\""), "{body}");
                    let generation = generation_of(&body);
                    assert!(
                        generation > last_generation,
                        "promotion generation must strictly increase \
                         ({last_generation} -> {generation}): {body}"
                    );
                    last_generation = generation;
                }
            });
        });
        // GET on the promote route stays a method error, and promotion
        // replies are well-formed JSON.
        assert_eq!(http_get(addr, "/model/promote").0, 405);
    });

    // Five hot swaps of identical bytes: the ingest/alert/quarantine
    // summary is byte-identical to the promotion-free baseline.
    assert_eq!(
        without_online_lines(&baseline),
        without_online_lines(&torture),
        "identical-model promotion must not perturb serving"
    );
    assert!(torture.contains("5 promotions"), "promotions counted: {torture}");
}

#[test]
fn refit_candidate_soaks_in_shadow_and_promotes_atomically() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    // Refit a candidate after every epoch; run until the test stops it.
    let options = ServeOptions { refit_every: 1, ..test_options() };
    with_serve_loop(options, |addr| {
        poll_until(addr, "/readyz", Duration::from_secs(60), |s, _| s == 200);

        // /drift publishes from the first ingested hour: drift always on,
        // no shadow or candidate before the first refit.
        let (_, drift) = poll_until(addr, "/drift", Duration::from_secs(60), |s, _| s == 200);
        dds_obs::json::validate(&drift).expect("drift JSON");
        assert!(drift.contains("\"drift\": {"), "{drift}");

        // After the first epoch the online trainer refits: the candidate's
        // provenance appears on /drift and the shadow scorer starts.
        let (_, drift) = poll_until(addr, "/drift", Duration::from_secs(120), |s, b| {
            s == 200 && b.contains("online refit (epoch")
        });
        assert!(drift.contains("\"shadow\": {"), "shadow scorer soaking: {drift}");

        let (status, model) = http_get(addr, "/model");
        assert_eq!(status, 200);
        assert_eq!(generation_of(&model), 1, "one generation before promotion: {model}");
        assert!(model.contains("trained in-process"), "{model}");

        // Promote the candidate: atomic hot-swap, generation bumps, and
        // /model now reports the refit provenance.
        let (status, reply) = http_post(addr, "/model/promote");
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"promoted\": \"candidate\""), "{reply}");
        let promoted_generation = generation_of(&reply);
        assert!(promoted_generation >= 2, "{reply}");
        let (_, model) = poll_until(addr, "/model", Duration::from_secs(60), |s, b| {
            s == 200 && b.contains("online refit (epoch")
        });
        dds_obs::json::validate(&model).expect("promoted /model JSON");
        assert!(generation_of(&model) >= promoted_generation, "{model}");

        // The drift detector adopted the candidate's baseline.
        let (_, drift) = poll_until(addr, "/drift", Duration::from_secs(60), |s, b| {
            s == 200 && b.contains("\"baseline_swaps\": 1")
        });
        dds_obs::json::validate(&drift).expect("post-swap drift JSON");

        // The online-learning metric families are exported.
        let (_, metrics) = http_get(addr, "/metrics");
        for family in [
            "dds_drift_records_total",
            "dds_drift_score",
            "dds_shadow_batches_total",
            "dds_online_refits_total",
        ] {
            assert!(metrics.contains(family), "missing {family} in /metrics");
        }
    });
}

#[test]
fn exported_quality_counters_match_the_serve_summary_under_refit() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    // Online refits sanitize their chaos-corrupted window and the shadow
    // candidate re-scores every batch; neither may count into the serving
    // quality counters, which must equal what the summary reports.
    let options = ServeOptions {
        epochs: 2,
        tick_ms: 0,
        refit_every: 1,
        chaos: ChaosOptions { spec: "dup=0.04,nullattr=0.02".parse().unwrap(), seed: 7 },
        ..test_options()
    };
    let summary = masked_summary(&options);
    let line = summary
        .lines()
        .find_map(|l| l.strip_prefix("records quarantined: "))
        .unwrap_or_else(|| panic!("no quarantine line in {summary}"));
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let [quarantined, _offered, imputed] = numbers[..] else {
        panic!("unparsable quarantine line {line:?}");
    };
    assert!(quarantined > 0 && imputed > 0, "the chaos stream must quarantine and impute: {line}");

    let registry = dds_obs::metrics::global();
    assert_eq!(registry.counter("dds_records_quarantined_total").get(), quarantined, "{summary}");
    assert_eq!(registry.counter("dds_attrs_imputed_total").get(), imputed, "{summary}");
}

#[test]
fn pipeline_is_bit_for_bit_deterministic_with_the_server_enabled() {
    let _guard = serve_lock();
    dds_obs::metrics::global().reset();

    let output_of = |threads: usize, listen: Option<&str>| {
        let mut args = vec![
            "pipeline".to_string(),
            "--scale".to_string(),
            "test".to_string(),
            "--seed".to_string(),
            "1234".to_string(),
            "--threads".to_string(),
            threads.to_string(),
        ];
        if let Some(addr) = listen {
            args.push("--listen".to_string());
            args.push(addr.to_string());
        }
        run(parse(args).expect("parse")).expect("pipeline run")
    };

    let sequential = output_of(1, Some("127.0.0.1:0"));
    let threaded = output_of(4, Some("127.0.0.1:0"));
    let no_server = output_of(4, None);
    assert_eq!(sequential, threaded, "Sequential vs Threads(4) with server enabled");
    assert_eq!(threaded, no_server, "serving must not perturb results");
}
