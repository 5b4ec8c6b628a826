//! End-to-end tests of the `dds` binary: simulate → analyze → monitor on
//! real temporary files, via the compiled executable.

use std::path::PathBuf;
use std::process::Command;

fn dds() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dds"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("dds_cli_test_{}_{name}", std::process::id()));
    path
}

#[test]
fn help_prints_usage_and_succeeds() {
    let output = dds().arg("help").output().expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let output = dds().arg("explode").output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn simulate_analyze_monitor_pipeline() {
    let train = temp_path("train.csv");
    let live = temp_path("live.csv");

    // simulate two fleets
    for (path, seed) in [(&train, "11"), (&live, "22")] {
        let output = dds()
            .args(["simulate", "--scale", "test", "--seed", seed, "--out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        assert!(String::from_utf8_lossy(&output.stdout).contains("wrote"));
        assert!(path.exists());
    }

    // analyze
    let output = dds().args(["analyze", train.to_str().unwrap()]).output().expect("runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Table II"), "analyze output: {stdout}");
    assert!(stdout.contains("Table III"));
    assert!(stdout.contains("logical failures"));

    // analyze with a forced k
    let output =
        dds().args(["analyze", train.to_str().unwrap(), "--k", "2"]).output().expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Group 2"));
    assert!(!stdout.contains("Group 3"), "forced k=2 must not report a third group");

    // monitor
    let output = dds()
        .args([
            "monitor",
            "--train",
            train.to_str().unwrap(),
            "--live",
            live.to_str().unwrap(),
            "--limit",
            "5",
        ])
        .output()
        .expect("runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("critical alerts in total"), "monitor output: {stdout}");

    // Sharding changes throughput only: three shards print the same report.
    let sharded = dds()
        .args([
            "monitor",
            "--train",
            train.to_str().unwrap(),
            "--live",
            live.to_str().unwrap(),
            "--limit",
            "5",
            "--shards",
            "3",
        ])
        .output()
        .expect("runs");
    assert!(sharded.status.success(), "{}", String::from_utf8_lossy(&sharded.stderr));
    assert_eq!(String::from_utf8_lossy(&sharded.stdout), stdout, "3 shards vs 1 shard");

    let _ = std::fs::remove_file(&train);
    let _ = std::fs::remove_file(&live);
}

#[test]
fn train_once_predict_matches_monitor_and_corruption_is_rejected() {
    let train_csv = temp_path("warm_train.csv");
    let live_csv = temp_path("warm_live.csv");
    let artifact = temp_path("warm_model.dds");

    for (path, seed) in [(&train_csv, "11"), (&live_csv, "22")] {
        let output = dds()
            .args(["simulate", "--scale", "test", "--seed", seed, "--out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    }

    // Train once, saving the artifact.
    let output = dds()
        .args([
            "train",
            "--input",
            train_csv.to_str().unwrap(),
            "--save-model",
            artifact.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("model saved to"), "train output: {stdout}");
    assert!(stdout.contains("Table III"), "train prints the prediction table: {stdout}");
    assert!(artifact.exists());

    // Warm-start prediction: one header line, then a body byte-identical
    // to `dds monitor` retraining on the same fleet.
    let predict = dds()
        .args([
            "predict",
            "--model",
            artifact.to_str().unwrap(),
            "--live",
            live_csv.to_str().unwrap(),
            "--limit",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(predict.status.success(), "{}", String::from_utf8_lossy(&predict.stderr));
    let predict_out = String::from_utf8_lossy(&predict.stdout).to_string();
    let (header, body) = predict_out.split_once('\n').expect("predict header line");
    assert!(header.contains("loaded model"), "predict header: {header}");

    let monitor = dds()
        .args([
            "monitor",
            "--train",
            train_csv.to_str().unwrap(),
            "--live",
            live_csv.to_str().unwrap(),
            "--limit",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(monitor.status.success(), "{}", String::from_utf8_lossy(&monitor.stderr));
    assert_eq!(
        body,
        String::from_utf8_lossy(&monitor.stdout),
        "warm-start predictions must match a fresh retrain byte for byte"
    );

    // A flipped payload byte must be rejected with a checksum error.
    let mut bytes = std::fs::read(&artifact).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x40;
    std::fs::write(&artifact, &bytes).unwrap();
    let corrupted = dds()
        .args([
            "predict",
            "--model",
            artifact.to_str().unwrap(),
            "--live",
            live_csv.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!corrupted.status.success(), "corrupted artifact must not load");
    let stderr = String::from_utf8_lossy(&corrupted.stderr);
    assert!(stderr.contains("checksum"), "error names the cause: {stderr}");

    let _ = std::fs::remove_file(&train_csv);
    let _ = std::fs::remove_file(&live_csv);
    let _ = std::fs::remove_file(&artifact);
}

#[test]
fn train_on_a_csv_with_sentinel_cells_saves_the_gated_scaler() {
    let clean_csv = temp_path("sentinel_clean.csv");
    let sentinel_csv = temp_path("sentinel_cells.csv");
    let output = dds()
        .args(["simulate", "--scale", "test", "--seed", "11", "--out", clean_csv.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    // One attribute cell of every 50th row reads the vendor sentinel.
    let text = std::fs::read_to_string(&clean_csv).unwrap();
    let mut corrupted = String::new();
    for (row, line) in text.lines().enumerate() {
        if row > 0 && row % 50 == 0 {
            let mut fields: Vec<&str> = line.split(',').collect();
            fields[3 + row % 12] = "65535";
            corrupted.push_str(&fields.join(","));
        } else {
            corrupted.push_str(line);
        }
        corrupted.push('\n');
    }
    std::fs::write(&sentinel_csv, corrupted).unwrap();

    let train = |csv: &PathBuf, name: &str| {
        let artifact = temp_path(name);
        let output = dds()
            .args([
                "train",
                "--input",
                csv.to_str().unwrap(),
                "--save-model",
                artifact.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let model = dds_core::TrainedModel::load(&artifact).expect("artifact loads");
        let _ = std::fs::remove_file(&artifact);
        model
    };
    let clean = train(&clean_csv, "sentinel_clean.dds");
    let gated = train(&sentinel_csv, "sentinel_gated.dds");

    // The gate only drops records or carries a drive's earlier values
    // forward, so every bound and population mean stays inside the clean
    // fleet's range, nowhere near the sentinel.
    for c in 0..clean.scaler_maxs.len() {
        let (lo, hi) = (clean.scaler_mins[c], clean.scaler_maxs[c]);
        assert!(hi < 65535.0, "attribute {c}: the clean fleet stays below the sentinel");
        assert!(
            lo <= gated.scaler_mins[c] && gated.scaler_maxs[c] <= hi,
            "attribute {c}: gated bounds [{}, {}] outside the clean [{lo}, {hi}]",
            gated.scaler_mins[c],
            gated.scaler_maxs[c]
        );
        let mean = gated.population_means[c];
        assert!(lo <= mean && mean <= hi, "attribute {c}: population mean {mean}");
    }

    let _ = std::fs::remove_file(&clean_csv);
    let _ = std::fs::remove_file(&sentinel_csv);
}

#[test]
fn pipeline_subcommand_emits_trace_and_metrics() {
    let trace = temp_path("trace.jsonl");
    let metrics = temp_path("metrics.json");
    let output = dds()
        .args([
            "pipeline",
            "--scale",
            "test",
            "--seed",
            "7",
            "--trace-json",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("failure groups"), "pipeline output: {stdout}");
    assert!(stdout.contains("stage profile:"), "profile table appended: {stdout}");
    assert!(stdout.contains("pipeline.categorize"), "stages listed: {stdout}");

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.lines().any(|l| l.contains("\"name\": \"pipeline.run\"")));
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_text.contains("dds_monitor_alerts_total"));
    // The dds binary installs the counting allocator, so stage timings
    // carry nonzero allocation deltas.
    assert!(trace_text
        .lines()
        .any(|l| l.contains("\"allocations\": ") && !l.contains("\"allocations\": 0}")));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn analyze_rejects_garbage_csv() {
    let path = temp_path("garbage.csv");
    std::fs::write(&path, "this,is,not\na,valid,fleet\n").unwrap();
    let output = dds().args(["analyze", path.to_str().unwrap()]).output().expect("runs");
    assert!(!output.status.success());
    let _ = std::fs::remove_file(&path);
}
