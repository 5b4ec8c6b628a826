//! Shared scaffolding for the experiment binaries: scale selection,
//! dataset construction, the standard analysis run, and paper-vs-measured
//! comparison printing.
//!
//! Every figure/table of the paper has a binary in `src/bin/` that prints
//! the regenerated artifact plus the paper's reported numbers next to the
//! measured ones. Run them with `--release`; pass `--paper-scale` for the
//! full 23,395-drive fleet or `--test-scale` for a quick smoke run.
//!
//! `tests/speed_gates.rs` holds the wall-clock gates CI runs on every
//! push. Speed itself is measured by `perfbench` (`BENCHMARK.json`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

use dds_core::{Analysis, AnalysisConfig, AnalysisReport};
use dds_smartsim::{Dataset, FleetConfig, FleetSimulator};

/// Simulation scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 150 good + 60 failed drives — smoke tests.
    Test,
    /// 4,000 good + 433 failed drives — the default; failure-side
    /// statistics match the paper exactly.
    Bench,
    /// 22,962 good + 433 failed drives — the paper's §III population.
    Paper,
}

impl Scale {
    /// Parses the scale from process arguments (`--paper-scale`,
    /// `--test-scale`, default bench).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--paper-scale") {
            Scale::Paper
        } else if args.iter().any(|a| a == "--test-scale") {
            Scale::Test
        } else {
            Scale::Bench
        }
    }

    /// The fleet configuration for this scale.
    pub fn fleet_config(self) -> FleetConfig {
        match self {
            Scale::Test => FleetConfig::test_scale(),
            Scale::Bench => FleetConfig::bench_scale(),
            Scale::Paper => FleetConfig::paper_scale(),
        }
    }

    /// Human-readable label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test scale (150 good / 60 failed)",
            Scale::Bench => "bench scale (4,000 good / 433 failed)",
            Scale::Paper => "paper scale (22,962 good / 433 failed)",
        }
    }
}

/// The workspace-wide default seed for experiments.
pub const EXPERIMENT_SEED: u64 = 0x2015_115C;

/// Simulates the fleet at the given scale.
pub fn simulate(scale: Scale) -> Dataset {
    FleetSimulator::new(scale.fleet_config().with_seed(EXPERIMENT_SEED)).run()
}

/// The standard analysis configuration used by every experiment binary.
pub fn standard_config() -> AnalysisConfig {
    AnalysisConfig::default()
}

/// Simulates and analyzes in one call, printing progress.
///
/// # Panics
///
/// Panics when the analysis fails — experiment binaries treat that as a
/// fatal setup error.
pub fn run_standard(scale: Scale) -> (Dataset, AnalysisReport) {
    eprintln!("[dds] simulating fleet at {} ...", scale.label());
    let dataset = simulate(scale);
    eprintln!(
        "[dds] {} drives, {} records ({} failed-drive records); running analysis ...",
        dataset.drives().len(),
        dataset.num_records(),
        dataset.num_failed_records()
    );
    let report = Analysis::new(standard_config())
        .run(&dataset)
        .expect("standard analysis must succeed on a simulated fleet");
    (dataset, report)
}

/// Prints one paper-vs-measured comparison row.
pub fn compare(label: &str, measured: f64, paper: f64, unit: &str) {
    println!("  {label:<52} measured {measured:>9.3}{unit}  paper {paper:>9.3}{unit}");
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_map_to_configs() {
        assert_eq!(Scale::Test.fleet_config().failed_drives, 60);
        assert_eq!(Scale::Bench.fleet_config().failed_drives, 433);
        assert_eq!(Scale::Paper.fleet_config().good_drives, 22_962);
        assert!(Scale::Paper.label().contains("22,962"));
    }

    #[test]
    fn standard_run_completes_at_test_scale() {
        let (dataset, report) = run_standard(Scale::Test);
        assert!(dataset.failed_drives().count() > 0);
        assert_eq!(report.categorization.num_groups(), 3);
    }
}
