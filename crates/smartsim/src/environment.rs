//! Datacenter environment: ambient temperature and I/O load, both with a
//! diurnal cycle.
//!
//! The paper's data comes from a production datacenter with "diverse
//! workloads" (§IV-B) where temperature turned out to be the dominant
//! trigger of logical failures (§V-A). The environment model is simple but
//! carries the two signals the analysis consumes: the ambient temperature
//! each drive's thermal operating point builds on (the cold-aisle vs
//! hot-spot rack offsets live in [`topology`](crate::topology)) and a
//! fluctuating load that modulates error opportunities.

/// How the fleet's I/O intensity evolves over time.
///
/// The drive model scales its error opportunities by the instantaneous
/// load, so the load shape leaves fingerprints in the SMART rate
/// attributes. Three shapes cover the common cases; `Trace` replays any
/// recorded per-hour intensity profile cyclically.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Flat load at the given level.
    Constant(f64),
    /// The classic interactive-traffic shape: `base + amplitude ·
    /// sin(2π(h − 15)/24)`, peaking at hour 21.
    Diurnal {
        /// Mean relative load.
        base: f64,
        /// Half-amplitude of the swing.
        amplitude: f64,
    },
    /// Replays a recorded per-hour intensity trace, repeating it when the
    /// simulation outlives it.
    Trace(Vec<f64>),
}

impl LoadModel {
    /// The relative load at an absolute hour (floored at 0.05 so error
    /// processes never fully stall).
    pub fn load(&self, hour: u32) -> f64 {
        let raw = match self {
            LoadModel::Constant(level) => *level,
            LoadModel::Diurnal { base, amplitude } => {
                let phase = 2.0 * std::f64::consts::PI * ((hour % 24) as f64 - 15.0) / 24.0;
                base + amplitude * phase.sin()
            }
            LoadModel::Trace(samples) => {
                if samples.is_empty() {
                    1.0
                } else {
                    samples[hour as usize % samples.len()]
                }
            }
        };
        raw.max(0.05)
    }
}

/// Ambient datacenter conditions shared by the whole fleet.
///
/// # Example
///
/// ```
/// use dds_smartsim::Environment;
///
/// let env = Environment::default();
/// let noon = env.ambient_celsius(12);
/// let midnight = env.ambient_celsius(0);
/// assert!(noon > midnight); // diurnal swing
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Mean cold-aisle inlet temperature in °C.
    pub base_celsius: f64,
    /// Half-amplitude of the diurnal temperature swing in °C.
    pub diurnal_celsius: f64,
    /// The fleet's I/O intensity over time.
    pub load_model: LoadModel,
}

impl Environment {
    /// Nominal datacenter: 24 °C inlet with a small ±0.4 °C residual swing
    /// (CRAC-controlled cold aisle), nominal load with ±40% swing.
    pub fn new() -> Self {
        Environment {
            base_celsius: 24.0,
            diurnal_celsius: 0.4,
            load_model: LoadModel::Diurnal { base: 1.0, amplitude: 0.4 },
        }
    }

    /// Cold-aisle ambient temperature at the given absolute hour.
    ///
    /// Peaks mid-afternoon (hour 15 of each day).
    pub fn ambient_celsius(&self, hour: u32) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * ((hour % 24) as f64 - 9.0) / 24.0;
        self.base_celsius + self.diurnal_celsius * phase.sin()
    }

    /// Relative I/O load at the given absolute hour (always positive).
    pub fn load(&self, hour: u32) -> f64 {
        self.load_model.load(hour)
    }
}

impl Default for Environment {
    fn default() -> Self {
        Environment::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_stays_in_band() {
        let env = Environment::new();
        for h in 0..48 {
            let t = env.ambient_celsius(h);
            assert!(t >= env.base_celsius - env.diurnal_celsius - 1e-9);
            assert!(t <= env.base_celsius + env.diurnal_celsius + 1e-9);
        }
    }

    #[test]
    fn ambient_is_periodic() {
        let env = Environment::new();
        assert!((env.ambient_celsius(5) - env.ambient_celsius(5 + 24)).abs() < 1e-12);
    }

    #[test]
    fn load_is_positive_and_peaks_evening() {
        let env = Environment::new();
        let mut peak_hour = 0;
        let mut peak = f64::MIN;
        for h in 0..24 {
            let l = env.load(h);
            assert!(l > 0.0);
            if l > peak {
                peak = l;
                peak_hour = h;
            }
        }
        assert_eq!(peak_hour, 21);
    }

    #[test]
    fn constant_load_is_flat_and_floored() {
        let model = LoadModel::Constant(0.7);
        assert_eq!(model.load(0), 0.7);
        assert_eq!(model.load(999), 0.7);
        assert_eq!(LoadModel::Constant(-3.0).load(5), 0.05);
    }

    #[test]
    fn trace_load_replays_cyclically() {
        let model = LoadModel::Trace(vec![0.5, 1.5, 2.5]);
        assert_eq!(model.load(0), 0.5);
        assert_eq!(model.load(4), 1.5);
        assert_eq!(model.load(302), 2.5);
        // An empty trace degrades to nominal load.
        assert_eq!(LoadModel::Trace(vec![]).load(7), 1.0);
    }

    #[test]
    fn trace_driven_fleet_still_simulates() {
        use crate::fleet::{FleetConfig, FleetSimulator};
        let mut config =
            FleetConfig::test_scale().with_good_drives(10).with_failed_drives(5).with_seed(55);
        // A bursty weekly pattern: quiet nights, heavy weekend scrubs.
        let trace: Vec<f64> = (0..168)
            .map(|h| {
                if h % 24 < 8 {
                    0.3
                } else if h > 120 {
                    2.0
                } else {
                    1.0
                }
            })
            .collect();
        config.environment.load_model = LoadModel::Trace(trace);
        let dataset = FleetSimulator::new(config).run();
        assert_eq!(dataset.failed_drives().count(), 5);
    }
}
