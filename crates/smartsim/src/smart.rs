//! Vendor SMART encoding: physical state → the one-byte health values and
//! raw counters a drive actually reports.
//!
//! §III of the paper notes that "the formats of the attribute values are
//! vendor-dependent" and that some normalized health values lose accuracy,
//! which is why the raw counters of `RSC` and `CPSC` are kept alongside.
//! This module reproduces the encoding quirks the analysis has to survive:
//!
//! * health values are clamped to the one-byte range `[1, 100]` and
//!   saturate at the bottom;
//! * the "rate" attributes (`RRER`, `SER`, `HER`) are noisy even on healthy
//!   drives, because vendors derive them from windowed error/operation
//!   ratios;
//! * `POH` loses one point for every 876 hours of operation, in abrupt
//!   steps (§IV-D);
//! * `TC` reports an airflow-temperature health value that *decreases* as
//!   the drive runs hotter.

/// Lowest reportable one-byte health value.
pub const HEALTH_MIN: f64 = 1.0;
/// Highest reportable health value for this drive model.
pub const HEALTH_MAX: f64 = 100.0;
/// Hours of operation per one-point `POH` health decrement (§IV-D).
pub const POH_STEP_HOURS: f64 = 876.0;
/// Number of spare sectors the model reserves for reallocation
/// ("disk drives usually reserve several thousand spare sectors", §II-A).
pub const SPARE_SECTORS: f64 = 4096.0;
/// The 16-bit-saturated "no data" sentinel, the classic 0xFFFF a drive
/// reports for an attribute it could not read: what the chaos `sentinel`
/// operator writes, and what the quality gate and the drift detector
/// treat as missing.
pub const SENTINEL_VALUE: f64 = 65_535.0;

/// Clamps a computed health value to the reportable one-byte range.
pub fn clamp_health(value: f64) -> f64 {
    value.clamp(HEALTH_MIN, HEALTH_MAX)
}

/// Encodes a windowed error intensity as a noisy vendor "rate" health value:
/// `base − sensitivity · intensity`, clamped.
///
/// The caller adds measurement noise; this function is deterministic.
pub fn rate_health(base: f64, intensity: f64, sensitivity: f64) -> f64 {
    clamp_health(base - sensitivity * intensity)
}

/// Encodes the reallocated-sector health value: full health with no
/// reallocations, saturating at `HEALTH_MIN` when the spare pool is
/// exhausted.
pub fn reallocated_health(reallocated: f64) -> f64 {
    clamp_health(HEALTH_MAX - (HEALTH_MAX - HEALTH_MIN) * (reallocated / SPARE_SECTORS))
}

/// Encodes reported-uncorrectable health: each uncorrectable error costs
/// half a point.
pub fn uncorrectable_health(uncorrectable: f64) -> f64 {
    clamp_health(HEALTH_MAX - 0.5 * uncorrectable)
}

/// Encodes high-fly-write health: each recorded high-fly event costs
/// 0.35 points.
pub fn high_fly_health(high_fly: f64) -> f64 {
    clamp_health(HEALTH_MAX - 0.35 * high_fly)
}

/// Encodes current-pending-sector health: each pending sector costs
/// 1.5 points.
pub fn pending_health(pending: f64) -> f64 {
    clamp_health(HEALTH_MAX - 1.5 * pending)
}

/// Encodes power-on-hours health with the abrupt 876-hour step quirk:
/// the value drops by exactly one point per [`POH_STEP_HOURS`] of operation
/// and is otherwise constant between steps.
pub fn poh_health(age_hours: f64) -> f64 {
    clamp_health(HEALTH_MAX - (age_hours.max(0.0) / POH_STEP_HOURS).floor())
}

/// Encodes drive temperature as a health value: `100 − °C`, so hotter
/// drives score lower (matching the paper's Fig. 11, where hot failure
/// groups have *negative* TC z-scores versus good drives).
pub fn temperature_health(celsius: f64) -> f64 {
    clamp_health(HEALTH_MAX - celsius)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_respects_byte_range() {
        assert_eq!(clamp_health(150.0), HEALTH_MAX);
        assert_eq!(clamp_health(-3.0), HEALTH_MIN);
        assert_eq!(clamp_health(42.5), 42.5);
    }

    #[test]
    fn rate_health_decreases_with_intensity() {
        let healthy = rate_health(80.0, 0.5, 4.0);
        let sick = rate_health(80.0, 5.0, 4.0);
        assert!(sick < healthy);
        assert_eq!(rate_health(80.0, 1000.0, 4.0), HEALTH_MIN);
    }

    #[test]
    fn reallocated_health_spans_spare_pool() {
        assert_eq!(reallocated_health(0.0), HEALTH_MAX);
        assert_eq!(reallocated_health(SPARE_SECTORS), HEALTH_MIN);
        let mid = reallocated_health(SPARE_SECTORS / 2.0);
        assert!((mid - 50.5).abs() < 0.01);
    }

    #[test]
    fn poh_steps_every_876_hours() {
        assert_eq!(poh_health(0.0), 100.0);
        assert_eq!(poh_health(875.9), 100.0);
        assert_eq!(poh_health(876.0), 99.0);
        assert_eq!(poh_health(876.0 * 2.0 - 0.1), 99.0);
        assert_eq!(poh_health(876.0 * 30.0), 70.0);
        // Very old drives saturate rather than underflow.
        assert_eq!(poh_health(876.0 * 1000.0), HEALTH_MIN);
        assert_eq!(poh_health(-5.0), HEALTH_MAX);
    }

    #[test]
    fn poh_constant_within_a_step() {
        // Hourly samples between steps must not change — this is exactly the
        // quirk §IV-D describes and the influence analysis must compensate.
        let start = 876.0 * 10.0 + 1.0;
        let a = poh_health(start);
        let b = poh_health(start + 100.0);
        assert_eq!(a, b);
    }

    #[test]
    fn hotter_is_less_healthy() {
        assert!(temperature_health(45.0) < temperature_health(30.0));
        assert_eq!(temperature_health(30.0), 70.0);
    }

    #[test]
    fn counter_healths_are_monotone() {
        for (f, max_in) in [
            (uncorrectable_health as fn(f64) -> f64, 200.0),
            (high_fly_health, 400.0),
            (pending_health, 100.0),
        ] {
            let mut prev = f(0.0);
            let mut x = 0.0;
            while x < max_in {
                x += 1.0;
                let cur = f(x);
                assert!(cur <= prev);
                prev = cur;
            }
            assert_eq!(f(1e9), HEALTH_MIN);
        }
    }
}
