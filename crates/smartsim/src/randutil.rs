//! Small sampling helpers on top of [`rand`]: normal and Poisson
//! variates and Bernoulli trials.
//!
//! Implemented in-crate (Box–Muller, Knuth) so the workspace does not
//! need `rand_distr`; the simulator only needs these distributions and
//! modest statistical quality.

use rand::{Rng, RngExt};

/// Samples a normal variate with the given mean and standard deviation via
/// the Box–Muller transform.
///
/// A non-positive `sd` returns `mean` exactly, which lets callers disable
/// noise with `sd = 0.0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    if sd <= 0.0 {
        return mean;
    }
    // Box–Muller: u1 in (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let mag = (-2.0 * u1.ln()).sqrt();
    mean + sd * mag * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a Poisson count with the given mean.
///
/// Uses Knuth's product method for small means and a normal approximation
/// (rounded, clamped at zero) for `mean > 30`, which is more than accurate
/// enough for hourly error counts.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let x = normal(rng, mean, mean.sqrt());
        return x.round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Returns `true` with probability `p` (clamped to `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.random::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDD5)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn normal_zero_sd_is_deterministic() {
        let mut r = rng();
        assert_eq!(normal(&mut r, 3.25, 0.0), 3.25);
        assert_eq!(normal(&mut r, 3.25, -1.0), 3.25);
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| poisson(&mut r, 0.3) as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut r = rng();
        let n = 5_000;
        let mean = (0..n).map(|_| poisson(&mut r, 100.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        let hits = (0..10_000).filter(|_| bernoulli(&mut r, 0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
