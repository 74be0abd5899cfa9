//! Deterministic random numbers for workload generation.
//!
//! Experiments must be reproducible run-to-run, so every stochastic
//! workload (file lifetimes, network jitter, frame content) draws from a
//! [`SmallRng`] seeded explicitly. This module centralizes construction so
//! seeds are never implicit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let mut a = pegasus_sim::rng::seeded(42);
/// let mut b = pegasus_sim::rng::seeded(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Draws from an exponential distribution with the given mean.
///
/// Used for Poisson inter-arrival times and Baker-style file lifetimes.
pub fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// Draws from a bounded Pareto-ish heavy-tailed distribution, used for
/// file sizes (many small files, a few huge media files).
pub fn heavy_tailed(rng: &mut SmallRng, min: f64, alpha: f64, max: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    (min / u.powf(1.0 / alpha)).min(max)
}

/// Draws an index in `0..n` from a Zipf law with exponent
/// `alpha_milli / 1000`: index 0 is the most popular, and α = 0
/// degenerates to uniform. Used for title popularity.
pub fn zipf(rng: &mut SmallRng, n: usize, alpha_milli: u64) -> usize {
    let alpha = alpha_milli as f64 / 1000.0;
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return k;
        }
        u -= *w;
    }
    n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = seeded(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn exponential_nonnegative() {
        let mut rng = seeded(4);
        for _ in 0..1000 {
            assert!(exponential(&mut rng, 5.0) >= 0.0);
        }
    }

    #[test]
    fn heavy_tailed_bounded() {
        let mut rng = seeded(5);
        for _ in 0..1000 {
            let v = heavy_tailed(&mut rng, 1.0, 1.2, 1000.0);
            assert!((1.0..=1000.0).contains(&v), "{v}");
        }
    }
}
