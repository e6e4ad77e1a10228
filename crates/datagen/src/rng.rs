use rand::{Rng, RngExt};

/// Samples one standard-normal-derived Gaussian via the Box–Muller
/// transform.
///
/// `rand_distr` is not among the vendored offline crates, and Box–Muller is
/// all the generators need.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    // Avoid ln(0): u1 ∈ (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_approximately_right() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(gaussian(&mut a, 0.0, 1.0), gaussian(&mut b, 0.0, 1.0));
        }
    }

    #[test]
    fn zero_std_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(gaussian(&mut rng, 5.0, 0.0), 5.0);
        }
    }
}
