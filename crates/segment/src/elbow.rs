/// Picks the elbow of a K-Variance curve (paper §6).
///
/// The curve `[(k, total_variance)]` decreases as K grows; the useful K is
/// where the marginal improvement collapses. Following the Kneedle method
/// the paper cites (its ref.\ 40), both axes are normalized to `[0, 1]` and the
/// point with the maximum distance below the descending diagonal is
/// chosen: `K* = argmax_k [(1 − x_k) − y_k]`.
///
/// (The paper prints the formula as `argmax[total_var(K) − K]`, which for
/// a decreasing normalized curve is always K = 1; we implement the cited
/// Kneedle semantics.)
///
/// Degenerate cases: a single-point curve returns its K; an all-equal
/// curve returns the smallest K (no structure ⇒ simplest explanation).
pub fn elbow_k(curve: &[(usize, f64)]) -> usize {
    assert!(!curve.is_empty(), "empty K-Variance curve");
    if curve.len() == 1 {
        return curve[0].0;
    }
    let (k_min, k_max) = (curve[0].0 as f64, curve[curve.len() - 1].0 as f64);
    let v_max = curve.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
    let v_min = curve.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
    if (v_max - v_min).abs() <= 1e-12 || (k_max - k_min).abs() <= 1e-12 {
        return curve[0].0;
    }
    let mut best = (curve[0].0, f64::MIN);
    for &(k, v) in curve {
        let x = (k as f64 - k_min) / (k_max - k_min);
        let y = (v - v_min) / (v_max - v_min);
        let score = (1.0 - x) - y;
        if score > best.1 {
            best = (k, score);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_knee_of_a_convex_curve() {
        // Sharp drop until K=4, flat afterwards.
        let curve: Vec<(usize, f64)> = (1..=10)
            .map(|k| {
                let v = if k <= 4 {
                    100.0 - 24.0 * k as f64
                } else {
                    4.0 - 0.2 * k as f64
                };
                (k, v.max(0.0))
            })
            .collect();
        assert_eq!(elbow_k(&curve), 4);
    }

    #[test]
    fn linear_curve_has_no_preference_beyond_ends() {
        // A perfectly linear decrease scores 0 everywhere; the first K wins
        // deterministically.
        let curve: Vec<(usize, f64)> = (1..=5).map(|k| (k, 50.0 - 10.0 * k as f64)).collect();
        assert_eq!(elbow_k(&curve), 1);
    }

    #[test]
    fn single_point_curve() {
        assert_eq!(elbow_k(&[(1, 42.0)]), 1);
    }

    #[test]
    fn flat_curve_prefers_smallest_k() {
        let curve: Vec<(usize, f64)> = (1..=6).map(|k| (k, 7.0)).collect();
        assert_eq!(elbow_k(&curve), 1);
    }

    #[test]
    fn exponential_decay_knee_is_early() {
        let curve: Vec<(usize, f64)> = (1..=20)
            .map(|k| (k, 100.0 * 0.5f64.powi(k as i32 - 1)))
            .collect();
        let k = elbow_k(&curve);
        assert!((2..=5).contains(&k), "elbow at {k}");
    }
}
