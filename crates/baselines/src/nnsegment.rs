use crate::common::{select_extrema, znormalized_distance};

/// NNSegment (LimeSegment (paper ref. 42)), approximated from its stated
/// goal: to "divide a time series into internally consistent
/// subsequences" using nearest-neighbour window
/// statistics. We score every candidate split by the z-normalized
/// Euclidean distance between its two adjacent windows of length `w`,
/// then greedily take the `k − 1` highest-scoring positions with a `w`
/// exclusion zone.
///
/// This preserves what the paper's comparison relies on: a shape-driven,
/// window-parameterized, explanation-agnostic changepoint detector.
pub fn nnsegment(series: &[f64], k: usize, w: usize) -> Vec<usize> {
    let n = series.len();
    assert!(k >= 1);
    assert!(w >= 2, "window must have at least 2 points");
    if k == 1 || n < 2 * w + 1 {
        return Vec::new();
    }
    nnsegment_cuts_from_scores(&nnsegment_scores(series, w), k, w)
}

/// The precompute half of NNSegment: the adjacent-window dissimilarity
/// `score[i]` for every split position `i ∈ [w, n − w]` (other positions
/// are `-inf`). Requires `n ≥ 2w + 1`. Shared by [`nnsegment`] and the
/// auto-K `NnSegmentSegmenter` adapter, which reuses one score vector
/// across every `k`.
pub(crate) fn nnsegment_scores(series: &[f64], w: usize) -> Vec<f64> {
    let n = series.len();
    let mut scores = vec![f64::NEG_INFINITY; n];
    for i in w..=n - w {
        scores[i] = znormalized_distance(&series[i - w..i], &series[i..i + w]);
    }
    scores
}

/// The per-`k` half of NNSegment: greedily takes the `k − 1`
/// highest-scoring interior positions with a `w` exclusion zone.
pub(crate) fn nnsegment_cuts_from_scores(scores: &[f64], k: usize, w: usize) -> Vec<usize> {
    let n = scores.len();
    if k <= 1 {
        return Vec::new();
    }
    let mut cuts = select_extrema(scores, k - 1, w, true);
    cuts.retain(|&c| c > 0 && c < n - 1);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_shape_change() {
        // Rising then falling ramp: the adjacent windows differ most at
        // the peak.
        let mut series: Vec<f64> = (0..30).map(|t| t as f64).collect();
        series.extend((0..30).map(|t| 30.0 - t as f64));
        let cuts = nnsegment(&series, 2, 8);
        assert_eq!(cuts.len(), 1);
        assert!(
            (26..=34).contains(&cuts[0]),
            "cut at {} should be near 30",
            cuts[0]
        );
    }

    #[test]
    fn respects_exclusion_zone() {
        let mut series: Vec<f64> = (0..20).map(|t| t as f64).collect();
        series.extend((0..20).map(|t| 20.0 - t as f64));
        series.extend((0..20).map(|t| t as f64));
        let cuts = nnsegment(&series, 3, 6);
        assert_eq!(cuts.len(), 2);
        assert!(cuts[1] - cuts[0] >= 6);
    }

    #[test]
    fn k_one_and_short_series() {
        let series = vec![1.0; 50];
        assert!(nnsegment(&series, 1, 10).is_empty());
        assert!(nnsegment(&series[..15], 3, 10).is_empty());
    }

    #[test]
    fn flat_series_yields_some_valid_cuts() {
        // No shape change anywhere: scores are all zero, but the output
        // must still be valid interior positions.
        let series = vec![2.0; 60];
        let cuts = nnsegment(&series, 3, 10);
        assert!(cuts.iter().all(|&c| c > 0 && c < 59));
        assert!(cuts.len() <= 2);
    }
}
