use std::collections::HashSet;

use tsexplain_segment::{Segmentation, SegmentationContext};

/// Memoized `Σ |P_i| var(P_i)` objective evaluation.
///
/// The §4.2.2 study scores 10 000 sampled schemes per dataset per metric;
/// distinct segments number only `O(n²)`, so caching per-segment costs
/// turns the study from quadratic-in-samples to linear.
///
/// The caching lives in [`SegmentationContext`]'s own segment-cost memo
/// (every repeated segment is a lookup there); this wrapper only tracks
/// which distinct segments the *study* touched.
pub struct CachedObjective<'c, 'a> {
    ctx: &'c mut SegmentationContext<'a>,
    seen: HashSet<(usize, usize)>,
}

impl<'c, 'a> CachedObjective<'c, 'a> {
    /// Wraps a segmentation context, whose memo does the caching.
    pub fn new(ctx: &'c mut SegmentationContext<'a>) -> Self {
        CachedObjective {
            ctx,
            seen: HashSet::new(),
        }
    }

    /// The memoized cost of one segment.
    pub fn segment_cost(&mut self, seg: (usize, usize)) -> f64 {
        self.seen.insert(seg);
        self.ctx.segment_cost(seg)
    }

    /// The memoized objective of a whole scheme.
    pub fn objective(&mut self, scheme: &Segmentation) -> f64 {
        scheme
            .segments()
            .into_iter()
            .map(|seg| self.segment_cost(seg))
            .sum()
    }

    /// Number of distinct segments evaluated so far.
    pub fn distinct_segments(&self) -> usize {
        self.seen.len()
    }
}

/// The *ground truth rank* of §4.2.2: `1 +` the number of sampled schemes
/// whose objective is strictly lower than the ground truth's. Rank 1 means
/// no sampled scheme beats the ground truth — the behaviour a good
/// variance design must show on clean data.
pub fn ground_truth_rank(
    objective: &mut CachedObjective<'_, '_>,
    ground_truth: &Segmentation,
    samples: &[Segmentation],
) -> usize {
    let gt_score = objective.objective(ground_truth);
    let better = samples
        .iter()
        .filter(|s| objective.objective(s) < gt_score - 1e-12)
        .count();
    1 + better
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{DiffMetric, TopExplStrategy};
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};
    use tsexplain_segment::VarianceMetric;

    /// Two clean phases: x drives points 0..5, y drives 5..10.
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("c"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..10i64 {
            let x = if t <= 5 { 10.0 * t as f64 } else { 50.0 };
            let y = if t <= 5 {
                3.0
            } else {
                3.0 + 12.0 * (t - 5) as f64
            };
            for (c, v) in [("x", x), ("y", y)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(c), Datum::from(v)])
                    .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["c"]),
        )
        .unwrap()
    }

    #[test]
    fn memo_avoids_recomputation() {
        let cube = cube();
        let mut ctx = SegmentationContext::new(
            &cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        );
        let mut obj = CachedObjective::new(&mut ctx);
        let s1 = Segmentation::new(10, vec![5]).unwrap();
        let s2 = Segmentation::new(10, vec![5, 7]).unwrap();
        let a = obj.objective(&s1);
        let b = obj.objective(&s1);
        assert_eq!(a, b);
        let _ = obj.objective(&s2);
        // (0,5) shared between s1 and s2 is computed once.
        assert_eq!(obj.distinct_segments(), 4);
    }

    #[test]
    fn ground_truth_ranks_first_on_clean_data() {
        let cube = cube();
        let mut ctx = SegmentationContext::new(
            &cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        );
        let mut obj = CachedObjective::new(&mut ctx);
        let gt = Segmentation::new(10, vec![5]).unwrap();
        let samples: Vec<Segmentation> = (1..9)
            .map(|c| Segmentation::new(10, vec![c]).unwrap())
            .collect();
        let rank = ground_truth_rank(&mut obj, &gt, &samples);
        assert_eq!(rank, 1, "true cut must score best");
    }

    #[test]
    fn bad_scheme_ranks_behind_good_samples() {
        let cube = cube();
        let mut ctx = SegmentationContext::new(
            &cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        );
        let mut obj = CachedObjective::new(&mut ctx);
        let bad = Segmentation::new(10, vec![1]).unwrap();
        let samples = vec![Segmentation::new(10, vec![5]).unwrap()];
        let rank = ground_truth_rank(&mut obj, &bad, &samples);
        assert_eq!(rank, 2);
    }
}
