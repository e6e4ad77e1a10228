use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use tsexplain_cube::ExplanationCube;
use tsexplain_diff::{DiffMetric, ScoreContext, TopExplEngine, TopExplStrategy};
use tsexplain_parallel::ParallelCtx;

use crate::cost::CostMatrix;
use crate::ndcg::ExplainedSegment;
use crate::scheme::Segmentation;
use crate::variance::{object_centroid_distance, object_pair_distance, VarianceMetric};

/// Below this many unit objects the object-top derivation runs inline —
/// spawn cost would dwarf the work. Deterministic in the input size, so
/// the parallel/sequential boundary never depends on scheduling.
const PAR_MIN_OBJECTS: usize = 32;

/// Below this many segments a pricing batch runs inline.
const PAR_MIN_SEGMENTS: usize = 16;

/// Wall-clock accumulators for the two segment-side pipeline stages the
/// paper's latency breakdown separates (Fig. 15): the Cascading Analysts
/// module (b) and the distance/variance/DP module (c).
///
/// A pricing region mixes both modules — each segment's centroid top-m
/// derivation is module (b), its distance scan module (c) — and its
/// workers' wall-clocks overlap, so the region's wall-clock is split
/// between the two stages in the ratio of the workers' summed centroid
/// time to their summed total time. Inline (one worker) that ratio is the
/// exact per-module attribution; at any thread count the split is
/// comparable.
///
/// The `par_*` fields record the portion of each stage spent inside
/// [`ParallelCtx`] regions that ran on more than one worker (also included
/// in the stage totals), so callers can report how much of a stage
/// actually ran across the worker set.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimers {
    /// Time spent deriving top-m explanations (module b).
    pub cascading: Duration,
    /// Time spent on distances, variances and the DP (module c).
    pub segmentation: Duration,
    /// Of `cascading`: wall-clock inside multi-worker regions.
    pub par_cascading: Duration,
    /// Of `segmentation`: wall-clock inside multi-worker regions.
    pub par_segmentation: Duration,
}

/// One segment priced by a pricing-region worker.
struct Priced {
    cost: f64,
    /// Top-m derivations the pricing performed.
    calls: u64,
    /// Wall-clock of the centroid derivation (module b).
    centroid: Duration,
    /// Wall-clock of the whole pricing.
    total: Duration,
}

/// Orchestrates segment explanation and cost computation: caches the unit
/// objects' top-explanation lists (§4.1.1 — the atomic units of
/// K-Segmentation), runs the configured top-m strategy per centroid
/// segment, and evaluates the `|P| · var(P)` DP costs under the chosen
/// [`VarianceMetric`].
pub struct SegmentationContext<'a> {
    engine: TopExplEngine<'a>,
    diff_metric: DiffMetric,
    metric: VarianceMetric,
    strategy: TopExplStrategy,
    parallel: ParallelCtx,
    object_tops: Option<Vec<ExplainedSegment>>,
    timers: StageTimers,
    /// Top-m derivations performed by the per-worker engines of
    /// [`ParallelCtx`] regions; [`SegmentationContext::ca_calls`] adds them
    /// to the main engine's counter so the total is thread-count-independent.
    extra_calls: u64,
    /// Segment-cost memo keyed by point-index pair `(a, b)` — one request
    /// repeatedly prices the same segments (the auto-K proposal sweep, the
    /// sketch band vs. the main DP, the final per-segment description),
    /// and costs are pure functions of the segment, so every repeat is a
    /// lookup instead of a fresh centroid derivation + distance scan.
    memo: HashMap<(usize, usize), f64>,
    memo_hits: u64,
    memo_misses: u64,
    /// Centroid derivations *avoided* by memo hits. Added back into
    /// [`SegmentationContext::ca_calls`] so that counter stays the
    /// memo-independent workload metric the serving layer reports (and the
    /// golden files pin); the derivations actually performed are
    /// [`SegmentationContext::ca_derivations`].
    hit_calls: u64,
}

impl<'a> SegmentationContext<'a> {
    /// Builds a context over `cube` with the process-default parallel
    /// context (override with [`SegmentationContext::with_parallel`]).
    pub fn new(
        cube: &'a ExplanationCube,
        diff_metric: DiffMetric,
        m: usize,
        strategy: TopExplStrategy,
        metric: VarianceMetric,
    ) -> Self {
        SegmentationContext {
            engine: TopExplEngine::new(cube, diff_metric, m, strategy),
            diff_metric,
            metric,
            strategy,
            parallel: ParallelCtx::from_env(),
            object_tops: None,
            timers: StageTimers::default(),
            extra_calls: 0,
            memo: HashMap::new(),
            memo_hits: 0,
            memo_misses: 0,
            hit_calls: 0,
        }
    }

    /// Sets the parallel execution context (builder style). Results are
    /// byte-identical at any thread count — the determinism contract of
    /// `tsexplain-parallel` — so this only changes how fast the costs are
    /// computed, never what they are.
    pub fn with_parallel(mut self, parallel: ParallelCtx) -> Self {
        self.parallel = parallel;
        self
    }

    /// The parallel execution context in use.
    pub fn parallel(&self) -> ParallelCtx {
        self.parallel.clone()
    }

    /// Polls the request's cancellation token (false when none is
    /// attached). Hot loops early-exit on it; the driver then discards
    /// every partial result and errors, so a poll never changes what a
    /// *successful* request returns.
    pub fn is_cancelled(&self) -> bool {
        self.parallel.is_cancelled()
    }

    /// Segment-cost lookups served from the memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Segment costs computed and inserted into the memo.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Records `n` memo hits, restoring the derivations the hits avoided
    /// into the logical `ca_calls` metric (centroid metrics derive one
    /// top-m list per computed segment cost; all-pair metrics derive none).
    fn record_hits(&mut self, n: u64) {
        self.memo_hits += n;
        if !self.metric.is_all_pair() {
            self.hit_calls += n;
        }
    }

    /// The underlying cube.
    pub fn cube(&self) -> &'a ExplanationCube {
        self.engine.cube()
    }

    /// Number of points `n` in the series.
    pub fn n_points(&self) -> usize {
        self.engine.cube().n_points()
    }

    /// The within-segment variance metric in use.
    pub fn variance_metric(&self) -> VarianceMetric {
        self.metric
    }

    /// The difference metric γ in use.
    pub fn diff_metric(&self) -> DiffMetric {
        self.diff_metric
    }

    /// Accumulated stage timings.
    pub fn timers(&self) -> StageTimers {
        self.timers
    }

    /// Number of top-m derivations the workload *requested* so far: the
    /// main engine's count, plus the per-worker engines of parallel
    /// regions, plus derivations served from the segment-cost memo. By
    /// construction this is independent of both the thread count and the
    /// memo — it is the deterministic workload-shape metric reported as
    /// `PipelineStats::ca_calls`. The derivations actually performed are
    /// [`SegmentationContext::ca_derivations`].
    pub fn ca_calls(&self) -> u64 {
        self.engine.calls() + self.extra_calls + self.hit_calls
    }

    /// Number of top-m derivations actually performed (excludes memo
    /// hits); `ca_calls − ca_derivations` is the work the memo saved.
    pub fn ca_derivations(&self) -> u64 {
        self.engine.calls() + self.extra_calls
    }

    /// Derives (and times) the top-m explanations of an arbitrary segment.
    pub fn explained(&mut self, seg: (usize, usize)) -> ExplainedSegment {
        let start = Instant::now(); // tsx-lint: allow(wall-clock, feeds StageTimers only; the latency block is golden-stripped)
        let top = self.engine.top_m(seg);
        self.timers.cascading += start.elapsed();
        ExplainedSegment::new(seg, top)
    }

    /// Books a region's wall-clock: `cascading` of it to module (b), the
    /// rest to module (c), and both to the `par_*` timers too when the
    /// region ran on more than one worker.
    fn book_region(&mut self, wall: Duration, cascading: Duration, fanned_out: bool) {
        let segmentation = wall.saturating_sub(cascading);
        self.timers.cascading += cascading;
        self.timers.segmentation += segmentation;
        if fanned_out {
            self.timers.par_cascading += cascading;
            self.timers.par_segmentation += segmentation;
        }
    }

    /// Ensures the unit-object top lists are cached. The per-object
    /// derivations are mutually independent, so they fan out over the
    /// parallel context (chunk-ordered, byte-identical at any thread
    /// count).
    fn ensure_objects(&mut self) {
        if self.object_tops.is_some() {
            return;
        }
        let count = self.n_points().saturating_sub(1);
        let fanned_out = self.parallel.chunk_ranges(count, PAR_MIN_OBJECTS).len() > 1;
        let start = Instant::now(); // tsx-lint: allow(wall-clock, feeds StageTimers only; the latency block is golden-stripped)
        let cube = self.engine.cube();
        let (diff, m, strategy) = (self.diff_metric, self.engine.m(), self.strategy);
        let parts = self.parallel.run_chunks(count, PAR_MIN_OBJECTS, |range| {
            let mut engine = TopExplEngine::new(cube, diff, m, strategy);
            let tops: Vec<ExplainedSegment> = range
                .map(|x| ExplainedSegment::new((x, x + 1), engine.top_m((x, x + 1))))
                .collect();
            vec![(tops, engine.calls())]
        });
        let mut tops = Vec::with_capacity(count);
        for (part, calls) in parts {
            tops.extend(part);
            self.extra_calls += calls;
        }
        let wall = start.elapsed();
        self.book_region(wall, wall, fanned_out);
        self.object_tops = Some(tops);
    }

    /// Prices `segs` — distinct multi-object segments the memo cannot
    /// answer — in one [`ParallelCtx`] region with one top-m engine per
    /// worker, then writes the costs, memo entries, derivation counts and
    /// stage time back in input order. Every cost comes from the same
    /// [`raw_segment_cost`] as [`SegmentationContext::segment_cost`], so
    /// the result is byte-identical at any thread count.
    ///
    /// Returns the costs in input order, or nothing once the request is
    /// cancelled — a cancelled region never writes to the memo.
    fn price_batch(&mut self, segs: &[(usize, usize)]) -> Vec<f64> {
        if segs.is_empty() {
            return Vec::new();
        }
        self.ensure_objects();
        let n = segs.len();
        let fanned_out = self.parallel.chunk_ranges(n, PAR_MIN_SEGMENTS).len() > 1;
        let start = Instant::now(); // tsx-lint: allow(wall-clock, feeds StageTimers only; the latency block is golden-stripped)
        let cube = self.engine.cube();
        let objects = self.object_tops.as_ref().expect("cached");
        let (diff, metric, m, strategy) = (
            self.diff_metric,
            self.metric,
            self.engine.m(),
            self.strategy,
        );
        let cancel = self.parallel.cancel_token().cloned();
        let priced: Vec<Priced> = self.parallel.run_chunks(n, PAR_MIN_SEGMENTS, |range| {
            let mut engine = TopExplEngine::new(cube, diff, m, strategy);
            let mut out = Vec::with_capacity(range.len());
            for &seg in &segs[range] {
                // Per-segment poll: workers stop pricing promptly, and the
                // truncated region is discarded below.
                if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                    break;
                }
                let seg_start = Instant::now(); // tsx-lint: allow(wall-clock, feeds StageTimers only; the latency block is golden-stripped)
                let before = engine.calls();
                let (cost, centroid) =
                    raw_segment_cost(cube, diff, metric, objects, &mut engine, seg);
                out.push(Priced {
                    cost,
                    calls: engine.calls() - before,
                    centroid,
                    total: seg_start.elapsed(),
                });
            }
            out
        });
        let wall = start.elapsed();
        if self.parallel.is_cancelled() {
            return Vec::new();
        }
        let (mut centroid, mut total) = (Duration::ZERO, Duration::ZERO);
        let mut costs = Vec::with_capacity(n);
        for (&seg, p) in segs.iter().zip(priced) {
            self.memo.insert(seg, p.cost);
            self.memo_misses += 1;
            self.extra_calls += p.calls;
            centroid += p.centroid;
            total += p.total;
            costs.push(p.cost);
        }
        let share = if total.is_zero() {
            0.0
        } else {
            (centroid.as_secs_f64() / total.as_secs_f64()).min(1.0)
        };
        self.book_region(wall, wall.mul_f64(share), fanned_out);
        costs
    }

    /// Computes the DP cost matrix over the candidate cut `positions`
    /// (sorted point indices, first = 0, last = n − 1).
    ///
    /// With `max_len_points = Some(L)`, only segments spanning at most `L`
    /// points are evaluated (the sketch-selection constraint, §5.3.2) and —
    /// when positions are all points — banded storage is used so memory is
    /// `O(n·L)` instead of `O(n²)`.
    pub fn compute_costs(
        &mut self,
        positions: &[usize],
        max_len_points: Option<usize>,
    ) -> CostMatrix {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(positions.first(), Some(&0));
        debug_assert_eq!(positions.last(), Some(&(self.n_points() - 1)));
        self.ensure_objects();

        let n_pos = positions.len();
        let dense_positions = n_pos == self.n_points();
        let mut matrix = match (max_len_points, dense_positions) {
            (Some(band), true) => CostMatrix::banded(n_pos, band),
            _ => CostMatrix::dense(n_pos),
        };

        // Unit spans cost zero and memo hits are lookups; every other cell
        // is a distinct segment for one pricing batch.
        let mut cells = Vec::new();
        let mut pending = Vec::new();
        for pi in 0..n_pos {
            for pj in pi + 1..n_pos {
                let seg = (positions[pi], positions[pj]);
                if max_len_points.is_some_and(|max_len| seg.1 - seg.0 > max_len) {
                    break; // spans only grow with pj
                }
                if seg.1 - seg.0 == 1 {
                    matrix.set(pi, pj, 0.0);
                } else if let Some(&cost) = self.memo.get(&seg) {
                    self.record_hits(1);
                    matrix.set(pi, pj, cost);
                } else {
                    cells.push((pi, pj));
                    pending.push(seg);
                }
            }
        }
        let costs = self.price_batch(&pending);
        for ((pi, pj), cost) in cells.into_iter().zip(costs) {
            matrix.set(pi, pj, cost);
        }
        matrix
    }

    /// The DP cost `|P| · var(P)` of one segment `(a, b)` (point indices)
    /// under the context's variance metric — the single-segment API, and
    /// the reference every batched pricing is tested against.
    ///
    /// For the centroid structure (Eq. 7) this is the *sum* of
    /// object↔centroid distances; for the all-pair structure (Eq. 10) it is
    /// `|P|` times the average over all ordered object pairs.
    pub fn segment_cost(&mut self, seg: (usize, usize)) -> f64 {
        let (a, b) = seg;
        debug_assert!(a < b);
        if b - a == 1 {
            return 0.0; // a single object is its own centroid
        }
        self.ensure_objects();
        // Cancellation poll: after the object tops (a trip inside their
        // region may leave them truncated) and before deriving or
        // touching the memo, so no placeholder cost and no counter bump
        // can ever leak out of a cancelled (and therefore erroring)
        // request.
        if self.parallel.is_cancelled() {
            return 0.0;
        }
        if let Some(&cost) = self.memo.get(&seg) {
            self.record_hits(1);
            return cost;
        }
        let start = Instant::now(); // tsx-lint: allow(wall-clock, feeds StageTimers only; the latency block is golden-stripped)
        let cube = self.engine.cube();
        let objects = self.object_tops.as_ref().expect("cached");
        let (cost, centroid_time) = raw_segment_cost(
            cube,
            self.diff_metric,
            self.metric,
            objects,
            &mut self.engine,
            seg,
        );
        self.book_region(start.elapsed(), centroid_time, false);
        self.memo.insert(seg, cost);
        self.memo_misses += 1;
        cost
    }

    /// The paper's objective (Problem 1): `Σ_i |P_i| · var(P_i)` of a
    /// scheme. This is what Table 7 reports as the segmentation quality.
    pub fn objective(&mut self, scheme: &Segmentation) -> f64 {
        scheme
            .segments()
            .into_iter()
            .map(|seg| self.segment_cost(seg))
            .sum()
    }

    /// Scores many schemes at once — the auto-K candidate sweep of the
    /// shape-strategy driver. The returned vector is in input order and
    /// byte-identical to scoring each scheme with
    /// [`SegmentationContext::objective`].
    ///
    /// Each *unique* segment across the batch is priced exactly once —
    /// nested auto-K proposals share most of their segments — in one
    /// pricing batch. Per-scheme sums then read the memo in input order,
    /// so the summation order (and hence every f64 bit) matches
    /// [`SegmentationContext::objective`].
    pub fn objective_batch(&mut self, schemes: &[Segmentation]) -> Vec<f64> {
        // The unique segments the memo cannot answer yet, in first-seen
        // order (deterministic fan-out chunking).
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut pending_set: HashSet<(usize, usize)> = HashSet::new();
        for scheme in schemes {
            for seg in scheme.segments() {
                if seg.1 - seg.0 > 1 && !self.memo.contains_key(&seg) && pending_set.insert(seg) {
                    pending.push(seg);
                }
            }
        }
        // Inserts every pending cost into the memo and counts the misses.
        let _ = self.price_batch(&pending);
        // A cancelled sweep priced nothing into the memo: the read-back
        // below would miss entries, so discard the batch — the segmenter
        // surfaces the cancellation as a typed error.
        if self.parallel.is_cancelled() {
            return Vec::new();
        }
        // Each scheme's sum folds its segment costs in segment order —
        // the same fold `objective` performs. The first occurrence of a
        // segment priced above was already charged as a miss; every other
        // occurrence is a memo hit.
        let mut charged = pending_set;
        let mut out = Vec::with_capacity(schemes.len());
        for scheme in schemes {
            let mut sum = 0.0;
            for seg in scheme.segments() {
                let cost = if seg.1 - seg.0 == 1 {
                    0.0
                } else {
                    let cost = self.memo[&seg];
                    if !charged.remove(&seg) {
                        self.record_hits(1);
                    }
                    cost
                };
                sum += cost;
            }
            out.push(sum);
        }
        out
    }
}

/// The DP cost `|P| · var(P)` of one segment under `metric` — the one
/// implementation [`SegmentationContext::segment_cost`] and every pricing
/// worker share, so batched costs cannot drift from scalar ones. Returns
/// the cost plus the wall-clock spent deriving the centroid's top-m list
/// (module-b work, which the stage timers attribute to cascading).
///
/// For the centroid structure (Eq. 7) this is the *sum* of
/// object↔centroid distances (the centroid's top-m list is derived on
/// `engine`); for the all-pair structure (Eq. 10) it is `|P|` times the
/// average over all ordered object pairs.
fn raw_segment_cost(
    cube: &ExplanationCube,
    diff_metric: DiffMetric,
    metric: VarianceMetric,
    objects: &[ExplainedSegment],
    engine: &mut TopExplEngine<'_>,
    seg: (usize, usize),
) -> (f64, Duration) {
    let (a, b) = seg;
    let len = b - a;
    if len == 1 {
        return (0.0, Duration::default()); // a single object is its own centroid
    }
    let ctx = ScoreContext::new(cube, diff_metric);
    if metric.is_all_pair() {
        let mut sum = 0.0;
        for x in a..b {
            for y in x + 1..b {
                sum += object_pair_distance(&ctx, &objects[x], &objects[y], metric);
            }
        }
        // AVG over the l² ordered pairs (diagonal is 0, symmetric pairs
        // counted twice), scaled by |P| = l.
        let l = len as f64;
        (l * (2.0 * sum / (l * l)), Duration::default())
    } else {
        let centroid_start = Instant::now(); // tsx-lint: allow(wall-clock, feeds StageTimers only; the latency block is golden-stripped)
        let centroid = ExplainedSegment::new(seg, engine.top_m(seg));
        let centroid_time = centroid_start.elapsed();
        let mut cost = 0.0;
        #[allow(clippy::needless_range_loop)] // point indices, not iteration
        for x in a..b {
            cost += object_centroid_distance(&ctx, &objects[x], &centroid, metric);
        }
        (cost, centroid_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::CubeConfig;
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Two clean phases: NY drives objects 0..3, CA drives objects 3..6.
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let ny = [0.0, 10.0, 20.0, 30.0, 30.0, 30.0, 30.0];
        let ca = [5.0, 5.0, 5.0, 5.0, 25.0, 45.0, 65.0];
        let mut b = Relation::builder(schema);
        for (t, (&vny, &vca)) in ny.iter().zip(ca.iter()).enumerate() {
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("NY"),
                Datum::from(vny),
            ])
            .unwrap();
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("CA"),
                Datum::from(vca),
            ])
            .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    fn context(cube: &ExplanationCube, metric: VarianceMetric) -> SegmentationContext<'_> {
        SegmentationContext::new(
            cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            metric,
        )
    }

    #[test]
    fn unit_segments_cost_zero() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        for x in 0..cube.n_points() - 1 {
            assert_eq!(ctx.segment_cost((x, x + 1)), 0.0);
        }
    }

    #[test]
    fn coherent_segment_cheaper_than_mixed() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let coherent = ctx.segment_cost((0, 3));
        let mixed = ctx.segment_cost((1, 5));
        assert!(
            coherent < mixed,
            "coherent {coherent} should be < mixed {mixed}"
        );
    }

    #[test]
    fn objective_prefers_true_split() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let good = Segmentation::new(7, vec![3]).unwrap();
        let bad = Segmentation::new(7, vec![1]).unwrap();
        assert!(ctx.objective(&good) < ctx.objective(&bad));
    }

    #[test]
    fn cost_matrix_matches_individual_costs() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions: Vec<usize> = (0..7).collect();
        let m = ctx.compute_costs(&positions, None);
        for a in 0..7 {
            for b in a + 1..7 {
                assert!((m.get(a, b) - ctx.segment_cost((a, b))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn banded_costs_skip_long_segments() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions: Vec<usize> = (0..7).collect();
        let m = ctx.compute_costs(&positions, Some(2));
        assert_eq!(m.band(), Some(2));
        assert!(m.get(0, 2).is_finite());
        assert!(m.get(0, 3).is_infinite());
    }

    #[test]
    fn sparse_positions_dense_matrix() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions = vec![0, 3, 6];
        let m = ctx.compute_costs(&positions, None);
        assert_eq!(m.n_pos(), 3);
        assert!(m.get(0, 1).is_finite());
        assert!((m.get(0, 2) - ctx.segment_cost((0, 6))).abs() < 1e-12);
    }

    #[test]
    fn allpair_cost_is_finite_and_nonnegative() {
        let cube = cube();
        for metric in [VarianceMetric::AllPair, VarianceMetric::SAllPair] {
            let mut ctx = context(&cube, metric);
            for seg in [(0usize, 2usize), (0, 6), (2, 5)] {
                let c = ctx.segment_cost(seg);
                assert!(c.is_finite() && c >= 0.0, "{metric}: {c}");
            }
        }
    }

    #[test]
    fn timers_accumulate() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let _ = ctx.segment_cost((0, 6));
        assert!(ctx.ca_calls() > 0);
    }

    /// A wider fixture: two states whose growth hands over at the
    /// midpoint, over `n` points — sized by the tests to sit below, at and
    /// above each inline threshold.
    fn wide_cube_n(n: i64) -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let half = n / 2;
        let mut b = Relation::builder(schema);
        for t in 0..n {
            let ny = if t < half {
                3.0 * t as f64
            } else {
                3.0 * half as f64
            };
            let ca = if t < half {
                4.0
            } else {
                4.0 + 5.0 * (t - half) as f64
            };
            for (s, v) in [("NY", ny), ("CA", ca)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)])
                    .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    /// The 40-point fixture, above every inline threshold.
    fn wide_cube() -> ExplanationCube {
        wide_cube_n(40)
    }

    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// `(points, band)` cost-matrix shapes around the inline thresholds:
    /// with band 2 the batch prices `points − 2` segments (15/16/17 around
    /// `PAR_MIN_SEGMENTS`); 32/33/34 points put 31/32/33 unit objects
    /// around `PAR_MIN_OBJECTS`.
    const MATRIX_SHAPES: [(i64, Option<usize>); 7] = [
        (17, Some(2)),
        (18, Some(2)),
        (19, Some(2)),
        (32, None),
        (33, None),
        (34, None),
        (40, None),
    ];

    #[test]
    fn parallel_costs_and_calls_match_sequential_exactly() {
        for (n, band) in MATRIX_SHAPES {
            let cube = wide_cube_n(n);
            let positions: Vec<usize> = (0..cube.n_points()).collect();
            for metric in [VarianceMetric::Tse, VarianceMetric::AllPair] {
                // The reference: a fresh context's scalar pricing, cell by
                // cell (cells outside the band stay infinite).
                let mut scalar = context(&cube, metric);
                let mut reference = CostMatrix::dense(positions.len());
                for a in 0..positions.len() {
                    for b in a + 1..positions.len() {
                        if band.is_none_or(|l| b - a <= l) {
                            reference.set(a, b, scalar.segment_cost((a, b)));
                        }
                    }
                }
                for threads in THREADS {
                    let mut par = context(&cube, metric).with_parallel(ParallelCtx::new(threads));
                    let got = par.compute_costs(&positions, band);
                    for a in 0..positions.len() {
                        for b in a + 1..positions.len() {
                            let (r, g) = (reference.get(a, b), got.get(a, b));
                            assert_eq!(
                                r.to_bits(),
                                g.to_bits(),
                                "{metric} n={n} t={threads} cell ({a},{b}): {r} vs {g}"
                            );
                        }
                    }
                    assert_eq!(
                        par.ca_calls(),
                        scalar.ca_calls(),
                        "{metric} n={n} t={threads}"
                    );
                }
            }
        }
    }

    /// One-cut schemes at cuts 2, 3, … (two multi-object segments each)
    /// plus, for odd `p`, the whole series: `p` distinct segments in all.
    fn schemes_with_segments(n: usize, p: usize) -> Vec<Segmentation> {
        let mut schemes: Vec<Segmentation> = (2..2 + p / 2)
            .map(|c| Segmentation::new(n, vec![c]).unwrap())
            .collect();
        if p % 2 == 1 {
            schemes.push(Segmentation::new(n, Vec::new()).unwrap());
        }
        schemes
    }

    /// Scheme batches around the inline thresholds: 15/16/17 distinct
    /// segments around `PAR_MIN_SEGMENTS`, then 31/32/33 unit objects
    /// around `PAR_MIN_OBJECTS`, then the 40-point nested sweep.
    fn scheme_batches() -> Vec<(ExplanationCube, Vec<Segmentation>)> {
        let mut batches = Vec::new();
        for p in [15, 16, 17] {
            let cube = wide_cube();
            let schemes = schemes_with_segments(cube.n_points(), p);
            batches.push((cube, schemes));
        }
        for n in [32, 33, 34, 40] {
            let cube = wide_cube_n(n);
            let schemes = nested_schemes(cube.n_points(), 8);
            batches.push((cube, schemes));
        }
        batches
    }

    #[test]
    fn parallel_objective_batch_matches_sequential() {
        for (cube, schemes) in scheme_batches() {
            let n = cube.n_points();
            let mut scalar = context(&cube, VarianceMetric::Tse);
            let reference: Vec<f64> = schemes.iter().map(|s| scalar.objective(s)).collect();
            for threads in THREADS {
                let mut par =
                    context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
                let got = par.objective_batch(&schemes);
                assert_eq!(got.len(), reference.len());
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(g.to_bits(), r.to_bits(), "n={n} t={threads}");
                }
                assert_eq!(par.ca_calls(), scalar.ca_calls(), "n={n} t={threads}");
            }
        }
    }

    /// Nested auto-K-style proposals: k−1 evenly spread cuts for every k,
    /// so many segments recur across the sweep — the memo's target shape.
    fn nested_schemes(n: usize, max_k: usize) -> Vec<Segmentation> {
        (1..=max_k)
            .map(|k| {
                let cuts: Vec<usize> = (1..k)
                    .map(|i| (i * n / k).clamp(1, n - 2))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                Segmentation::new(n, cuts).unwrap()
            })
            .collect()
    }

    #[test]
    fn memo_is_invisible_in_costs_but_cuts_derivations() {
        let cube = wide_cube();
        let n = cube.n_points();
        let schemes = nested_schemes(n, 8);
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let costs = ctx.objective_batch(&schemes);
        // Bit-identical to pricing each scheme from scratch...
        for (scheme, cost) in schemes.iter().zip(&costs) {
            let fresh = context(&cube, VarianceMetric::Tse).objective(scheme);
            assert_eq!(cost.to_bits(), fresh.to_bits());
        }
        // ...with the logical workload of unmemoized pricing: one
        // derivation per unit object and one per segment occurrence...
        let occurrences = schemes
            .iter()
            .flat_map(Segmentation::segments)
            .filter(|seg| seg.1 - seg.0 > 1)
            .count() as u64;
        assert_eq!(ctx.ca_calls(), (n - 1) as u64 + occurrences);
        // ...while strictly fewer derivations were actually performed.
        assert!(ctx.memo_hits() > 0);
        assert_eq!(ctx.ca_calls() - ctx.ca_derivations(), ctx.memo_hits());
        // Re-pricing a segment from the sweep is a pure hit.
        let before = ctx.ca_derivations();
        let seg = schemes[1].segments()[0];
        let direct = ctx.segment_cost(seg);
        assert_eq!(direct.to_bits(), ctx.memo[&seg].to_bits());
        assert_eq!(ctx.ca_derivations(), before);
    }

    #[test]
    fn memo_counters_are_thread_count_independent() {
        for (cube, schemes) in scheme_batches() {
            let n = cube.n_points();
            let mut scalar = context(&cube, VarianceMetric::Tse);
            let reference: Vec<f64> = schemes.iter().map(|s| scalar.objective(s)).collect();
            let mut counters = None;
            for threads in THREADS {
                let mut par =
                    context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
                let got = par.objective_batch(&schemes);
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} t={threads}");
                }
                let seen = (
                    par.ca_calls(),
                    par.ca_derivations(),
                    par.memo_hits(),
                    par.memo_misses(),
                );
                assert_eq!(*counters.get_or_insert(seen), seen, "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn cost_matrix_populates_the_memo_for_later_pricing() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions: Vec<usize> = (0..7).collect();
        let _ = ctx.compute_costs(&positions, None);
        let misses = ctx.memo_misses();
        assert!(misses > 0);
        let derivations = ctx.ca_derivations();
        // Every multi-object span is now priced; re-asking costs nothing.
        let _ = ctx.segment_cost((0, 6));
        let _ = ctx.segment_cost((2, 5));
        assert_eq!(ctx.ca_derivations(), derivations);
        assert_eq!(ctx.memo_misses(), misses);
        assert_eq!(ctx.memo_hits(), 2);
    }

    #[test]
    fn parallel_timers_record_fanout_regions() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        let mut ctx = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(4));
        let _ = ctx.compute_costs(&positions, None);
        let timers = ctx.timers();
        assert!(timers.par_segmentation <= timers.segmentation);
        assert!(timers.par_segmentation.as_nanos() > 0);
        assert!(timers.par_cascading <= timers.cascading);
        // Inline regions book nothing to the multi-worker timers.
        let mut seq = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::sequential());
        let _ = seq.compute_costs(&positions, None);
        assert_eq!(seq.timers().par_cascading, Duration::ZERO);
        assert_eq!(seq.timers().par_segmentation, Duration::ZERO);
    }

    #[test]
    fn parallel_cost_matrix_books_centroid_time_to_cascading() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        let mut ctx = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(2));
        ctx.ensure_objects();
        let after_objects = ctx.timers().cascading;
        let _ = ctx.compute_costs(&positions, None);
        // Every cell derives its centroid's top-m list: module (b) work
        // even inside a multi-worker region.
        assert!(ctx.timers().cascading > after_objects);
    }
}
