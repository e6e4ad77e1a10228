use std::time::Duration;

/// Per-stage intra-query parallelism instrumentation: how many worker
/// threads the request's [`tsexplain_parallel::ParallelCtx`] ran with and
/// how much of each stage's wall-clock was spent inside regions that ran
/// on more than one worker. Parallel and sequential execution are
/// byte-identical by contract, so these timings are pure observability —
/// they report where the speedup comes from, never affect what is
/// computed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelTimings {
    /// Worker threads of the request's parallel context (1 = sequential).
    pub threads: usize,
    /// Of `cascading`: wall-clock inside multi-worker regions (the
    /// unit-object top-m lists, and the centroid share of segment
    /// pricing).
    pub cascading: Duration,
    /// Of `segmentation`: wall-clock inside multi-worker regions (the
    /// distance share of segment pricing for cost matrices and auto-K
    /// scheme scoring).
    pub segmentation: Duration,
}

/// Segment-cost memo instrumentation: how the request's
/// [`tsexplain_segment::SegmentationContext`] cache performed. Like the
/// parallel timings, the memo never changes what is computed — reported
/// `ca_calls` stay the memo-independent workload metric — so these
/// counters are the observability channel for the work it saved:
/// `hits` is exactly the number of segment pricings (and, under a
/// centroid variance metric, top-m derivations) the memo avoided.
///
/// They live in the latency block rather than `PipelineStats` because the
/// stats block is pinned byte-for-byte by the golden acceptance files;
/// the latency block is the response's designated non-pinned
/// instrumentation area.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoCounters {
    /// Segment-cost lookups served from the memo.
    pub hits: u64,
    /// Segment costs computed and inserted.
    pub misses: u64,
}

/// Wall-clock breakdown of one `explain()` call into the paper's three
/// pipeline modules (Fig. 15): precomputation (a), Cascading Analysts (b)
/// and K-Segmentation (c), plus the parallel-execution share of (b)/(c)
/// and the segment-cost memo counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyBreakdown {
    /// Module (a): cube construction (group-bys, candidate enumeration,
    /// filtering, trie).
    pub precompute: Duration,
    /// Module (b): all top-m derivations.
    pub cascading: Duration,
    /// Module (c): distances, variances, DP and elbow selection.
    pub segmentation: Duration,
    /// Intra-query parallelism instrumentation.
    pub parallel: ParallelTimings,
    /// Segment-cost memo instrumentation.
    pub memo: MemoCounters,
}

impl LatencyBreakdown {
    /// End-to-end latency.
    pub fn total(&self) -> Duration {
        self.precompute + self.cascading + self.segmentation
    }

    /// Wall-clock spent inside parallel fan-out regions (a subset of
    /// [`LatencyBreakdown::total`]).
    pub fn parallel_total(&self) -> Duration {
        self.parallel.cascading + self.parallel.segmentation
    }
}

impl std::fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:?} (precompute {:?}, cascading {:?}, segmentation {:?})",
            self.total(),
            self.precompute,
            self.cascading,
            self.segmentation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_stages() {
        let l = LatencyBreakdown {
            precompute: Duration::from_millis(5),
            cascading: Duration::from_millis(10),
            segmentation: Duration::from_millis(2),
            parallel: ParallelTimings {
                threads: 4,
                cascading: Duration::from_millis(8),
                segmentation: Duration::from_millis(1),
            },
            memo: MemoCounters {
                hits: 12,
                misses: 3,
            },
        };
        assert_eq!(l.total(), Duration::from_millis(17));
        assert_eq!(l.parallel_total(), Duration::from_millis(9));
        assert_eq!(l.memo.hits, 12);
        let s = l.to_string();
        assert!(s.contains("precompute"));
    }
}
