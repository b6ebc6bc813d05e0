//! Typed metric names and the fixed-bucket histogram layout.

/// Every counter the workspace records, as a closed enum so trace
/// consumers can rely on the name set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Discrete events processed by `dessim::Engine::step`.
    KernelEvents,
    /// Predicted-completion heap pushes beyond each activity's first
    /// (rate changes and phase transitions re-insert stale entries).
    KernelHeapReinserts,
    /// Incremental max-min re-solves: one per touched link component
    /// or disk re-share in `dessim`'s sharing workspace.
    KernelSharingResolves,
    /// Total links included in committed frontier re-solves; together
    /// with `KernelSharingResolves` this gives the mean frontier size.
    KernelFrontierLinks,
    /// Work inside `dessim`'s link re-solves: links scanned for a
    /// bottleneck plus flow-list entries walked when freezing.
    KernelSolverVisits,
    /// Peak bytes allocated to `dessim`'s shared route arena.
    KernelArenaBytes,
    /// Evaluator memoization hits (loss served without simulating).
    EvalCacheHits,
    /// Evaluator memoization misses (full simulation performed).
    EvalCacheMisses,
    /// Objective invocations that panicked and were isolated/quarantined
    /// by the evaluator instead of aborting the calibration.
    EvalPanics,
    /// Objective invocations that returned a non-finite loss and were
    /// quarantined.
    EvalNonfinite,
    /// Times a pool thread slept because the queue was empty.
    PoolParks,
    /// Transient I/O errors on an append-only log (lodsel ledger, loss
    /// cache, calibd job log) that were retried (with backoff) before
    /// succeeding or giving up.
    LedgerRetries,
    /// Evaluations replayed from the persistent on-disk loss cache
    /// (budget consumed, simulation skipped).
    DiskCacheHits,
    /// Evaluations that consulted the on-disk loss cache and missed
    /// (full simulation performed; only counted when a cache is active).
    DiskCacheMisses,
    /// Ledger shards reduced into a merged sweep ledger
    /// (one per shard per merge).
    ShardMerges,
    /// Jobs accepted by the calibd daemon (admission passed).
    JobsAccepted,
    /// Jobs enqueued behind the daemon's fair scheduler (decremented
    /// implicitly: queued = accepted − active − finished).
    JobsQueued,
    /// Jobs promoted from the queue to active execution.
    JobsActive,
    /// Cholesky rows the Gaussian-process surrogate factored during
    /// fits, summed over its length scales.
    GpRowsFactored,
    /// Cholesky rows a Gaussian-process fit kept from the previous fit
    /// (same leading training points), summed over its length scales.
    GpRowsReused,
}

impl Counter {
    /// All counters, in trace-emission order.
    pub const ALL: [Counter; 20] = [
        Counter::KernelEvents,
        Counter::KernelHeapReinserts,
        Counter::KernelSharingResolves,
        Counter::KernelFrontierLinks,
        Counter::KernelSolverVisits,
        Counter::KernelArenaBytes,
        Counter::EvalCacheHits,
        Counter::EvalCacheMisses,
        Counter::EvalPanics,
        Counter::EvalNonfinite,
        Counter::PoolParks,
        Counter::LedgerRetries,
        Counter::DiskCacheHits,
        Counter::DiskCacheMisses,
        Counter::ShardMerges,
        Counter::JobsAccepted,
        Counter::JobsQueued,
        Counter::JobsActive,
        Counter::GpRowsFactored,
        Counter::GpRowsReused,
    ];

    /// Stable snake_case name used in the JSONL trace.
    pub fn name(self) -> &'static str {
        match self {
            Counter::KernelEvents => "kernel_events",
            Counter::KernelHeapReinserts => "kernel_heap_reinserts",
            Counter::KernelSharingResolves => "kernel_sharing_resolves",
            Counter::KernelFrontierLinks => "kernel_frontier_links",
            Counter::KernelSolverVisits => "kernel_solver_visits",
            Counter::KernelArenaBytes => "kernel_arena_bytes",
            Counter::EvalCacheHits => "eval_cache_hits",
            Counter::EvalCacheMisses => "eval_cache_misses",
            Counter::EvalPanics => "eval_panics",
            Counter::EvalNonfinite => "eval_nonfinite",
            Counter::PoolParks => "pool_parks",
            Counter::LedgerRetries => "ledger_retries",
            Counter::DiskCacheHits => "disk_cache_hits",
            Counter::DiskCacheMisses => "disk_cache_misses",
            Counter::ShardMerges => "shard_merges",
            Counter::JobsAccepted => "calibd_jobs_accepted",
            Counter::JobsQueued => "calibd_jobs_queued",
            Counter::JobsActive => "calibd_jobs_active",
            Counter::GpRowsFactored => "gp_rows_factored",
            Counter::GpRowsReused => "gp_rows_reused",
        }
    }

    /// Index into per-recorder counter storage.
    pub(crate) fn index(self) -> usize {
        Counter::ALL.iter().position(|&c| c == self).unwrap()
    }
}

/// Every histogram the workspace records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Wall-clock seconds per objective evaluation (one calibration
    /// point simulated across all its scenarios).
    EvalLatency,
    /// Wall-clock seconds per surrogate fit (one per Bayesian-
    /// optimization iteration).
    SurrogateFit,
    /// Wall-clock seconds per acquisition step of a Bayesian-
    /// optimization iteration: candidate generation, surrogate
    /// predictions, and ranking.
    Acquisition,
}

impl Hist {
    /// All histograms, in trace-emission order.
    pub const ALL: [Hist; 3] = [Hist::EvalLatency, Hist::SurrogateFit, Hist::Acquisition];

    /// Stable snake_case name used in the JSONL trace.
    pub fn name(self) -> &'static str {
        match self {
            Hist::EvalLatency => "eval_latency_secs",
            Hist::SurrogateFit => "surrogate_fit_secs",
            Hist::Acquisition => "acquisition_secs",
        }
    }

    /// Index into per-recorder histogram storage.
    pub(crate) fn index(self) -> usize {
        Hist::ALL.iter().position(|&h| h == self).unwrap()
    }
}

/// Number of finite histogram buckets. Bucket `i` counts observations
/// in `(bound(i-1), bound(i)]` seconds where `bound(i) = 1 µs · 2^i`,
/// so the finite range spans 1 µs to ~537 s; one extra overflow
/// bucket counts everything larger.
pub const BUCKET_COUNT: usize = 30;

/// Upper bound (inclusive, in seconds) of finite bucket `i`.
pub fn bucket_bound(i: usize) -> f64 {
    debug_assert!(i < BUCKET_COUNT);
    1e-6 * (1u64 << i) as f64
}

/// Index of the bucket an observation of `seconds` falls into
/// (`BUCKET_COUNT` = the overflow bucket).
pub(crate) fn bucket_index(seconds: f64) -> usize {
    // NaN and negative observations land in the first bucket rather
    // than poisoning the histogram.
    (0..BUCKET_COUNT)
        .find(|&i| seconds <= bucket_bound(i))
        .unwrap_or(if seconds.is_nan() { 0 } else { BUCKET_COUNT })
}

/// Point-in-time copy of one histogram, read back from a
/// [`crate::TraceRecorder`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; `counts[BUCKET_COUNT]` is the
    /// overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values, in seconds.
    pub sum_secs: f64,
}

impl HistogramSnapshot {
    /// Observations in finite buckets whose upper bound is at most
    /// `seconds` — a coarse CDF read-back for tests and reports.
    pub fn count_at_or_below(&self, seconds: f64) -> u64 {
        (0..BUCKET_COUNT)
            .filter(|&i| bucket_bound(i) <= seconds)
            .map(|i| self.counts[i])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_log_spaced_from_one_microsecond() {
        assert_eq!(bucket_bound(0), 1e-6);
        for i in 1..BUCKET_COUNT {
            assert!((bucket_bound(i) / bucket_bound(i - 1) - 2.0).abs() < 1e-12);
        }
        // The finite range covers roughly nine decades: 1 µs .. ~537 s.
        assert!(bucket_bound(BUCKET_COUNT - 1) > 500.0);
    }

    #[test]
    fn boundary_observations_land_in_the_lower_bucket() {
        // Upper bounds are inclusive: exactly 1 µs is bucket 0,
        // the next representable value above it is bucket 1.
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(1e-6_f64.next_up()), 1);
        assert_eq!(bucket_index(2e-6), 1);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
    }

    #[test]
    fn oversized_observations_overflow() {
        assert_eq!(
            bucket_index(bucket_bound(BUCKET_COUNT - 1)),
            BUCKET_COUNT - 1
        );
        assert_eq!(bucket_index(1e9), BUCKET_COUNT);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT);
    }

    #[test]
    fn counter_and_hist_names_are_unique_and_indexed() {
        let names: std::collections::HashSet<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::ALL.len());
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }
}
