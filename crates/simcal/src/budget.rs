//! Calibration budgets and the budget-enforcing evaluator.
//!
//! The paper fixes a calibration *time budget* so that different
//! loss/algorithm combinations can be compared fairly (§3, §5.3.3, §6.3.3).
//! For reproducibility on arbitrary hardware this crate also supports an
//! *evaluation-count* budget: results under `Budget::Evaluations` are
//! bit-for-bit reproducible regardless of host speed, which is what the
//! workspace's tests and experiment binaries use by default.

use crate::cache::{self, CachedOutcome, DiskCache};
use crate::fault::{self, EvalFailure, FaultKind, FaultPlan};
use crate::objective::Objective;
use crate::param::Calibration;
use rayon::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// A bound on the calibration effort.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Stop after this many loss evaluations (deterministic).
    Evaluations(usize),
    /// Stop once this much wall-clock time has elapsed.
    WallClock(Duration),
}

impl Budget {
    /// The evaluation bound, if any.
    pub fn max_evaluations(&self) -> Option<usize> {
        match self {
            Budget::Evaluations(n) => Some(*n),
            Budget::WallClock(_) => None,
        }
    }

    /// The wall-clock bound, if any.
    pub fn max_elapsed(&self) -> Option<Duration> {
        match self {
            Budget::WallClock(d) => Some(*d),
            Budget::Evaluations(_) => None,
        }
    }
}

// Serde: hand-written because the workspace's derive stand-in only handles
// unit and struct enum variants, and `Budget` uses tuple variants. Durations
// serialize as exact `{secs, nanos}` integer pairs so budgets round-trip
// bit-for-bit through checkpoint records.

fn duration_to_value(d: &Duration) -> Value {
    Value::Object(vec![
        ("secs".to_string(), d.as_secs().to_value()),
        ("nanos".to_string(), d.subsec_nanos().to_value()),
    ])
}

fn duration_from_value(value: &Value) -> Result<Duration, DeError> {
    let secs = u64::from_value(value.get("secs").unwrap_or(&Value::Null))
        .map_err(|e| DeError(format!("duration field `secs`: {e}")))?;
    let nanos = u32::from_value(value.get("nanos").unwrap_or(&Value::Null))
        .map_err(|e| DeError(format!("duration field `nanos`: {e}")))?;
    Ok(Duration::new(secs, nanos))
}

impl Serialize for Budget {
    fn to_value(&self) -> Value {
        match self {
            Budget::Evaluations(n) => {
                Value::Object(vec![("Evaluations".to_string(), n.to_value())])
            }
            Budget::WallClock(d) => {
                Value::Object(vec![("WallClock".to_string(), duration_to_value(d))])
            }
        }
    }
}

impl Deserialize for Budget {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let Value::Object(fields) = value else {
            return Err(DeError::expected("single-key Budget object", value));
        };
        let [(tag, inner)] = fields.as_slice() else {
            return Err(DeError::expected("single-key Budget object", value));
        };
        match tag.as_str() {
            "Evaluations" => usize::from_value(inner).map(Budget::Evaluations),
            "WallClock" => duration_from_value(inner).map(Budget::WallClock),
            other => Err(DeError(format!("unknown variant `{other}` for Budget"))),
        }
    }
}

/// One point of the loss-vs-effort convergence trace (Figures 1 and 4).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Number of loss evaluations completed when this best was found.
    pub evaluations: usize,
    /// Wall-clock seconds elapsed when this best was found.
    pub elapsed_secs: f64,
    /// The best (lowest) loss seen so far.
    pub best_loss: f64,
}

struct Best {
    loss: f64,
    unit_point: Vec<f64>,
    trace: Vec<TracePoint>,
}

/// A point of one chunk that consumes a budget evaluation: replayed from
/// the disk shard when `replay` holds its stored outcome, run through
/// the objective otherwise.
struct Slot<'p> {
    unit_point: &'p [f64],
    calib: Calibration,
    key: Option<Vec<u64>>,
    replay: Option<CachedOutcome>,
}

/// Budget-enforcing, trace-recording gateway between search algorithms and
/// the objective. Algorithms request evaluations of unit-hypercube points;
/// the evaluator denormalizes, invokes the objective (a batch in
/// parallel, one pool item per point), counts evaluations, tracks the
/// incumbent, and reports budget exhaustion.
///
/// There is one evaluation path: [`Evaluator::try_eval`] is a batch of
/// one, and [`Evaluator::eval_batch`] is the same path with failures
/// reported as `+inf`. Proposing points one at a time or in batches of
/// any size yields the same evaluation indices, losses, incumbent,
/// trace, failures, counters and disk records.
///
/// # Memoization
///
/// [`Objective::loss`] is required to be deterministic, so the evaluator
/// caches losses keyed by the *canonicalized* point — the bit pattern of
/// the denormalized natural-unit calibration, with `-0.0` folded into
/// `0.0` (see [`cache::canonical_key`]). Two unit points that snap to the
/// same calibration (common for integer/discrete parameters, grid
/// re-sweeps, and BO local refinement re-proposals) share one cache entry.
/// A cache hit returns the stored loss **without consuming a budget
/// evaluation** and without re-recording the incumbent (it was recorded
/// when first computed). [`Evaluator::cache_hits`] /
/// [`Evaluator::cache_misses`] expose the counters. A point with a NaN
/// component has no canonical identity and is evaluated uncached.
///
/// # Persistent cache
///
/// When the objective declares a [`Objective::cache_fingerprint`] and a
/// cache directory is active ([`cache::install`] or `CALIB_CACHE`,
/// snapshotted at construction like the fault plan), a memo miss consults
/// the on-disk shard for (fingerprint, seed) before invoking the
/// objective. A disk hit **consumes a budget evaluation** exactly like a
/// fresh invocation — incumbent, trace, failure counters, and evaluation
/// indices are bit-for-bit identical to an uncached run — but skips the
/// simulation itself (`cache_misses` still counts it; the objective was
/// simply not re-invoked). Fresh outcomes, including quarantined
/// failures, are persisted back to the shard; evaluations synthesized by
/// an injected [`FaultPlan`] are *not*, so chaos runs never poison the
/// cache.
///
/// # Failure isolation
///
/// Every objective invocation runs under [`fault::guard`]: a panic or a
/// non-finite loss is converted into a typed [`EvalFailure`], consumes
/// one budget evaluation, and **quarantines** the point — the search
/// algorithm sees `+inf` (so the point is maximally unattractive but the
/// search continues), the incumbent and convergence trace are never
/// updated from it, and re-proposals are served from the quarantine
/// cache without re-invoking the objective. Failure counts are exposed
/// via [`Evaluator::eval_panics`] / [`Evaluator::eval_nonfinite`] /
/// [`Evaluator::failures`].
///
/// # Trace counters
///
/// A disk-cache miss is counted only for a keyed point that was looked
/// up on an open shard and not found (a NaN-component point never
/// consults the disk). Every point the objective ran for records one
/// `eval_latency_secs` observation, failures included: a failed run
/// still spent simulator time.
pub struct Evaluator<'a> {
    objective: &'a dyn Objective,
    budget: Budget,
    /// Seed of the calibration run driving this evaluator; used only to
    /// scope injected faults (searches draw their own rng from the same
    /// seed independently).
    seed: u64,
    /// Snapshot of the fault-injection plan installed when the
    /// evaluator was constructed ([`fault::current`]).
    faults: Option<Arc<FaultPlan>>,
    /// Snapshot of the persistent-cache directory active at construction
    /// ([`cache::current`]).
    cache_dir: Option<Arc<PathBuf>>,
    /// Lazily opened disk shard (`None` inside when the objective has no
    /// fingerprint or no cache directory is active). Opened on first
    /// evaluation so that [`Evaluator::with_seed`] is already applied.
    disk: OnceLock<Option<Arc<DiskCache>>>,
    start: Instant,
    count: AtomicUsize,
    best: Mutex<Best>,
    /// Memo map: each evaluated canonical point's finite loss, or the
    /// failure that quarantined it.
    cache: RwLock<HashMap<Vec<u64>, Result<f64, EvalFailure>>>,
    hits: AtomicUsize,
    failures: Mutex<Vec<(usize, EvalFailure)>>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator; the wall-clock budget starts now. The
    /// evaluator snapshots the process-global fault-injection plan (if
    /// any) with seed 0; use [`Evaluator::with_seed`] to scope
    /// seed-targeted faults to this evaluator.
    pub fn new(objective: &'a dyn Objective, budget: Budget) -> Self {
        Self {
            objective,
            budget,
            seed: 0,
            faults: fault::current(),
            cache_dir: cache::current(),
            disk: OnceLock::new(),
            start: Instant::now(),
            count: AtomicUsize::new(0),
            best: Mutex::new(Best {
                loss: f64::INFINITY,
                unit_point: Vec::new(),
                trace: Vec::new(),
            }),
            cache: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// Tag the evaluator with the calibration run's seed so that
    /// seed-scoped [`FaultPlan`] entries can target it.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The objective's parameter space.
    pub fn space(&self) -> &crate::param::ParameterSpace {
        self.objective.space()
    }

    /// True once the budget is exhausted.
    pub fn exhausted(&self) -> bool {
        if let Some(n) = self.budget.max_evaluations() {
            if self.count.load(Ordering::Relaxed) >= n {
                return true;
            }
        }
        if let Some(d) = self.budget.max_elapsed() {
            if self.start.elapsed() >= d {
                return true;
            }
        }
        false
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// How many more evaluations the budget admits right now
    /// (`usize::MAX` under a pure wall-clock budget that has not expired).
    pub fn remaining(&self) -> usize {
        if self.exhausted() {
            return 0;
        }
        match self.budget.max_evaluations() {
            Some(n) => n.saturating_sub(self.count.load(Ordering::Relaxed)),
            None => usize::MAX,
        }
    }

    /// The persistent-cache shard for this evaluator, opened on first
    /// use; `None` when the objective declares no fingerprint or no cache
    /// directory was active at construction.
    fn disk(&self) -> Option<&DiskCache> {
        self.disk
            .get_or_init(|| {
                let dir = self.cache_dir.as_ref()?;
                let fingerprint = self.objective.cache_fingerprint()?;
                Some(Arc::new(DiskCache::open(
                    dir,
                    fingerprint.shard_id(self.seed),
                )))
            })
            .as_deref()
    }

    /// The fault (if any) the active plan injects into evaluation
    /// `index` of this evaluator.
    fn fault_for(&self, index: usize) -> Option<FaultKind> {
        self.faults
            .as_ref()
            .and_then(|plan| plan.fault_at(self.seed, index))
    }

    /// Evaluate `calib` as budget evaluation `index`: the objective's
    /// loss under [`fault::guard`], or the fault the active plan injects
    /// at that index, synthesized through the same guard (an injected
    /// panic really panics and really unwinds).
    fn run_point(&self, index: usize, calib: &Calibration) -> CachedOutcome {
        let loss = match self.fault_for(index) {
            Some(FaultKind::Panic) => fault::guard(|| {
                panic!(
                    "injected fault: panic at evaluation {index} (seed {})",
                    self.seed
                )
            }),
            Some(FaultKind::Nan) => Ok(f64::NAN),
            None => fault::guard(|| self.objective.loss(calib)),
        };
        match loss {
            Ok(loss) if loss.is_finite() => CachedOutcome::Loss { loss },
            Ok(loss) => CachedOutcome::NonFinite {
                loss_bits: loss.to_bits(),
            },
            Err(message) => CachedOutcome::Panic { message },
        }
    }

    /// Settle `outcome`, fresh or replayed from disk, as the next budget
    /// evaluation. A finite loss may become the incumbent; a failure
    /// joins [`Evaluator::failures`] (and its trace counter), leaving the
    /// incumbent and trace untouched. A keyed point memoizes the result,
    /// so a re-proposal never re-invokes the objective.
    fn settle(
        &self,
        unit_point: &[f64],
        key: Option<Vec<u64>>,
        outcome: CachedOutcome,
    ) -> Result<f64, EvalFailure> {
        let index = self.count.fetch_add(1, Ordering::Relaxed);
        let result = match outcome {
            CachedOutcome::Loss { loss } => {
                let mut best = self.best.lock().expect("incumbent lock");
                if loss < best.loss {
                    best.loss = loss;
                    best.unit_point = unit_point.to_vec();
                    best.trace.push(TracePoint {
                        evaluations: index + 1,
                        elapsed_secs: self.start.elapsed().as_secs_f64(),
                        best_loss: loss,
                    });
                }
                Ok(loss)
            }
            CachedOutcome::Panic { message } => {
                obs::counter(obs::Counter::EvalPanics, 1);
                Err(EvalFailure::Panic { message })
            }
            CachedOutcome::NonFinite { loss_bits } => {
                obs::counter(obs::Counter::EvalNonfinite, 1);
                Err(EvalFailure::NonFinite {
                    loss: f64::from_bits(loss_bits),
                })
            }
        };
        if let Err(failure) = &result {
            self.failures
                .lock()
                .expect("failure list lock")
                .push((index, failure.clone()));
        }
        if let Some(key) = key {
            self.cache
                .write()
                .expect("memo map lock")
                .insert(key, result.clone());
        }
        result
    }

    /// The one evaluation path: resolve, run and record `unit_points`,
    /// returning the results of the resolved prefix in input order.
    ///
    /// Points are taken in chunks of at most 32 budget-consuming points,
    /// capped by [`Evaluator::remaining`], which is re-checked between
    /// chunks so a wall-clock deadline stops a large batch at the next
    /// chunk boundary. Within a chunk a memo hit, or a repeat of a point
    /// already pending in the chunk, is served without budget. Every
    /// other point takes a slot: a keyed point is looked up on the disk
    /// shard, and the slots not found there run as one fan-out, one
    /// [`Objective::loss`] per pool item (a single slot runs on the
    /// calling thread). Each run's outcome depends only on its point and
    /// index, and a panic fails only its own point. The slots then settle
    /// in slot order, replayed or fresh alike, so indices and the
    /// incumbent never depend on pool scheduling or on how the points
    /// were batched.
    fn eval_points<P: AsRef<[f64]>>(&self, unit_points: &[P]) -> Vec<Result<f64, EvalFailure>> {
        // Small enough that a wall-clock overrun is bounded by one chunk,
        // large enough to keep the pool's workers saturated.
        const CHUNK: usize = 32;
        let mut results = Vec::with_capacity(unit_points.len());
        let mut next = 0;
        while next < unit_points.len() {
            let take = CHUNK.min(self.remaining());
            if take == 0 {
                break;
            }
            // Each input of the chunk resolves to its memoized result
            // (`Ok`) or to the slot that evaluates it (`Err`).
            let mut window: Vec<Result<Result<f64, EvalFailure>, usize>> = Vec::new();
            let mut slots: Vec<Slot<'_>> = Vec::new();
            let mut disk_misses = 0;
            while next < unit_points.len() && slots.len() < take {
                let unit_point = unit_points[next].as_ref();
                next += 1;
                let calib = self.objective.space().denormalize(unit_point);
                let key = cache::canonical_key(&calib);
                if let Some(key) = &key {
                    if let Some(result) = self.cache.read().expect("memo map lock").get(key) {
                        window.push(Ok(result.clone()));
                        continue;
                    }
                    if let Some(s) = slots.iter().position(|slot| slot.key.as_ref() == Some(key)) {
                        window.push(Err(s));
                        continue;
                    }
                }
                let replay = key.as_deref().and_then(|key| {
                    let found = self.disk()?.lookup(key);
                    disk_misses += usize::from(found.is_none());
                    found
                });
                window.push(Err(slots.len()));
                slots.push(Slot {
                    unit_point,
                    calib,
                    key,
                    replay,
                });
            }
            let hits = window.len() - slots.len();
            self.hits.fetch_add(hits, Ordering::Relaxed);
            // Slot `s` settles as evaluation `base + s`. Exact as long as
            // one thread drives the evaluator (every shipped algorithm
            // does), which is what makes fault targeting by index
            // deterministic.
            let base = self.count.load(Ordering::Relaxed);
            let runs: Vec<(usize, &Calibration)> = slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.replay.is_none())
                .map(|(s, slot)| (base + s, &slot.calib))
                .collect();
            obs::counter(obs::Counter::EvalCacheHits, hits as u64);
            obs::counter(
                obs::Counter::DiskCacheHits,
                (slots.len() - runs.len()) as u64,
            );
            obs::counter(obs::Counter::DiskCacheMisses, disk_misses as u64);
            obs::counter(obs::Counter::EvalCacheMisses, runs.len() as u64);
            let t0 = obs::enabled().then(Instant::now);
            let outcomes: Vec<CachedOutcome> = runs
                .par_iter()
                .map(|&(index, calib)| self.run_point(index, calib))
                .collect();
            if let Some(t0) = t0.filter(|_| !runs.is_empty()) {
                // The chunk runs as one fan-out; attribute its wall time
                // evenly across the points it actually evaluated.
                let per_point = t0.elapsed().as_secs_f64() / runs.len() as f64;
                for _ in 0..runs.len() {
                    obs::observe(obs::Hist::EvalLatency, per_point);
                }
            }
            let mut fresh = outcomes.into_iter();
            let settled: Vec<Result<f64, EvalFailure>> = slots
                .into_iter()
                .enumerate()
                .map(|(s, slot)| {
                    let outcome = slot.replay.unwrap_or_else(|| {
                        let outcome = fresh.next().expect("one outcome per run slot");
                        // An outcome synthesized by an injected fault is
                        // never persisted: chaos runs must not poison the
                        // shared cache.
                        if slot.key.is_some() && self.fault_for(base + s).is_none() {
                            if let Some(disk) = self.disk() {
                                disk.store(&slot.calib.values, outcome.clone());
                            }
                        }
                        outcome
                    });
                    self.settle(slot.unit_point, slot.key, outcome)
                })
                .collect();
            results.extend(
                window
                    .into_iter()
                    .map(|w| w.unwrap_or_else(|s| settled[s].clone())),
            );
        }
        results
    }

    /// Evaluate one unit-hypercube point. Returns `None` (without
    /// evaluating) when the budget is exhausted, and `+inf` for a point
    /// whose evaluation failed (panic or non-finite loss) — see
    /// [`Evaluator::try_eval`] for the typed variant, which this maps:
    /// the point is a batch of one on the evaluator's single path.
    pub fn eval(&self, unit_point: &[f64]) -> Option<f64> {
        match self.try_eval(unit_point) {
            Ok(loss) => Some(loss),
            Err(EvalFailure::BudgetExhausted) => None,
            Err(_) => Some(f64::INFINITY),
        }
    }

    /// Evaluate one unit-hypercube point, reporting failures as typed
    /// [`EvalFailure`] values instead of sentinel losses. The point is a
    /// batch of one on the same path as [`Evaluator::eval_batch`], so it
    /// follows the memo, disk, fault and counter rules in the
    /// [`Evaluator`] docs: a cached point returns without consuming a
    /// budget evaluation, an uncached one runs [`Objective::loss`] on the
    /// calling thread, a disk miss is counted only for a keyed point, and
    /// a failed run records its latency like a successful one. A failed
    /// evaluation consumes one budget evaluation and quarantines the
    /// point: re-proposing it returns the same failure as a cache hit,
    /// without re-invoking the objective.
    pub fn try_eval(&self, unit_point: &[f64]) -> Result<f64, EvalFailure> {
        self.eval_points(&[unit_point])
            .pop()
            .unwrap_or(Err(EvalFailure::BudgetExhausted))
    }

    /// Evaluate a batch of points in parallel. The batch is truncated to
    /// the remaining budget: the evaluation-count bound caps the number of
    /// *uncached* points up front, and the wall-clock bound is re-checked
    /// between chunks, so a large batch stops at the first chunk boundary
    /// past the deadline instead of running to completion. Returns the
    /// losses for the resolved prefix, in input order, or `None` when
    /// nothing could be resolved.
    ///
    /// Cached points are served for free (no budget evaluation); each
    /// chunk of uncached points — deduplicated within the chunk — is
    /// evaluated as one fan-out with one [`Objective::loss`] per pool
    /// item, and recorded sequentially in
    /// input order so the incumbent/trace update is deterministic,
    /// independent of pool scheduling. A point whose evaluation fails
    /// (panic or non-finite loss) resolves to `+inf` in the returned
    /// losses and is quarantined; it still consumes its budget
    /// evaluation.
    pub fn eval_batch(&self, unit_points: &[Vec<f64>]) -> Option<Vec<f64>> {
        let losses: Vec<f64> = self
            .eval_points(unit_points)
            .into_iter()
            .map(|result| result.unwrap_or(f64::INFINITY))
            .collect();
        (!losses.is_empty()).then_some(losses)
    }

    /// Memoization hits: evaluations served from the cache without
    /// consuming budget.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memoization misses: proposals that consumed a budget evaluation,
    /// which is [`Evaluator::evaluations`] by definition. Failed
    /// evaluations and disk-cache replays count too — they consumed
    /// budget, even though a replay skips the objective invocation itself.
    pub fn cache_misses(&self) -> usize {
        self.evaluations()
    }

    /// Evaluations whose objective invocation panicked (isolated and
    /// quarantined rather than crashing the calibration).
    pub fn eval_panics(&self) -> usize {
        self.count_failures(|f| matches!(f, EvalFailure::Panic { .. }))
    }

    /// Evaluations whose objective returned a non-finite loss.
    pub fn eval_nonfinite(&self) -> usize {
        self.count_failures(|f| matches!(f, EvalFailure::NonFinite { .. }))
    }

    fn count_failures(&self, kind: impl Fn(&EvalFailure) -> bool) -> usize {
        let failures = self.failures.lock().expect("failure list lock");
        failures.iter().filter(|(_, f)| kind(f)).count()
    }

    /// Every failed evaluation as `(evaluation index, failure)`, in the
    /// order the failures were recorded.
    pub fn failures(&self) -> Vec<(usize, EvalFailure)> {
        self.failures.lock().unwrap().clone()
    }

    /// The incumbent `(loss, unit_point, natural calibration)`, or `None`
    /// if no evaluation produced a finite loss (nothing evaluated, or
    /// every evaluation was quarantined).
    pub fn best(&self) -> Option<(f64, Vec<f64>, Calibration)> {
        let best = self.best.lock().unwrap();
        if best.loss.is_finite() {
            let calib = self.objective.space().denormalize(&best.unit_point);
            Some((best.loss, best.unit_point.clone(), calib))
        } else {
            None
        }
    }

    /// The convergence trace (one point per incumbent improvement).
    pub fn trace(&self) -> Vec<TracePoint> {
        self.best.lock().unwrap().trace.clone()
    }

    /// Wall-clock seconds since the evaluator was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Agg, ElementMix, ScenarioError, StructuredLoss};
    use crate::objective::{FnObjective, SimulationObjective, Simulator};
    use crate::param::{Calibration, ParamKind, ParameterSpace};

    fn sphere() -> FnObjective<impl Fn(&Calibration) -> f64 + Sync> {
        let space = ParameterSpace::new()
            .with("a", ParamKind::Continuous { lo: -1.0, hi: 1.0 })
            .with("b", ParamKind::Continuous { lo: -1.0, hi: 1.0 });
        FnObjective::new(space, |c: &Calibration| {
            c.values.iter().map(|v| v * v).sum()
        })
    }

    #[test]
    fn evaluation_budget_is_enforced_exactly() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(3));
        assert!(ev.eval(&[0.5, 0.5]).is_some());
        assert!(ev.eval(&[0.1, 0.1]).is_some());
        assert!(ev.eval(&[0.9, 0.9]).is_some());
        assert!(ev.eval(&[0.2, 0.2]).is_none());
        assert_eq!(ev.evaluations(), 3);
        assert!(ev.exhausted());
    }

    #[test]
    fn batch_truncates_to_budget() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(2));
        let batch = vec![vec![0.5, 0.5], vec![0.0, 0.0], vec![1.0, 1.0]];
        let losses = ev.eval_batch(&batch).unwrap();
        assert_eq!(losses.len(), 2);
        assert!(ev.eval_batch(&batch).is_none());
    }

    #[test]
    fn best_tracks_minimum_and_trace_is_decreasing() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        ev.eval(&[0.9, 0.9]).unwrap();
        ev.eval(&[0.5, 0.5]).unwrap(); // natural (0,0): loss 0
        ev.eval(&[0.8, 0.8]).unwrap(); // worse, should not displace best
        let (loss, unit, calib) = ev.best().unwrap();
        assert!(loss.abs() < 1e-12);
        assert_eq!(unit, vec![0.5, 0.5]);
        assert!(calib.values.iter().all(|v| v.abs() < 1e-12));
        let trace = ev.trace();
        assert!(trace.windows(2).all(|w| w[1].best_loss <= w[0].best_loss));
        assert!(trace
            .windows(2)
            .all(|w| w[1].evaluations > w[0].evaluations));
    }

    #[test]
    fn wallclock_budget_expires() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::WallClock(Duration::from_millis(0)));
        assert!(ev.exhausted());
        assert!(ev.eval(&[0.5, 0.5]).is_none());
        assert!(ev.best().is_none());
    }

    #[test]
    fn batch_results_are_in_input_order() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(100));
        let batch: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0, 0.5]).collect();
        let losses = ev.eval_batch(&batch).unwrap();
        for (p, l) in batch.iter().zip(&losses) {
            let v = 2.0 * p[0] - 1.0;
            assert!((l - v * v).abs() < 1e-12);
        }
    }

    #[test]
    fn wallclock_budget_truncates_batches_between_chunks() {
        let space = ParameterSpace::new().with("a", ParamKind::Continuous { lo: -1.0, hi: 1.0 });
        let obj = FnObjective::new(space, |c: &Calibration| {
            std::thread::sleep(Duration::from_millis(50));
            c.values[0] * c.values[0]
        });
        // Each evaluation outlasts the whole deadline, so exactly one
        // 32-point chunk runs before the between-chunk check stops the
        // batch. The seed's behavior was to run all 64 points: remaining()
        // is usize::MAX under a pure wall-clock budget, and the deadline
        // was only consulted before the batch started.
        let ev = Evaluator::new(&obj, Budget::WallClock(Duration::from_millis(25)));
        let batch: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 63.0]).collect();
        let losses = ev.eval_batch(&batch).unwrap();
        assert_eq!(losses.len(), 32, "one chunk, then the deadline check fires");
        for (p, l) in batch.iter().zip(&losses) {
            let v = 2.0 * p[0] - 1.0;
            assert!((l - v * v).abs() < 1e-12, "prefix must stay in input order");
        }
        assert!(ev.exhausted());
        assert!(ev.eval_batch(&batch).is_none());
    }

    #[test]
    fn remaining_counts_down() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(5));
        assert_eq!(ev.remaining(), 5);
        ev.eval(&[0.5, 0.5]);
        assert_eq!(ev.remaining(), 4);
    }

    #[test]
    fn memoized_hits_do_not_consume_budget() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(3));
        let first = ev.eval(&[0.25, 0.75]).unwrap();
        // Re-proposing the same point is served from the cache: the loss
        // is identical, no budget evaluation is consumed, and the trace
        // is not re-recorded.
        for _ in 0..10 {
            assert_eq!(ev.eval(&[0.25, 0.75]), Some(first));
        }
        assert_eq!(ev.evaluations(), 1);
        assert_eq!(ev.remaining(), 2);
        assert_eq!(ev.cache_hits(), 10);
        assert_eq!(ev.cache_misses(), 1);
        assert_eq!(ev.trace().len(), 1);
    }

    #[test]
    fn batch_serves_cached_and_duplicate_points_for_free() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(4));
        let a = ev.eval(&[0.5, 0.5]).unwrap();
        // Batch mixes a cached point, a fresh point, and an in-batch
        // duplicate of that fresh point: only the fresh one burns budget.
        let batch = vec![vec![0.5, 0.5], vec![0.9, 0.1], vec![0.9, 0.1]];
        let losses = ev.eval_batch(&batch).unwrap();
        assert_eq!(losses.len(), 3);
        assert_eq!(losses[0], a);
        assert_eq!(losses[1], losses[2]);
        assert_eq!(ev.evaluations(), 2);
        assert_eq!(ev.cache_misses(), 2);
        assert_eq!(ev.cache_hits(), 2);
    }

    #[test]
    fn snapped_unit_points_share_cache_entries() {
        // Two distinct unit coordinates that denormalize to the same
        // discrete calibration must share one cache entry: the key is the
        // canonical (denormalized) point, not the raw proposal.
        let space = ParameterSpace::new().with("lod", ParamKind::Integer { lo: 1, hi: 2 });
        let obj = FnObjective::new(space, |c: &Calibration| c.values[0]);
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        ev.eval(&[0.1]).unwrap();
        ev.eval(&[0.3]).unwrap(); // snaps to the same level as 0.1
        assert_eq!(ev.cache_misses(), 1);
        assert_eq!(ev.cache_hits(), 1);
        assert_eq!(ev.evaluations(), 1);
    }

    #[test]
    fn budget_and_trace_points_roundtrip_through_json() {
        for budget in [
            Budget::Evaluations(150),
            Budget::WallClock(Duration::new(3, 141_592_653)),
        ] {
            let json = serde_json::to_string(&budget).expect("serialize");
            let back: Budget = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, budget, "{json}");
        }
        assert!(serde_json::from_str::<Budget>("{\"Hours\": 1}").is_err());
        let tp = TracePoint {
            evaluations: 17,
            elapsed_secs: 0.1 + 0.2, // not exactly representable: exercises float_roundtrip
            best_loss: 1.0 / 3.0,
        };
        let json = serde_json::to_string(&tp).expect("serialize");
        let back: TracePoint = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, tp);
        assert_eq!(back.elapsed_secs.to_bits(), tp.elapsed_secs.to_bits());
    }

    /// An objective that panics inside a marked region of the unit square
    /// and counts real invocations, so tests can prove quarantined
    /// re-proposals never re-invoke it.
    fn trapdoor(
        calls: &std::sync::atomic::AtomicUsize,
    ) -> FnObjective<impl Fn(&Calibration) -> f64 + Sync + '_> {
        let space = ParameterSpace::new()
            .with("a", ParamKind::Continuous { lo: -1.0, hi: 1.0 })
            .with("b", ParamKind::Continuous { lo: -1.0, hi: 1.0 });
        FnObjective::new(space, move |c: &Calibration| {
            calls.fetch_add(1, Ordering::SeqCst);
            if c.values[0] > 0.5 {
                panic!("simulator diverged at a={}", c.values[0]);
            }
            if c.values[1] > 0.5 {
                return f64::NAN;
            }
            c.values.iter().map(|v| v * v).sum()
        })
    }

    #[test]
    fn panicking_point_is_quarantined_not_fatal() {
        let calls = AtomicUsize::new(0);
        let obj = trapdoor(&calls);
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        // a = 0.9 natural -> panic region.
        assert_eq!(ev.eval(&[0.95, 0.5]), Some(f64::INFINITY));
        assert_eq!(ev.evaluations(), 1, "a failed evaluation consumes budget");
        assert_eq!(ev.eval_panics(), 1);
        assert_eq!(ev.eval_nonfinite(), 0);
        assert!(ev.best().is_none(), "a quarantined point never wins");
        assert!(ev.trace().is_empty());
        let failures = ev.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 0);
        match &failures[0].1 {
            EvalFailure::Panic { message } => assert!(message.contains("simulator diverged")),
            other => panic!("expected Panic, got {other:?}"),
        }
        // Re-proposing the quarantined point is a cache hit: no budget,
        // no re-invocation of the objective.
        let invocations = calls.load(Ordering::SeqCst);
        assert_eq!(ev.eval(&[0.95, 0.5]), Some(f64::INFINITY));
        assert_eq!(calls.load(Ordering::SeqCst), invocations);
        assert_eq!(ev.evaluations(), 1);
        assert_eq!(ev.cache_hits(), 1);
        // A healthy point afterwards still works and becomes the best.
        assert!(ev.eval(&[0.5, 0.5]).unwrap().abs() < 1e-12);
        assert!(ev.best().is_some());
    }

    #[test]
    fn nan_loss_is_quarantined_as_nonfinite() {
        let calls = AtomicUsize::new(0);
        let obj = trapdoor(&calls);
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        match ev.try_eval(&[0.1, 0.95]) {
            Err(EvalFailure::NonFinite { loss }) => assert!(loss.is_nan()),
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert_eq!(ev.eval_nonfinite(), 1);
        assert_eq!(ev.evaluations(), 1);
        // The typed failure is replayed on re-proposal, served from the
        // quarantine cache.
        let invocations = calls.load(Ordering::SeqCst);
        assert!(matches!(
            ev.try_eval(&[0.1, 0.95]),
            Err(EvalFailure::NonFinite { .. })
        ));
        assert_eq!(calls.load(Ordering::SeqCst), invocations);
        assert_eq!(ev.cache_hits(), 1);
    }

    #[test]
    fn try_eval_reports_budget_exhaustion() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(1));
        assert!(ev.try_eval(&[0.5, 0.5]).is_ok());
        assert_eq!(ev.try_eval(&[0.1, 0.1]), Err(EvalFailure::BudgetExhausted));
    }

    #[test]
    fn batch_isolates_failures_per_point() {
        let calls = AtomicUsize::new(0);
        let obj = trapdoor(&calls);
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        // healthy, panic, nan, healthy — the healthy losses must be
        // exactly what a clean evaluator computes.
        let batch = vec![
            vec![0.25, 0.25],
            vec![0.95, 0.25],
            vec![0.25, 0.95],
            vec![0.4, 0.4],
        ];
        let losses = ev.eval_batch(&batch).unwrap();
        assert_eq!(losses.len(), 4);
        assert!(losses[0].is_finite());
        assert_eq!(losses[1], f64::INFINITY);
        assert_eq!(losses[2], f64::INFINITY);
        assert!(losses[3].is_finite());
        assert_eq!(ev.evaluations(), 4, "failed points consume budget");
        assert_eq!(ev.eval_panics(), 1);
        assert_eq!(ev.eval_nonfinite(), 1);
        assert_eq!(ev.cache_misses(), ev.evaluations());
        // Failure records carry the deterministic evaluation indices.
        let indices: Vec<usize> = ev.failures().iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![1, 2]);
        // Cross-check the healthy values against a clean evaluator.
        let clean_calls = AtomicUsize::new(0);
        let clean_obj = trapdoor(&clean_calls);
        let clean = Evaluator::new(&clean_obj, Budget::Evaluations(10));
        assert_eq!(clean.eval(&[0.25, 0.25]), Some(losses[0]));
        assert_eq!(clean.eval(&[0.4, 0.4]), Some(losses[3]));

        // The same isolation on a simulation objective, where the panic
        // comes from one (point, scenario) run: only that point fails,
        // and the survivors are bit-for-bit the sequential `loss`.
        struct Flaky;
        impl Simulator for Flaky {
            type Scenario = f64;
            type Output = ScenarioError;
            fn run(&self, scenario: &f64, calibration: &Calibration) -> ScenarioError {
                if calibration.values[0] > 50.0 && *scenario == 20.0 {
                    panic!("scenario 20 exploded");
                }
                ScenarioError::scalar_only(crate::loss::relative_error(
                    *scenario,
                    calibration.values[0],
                ))
            }
        }
        let dataset = vec![10.0, 20.0];
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 100.0 });
        let obj = SimulationObjective::new(
            &Flaky,
            &dataset,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
            space,
        );
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        // x = 10, 60 (its scenario 20 panics), 20.
        let batch = vec![vec![0.1], vec![0.6], vec![0.2]];
        let losses = ev.eval_batch(&batch).unwrap();
        assert_eq!(losses[1], f64::INFINITY);
        match &ev.failures()[..] {
            [(1, EvalFailure::Panic { message })] => {
                assert!(message.contains("scenario 20 exploded"))
            }
            other => panic!("expected one panic at index 1, got {other:?}"),
        }
        for p in [0, 2] {
            let calib = obj.space().denormalize(&batch[p]);
            assert_eq!(losses[p].to_bits(), obj.loss(&calib).to_bits());
        }
    }

    /// Serializes tests that install the process-global fault plan.
    static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    /// A seed no other simcal test uses, so a concurrently constructed
    /// evaluator (tests run threaded) can never match these specs.
    const FAULT_SEED: u64 = 0xFA17_FA17;

    #[test]
    fn injected_faults_hit_exact_evaluation_indices() {
        let _lock = FAULTS.lock().unwrap();
        let calls = AtomicUsize::new(0);
        let space = ParameterSpace::new().with("a", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, |c: &Calibration| {
            calls.fetch_add(1, Ordering::SeqCst);
            c.values[0]
        });
        crate::fault::install(
            crate::fault::FaultPlan::new()
                .with_seeded_fault(crate::fault::FaultKind::Panic, 1, FAULT_SEED)
                .with_seeded_fault(crate::fault::FaultKind::Nan, 3, FAULT_SEED),
        );
        let ev = Evaluator::new(&obj, Budget::Evaluations(8)).with_seed(FAULT_SEED);
        crate::fault::uninstall();
        let batch: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 10.0]).collect();
        let losses = ev.eval_batch(&batch).unwrap();
        assert!(losses[0].is_finite());
        assert_eq!(losses[1], f64::INFINITY);
        assert!(losses[2].is_finite());
        assert_eq!(losses[3], f64::INFINITY);
        assert!(losses[4].is_finite());
        assert_eq!(ev.eval_panics(), 1);
        assert_eq!(ev.eval_nonfinite(), 1);
        let failures = ev.failures();
        assert_eq!(failures[0].0, 1);
        match &failures[0].1 {
            EvalFailure::Panic { message } => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(message.contains("evaluation 1"), "{message}");
            }
            other => panic!("expected injected Panic, got {other:?}"),
        }
        assert_eq!(failures[1].0, 3);
        // The surviving losses are exactly the clean objective's values.
        for (i, &l) in losses.iter().enumerate() {
            if l.is_finite() {
                assert!((l - i as f64 / 10.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn seed_scoped_faults_miss_other_evaluators() {
        let _lock = FAULTS.lock().unwrap();
        let obj = sphere();
        crate::fault::install(crate::fault::FaultPlan::new().with_seeded_fault(
            crate::fault::FaultKind::Panic,
            0,
            FAULT_SEED,
        ));
        let hit = Evaluator::new(&obj, Budget::Evaluations(4)).with_seed(FAULT_SEED);
        let miss = Evaluator::new(&obj, Budget::Evaluations(4)).with_seed(FAULT_SEED ^ 1);
        crate::fault::uninstall();
        assert_eq!(hit.eval(&[0.5, 0.5]), Some(f64::INFINITY));
        assert!(miss.eval(&[0.5, 0.5]).unwrap().is_finite());
        // Plans are snapshotted at construction: an evaluator created
        // after uninstall sees no faults even for the targeted seed.
        let after = Evaluator::new(&obj, Budget::Evaluations(4)).with_seed(FAULT_SEED);
        assert!(after.eval(&[0.5, 0.5]).unwrap().is_finite());
    }

    #[test]
    fn eval_and_eval_batch_share_the_cache() {
        let obj = sphere();
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        let batch = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let losses = ev.eval_batch(&batch).unwrap();
        assert_eq!(ev.eval(&[0.2, 0.2]), Some(losses[0]));
        assert_eq!(ev.eval(&[0.8, 0.8]), Some(losses[1]));
        assert_eq!(ev.evaluations(), 2);
        assert_eq!(ev.cache_hits(), 2);
    }

    #[test]
    fn signed_zero_calibrations_share_one_cache_entry() {
        // Regression: the key used raw `f64::to_bits`, so a range whose
        // denormalization can produce both -0.0 and +0.0 split one
        // calibration across two entries, double-consuming budget. With
        // `lo: -0.0`, unit -0.0 denormalizes to -0.0 + (-0.0) * 1.0 = -0.0
        // while unit 0.0 gives -0.0 + 0.0 = +0.0: equal calibrations,
        // formerly distinct keys.
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: -0.0, hi: 1.0 });
        let calls = AtomicUsize::new(0);
        let obj = FnObjective::new(space, |c: &Calibration| {
            calls.fetch_add(1, Ordering::SeqCst);
            c.values[0] + 1.0
        });
        // Sanity: the two unit points really produce differently-signed
        // zeros, i.e. the regression vehicle still bites.
        assert_eq!(
            obj.space().denormalize(&[-0.0]).values[0].to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            obj.space().denormalize(&[0.0]).values[0].to_bits(),
            0.0f64.to_bits()
        );
        let ev = Evaluator::new(&obj, Budget::Evaluations(10));
        let a = ev.eval(&[-0.0]).unwrap();
        let b = ev.eval(&[0.0]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(ev.evaluations(), 1, "equal calibrations share one entry");
        assert_eq!(ev.cache_hits(), 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nan_component_points_are_evaluated_uncached() {
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let calls = AtomicUsize::new(0);
        let obj = FnObjective::new(space, |_: &Calibration| {
            calls.fetch_add(1, Ordering::SeqCst);
            f64::NAN
        });
        let ev = Evaluator::new(&obj, Budget::Evaluations(4));
        // A NaN unit coordinate denormalizes to a NaN calibration value:
        // no canonical key, so each proposal re-invokes (and each is
        // quarantined individually, consuming budget).
        assert_eq!(ev.eval(&[f64::NAN]), Some(f64::INFINITY));
        assert_eq!(ev.eval(&[f64::NAN]), Some(f64::INFINITY));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(ev.evaluations(), 2);
        assert_eq!(ev.cache_hits(), 0);
    }

    /// Serializes tests that install the process-global cache directory.
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Collision-free temp cache directory (tests run concurrently).
    fn tmp_cache_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "simcal-budget-cache-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Construct an evaluator with the disk cache rooted at `dir`,
    /// leaving the process-global state clean afterwards.
    fn evaluator_with_cache<'a>(
        obj: &'a dyn Objective,
        budget: Budget,
        seed: u64,
        dir: &PathBuf,
    ) -> Evaluator<'a> {
        cache::install(dir);
        let ev = Evaluator::new(obj, budget).with_seed(seed);
        cache::uninstall();
        ev
    }

    #[test]
    fn repeated_run_is_served_entirely_from_disk() {
        let _lock = CACHE_LOCK.lock().unwrap();
        let dir = tmp_cache_dir("repeat");
        let fp = crate::cache::CacheFingerprint::of("sphere-l1", "toy-v1", 7);
        let calls = AtomicUsize::new(0);
        let space = ParameterSpace::new()
            .with("a", ParamKind::Continuous { lo: -1.0, hi: 1.0 })
            .with("b", ParamKind::Continuous { lo: -1.0, hi: 1.0 });
        let obj = FnObjective::new(space, |c: &Calibration| {
            calls.fetch_add(1, Ordering::SeqCst);
            c.values.iter().map(|v| v * v).sum()
        })
        .with_cache_fingerprint(fp);
        let points = vec![
            vec![0.9, 0.9],
            vec![0.5, 0.5],
            vec![0.3, 0.8],
            vec![0.1, 0.2],
        ];
        let run = |seed: u64| {
            let ev = evaluator_with_cache(&obj, Budget::Evaluations(6), seed, &dir);
            let mut losses = ev.eval_batch(&points).unwrap();
            losses.push(ev.eval(&[0.7, 0.6]).unwrap());
            (
                losses,
                ev.evaluations(),
                ev.cache_hits(),
                ev.cache_misses(),
                ev.trace()
                    .iter()
                    .map(|t| (t.evaluations, t.best_loss.to_bits()))
                    .collect::<Vec<_>>(),
                ev.best().map(|(l, u, c)| (l.to_bits(), u, c)),
            )
        };
        let cold = run(7);
        let invocations = calls.load(Ordering::SeqCst);
        assert_eq!(invocations, 5);
        // Same fingerprint + seed: the warm run replays every outcome
        // from disk with zero objective invocations and identical
        // deterministic results.
        let warm = run(7);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            invocations,
            "zero invocations"
        );
        assert_eq!(warm, cold);
        // A different seed reads a different shard: fully cold.
        let other = run(8);
        assert_eq!(calls.load(Ordering::SeqCst), invocations + 5);
        assert_eq!(other.0, cold.0, "the objective is seed-independent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_failures_replay_from_disk() {
        let _lock = CACHE_LOCK.lock().unwrap();
        let dir = tmp_cache_dir("quarantine");
        let fp = crate::cache::CacheFingerprint::of("trapdoor", "toy-v1", 1);
        let calls = AtomicUsize::new(0);
        let make = || {
            let space = ParameterSpace::new()
                .with("a", ParamKind::Continuous { lo: -1.0, hi: 1.0 })
                .with("b", ParamKind::Continuous { lo: -1.0, hi: 1.0 });
            FnObjective::new(space, |c: &Calibration| {
                calls.fetch_add(1, Ordering::SeqCst);
                if c.values[0] > 0.5 {
                    panic!("simulator diverged at a={}", c.values[0]);
                }
                if c.values[1] > 0.5 {
                    return f64::NAN;
                }
                c.values.iter().map(|v| v * v).sum()
            })
            .with_cache_fingerprint(fp)
        };
        let obj = make();
        let batch = vec![vec![0.25, 0.25], vec![0.95, 0.25], vec![0.25, 0.95]];
        let run = |ev: &Evaluator<'_>| {
            let losses = ev.eval_batch(&batch).unwrap();
            // Compare failures by bit pattern: `PartialEq` on a NaN
            // `NonFinite` loss is always false.
            let failures: Vec<(usize, u8, String, u64)> = ev
                .failures()
                .iter()
                .map(|(i, f)| match f {
                    EvalFailure::Panic { message } => (*i, 0, message.clone(), 0),
                    EvalFailure::NonFinite { loss } => (*i, 1, String::new(), loss.to_bits()),
                    EvalFailure::BudgetExhausted => (*i, 2, String::new(), 0),
                })
                .collect();
            (losses, ev.eval_panics(), ev.eval_nonfinite(), failures)
        };
        let cold_ev = evaluator_with_cache(&obj, Budget::Evaluations(10), 3, &dir);
        let cold = run(&cold_ev);
        let invocations = calls.load(Ordering::SeqCst);
        assert_eq!(cold.1, 1);
        assert_eq!(cold.2, 1);
        let warm_ev = evaluator_with_cache(&obj, Budget::Evaluations(10), 3, &dir);
        let warm = run(&warm_ev);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            invocations,
            "failures replay without re-invoking the broken simulator"
        );
        assert_eq!(warm, cold, "losses, counters, and failure records match");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_are_not_persisted_to_disk() {
        let _lock = CACHE_LOCK.lock().unwrap();
        let _fault_lock = FAULTS.lock().unwrap();
        let dir = tmp_cache_dir("nofault");
        let fp = crate::cache::CacheFingerprint::of("clean", "toy-v1", 2);
        let calls = AtomicUsize::new(0);
        let space = ParameterSpace::new().with("a", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, |c: &Calibration| {
            calls.fetch_add(1, Ordering::SeqCst);
            c.values[0]
        })
        .with_cache_fingerprint(fp);
        let batch: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64 / 10.0]).collect();
        // Cold run with an injected panic at evaluation 1.
        crate::fault::install(crate::fault::FaultPlan::new().with_seeded_fault(
            crate::fault::FaultKind::Panic,
            1,
            FAULT_SEED,
        ));
        cache::install(&dir);
        let faulted = Evaluator::new(&obj, Budget::Evaluations(8)).with_seed(FAULT_SEED);
        cache::uninstall();
        crate::fault::uninstall();
        let losses = faulted.eval_batch(&batch).unwrap();
        assert_eq!(losses[1], f64::INFINITY);
        let invocations = calls.load(Ordering::SeqCst);
        // Warm run without faults: the three clean outcomes replay from
        // disk, but the fault-synthesized slot was never persisted, so it
        // is evaluated for real this time and yields its true loss.
        let clean = evaluator_with_cache(&obj, Budget::Evaluations(8), FAULT_SEED, &dir);
        let warm = clean.eval_batch(&batch).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), invocations + 1);
        assert!((warm[1] - 0.1).abs() < 1e-12, "the poisoned slot healed");
        assert_eq!(clean.eval_panics(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Counter totals and histogram observation counts recorded on one
    /// thread. What the pool's workers or concurrently running tests
    /// record elsewhere is ignored, and so are the pool's own counters,
    /// which follow scheduling.
    struct ThreadTally {
        thread: std::thread::ThreadId,
        tally: Mutex<std::collections::BTreeMap<&'static str, u64>>,
    }

    impl ThreadTally {
        fn bump(&self, name: &'static str, delta: u64) {
            if std::thread::current().id() == self.thread && !name.starts_with("pool_") {
                *self.tally.lock().unwrap().entry(name).or_default() += delta;
            }
        }
    }

    impl obs::Recorder for ThreadTally {
        fn span_start(
            &self,
            _: &'static str,
            _: Option<obs::SpanId>,
            _: &[(&'static str, String)],
        ) -> obs::SpanId {
            1
        }
        fn span_end(&self, _: obs::SpanId) {}
        fn add(&self, counter: obs::Counter, delta: u64) {
            self.bump(counter.name(), delta);
        }
        fn observe(&self, hist: obs::Hist, _: f64) {
            self.bump(hist.name(), 1);
        }
    }

    /// Run `f` and return what it recorded on the calling thread.
    fn tallied<R>(f: impl FnOnce() -> R) -> (R, std::collections::BTreeMap<&'static str, u64>) {
        let tally = Arc::new(ThreadTally {
            thread: std::thread::current().id(),
            tally: Mutex::default(),
        });
        obs::install(tally.clone());
        let out = f();
        obs::uninstall();
        let seen = tally.tally.lock().unwrap().clone();
        (out, seen)
    }

    /// Every file of a cache directory with its bytes, by name.
    fn shard_bytes(dir: &PathBuf) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("cache dir exists")
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn try_eval_one_at_a_time_matches_eval_batch_in_chunks() {
        let _cache = CACHE_LOCK.lock().unwrap();
        let _faults = FAULTS.lock().unwrap();
        let _obs = crate::OBS_RECORDER
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let space = ParameterSpace::new()
            .with("a", ParamKind::Continuous { lo: -1.0, hi: 1.0 })
            .with("b", ParamKind::Continuous { lo: -1.0, hi: 1.0 })
            .with("lod", ParamKind::Integer { lo: 1, hi: 3 });
        let obj = FnObjective::new(space, |c: &Calibration| {
            if c.values[0] > 0.5 {
                panic!("simulator diverged at a={}", c.values[0]);
            }
            if c.values[1] > 0.5 {
                return f64::NAN;
            }
            c.values[0] * c.values[0] + c.values[1] * c.values[1] + 0.1 * c.values[2]
        })
        .with_cache_fingerprint(crate::cache::CacheFingerprint::of("parity", "toy-v1", 5));
        let proposals: Vec<Vec<f64>> = vec![
            vec![0.25, 0.25, 0.1],
            vec![0.6, 0.4, 0.5],
            vec![0.95, 0.25, 0.1],    // panics
            vec![0.25, 0.25, 0.2],    // snaps onto proposal 0
            vec![0.25, 0.95, 0.9],    // non-finite loss
            vec![f64::NAN, 0.3, 0.5], // no canonical key
            vec![0.95, 0.25, 0.1],    // quarantined repeat
            vec![0.4, 0.4, 0.9],
            vec![0.6, 0.4, 0.5],      // repeat of proposal 1
            vec![0.4, 0.4, 0.7],      // snaps onto proposal 7, in its chunk
            vec![0.1, 0.3, 0.4],      // evaluation 6
            vec![0.7, 0.2, 0.3],      // evaluation 7
            vec![0.3, 0.7, 0.6],      // evaluation 8
            vec![0.2, 0.1, 0.8],      // evaluation 9
            vec![f64::NAN, 0.6, 0.2], // no canonical key
            vec![0.55, 0.45, 0.1],
        ];
        // Half-warm shards: every other proposal (outcomes for proposals
        // 0, 1, 2, 4, 10 and 12) is already on disk, written by an
        // unfaulted run.
        let dirs = [tmp_cache_dir("parity-one"), tmp_cache_dir("parity-batch")];
        let warm: Vec<Vec<f64>> = proposals.iter().step_by(2).cloned().collect();
        for dir in &dirs {
            let ev = evaluator_with_cache(&obj, Budget::Evaluations(64), FAULT_SEED, dir);
            ev.eval_batch(&warm).unwrap();
        }
        // Injected faults on a keyless point (4), on a disk replay (6,
        // which a replay never consults) and on fresh points (7, 9).
        crate::fault::install(
            crate::fault::FaultPlan::new()
                .with_seeded_fault(crate::fault::FaultKind::Panic, 4, FAULT_SEED)
                .with_seeded_fault(crate::fault::FaultKind::Panic, 6, FAULT_SEED)
                .with_seeded_fault(crate::fault::FaultKind::Panic, 7, FAULT_SEED)
                .with_seeded_fault(crate::fault::FaultKind::Nan, 9, FAULT_SEED),
        );
        let one = evaluator_with_cache(&obj, Budget::Evaluations(64), FAULT_SEED, &dirs[0]);
        let batch = evaluator_with_cache(&obj, Budget::Evaluations(64), FAULT_SEED, &dirs[1]);
        crate::fault::uninstall();

        let (one_losses, one_obs) = tallied(|| {
            proposals
                .iter()
                .map(|p| one.try_eval(p).unwrap_or(f64::INFINITY))
                .collect::<Vec<_>>()
        });
        let (batch_losses, batch_obs) = tallied(|| {
            proposals
                .chunks(5)
                .flat_map(|chunk| batch.eval_batch(chunk).unwrap())
                .collect::<Vec<_>>()
        });
        let bits = |losses: &[f64]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one_losses), bits(&batch_losses));
        let summary = |ev: &Evaluator<'_>| {
            (
                ev.evaluations(),
                ev.cache_hits(),
                ev.cache_misses(),
                ev.eval_panics(),
                ev.eval_nonfinite(),
                ev.failures()
                    .iter()
                    .map(|(i, f)| (*i, f.to_string()))
                    .collect::<Vec<_>>(),
                ev.best().map(|(l, u, c)| (l.to_bits(), u, c)),
                ev.trace()
                    .iter()
                    .map(|t| (t.evaluations, t.best_loss.to_bits()))
                    .collect::<Vec<_>>(),
            )
        };
        let one_summary = summary(&one);
        assert_eq!(one_summary, summary(&batch));
        assert_eq!(one_summary.0, 12, "four memo hits, twelve evaluations");
        let injected: Vec<usize> = one_summary
            .5
            .iter()
            .filter(|(_, f)| f.contains("injected fault"))
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(injected, vec![4, 7], "a disk replay is never faulted");
        drop((one, batch));
        assert_eq!(shard_bytes(&dirs[0]), shard_bytes(&dirs[1]));
        assert_eq!(one_obs, batch_obs);
        // A disk miss is a keyed lookup that found nothing; every point
        // the objective ran for, failed or not, spent simulator time.
        assert_eq!(one_obs.get("disk_cache_hits"), Some(&6));
        assert_eq!(one_obs.get("disk_cache_misses"), Some(&4));
        assert_eq!(one_obs.get("eval_latency_secs"), Some(&6));
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
