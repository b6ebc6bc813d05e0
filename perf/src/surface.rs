//! Every call the benchmark makes into the workspace goes through this
//! file, and only through public functions of the six layers. A change to a
//! layer's public surface (collapsing the family adapters, demoting the
//! reference engine, merging the durable logs) meets the benchmark here and
//! nowhere else. No dependency on `lodcal-bench` or `dessim::ReferenceEngine`.

use crate::kernelgen::{Activity, KernelInput, SplitMix};
use crate::stats::Tally;
use crate::trace::Ctx;
use batchsim::prelude::BatchVersion;
use calibd::client::Client;
use calibd::daemon::{Daemon, DaemonConfig, DaemonHandle};
use calibd::proto::{JobSpec, JobState};
use dessim::{ActivityKind, Engine, LinkId, Platform};
use gridsim::prelude::GridVersion;
use lodsel::prelude::{
    merge_shards, run_shard, run_sweep_sharded, shard_path, try_run_sweep, BatchFamily,
    BudgetPolicy, GridFamily, Ledger, MpiFamily, SweepConfig, SweepOutcome, SweepUnit, UnitEval,
    VersionFamily, WfFamily,
};
use mpisim::prelude::MpiSimulatorVersion;
use numeric::Matrix;
use simcal::prelude::{
    Budget, CacheFingerprint, CachedOutcome, Calibration, CalibrationResult, DiskCache, Evaluator,
    Fidelity, FnObjective, ParamKind, ParameterSpace, SurrogateKind,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wfsim::prelude::SimulatorVersion;

// ---------------------------------------------------------------------------
// Families and sweeps (lodsel over simcal over the four simulators)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyKind {
    Wf,
    Mpi,
    Batch,
    Grid,
}

impl FamilyKind {
    pub const ALL: [FamilyKind; 4] = [
        FamilyKind::Wf,
        FamilyKind::Mpi,
        FamilyKind::Batch,
        FamilyKind::Grid,
    ];

    /// The family's name in lodsel and on the calibd wire.
    pub fn name(self) -> &'static str {
        match self {
            FamilyKind::Wf => "wf",
            FamilyKind::Mpi => "mpi",
            FamilyKind::Batch => "batch",
            FamilyKind::Grid => "grid",
        }
    }

    /// The simulator crate behind the family: the layer its probes name.
    pub fn simulator(self) -> &'static str {
        match self {
            FamilyKind::Wf => "wfsim",
            FamilyKind::Mpi => "mpisim",
            FamilyKind::Batch => "batchsim",
            FamilyKind::Grid => "gridsim",
        }
    }
}

/// A paper family with what the probes need beside the trait: every
/// version's parameter space and every unit's held-out scenario count.
pub struct Family {
    inner: Box<dyn VersionFamily>,
    spaces: Vec<ParameterSpace>,
    unit_scenarios: Vec<usize>,
    pub cheapest: String,
    pub richest: String,
}

pub fn family(kind: FamilyKind, fast: bool, seed: u64) -> Family {
    match kind {
        FamilyKind::Wf => {
            let f = WfFamily::paper(fast, seed);
            let per_app: Vec<usize> = f.splits().iter().map(|s| s.test.len()).collect();
            Family {
                unit_scenarios: f.units().iter().map(|u| per_app[u.slot]).collect(),
                spaces: SimulatorVersion::all()
                    .iter()
                    .map(|v| v.parameter_space())
                    .collect(),
                cheapest: SimulatorVersion::lowest_detail().label(),
                richest: SimulatorVersion::highest_detail().label(),
                inner: Box::new(f),
            }
        }
        FamilyKind::Mpi => {
            let f = MpiFamily::paper(fast, seed);
            Family {
                unit_scenarios: vec![f.scenarios().len(); f.units().len()],
                spaces: MpiSimulatorVersion::all()
                    .iter()
                    .map(|v| v.parameter_space())
                    .collect(),
                cheapest: MpiSimulatorVersion::lowest_detail().label(),
                richest: MpiSimulatorVersion::highest_detail().label(),
                inner: Box::new(f),
            }
        }
        FamilyKind::Batch => {
            let f = BatchFamily::paper(fast, seed);
            Family {
                unit_scenarios: vec![f.test().len(); f.units().len()],
                spaces: BatchVersion::all()
                    .iter()
                    .map(|v| v.parameter_space())
                    .collect(),
                cheapest: BatchVersion::lowest_detail().label(),
                richest: BatchVersion::highest_detail().label(),
                inner: Box::new(f),
            }
        }
        FamilyKind::Grid => {
            let f = GridFamily::paper(fast, seed);
            Family {
                unit_scenarios: vec![f.test().len(); f.units().len()],
                spaces: GridVersion::all()
                    .iter()
                    .map(|v| v.parameter_space())
                    .collect(),
                cheapest: GridVersion::lowest_detail().label(),
                richest: GridVersion::highest_detail().label(),
                inner: Box::new(f),
            }
        }
    }
}

impl Family {
    /// Content hash of the generated datasets.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    pub fn units(&self) -> usize {
        self.inner.units().len()
    }
}

/// The benchmark's `VersionFamily` adapter: counts the evaluations every
/// calibration charges and puts a span (and a clock) around each call the
/// sweep makes into the family.
struct Instrumented<'a> {
    inner: &'a dyn VersionFamily,
    ctx: Ctx<'a>,
    calls: AtomicU64,
    evaluations: AtomicU64,
    calibrate_ns: AtomicU64,
    evaluate_ns: AtomicU64,
}

impl<'a> Instrumented<'a> {
    fn new(inner: &'a dyn VersionFamily, ctx: Ctx<'a>) -> Self {
        Self {
            inner,
            ctx,
            calls: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            calibrate_ns: AtomicU64::new(0),
            evaluate_ns: AtomicU64::new(0),
        }
    }

    fn calibration(
        &self,
        span: &str,
        run: impl FnOnce() -> CalibrationResult,
    ) -> CalibrationResult {
        let (result, secs) = self.ctx.timed(span, |_| run());
        // Relaxed: statistics read after the sweep has joined its workers.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.evaluations
            .fetch_add(result.evaluations as u64, Ordering::Relaxed);
        self.calibrate_ns
            .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
        result
    }

    fn report(&self, outcome: &SweepOutcome) -> SweepReport {
        let recommended = outcome.recommendation.as_ref().and_then(|r| {
            let version = outcome.versions.iter().find(|v| v.label == r.chosen)?;
            Some((r.chosen.clone(), version.test_error * 100.0))
        });
        SweepReport {
            digest: outcome.digest(),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            tally: Tally {
                attempted: self.calls.load(Ordering::Relaxed),
                failed: outcome.failures.len() as u64,
            },
            recommended,
            calibrate_s: self.calibrate_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            evaluate_s: self.evaluate_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl VersionFamily for Instrumented<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn version_labels(&self) -> Vec<String> {
        self.inner.version_labels()
    }

    fn dim(&self, version: usize) -> usize {
        self.inner.dim(version)
    }

    fn units(&self) -> Vec<SweepUnit> {
        self.inner.units()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        self.calibration("family.calibrate", || {
            self.inner.calibrate(unit, budget, seed)
        })
    }

    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        self.calibration("family.calibrate_at", || {
            self.inner.calibrate_at(unit, budget, seed, fidelity)
        })
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let (eval, secs) = self.ctx.timed("family.evaluate", |_| {
            self.inner.evaluate(unit, calibration)
        });
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.evaluate_ns
            .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
        eval
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Policy {
    /// Every run gets `evals` evaluations.
    PerRun { evals: usize },
    /// Successive halving over the whole plan.
    Halving {
        total: usize,
        eta: usize,
        min_scenarios: usize,
    },
}

/// Budgets are evaluation counts, never seconds, so the work of a
/// repetition is the same on both sides of any comparison.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec {
    pub policy: Policy,
    pub restarts: usize,
    pub seed: u64,
}

impl SweepSpec {
    fn config(&self, cache: Option<&Path>) -> SweepConfig {
        SweepConfig {
            budget: match self.policy {
                Policy::PerRun { evals } => BudgetPolicy::PerRun {
                    budget: Budget::Evaluations(evals),
                },
                Policy::Halving {
                    total,
                    eta,
                    min_scenarios,
                } => BudgetPolicy::SuccessiveHalving {
                    total,
                    eta,
                    min_scenarios,
                },
            },
            cache: cache.map(Path::to_path_buf),
            ..SweepConfig::per_run(Budget::Evaluations(1), self.restarts, self.seed)
        }
    }
}

#[derive(Clone, Debug)]
pub struct SweepReport {
    pub digest: String,
    /// Evaluations charged across all calibration runs.
    pub evaluations: u64,
    /// Calls into the family (runs and held-out unit evaluations) against
    /// the failure rows of the outcome.
    pub tally: Tally,
    /// The ε-recommendation: version label and its held-out error in %.
    pub recommended: Option<(String, f64)>,
    pub calibrate_s: f64,
    pub evaluate_s: f64,
}

/// One sweep to its recommendation; with `ledger`/`cache` the durable paths
/// are opened here, inside the caller's span, as a user's invocation would.
pub fn sweep(
    family: &Family,
    spec: &SweepSpec,
    ledger: Option<&Path>,
    cache: Option<&Path>,
    ctx: Ctx,
) -> Result<SweepReport, String> {
    let ledger = ledger
        .map(Ledger::open)
        .transpose()
        .map_err(|e| e.to_string())?;
    let adapter = Instrumented::new(family.inner.as_ref(), ctx);
    let outcome =
        try_run_sweep(&adapter, &spec.config(cache), ledger.as_ref()).map_err(|e| e.to_string())?;
    Ok(adapter.report(&outcome))
}

/// The same sweep the way calibd executes it: shard ledgers under `dir`,
/// merge, replay.
pub fn sweep_sharded(
    family: &Family,
    spec: &SweepSpec,
    shards: usize,
    dir: &Path,
    ctx: Ctx,
) -> Result<SweepReport, String> {
    let adapter = Instrumented::new(family.inner.as_ref(), ctx);
    let outcome =
        run_sweep_sharded(&adapter, &spec.config(None), shards, dir).map_err(|e| e.to_string())?;
    Ok(adapter.report(&outcome))
}

// ---------------------------------------------------------------------------
// Kernel (dessim)
// ---------------------------------------------------------------------------

pub struct KernelJob {
    platform: Platform,
    batch: Vec<(ActivityKind, u64)>,
}

pub fn kernel_job(input: &KernelInput) -> KernelJob {
    let mut platform = Platform::new();
    let links: Vec<LinkId> = input
        .links
        .iter()
        .map(|&bandwidth| platform.add_link(bandwidth, 0.0))
        .collect();
    let batch = input
        .activities
        .iter()
        .enumerate()
        .map(|(tag, activity)| {
            let kind = match *activity {
                Activity::Compute { rate, work } => ActivityKind::compute(rate, work),
                Activity::Timer { delay } => ActivityKind::timer(delay),
                Activity::Flow { route, hops, bytes } => ActivityKind::flow(
                    route[..hops as usize]
                        .iter()
                        .map(|&l| links[l as usize])
                        .collect(),
                    bytes,
                ),
            };
            (kind, tag as u64)
        })
        .collect();
    KernelJob { platform, batch }
}

#[derive(Clone, Copy, Debug)]
pub struct KernelReport {
    pub completed: u64,
    /// Completion times never decrease.
    pub ordered: bool,
    /// FNV over every (tag, completion time) in delivery order.
    pub hash: u64,
    pub add_s: f64,
    pub run_s: f64,
    pub events: u64,
    pub heap_reinserts: u64,
    pub sharing_resolves: u64,
    pub frontier_links: u64,
    pub arena_bytes: u64,
}

pub fn kernel_run(job: KernelJob, ctx: Ctx) -> KernelReport {
    let KernelJob { platform, batch } = job;
    let (mut engine, add_s) = ctx.timed("add", |_| {
        let mut engine = Engine::new(platform);
        engine.add_activities(batch);
        engine
    });
    let (completions, run_s) = ctx.timed("run", |_| engine.run_to_completion());
    let mut hash = crate::stamp::Fnv::new();
    let mut ordered = true;
    let mut last = f64::NEG_INFINITY;
    for c in &completions {
        hash.write(&c.tag.to_le_bytes());
        hash.write(&c.time.to_bits().to_le_bytes());
        ordered &= c.time >= last;
        last = c.time;
    }
    let counters = engine.counters();
    KernelReport {
        completed: completions.len() as u64,
        ordered,
        hash: hash.finish(),
        add_s,
        run_s,
        events: counters.events,
        heap_reinserts: counters.heap_reinserts,
        sharing_resolves: counters.sharing_resolves,
        frontier_links: counters.frontier_links,
        arena_bytes: counters.arena_bytes,
    }
}

// ---------------------------------------------------------------------------
// Service (calibd)
// ---------------------------------------------------------------------------

/// An in-process daemon on a free loopback port and one connected client.
pub struct Service {
    daemon: DaemonHandle,
    client: Client,
}

#[derive(Clone, Debug)]
pub struct JobParams {
    pub family: FamilyKind,
    pub evals: usize,
    pub restarts: usize,
    pub seed: u64,
    pub tenant: String,
}

impl JobParams {
    fn spec(&self) -> JobSpec {
        JobSpec {
            family: self.family.name().to_string(),
            fast: true,
            budget_evals: self.evals,
            total_evals: None,
            sh_eta: None,
            sh_min_scenarios: None,
            restarts: self.restarts,
            seed: self.seed,
            epsilon: 0.1,
            shards: 0,
            tenant: self.tenant.clone(),
        }
    }

    /// The same job as an in-process sweep.
    pub fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            policy: Policy::PerRun { evals: self.evals },
            restarts: self.restarts,
            seed: self.seed,
        }
    }

    /// Evaluations the daemon charges for the job.
    pub fn planned_evaluations(&self, units: usize) -> u64 {
        self.spec().planned_evaluations(units) as u64
    }
}

#[derive(Clone, Debug)]
pub struct JobReport {
    /// `None` when the daemon refused the submission.
    pub id: Option<u64>,
    pub completed: bool,
    pub digest: Option<String>,
    pub watch_frames: u64,
    pub submit_s: f64,
}

/// Shards per job: the daemon's default, and what the in-process baseline
/// of `calibd.overhead_ms_per_job` uses.
pub const SERVICE_SHARDS: usize = 2;

pub fn service_start(data_dir: &Path) -> Result<Service, String> {
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        default_shards: SERVICE_SHARDS,
        ..DaemonConfig::local(data_dir)
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    match Client::connect(&daemon.addr().to_string()) {
        Ok(client) => Ok(Service { daemon, client }),
        Err(e) => {
            daemon.stop();
            Err(format!("client connect: {e}"))
        }
    }
}

impl Service {
    /// Submit one job and watch it to its terminal state (closed loop).
    pub fn run_job(&mut self, job: &JobParams, ctx: Ctx) -> JobReport {
        let (submitted, submit_s) = ctx.timed("submit", |_| self.client.submit(job.spec()));
        let Ok(id) = submitted else {
            return JobReport {
                id: None,
                completed: false,
                digest: None,
                watch_frames: 0,
                submit_s,
            };
        };
        let mut watch_frames = 0u64;
        let watched = ctx.span("watch", |_| self.client.watch(id, |_, _| watch_frames += 1));
        let (completed, digest) = match watched {
            Ok((state, digest, _)) => (state == JobState::Completed, digest),
            Err(_) => (false, None),
        };
        JobReport {
            id: Some(id),
            completed,
            digest,
            // Progress frames plus the terminal Done frame.
            watch_frames: watch_frames + 1,
            submit_s,
        }
    }

    /// Round-trip seconds of one `Status` request for `job`.
    pub fn status_rtt(&mut self, job: u64, ctx: Ctx) -> Result<f64, String> {
        let (answer, secs) = ctx.timed("probe.calibd.status", |_| self.client.status(Some(job)));
        answer.map(|_| secs).map_err(|e| e.to_string())
    }

    /// Stop the daemon and wait for its worker and accept threads.
    pub fn stop(self) {
        drop(self.client);
        self.daemon.stop();
    }
}

// ---------------------------------------------------------------------------
// obs counters of a traced repetition
// ---------------------------------------------------------------------------

/// An installed `obs::TraceRecorder`, there only to read the counters and
/// the evaluation-latency histogram the program already keeps.
pub struct ObsProbe(Arc<obs::TraceRecorder>);

#[derive(Clone, Copy, Debug, Default)]
pub struct ObsReadout {
    pub kernel_events: u64,
    /// Objective invocations (memo and disk-cache misses).
    pub objective_calls: u64,
    pub disk_cache_hits: u64,
    /// Sum of the per-evaluation latency histogram: seconds inside the
    /// simulator during calibration.
    pub eval_latency_s: f64,
}

impl ObsProbe {
    pub fn install() -> Self {
        let recorder = Arc::new(obs::TraceRecorder::new());
        obs::install(recorder.clone());
        Self(recorder)
    }

    /// Turn the program's tracing off again and read what it counted.
    pub fn uninstall(self) -> ObsReadout {
        obs::uninstall();
        ObsReadout {
            kernel_events: self.0.counter_value(obs::Counter::KernelEvents),
            objective_calls: self.0.counter_value(obs::Counter::EvalCacheMisses),
            disk_cache_hits: self.0.counter_value(obs::Counter::DiskCacheHits),
            eval_latency_s: self.0.histogram(obs::Hist::EvalLatency).sum_secs,
        }
    }
}

/// Nanoseconds per `obs::span!` with no recorder installed: the price the
/// program pays for its instrumentation when tracing is off.
pub fn disabled_span_ns(ctx: Ctx) -> f64 {
    const SPANS: u32 = 1_000_000;
    assert!(!obs::enabled(), "probe needs tracing off");
    let ((), secs) = ctx.timed("probe.obs.disabled_span", |_| {
        for i in 0..SPANS {
            let guard = obs::span!("probe", index = i);
            std::hint::black_box(guard.id());
        }
    });
    secs * 1e9 / f64::from(SPANS)
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

/// Cost of one version at the midpoint calibration, over its held-out
/// scenarios: what lodsel charges (`work_units`) beside what the clock says.
#[derive(Clone, Debug)]
pub struct VersionCost {
    pub label: String,
    pub scenarios: usize,
    pub work_units: u64,
    pub secs: f64,
}

/// Run every version of `family` over its held-out scenarios at the
/// midpoint of its parameter space (batch and grid have no spec
/// calibration, so all four families use the midpoint).
pub fn simulator_costs(family: &Family, kind: FamilyKind, ctx: Ctx) -> Vec<VersionCost> {
    const REPEATS: usize = 5;
    // Calls per timing: a held-out set can take 0.1 ms, too short to rank
    // versions a few percent apart.
    const SAMPLE_SECS: f64 = 2e-3;
    let labels = family.inner.version_labels();
    let mut costs: Vec<VersionCost> = labels
        .into_iter()
        .map(|label| VersionCost {
            label,
            scenarios: 0,
            work_units: 0,
            secs: 0.0,
        })
        .collect();
    let span = format!("probe.{}.scenarios", kind.simulator());
    ctx.span(&span, |_| {
        for (unit, &scenarios) in family.inner.units().iter().zip(&family.unit_scenarios) {
            let space = &family.spaces[unit.version];
            let midpoint = space.denormalize(&vec![0.5; space.dim()]);
            let time_calls = |calls: usize| {
                let start = Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(family.inner.evaluate(unit, &midpoint));
                }
                start.elapsed().as_secs_f64() / calls as f64
            };
            let calls = ((SAMPLE_SECS / time_calls(1)).ceil() as usize).clamp(1, 64);
            let secs: Vec<f64> = (0..REPEATS).map(|_| time_calls(calls)).collect();
            let cost = &mut costs[unit.version];
            cost.scenarios += scenarios;
            cost.work_units += family.inner.evaluate(unit, &midpoint).work_units;
            cost.secs += crate::stats::median(&secs);
        }
    });
    costs
}

fn unit_points(n: usize, dim: usize, rng: &mut SplitMix) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.unit()).collect())
        .collect()
}

pub const SURROGATES: [&str; 4] = ["gp", "rf", "et", "gbrt"];

/// Seconds to fit surrogate `which` (index into [`SURROGATES`]) on `n`
/// seeded 8-dimensional points, and to predict 512 further points.
pub fn surrogate_fit_predict(which: usize, n: usize, seed: u64, ctx: Ctx) -> (f64, f64) {
    const DIM: usize = 8;
    let mut rng = SplitMix(seed);
    let x = unit_points(n, DIM, &mut rng);
    let y: Vec<f64> = x
        .iter()
        .map(|p| p.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>() + 0.01 * rng.unit())
        .collect();
    let queries = unit_points(512, DIM, &mut rng);
    let mut model = SurrogateKind::ALL[which].build(seed);
    let name = SURROGATES[which];
    let ((), fit_s) = ctx.timed(&format!("probe.simcal.surrogate.{name}.fit_n{n}"), |_| {
        model.fit(&x, &y)
    });
    let ((), predict_s) = ctx.timed(
        &format!("probe.simcal.surrogate.{name}.predict512_n{n}"),
        |_| {
            for q in &queries {
                std::hint::black_box(model.predict(q));
            }
        },
    );
    (fit_s, predict_s)
}

/// Seconds for `Matrix::cholesky` of an `n`×`n` RBF Gram matrix and for one
/// `Cholesky::solve` against it (the mean of 32).
pub fn cholesky_and_solve(n: usize, seed: u64, ctx: Ctx) -> Result<(f64, f64), String> {
    const SOLVES: usize = 32;
    let mut rng = SplitMix(seed);
    let x = unit_points(n, 8, &mut rng);
    let mut gram = Matrix::from_symmetric_fn(n, |i, j| {
        let d2: f64 = x[i].iter().zip(&x[j]).map(|(a, b)| (a - b) * (a - b)).sum();
        (-d2 / (2.0 * 0.5 * 0.5)).exp()
    });
    gram.add_diagonal(1e-6);
    let rhs: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
    let (factor, cholesky_s) =
        ctx.timed(&format!("probe.numeric.cholesky_n{n}"), |_| gram.cholesky());
    let factor = factor.ok_or("probe Gram matrix is not positive definite")?;
    let ((), solve_s) = ctx.timed(&format!("probe.numeric.solve_n{n}"), |_| {
        for _ in 0..SOLVES {
            std::hint::black_box(factor.solve(std::hint::black_box(&rhs)));
        }
    });
    Ok((cholesky_s, solve_s / SOLVES as f64))
}

#[derive(Clone, Copy, Debug)]
pub struct EvaluatorCosts {
    /// Per evaluation of a new point, the objective costing nothing.
    pub cold_s: f64,
    /// Per re-evaluation of a point the evaluator has seen.
    pub memo_hit_s: f64,
    /// Per evaluation served from a pre-filled disk shard.
    pub disk_hit_s: f64,
}

/// `Evaluator::eval` over a zero-cost objective, on its three paths.
pub fn evaluator_costs(cache_dir: &Path, seed: u64, ctx: Ctx) -> EvaluatorCosts {
    const POINTS: usize = 2_000;
    const MEMO_HITS: usize = 200_000;
    let space = (0..4).fold(ParameterSpace::new(), |s, i| {
        s.with(&format!("p{i}"), ParamKind::Continuous { lo: 0.0, hi: 1.0 })
    });
    let points = unit_points(POINTS, 4, &mut SplitMix(seed));
    let eval_all = |evaluator: &Evaluator| {
        for p in &points {
            std::hint::black_box(evaluator.eval(p));
        }
    };
    let objective = FnObjective::new(space.clone(), |c: &Calibration| c.values[0]);
    // One evaluation to spare: an exhausted evaluator answers before it
    // looks a point up, and memo hits are free.
    let evaluator = Evaluator::new(&objective, Budget::Evaluations(POINTS + 1));
    let ((), cold_s) = ctx.timed("probe.simcal.eval.cold", |_| eval_all(&evaluator));
    let ((), memo_s) = ctx.timed("probe.simcal.eval.memo_hit", |_| {
        for _ in 0..MEMO_HITS {
            std::hint::black_box(evaluator.eval(&points[0]));
        }
    });

    // Disk path: one evaluator fills the shard, a second one (same
    // fingerprint and seed, empty memo map) is served from it.
    let fingerprinted = FnObjective::new(space, |c: &Calibration| c.values[0])
        .with_cache_fingerprint(CacheFingerprint::of("perf", "probe", seed));
    simcal::cache::install(cache_dir);
    let fill = Evaluator::new(&fingerprinted, Budget::Evaluations(POINTS)).with_seed(seed);
    eval_all(&fill);
    let served = Evaluator::new(&fingerprinted, Budget::Evaluations(POINTS)).with_seed(seed);
    let ((), disk_s) = ctx.timed("probe.simcal.eval.disk_hit", |_| eval_all(&served));
    simcal::cache::uninstall();
    EvaluatorCosts {
        cold_s: cold_s / POINTS as f64,
        memo_hit_s: memo_s / MEMO_HITS as f64,
        disk_hit_s: disk_s / POINTS as f64,
    }
}

/// Seconds per `DiskCache::store` while filling a shard with `records`
/// records, and seconds to `DiskCache::open` that shard again.
pub fn disk_cache_costs(dir: &Path, records: usize, seed: u64, ctx: Ctx) -> (f64, f64) {
    let points = unit_points(records, 4, &mut SplitMix(seed));
    let cache = DiskCache::open(dir, seed);
    let ((), store_s) = ctx.timed("probe.simcal.cache.store", |_| {
        for p in &points {
            cache.store(p, CachedOutcome::Loss { loss: p[0] });
        }
    });
    drop(cache);
    let (reopened, open_s) = ctx.timed("probe.simcal.cache.open", |_| DiskCache::open(dir, seed));
    assert_eq!(reopened.len(), records, "shard lost records");
    (store_s / records as f64, open_s)
}

#[derive(Clone, Copy, Debug)]
pub struct LedgerCosts {
    /// Per `Ledger::append` of a real sweep's events.
    pub append_s: f64,
    /// `Ledger::open` of the ledger those appends produced (2 000 events
    /// or a little more).
    pub open_s: f64,
    /// `merge_shards` of the sweep's two shard ledgers.
    pub merge_s: f64,
}

/// Ledger and shard-merge costs on the events of a small real sweep
/// (`family` run as two shards under `dir`).
pub fn ledger_costs(
    family: &Family,
    spec: &SweepSpec,
    dir: &Path,
    ctx: Ctx,
) -> Result<LedgerCosts, String> {
    const TARGET_EVENTS: usize = 2_000;
    let config = spec.config(None);
    let fam = family.inner.as_ref();
    for index in 0..SERVICE_SHARDS {
        run_shard(fam, &config, index, SERVICE_SHARDS, dir).map_err(|e| e.to_string())?;
    }
    let shards: Vec<PathBuf> = (0..SERVICE_SHARDS).map(|i| shard_path(dir, i)).collect();
    let (merged, merge_s) = ctx.timed("probe.lodsel.shard.merge", |_| {
        merge_shards(&shards, &dir.join("merged.jsonl"))
    });
    let merged = merged.map_err(|e| e.to_string())?;
    try_run_sweep(fam, &config, Some(&merged)).map_err(|e| e.to_string())?;
    let events = merged.events();

    let path = dir.join("appended.jsonl");
    let fresh = Ledger::open(&path).map_err(|e| e.to_string())?;
    let rounds = TARGET_EVENTS.div_ceil(events.len().max(1));
    let (appended, append_s) = ctx.timed("probe.lodsel.ledger.append", |_| {
        (0..rounds).try_for_each(|_| events.iter().try_for_each(|e| fresh.append(e)))
    });
    appended.map_err(|e| e.to_string())?;
    drop(fresh);
    let (reopened, open_s) = ctx.timed("probe.lodsel.ledger.open", |_| Ledger::open(&path));
    let total = reopened.map_err(|e| e.to_string())?.events().len();
    Ok(LedgerCosts {
        append_s: append_s / total.max(1) as f64,
        open_s,
        merge_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_seed_gives_another_dataset() {
        let a = family(FamilyKind::Batch, true, 20250706);
        assert_eq!(
            a.fingerprint(),
            family(FamilyKind::Batch, true, 20250706).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            family(FamilyKind::Batch, true, 7).fingerprint()
        );
        assert_eq!(a.units(), 4);
        assert_eq!(a.spaces.len(), 4);
    }

    #[test]
    fn kernel_job_runs_every_generated_activity() {
        let input = crate::kernelgen::backbone(1_000, 3);
        let report = kernel_run(kernel_job(&input), Ctx::OFF);
        assert_eq!(report.completed, 1_000);
        assert_eq!(report.events, 1_000);
        assert!(report.ordered);
        assert_eq!(
            report.hash,
            kernel_run(kernel_job(&input), Ctx::OFF).hash,
            "the kernel is deterministic"
        );
    }

    #[test]
    fn service_completes_a_job_and_refuses_a_bad_one() {
        let scratch = crate::workloads::Scratch::new("test-service").unwrap();
        let mut service = service_start(scratch.path()).unwrap();
        let good = JobParams {
            family: FamilyKind::Batch,
            evals: 6,
            restarts: 1,
            seed: 5,
            tenant: "t".into(),
        };
        let done = service.run_job(&good, Ctx::OFF);
        assert!(done.completed && done.id.is_some());
        assert!(done.watch_frames >= 1);
        let fam = family(FamilyKind::Batch, true, 5);
        let reference = sweep(&fam, &good.sweep_spec(), None, None, Ctx::OFF).unwrap();
        assert_eq!(done.digest.as_deref(), Some(reference.digest.as_str()));
        assert_eq!(good.planned_evaluations(fam.units()), reference.evaluations);
        assert!(service.status_rtt(done.id.unwrap(), Ctx::OFF).unwrap() > 0.0);
        // The daemon refuses a job without a budget: not completed, and the
        // workload counts it as failed.
        let refused = service.run_job(&JobParams { evals: 0, ..good }, Ctx::OFF);
        assert!(!refused.completed && refused.id.is_none() && refused.digest.is_none());
        service.stop();
    }

    #[test]
    fn adapter_counts_what_the_sweep_charges() {
        let fam = family(FamilyKind::Batch, true, 5);
        let spec = SweepSpec {
            policy: Policy::PerRun { evals: 6 },
            restarts: 1,
            seed: 5,
        };
        let report = sweep(&fam, &spec, None, None, Ctx::OFF).unwrap();
        // 4 versions x 1 restart x 6 evaluations; 4 runs + 4 unit evaluations.
        assert_eq!(report.evaluations, 24);
        assert_eq!(
            report.tally,
            Tally {
                attempted: 8,
                failed: 0
            }
        );
        assert!(report.recommended.is_some());
        assert_eq!(
            report.digest,
            sweep(&fam, &spec, None, None, Ctx::OFF).unwrap().digest
        );
    }
}
