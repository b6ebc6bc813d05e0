//! The seven workloads. Each repetition rebuilds its inputs from the seed
//! (family and datasets, platform and activities, temp dirs, daemon), runs
//! to the answer, and checks the answer; sizes are evaluation and activity
//! counts, never seconds, so every repetition does identical work.

use crate::kernelgen::{self, KernelInput};
use crate::stats::Tally;
use crate::surface::{self, FamilyKind, JobParams, Policy, SweepReport, SweepSpec};
use crate::trace::Ctx;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WfSim,
    WfOpt,
    GridSh,
    MpiDurable,
    BatchCalibd,
    KernelClustered,
    KernelBackbone,
}

/// A sweep workload's shape: which family, at which grid, under which plan.
struct SweepShape {
    kind: FamilyKind,
    fast: bool,
    policy: Policy,
    restarts: usize,
}

impl SweepShape {
    fn spec(&self, seed: u64) -> SweepSpec {
        SweepSpec {
            policy: self.policy,
            restarts: self.restarts,
            seed,
        }
    }
}

// Sizes are the tuning knob: each repetition takes 1-2 s on a 2-vCPU
// host, so a 10 s run holds at least five. README.md has the measurements
// behind every number here.

/// Simulator-bound: 240 runs of exactly BO-GP's 16-point initial design,
/// so no surrogate is ever fitted and 99 % of calibrate time is inside
/// wfsim + dessim. The fast grid with ten restarts, not the full grid with
/// one: the full grid at this budget spends 45 % of its time evaluating 60
/// near-random calibrations on the held-out sets, whose cost swings +-20 %
/// with the seed (README.md).
const WF_SIM: SweepShape = SweepShape {
    kind: FamilyKind::Wf,
    fast: true,
    policy: Policy::PerRun { evals: 16 },
    restarts: 10,
};
/// Optimizer-bound: cheap scenarios (the fast grid, 24 units) and medium
/// histories, so more than half of calibrate time is GP fit + acquisition.
const WF_OPT: SweepShape = SweepShape {
    kind: FamilyKind::Wf,
    fast: true,
    policy: Policy::PerRun { evals: 130 },
    restarts: 1,
};
/// The other sweep path: 16 runs down a five-rung ladder on scenario
/// subsets, the last run with a 400-point history.
const GRID_SH: SweepShape = SweepShape {
    kind: FamilyKind::Grid,
    fast: false,
    policy: Policy::Halving {
        total: 2000,
        eta: 2,
        min_scenarios: 1,
    },
    restarts: 2,
};
/// mpisim-bound with durable writes (cold), then the same answer from the
/// loss cache and from the ledger.
const MPI_DURABLE: SweepShape = SweepShape {
    kind: FamilyKind::Mpi,
    fast: false,
    policy: Policy::PerRun { evals: 100 },
    restarts: 1,
};

/// `batch --fast`, 20 evaluations, 1 restart: ~11 ms as an in-process
/// sweep, so the service around it does most of the work.
const CALIBD_JOB_EVALS: usize = 20;
const CALIBD_JOBS_PER_DAEMON: usize = 10;
const CALIBD_TENANTS: usize = 4;
const KERNEL_CLUSTERED_N: usize = 200_000;
/// 30 groups. The generator's modular arithmetic makes the cost of a
/// backbone run jump with the parity of the group count (README.md), so
/// the size is one where ten seeds agree within 2 %.
const KERNEL_BACKBONE_N: usize = 3_900;

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::WfSim,
        Workload::WfOpt,
        Workload::GridSh,
        Workload::MpiDurable,
        Workload::BatchCalibd,
        Workload::KernelClustered,
        Workload::KernelBackbone,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WfSim => "wf_sim",
            Workload::WfOpt => "wf_opt",
            Workload::GridSh => "grid_sh",
            Workload::MpiDurable => "mpi_durable",
            Workload::BatchCalibd => "batch_calibd",
            Workload::KernelClustered => "kernel_clustered",
            Workload::KernelBackbone => "kernel_backbone",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes behind the workload, for the output stamp.
    pub fn sizes(self) -> String {
        let sweep = |s: &SweepShape| {
            let policy = match s.policy {
                Policy::PerRun { evals } => format!("per_run:{evals}"),
                Policy::Halving {
                    total,
                    eta,
                    min_scenarios,
                } => format!("halving:{total}/eta{eta}/min{min_scenarios}"),
            };
            format!(
                "family={} fast={} policy={policy} restarts={}",
                s.kind.name(),
                s.fast,
                s.restarts
            )
        };
        match self {
            Workload::WfSim => sweep(&WF_SIM),
            Workload::WfOpt => sweep(&WF_OPT),
            Workload::GridSh => sweep(&GRID_SH),
            Workload::MpiDurable => format!("{} phases=cold,warm,resume", sweep(&MPI_DURABLE)),
            Workload::BatchCalibd => format!(
                "family=batch fast=true evals={CALIBD_JOB_EVALS} restarts=1 \
                 jobs_per_daemon={CALIBD_JOBS_PER_DAEMON} tenants={CALIBD_TENANTS} workers=1 \
                 shards={}",
                surface::SERVICE_SHARDS
            ),
            Workload::KernelClustered => format!("activities={KERNEL_CLUSTERED_N}"),
            Workload::KernelBackbone => format!(
                "activities={KERNEL_BACKBONE_N} cross_flows={}",
                kernelgen::BACKBONE_CROSS_FLOWS
            ),
        }
    }
}

/// What one repetition measured and found.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Seconds to build the inputs.
    pub setup_s: f64,
    /// Inputs ready → answer: one sample per repetition, or one per job on
    /// `batch_calibd`.
    pub walls: Vec<f64>,
    /// `mpi_durable`: seconds to re-obtain the answer from durable state.
    pub rerun_s: Option<f64>,
    /// Fingerprint of the generated inputs: the same seed gives the same.
    pub inputs: u64,
    /// The answer's digest; every repetition must produce the same one.
    pub digest: String,
    pub evaluations: Option<u64>,
    pub error_pct: Option<f64>,
    pub tally: Tally,
    /// Consistency checks that did not hold.
    pub violations: Vec<String>,
    /// Seconds inside `family.calibrate*` that `simcal.sim_share` is a
    /// share of (the cold phase on `mpi_durable`); 0 without a sweep.
    pub calibrate_s: f64,
    /// Per-layer values only this workload can give, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Rep {
    fn failed(message: String) -> Self {
        Rep {
            tally: Tally {
                attempted: 1,
                failed: 1,
            },
            violations: vec![message],
            ..Rep::default()
        }
    }

    fn take_sweep(&mut self, report: &SweepReport) {
        self.digest = report.digest.clone();
        self.evaluations = Some(report.evaluations);
        self.error_pct = report.recommended.as_ref().map(|(_, e)| *e);
        self.tally.merge(report.tally);
        if report.recommended.is_none() {
            self.violations
                .push("sweep produced no recommendation".into());
        }
    }
}

fn sweep_layer(report: &SweepReport, sweep_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("lodsel.calibrate_s", report.calibrate_s),
        ("lodsel.evaluate_s", report.evaluate_s),
        (
            "lodsel.sweep_self_s",
            sweep_s - report.calibrate_s - report.evaluate_s,
        ),
    ]
}

/// A scratch directory of this process under `perf/out`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = crate::stamp::out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        // A leftover of a killed earlier process with the same pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn plain_sweep(shape: &SweepShape, seed: u64, ctx: Ctx) -> Rep {
    let (family, setup_s) = ctx.timed("setup", |_| surface::family(shape.kind, shape.fast, seed));
    let (report, sweep_s) = ctx.timed("sweep", |c| {
        surface::sweep(&family, &shape.spec(seed), None, None, c)
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => return Rep::failed(format!("sweep: {e}")),
    };
    let mut rep = Rep {
        setup_s,
        inputs: family.fingerprint(),
        walls: vec![sweep_s],
        calibrate_s: report.calibrate_s,
        layer: sweep_layer(&report, sweep_s),
        ..Rep::default()
    };
    rep.take_sweep(&report);
    rep
}

/// Cold sweep with loss cache and ledger, the same sweep again on the warm
/// cache with a fresh ledger, then a re-invocation on the complete ledger.
fn mpi_durable(seed: u64, rep_index: usize, ctx: Ctx) -> Rep {
    let shape = &MPI_DURABLE;
    let (inputs, setup_s) = ctx.timed("setup", |_| {
        let scratch = Scratch::new(&format!("mpi-{rep_index}"))?;
        Ok::<_, std::io::Error>((surface::family(shape.kind, shape.fast, seed), scratch))
    });
    let (family, scratch) = match inputs {
        Ok(v) => v,
        Err(e) => return Rep::failed(format!("scratch dir: {e}")),
    };
    let spec = shape.spec(seed);
    let cache = scratch.path().join("cache");
    let first_ledger = scratch.path().join("cold.jsonl");
    let phase = |name: &str, ledger: &Path| {
        ctx.timed(name, |c| {
            surface::sweep(&family, &spec, Some(ledger), Some(&cache), c)
        })
    };

    let (cold, cold_s) = phase("sweep", &first_ledger);
    let cache_bytes = dir_bytes(&cache);
    let (warm, warm_s) = phase("sweep.warm", &scratch.path().join("warm.jsonl"));
    let cache_grew = dir_bytes(&cache) != cache_bytes;
    let (resume, resume_s) = phase("sweep.resume", &first_ledger);
    let (cold, warm, resume) = match (cold, warm, resume) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            let errors: Vec<String> = [a.err(), b.err(), c.err()].into_iter().flatten().collect();
            return Rep::failed(format!("sweep: {}", errors.join("; ")));
        }
    };

    let mut rep = Rep {
        setup_s,
        inputs: family.fingerprint(),
        walls: vec![cold_s + warm_s + resume_s],
        rerun_s: Some(warm_s + resume_s),
        calibrate_s: cold.calibrate_s,
        layer: sweep_layer(&cold, cold_s),
        ..Rep::default()
    };
    rep.layer.extend([
        ("lodsel.cold_sweep_s", cold_s),
        ("lodsel.warm_sweep_s", warm_s),
        ("lodsel.ledger.resume_s", resume_s),
    ]);
    rep.take_sweep(&cold);
    rep.tally.merge(warm.tally);
    rep.tally.merge(resume.tally);
    if warm.digest != cold.digest || resume.digest != cold.digest {
        rep.violations.push(format!(
            "durable reruns disagree: cold {} warm {} resume {}",
            cold.digest, warm.digest, resume.digest
        ));
    }
    // A fresh objective invocation would append its loss to a cache shard.
    if cache_bytes == 0 || cache_grew {
        rep.violations.push(format!(
            "warm sweep invoked the objective (cache {cache_bytes} bytes, grew: {cache_grew})"
        ));
    }
    if resume.tally.attempted != 0 {
        rep.violations.push(format!(
            "resume on a complete ledger made {} family calls",
            resume.tally.attempted
        ));
    }
    rep
}

fn calibd_job(seed: u64, index: usize) -> JobParams {
    JobParams {
        family: FamilyKind::Batch,
        evals: CALIBD_JOB_EVALS,
        restarts: 1,
        seed,
        tenant: format!("tenant-{}", index % CALIBD_TENANTS),
    }
}

/// A fresh daemon, one client, a closed loop of jobs over one connection.
fn batch_calibd(seed: u64, rep_index: usize, ctx: Ctx) -> Rep {
    let job = calibd_job(seed, 0);
    // Inputs here are the datasets, the answer every job must give (the same
    // spec as an in-process sweep), and the service. The service alone is
    // 0.4 ms of thread spawns and socket calls that no two runs agree on
    // within 30 %; the 11 ms sweep beside it makes `setup_s` hold, and
    // `calibd.start_connect_ms` carries the service part on its own.
    let (built, setup_s) = ctx.timed("setup", |c| {
        let scratch = Scratch::new(&format!("calibd-{rep_index}")).map_err(|e| e.to_string())?;
        let family = surface::family(job.family, true, seed);
        let reference = surface::sweep(&family, &job.sweep_spec(), None, None, Ctx::OFF)?;
        let (service, service_s) = c.timed("service", |_| surface::service_start(scratch.path()));
        Ok::<_, String>((scratch, family, reference, service?, service_s))
    });
    let (scratch, family, reference, mut service, service_s) = match built {
        Ok(v) => v,
        Err(e) => return Rep::failed(e),
    };
    let mut rep = Rep {
        setup_s,
        inputs: family.fingerprint(),
        digest: reference.digest.clone(),
        error_pct: reference.recommended.as_ref().map(|(_, e)| *e),
        // Per job, like the wall samples: what the daemon charges the tenant.
        evaluations: Some(job.planned_evaluations(family.units())),
        ..Rep::default()
    };
    let mut digests = Vec::new();
    let (mut submit_s, mut frames, mut last_job) = (0.0, 0u64, None);
    for index in 0..CALIBD_JOBS_PER_DAEMON {
        let job = calibd_job(seed, index);
        let (report, wall) = ctx.timed("job", |c| service.run_job(&job, c));
        rep.tally.add(1, u64::from(!report.completed));
        rep.walls.push(wall);
        submit_s += report.submit_s;
        frames += report.watch_frames;
        last_job = report.id.or(last_job);
        digests.push(report.digest);
    }
    let status_s = last_job.map(|id| service.status_rtt(id, ctx));
    service.stop();

    for (index, digest) in digests.iter().enumerate() {
        if digest.as_deref() != Some(reference.digest.as_str()) {
            rep.violations.push(format!(
                "job {index} digest {digest:?} differs from in-process {}",
                reference.digest
            ));
        }
    }

    let jobs = CALIBD_JOBS_PER_DAEMON as f64;
    rep.layer = vec![
        ("calibd.start_connect_ms", service_s * 1e3),
        ("calibd.submit_rtt_ms", submit_s / jobs * 1e3),
        ("calibd.watch_frames_per_job", frames as f64 / jobs),
    ];
    match status_s {
        Some(Ok(secs)) => rep.layer.push(("calibd.status_rtt_ms", secs * 1e3)),
        Some(Err(e)) => rep.violations.push(format!("status: {e}")),
        None => {}
    }
    // The traced run compares against the sweep as the daemon executes it.
    let (baseline, baseline_s) = ctx.timed("probe.calibd.inprocess", |c| {
        surface::sweep_sharded(
            &family,
            &job.sweep_spec(),
            surface::SERVICE_SHARDS,
            &scratch.path().join("inprocess"),
            c,
        )
    });
    match baseline {
        Ok(_) => {
            rep.layer
                .push(("calibd.inprocess_ms_per_job", baseline_s * 1e3));
            rep.layer.push((
                "calibd.overhead_ms_per_job",
                (crate::stats::median(&rep.walls) - baseline_s) * 1e3,
            ));
        }
        Err(e) => rep
            .violations
            .push(format!("in-process sharded sweep: {e}")),
    }
    rep
}

fn kernel(generate: fn(usize, u64) -> KernelInput, n: usize, seed: u64, ctx: Ctx) -> Rep {
    let ((job, input), setup_s) = ctx.timed("setup", |_| {
        let input = generate(n, seed);
        (surface::kernel_job(&input), input)
    });
    // Bookkeeping, not set-up; and the description must not sit in memory
    // beside the engine.
    let inputs = input.fingerprint();
    drop(input);
    let (report, wall) = ctx.timed("kernel", |c| surface::kernel_run(job, c));
    let mut rep = Rep {
        setup_s,
        inputs,
        walls: vec![wall],
        digest: format!("{:016x}", report.hash),
        tally: Tally {
            attempted: n as u64,
            failed: (n as u64).saturating_sub(report.completed),
        },
        ..Rep::default()
    };
    if report.completed != n as u64 {
        rep.violations
            .push(format!("{} of {n} activities completed", report.completed));
    }
    if !report.ordered {
        rep.violations.push("completion times decreased".into());
    }
    let events = report.events.max(1) as f64;
    rep.layer = vec![
        ("dessim.events_per_s", report.events as f64 / report.run_s),
        (
            "dessim.resolves_per_event",
            report.sharing_resolves as f64 / events,
        ),
        (
            "dessim.frontier_links_per_resolve",
            report.frontier_links as f64 / report.sharing_resolves.max(1) as f64,
        ),
        (
            "dessim.heap_reinserts_per_event",
            report.heap_reinserts as f64 / events,
        ),
        ("dessim.arena_bytes", report.arena_bytes as f64),
        ("dessim.add_activities_s", report.add_s),
    ];
    rep
}

/// Spin for 20 ms. A repetition that follows idle time (the first of a
/// process; every one of `batch_calibd`, whose jobs mostly wait) would
/// otherwise time its set-up on a core that is still waking up.
fn wake_the_core() {
    let start = std::time::Instant::now();
    while start.elapsed() < std::time::Duration::from_millis(20) {
        std::hint::spin_loop();
    }
}

/// One repetition of `workload` on inputs generated from `seed`.
pub fn run_rep(workload: Workload, seed: u64, rep_index: usize, ctx: Ctx) -> Rep {
    wake_the_core();
    match workload {
        Workload::WfSim => plain_sweep(&WF_SIM, seed, ctx),
        Workload::WfOpt => plain_sweep(&WF_OPT, seed, ctx),
        Workload::GridSh => plain_sweep(&GRID_SH, seed, ctx),
        Workload::MpiDurable => mpi_durable(seed, rep_index, ctx),
        Workload::BatchCalibd => batch_calibd(seed, rep_index, ctx),
        Workload::KernelClustered => kernel(kernelgen::clustered, KERNEL_CLUSTERED_N, seed, ctx),
        Workload::KernelBackbone => kernel(kernelgen::backbone, KERNEL_BACKBONE_N, seed, ctx),
    }
}
