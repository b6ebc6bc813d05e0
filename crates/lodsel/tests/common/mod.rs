//! Shared toy [`VersionFamily`] for the golden and resume tests: four
//! one-parameter versions whose calibration is a real (cheap, fully
//! deterministic) BO run, and whose held-out "evaluation" is synthetic so
//! the expected Pareto geometry is known exactly. Plus deliberately tiny
//! instances of the four real families, each sweepable in well under a
//! second and each with at least four training scenarios, so reduced
//! fidelities select proper subsets. And [`ledger_cuts`], the one way the
//! resume tests interrupt a sweep: by cutting its recorded ledger, as a
//! kill does.
#![allow(dead_code)]

use batchsim::prelude::{
    dataset as batch_dataset, BatchEmulatorConfig, BatchVersion, WorkloadSpec,
};
use gridsim::prelude::{dataset as grid_dataset, GridEmulatorConfig, GridSpec, GridVersion};
use lodsel::families::wf::AppSplit;
use lodsel::prelude::*;
use mpisim::prelude::{
    dataset as mpi_dataset, BenchmarkKind, MpiEmulatorConfig, MpiSimulatorVersion,
};
use simcal::prelude::{
    Agg, Budget, CacheFingerprint, Calibration, CalibrationResult, Calibrator, ElementMix,
    FnObjective, MatrixLoss, ParamKind, ParameterSpace, StructuredLoss,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use wfsim::prelude::{dataset_for, AppKind, DatasetOptions, SimulatorVersion, WfScenario};

/// Per-version held-out errors: v1 is best, v2 is within 10% of it.
pub const TOY_ERRORS: [f64; 4] = [0.30, 0.10, 0.105, 0.35];
/// Per-version simulation work: v2 is 10x cheaper than v1.
pub const TOY_WORKS: [u64; 4] = [1, 100, 10, 5];

pub struct ToyFamily {
    /// Counts real calibration runs, so tests can prove a resumed sweep
    /// never re-consumes budget.
    pub calibrations: AtomicUsize,
    /// Counts objective invocations across all runs, so tests can prove
    /// a persistent-cache replay skipped the objective entirely.
    pub evaluations: AtomicUsize,
    /// When set, evaluation samples depend on the winning calibration's
    /// parameter value — any drift in calibration or winner selection
    /// between fresh and resumed sweeps then changes the digest.
    pub calibration_dependent: bool,
}

impl ToyFamily {
    pub fn new(calibration_dependent: bool) -> Self {
        Self {
            calibrations: AtomicUsize::new(0),
            evaluations: AtomicUsize::new(0),
            calibration_dependent,
        }
    }

    pub fn calibration_runs(&self) -> usize {
        self.calibrations.load(Ordering::SeqCst)
    }

    pub fn objective_evaluations(&self) -> usize {
        self.evaluations.load(Ordering::SeqCst)
    }
}

impl VersionFamily for ToyFamily {
    fn name(&self) -> &str {
        "toy"
    }

    fn fingerprint(&self) -> u64 {
        0x70f0_70f0_70f0_70f0
    }

    fn version_labels(&self) -> Vec<String> {
        (0..4).map(|i| format!("v{i}")).collect()
    }

    fn dim(&self, _version: usize) -> usize {
        1
    }

    fn units(&self) -> Vec<SweepUnit> {
        (0..4)
            .map(|v| SweepUnit {
                version: v,
                slot: 0,
                label: format!("v{v}"),
            })
            .collect()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        self.calibrations.fetch_add(1, Ordering::SeqCst);
        let target = 0.2 * (unit.version as f64 + 1.0);
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let evals = &self.evaluations;
        let obj = FnObjective::new(space, move |c: &Calibration| {
            evals.fetch_add(1, Ordering::SeqCst);
            (c.values[0] - target).powi(2)
        })
        .with_cache_fingerprint(CacheFingerprint::of(
            "toy",
            &unit.label,
            self.fingerprint(),
        ));
        Calibrator::bo_gp(budget, seed).calibrate(&obj)
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let mut sample = TOY_ERRORS[unit.version];
        if self.calibration_dependent {
            sample += calibration.values[0] * 1e-6;
        }
        UnitEval {
            samples: vec![sample],
            work_units: TOY_WORKS[unit.version],
        }
    }
}

/// A collision-free temp ledger path (tests run concurrently).
pub fn tmp_ledger(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lodsel-it-{tag}-{}-{n}.jsonl", std::process::id()))
}

/// Every way a kill can leave the recorded ledger at `full`: for each of
/// its lines, one copy cut where the line starts and one cut halfway
/// through it (a torn record). Returns the copies' paths, in cut order.
pub fn ledger_cuts(full: &Path, tag: &str) -> Vec<PathBuf> {
    let bytes = std::fs::read(full).unwrap();
    assert!(!bytes.is_empty(), "{} recorded nothing", full.display());
    let mut cuts = Vec::new();
    let mut start = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        cuts.extend([start, start + line.len() / 2]);
        start += line.len();
    }
    cuts.into_iter()
        .map(|cut| {
            let path = tmp_ledger(&format!("{tag}-cut{cut}"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            path
        })
        .collect()
}

/// Lowest- and highest-detail workflow versions on one Montage shape:
/// four worker counts to train on, a larger workflow held out.
pub fn tiny_wf(seed: u64) -> WfFamily {
    let scenarios = |size: usize, worker_counts: Vec<usize>| {
        let opts = DatasetOptions {
            repetitions: 1,
            seed,
            size_indices: vec![size],
            work_indices: vec![1],
            footprint_indices: vec![1],
            worker_counts,
            ..Default::default()
        };
        WfScenario::from_records(&dataset_for(AppKind::Montage, &opts))
    };
    WfFamily::new(
        vec![
            SimulatorVersion::lowest_detail(),
            SimulatorVersion::highest_detail(),
        ],
        vec![AppSplit {
            name: "montage".into(),
            train: scenarios(0, vec![1, 2, 4, 6]),
            test: scenarios(1, vec![4, 6]),
        }],
        StructuredLoss::paper_set()[0].clone(),
        "L1",
    )
}

/// Lowest- and highest-detail MPI versions on two benchmarks at two
/// small node counts.
pub fn tiny_mpi(seed: u64) -> MpiFamily {
    let cfg = MpiEmulatorConfig {
        repetitions: 2,
        ..Default::default()
    };
    MpiFamily::new(
        vec![
            MpiSimulatorVersion::lowest_detail(),
            MpiSimulatorVersion::highest_detail(),
        ],
        mpi_dataset(
            &[BenchmarkKind::PingPong, BenchmarkKind::BiRandom],
            &[8, 16],
            &cfg,
            seed,
        ),
        MatrixLoss::paper_set()[0].clone(),
        "L1",
    )
}

/// All four batch versions on 20-job traces: four to train on, one held
/// out.
pub fn tiny_batch(seed: u64) -> BatchFamily {
    let cfg = BatchEmulatorConfig::default();
    let spec = |i: u64| WorkloadSpec {
        num_jobs: 20,
        mean_interarrival: 10.0 + 5.0 * i as f64,
        mean_work: 60.0,
        max_nodes_log2: 4,
        seed: seed ^ (i << 8),
    };
    let specs: Vec<WorkloadSpec> = (0..5).map(spec).collect();
    BatchFamily::new(
        BatchVersion::all(),
        cfg.total_nodes,
        batch_dataset(&specs[..4], &cfg, 1, seed),
        batch_dataset(&specs[4..], &cfg, 1, seed),
        StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3"),
        "L3",
    )
}

/// All eight data-grid versions on 16-job workloads: `train_workloads`
/// to train on, one held out.
pub fn tiny_grid(seed: u64, train_workloads: usize) -> GridFamily {
    let cfg = GridEmulatorConfig::default();
    let spec = |i: u64| GridSpec {
        jobs: 16,
        files: 24,
        mean_interarrival: 4.0 + 2.0 * i as f64,
        seed: seed ^ (i << 12),
        ..GridSpec::default()
    };
    let train: Vec<GridSpec> = (0..train_workloads as u64).map(spec).collect();
    let test = [GridSpec {
        jobs: 16,
        files: 24,
        mean_interarrival: 12.0,
        skew: 1.8,
        seed: seed ^ 0x100,
        ..GridSpec::default()
    }];
    GridFamily::new(
        GridVersion::all(),
        grid_dataset(&train, &cfg, 1, seed),
        grid_dataset(&test, &cfg, 1, seed),
        StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3"),
        "L3",
    )
}
