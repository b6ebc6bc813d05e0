//! Ground-truth emulator for case study #1.
//!
//! The paper's ground truth is 9,200 Pegasus/HTCondor workflow executions
//! on Chameleon Cloud. We do not have that testbed, so this module
//! substitutes a **hidden high-fidelity emulator**: the candidate version
//! `star/all/condor` (star network, storage on all nodes, an HTCondor
//! service with periodic negotiation cycles) at hidden values, plus
//! effects none of the 12 candidate simulator versions model: a per-task
//! post-execution overhead beside the pre-execution one, and stochastic
//! per-task runtime noise, overhead jitter and scheduling jitter.
//!
//! Two properties matter for the methodology and hold by construction:
//! the generating process is strictly richer than every candidate
//! simulator (so the best achievable error is non-zero, as on the real
//! testbed), and its overhead structure is phase-specific (so only the
//! HTCondor-enabled candidates can express it — the paper's headline
//! observation in Figure 2).
//!
//! The hidden parameter values in [`EmulatorConfig::default`] are the
//! "physical platform" and are of course not available to calibrations.

use crate::generator::{generate, table1, AppKind, WorkflowSpec, OPS_PER_REF_SECOND};
use crate::simulator::{execute, resolve, NoiseModel, OverheadModel, SimOutput};
use crate::versions::{ComputeModel, NetworkModel, SimulatorVersion, StorageModel};
use serde::{Deserialize, Serialize};
use simcal::prelude::Calibration;

/// Hidden "physical platform" parameters of the emulated testbed.
#[derive(Clone, Copy, Debug)]
pub struct EmulatorConfig {
    /// Per-branch star-network bandwidth (bytes/s).
    pub net_bw: f64,
    /// Per-branch latency (s).
    pub net_lat: f64,
    /// Submit-node disk bandwidth (bytes/s).
    pub submit_disk_bw: f64,
    /// Worker disk bandwidth (bytes/s).
    pub worker_disk_bw: f64,
    /// Maximum concurrent I/O operations per disk.
    pub disk_concurrency: u32,
    /// Effective core speed (ops/s). Equals [`OPS_PER_REF_SECOND`] so that
    /// Table 1's per-task seconds are exact on this platform.
    pub core_speed: f64,
    /// HTCondor negotiation cycle period (s).
    pub condor_cycle: f64,
    /// Pre-execution overhead per task (s).
    pub pre_overhead: f64,
    /// Post-execution overhead per task (s).
    pub post_overhead: f64,
    /// Lognormal sigma on per-task compute time.
    pub compute_sigma: f64,
    /// Relative jitter on overheads.
    pub overhead_jitter: f64,
    /// Maximum scheduling jitter per task (s).
    pub sched_jitter: f64,
    /// Cores per worker (48 on the paper's Icelake workers).
    pub cores_per_worker: u32,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self {
            net_bw: 2f64.powi(30),         // ~1.07 GB/s per branch
            net_lat: 2e-4,                 // 0.2 ms
            submit_disk_bw: 2f64.powi(29), // ~537 MB/s
            worker_disk_bw: 2f64.powi(28), // ~268 MB/s
            disk_concurrency: 8,
            core_speed: OPS_PER_REF_SECOND,
            condor_cycle: 4.0,
            pre_overhead: 1.2,
            post_overhead: 0.8,
            compute_sigma: 0.05,
            overhead_jitter: 0.2,
            sched_jitter: 0.2,
            cores_per_worker: 48,
        }
    }
}

/// The emulated version, `star/all/condor`. Not `highest_detail()`: the
/// hidden platform has a dedicated link per worker and no shared backbone.
const EMULATED: SimulatorVersion = SimulatorVersion {
    network: NetworkModel::Star,
    storage: StorageModel::AllNodes,
    compute: ComputeModel::HtCondor,
};

impl EmulatorConfig {
    /// The hidden values, as a point of the emulated version's space.
    fn calibration(&self) -> Calibration {
        EMULATED.parameter_space().calibration_from_pairs(&[
            ("net_bw", self.net_bw),
            ("net_lat", self.net_lat),
            ("submit_disk_bw", self.submit_disk_bw),
            ("worker_disk_bw", self.worker_disk_bw),
            ("disk_concurrency", f64::from(self.disk_concurrency)),
            ("core_speed", self.core_speed),
            ("condor_cycle", self.condor_cycle),
            ("condor_overhead", self.pre_overhead),
        ])
    }

    /// Emulate one "real-world" execution of `workflow` on `n_workers`
    /// workers; `noise_seed` distinguishes repetitions. The model is the
    /// emulated version at the hidden values, plus the effects no
    /// candidate models: a post-execution overhead and the noise.
    pub fn emulate(
        &self,
        workflow: &crate::workflow::Workflow,
        n_workers: usize,
        noise_seed: u64,
    ) -> SimOutput {
        let mut model = resolve(EMULATED, &self.calibration());
        if let OverheadModel::Condor { post, .. } = &mut model.overhead {
            *post = self.post_overhead;
        }
        model.noise = Some(NoiseModel {
            compute_sigma: self.compute_sigma,
            overhead_jitter: self.overhead_jitter,
            sched_jitter: self.sched_jitter,
            seed: noise_seed,
        });
        execute(workflow, n_workers, self.cores_per_worker, &model)
    }
}

/// One ground-truth data point: a workflow execution with its observed
/// metrics (averaged over repetitions, as the paper's five repeats are).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroundTruthRecord {
    /// How the workflow was generated.
    pub spec: WorkflowSpec,
    /// Number of workers the execution used.
    pub n_workers: usize,
    /// Observed makespan (seconds, mean over repetitions).
    pub makespan: f64,
    /// Observed per-task execution times (mean over repetitions).
    pub task_times: Vec<f64>,
}

impl GroundTruthRecord {
    /// The paper's training-dataset cost metric (§5.5): number of workers
    /// times makespan, in worker-seconds.
    pub fn cost(&self) -> f64 {
        self.n_workers as f64 * self.makespan
    }
}

/// Dataset-generation options.
#[derive(Clone, Debug)]
pub struct DatasetOptions {
    /// Repetitions averaged per record (the paper ran five).
    pub repetitions: usize,
    /// Base seed for workflow generation and execution noise.
    pub seed: u64,
    /// Indices into each Table 1 row's `sizes` (empty = all).
    pub size_indices: Vec<usize>,
    /// Indices into each row's `works_secs` (empty = all).
    pub work_indices: Vec<usize>,
    /// Indices into each row's `footprints_mb` (empty = all).
    pub footprint_indices: Vec<usize>,
    /// Restrict worker counts (empty = the row's own counts).
    pub worker_counts: Vec<usize>,
    /// Hidden platform.
    pub config: EmulatorConfig,
}

impl Default for DatasetOptions {
    fn default() -> Self {
        Self {
            repetitions: 5,
            seed: 0xC0FFEE,
            size_indices: Vec::new(),
            work_indices: Vec::new(),
            footprint_indices: Vec::new(),
            worker_counts: Vec::new(),
            config: EmulatorConfig::default(),
        }
    }
}

fn pick<T: Clone>(all: &[T], indices: &[usize]) -> Vec<T> {
    if indices.is_empty() {
        all.to_vec()
    } else {
        indices
            .iter()
            .filter_map(|&i| all.get(i).cloned())
            .collect()
    }
}

/// Deterministic per-record seed.
fn record_seed(
    base: u64,
    app: AppKind,
    size: usize,
    work_i: usize,
    fp_i: usize,
    workers: usize,
) -> u64 {
    let mut h = base ^ 0x9E3779B97F4A7C15;
    for v in [app as usize, size, work_i, fp_i, workers] {
        h = (h ^ v as u64).wrapping_mul(0x100000001B3);
    }
    h
}

/// Generate ground-truth records for one application, following its
/// Table 1 row filtered by `opts`.
pub fn dataset_for(app: AppKind, opts: &DatasetOptions) -> Vec<GroundTruthRecord> {
    let row = table1()
        .into_iter()
        .find(|r| r.app == app)
        .expect("every AppKind has a Table 1 row");
    let sizes = pick(&row.sizes, &opts.size_indices);
    let works = pick(&row.works_secs, &opts.work_indices);
    let fps = pick(&row.footprints_mb, &opts.footprint_indices);
    let workers = if opts.worker_counts.is_empty() {
        row.worker_counts.clone()
    } else {
        opts.worker_counts
            .iter()
            .copied()
            .filter(|w| row.worker_counts.contains(w))
            .collect()
    };

    let mut records = Vec::new();
    for &size in &sizes {
        for (wi, &work) in works.iter().enumerate() {
            for (fi, &fp_mb) in fps.iter().enumerate() {
                let seed = record_seed(opts.seed, app, size, wi, fi, 0);
                let spec = WorkflowSpec {
                    app,
                    num_tasks: size,
                    work_per_task_secs: work,
                    data_footprint_bytes: fp_mb * 1e6,
                    seed,
                };
                let workflow = generate(&spec);
                for &n_workers in &workers {
                    let mut makespans = Vec::with_capacity(opts.repetitions);
                    let mut task_sums = vec![0.0; workflow.num_tasks()];
                    for rep in 0..opts.repetitions {
                        let noise_seed = record_seed(opts.seed, app, size, wi, fi, n_workers)
                            ^ (rep as u64) << 48;
                        let out = opts.config.emulate(&workflow, n_workers, noise_seed);
                        makespans.push(out.makespan);
                        for (s, t) in task_sums.iter_mut().zip(&out.task_times) {
                            *s += t;
                        }
                    }
                    let reps = opts.repetitions as f64;
                    records.push(GroundTruthRecord {
                        spec,
                        n_workers,
                        makespan: numeric::mean(&makespans),
                        task_times: task_sums.iter().map(|s| s / reps).collect(),
                    });
                }
            }
        }
    }
    records
}

/// Generate records for several applications.
pub fn dataset(apps: &[AppKind], opts: &DatasetOptions) -> Vec<GroundTruthRecord> {
    apps.iter().flat_map(|&a| dataset_for(a, opts)).collect()
}

/// The paper's §5.4 train/test split over one application's records:
///
/// - **testing**: executions on the largest worker count with more than
///   the smallest task count, plus executions with the largest task count
///   on more than the smallest worker count;
/// - **training** (default choice): executions with the second-largest
///   worker count *and* second-largest task count.
pub fn split_train_test(
    records: &[GroundTruthRecord],
) -> (Vec<GroundTruthRecord>, Vec<GroundTruthRecord>) {
    let mut sizes: Vec<usize> = records.iter().map(|r| r.spec.num_tasks).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut workers: Vec<usize> = records.iter().map(|r| r.n_workers).collect();
    workers.sort_unstable();
    workers.dedup();

    let max_size = *sizes.last().expect("non-empty records");
    let min_size = sizes[0];
    let max_workers = *workers.last().expect("non-empty records");
    let min_workers = workers[0];
    let second_size = if sizes.len() >= 2 {
        sizes[sizes.len() - 2]
    } else {
        max_size
    };
    let second_workers = if workers.len() >= 2 {
        workers[workers.len() - 2]
    } else {
        max_workers
    };

    let test: Vec<GroundTruthRecord> = records
        .iter()
        .filter(|r| {
            (r.n_workers == max_workers && r.spec.num_tasks > min_size)
                || (r.spec.num_tasks == max_size && r.n_workers > min_workers)
        })
        .cloned()
        .collect();
    let train: Vec<GroundTruthRecord> = records
        .iter()
        .filter(|r| r.n_workers == second_workers && r.spec.num_tasks == second_size)
        .cloned()
        .collect();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> DatasetOptions {
        DatasetOptions {
            repetitions: 2,
            size_indices: vec![0],
            work_indices: vec![0],
            footprint_indices: vec![1],
            worker_counts: vec![1, 2],
            ..Default::default()
        }
    }

    /// One word over every output bit of a small dataset: a change to
    /// the emulated model, its hidden values or its effects moves it.
    #[test]
    fn emulator_outputs_are_pinned() {
        let mut words = Vec::new();
        for r in dataset_for(AppKind::Forkjoin, &small_opts()) {
            words.push(r.makespan.to_bits());
            words.extend(r.task_times.iter().map(|t| t.to_bits()));
        }
        let word = simcal::cache::fnv1a_fold(words);
        assert_eq!(format!("{word:016x}"), "e24783fb0b286082");
    }

    /// Every hidden value lies inside its knob's range in the emulated
    /// version's space: the ground truth is a point of that version.
    #[test]
    fn emulator_is_a_point_of_its_version() {
        let calib = EmulatorConfig::default().calibration();
        for (p, v) in EMULATED
            .parameter_space()
            .params()
            .iter()
            .zip(&calib.values)
        {
            let (lo, hi) = (p.kind.denormalize(0.0), p.kind.denormalize(1.0));
            assert!(
                (lo..=hi).contains(v),
                "{} = {v} outside [{lo}, {hi}]",
                p.name
            );
        }
    }

    #[test]
    fn dataset_respects_filters() {
        let recs = dataset_for(AppKind::Forkjoin, &small_opts());
        // 1 size x 1 work x 1 footprint x 2 worker counts.
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.spec.num_tasks == 10));
        assert!(recs
            .iter()
            .all(|r| (r.spec.data_footprint_bytes - 150e6).abs() < 1.0));
    }

    #[test]
    fn chain_only_runs_on_one_worker() {
        let opts = DatasetOptions {
            repetitions: 1,
            size_indices: vec![0],
            work_indices: vec![0],
            footprint_indices: vec![0],
            ..Default::default()
        };
        let recs = dataset_for(AppKind::Chain, &opts);
        assert!(recs.iter().all(|r| r.n_workers == 1));
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn emulation_is_reproducible_and_noisy_across_reps() {
        let cfg = EmulatorConfig::default();
        let wf = generate(&WorkflowSpec {
            app: AppKind::Forkjoin,
            num_tasks: 10,
            work_per_task_secs: 1.0,
            data_footprint_bytes: 10e6,
            seed: 1,
        });
        let a = cfg.emulate(&wf, 2, 7);
        let b = cfg.emulate(&wf, 2, 7);
        assert_eq!(a, b, "same noise seed must reproduce");
        let c = cfg.emulate(&wf, 2, 8);
        assert_ne!(a.makespan, c.makespan, "different noise seeds must differ");
        // Noise is small: repetitions agree within ~20%.
        assert!((a.makespan - c.makespan).abs() / a.makespan < 0.2);
    }

    #[test]
    fn makespan_reflects_condor_overheads() {
        // 10 x 1s tasks on plentiful cores: pure compute would be ~3s
        // (3 levels); the emulator's cycles + overheads push well past it.
        let cfg = EmulatorConfig::default();
        let wf = generate(&WorkflowSpec {
            app: AppKind::Forkjoin,
            num_tasks: 10,
            work_per_task_secs: 1.0,
            data_footprint_bytes: 0.0,
            seed: 2,
        });
        let out = cfg.emulate(&wf, 2, 1);
        assert!(
            out.makespan > 9.0,
            "cycles+overheads should dominate: {}",
            out.makespan
        );
    }

    #[test]
    fn cost_is_workers_times_makespan() {
        let r = GroundTruthRecord {
            spec: WorkflowSpec {
                app: AppKind::Chain,
                num_tasks: 10,
                work_per_task_secs: 1.0,
                data_footprint_bytes: 0.0,
                seed: 0,
            },
            n_workers: 4,
            makespan: 25.0,
            task_times: vec![],
        };
        assert_eq!(r.cost(), 100.0);
    }

    #[test]
    fn split_matches_paper_example() {
        // Mirror the 1000Genome example from §5.4: workers {1,2,4,6},
        // sizes {54,81,108,162,270}. Testing = 6 workers with >=81 tasks
        // + 270 tasks with >=2 workers; training = 4 workers & 162 tasks.
        let mut records = Vec::new();
        for &w in &[1usize, 2, 4, 6] {
            for &s in &[54usize, 81, 108, 162, 270] {
                records.push(GroundTruthRecord {
                    spec: WorkflowSpec {
                        app: AppKind::Genome1000,
                        num_tasks: s,
                        work_per_task_secs: 1.0,
                        data_footprint_bytes: 0.0,
                        seed: 0,
                    },
                    n_workers: w,
                    makespan: 1.0,
                    task_times: vec![],
                });
            }
        }
        let (train, test) = split_train_test(&records);
        assert_eq!(train.len(), 1);
        assert_eq!(train[0].n_workers, 4);
        assert_eq!(train[0].spec.num_tasks, 162);
        // 6-worker rows with 81..270 (4) + 270-task rows with 2,4 workers (2).
        assert_eq!(test.len(), 6);
        assert!(test.iter().all(|r| {
            (r.n_workers == 6 && r.spec.num_tasks > 54)
                || (r.spec.num_tasks == 270 && r.n_workers > 1)
        }));
    }

    #[test]
    fn higher_footprint_increases_makespan() {
        let opts_small = DatasetOptions {
            repetitions: 1,
            size_indices: vec![0],
            work_indices: vec![0],
            footprint_indices: vec![0], // 0 MB
            worker_counts: vec![2],
            ..Default::default()
        };
        let opts_large = DatasetOptions {
            footprint_indices: vec![3],
            ..opts_small.clone()
        };
        let small = dataset_for(AppKind::Montage, &opts_small);
        let large = dataset_for(AppKind::Montage, &opts_large);
        assert!(
            large[0].makespan > small[0].makespan,
            "15 GB footprint must cost more than 0: {} vs {}",
            large[0].makespan,
            small[0].makespan
        );
    }
}
