//! Ground-truth emulator for the batch-scheduling case study.
//!
//! Substitutes for Parallel Workloads Archive traces with a hidden
//! "production RJMS": the highest-detail candidate (EASY backfilling with
//! a real scheduling cycle, per-job dispatch overheads and
//! utilization-dependent interference) at hidden values, plus stochastic
//! runtime noise — a process strictly richer than every candidate
//! simulator, as in the other case studies.

use crate::simulator::{execute, resolve, BatchOutput, ResolvedBatch};
use crate::versions::BatchVersion;
use crate::workload::{generate, Job, WorkloadSpec};
use serde::{Deserialize, Serialize};
use simcal::prelude::Calibration;

/// Hidden parameters of the emulated production system.
#[derive(Clone, Copy, Debug)]
pub struct BatchEmulatorConfig {
    /// Effective node speed (work units per second).
    pub node_speed: f64,
    /// Interference coefficient.
    pub contention_coeff: f64,
    /// Scheduling cycle period (s) — slurmctld-style.
    pub sched_cycle: f64,
    /// Per-job dispatch overhead (s).
    pub dispatch_overhead: f64,
    /// Lognormal sigma on job runtimes.
    pub noise_sigma: f64,
    /// Cluster size.
    pub total_nodes: u32,
}

impl Default for BatchEmulatorConfig {
    fn default() -> Self {
        Self {
            node_speed: 0.9,
            contention_coeff: 0.35,
            sched_cycle: 30.0,
            dispatch_overhead: 2.0,
            noise_sigma: 0.07,
            total_nodes: 64,
        }
    }
}

impl BatchEmulatorConfig {
    /// The hidden values, as a point of the emulated version's space.
    fn calibration(&self) -> Calibration {
        BatchVersion::highest_detail()
            .parameter_space()
            .calibration_from_pairs(&[
                ("node_speed", self.node_speed),
                ("contention_coeff", self.contention_coeff),
                ("sched_cycle", self.sched_cycle),
                ("dispatch_overhead", self.dispatch_overhead),
            ])
    }

    /// Emulate one "real" execution of `jobs`; `noise_seed` distinguishes
    /// repetitions.
    pub fn emulate(&self, jobs: &[Job], noise_seed: u64) -> BatchOutput {
        let model = ResolvedBatch {
            noise_sigma: self.noise_sigma,
            noise_seed,
            ..resolve(BatchVersion::highest_detail(), &self.calibration())
        };
        execute(jobs, self.total_nodes, &model)
    }
}

/// One ground-truth data point: a workload trace with its observed
/// execution metrics (averaged over repetitions).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchGroundTruthRecord {
    /// How the workload was generated.
    pub spec: WorkloadSpec,
    /// The trace itself (regenerable from `spec`, embedded for direct use).
    pub jobs: Vec<Job>,
    /// Observed makespan (mean over repetitions).
    pub makespan: f64,
    /// Observed per-job turnaround times (mean over repetitions).
    pub turnarounds: Vec<f64>,
}

/// Generate ground truth for a grid of workload intensities.
pub fn dataset(
    specs: &[WorkloadSpec],
    config: &BatchEmulatorConfig,
    repetitions: usize,
    seed: u64,
) -> Vec<BatchGroundTruthRecord> {
    specs
        .iter()
        .map(|spec| {
            let jobs = generate(spec);
            let mut makespans = Vec::with_capacity(repetitions);
            let mut sums = vec![0.0; jobs.len()];
            for rep in 0..repetitions.max(1) {
                let out = config.emulate(&jobs, seed ^ spec.seed ^ (rep as u64) << 40);
                makespans.push(out.makespan);
                for (s, t) in sums.iter_mut().zip(&out.turnarounds) {
                    *s += t;
                }
            }
            let reps = repetitions.max(1) as f64;
            BatchGroundTruthRecord {
                spec: *spec,
                jobs,
                makespan: numeric::mean(&makespans),
                turnarounds: sums.iter().map(|s| s / reps).collect(),
            }
        })
        .collect()
}

/// A small intensity grid: three arrival intensities x two job-size
/// mixes, the diversity the methodology needs (§5.5's lesson).
pub fn default_grid(base_seed: u64) -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for (i, &interarrival) in [10.0, 25.0, 60.0].iter().enumerate() {
        for (j, &work) in [120.0, 600.0].iter().enumerate() {
            specs.push(WorkloadSpec {
                num_jobs: 80,
                mean_interarrival: interarrival,
                mean_work: work,
                max_nodes_log2: 5,
                seed: base_seed ^ ((i * 2 + j) as u64) << 8,
            });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One word over every output bit of a small dataset: a change to
    /// the emulated model, its hidden values or its effects moves it.
    #[test]
    fn emulator_outputs_are_pinned() {
        let mut words = Vec::new();
        for r in dataset(&default_grid(3), &BatchEmulatorConfig::default(), 2, 3) {
            words.push(r.makespan.to_bits());
            words.extend(r.turnarounds.iter().map(|t| t.to_bits()));
        }
        let word = simcal::cache::fnv1a_fold(words);
        assert_eq!(format!("{word:016x}"), "2660a50c0ee58f4c");
    }

    /// Every hidden value lies inside its knob's range in the emulated
    /// version's space: the ground truth is a point of that version.
    #[test]
    fn emulator_is_a_point_of_its_version() {
        let calib = BatchEmulatorConfig::default().calibration();
        let space = BatchVersion::highest_detail().parameter_space();
        for (p, v) in space.params().iter().zip(&calib.values) {
            let (lo, hi) = (p.kind.denormalize(0.0), p.kind.denormalize(1.0));
            assert!(
                (lo..=hi).contains(v),
                "{} = {v} outside [{lo}, {hi}]",
                p.name
            );
        }
    }

    #[test]
    fn emulation_is_reproducible_and_noisy() {
        let cfg = BatchEmulatorConfig::default();
        let jobs = generate(&WorkloadSpec {
            num_jobs: 40,
            ..Default::default()
        });
        let a = cfg.emulate(&jobs, 1);
        let b = cfg.emulate(&jobs, 1);
        let c = cfg.emulate(&jobs, 2);
        assert_eq!(a, b);
        assert_ne!(a.makespan, c.makespan);
        assert!((a.makespan - c.makespan).abs() / a.makespan < 0.3);
    }

    #[test]
    fn dataset_covers_the_grid() {
        let specs = default_grid(5);
        assert_eq!(specs.len(), 6);
        let records = dataset(&specs[..2], &BatchEmulatorConfig::default(), 2, 3);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.turnarounds.len(), r.jobs.len());
            assert!(r.makespan > 0.0);
        }
    }

    #[test]
    fn heavier_load_takes_longer() {
        let cfg = BatchEmulatorConfig::default();
        let light = WorkloadSpec {
            num_jobs: 60,
            mean_interarrival: 60.0,
            ..Default::default()
        };
        let heavy = WorkloadSpec {
            num_jobs: 60,
            mean_interarrival: 5.0,
            ..Default::default()
        };
        let r = dataset(&[light, heavy], &cfg, 1, 1);
        // Heavier arrival rate => more queueing => larger mean turnaround.
        let mean_light = numeric::mean(&r[0].turnarounds);
        let mean_heavy = numeric::mean(&r[1].turnarounds);
        assert!(mean_heavy > mean_light, "{mean_heavy} vs {mean_light}");
    }
}
