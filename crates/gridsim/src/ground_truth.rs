//! Ground-truth emulator for the data-grid case study.
//!
//! Substitutes for traces of a real federated infrastructure with a
//! hidden "production grid": the highest-detail model (per-file WAN
//! flows, explicit LRU site caches, a serial cache-aware broker) made
//! strictly richer than every candidate by two behaviours no candidate
//! models — a TCP ramp-up surcharge on every WAN transfer and stochastic
//! runtime noise. Same construction rule as the wfsim/mpisim/batchsim
//! emulators.

use crate::simulator::{execute, resolve, GridOutput, ResolvedGrid};
use crate::versions::GridVersion;
use crate::workload::{generate, GridSpec, GridWorkload};
use serde::{Deserialize, Serialize};
use simcal::prelude::Calibration;

/// Hidden parameters of the emulated production grid.
#[derive(Clone, Copy, Debug)]
pub struct GridEmulatorConfig {
    /// Effective slot speed (work units per second).
    pub core_speed: f64,
    /// WAN access-link bandwidth (MB/s).
    pub wan_bandwidth: f64,
    /// End-to-end WAN latency budget (s).
    pub wan_latency: f64,
    /// Storage-element read bandwidth (MB/s).
    pub disk_bandwidth: f64,
    /// Per-site cache capacity (MB).
    pub cache_mb: f64,
    /// Per-file middleware transfer startup (s).
    pub transfer_startup: f64,
    /// Serial broker decision overhead (s).
    pub broker_overhead: f64,
    /// TCP ramp-up surcharge per WAN transfer (MB) — hidden from every
    /// candidate version.
    pub ramp_mb: f64,
    /// Lognormal sigma on job runtimes — hidden from every candidate.
    pub noise_sigma: f64,
}

impl Default for GridEmulatorConfig {
    fn default() -> Self {
        Self {
            core_speed: 1.1,
            wan_bandwidth: 12.0,
            wan_latency: 0.15,
            disk_bandwidth: 150.0,
            cache_mb: 2048.0,
            transfer_startup: 1.2,
            broker_overhead: 0.8,
            ramp_mb: 4.0,
            noise_sigma: 0.06,
        }
    }
}

impl GridEmulatorConfig {
    /// The hidden values, as a point of the emulated version's space.
    fn calibration(&self) -> Calibration {
        GridVersion::highest_detail()
            .parameter_space()
            .calibration_from_pairs(&[
                ("core_speed", self.core_speed),
                ("wan_bandwidth", self.wan_bandwidth),
                ("wan_latency", self.wan_latency),
                ("disk_bandwidth", self.disk_bandwidth),
                ("cache_mb", self.cache_mb),
                ("transfer_startup", self.transfer_startup),
                ("broker_overhead", self.broker_overhead),
            ])
    }

    /// Emulate one "real" execution of `workload`; `noise_seed`
    /// distinguishes repetitions.
    pub fn emulate(&self, workload: &GridWorkload, noise_seed: u64) -> GridOutput {
        let version = GridVersion::highest_detail();
        let model = ResolvedGrid {
            ramp_mb: self.ramp_mb,
            noise_sigma: self.noise_sigma,
            noise_seed,
            ..resolve(version, &self.calibration())
        };
        execute(workload, version, &model)
    }
}

/// One ground-truth data point: a workload with its observed execution
/// metrics (averaged over repetitions).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridGroundTruthRecord {
    /// How the workload was generated.
    pub spec: GridSpec,
    /// The workload itself (regenerable from `spec`, embedded for direct
    /// use).
    pub workload: GridWorkload,
    /// Observed makespan (mean over repetitions).
    pub makespan: f64,
    /// Observed per-job turnaround times (mean over repetitions).
    pub turnarounds: Vec<f64>,
}

/// Generate ground truth for a grid of workload intensities.
pub fn dataset(
    specs: &[GridSpec],
    config: &GridEmulatorConfig,
    repetitions: usize,
    seed: u64,
) -> Vec<GridGroundTruthRecord> {
    specs
        .iter()
        .map(|spec| {
            let workload = generate(spec);
            let mut makespans = Vec::with_capacity(repetitions);
            let mut sums = vec![0.0; workload.jobs.len()];
            for rep in 0..repetitions.max(1) {
                let out = config.emulate(&workload, seed ^ spec.seed ^ (rep as u64) << 40);
                makespans.push(out.makespan);
                for (s, t) in sums.iter_mut().zip(&out.turnarounds) {
                    *s += t;
                }
            }
            let reps = repetitions.max(1) as f64;
            GridGroundTruthRecord {
                spec: *spec,
                workload,
                makespan: numeric::mean(&makespans),
                turnarounds: sums.iter().map(|s| s / reps).collect(),
            }
        })
        .collect()
}

/// A small scenario grid: two arrival intensities x two popularity
/// skews — the workload diversity the methodology needs (the skew axis
/// moves how much the caches and the WAN matter).
pub fn default_grid(base_seed: u64) -> Vec<GridSpec> {
    let mut specs = Vec::new();
    for (i, &interarrival) in [3.0, 9.0].iter().enumerate() {
        for (j, &skew) in [0.4, 1.8].iter().enumerate() {
            specs.push(GridSpec {
                mean_interarrival: interarrival,
                skew,
                seed: base_seed ^ ((i * 2 + j) as u64) << 8,
                ..GridSpec::default()
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
        for r in dataset(&default_grid(3), &GridEmulatorConfig::default(), 2, 3) {
            words.push(r.makespan.to_bits());
            words.extend(r.turnarounds.iter().map(|t| t.to_bits()));
        }
        let word = simcal::cache::fnv1a_fold(words);
        assert_eq!(format!("{word:016x}"), "bb22fad66c47f296");
    }

    /// Every hidden value lies inside its knob's range in the emulated
    /// version's space: the ground truth is a point of that version.
    #[test]
    fn emulator_is_a_point_of_its_version() {
        let calib = GridEmulatorConfig::default().calibration();
        let space = GridVersion::highest_detail().parameter_space();
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
        let cfg = GridEmulatorConfig::default();
        let w = generate(&GridSpec::default());
        let a = cfg.emulate(&w, 1);
        let b = cfg.emulate(&w, 1);
        let c = cfg.emulate(&w, 2);
        assert_eq!(a, b);
        assert_ne!(a.makespan, c.makespan);
        assert!((a.makespan - c.makespan).abs() / a.makespan < 0.3);
    }

    #[test]
    fn dataset_covers_the_grid() {
        let specs = default_grid(5);
        assert_eq!(specs.len(), 4);
        let records = dataset(&specs[..2], &GridEmulatorConfig::default(), 2, 3);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.turnarounds.len(), r.workload.jobs.len());
            assert!(r.makespan > 0.0);
        }
    }

    #[test]
    fn ramp_surcharge_slows_the_hidden_system_down() {
        let w = generate(&GridSpec::default());
        let with_ramp = GridEmulatorConfig::default();
        let without = GridEmulatorConfig {
            ramp_mb: 0.0,
            noise_sigma: 0.0,
            ..with_ramp
        };
        let quiet = GridEmulatorConfig {
            noise_sigma: 0.0,
            ..with_ramp
        };
        let slow = quiet.emulate(&w, 0);
        let fast = without.emulate(&w, 0);
        assert!(
            slow.makespan > fast.makespan,
            "ramp {} vs none {}",
            slow.makespan,
            fast.makespan
        );
    }

    #[test]
    fn heavier_arrivals_increase_turnarounds() {
        let cfg = GridEmulatorConfig::default();
        let light = GridSpec {
            mean_interarrival: 30.0,
            ..GridSpec::default()
        };
        let heavy = GridSpec {
            mean_interarrival: 1.0,
            ..GridSpec::default()
        };
        let r = dataset(&[light, heavy], &cfg, 1, 1);
        let mean_light = numeric::mean(&r[0].turnarounds);
        let mean_heavy = numeric::mean(&r[1].turnarounds);
        assert!(mean_heavy > mean_light, "{mean_heavy} vs {mean_light}");
    }
}
