//! Synthetic batch workloads in the spirit of the Parallel Workloads
//! Archive traces the paper's conclusion points to for this domain.
//!
//! Jobs have Poisson arrivals, power-of-two node requests, lognormal
//! runtimes, and over-estimated walltime limits — the stylized facts of
//! PWA traces that matter for backfilling behaviour.

use numeric::{lognormal, rng_from_seed};
use serde::{Deserialize, Serialize};

/// One batch job of a workload trace.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Submission time (s).
    pub submit_time: f64,
    /// Nodes requested (allocated exclusively).
    pub nodes: u32,
    /// Actual sequential runtime *content* of the job in abstract work
    /// units; the simulator's runtime model maps it to seconds.
    pub work: f64,
    /// User-provided walltime estimate (s) — what the backfilling
    /// scheduler plans with.
    pub walltime_estimate: f64,
}

/// Workload generation request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of jobs.
    pub num_jobs: usize,
    /// Mean inter-arrival time (s).
    pub mean_interarrival: f64,
    /// Mean job work (abstract units; ~seconds at unit speed).
    pub mean_work: f64,
    /// Largest node request, as a power of two (e.g. 6 => up to 64).
    pub max_nodes_log2: u32,
    /// Generation seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            num_jobs: 100,
            mean_interarrival: 20.0,
            mean_work: 300.0,
            max_nodes_log2: 5,
            seed: 0,
        }
    }
}

/// Generate a workload trace (sorted by submission time).
pub fn generate(spec: &WorkloadSpec) -> Vec<Job> {
    assert!(spec.num_jobs > 0, "workload must contain jobs");
    assert!(
        spec.mean_interarrival > 0.0 && spec.mean_work > 0.0,
        "means must be positive"
    );
    let mut rng = rng_from_seed(spec.seed ^ 0xBA7C4);
    let mut t = 0.0;
    let sigma = 0.8; // lognormal runtime spread, PWA-like heavy tail
    let mu = spec.mean_work.ln() - sigma * sigma / 2.0;
    (0..spec.num_jobs)
        .map(|_| {
            // Poisson arrivals: exponential gaps.
            t += -spec.mean_interarrival * (1.0 - rng.unit()).ln();
            let nodes = 1u32 << rng.below(spec.max_nodes_log2 as usize + 1);
            let work = lognormal(&mut rng, mu, sigma);
            // Users overestimate walltime by 1.5-10x (PWA stylized fact).
            let over = 1.5 + 8.5 * rng.unit();
            Job {
                submit_time: t,
                nodes,
                work,
                walltime_estimate: work * over,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_sorted_by_submission() {
        let jobs = generate(&WorkloadSpec {
            num_jobs: 50,
            ..Default::default()
        });
        assert_eq!(jobs.len(), 50);
        assert!(jobs
            .windows(2)
            .all(|w| w[0].submit_time <= w[1].submit_time));
    }

    #[test]
    fn node_requests_are_powers_of_two_in_range() {
        let jobs = generate(&WorkloadSpec {
            max_nodes_log2: 4,
            ..Default::default()
        });
        for j in &jobs {
            assert!(j.nodes.is_power_of_two());
            assert!(j.nodes <= 16);
        }
    }

    #[test]
    fn walltime_estimates_exceed_work() {
        let jobs = generate(&WorkloadSpec::default());
        assert!(jobs.iter().all(|j| j.walltime_estimate > j.work));
    }

    #[test]
    fn mean_work_is_approximately_respected() {
        let jobs = generate(&WorkloadSpec {
            num_jobs: 5000,
            mean_work: 100.0,
            ..Default::default()
        });
        let mean = numeric::mean(&jobs.iter().map(|j| j.work).collect::<Vec<_>>());
        assert!((mean - 100.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&WorkloadSpec {
            seed: 3,
            ..Default::default()
        });
        let b = generate(&WorkloadSpec {
            seed: 3,
            ..Default::default()
        });
        let c = generate(&WorkloadSpec {
            seed: 4,
            ..Default::default()
        });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "must contain jobs")]
    fn zero_jobs_rejected() {
        generate(&WorkloadSpec {
            num_jobs: 0,
            ..Default::default()
        });
    }
}
