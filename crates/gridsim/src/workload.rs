//! Synthetic federated-grid workloads: a file catalog distributed over
//! sites plus a stream of analysis jobs reading (mostly popular) files.
//!
//! The generator reproduces the workload shape the HEP data-grid models
//! are calibrated against: datasets concentrated at a few "experiment"
//! sites, Zipf-like file popularity (so caches matter), and job input
//! sizes that drive both the WAN transfer volume and the compute time.

use numeric::{lognormal, rng_from_seed};
use serde::{Deserialize, Serialize};

/// How to generate one workload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Number of sites in the federation.
    pub sites: usize,
    /// Compute slots per site.
    pub slots_per_site: u32,
    /// Files in the catalog.
    pub files: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Mean file size in MB (lognormal).
    pub mean_file_mb: f64,
    /// Files read per job.
    pub reads_per_job: usize,
    /// Mean job interarrival time (s), exponential.
    pub mean_interarrival: f64,
    /// Compute work per MB of input (ops/MB).
    pub work_per_mb: f64,
    /// Popularity skew: larger values concentrate reads (and file homes)
    /// on fewer files (and sites); `0.0` is uniform.
    pub skew: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            sites: 4,
            slots_per_site: 8,
            files: 96,
            jobs: 60,
            mean_file_mb: 80.0,
            reads_per_job: 3,
            mean_interarrival: 6.0,
            work_per_mb: 1.5,
            skew: 1.2,
            seed: 1,
        }
    }
}

/// One catalog file: its size and the site whose storage element holds
/// the authoritative replica.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridFile {
    /// Size in MB.
    pub size_mb: f64,
    /// Home site index.
    pub home: usize,
}

/// One analysis job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridJob {
    /// Submission time (s).
    pub submit_time: f64,
    /// Catalog indices of the files this job reads.
    pub reads: Vec<usize>,
    /// Compute work (ops), proportional to the input volume.
    pub work: f64,
}

/// A generated workload: the catalog plus the job stream, with the
/// federation shape it was generated for.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridWorkload {
    /// Number of sites.
    pub sites: usize,
    /// Compute slots per site.
    pub slots_per_site: u32,
    /// The file catalog.
    pub files: Vec<GridFile>,
    /// Jobs, sorted by submission time.
    pub jobs: Vec<GridJob>,
}

impl GridWorkload {
    /// Total MB a job reads.
    pub fn input_mb(&self, job: &GridJob) -> f64 {
        job.reads.iter().map(|&f| self.files[f].size_mb).sum()
    }
}

/// Skewed index draw: maps a uniform `u` in `[0,1)` to `[0, n)` with mass
/// concentrated at low indices for positive `skew`.
fn skewed_index(u: f64, n: usize, skew: f64) -> usize {
    let idx = (u.powf(1.0 + skew) * n as f64) as usize;
    idx.min(n - 1)
}

/// Deterministically generate the workload a spec describes.
///
/// # Panics
/// Panics if the spec has no sites, files, jobs, or reads per job.
pub fn generate(spec: &GridSpec) -> GridWorkload {
    assert!(
        spec.sites > 0 && spec.files > 0 && spec.jobs > 0 && spec.reads_per_job > 0,
        "grid spec must have sites, files, jobs, and reads"
    );
    assert!(spec.slots_per_site > 0, "sites need compute slots");
    let mut rng = rng_from_seed(spec.seed ^ 0x9e37_79b9_7f4a_7c15);

    // Catalog: homes concentrated at low-index ("experiment") sites,
    // sizes lognormal around the mean.
    let sigma = 0.6;
    let files: Vec<GridFile> = (0..spec.files)
        .map(|_| {
            let u = rng.unit();
            let home = skewed_index(u, spec.sites, spec.skew);
            let size_mb = spec.mean_file_mb * lognormal(&mut rng, -sigma * sigma / 2.0, sigma);
            GridFile { size_mb, home }
        })
        .collect();

    // Jobs: Poisson arrivals, Zipf-like file popularity.
    let mut t = 0.0;
    let jobs: Vec<GridJob> = (0..spec.jobs)
        .map(|_| {
            let u = rng.unit();
            t += -spec.mean_interarrival * (1.0 - u).ln();
            let mut reads = Vec::with_capacity(spec.reads_per_job);
            while reads.len() < spec.reads_per_job {
                let u = rng.unit();
                let f = skewed_index(u, spec.files, spec.skew);
                if !reads.contains(&f) {
                    reads.push(f);
                }
            }
            let input_mb: f64 = reads.iter().map(|&f| files[f].size_mb).sum();
            GridJob {
                submit_time: t,
                reads,
                work: input_mb * spec.work_per_mb,
            }
        })
        .collect();

    GridWorkload {
        sites: spec.sites,
        slots_per_site: spec.slots_per_site,
        files,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = GridSpec::default();
        assert_eq!(generate(&spec), generate(&spec));
        let other = GridSpec {
            seed: 2,
            ..GridSpec::default()
        };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn shapes_match_the_spec() {
        let spec = GridSpec {
            files: 40,
            jobs: 25,
            reads_per_job: 4,
            ..GridSpec::default()
        };
        let w = generate(&spec);
        assert_eq!(w.files.len(), 40);
        assert_eq!(w.jobs.len(), 25);
        for j in &w.jobs {
            assert_eq!(j.reads.len(), 4);
            assert!(j.work > 0.0);
            let mut sorted = j.reads.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "reads must be distinct");
        }
        let mut prev = 0.0;
        for j in &w.jobs {
            assert!(j.submit_time >= prev, "arrivals must be ordered");
            prev = j.submit_time;
        }
    }

    #[test]
    fn skew_concentrates_homes_on_low_sites() {
        let spec = GridSpec {
            files: 400,
            skew: 2.0,
            ..GridSpec::default()
        };
        let w = generate(&spec);
        let at_site0 = w.files.iter().filter(|f| f.home == 0).count();
        assert!(
            at_site0 > 400 / spec.sites,
            "skewed homes: {at_site0} of 400 at site 0"
        );
        for f in &w.files {
            assert!(f.home < spec.sites);
            assert!(f.size_mb > 0.0);
        }
    }

    #[test]
    fn input_mb_sums_read_sizes() {
        let w = generate(&GridSpec::default());
        let j = &w.jobs[0];
        let expected: f64 = j.reads.iter().map(|&f| w.files[f].size_mb).sum();
        assert_eq!(w.input_mb(j), expected);
    }
}
