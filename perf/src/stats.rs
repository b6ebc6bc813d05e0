//! The harness's own arithmetic: order statistics over timing samples and
//! the rank correlation behind the `*.cost_rank_spearman` probes.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics. Panics on an empty slice: every caller has at least one rep.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The tail figure the metrics guide asks for: the highest percentile that
/// still has ten samples beyond it, as `(percentile, value)` — p90 of 100
/// samples, p80 of 50. `None` below 40 samples, where that percentile falls
/// under the upper quartile and says nothing about a tail.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let rank = v.len().checked_sub(10).filter(|r| r * 4 >= v.len() * 3)?;
    Some((100.0 * rank as f64 / v.len() as f64, v[rank - 1]))
}

/// Average ranks (1-based), ties sharing the mean of the ranks they span.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let shared = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = shared;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation: Pearson correlation of the tie-averaged
/// ranks. 0 when either side is constant (no ranking to agree with).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman needs paired samples");
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// What a run attempted and what of it failed. Everything that can fail
/// counts: calibration runs, held-out unit evaluations, calibd jobs and
/// kernel activities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn merge(&mut self, other: Tally) {
        self.add(other.attempted, other.failed);
    }

    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 100 samples: the 90th value is p90 and ten lie beyond it.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(50)), Some((80.0, 40.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((90.0, 90.0)));
    }

    #[test]
    fn spearman_handles_ties_and_constants() {
        let up = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&up, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&up, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Ties take the mean rank: ranks of [1,2,2,3] are [1,2.5,2.5,4].
        assert_eq!(ranks(&[1.0, 2.0, 2.0, 3.0]), vec![1.0, 2.5, 2.5, 4.0]);
        // Worked example with a tie on one side: ranks (1,2.5,2.5,4) vs
        // (1,2,3,4) -> cov 4.5, variances 4.5 and 5 -> 4.5/sqrt(22.5).
        let rho = spearman(&[1.0, 2.0, 2.0, 3.0], &up);
        assert!((rho - 4.5 / 22.5f64.sqrt()).abs() < 1e-12, "{rho}");
        assert_eq!(spearman(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn refused_jobs_and_failed_runs_both_count_as_failed() {
        let mut t = Tally::default();
        t.add(24, 0); // a healthy sweep: 24 runs, none failed
        assert_eq!(t.failed_fraction(), 0.0);
        t.add(1, 1); // a calibd job the daemon refused
        t.add(12, 1); // a sweep with one failed run
        assert_eq!(
            t,
            Tally {
                attempted: 37,
                failed: 2
            }
        );
        assert!((t.failed_fraction() - 2.0 / 37.0).abs() < 1e-15);
        assert_eq!(Tally::default().failed_fraction(), 0.0);
    }
}
