//! Gaussian-process regression with an RBF kernel.
//!
//! Targets are standardized before fitting; the RBF length scale is chosen
//! from a small grid by log marginal likelihood, which is the behaviour
//! that matters for BO (adapting to how wiggly the loss landscape is)
//! without a full hyperparameter optimizer.
//!
//! A model keeps its training points and one Cholesky factor per length
//! scale between fits. Row `i` of a factor depends only on training
//! points `0..=i`, so a fit keeps the rows of the longest prefix its
//! point list shares with the previous one and factors only the rest —
//! bit for bit what factoring everything again would give. BO histories
//! only grow, so below [`MAX_POINTS`] each fit factors just the new batch;
//! above it the best-half/recent-half subsample reshuffles early
//! positions nearly every fit and almost everything is factored again.

use super::Surrogate;
use numeric::Cholesky;

/// Queries per block triangular solve: enough independent dependency
/// chains to hide the latency of one, few enough that a block of kernel
/// columns (`points x W` values) stays in L1.
const W: usize = 8;

/// Candidate RBF length scales (unit-cube coordinates).
const LENGTH_SCALES: [f64; 5] = [0.05, 0.1, 0.2, 0.5, 1.0];
/// Observation-noise variance added to the kernel diagonal.
const NOISE: f64 = 1e-6;
/// Cap on training points; the best and the most recent are kept.
const MAX_POINTS: usize = 200;

/// Gaussian process with kernel
/// `k(a, b) = exp(-||a - b||^2 / (2 l^2)) + 1e-6 * 1{a == b}` over
/// standardized targets; each fit picks `l` from 0.05, 0.1, 0.2, 0.5 and
/// 1.0, and keeps at most 200 training points.
#[derive(Clone, Debug, Default)]
pub struct GaussianProcess {
    model: Option<Model>,
}

/// What a fit leaves behind: the posterior at the winning length scale,
/// and the points and factors the next fit may build on.
#[derive(Clone, Debug)]
struct Model {
    /// Training points (after subsampling).
    x: Vec<Vec<f64>>,
    /// One factor per length scale over the kernel matrix of `x`; a
    /// factor with fewer rows than `x` stopped at a row that is not
    /// positive definite at its scale.
    factors: Vec<Cholesky>,
    /// Index of the length scale with the highest marginal likelihood.
    best: usize,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl Default for Model {
    /// No points yet, and one empty factor per length scale.
    fn default() -> Self {
        Self {
            x: Vec::new(),
            factors: vec![Cholesky::default(); LENGTH_SCALES.len()],
            best: 0,
            alpha: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Indices (ascending) of the training data kept under [`MAX_POINTS`]:
/// the `MAX_POINTS / 2` best (lowest-y) points plus the most recent
/// remainder. BO cares most about modelling the promising region and the
/// frontier.
fn subsample(y: &[f64]) -> Vec<usize> {
    if y.len() <= MAX_POINTS {
        return (0..y.len()).collect();
    }
    let keep_best = MAX_POINTS / 2;
    let mut order: Vec<usize> = (0..y.len()).collect();
    order.sort_by(|&a, &b| y[a].partial_cmp(&y[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut selected: Vec<usize> = order[..keep_best].to_vec();
    let recent_start = y.len() - (MAX_POINTS - keep_best);
    for i in recent_start..y.len() {
        if !selected.contains(&i) {
            selected.push(i);
        }
    }
    selected.sort_unstable();
    selected.truncate(MAX_POINTS);
    selected
}

impl GaussianProcess {
    /// Posterior mean and standard deviation at `N` queries at once: one
    /// pass over the training points for the kernel columns and the means,
    /// one block forward substitution, one pass for the variances.
    ///
    /// The queries are transposed into `qt` once, so each training point's
    /// `N` distances are computed lane by lane; `k` receives the kernel
    /// columns. Both are overwritten, so one pair serves every block of a
    /// batch. Every lane performs the operations of the one-query
    /// expressions in the same order: coordinates summed as `sq_dist`
    /// sums them, and the mean and variance sums starting from `-0.0` and
    /// adding training points in order, as `Sum for f64` does.
    fn predict_block<const N: usize>(
        &self,
        queries: [&[f64]; N],
        qt: &mut Vec<[f64; N]>,
        k: &mut Vec<[f64; N]>,
    ) -> [(f64, f64); N] {
        let m = self.model.as_ref().expect("predict before fit");
        let l = LENGTH_SCALES[m.best];
        let two_l2 = 2.0 * l * l;
        qt.clear();
        qt.extend((0..queries[0].len()).map(|c| queries.map(|q| q[c])));
        k.clear();
        let mut mean = [-0.0; N];
        for (xi, &a) in m.x.iter().zip(&m.alpha) {
            let mut d = [-0.0; N];
            for (&x, q) in xi.iter().zip(qt.iter()) {
                for w in 0..N {
                    d[w] += (x - q[w]) * (x - q[w]);
                }
            }
            let column = d.map(|d| (-d / two_l2).exp());
            for w in 0..N {
                mean[w] += column[w] * a;
            }
            k.push(column);
        }
        m.factors[m.best].solve_lower_block(k);
        let mut explained = [-0.0; N];
        for v in k.iter() {
            for w in 0..N {
                explained[w] += v[w] * v[w];
            }
        }
        std::array::from_fn(|w| {
            let var = (1.0 + NOISE - explained[w]).max(0.0);
            (m.y_mean + m.y_std * mean[w], m.y_std * var.sqrt())
        })
    }
}

impl Surrogate for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let selected = subsample(y);
        let n = selected.len();
        let mut m = self.model.take().unwrap_or_default();

        // Keep the longest prefix of training points that is bitwise the
        // same as last time, and the factor rows that belong to it.
        let prefix =
            m.x.iter()
                .zip(&selected)
                .take_while(|&(kept, &i)| same_bits(kept, &x[i]))
                .count();
        m.x.truncate(prefix);
        m.x.extend(selected[prefix..].iter().map(|&i| x[i].clone()));
        let mut reused = 0;
        for factor in &mut m.factors {
            factor.truncate(prefix);
            reused += factor.dim();
        }

        // Factor the remaining rows, each distance row computed once for
        // all scales. A scale whose row is rejected keeps its shorter
        // factor and sits out the rows after it.
        let first = m.factors.iter().map(Cholesky::dim).min().unwrap_or(n);
        let mut dist: Vec<f64> = Vec::with_capacity(n);
        let mut row: Vec<f64> = Vec::with_capacity(n);
        for i in first..n {
            dist.clear();
            dist.extend(m.x[..=i].iter().map(|xj| sq_dist(&m.x[i], xj)));
            for (factor, l) in m.factors.iter_mut().zip(LENGTH_SCALES) {
                if factor.dim() != i {
                    continue;
                }
                row.clear();
                row.extend(dist.iter().map(|d| (-d / (2.0 * l * l)).exp()));
                row[i] += NOISE + 1e-10;
                factor.push_row(&row);
            }
        }
        if obs::enabled() {
            let rows: usize = m.factors.iter().map(Cholesky::dim).sum();
            obs::counter(obs::Counter::GpRowsReused, reused as u64);
            obs::counter(obs::Counter::GpRowsFactored, (rows - reused) as u64);
        }

        let targets: Vec<f64> = selected.iter().map(|&i| y[i]).collect();
        m.y_mean = numeric::mean(&targets);
        m.y_std = numeric::std_dev(&targets).max(1e-12);
        let ys: Vec<f64> = targets.iter().map(|v| (v - m.y_mean) / m.y_std).collect();

        let mut best: Option<(f64, usize, Vec<f64>)> = None;
        for (scale, factor) in m.factors.iter().enumerate() {
            if factor.dim() < n {
                continue;
            }
            let alpha = factor.solve(&ys);
            // log marginal likelihood = -0.5 y^T alpha - 0.5 log det K - n/2 log 2pi
            let lml = -0.5 * ys.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>()
                - 0.5 * factor.log_det()
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
            if best.as_ref().is_none_or(|(b, ..)| lml > *b) {
                best = Some((lml, scale, alpha));
            }
        }
        (_, m.best, m.alpha) = best.expect("at least one length scale must yield a PD kernel");
        self.model = Some(m);
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_block([x], &mut Vec::new(), &mut Vec::new())[0]
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(xs.len());
        let (mut qt, mut k) = (Vec::new(), Vec::new());
        for chunk in xs.chunks(W) {
            // A short last block is padded with repeats of its last query.
            let queries: [&[f64]; W] =
                std::array::from_fn(|w| chunk[w.min(chunk.len() - 1)].as_slice());
            out.extend_from_slice(&self.predict_block(queries, &mut qt, &mut k)[..chunk.len()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points_closely() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            let (mean, std) = gp.predict(xi);
            assert!((mean - yi).abs() < 1e-2, "mean {mean} vs {yi}");
            assert!(std < 0.1, "training-point std should be small: {std}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![0.0, 1.0, 2.0];
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        let (_, std_near) = gp.predict(&[0.1]);
        let (_, std_far) = gp.predict(&[0.95]);
        assert!(std_far > std_near * 2.0, "near {std_near}, far {std_far}");
    }

    #[test]
    fn constant_targets_predict_the_constant() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let y = vec![3.0; 5];
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        let (mean, _) = gp.predict(&[0.5]);
        assert!((mean - 3.0).abs() < 1e-6);
    }

    #[test]
    fn subsampling_keeps_best_points() {
        // Minimum at index 7, far from the recent half of the history.
        let y: Vec<f64> = (0..250).map(|i| ((i as f64) - 7.0).abs()).collect();
        let kept = subsample(&y);
        assert_eq!(kept.len(), MAX_POINTS);
        assert!(kept.contains(&7), "best point must survive subsampling");
    }

    /// `predict` bits at 64 fixed query points of the unit cube.
    fn predict_bits(gp: &GaussianProcess, dim: usize) -> Vec<(u64, u64)> {
        let mut rng = numeric::rng_from_seed(99);
        (0..64)
            .map(|_| {
                let q: Vec<f64> = (0..dim).map(|_| rng.unit()).collect();
                let (mean, std) = gp.predict(&q);
                (mean.to_bits(), std.to_bits())
            })
            .collect()
    }

    fn random_history(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = numeric::rng_from_seed(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.unit()).collect())
            .collect();
        let y = x
            .iter()
            .map(|p| p.iter().map(|v| (v - 0.4) * (v - 0.4)).sum::<f64>() + (7.0 * p[0]).sin())
            .collect();
        (x, y)
    }

    #[test]
    fn refit_on_a_growing_history_equals_a_fresh_fit() {
        // A BO-shaped history: 16 points, then 8 more per fit, past the
        // cap (where the best-half/recent-half subsample drops early
        // points and reshuffles the prefix). One model refitted all the
        // way must predict bit for bit what a fresh model fitted once on
        // the same data predicts.
        let dim = 3;
        let (x, y) = random_history(280, dim, 7);
        let mut kept = GaussianProcess::default();
        let mut dropped_early = false;
        for n in (16..=280).step_by(8) {
            kept.fit(&x[..n], &y[..n]);
            let mut fresh = GaussianProcess::default();
            fresh.fit(&x[..n], &y[..n]);
            assert_eq!(
                predict_bits(&kept, dim),
                predict_bits(&fresh, dim),
                "n = {n}"
            );
            let selected = subsample(&y[..n]);
            dropped_early |= (0..16).any(|i| !selected.contains(&i));
        }
        assert!(
            dropped_early,
            "no step dropped a point of the initial design"
        );
    }

    #[test]
    fn predict_bits_are_pinned() {
        // One FNV-1a word over the `(mean, std)` bits of `predict_batch`
        // (512 seeded candidates in BO's 64-candidate blocks, plus one
        // short block the GP pads) and of `predict` at the same points,
        // across history sizes below, at and past the 200-point cap.
        let mut words = Vec::new();
        for dim in [1, 6, 10] {
            for n in [1, 2, 16, 56, 100, 250] {
                let (x, y) = random_history(n, dim, 1000 + n as u64);
                let mut gp = GaussianProcess::default();
                gp.fit(&x, &y);
                let mut rng = numeric::rng_from_seed(dim as u64 * 7919 + n as u64);
                let candidates: Vec<Vec<f64>> = (0..512 + 5)
                    .map(|_| (0..dim).map(|_| rng.unit()).collect())
                    .collect();
                for chunk in candidates.chunks(64) {
                    for (mean, std) in gp.predict_batch(chunk) {
                        words.extend([mean.to_bits(), std.to_bits()]);
                    }
                }
                for q in &candidates {
                    let (mean, std) = gp.predict(q);
                    words.extend([mean.to_bits(), std.to_bits()]);
                }
            }
        }
        assert_eq!(crate::cache::fnv1a_fold(words), 0x51fa_eb26_286a_3561);
    }

    /// The posterior at `q` from the one-query expressions: each kernel
    /// value and every sum as an iterator computes it.
    fn reference_predict(gp: &GaussianProcess, q: &[f64]) -> (f64, f64) {
        let m = gp.model.as_ref().unwrap();
        let l = LENGTH_SCALES[m.best];
        let k: Vec<f64> =
            m.x.iter()
                .map(|xi| (-sq_dist(xi, q) / (2.0 * l * l)).exp())
                .collect();
        let mean: f64 = k.iter().zip(&m.alpha).map(|(k, a)| k * a).sum();
        let v = m.factors[m.best].solve_lower(&k);
        let var = (1.0 + NOISE - v.iter().map(|v| v * v).sum::<f64>()).max(0.0);
        (m.y_mean + m.y_std * mean, m.y_std * var.sqrt())
    }

    #[test]
    fn lanes_keep_the_sign_of_an_all_zero_mean() {
        // Far from every training point each kernel value underflows to
        // +0.0; against negative weights every product is -0.0, and only a
        // sum that starts from -0.0 stays -0.0. With a -0.0 target mean
        // that sign reaches the prediction.
        let (x, y) = random_history(12, 3, 5);
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        let m = gp.model.as_mut().unwrap();
        m.alpha.iter_mut().for_each(|a| *a = -a.abs() - 1.0);
        m.y_mean = -0.0;
        let queries: Vec<Vec<f64>> = (0..11)
            .map(|i| vec![100.0 + i as f64, -50.0, 0.5])
            .chain(x.iter().cloned())
            .collect();
        let bits = |(mean, std): (f64, f64)| (mean.to_bits(), std.to_bits());
        let want: Vec<_> = queries
            .iter()
            .map(|q| bits(reference_predict(&gp, q)))
            .collect();
        assert_eq!(want[0].0, (-0.0f64).to_bits());
        let batch: Vec<_> = gp.predict_batch(&queries).into_iter().map(bits).collect();
        let single: Vec<_> = queries.iter().map(|q| bits(gp.predict(q))).collect();
        assert_eq!(batch, want);
        assert_eq!(single, want);
    }

    #[test]
    fn fit_handles_duplicate_points() {
        let x = vec![vec![0.5], vec![0.5], vec![0.7]];
        let y = vec![1.0, 1.0, 2.0];
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y); // must not panic (jitter on the duplicate Gram rows)
        let (mean, _) = gp.predict(&[0.5]);
        assert!((mean - 1.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        GaussianProcess::default().predict(&[0.5]);
    }

    #[test]
    fn multidimensional_fit() {
        let mut pts = Vec::new();
        let mut ys = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let p = vec![i as f64 / 5.0, j as f64 / 5.0];
                ys.push(p[0] + 2.0 * p[1]);
                pts.push(p);
            }
        }
        let mut gp = GaussianProcess::default();
        gp.fit(&pts, &ys);
        let (mean, _) = gp.predict(&[0.5, 0.5]);
        assert!((mean - 1.5).abs() < 0.05, "mean {mean}");
    }
}
