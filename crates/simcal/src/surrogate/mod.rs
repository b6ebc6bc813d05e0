//! Surrogate regressors for Bayesian optimization (paper §4).
//!
//! The paper's framework uses scikit-optimize's four regressors: Gaussian
//! Process (BO-GP), Random Forest (BO-RF), Extra Trees (BO-ET), and
//! Gradient Boosting Quantile Regressor Trees (BO-GBRT). All four are
//! implemented here from scratch. Each predicts a mean and an uncertainty
//! (standard deviation) at a query point, which the Expected-Improvement
//! acquisition combines into an exploration/exploitation score.

mod forest;
mod gbrt;
mod gp;
mod tree;

pub use forest::{ExtraTrees, RandomForest};
pub use gbrt::GradientBoostingQuantile;
pub use gp::GaussianProcess;

/// A regressor usable as a Bayesian-optimization surrogate.
pub trait Surrogate: Send + Sync {
    /// Fit to `(x, y)` observations; `x` points are unit-hypercube
    /// coordinates. May be called repeatedly with growing data.
    ///
    /// # Panics
    /// Implementations panic if `x.len() != y.len()` or `x` is empty.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);

    /// Predictive mean and standard deviation at `x`.
    fn predict(&self, x: &[f64]) -> (f64, f64);

    /// [`predict`](Self::predict) at every point of `xs`, in order and
    /// with the same bits; a model may override it to share work
    /// between the points.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Which surrogate a [`crate::algorithms::BayesianOpt`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SurrogateKind {
    /// Gaussian process with an RBF kernel (scikit-optimize's default).
    GaussianProcess,
    /// Bagged regression trees with feature subsampling.
    RandomForest,
    /// Extremely-randomized trees (random split thresholds, no bagging).
    ExtraTrees,
    /// Gradient-boosted trees on quantile loss (q = 0.16, 0.50, 0.84).
    Gbrt,
}

impl SurrogateKind {
    /// All surrogate kinds, in paper order.
    pub const ALL: [SurrogateKind; 4] = [
        SurrogateKind::GaussianProcess,
        SurrogateKind::RandomForest,
        SurrogateKind::ExtraTrees,
        SurrogateKind::Gbrt,
    ];

    /// Report name (matches the paper's BO-x notation suffix).
    pub fn name(self) -> &'static str {
        match self {
            SurrogateKind::GaussianProcess => "GP",
            SurrogateKind::RandomForest => "RF",
            SurrogateKind::ExtraTrees => "ET",
            SurrogateKind::Gbrt => "GBRT",
        }
    }

    /// Instantiate with default hyperparameters; `seed` drives any
    /// internal randomness (bootstrap resampling, random thresholds).
    pub fn build(self, seed: u64) -> Box<dyn Surrogate> {
        match self {
            SurrogateKind::GaussianProcess => Box::new(GaussianProcess::default()),
            SurrogateKind::RandomForest => Box::new(RandomForest::new(seed)),
            SurrogateKind::ExtraTrees => Box::new(ExtraTrees::new(seed)),
            SurrogateKind::Gbrt => Box::new(GradientBoostingQuantile::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared sanity check: every surrogate should roughly interpolate a
    /// smooth 1-D function and report uncertainty away from the data.
    fn check_fits_smooth_function(mut s: Box<dyn Surrogate>, tol: f64) {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin()).collect();
        s.fit(&x, &y);
        let mut worst: f64 = 0.0;
        for i in 0..10 {
            let q = 0.05 + 0.9 * i as f64 / 9.0;
            let (mean, std) = s.predict(&[q]);
            worst = worst.max((mean - (q * 6.0).sin()).abs());
            assert!(std >= 0.0 && std.is_finite());
        }
        assert!(worst < tol, "worst interpolation error {worst} > {tol}");
    }

    #[test]
    fn all_kinds_fit_smooth_function() {
        check_fits_smooth_function(SurrogateKind::GaussianProcess.build(1), 0.05);
        check_fits_smooth_function(SurrogateKind::RandomForest.build(1), 0.35);
        check_fits_smooth_function(SurrogateKind::ExtraTrees.build(1), 0.35);
        check_fits_smooth_function(SurrogateKind::Gbrt.build(1), 0.35);
    }

    #[test]
    fn predict_batch_equals_predict_for_every_kind() {
        let mut rng = numeric::rng_from_seed(5);
        let mut point = || -> Vec<f64> { (0..3).map(|_| rng.unit()).collect() };
        let x: Vec<Vec<f64>> = (0..40).map(|_| point()).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[1] + (4.0 * p[2]).cos()).collect();
        let queries: Vec<Vec<f64>> = (0..512).map(|_| point()).collect();
        let bits = |p: &(f64, f64)| (p.0.to_bits(), p.1.to_bits());
        for kind in SurrogateKind::ALL {
            let mut s = kind.build(3);
            s.fit(&x, &y);
            for len in [0, 1, 7, 8, 9, 512] {
                let batch: Vec<_> = s.predict_batch(&queries[..len]).iter().map(bits).collect();
                let single: Vec<_> = queries[..len].iter().map(|q| bits(&s.predict(q))).collect();
                assert_eq!(batch, single, "{} at {len} queries", kind.name());
            }
        }
    }

    #[test]
    fn names_match_paper_notation() {
        let names: Vec<&str> = SurrogateKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["GP", "RF", "ET", "GBRT"]);
    }
}
