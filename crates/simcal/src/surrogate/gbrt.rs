//! Gradient-boosted quantile regression trees (the paper's BO-GBRT).
//!
//! Three boosted ensembles are fit on the pinball (quantile) loss at
//! q = 0.16, 0.50, and 0.84. The predictive mean is the median ensemble;
//! the predictive standard deviation is half the (0.84 − 0.16) interval —
//! exactly how scikit-optimize derives BO uncertainty from GBRT.

use super::tree::{RegressionTree, SplitStrategy, TreeConfig};
use super::Surrogate;
use numeric::rng_from_seed;

/// Trees per quantile ensemble.
const N_TREES: usize = 40;
/// Shrinkage applied to each tree's contribution, in units of the
/// target spread.
const LEARNING_RATE: f64 = 0.2;
/// Growth limits of the (shallow) boosted trees.
const TREE: TreeConfig = TreeConfig {
    max_depth: 3,
    min_leaf: 3,
    max_features: None,
    strategy: SplitStrategy::Exhaustive,
};

/// One boosted ensemble for a single quantile.
struct QuantileEnsemble {
    base: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
}

impl QuantileEnsemble {
    fn fit(x: &[Vec<f64>], y: &[f64], q: f64, learning_rate: f64, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let base = numeric::quantile(y, q);
        let mut pred = vec![base; y.len()];
        let mut trees = Vec::with_capacity(N_TREES);
        for _ in 0..N_TREES {
            // Negative gradient of the pinball loss at the current fit:
            // q where under-predicting, q - 1 where over-predicting.
            let residuals: Vec<f64> = y
                .iter()
                .zip(&pred)
                .map(|(yi, pi)| if yi > pi { q } else { q - 1.0 })
                .collect();
            let tree = RegressionTree::fit(x, &residuals, &TREE, &mut rng);
            for (pi, xi) in pred.iter_mut().zip(x) {
                *pi += learning_rate * tree.predict(xi);
            }
            trees.push(tree);
        }
        Self {
            base,
            trees,
            learning_rate,
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }
}

/// Gradient boosting with quantile loss at q = {0.16, 0.50, 0.84}: 40
/// trees of depth at most 3 per quantile, learning rate 0.2.
#[derive(Default)]
pub struct GradientBoostingQuantile {
    ensembles: Option<[QuantileEnsemble; 3]>,
}

impl Surrogate for GradientBoostingQuantile {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        // The pinball gradient is in units of probability; scale it back to
        // the target's units via the target spread so convergence does not
        // depend on the loss magnitude.
        let spread = (numeric::max(y) - numeric::min(y)).max(1e-12);
        let fit_q =
            |q: f64, seed: u64| QuantileEnsemble::fit(x, y, q, LEARNING_RATE * spread, seed);
        self.ensembles = Some([fit_q(0.16, 101), fit_q(0.50, 102), fit_q(0.84, 103)]);
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let e = self.ensembles.as_ref().expect("predict before fit");
        let lo = e[0].predict(x);
        let mid = e[1].predict(x);
        let hi = e[2].predict(x);
        let std = ((hi - lo) / 2.0).abs().max(1e-9);
        (mid, std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 59.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| 2.0 * p[0] + 1.0).collect();
        (x, y)
    }

    #[test]
    fn median_tracks_a_linear_function() {
        let (x, y) = linear_data();
        let mut g = GradientBoostingQuantile::default();
        g.fit(&x, &y);
        for q in [0.1, 0.4, 0.8] {
            let (mean, _) = g.predict(&[q]);
            assert!((mean - (2.0 * q + 1.0)).abs() < 0.4, "at {q}: {mean}");
        }
    }

    #[test]
    fn quantile_interval_is_ordered() {
        let (x, y) = linear_data();
        let mut g = GradientBoostingQuantile::default();
        g.fit(&x, &y);
        let e = g.ensembles.as_ref().unwrap();
        for q in [0.2, 0.5, 0.9] {
            let lo = e[0].predict(&[q]);
            let hi = e[2].predict(&[q]);
            assert!(hi >= lo - 0.3, "lo {lo} hi {hi} at {q}");
        }
    }

    #[test]
    fn std_is_positive_and_finite() {
        let (x, y) = linear_data();
        let mut g = GradientBoostingQuantile::default();
        g.fit(&x, &y);
        let (_, std) = g.predict(&[0.33]);
        assert!(std > 0.0 && std.is_finite());
    }

    #[test]
    fn learns_a_step_function() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 79.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| if p[0] < 0.5 { 0.0 } else { 10.0 })
            .collect();
        let mut g = GradientBoostingQuantile::default();
        g.fit(&x, &y);
        assert!(g.predict(&[0.1]).0 < 3.0);
        assert!(g.predict(&[0.9]).0 > 7.0);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        GradientBoostingQuantile::default().predict(&[0.1]);
    }
}
