//! Random-forest and extra-trees surrogates.
//!
//! Both predict the mean over an ensemble of regression trees and use the
//! inter-tree standard deviation as the uncertainty estimate, which is how
//! scikit-optimize turns forests into BO surrogates.

use super::tree::{RegressionTree, SplitStrategy, TreeConfig};
use super::Surrogate;
use numeric::rng_from_seed;

fn ensemble_predict(trees: &[RegressionTree], x: &[f64]) -> (f64, f64) {
    let preds: Vec<f64> = trees.iter().map(|t| t.predict(x)).collect();
    (numeric::mean(&preds), numeric::std_dev(&preds))
}

/// Bagged regression trees with per-split feature subsampling.
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Growth limits for each tree.
    pub config: TreeConfig,
    seed: u64,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// A forest with default hyperparameters (25 trees, depth 9,
    /// sqrt-features per split).
    pub fn new(seed: u64) -> Self {
        Self {
            n_trees: 25,
            config: TreeConfig {
                max_depth: 9,
                min_leaf: 2,
                max_features: None, // resolved to sqrt(d) at fit time
                strategy: SplitStrategy::Exhaustive,
            },
            seed,
            trees: Vec::new(),
        }
    }
}

impl Surrogate for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let dim = x[0].len();
        let mut config = self.config;
        if config.max_features.is_none() {
            config.max_features = Some(((dim as f64).sqrt().ceil() as usize).max(1));
        }
        let mut rng = rng_from_seed(self.seed);
        self.trees = (0..self.n_trees)
            .map(|_| {
                // Bootstrap resample.
                let (bx, by): (Vec<Vec<f64>>, Vec<f64>) = (0..x.len())
                    .map(|_| {
                        let i = rng.below(x.len());
                        (x[i].clone(), y[i])
                    })
                    .unzip();
                RegressionTree::fit(&bx, &by, &config, &mut rng)
            })
            .collect();
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert!(!self.trees.is_empty(), "predict before fit");
        ensemble_predict(&self.trees, x)
    }
}

/// Extremely-randomized trees: no bootstrap, one random threshold per
/// candidate feature.
pub struct ExtraTrees {
    /// Number of trees.
    pub n_trees: usize,
    /// Growth limits for each tree.
    pub config: TreeConfig,
    seed: u64,
    trees: Vec<RegressionTree>,
}

impl ExtraTrees {
    /// An ensemble with default hyperparameters (25 trees, depth 9).
    pub fn new(seed: u64) -> Self {
        Self {
            n_trees: 25,
            config: TreeConfig {
                max_depth: 9,
                min_leaf: 2,
                max_features: None,
                strategy: SplitStrategy::RandomThreshold,
            },
            seed,
            trees: Vec::new(),
        }
    }
}

impl Surrogate for ExtraTrees {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let mut rng = rng_from_seed(self.seed);
        self.trees = (0..self.n_trees)
            .map(|_| RegressionTree::fit(x, y, &self.config, &mut rng))
            .collect();
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert!(!self.trees.is_empty(), "predict before fit");
        ensemble_predict(&self.trees, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 79.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| if p[0] < 0.5 { 0.0 } else { 4.0 })
            .collect();
        (x, y)
    }

    #[test]
    fn random_forest_learns_step() {
        let (x, y) = step_data();
        let mut rf = RandomForest::new(1);
        rf.fit(&x, &y);
        let (lo, _) = rf.predict(&[0.2]);
        let (hi, _) = rf.predict(&[0.8]);
        assert!(lo < 1.0, "lo {lo}");
        assert!(hi > 3.0, "hi {hi}");
    }

    #[test]
    fn extra_trees_learns_step() {
        let (x, y) = step_data();
        let mut et = ExtraTrees::new(1);
        et.fit(&x, &y);
        let (lo, _) = et.predict(&[0.2]);
        let (hi, _) = et.predict(&[0.8]);
        assert!(lo < 1.0, "lo {lo}");
        assert!(hi > 3.0, "hi {hi}");
    }

    #[test]
    fn forest_std_is_higher_near_the_discontinuity() {
        let (x, y) = step_data();
        let mut rf = RandomForest::new(3);
        rf.fit(&x, &y);
        let (_, std_flat) = rf.predict(&[0.1]);
        let (_, std_edge) = rf.predict(&[0.5]);
        assert!(std_edge >= std_flat, "edge {std_edge} vs flat {std_flat}");
    }

    #[test]
    fn refit_replaces_trees() {
        let (x, y) = step_data();
        let mut rf = RandomForest::new(1);
        rf.fit(&x, &y);
        let inverted: Vec<f64> = y.iter().map(|v| 4.0 - v).collect();
        rf.fit(&x, &inverted);
        let (lo, _) = rf.predict(&[0.8]);
        assert!(lo < 1.0, "refit must win: {lo}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = step_data();
        let pred = |seed| {
            let mut rf = RandomForest::new(seed);
            rf.fit(&x, &y);
            rf.predict(&[0.43])
        };
        assert_eq!(pred(9), pred(9));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn forest_predict_before_fit_panics() {
        RandomForest::new(0).predict(&[0.5]);
    }
}
