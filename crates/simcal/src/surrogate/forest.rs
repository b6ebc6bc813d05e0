//! Random-forest and extra-trees surrogates.
//!
//! Both predict the mean over an ensemble of regression trees and use the
//! inter-tree standard deviation as the uncertainty estimate, which is how
//! scikit-optimize turns forests into BO surrogates.

use super::tree::{RegressionTree, SplitStrategy, TreeConfig};
use super::Surrogate;
use numeric::rng_from_seed;

/// Trees per ensemble.
const N_TREES: usize = 25;

/// Growth limits of a random-forest tree; `fit` sets the features
/// examined per split to the ceiling of the square root of the
/// dimension.
const RF_TREE: TreeConfig = TreeConfig {
    max_depth: 9,
    min_leaf: 2,
    max_features: None,
    strategy: SplitStrategy::Exhaustive,
};

/// Growth limits of an extra-trees tree (every feature at each split).
const ET_TREE: TreeConfig = TreeConfig {
    max_depth: 9,
    min_leaf: 2,
    max_features: None,
    strategy: SplitStrategy::RandomThreshold,
};

fn ensemble_predict(trees: &[RegressionTree], x: &[f64]) -> (f64, f64) {
    let preds: Vec<f64> = trees.iter().map(|t| t.predict(x)).collect();
    (numeric::mean(&preds), numeric::std_dev(&preds))
}

/// Bagged regression trees with per-split feature subsampling: 25 trees
/// of depth at most 9, each split over the square root of the dimension
/// (rounded up) features.
pub struct RandomForest {
    seed: u64,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// An unfitted forest whose bootstraps and feature subsets draw from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            trees: Vec::new(),
        }
    }
}

impl Surrogate for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let config = TreeConfig {
            max_features: Some(((x[0].len() as f64).sqrt().ceil() as usize).max(1)),
            ..RF_TREE
        };
        let mut rng = rng_from_seed(self.seed);
        self.trees = (0..N_TREES)
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
/// candidate feature; 25 trees of depth at most 9.
pub struct ExtraTrees {
    seed: u64,
    trees: Vec<RegressionTree>,
}

impl ExtraTrees {
    /// An unfitted ensemble whose thresholds draw from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
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
        self.trees = (0..N_TREES)
            .map(|_| RegressionTree::fit(x, y, &ET_TREE, &mut rng))
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
