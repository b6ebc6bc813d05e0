//! A CART-style regression tree, the building block of the random-forest,
//! extra-trees, and gradient-boosting surrogates.
//!
//! Splits minimize the weighted sum of child variances. Split candidates
//! are configurable per use: exhaustive midpoints (CART / boosting),
//! random feature subsets (random forest), or a single random threshold
//! per feature (extra-trees).

use numeric::Rng;

/// How split thresholds are chosen at each node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SplitStrategy {
    /// Try the midpoint between every pair of consecutive sorted values
    /// (classic CART).
    Exhaustive,
    /// Draw one uniform-random threshold per candidate feature
    /// (extra-trees style).
    RandomThreshold,
}

/// Tree growth limits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub(crate) max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub(crate) min_leaf: usize,
    /// Number of features examined per split (`None` = all).
    pub(crate) max_features: Option<usize>,
    /// Threshold selection strategy.
    pub(crate) strategy: SplitStrategy,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 8,
            min_leaf: 3,
            max_features: None,
            strategy: SplitStrategy::Exhaustive,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Clone, Debug)]
pub(crate) struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fit a tree to `(x, y)` with the given config; `rng` drives feature
    /// subsetting and random thresholds.
    ///
    /// # Panics
    /// Panics if `x` is empty or `x.len() != y.len()`.
    pub(crate) fn fit(x: &[Vec<f64>], y: &[f64], config: &TreeConfig, rng: &mut Rng) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit a tree on no data");
        let mut tree = Self { nodes: Vec::new() };
        let indices: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, indices, 0, config, rng);
        tree
    }

    /// Predicted value at `x`.
    pub(crate) fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (leaves + splits).
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        indices: Vec<usize>,
        depth: usize,
        config: &TreeConfig,
        rng: &mut Rng,
    ) -> usize {
        let node_mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: node_mean });
            nodes.len() - 1
        };

        if depth >= config.max_depth || indices.len() < 2 * config.min_leaf {
            return make_leaf(&mut self.nodes);
        }

        let dim = x[0].len();
        let n_features = config.max_features.unwrap_or(dim).clamp(1, dim);
        // Sample a feature subset without replacement (partial Fisher-Yates).
        let mut features: Vec<usize> = (0..dim).collect();
        for i in 0..n_features {
            let j = i + rng.below(dim - i);
            features.swap(i, j);
        }
        features.truncate(n_features);

        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for &f in &features {
            let thresholds: Vec<f64> = match config.strategy {
                SplitStrategy::Exhaustive => {
                    // total_cmp instead of partial_cmp().expect(): a
                    // single NaN feature value (e.g. from a quarantined
                    // observation) must not panic the surrogate fit
                    // mid-calibration. Non-finite values are dropped —
                    // a midpoint with a NaN or infinite endpoint is not
                    // a usable threshold.
                    let mut vals: Vec<f64> = indices
                        .iter()
                        .map(|&i| x[i][f])
                        .filter(|v| v.is_finite())
                        .collect();
                    vals.sort_by(f64::total_cmp);
                    vals.dedup();
                    vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
                }
                SplitStrategy::RandomThreshold => {
                    let lo = indices
                        .iter()
                        .map(|&i| x[i][f])
                        .fold(f64::INFINITY, f64::min);
                    let hi = indices
                        .iter()
                        .map(|&i| x[i][f])
                        .fold(f64::NEG_INFINITY, f64::max);
                    if hi > lo {
                        vec![rng.uniform(lo, hi)]
                    } else {
                        Vec::new()
                    }
                }
            };
            for t in thresholds {
                // Weighted sum of child squared deviations via sufficient stats.
                let (mut nl, mut sl, mut ql) = (0usize, 0.0f64, 0.0f64);
                let (mut nr, mut sr, mut qr) = (0usize, 0.0f64, 0.0f64);
                for &i in &indices {
                    if x[i][f] <= t {
                        nl += 1;
                        sl += y[i];
                        ql += y[i] * y[i];
                    } else {
                        nr += 1;
                        sr += y[i];
                        qr += y[i] * y[i];
                    }
                }
                if nl < config.min_leaf || nr < config.min_leaf {
                    continue;
                }
                let score = (ql - sl * sl / nl as f64) + (qr - sr * sr / nr as f64);
                if best.is_none_or(|(b, _, _)| score < b) {
                    best = Some((score, f, t));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[i][feature] <= threshold);
        // Reserve this node's slot, then grow children.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: node_mean }); // placeholder
        let left = self.grow(x, y, left_idx, depth + 1, config, rng);
        let right = self.grow(x, y, right_idx, depth + 1, config, rng);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::rng_from_seed;

    fn grid_xy(f: impl Fn(f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 63.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        (x, y)
    }

    #[test]
    fn fits_step_function_exactly() {
        let (x, y) = grid_xy(|v| if v < 0.5 { 1.0 } else { 5.0 });
        let mut rng = rng_from_seed(0);
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.predict(&[0.2]), 1.0);
        assert_eq!(tree.predict(&[0.8]), 5.0);
    }

    #[test]
    fn nan_feature_value_does_not_panic_the_fit() {
        // Regression: the exhaustive splitter sorted candidate
        // thresholds with partial_cmp().expect("NaN feature value"), so
        // a single NaN observation panicked the GBRT surrogate
        // mid-calibration. NaNs now sort via total_cmp and are dropped
        // from the threshold candidates.
        let (mut x, y) = grid_xy(|v| if v < 0.5 { 1.0 } else { 5.0 });
        x[10][0] = f64::NAN;
        let mut rng = rng_from_seed(0);
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        assert!(tree.predict(&[0.8]).is_finite());
        assert!(tree.predict(&[0.2]).is_finite());
    }

    #[test]
    fn respects_max_depth_zero() {
        let (x, y) = grid_xy(|v| v);
        let mut rng = rng_from_seed(0);
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, &mut rng);
        assert_eq!(tree.node_count(), 1);
        let mean = numeric::mean(&y);
        assert!((tree.predict(&[0.1]) - mean).abs() < 1e-12);
    }

    #[test]
    fn min_leaf_prevents_tiny_leaves() {
        let (x, y) = grid_xy(|v| v);
        let mut rng = rng_from_seed(0);
        let cfg = TreeConfig {
            min_leaf: 32,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, &mut rng);
        // 64 points, min leaf 32: at most one split.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn approximates_smooth_function() {
        let (x, y) = grid_xy(|v| (v * 5.0).sin());
        let mut rng = rng_from_seed(0);
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        let mut err: f64 = 0.0;
        for i in 0..20 {
            let q = i as f64 / 19.0;
            err = err.max((tree.predict(&[q]) - (q * 5.0).sin()).abs());
        }
        assert!(err < 0.2, "max error {err}");
    }

    #[test]
    fn random_threshold_strategy_still_reduces_error() {
        let (x, y) = grid_xy(|v| if v < 0.3 { 0.0 } else { 10.0 });
        let mut rng = rng_from_seed(3);
        let cfg = TreeConfig {
            strategy: SplitStrategy::RandomThreshold,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg, &mut rng);
        assert!(tree.predict(&[0.05]) < 3.0);
        assert!(tree.predict(&[0.95]) > 7.0);
    }

    #[test]
    fn two_dimensional_split() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                x.push(vec![i as f64 / 7.0, j as f64 / 7.0]);
                y.push(if j >= 4 { 1.0 } else { 0.0 }); // depends on dim 1 only
            }
        }
        let mut rng = rng_from_seed(0);
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        assert!(tree.predict(&[0.5, 0.9]) > 0.9);
        assert!(tree.predict(&[0.5, 0.1]) < 0.1);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, _) = grid_xy(|v| v);
        let y = vec![7.0; x.len()];
        let mut rng = rng_from_seed(0);
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.predict(&[0.4]), 7.0);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_data_panics() {
        let mut rng = rng_from_seed(0);
        RegressionTree::fit(&[], &[], &TreeConfig::default(), &mut rng);
    }
}
