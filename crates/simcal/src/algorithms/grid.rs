//! Grid search (paper's GRID): exhaustive search over a discretized grid
//! of the unit hypercube, doubling the resolution at each iteration.
//!
//! The paper omits GRID from its result tables because it "performed
//! poorly in preliminary experiments"; it is implemented here both for
//! completeness and so the `ablations` binary can reproduce that
//! preliminary comparison.

use super::SearchAlgorithm;
use crate::budget::Evaluator;

/// Levels per dimension of the first sweep (doubled per sweep).
const INITIAL_RESOLUTION: usize = 2;

/// Iteratively-refined exhaustive grid search.
#[derive(Clone, Copy, Debug)]
pub struct GridSearch;

impl GridSearch {
    /// Grid coordinates for `level` of `resolution` levels: endpoints
    /// included (`0` and `1`), evenly spaced.
    fn coord(level: usize, resolution: usize) -> f64 {
        if resolution <= 1 {
            0.5
        } else {
            level as f64 / (resolution - 1) as f64
        }
    }
}

impl SearchAlgorithm for GridSearch {
    fn name(&self) -> &'static str {
        "GRID"
    }

    fn search(&self, evaluator: &Evaluator<'_>, _seed: u64) {
        let dim = evaluator.space().dim();
        let batch_size = super::pool_batch_size();
        let mut resolution = INITIAL_RESOLUTION;
        loop {
            // Enumerate the full factorial grid in mixed-radix order,
            // streaming batches to the evaluator.
            let mut counter = vec![0usize; dim];
            let mut batch: Vec<Vec<f64>> = Vec::with_capacity(batch_size);
            'grid: loop {
                batch.push(
                    counter
                        .iter()
                        .map(|&l| Self::coord(l, resolution))
                        .collect(),
                );
                if batch.len() == batch_size {
                    if evaluator.eval_batch(&batch).is_none() {
                        return;
                    }
                    batch.clear();
                }
                // Increment the mixed-radix counter.
                for digit in counter.iter_mut() {
                    *digit += 1;
                    if *digit < resolution {
                        continue 'grid;
                    }
                    *digit = 0;
                }
                break;
            }
            if !batch.is_empty() && evaluator.eval_batch(&batch).is_none() {
                return;
            }
            if evaluator.exhausted() {
                return;
            }
            // Double the resolution for the next sweep.
            match resolution.checked_mul(2) {
                Some(r) => resolution = r,
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::objective::FnObjective;
    use crate::param::{Calibration, ParamKind, ParameterSpace};

    fn quadratic_1d(center: f64) -> FnObjective<impl Fn(&Calibration) -> f64 + Sync> {
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        FnObjective::new(space, move |c: &Calibration| (c.values[0] - center).powi(2))
    }

    #[test]
    fn refinement_converges_on_1d_quadratic() {
        let obj = quadratic_1d(0.3);
        let ev = Evaluator::new(&obj, Budget::Evaluations(200));
        GridSearch.search(&ev, 0);
        let (loss, _, calib) = ev.best().unwrap();
        assert!(loss < 1e-3, "loss {loss}");
        assert!(
            (calib.values[0] - 0.3).abs() < 0.05,
            "x {}",
            calib.values[0]
        );
    }

    #[test]
    fn first_sweep_hits_the_corners() {
        let space = ParameterSpace::new()
            .with("a", ParamKind::Continuous { lo: 0.0, hi: 1.0 })
            .with("b", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        // Minimum at corner (1,1): the resolution-2 grid evaluates it.
        let obj = FnObjective::new(space, |c: &Calibration| {
            (c.values[0] - 1.0).abs() + (c.values[1] - 1.0).abs()
        });
        let ev = Evaluator::new(&obj, Budget::Evaluations(4));
        GridSearch.search(&ev, 0);
        let (loss, _, _) = ev.best().unwrap();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn coord_spacing_is_even_with_endpoints() {
        assert_eq!(GridSearch::coord(0, 2), 0.0);
        assert_eq!(GridSearch::coord(1, 2), 1.0);
        assert_eq!(GridSearch::coord(1, 3), 0.5);
        assert_eq!(GridSearch::coord(0, 1), 0.5);
    }

    #[test]
    fn exhausts_budget_in_high_dimension() {
        let mut space = ParameterSpace::new();
        for i in 0..6 {
            space.add(&format!("x{i}"), ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        }
        let obj = FnObjective::new(space, |c: &Calibration| c.values.iter().sum());
        let ev = Evaluator::new(&obj, Budget::Evaluations(100));
        GridSearch.search(&ev, 0);
        assert_eq!(ev.evaluations(), 100);
    }
}
