//! Random search (paper's RAND): uniform sampling of the unit hypercube,
//! evaluated in parallel batches until the budget is exhausted.

use super::SearchAlgorithm;
use crate::budget::Evaluator;
use numeric::rng_from_seed;

/// Uniform random search.
#[derive(Clone, Copy, Debug)]
pub struct RandomSearch;

impl SearchAlgorithm for RandomSearch {
    fn name(&self) -> &'static str {
        "RAND"
    }

    fn search(&self, evaluator: &Evaluator<'_>, seed: u64) {
        let dim = evaluator.space().dim();
        let batch_size = super::pool_batch_size();
        let mut rng = rng_from_seed(seed);
        while !evaluator.exhausted() {
            let batch: Vec<Vec<f64>> = (0..batch_size)
                .map(|_| (0..dim).map(|_| rng.unit()).collect())
                .collect();
            if evaluator.eval_batch(&batch).is_none() {
                break;
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

    fn sphere(dim: usize) -> FnObjective<impl Fn(&Calibration) -> f64 + Sync> {
        let mut space = ParameterSpace::new();
        for i in 0..dim {
            space.add(
                &format!("x{i}"),
                ParamKind::Continuous { lo: -1.0, hi: 1.0 },
            );
        }
        FnObjective::new(space, |c: &Calibration| {
            c.values.iter().map(|v| v * v).sum()
        })
    }

    #[test]
    fn finds_a_reasonable_minimum_on_the_sphere() {
        let obj = sphere(2);
        let ev = Evaluator::new(&obj, Budget::Evaluations(400));
        RandomSearch.search(&ev, 1);
        let (loss, _, _) = ev.best().unwrap();
        assert!(
            loss < 0.1,
            "random search should get close on 2-D sphere: {loss}"
        );
        assert_eq!(ev.evaluations(), 400);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let obj = sphere(3);
        let run = |seed| {
            let ev = Evaluator::new(&obj, Budget::Evaluations(64));
            RandomSearch.search(&ev, seed);
            ev.best().unwrap().0
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn respects_budget_exactly() {
        let obj = sphere(2);
        let ev = Evaluator::new(&obj, Budget::Evaluations(33));
        RandomSearch.search(&ev, 0);
        assert_eq!(ev.evaluations(), 33);
    }
}
