//! Gradient descent with random restarts (paper's GRAD): at each
//! iteration, sample a random starting point and run a finite-difference
//! gradient descent from it until convergence, then restart.
//!
//! Like GRID, the paper omits GRAD from its result tables for poor
//! preliminary performance; it is here for completeness and ablations.
//!
//! GRAD routes every probe through [`Evaluator::eval`]/`eval_batch` and
//! therefore benefits doubly from the evaluator's memoization: line-search
//! probes that revisit the current iterate (a step that changes nothing
//! after discrete snapping) and finite-difference probes pinned to the
//! unit-cube boundary resolve from the cache without consuming budget.

use super::SearchAlgorithm;
use crate::budget::Evaluator;
use numeric::rng_from_seed;

/// Finite-difference step (unit-cube coordinates).
const FD_STEP: f64 = 1e-3;
/// Initial step size of a descent.
const INITIAL_STEP: f64 = 0.1;
/// A descent is converged once its step size shrinks below this.
const MIN_STEP: f64 = 1e-4;
/// Maximum descent iterations before a forced restart.
const MAX_ITERS_PER_START: usize = 60;

/// Random-restart finite-difference gradient descent in the unit cube.
#[derive(Clone, Copy, Debug)]
pub struct GradientDescent;

impl SearchAlgorithm for GradientDescent {
    fn name(&self) -> &'static str {
        "GRAD"
    }

    fn search(&self, evaluator: &Evaluator<'_>, seed: u64) {
        let dim = evaluator.space().dim();
        let mut rng = rng_from_seed(seed);
        'restart: while !evaluator.exhausted() {
            let mut x: Vec<f64> = (0..dim).map(|_| rng.unit()).collect();
            let mut fx = match evaluator.eval(&x) {
                Some(v) => v,
                None => return,
            };
            let mut step = INITIAL_STEP;
            for _ in 0..MAX_ITERS_PER_START {
                // Forward-difference gradient, evaluated as one parallel batch.
                let probes: Vec<Vec<f64>> = (0..dim)
                    .map(|d| {
                        let mut p = x.clone();
                        p[d] = (p[d] + FD_STEP).min(1.0);
                        p
                    })
                    .collect();
                let fprobes = match evaluator.eval_batch(&probes) {
                    Some(v) if v.len() == dim => v,
                    _ => return,
                };
                let grad: Vec<f64> = (0..dim)
                    .map(|d| {
                        let h = probes[d][d] - x[d];
                        if h.abs() < f64::EPSILON {
                            0.0
                        } else {
                            (fprobes[d] - fx) / h
                        }
                    })
                    .collect();
                let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
                if gnorm < 1e-12 {
                    continue 'restart; // flat point: restart elsewhere
                }

                // Backtracking line search along -grad.
                let mut advanced = false;
                while step >= MIN_STEP {
                    let cand: Vec<f64> = x
                        .iter()
                        .zip(&grad)
                        .map(|(xi, gi)| (xi - step * gi / gnorm).clamp(0.0, 1.0))
                        .collect();
                    let fc = match evaluator.eval(&cand) {
                        Some(v) => v,
                        None => return,
                    };
                    if fc < fx {
                        x = cand;
                        fx = fc;
                        step *= 1.5;
                        advanced = true;
                        break;
                    }
                    step *= 0.5;
                }
                if !advanced {
                    continue 'restart; // converged: restart elsewhere
                }
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

    fn shifted_sphere(dim: usize, center: f64) -> FnObjective<impl Fn(&Calibration) -> f64 + Sync> {
        let mut space = ParameterSpace::new();
        for i in 0..dim {
            space.add(&format!("x{i}"), ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        }
        FnObjective::new(space, move |c: &Calibration| {
            c.values.iter().map(|v| (v - center) * (v - center)).sum()
        })
    }

    #[test]
    fn descends_to_interior_minimum() {
        let obj = shifted_sphere(3, 0.7);
        let ev = Evaluator::new(&obj, Budget::Evaluations(600));
        GradientDescent.search(&ev, 3);
        let (loss, _, calib) = ev.best().unwrap();
        assert!(loss < 1e-3, "loss {loss}");
        for v in &calib.values {
            assert!((v - 0.7).abs() < 0.05, "coordinate {v}");
        }
    }

    #[test]
    fn clamps_to_boundary_minimum() {
        // Minimum at the boundary (all ones).
        let obj = shifted_sphere(2, 1.0);
        let ev = Evaluator::new(&obj, Budget::Evaluations(400));
        GradientDescent.search(&ev, 5);
        let (loss, _, _) = ev.best().unwrap();
        assert!(loss < 0.01, "loss {loss}");
    }

    #[test]
    fn is_deterministic_per_seed_and_respects_budget() {
        let obj = shifted_sphere(2, 0.4);
        let run = |seed| {
            let ev = Evaluator::new(&obj, Budget::Evaluations(100));
            GradientDescent.search(&ev, seed);
            (ev.evaluations(), ev.best().unwrap().0)
        };
        let (n1, l1) = run(11);
        let (n2, l2) = run(11);
        assert_eq!(n1, 100);
        assert_eq!((n1, l1), (n2, l2));
    }
}
