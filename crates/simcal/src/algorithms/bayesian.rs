//! Bayesian optimization (paper's BO-GP / BO-RF / BO-ET / BO-GBRT).
//!
//! Sequential model-based optimization: an incrementally refit surrogate
//! models the loss landscape; candidates are scored with Expected
//! Improvement, balancing exploration (high predictive uncertainty) and
//! exploitation (low predicted loss); the top-scoring batch is evaluated
//! in parallel and added to the training set.

use super::SearchAlgorithm;
use crate::budget::Evaluator;
use crate::surrogate::SurrogateKind;
use numeric::{norm_cdf, norm_pdf, rng_from_seed};
use rayon::prelude::*;
use std::time::Instant;

/// Random points evaluated before the first surrogate fit.
const N_INITIAL: usize = 16;
/// Size of the candidate pool scored by the acquisition.
const N_CANDIDATES: usize = 512;
/// Fraction of candidates drawn as local perturbations of the incumbent
/// rather than uniformly (exploitation bias); as many again are
/// single-coordinate mutations of it.
const LOCAL_FRACTION: f64 = 0.3;
/// Standard deviation of the local perturbations (unit-cube units).
const LOCAL_SIGMA: f64 = 0.08;
/// Candidates of each local kind: perturbed, then coordinate-mutated.
const N_LOCAL: usize = (N_CANDIDATES as f64 * LOCAL_FRACTION) as usize;
/// Perturbation scales, taken in turn by candidate index.
const SCALES: [f64; 3] = [LOCAL_SIGMA * 2.0, LOCAL_SIGMA, LOCAL_SIGMA * 0.25];

/// Bayesian optimization with a pluggable surrogate.
#[derive(Clone, Debug)]
pub struct BayesianOpt {
    /// Surrogate regressor.
    pub surrogate: SurrogateKind,
    /// Points proposed (and evaluated in parallel) per iteration.
    pub batch_size: usize,
    /// Warm-start observations `(unit point, loss)` from a previous
    /// calibration (e.g. a neighbouring simulator version or scale, read
    /// back from the persistent cache). They join the surrogate's fit
    /// set and steer the incumbent anchor of the acquisition, but are
    /// never themselves evaluated, never consume budget, and never enter
    /// the evaluator's incumbent — the reported best always comes from
    /// points this run actually evaluated. Non-finite losses and points
    /// of the wrong dimension are ignored.
    pub warm_start: Vec<(Vec<f64>, f64)>,
}

impl BayesianOpt {
    /// Default configuration for the given surrogate: batches of 8, no
    /// warm start.
    pub fn new(surrogate: SurrogateKind) -> Self {
        Self {
            surrogate,
            batch_size: 8,
            warm_start: Vec::new(),
        }
    }

    /// Attach warm-start observations (see the `warm_start` field).
    pub fn with_warm_start(mut self, warm_start: Vec<(Vec<f64>, f64)>) -> Self {
        self.warm_start = warm_start;
        self
    }
}

/// Expected improvement of a candidate with predictive `(mean, std)` over
/// the incumbent `best`: `(best - mean) Φ(z) + σ φ(z)`, `z = (best - mean)/σ`.
fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    (best - mean) * norm_cdf(z) + std * norm_pdf(z)
}

impl SearchAlgorithm for BayesianOpt {
    fn name(&self) -> &'static str {
        match self.surrogate {
            SurrogateKind::GaussianProcess => "BO-GP",
            SurrogateKind::RandomForest => "BO-RF",
            SurrogateKind::ExtraTrees => "BO-ET",
            SurrogateKind::Gbrt => "BO-GBRT",
        }
    }

    fn search(&self, evaluator: &Evaluator<'_>, seed: u64) {
        let dim = evaluator.space().dim();
        let mut rng = rng_from_seed(seed);

        // The surrogate's fit set: warm-start observations (which
        // participate in every fit but are never evaluated and never
        // consume budget), then this run's finite observations in
        // evaluation order.
        let (mut fit_xs, mut fit_ys): (Vec<Vec<f64>>, Vec<f64>) = self
            .warm_start
            .iter()
            .filter(|(x, y)| x.len() == dim && y.is_finite())
            .cloned()
            .unzip();

        // Initial design: uniform random.
        let init: Vec<Vec<f64>> = (0..N_INITIAL)
            .map(|_| (0..dim).map(|_| rng.unit()).collect())
            .collect();
        if !evaluate_into(evaluator, &init, &mut fit_xs, &mut fit_ys) {
            return;
        }

        let mut surrogate = self.surrogate.build(seed ^ 0x5eed);
        // The candidate pool, drawn afresh into the same rows every
        // iteration; a search that ends with its initial design never
        // allocates it.
        let mut candidates: Vec<Vec<f64>> = Vec::new();
        while !evaluator.exhausted() {
            if fit_xs.is_empty() {
                // Every evaluation so far failed: nothing to model, so
                // explore uniformly at random until something survives.
                let batch: Vec<Vec<f64>> = (0..self.batch_size.max(1))
                    .map(|_| (0..dim).map(|_| rng.unit()).collect())
                    .collect();
                if !evaluate_into(evaluator, &batch, &mut fit_xs, &mut fit_ys) {
                    return;
                }
                continue;
            }
            let fit_started = obs::enabled().then(Instant::now);
            surrogate.fit(&fit_xs, &fit_ys);
            let acquisition_started = fit_started.map(|t| {
                obs::observe(obs::Hist::SurrogateFit, t.elapsed().as_secs_f64());
                Instant::now()
            });
            let best_y = fit_ys.iter().copied().fold(f64::INFINITY, f64::min);
            let best_x = &fit_xs[numeric::argmin(&fit_ys).expect("non-empty history")];

            // Candidate pool: uniform exploration, multi-scale Gaussian
            // perturbations of the incumbent, and single-coordinate
            // mutations (the loss landscapes of calibration problems are
            // largely axis-aligned: one parameter per simulated component).
            candidates.resize_with(N_CANDIDATES, || vec![0.0; dim]);
            for (i, c) in candidates.iter_mut().enumerate() {
                let sigma = SCALES[i % SCALES.len()];
                if i < N_LOCAL {
                    for (c, &v) in c.iter_mut().zip(best_x) {
                        *c = numeric::normal(&mut rng, v, sigma).clamp(0.0, 1.0);
                    }
                } else if i < 2 * N_LOCAL {
                    c.copy_from_slice(best_x);
                    let d = rng.below(dim);
                    c[d] = if i % 2 == 0 {
                        rng.unit()
                    } else {
                        numeric::normal(&mut rng, c[d], sigma).clamp(0.0, 1.0)
                    };
                } else {
                    c.iter_mut().for_each(|c| *c = rng.unit());
                }
            }

            // Acquisition portfolio: half the batch by Expected
            // Improvement (exploration/exploitation balance), half by pure
            // predicted mean (greedy exploitation). A pure-EI batch tends
            // to chase high-uncertainty corners of a 10-D cube forever; the
            // greedy half keeps refining the incumbent basin.
            // Scoring the candidates against a GP over a growing history
            // is the one surrogate-side hot spot; blocks of candidates are
            // independent, so fan them into the pool (collection stays in
            // candidate order, keeping the acquisition sort deterministic).
            let blocks: Vec<&[Vec<f64>]> = candidates.chunks(SCORING_BLOCK).collect();
            let scored: Vec<Vec<(f64, f64)>> = blocks
                .par_iter()
                .map(|block| surrogate.predict_batch(block))
                .collect();
            let preds: Vec<(f64, f64)> = scored.into_iter().flatten().collect();
            let ei: Vec<f64> = preds
                .iter()
                .map(|&(mean, std)| expected_improvement(mean, std, best_y))
                .collect();
            let mut by_ei: Vec<usize> = (0..candidates.len()).collect();
            by_ei.sort_by(|&a, &b| {
                ei[b]
                    .partial_cmp(&ei[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut by_mean: Vec<usize> = (0..candidates.len()).collect();
            by_mean.sort_by(|&a, &b| {
                preds[a]
                    .0
                    .partial_cmp(&preds[b].0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut chosen: Vec<usize> = Vec::with_capacity(self.batch_size);
            let mut ei_it = by_ei.into_iter();
            let mut mean_it = by_mean.into_iter();
            while chosen.len() < self.batch_size {
                let next = if chosen.len().is_multiple_of(2) {
                    ei_it.next()
                } else {
                    mean_it.next()
                };
                match next {
                    Some(i) if !chosen.contains(&i) => chosen.push(i),
                    Some(_) => continue,
                    None => break,
                }
            }
            let batch: Vec<Vec<f64>> = chosen.iter().map(|&i| candidates[i].clone()).collect();
            if let Some(t) = acquisition_started {
                obs::observe(obs::Hist::Acquisition, t.elapsed().as_secs_f64());
            }

            if !evaluate_into(evaluator, &batch, &mut fit_xs, &mut fit_ys) {
                return;
            }
        }
    }
}

/// Candidates handed to one `predict_batch` call: a multiple of any
/// surrogate's internal block width, and several calls per pool thread.
const SCORING_BLOCK: usize = 64;

/// Evaluate `points` and append the finite `(point, loss)` pairs to the
/// fit set; `false` once the budget admits nothing more.
///
/// Quarantined evaluations surface as +inf losses (and a custom evaluator
/// could hand back NaN); non-finite pairs must never reach the surrogate
/// fit or pick the incumbent — in release builds they would silently
/// poison every subsequent prediction. In the fault-free case the filter
/// is a no-op, so trajectories are unchanged.
fn evaluate_into(
    evaluator: &Evaluator<'_>,
    points: &[Vec<f64>],
    fit_xs: &mut Vec<Vec<f64>>,
    fit_ys: &mut Vec<f64>,
) -> bool {
    let Some(losses) = evaluator.eval_batch(points) else {
        return false;
    };
    for (x, y) in points.iter().zip(losses) {
        if y.is_finite() {
            fit_xs.push(x.clone());
            fit_ys.push(y);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::objective::FnObjective;
    use crate::param::{Calibration, ParamKind, ParameterSpace};

    fn make_objective(
        dim: usize,
        f: impl Fn(&[f64]) -> f64 + Sync,
    ) -> FnObjective<impl Fn(&Calibration) -> f64 + Sync> {
        let mut space = ParameterSpace::new();
        for i in 0..dim {
            space.add(&format!("x{i}"), ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        }
        FnObjective::new(space, move |c: &Calibration| f(&c.values))
    }

    #[test]
    fn ei_prefers_low_mean_and_high_uncertainty() {
        // Lower mean wins at equal std.
        assert!(expected_improvement(0.2, 0.1, 1.0) > expected_improvement(0.8, 0.1, 1.0));
        // Higher std wins at equal mean above the incumbent.
        assert!(expected_improvement(1.5, 1.0, 1.0) > expected_improvement(1.5, 0.01, 1.0));
        // Zero std, mean above incumbent: no improvement expected.
        assert_eq!(expected_improvement(2.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn bo_gp_beats_random_on_smooth_function() {
        // Multi-modal-ish smooth landscape with global minimum near (0.7, 0.3).
        let f = |v: &[f64]| {
            (v[0] - 0.7).powi(2)
                + (v[1] - 0.3).powi(2)
                + 0.05 * ((8.0 * v[0]).sin() * (8.0 * v[1]).cos())
                + 0.05
        };
        let obj = make_objective(2, f);
        let budget = Budget::Evaluations(120);

        let ev_bo = Evaluator::new(&obj, budget);
        BayesianOpt::new(SurrogateKind::GaussianProcess).search(&ev_bo, 1);
        let bo = ev_bo.best().unwrap().0;

        let ev_rand = Evaluator::new(&obj, budget);
        crate::algorithms::RandomSearch.search(&ev_rand, 1);
        let rand = ev_rand.best().unwrap().0;

        assert!(
            bo <= rand * 1.25 + 1e-9,
            "BO {bo} should not lose badly to RAND {rand}"
        );
        assert!(bo < 0.06, "BO should approach the global optimum: {bo}");
    }

    #[test]
    fn all_surrogates_run_to_budget() {
        let obj = make_objective(3, |v| v.iter().map(|x| (x - 0.5).powi(2)).sum());
        for kind in SurrogateKind::ALL {
            let ev = Evaluator::new(&obj, Budget::Evaluations(60));
            BayesianOpt::new(kind).search(&ev, 2);
            assert_eq!(ev.evaluations(), 60, "{}", kind.name());
            assert!(ev.best().unwrap().0 < 0.3, "{}", kind.name());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let obj = make_objective(2, |v| (v[0] - 0.2).abs() + (v[1] - 0.9).abs());
        let run = |seed| {
            let ev = Evaluator::new(&obj, Budget::Evaluations(50));
            BayesianOpt::new(SurrogateKind::GaussianProcess).search(&ev, seed);
            ev.best().unwrap().0
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn non_finite_losses_never_reach_the_surrogate() {
        // Regression for the release-mode hole: NaN/inf history pairs
        // were guarded only by a debug_assert!, so optimized builds fit
        // the surrogate on poisoned data. The evaluator quarantines NaN
        // losses into +inf, and the fit now filters non-finite pairs —
        // this test exercises the whole path in every build profile.
        let obj = make_objective(2, |v| {
            if v[0] > 0.6 {
                f64::NAN // quarantined as NonFinite by the evaluator
            } else {
                (v[0] - 0.3).powi(2) + (v[1] - 0.3).powi(2)
            }
        });
        for kind in [SurrogateKind::GaussianProcess, SurrogateKind::Gbrt] {
            let ev = Evaluator::new(&obj, Budget::Evaluations(80));
            BayesianOpt::new(kind).search(&ev, 11);
            assert_eq!(ev.evaluations(), 80, "{}", kind.name());
            assert!(ev.eval_nonfinite() > 0, "{}", kind.name());
            let best = ev.best().expect("finite region must produce a best").0;
            assert!(best.is_finite(), "{}", kind.name());
            assert!(best < 0.2, "{}: best {best}", kind.name());
        }
    }

    #[test]
    fn all_failing_history_falls_back_to_random_exploration() {
        // If every early evaluation fails, the fit set is empty; the
        // search must keep exploring instead of panicking on argmin.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let obj = make_objective(1, move |v| {
            // The first probes all fail; later ones succeed on half the
            // domain, so random exploration eventually finds a survivor.
            let n = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < 20 || v[0] > 0.5 {
                f64::NAN
            } else {
                v[0]
            }
        });
        let ev = Evaluator::new(&obj, Budget::Evaluations(60));
        BayesianOpt::new(SurrogateKind::GaussianProcess).search(&ev, 4);
        assert_eq!(ev.evaluations(), 60);
        assert!(ev.best().is_some(), "a survivor must become the incumbent");
    }

    #[test]
    fn invalid_warm_points_are_ignored() {
        // Wrong-dimension and non-finite warm observations must leave
        // the trajectory bit-for-bit identical to a cold start.
        let obj = make_objective(2, |v| (v[0] - 0.2).abs() + (v[1] - 0.9).abs());
        let run = |warm: Vec<(Vec<f64>, f64)>| {
            let ev = Evaluator::new(&obj, Budget::Evaluations(40));
            BayesianOpt::new(SurrogateKind::GaussianProcess)
                .with_warm_start(warm)
                .search(&ev, 13);
            let (loss, unit, _) = ev.best().unwrap();
            (loss.to_bits(), unit)
        };
        let cold = run(Vec::new());
        let warm = run(vec![
            (vec![0.5], 0.1),                // wrong dimension
            (vec![0.2, 0.9], f64::NAN),      // non-finite loss
            (vec![0.2, 0.9], f64::INFINITY), // non-finite loss
        ]);
        assert_eq!(warm, cold);
    }

    #[test]
    fn warm_start_steers_but_never_consumes_budget() {
        // Warm observations at the optimum bias the surrogate toward it
        // without being evaluated: the budget is spent entirely on this
        // run's own proposals, and the incumbent is one of them.
        let f = |v: &[f64]| (v[0] - 0.7).powi(2) + (v[1] - 0.3).powi(2);
        let obj = make_objective(2, f);
        let warm: Vec<(Vec<f64>, f64)> = vec![
            (vec![0.7, 0.3], 0.0),
            (vec![0.68, 0.33], 0.0013),
            (vec![0.75, 0.28], 0.0029),
        ];
        let ev = Evaluator::new(&obj, Budget::Evaluations(40));
        BayesianOpt::new(SurrogateKind::GaussianProcess)
            .with_warm_start(warm)
            .search(&ev, 21);
        assert_eq!(ev.evaluations(), 40, "warm points must not consume budget");
        let (loss, unit, _) = ev.best().unwrap();
        // The reported best was really evaluated: its loss matches the
        // objective at the reported unit point.
        assert!((loss - f(&unit)).abs() < 1e-12);
        assert!(loss < 0.05, "warm-started search should home in: {loss}");
    }

    /// FNV-1a over the bits of every `(point, loss)` the objective was
    /// asked for during one BO-GP run of 400 evaluations. The batch is
    /// evaluated on the pool, so the records are sorted before hashing.
    fn trajectory_digest(warm: Vec<(Vec<f64>, f64)>) -> u64 {
        let seen = std::sync::Mutex::new(Vec::new());
        let obj = make_objective(4, |v| {
            let loss = v
                .iter()
                .enumerate()
                .map(|(i, x)| (x - 0.2 - 0.15 * i as f64).powi(2))
                .sum::<f64>()
                + 0.1 * (9.0 * v[0]).sin() * (5.0 * v[3]).cos();
            let mut record: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            record.push(loss.to_bits());
            seen.lock().unwrap().push(record);
            loss
        });
        let ev = Evaluator::new(&obj, Budget::Evaluations(400));
        BayesianOpt::new(SurrogateKind::GaussianProcess)
            .with_warm_start(warm)
            .search(&ev, 2025);
        assert_eq!(ev.evaluations(), 400);
        let mut records = std::mem::take(&mut *seen.lock().unwrap());
        records.sort_unstable();
        crate::cache::fnv1a_fold(records.into_iter().flatten())
    }

    #[test]
    fn bo_gp_trajectory_past_the_cap_is_pinned() {
        // The only pinned run whose history crosses the GP's 200-point
        // cap (16 + 48 x 8 evaluations). Both values were recorded before
        // the GP learned to keep its factors between fits and must never
        // be re-recorded.
        assert_eq!(trajectory_digest(Vec::new()), 0xa9dd_8938_2fab_0453);
        let warm = vec![
            (vec![0.2, 0.35, 0.5, 0.65], 0.01),
            (vec![0.25, 0.3, 0.55, 0.6], 0.02),
            (vec![0.9, 0.9, 0.1, 0.1], 1.4),
        ];
        assert_eq!(trajectory_digest(warm), 0xcd85_6a13_21d9_8549);
    }

    #[test]
    fn tiny_budget_smaller_than_initial_design_is_safe() {
        let obj = make_objective(2, |v| v[0] + v[1]);
        let ev = Evaluator::new(&obj, Budget::Evaluations(5));
        BayesianOpt::new(SurrogateKind::GaussianProcess).search(&ev, 0);
        assert_eq!(ev.evaluations(), 5);
        assert!(ev.best().is_some());
    }
}
