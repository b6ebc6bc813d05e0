//! Synthetic benchmarking for loss/algorithm selection (paper §3).
//!
//! To decide which loss function and optimization algorithm to use, the
//! paper picks *arbitrary* parameter values θ\*, generates synthetic
//! ground-truth data by simulating every workload/platform configuration
//! at θ\*, calibrates against that synthetic data with each loss/algorithm
//! pair, and reports the **calibration error**: the relative L1 distance
//! between each computed calibration and θ\*, which is known to be the
//! best calibration by design. The pair with the lowest calibration error
//! wins (Tables 3 and 5).

use crate::calibrate::{CalibrationResult, Calibrator};
use crate::objective::Objective;
use crate::param::{Calibration, ParameterSpace};

/// The paper's calibration-error metric: `100 x` the relative L1 distance
/// between a computed calibration and the reference calibration θ\*.
///
/// The distance is computed over *range-normalized* coordinates (each
/// parameter mapped to `[0, 1]` by its user-specified range) so that
/// parameters with exponential ranges spanning six orders of magnitude do
/// not drown out everything else — without normalization a single
/// bandwidth off by `2^15` would dominate the sum no matter how good the
/// other nine parameters are.
pub fn calibration_error(
    space: &ParameterSpace,
    found: &Calibration,
    reference: &Calibration,
) -> f64 {
    let fu = space.normalize(found);
    let ru = space.normalize(reference);
    100.0 * numeric::relative_l1_distance(&fu, &ru)
}

/// One cell of a synthetic-benchmarking table.
#[derive(Clone, Debug)]
pub struct SyntheticCell {
    /// Report name of the algorithm (e.g. `"BO-GP"`).
    pub algorithm: String,
    /// Report name of the loss function (e.g. `"L1"`).
    pub loss_name: String,
    /// Relative L1 distance (x100) from the known best calibration.
    pub calibration_error: f64,
    /// The full calibration result (loss value, trace, ...).
    pub result: CalibrationResult,
}

/// Run synthetic benchmarking over a grid of (algorithm, loss) pairs.
///
/// `objectives` supplies, for each loss function under test, an objective
/// whose ground truth was generated *by the simulator itself* at the
/// reference calibration — so the reference is the known best calibration.
/// Each objective is calibrated with each calibrator; every cell reports
/// the calibration error against `reference`.
pub fn synthetic_benchmark<O: Objective>(
    calibrators: &[(String, Calibrator)],
    objectives: &[(String, O)],
    reference: &Calibration,
) -> Vec<SyntheticCell> {
    let mut cells = Vec::with_capacity(calibrators.len() * objectives.len());
    for (alg_name, calibrator) in calibrators {
        for (loss_name, objective) in objectives {
            let result = calibrator.calibrate(objective);
            cells.push(SyntheticCell {
                algorithm: alg_name.clone(),
                loss_name: loss_name.clone(),
                calibration_error: calibration_error(
                    objective.space(),
                    &result.calibration,
                    reference,
                ),
                result,
            });
        }
    }
    cells
}

/// Pick the `(algorithm, loss)` pair with the lowest calibration error.
///
/// Cells with a non-finite calibration error (a degraded-mode sweep can
/// record NaN cells) never win while any finite cell exists: `min_by`
/// with `partial_cmp(..).unwrap_or(Equal)` made the winner depend on
/// where the NaN sat in the slice, so the comparison now uses
/// [`f64::total_cmp`] over the finite cells first, falling back to the
/// full slice (still totally ordered) only when *no* cell is finite.
pub fn best_pair(cells: &[SyntheticCell]) -> Option<&SyntheticCell> {
    lowest_finite(cells, |c| c.calibration_error)
}

/// The first item with the lowest `key` under [`f64::total_cmp`] among
/// those whose key is finite, or among all items when none is: the rule
/// of [`best_pair`], for tables that rank cells by another metric.
pub fn lowest_finite<T>(items: &[T], key: impl Fn(&T) -> f64) -> Option<&T> {
    let by_key = |a: &&T, b: &&T| key(a).total_cmp(&key(b));
    items
        .iter()
        .filter(|item| key(item).is_finite())
        .min_by(by_key)
        .or_else(|| items.iter().min_by(by_key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgorithmKind;
    use crate::budget::Budget;
    use crate::objective::FnObjective;
    use crate::param::ParamKind;

    fn space() -> ParameterSpace {
        ParameterSpace::new()
            .with("p", ParamKind::Continuous { lo: 0.0, hi: 10.0 })
            .with("q", ParamKind::Continuous { lo: 0.0, hi: 10.0 })
    }

    #[test]
    fn calibration_error_zero_iff_exact() {
        let s = space();
        let a = Calibration::new(vec![1.0, 2.0]);
        assert_eq!(calibration_error(&s, &a, &a), 0.0);
        // Moving one parameter from 1.0 to 2.0 over a [0,10] range is a
        // 0.1 -> 0.2 normalized move: relative distance 1.0, x100 = 100.
        let b = Calibration::new(vec![2.0, 2.0]);
        assert!((calibration_error(&s, &b, &a) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_error_is_range_normalized() {
        // An exponential parameter off by one binade contributes the same
        // as a linear parameter off by 1/20 of its range.
        let s = ParameterSpace::new()
            .with(
                "bw",
                ParamKind::Exponential {
                    lo_exp: 20.0,
                    hi_exp: 40.0,
                },
            )
            .with("lat", ParamKind::Continuous { lo: 0.0, hi: 20.0 });
        let reference = s.calibration_from_pairs(&[("bw", 2f64.powi(30)), ("lat", 10.0)]);
        let off_bw = s.calibration_from_pairs(&[("bw", 2f64.powi(31)), ("lat", 10.0)]);
        let off_lat = s.calibration_from_pairs(&[("bw", 2f64.powi(30)), ("lat", 11.0)]);
        let e_bw = calibration_error(&s, &off_bw, &reference);
        let e_lat = calibration_error(&s, &off_lat, &reference);
        assert!((e_bw - e_lat).abs() < 1e-9, "{e_bw} vs {e_lat}");
    }

    #[test]
    fn synthetic_benchmark_recovers_reference_on_easy_objective() {
        let reference = Calibration::new(vec![3.0, 7.0]);
        let r = reference.clone();
        // Synthetic objective: distance to the reference (the simulator
        // "generated" ground truth at the reference, so loss is 0 there).
        let objective = FnObjective::new(space(), move |c: &Calibration| {
            c.values
                .iter()
                .zip(&r.values)
                .map(|(a, b)| (a - b).abs())
                .sum()
        });
        let calibrators = vec![
            (
                "BO-GP".to_string(),
                Calibrator {
                    algorithm: AlgorithmKind::BoGp,
                    budget: Budget::Evaluations(120),
                    seed: 3,
                },
            ),
            (
                "RAND".to_string(),
                Calibrator {
                    algorithm: AlgorithmKind::Random,
                    budget: Budget::Evaluations(120),
                    seed: 3,
                },
            ),
        ];
        let objectives = vec![("L1".to_string(), objective)];
        let cells = synthetic_benchmark(&calibrators, &objectives, &reference);
        assert_eq!(cells.len(), 2);
        let best = best_pair(&cells).unwrap();
        assert!(
            best.calibration_error < 30.0,
            "error {}",
            best.calibration_error
        );
        // Every cell carries a consistent result.
        for c in &cells {
            assert!(c.result.loss.is_finite());
            assert!(c.calibration_error >= 0.0);
        }
    }

    #[test]
    fn best_pair_of_empty_is_none() {
        assert!(best_pair(&[]).is_none());
    }

    #[test]
    fn best_pair_ignores_nan_cells_regardless_of_position() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` made a NaN cell
        // absorb the comparison, so the winner depended on where the NaN
        // sat in the slice.
        let objective = FnObjective::new(space(), |c: &Calibration| c.values[0]);
        let result = Calibrator::bo_gp(Budget::Evaluations(4), 1).calibrate(&objective);
        let cell = |name: &str, err: f64| SyntheticCell {
            algorithm: name.to_string(),
            loss_name: "L1".to_string(),
            calibration_error: err,
            result: result.clone(),
        };
        let cells = vec![
            cell("nan", f64::NAN),
            cell("inf", f64::INFINITY),
            cell("good", 12.5),
            cell("best", 3.0),
        ];
        for rot in 0..cells.len() {
            let mut rotated = cells.clone();
            rotated.rotate_left(rot);
            let winner = best_pair(&rotated).unwrap();
            assert_eq!(winner.algorithm, "best", "rotation {rot}");
        }
        // With no finite cell at all the pick is still deterministic
        // (total order: inf sorts below NaN) instead of positional.
        let all_bad = vec![cell("nan", f64::NAN), cell("inf", f64::INFINITY)];
        assert_eq!(best_pair(&all_bad).unwrap().algorithm, "inf");
        let flipped = vec![cell("inf", f64::INFINITY), cell("nan", f64::NAN)];
        assert_eq!(best_pair(&flipped).unwrap().algorithm, "inf");
    }
}
