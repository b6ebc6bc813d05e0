//! Shared plumbing for the case-study-1 (workflow) experiment binaries.
//!
//! The paper's 9,200-execution ground-truth grid takes days of testbed
//! time; our emulated grid is cheap, but calibrating 12 versions x 5
//! applications must still fit in minutes on one core, so the experiment
//! binaries run on a documented sub-grid of Table 1 (configurable via
//! `--fast` and the budget flags).

use simcal::prelude::*;
use wfsim::prelude::*;

/// Calibrate `version` against `train` under `loss`, returning the result.
pub fn calibrate_version(
    version: SimulatorVersion,
    train: &[WfScenario],
    loss: StructuredLoss,
    budget: Budget,
    seed: u64,
) -> CalibrationResult {
    let sim = WorkflowSimulator::new(version);
    let obj = objective(&sim, train, loss);
    Calibrator::bo_gp(budget, seed).calibrate(&obj)
}

/// Loss of a fixed calibration on a scenario set, under a loss function.
pub fn fixed_loss(
    version: SimulatorVersion,
    calibration: &Calibration,
    scenarios: &[WfScenario],
    loss: &StructuredLoss,
) -> f64 {
    let sim = WorkflowSimulator::new(version);
    objective(&sim, scenarios, loss.clone()).loss(calibration)
}
