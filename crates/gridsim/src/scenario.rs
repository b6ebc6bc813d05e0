//! Integration with the calibration framework.

use crate::ground_truth::GridGroundTruthRecord;
use crate::simulator::GridSimulator;
use simcal::prelude::{
    relative_error, Calibration, ScenarioError, SimulationObjective, Simulator, StructuredLoss,
};

/// One calibration scenario: a workload plus observed metrics.
pub type GridScenario = GridGroundTruthRecord;

impl Simulator for GridSimulator {
    type Scenario = GridScenario;
    type Output = ScenarioError;

    /// Simulate the workload: the makespan error, per-job turnaround
    /// errors and the run's event count — the same structured-error shape
    /// as the other case studies, so the paper's L1–L6 losses apply unchanged.
    fn run(&self, scenario: &GridScenario, calibration: &Calibration) -> ScenarioError {
        let out = self.simulate(&scenario.workload, calibration);
        ScenarioError {
            scalar: relative_error(scenario.makespan, out.makespan),
            elements: scenario
                .turnarounds
                .iter()
                .zip(&out.turnarounds)
                .map(|(&gt, &sim)| relative_error(gt, sim))
                .collect(),
            work: out.sim_events,
        }
    }
}

/// The calibration objective for one version over a scenario dataset.
pub fn objective<'a>(
    simulator: &'a GridSimulator,
    scenarios: &'a [GridScenario],
    loss: StructuredLoss,
) -> SimulationObjective<'a, GridSimulator, StructuredLoss> {
    SimulationObjective::new(
        simulator,
        scenarios,
        loss,
        simulator.version.parameter_space(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::{dataset, default_grid, GridEmulatorConfig};
    use crate::versions::GridVersion;
    use simcal::prelude::{Agg, Budget, Calibrator, ElementMix, Objective};

    #[test]
    fn calibration_improves_over_arbitrary_point() {
        let cfg = GridEmulatorConfig::default();
        let scenarios = dataset(&default_grid(1)[..2], &cfg, 2, 7);
        let version = GridVersion::highest_detail();
        let sim = GridSimulator::new(version);
        let obj = objective(
            &sim,
            &scenarios,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        );
        let arbitrary = obj.loss(
            &version
                .parameter_space()
                .denormalize(&vec![0.2; obj.space().dim()]),
        );
        let result = Calibrator::bo_gp(Budget::Evaluations(80), 3).calibrate(&obj);
        assert!(result.loss <= arbitrary, "{} vs {arbitrary}", result.loss);
        assert!(result.loss < 0.6, "calibrated loss {}", result.loss);
    }
}
