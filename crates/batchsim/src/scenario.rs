//! Integration with the calibration framework.

use crate::ground_truth::BatchGroundTruthRecord;
use crate::simulator::BatchSimulator;
use simcal::prelude::{
    relative_error, Calibration, ScenarioError, SimulationObjective, Simulator, StructuredLoss,
};

/// One calibration scenario: a workload trace plus observed metrics.
pub type BatchScenario = BatchGroundTruthRecord;

impl Simulator for BatchSimulator {
    type Scenario = BatchScenario;
    type Output = ScenarioError;

    /// Simulate the trace: the makespan error, per-job turnaround errors
    /// and the run's event count (the same structured-error shape as case
    /// study #1, so the paper's L1–L6 losses apply unchanged).
    fn run(&self, scenario: &BatchScenario, calibration: &Calibration) -> ScenarioError {
        let out = self.simulate(&scenario.jobs, calibration);
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
    simulator: &'a BatchSimulator,
    scenarios: &'a [BatchScenario],
    loss: StructuredLoss,
) -> SimulationObjective<'a, BatchSimulator, StructuredLoss> {
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
    use crate::ground_truth::{dataset, default_grid, BatchEmulatorConfig};
    use crate::versions::BatchVersion;
    use simcal::prelude::{Agg, Budget, Calibrator, ElementMix, Objective};

    #[test]
    fn calibration_improves_over_arbitrary_point() {
        let cfg = BatchEmulatorConfig::default();
        let scenarios = dataset(&default_grid(1)[..2], &cfg, 2, 7);
        let version = BatchVersion::highest_detail();
        let sim = BatchSimulator::new(version, cfg.total_nodes);
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
        assert!(result.loss < 0.5, "calibrated loss {}", result.loss);
    }

    #[test]
    fn cycle_version_fits_better_than_instant() {
        // The hidden system batches starts at a 30s cycle; the instant
        // version cannot express the induced queueing delays of short
        // jobs, the cycle version can.
        let cfg = BatchEmulatorConfig::default();
        let specs = [crate::workload::WorkloadSpec {
            num_jobs: 80,
            mean_interarrival: 15.0,
            mean_work: 60.0, // short jobs: cycle waits dominate
            max_nodes_log2: 3,
            seed: 11,
        }];
        let scenarios = dataset(&specs, &cfg, 2, 5);
        let loss = StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3");
        let budget = Budget::Evaluations(150);

        let run = |version: BatchVersion| {
            let sim = BatchSimulator::new(version, cfg.total_nodes);
            let obj = objective(&sim, &scenarios, loss.clone());
            (0..3u64)
                .map(|r| Calibrator::bo_gp(budget, 9 ^ r << 32).calibrate(&obj).loss)
                .fold(f64::INFINITY, f64::min)
        };
        let instant = run(BatchVersion::lowest_detail());
        let cycle = run(BatchVersion {
            overhead: crate::versions::OverheadDetail::Cycle,
            runtime: crate::versions::RuntimeDetail::Proportional,
        });
        assert!(
            cycle < instant,
            "modelling the scheduling cycle must help: cycle {cycle} vs instant {instant}"
        );
    }
}
