//! Integration with the calibration framework: scenarios, explained-
//! variance outputs, and the `simcal::Simulator` implementation.

use crate::ground_truth::MpiGroundTruthRecord;
use crate::simulator::MpiSimulator;
use numeric::explained_variance;
use simcal::prelude::{Calibration, MatrixLoss, SimulationObjective, Simulator};

/// One calibration scenario: a benchmark at one node count with its
/// measured transfer-rate samples.
pub type MpiScenario = MpiGroundTruthRecord;

/// One scenario simulated: the explained-variance row the MPI losses
/// fold, beside the simulated rates the held-out rate error reads.
#[derive(Clone, Debug, PartialEq)]
pub struct MpiRun {
    /// Explained variance per message size (paper §6.3.2).
    pub ev: Vec<f64>,
    /// Simulated transfer rate (bytes/s) per message size.
    pub rates: Vec<f64>,
}

impl AsRef<[f64]> for MpiRun {
    fn as_ref(&self) -> &[f64] {
        &self.ev
    }
}

impl Simulator for MpiSimulator {
    type Scenario = MpiScenario;
    type Output = MpiRun;

    /// Simulate the scenario's per-size rates and, per message size, the
    /// explained variance between the measured samples and the
    /// (deterministic) simulated rate (paper §6.3.2).
    fn run(&self, scenario: &MpiScenario, calibration: &Calibration) -> MpiRun {
        let rates = self.transfer_rates(
            scenario.benchmark,
            scenario.n_nodes,
            &scenario.sizes,
            calibration,
        );
        let ev = scenario
            .samples
            .iter()
            .zip(&rates)
            .map(|(samples, &rate)| explained_variance(samples, rate))
            .collect();
        MpiRun { ev, rates }
    }
}

/// The calibration objective for one simulator version over a scenario
/// dataset, under a given explained-variance loss.
pub fn objective<'a>(
    simulator: &'a MpiSimulator,
    scenarios: &'a [MpiScenario],
    loss: MatrixLoss,
) -> SimulationObjective<'a, MpiSimulator, MatrixLoss> {
    SimulationObjective::new(
        simulator,
        scenarios,
        loss,
        simulator.version().parameter_space(),
    )
}

/// Percent relative error between a run's simulated and the scenario's
/// mean measured transfer rates, averaged over message sizes — the
/// accuracy metric of Figure 5 and the second row block of Table 5.
pub fn mean_relative_rate_error(scenario: &MpiScenario, run: &MpiRun) -> f64 {
    let errs: Vec<f64> = scenario
        .mean_rates()
        .iter()
        .zip(&run.rates)
        .map(|(&gt, &sim)| simcal::prelude::relative_error(gt, sim))
        .collect();
    numeric::mean(&errs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::BenchmarkKind;
    use crate::ground_truth::{dataset, MpiEmulatorConfig};
    use crate::versions::MpiSimulatorVersion;
    use simcal::prelude::{Agg, Budget, Calibrator, Objective};

    fn tiny_dataset() -> Vec<MpiScenario> {
        let cfg = MpiEmulatorConfig {
            repetitions: 3,
            ..Default::default()
        };
        dataset(
            &[BenchmarkKind::PingPong, BenchmarkKind::BiRandom],
            &[8],
            &cfg,
            42,
        )
    }

    #[test]
    fn run_returns_one_ev_per_message_size() {
        let scenarios = tiny_dataset();
        let sim = MpiSimulator::new(MpiSimulatorVersion::lowest_detail());
        let calib =
            sim.version()
                .parameter_space()
                .denormalize(&vec![0.5; sim.version().parameter_space().dim()]);
        let evs = sim.run(&scenarios[0], &calib).ev;
        assert_eq!(evs.len(), 13);
        assert!(evs.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn objective_is_finite_and_calibration_reduces_it() {
        let scenarios = tiny_dataset();
        let sim = MpiSimulator::new(MpiSimulatorVersion::lowest_detail());
        let obj = objective(&sim, &scenarios, MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"));
        let dim = obj.space().dim();
        let arbitrary = obj.loss(&sim.version().parameter_space().denormalize(&vec![0.3; dim]));
        assert!(arbitrary.is_finite());
        let result = Calibrator::bo_gp(Budget::Evaluations(60), 5).calibrate(&obj);
        assert!(
            result.loss <= arbitrary,
            "calibrated {} vs arbitrary {arbitrary}",
            result.loss
        );
    }

    #[test]
    fn rate_error_is_zero_for_a_perfect_model() {
        // Build a scenario whose samples equal the simulator's own output.
        let sim = MpiSimulator::new(MpiSimulatorVersion::lowest_detail());
        let space = sim.version().parameter_space();
        let calib = space.denormalize(&vec![0.5; space.dim()]);
        let sizes = crate::benchmarks::message_sizes();
        let rates = sim.transfer_rates(BenchmarkKind::PingPong, 8, &sizes, &calib);
        let scenario = MpiScenario {
            benchmark: BenchmarkKind::PingPong,
            n_nodes: 8,
            sizes,
            samples: rates.iter().map(|&r| vec![r, r]).collect(),
        };
        let err = mean_relative_rate_error(&scenario, &sim.run(&scenario, &calib));
        assert!(err < 1e-12, "err {err}");
    }
}
