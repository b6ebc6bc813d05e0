//! Integration with the calibration framework: scenarios and the
//! `simcal::Simulator` implementation for workflow simulators.

use crate::generator::generate;
use crate::ground_truth::GroundTruthRecord;
use crate::simulator::WorkflowSimulator;
use crate::workflow::Workflow;
use simcal::prelude::{
    relative_error, Calibration, ScenarioError, SimulationObjective, Simulator, StructuredLoss,
};

/// One calibration scenario: a concrete workflow, its worker count, and
/// the ground-truth observations to reproduce.
#[derive(Clone, Debug)]
pub struct WfScenario {
    /// The workflow to execute (pre-generated once, not per evaluation).
    pub workflow: Workflow,
    /// Worker count of the ground-truth execution.
    pub n_workers: usize,
    /// Observed makespan.
    pub gt_makespan: f64,
    /// Observed per-task execution times.
    pub gt_task_times: Vec<f64>,
}

impl WfScenario {
    /// Materialize a ground-truth record into a scenario (re-generating
    /// the workflow from its spec).
    pub fn from_record(record: &GroundTruthRecord) -> Self {
        Self {
            workflow: generate(&record.spec),
            n_workers: record.n_workers,
            gt_makespan: record.makespan,
            gt_task_times: record.task_times.clone(),
        }
    }

    /// Materialize a whole dataset.
    pub fn from_records(records: &[GroundTruthRecord]) -> Vec<WfScenario> {
        records.iter().map(Self::from_record).collect()
    }

    /// Synthetic ground truth (paper §3): each record's workflow and
    /// worker count, observed as `simulator` executes them at
    /// `reference`, which is therefore the known best calibration.
    pub fn synthetic(
        simulator: &WorkflowSimulator,
        records: &[GroundTruthRecord],
        reference: &Calibration,
    ) -> Vec<WfScenario> {
        records
            .iter()
            .map(|record| {
                let workflow = generate(&record.spec);
                let out = simulator.simulate(&workflow, record.n_workers, reference);
                WfScenario {
                    workflow,
                    n_workers: record.n_workers,
                    gt_makespan: out.makespan,
                    gt_task_times: out.task_times,
                }
            })
            .collect()
    }
}

impl Simulator for WorkflowSimulator {
    type Scenario = WfScenario;
    type Output = ScenarioError;

    /// Simulate the scenario and report the makespan error `e_i`, the
    /// per-task execution-time errors `e_{i,j}` (paper §5.3.2) and the event count.
    fn run(&self, scenario: &WfScenario, calibration: &Calibration) -> ScenarioError {
        let out = self.simulate(&scenario.workflow, scenario.n_workers, calibration);
        ScenarioError {
            scalar: relative_error(scenario.gt_makespan, out.makespan),
            elements: scenario
                .gt_task_times
                .iter()
                .zip(&out.task_times)
                .map(|(&gt, &sim)| relative_error(gt, sim))
                .collect(),
            work: out.sim_events,
        }
    }
}

/// Convenience: the calibration objective for one simulator version over a
/// scenario dataset, under a given workflow loss function.
pub fn objective<'a>(
    simulator: &'a WorkflowSimulator,
    scenarios: &'a [WfScenario],
    loss: StructuredLoss,
) -> SimulationObjective<'a, WorkflowSimulator, StructuredLoss> {
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
    use crate::generator::AppKind;
    use crate::ground_truth::{dataset_for, DatasetOptions};
    use crate::versions::SimulatorVersion;
    use simcal::prelude::{Agg, Budget, Calibrator, ElementMix, Objective};

    fn tiny_dataset() -> Vec<GroundTruthRecord> {
        dataset_for(
            AppKind::Forkjoin,
            &DatasetOptions {
                repetitions: 2,
                size_indices: vec![0],
                work_indices: vec![1],
                footprint_indices: vec![1],
                worker_counts: vec![2],
                ..Default::default()
            },
        )
    }

    #[test]
    fn scenario_roundtrips_record() {
        let records = tiny_dataset();
        let s = WfScenario::from_record(&records[0]);
        assert_eq!(s.workflow.num_tasks(), records[0].spec.num_tasks);
        assert_eq!(s.n_workers, 2);
        assert!(s.gt_makespan > 0.0);
        assert_eq!(s.gt_task_times.len(), s.workflow.num_tasks());
    }

    #[test]
    fn objective_loss_is_finite_and_positive_for_arbitrary_point() {
        let records = tiny_dataset();
        let scenarios = WfScenario::from_records(&records);
        let sim = WorkflowSimulator::new(SimulatorVersion::lowest_detail());
        let obj = objective(
            &sim,
            &scenarios,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        );
        let calib = sim
            .version
            .parameter_space()
            .denormalize(&vec![0.5; obj.space().dim()]);
        let loss = obj.loss(&calib);
        assert!(loss.is_finite() && loss > 0.0, "loss {loss}");
    }

    #[test]
    fn short_calibration_improves_over_random_point() {
        let records = tiny_dataset();
        let scenarios = WfScenario::from_records(&records);
        let sim = WorkflowSimulator::new(SimulatorVersion::lowest_detail());
        let obj = objective(
            &sim,
            &scenarios,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        );
        let start = obj.loss(
            &sim.version
                .parameter_space()
                .denormalize(&vec![0.25; obj.space().dim()]),
        );
        let result = Calibrator::bo_gp(Budget::Evaluations(40), 1).calibrate(&obj);
        assert!(
            result.loss <= start,
            "calibrated {} vs arbitrary {start}",
            result.loss
        );
    }
}
