//! End-to-end integration tests for case study #1: ground-truth
//! emulation -> scenario construction -> calibration -> held-out
//! evaluation, spanning `wfsim`, `simcal`, `dessim`, and `numeric`.

use lodcal::simcal::prelude::*;
use lodcal::wfsim::prelude::*;

fn small_options() -> DatasetOptions {
    DatasetOptions {
        repetitions: 2,
        size_indices: vec![0, 1],
        work_indices: vec![0, 3],
        footprint_indices: vec![1],
        worker_counts: vec![1, 2, 4],
        ..Default::default()
    }
}

fn makespan_errors(
    sim: &WorkflowSimulator,
    calib: &Calibration,
    scenarios: &[WfScenario],
) -> Vec<f64> {
    scenarios
        .iter()
        .map(|s| {
            relative_error(
                s.gt_makespan,
                sim.simulate(&s.workflow, s.n_workers, calib).makespan,
            )
        })
        .collect()
}

#[test]
fn calibrated_condor_version_beats_spec_baseline() {
    let records = dataset_for(AppKind::Forkjoin, &small_options());
    let (train, test) = split_train_test(&records);
    assert!(!train.is_empty() && !test.is_empty());
    let train_s = WfScenario::from_records(&train);
    let test_s = WfScenario::from_records(&test);

    let version = SimulatorVersion {
        network: NetworkModel::OneLink,
        storage: StorageModel::SubmitOnly,
        compute: ComputeModel::HtCondor,
    };
    let sim = WorkflowSimulator::new(version);
    let obj = objective(
        &sim,
        &train_s,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
    );
    let result = Calibrator::bo_gp(Budget::Evaluations(120), 3).calibrate(&obj);

    let calibrated = numeric::mean(&makespan_errors(&sim, &result.calibration, &test_s));

    let base_version = SimulatorVersion::lowest_detail();
    let base_sim = WorkflowSimulator::new(base_version);
    let baseline = numeric::mean(&makespan_errors(
        &base_sim,
        &spec_calibration(base_version),
        &test_s,
    ));

    assert!(
        calibrated < baseline * 0.7,
        "calibrated {calibrated:.3} should clearly beat spec baseline {baseline:.3}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let records = dataset_for(AppKind::Chain, &small_options());
        let scenarios = WfScenario::from_records(&records);
        let sim = WorkflowSimulator::new(SimulatorVersion::lowest_detail());
        let obj = objective(
            &sim,
            &scenarios,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        );
        let r = Calibrator::bo_gp(Budget::Evaluations(40), 9).calibrate(&obj);
        (r.loss, r.calibration)
    };
    let (l1, c1) = run();
    let (l2, c2) = run();
    assert_eq!(l1, l2);
    assert_eq!(c1, c2);
}

#[test]
fn every_version_calibrates_without_panic_and_improves() {
    let records = dataset_for(AppKind::Forkjoin, &small_options());
    let scenarios = WfScenario::from_records(&records);
    let loss = StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1");
    for version in SimulatorVersion::all() {
        let sim = WorkflowSimulator::new(version);
        let obj = objective(&sim, &scenarios, loss.clone());
        // Arbitrary starting point for comparison.
        let start = obj.loss(
            &version
                .parameter_space()
                .denormalize(&vec![0.25; obj.space().dim()]),
        );
        let result = Calibrator::bo_gp(Budget::Evaluations(50), 1).calibrate(&obj);
        assert!(result.loss.is_finite(), "{}", version.label());
        assert!(
            result.loss <= start,
            "{}: calibrated {} vs arbitrary {start}",
            version.label(),
            result.loss
        );
    }
}

#[test]
fn training_cost_metric_matches_paper_definition() {
    let records = dataset_for(AppKind::Forkjoin, &small_options());
    for r in &records {
        assert!((r.cost() - r.n_workers as f64 * r.makespan).abs() < 1e-12);
    }
}

#[test]
fn synthetic_benchmarking_identifies_a_decent_calibration() {
    // Ground truth produced by the simulator itself at a known reference:
    // a budgeted BO-GP run must land substantially closer to the
    // reference than a random point does (calibration error metric).
    let version = SimulatorVersion {
        network: NetworkModel::OneLink,
        storage: StorageModel::SubmitOnly,
        compute: ComputeModel::Direct,
    };
    let space = version.parameter_space();
    let sim = WorkflowSimulator::new(version);
    let reference = space.denormalize(&vec![0.4; space.dim()]);

    let records = dataset_for(AppKind::Forkjoin, &small_options());
    let scenarios = WfScenario::synthetic(&sim, &records, &reference);
    let obj = objective(
        &sim,
        &scenarios,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
    );
    let result = Calibrator::bo_gp(Budget::Evaluations(150), 2).calibrate(&obj);
    // Loss at the reference is exactly 0 by construction; the calibration
    // must reach a small loss.
    assert!(
        result.loss < 0.05,
        "synthetic loss should approach 0, got {}",
        result.loss
    );
}
