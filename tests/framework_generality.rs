//! Integration tests of the calibration framework's generality and of the
//! methodology steps as a user composes them (paper §3): custom
//! simulators, budget fairness, loss/algorithm selection via synthetic
//! benchmarking, trace semantics, and memoization on a real simulation
//! objective.

use lodcal::simcal::prelude::*;

/// A user-defined simulator with a known closed form (two-parameter
/// linear model of "execution time" vs input size).
struct LinearModel;

struct Obs {
    input_size: f64,
    observed: f64,
}

impl Simulator for LinearModel {
    type Scenario = Obs;
    type Output = ScenarioError;
    fn run(&self, obs: &Obs, calib: &Calibration) -> ScenarioError {
        let predicted = calib.values[0] * obs.input_size + calib.values[1];
        ScenarioError::scalar_only(relative_error(obs.observed, predicted))
    }
}

fn space2() -> ParameterSpace {
    ParameterSpace::new()
        .with("slope", ParamKind::Continuous { lo: 0.0, hi: 10.0 })
        .with("intercept", ParamKind::Continuous { lo: 0.0, hi: 100.0 })
}

fn observations() -> Vec<Obs> {
    [1.0, 5.0, 10.0, 50.0, 100.0]
        .into_iter()
        .map(|input_size| Obs {
            input_size,
            observed: 2.5 * input_size + 40.0,
        })
        .collect()
}

#[test]
fn custom_simulator_parameters_are_recovered() {
    let data = observations();
    let obj = SimulationObjective::new(
        &LinearModel,
        &data,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        space2(),
    );
    let result = Calibrator::bo_gp(Budget::Evaluations(400), 21).calibrate(&obj);
    assert!(result.loss < 0.05, "loss {}", result.loss);
    assert!(
        (result.calibration.values[0] - 2.5).abs() < 0.5,
        "slope {}",
        result.calibration.values[0]
    );
    assert!(
        (result.calibration.values[1] - 40.0).abs() < 10.0,
        "intercept {}",
        result.calibration.values[1]
    );
}

#[test]
fn equal_budgets_are_enforced_across_algorithms() {
    let data = observations();
    let obj = SimulationObjective::new(
        &LinearModel,
        &data,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        space2(),
    );
    for kind in AlgorithmKind::ALL {
        let r = Calibrator {
            algorithm: kind,
            budget: Budget::Evaluations(64),
            seed: 5,
        }
        .calibrate(&obj);
        assert_eq!(
            r.evaluations,
            64,
            "{} must consume the exact budget",
            kind.name()
        );
    }
}

#[test]
fn synthetic_benchmark_driver_picks_a_pair() {
    let reference = Calibration::new(vec![3.0, 60.0]);
    let slope = reference.values[0];
    let intercept = reference.values[1];
    // Synthetic ground truth from the model itself at the reference.
    let data: Vec<Obs> = [1.0, 10.0, 100.0]
        .into_iter()
        .map(|input_size| Obs {
            input_size,
            observed: slope * input_size + intercept,
        })
        .collect();

    let calibrators = vec![
        (
            "RAND".to_string(),
            Calibrator {
                algorithm: AlgorithmKind::Random,
                budget: Budget::Evaluations(150),
                seed: 2,
            },
        ),
        (
            "BO-GP".to_string(),
            Calibrator::bo_gp(Budget::Evaluations(150), 2),
        ),
    ];
    let objectives = vec![(
        "L1".to_string(),
        SimulationObjective::new(
            &LinearModel,
            &data,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
            space2(),
        ),
    )];
    let cells = synthetic_benchmark(&calibrators, &objectives, &reference);
    assert_eq!(cells.len(), 2);
    let best = best_pair(&cells).expect("cells present");
    assert!(
        best.calibration_error < 120.0,
        "best error {}",
        best.calibration_error
    );
}

#[test]
fn trace_is_consistent_with_final_result() {
    let data = observations();
    let obj = SimulationObjective::new(
        &LinearModel,
        &data,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        space2(),
    );
    let r = Calibrator::bo_gp(Budget::Evaluations(100), 13).calibrate(&obj);
    let last = r.trace.last().expect("at least one improvement");
    assert_eq!(last.best_loss, r.loss);
    assert!(last.evaluations <= r.evaluations);
    assert!(r.trace.windows(2).all(|w| w[1].best_loss < w[0].best_loss));
    assert!(r
        .trace
        .windows(2)
        .all(|w| w[1].elapsed_secs >= w[0].elapsed_secs));
}

#[test]
fn wallclock_budget_terminates_promptly() {
    let data = observations();
    let obj = SimulationObjective::new(
        &LinearModel,
        &data,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
        space2(),
    );
    let start = std::time::Instant::now();
    let r = Calibrator::bo_gp(Budget::WallClock(std::time::Duration::from_millis(300)), 1)
        .calibrate(&obj);
    assert!(r.loss.is_finite());
    // Generous bound: a surrogate fit may be in flight when time expires.
    assert!(start.elapsed().as_secs_f64() < 10.0);
}

/// Memoized hits are served for free: re-proposing an already-evaluated
/// point (directly or via a batch) returns the identical loss without
/// consuming a budget evaluation, on a real simulation objective.
#[test]
fn memoized_hits_do_not_consume_budget_on_simulation_objective() {
    use lodcal::wfsim::prelude::*;
    let records = dataset_for(
        AppKind::Chain,
        &DatasetOptions {
            repetitions: 1,
            size_indices: vec![0],
            work_indices: vec![0],
            footprint_indices: vec![0],
            worker_counts: vec![1, 2],
            ..Default::default()
        },
    );
    let scenarios = WfScenario::from_records(&records);
    let sim = WorkflowSimulator::new(SimulatorVersion::lowest_detail());
    let obj = objective(
        &sim,
        &scenarios,
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
    );
    let dim = obj.space().dim();
    let ev = Evaluator::new(&obj, Budget::Evaluations(8));
    let a = vec![0.3; dim];
    let b = vec![0.7; dim];
    let first = ev.eval(&a).unwrap();
    // Same point again: identical loss, no budget consumed.
    assert_eq!(ev.eval(&a), Some(first));
    assert_eq!(ev.evaluations(), 1);
    // Batch mixing the cached point with a fresh one: only the fresh
    // point burns budget, and the cached slot matches exactly.
    let losses = ev.eval_batch(&[a.clone(), b.clone()]).unwrap();
    assert_eq!(losses[0].to_bits(), first.to_bits());
    assert_eq!(ev.evaluations(), 2);
    assert_eq!(ev.cache_hits(), 2);
    assert_eq!(ev.cache_misses(), 2);
}
