//! The objective a calibration minimizes, and the paper-style `Simulator`
//! abstraction used to assemble one from a simulator + ground-truth
//! dataset + loss function.
//!
//! The paper's framework (§4) "provides a `Simulator` class with a `run()`
//! method to be overridden for invoking the simulator", invoked once per
//! ground-truth data point; a user-provided loss function turns the
//! collected results into the scalar the optimizer minimizes. The Rust
//! equivalents are the [`Simulator`] trait and [`SimulationObjective`].

use crate::loss::Loss;
use crate::param::{Calibration, ParameterSpace};

/// A black-box function of a [`Calibration`] that the calibrator minimizes.
///
/// Implementations must be `Sync`: the calibrator evaluates batches of
/// points in parallel (the paper's framework parallelizes over cores with
/// `multiprocessing`; here it is a persistent thread pool).
pub trait Objective: Sync {
    /// The domain of the calibration problem.
    fn space(&self) -> &ParameterSpace;

    /// The loss at `calibration` (lower is better). Must be deterministic
    /// for a given calibration.
    fn loss(&self, calibration: &Calibration) -> f64;

    /// Content address of this objective for the persistent loss cache
    /// ([`crate::cache`]). `None` (the default) keeps the objective out of
    /// the on-disk cache entirely — only objectives that declare what
    /// their losses depend on (simulator version, scenario set, loss
    /// definition) may share results across runs.
    fn cache_fingerprint(&self) -> Option<crate::cache::CacheFingerprint> {
        None
    }
}

/// A use-case-specific simulator: invoked once per ground-truth scenario,
/// it produces whatever per-scenario result the loss function consumes
/// (for the workflow case study a [`crate::loss::ScenarioError`]; for the
/// MPI case study a record holding a row of explained-variance values).
///
/// The scenario type embeds the ground-truth observations, mirroring the
/// paper's setup where `run()` has access to the ground-truth data point it
/// is asked to reproduce.
pub trait Simulator: Sync {
    /// One ground-truth data point: a workload/platform configuration plus
    /// its observed execution metrics.
    type Scenario: Sync;
    /// The one record of a (scenario, calibration) run: the loss folds
    /// it, and a held-out judge (error, simulation work) reads the same
    /// record instead of simulating again.
    type Output;

    /// Simulate `scenario` under `calibration` and report the result.
    fn run(&self, scenario: &Self::Scenario, calibration: &Calibration) -> Self::Output;
}

/// [`Objective`] assembled from a simulator, a ground-truth dataset, and a
/// loss function — one simulator invocation per data point per evaluation,
/// exactly the cost structure the paper's time-budget discussion assumes.
///
/// The objective evaluates over an index *view* of its dataset: the whole
/// dataset by default, or the subset [`SimulationObjective::on_subset`]
/// selects (the cheap rungs of multi-fidelity sweeps,
/// [`crate::fidelity`]). The loss reduces the view in dataset order, so
/// the identity view is bit-for-bit the plain objective.
pub struct SimulationObjective<'a, S: Simulator, L> {
    simulator: &'a S,
    dataset: &'a [S::Scenario],
    /// The scenarios an evaluation runs, in dataset order.
    view: Vec<&'a S::Scenario>,
    /// [`crate::fidelity::subset_tag`] of a proper-subset view.
    subset_tag: Option<u64>,
    loss: L,
    space: ParameterSpace,
    fingerprint: Option<crate::cache::CacheFingerprint>,
}

impl<'a, S: Simulator, L> SimulationObjective<'a, S, L> {
    /// Assemble an objective.
    ///
    /// # Panics
    /// Panics if the dataset is empty (a calibration against nothing is
    /// meaningless and would silently return zero loss).
    pub fn new(
        simulator: &'a S,
        dataset: &'a [S::Scenario],
        loss: L,
        space: ParameterSpace,
    ) -> Self {
        assert!(!dataset.is_empty(), "calibration dataset must be non-empty");
        Self {
            simulator,
            dataset,
            view: dataset.iter().collect(),
            subset_tag: None,
            loss,
            space,
            fingerprint: None,
        }
    }

    /// Declare this objective's content address, enabling the persistent
    /// loss cache ([`crate::cache`]) for its evaluations when a cache
    /// directory is active.
    pub fn with_cache_fingerprint(mut self, fingerprint: crate::cache::CacheFingerprint) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }

    /// Restrict evaluation to `dataset[indices]` (ascending indices keep
    /// the reduction in dataset order). A proper subset carries a
    /// [`SimulationObjective::subset_tag`], which the caller must fold
    /// into the cache fingerprint it declares so subset losses never
    /// collide with full-set losses (or other subsets'); the identity
    /// view stays untagged and shares the full objective's cache entries.
    /// Declare the fingerprint after restricting: a fingerprint set
    /// earlier is dropped.
    ///
    /// # Panics
    /// Panics if `indices` is empty or contains an out-of-range index.
    pub fn on_subset(mut self, indices: &[usize]) -> Self {
        assert!(!indices.is_empty(), "scenario subset must be non-empty");
        let dataset = self.dataset;
        let full = indices.iter().copied().eq(0..dataset.len());
        self.view = indices.iter().map(|&i| &dataset[i]).collect();
        self.subset_tag = (!full).then(|| crate::fidelity::subset_tag(indices, dataset.len()));
        // A fingerprint declared for another view must not outlive it.
        self.fingerprint = None;
        self
    }

    /// Content tag of the view when it is a proper subset of the dataset,
    /// `None` for the full dataset.
    pub fn subset_tag(&self) -> Option<u64> {
        self.subset_tag
    }

    /// Number of ground-truth data points in the view (simulator
    /// invocations per loss evaluation).
    pub fn dataset_len(&self) -> usize {
        self.view.len()
    }
}

impl<'a, S, L> Objective for SimulationObjective<'a, S, L>
where
    S: Simulator,
    L: Loss<S::Output>,
{
    fn space(&self) -> &ParameterSpace {
        &self.space
    }

    fn cache_fingerprint(&self) -> Option<crate::cache::CacheFingerprint> {
        self.fingerprint
    }

    fn loss(&self, calibration: &Calibration) -> f64 {
        let outputs: Vec<S::Output> = self
            .view
            .iter()
            .map(|scenario| self.simulator.run(scenario, calibration))
            .collect();
        self.loss.aggregate(&outputs)
    }
}

/// A closure-backed objective, handy for tests and for analytic
/// benchmarking of the optimizers themselves.
pub struct FnObjective<F> {
    space: ParameterSpace,
    f: F,
    fingerprint: Option<crate::cache::CacheFingerprint>,
}

impl<F: Fn(&Calibration) -> f64 + Sync> FnObjective<F> {
    /// Wrap `f` over `space`.
    pub fn new(space: ParameterSpace, f: F) -> Self {
        Self {
            space,
            f,
            fingerprint: None,
        }
    }

    /// Declare this objective's content address, enabling the persistent
    /// loss cache ([`crate::cache`]) for its evaluations when a cache
    /// directory is active.
    pub fn with_cache_fingerprint(mut self, fingerprint: crate::cache::CacheFingerprint) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }
}

impl<F: Fn(&Calibration) -> f64 + Sync> Objective for FnObjective<F> {
    fn space(&self) -> &ParameterSpace {
        &self.space
    }

    fn cache_fingerprint(&self) -> Option<crate::cache::CacheFingerprint> {
        self.fingerprint
    }

    fn loss(&self, calibration: &Calibration) -> f64 {
        (self.f)(calibration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Agg, ElementMix, ScenarioError, StructuredLoss};
    use crate::param::ParamKind;

    /// A toy simulator: the "ground truth" is a target value; the simulated
    /// value is the calibration's single parameter. Error is relative.
    struct Toy;
    impl Simulator for Toy {
        type Scenario = f64;
        type Output = ScenarioError;
        fn run(&self, scenario: &f64, calibration: &Calibration) -> ScenarioError {
            ScenarioError::scalar_only(crate::loss::relative_error(
                *scenario,
                calibration.values[0],
            ))
        }
    }

    fn space1() -> ParameterSpace {
        ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 100.0 })
    }

    #[test]
    fn simulation_objective_runs_per_data_point() {
        let dataset = vec![10.0, 20.0];
        let obj = SimulationObjective::new(
            &Toy,
            &dataset,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
            space1(),
        );
        assert_eq!(obj.dataset_len(), 2);
        // calibration 10: errors are 0 and 0.5 -> avg 0.25
        let loss = obj.loss(&Calibration::new(vec![10.0]));
        assert!((loss - 0.25).abs() < 1e-12);
        // perfect for neither, zero for the truth-weighted point
        assert_eq!(obj.loss(&Calibration::new(vec![20.0])).min(1.0), 0.5);
    }

    #[test]
    fn max_loss_takes_worst_scenario() {
        let dataset = vec![10.0, 20.0];
        let obj = SimulationObjective::new(
            &Toy,
            &dataset,
            StructuredLoss::new(Agg::Max, ElementMix::Ignore, "L2"),
            space1(),
        );
        let loss = obj.loss(&Calibration::new(vec![10.0]));
        assert!((loss - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_rejected() {
        let dataset: Vec<f64> = vec![];
        let _ = SimulationObjective::new(
            &Toy,
            &dataset,
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
            space1(),
        );
    }

    #[test]
    fn fn_objective_evaluates_closure() {
        let obj = FnObjective::new(space1(), |c: &Calibration| (c.values[0] - 3.0).powi(2));
        assert_eq!(obj.loss(&Calibration::new(vec![3.0])), 0.0);
        assert_eq!(obj.loss(&Calibration::new(vec![5.0])), 4.0);
        assert_eq!(obj.space().dim(), 1);
    }
}
