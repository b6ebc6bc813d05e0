//! Case study #4 (federated data grid) as a sweepable family.
//!
//! Mirrors Figure 2's protocol in the data-grid domain: all 8
//! level-of-detail versions calibrate against the training workloads and
//! are judged by the mean relative per-job *turnaround* error on held-out
//! workloads (turnarounds are where cache hits, WAN queueing, and broker
//! serialisation live; makespans are dominated by total work). A sweep
//! unit is one version, and its summary samples are the per-workload
//! mean turnaround errors.

use super::{CaseStudy, SimFamily, Split};
use gridsim::prelude::{
    dataset, default_grid, GridEmulatorConfig, GridScenario, GridSimulator, GridVersion,
};
use simcal::prelude::{Agg, ElementMix, ParameterSpace, ScenarioError, StructuredLoss};

/// Case study #4 as a [`CaseStudy`].
pub struct GridCase;

impl CaseStudy for GridCase {
    type Version = GridVersion;
    type Sim = GridSimulator;
    type Loss = StructuredLoss;

    fn name(&self) -> &str {
        "grid"
    }

    fn label(&self, version: &GridVersion) -> String {
        version.label()
    }

    fn space(&self, version: &GridVersion) -> ParameterSpace {
        version.parameter_space()
    }

    fn simulator(&self, version: &GridVersion) -> GridSimulator {
        GridSimulator::new(*version)
    }

    fn describe(&self, tag: &str, s: &GridScenario, parts: &mut Vec<String>) {
        parts.push(format!(
            "{tag}|sites={}|jobs={}|makespan={:016x}",
            s.workload.sites,
            s.workload.jobs.len(),
            s.makespan.to_bits()
        ));
    }

    /// The mean relative per-job turnaround error.
    fn judge(&self, _: &GridSimulator, _: &GridScenario, out: &ScenarioError) -> (f64, u64) {
        (numeric::mean(&out.elements), out.work)
    }
}

/// The data-grid simulator family: 8 versions × one unit each.
pub type GridFamily = SimFamily<GridCase>;

impl GridFamily {
    /// Build from explicit versions, train/test workloads, and a loss.
    /// `loss_label` names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<GridVersion>,
        train: Vec<GridScenario>,
        test: Vec<GridScenario>,
        loss: StructuredLoss,
        loss_label: &str,
    ) -> Self {
        assert!(!test.is_empty(), "empty family");
        let splits = vec![Split::single(train, test)];
        Self::from_splits(GridCase, versions, splits, loss, loss_label)
    }

    /// The family the case-study-4 experiment sweeps: arrival pressure
    /// crossed with file-popularity skew, so the cache, WAN, and broker
    /// behaviours each matter in some workload and not in others.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let cfg = GridEmulatorConfig::default();
        let grid = default_grid(seed);
        let (train_specs, test_specs) = grid.split_at(2);
        let reps = if fast { 2 } else { 3 };
        let train = dataset(train_specs, &cfg, reps, seed);
        let test = dataset(test_specs, &cfg, reps, seed);
        let loss = StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3");
        Self::new(GridVersion::all(), train, test, loss, "L3")
    }
}
