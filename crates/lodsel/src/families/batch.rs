//! Case study #3 (batch scheduling) as a sweepable family.
//!
//! Mirrors Figure 2's protocol in the batch domain: all 4 level-of-detail
//! versions calibrate against the training traces and are judged by the
//! mean relative per-job *turnaround* error on held-out traces (job waits
//! are where scheduler behaviour lives; trace makespans are dominated by
//! total work and hide it). A sweep unit is one version, and its summary
//! samples are the per-trace mean turnaround errors.

use super::{CaseStudy, SimFamily, Split};
use batchsim::prelude::{
    dataset, BatchEmulatorConfig, BatchScenario, BatchSimulator, BatchVersion, WorkloadSpec,
};
use simcal::prelude::{Agg, ElementMix, ParameterSpace, ScenarioError, StructuredLoss};

/// Case study #3 as a [`CaseStudy`].
pub struct BatchCase {
    /// Cluster size the traces were generated for.
    pub total_nodes: u32,
}

impl CaseStudy for BatchCase {
    type Version = BatchVersion;
    type Sim = BatchSimulator;
    type Loss = StructuredLoss;

    fn name(&self) -> &str {
        "batch"
    }

    fn label(&self, version: &BatchVersion) -> String {
        version.label()
    }

    fn space(&self, version: &BatchVersion) -> ParameterSpace {
        version.parameter_space()
    }

    fn simulator(&self, version: &BatchVersion) -> BatchSimulator {
        BatchSimulator::new(*version, self.total_nodes)
    }

    fn header(&self) -> String {
        format!("batch|nodes={}", self.total_nodes)
    }

    fn describe(&self, tag: &str, s: &BatchScenario, parts: &mut Vec<String>) {
        parts.push(format!(
            "{tag}|jobs={}|makespan={:016x}",
            s.jobs.len(),
            s.makespan.to_bits()
        ));
    }

    /// The mean relative per-job turnaround error.
    fn judge(&self, _: &BatchSimulator, _: &BatchScenario, out: &ScenarioError) -> (f64, u64) {
        (numeric::mean(&out.elements), out.work)
    }
}

/// The batch simulator family: 4 versions × one unit each.
pub type BatchFamily = SimFamily<BatchCase>;

impl BatchFamily {
    /// Build from explicit versions, cluster size, train/test traces, and
    /// a loss. `loss_label` names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<BatchVersion>,
        total_nodes: u32,
        train: Vec<BatchScenario>,
        test: Vec<BatchScenario>,
        loss: StructuredLoss,
        loss_label: &str,
    ) -> Self {
        assert!(!test.is_empty(), "empty family");
        let splits = vec![Split::single(train, test)];
        Self::from_splits(
            BatchCase { total_nodes },
            versions,
            splits,
            loss,
            loss_label,
        )
    }

    /// The family the case-study-3 experiment sweeps: short-to-medium
    /// jobs under varied arrival pressure, so per-job waits (where the
    /// hidden scheduling cycle lives) are a visible share of the
    /// turnaround.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let cfg = BatchEmulatorConfig::default();
        let mut grid = Vec::new();
        for (i, &interarrival) in [8.0, 20.0, 45.0].iter().enumerate() {
            for (j, &work) in [60.0, 240.0].iter().enumerate() {
                grid.push(WorkloadSpec {
                    num_jobs: 80,
                    mean_interarrival: interarrival,
                    mean_work: work,
                    max_nodes_log2: 5,
                    seed: seed ^ ((i * 2 + j) as u64) << 8,
                });
            }
        }
        let (train_specs, test_specs) = grid.split_at(if fast { 2 } else { 4 });
        let reps = if fast { 2 } else { 3 };
        let train = dataset(train_specs, &cfg, reps, seed);
        let test = dataset(test_specs, &cfg, reps, seed);
        let loss = StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3");
        Self::new(
            BatchVersion::all(),
            cfg.total_nodes,
            train,
            test,
            loss,
            "L3",
        )
    }
}
