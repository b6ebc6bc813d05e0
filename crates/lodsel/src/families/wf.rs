//! Case study #1 (scientific workflows) as a sweepable family.
//!
//! Follows the paper's §5.4 protocol: each of the 12 simulator versions is
//! calibrated once per application against that application's training
//! split, and judged by the percent relative makespan error on the
//! held-out test split. A sweep unit is therefore a (version, application)
//! pair, and a version's summary samples are its per-application mean
//! test errors — exactly what Figure 2's bars and error bars aggregate.

use super::{CaseStudy, SimFamily, Split};
use simcal::prelude::{ParameterSpace, ScenarioError, StructuredLoss};
use wfsim::prelude::{
    dataset_for, split_train_test, AppKind, DatasetOptions, SimulatorVersion, WfScenario,
    WorkflowSimulator,
};

/// The Table 1 sub-grid the experiments use by default: the two smallest
/// workflow sizes (the split still yields large-vs-small test structure),
/// one short and one long per-task work, a zero and a mid data footprint,
/// and all four worker counts.
pub fn dataset_options(fast: bool, seed: u64) -> DatasetOptions {
    if fast {
        DatasetOptions {
            repetitions: 2,
            seed,
            size_indices: vec![0, 1],
            work_indices: vec![1],
            footprint_indices: vec![1],
            worker_counts: vec![1, 2, 4, 6],
            ..Default::default()
        }
    } else {
        DatasetOptions {
            repetitions: 3,
            seed,
            size_indices: vec![0, 1, 2],
            work_indices: vec![0, 3],
            footprint_indices: vec![0, 2],
            worker_counts: vec![1, 2, 4, 6],
            ..Default::default()
        }
    }
}

/// One application's named train/test split.
pub type AppSplit = Split<WfScenario>;

/// Case study #1 as a [`CaseStudy`].
pub struct WfCase;

impl CaseStudy for WfCase {
    type Version = SimulatorVersion;
    type Sim = WorkflowSimulator;
    type Loss = StructuredLoss;

    fn name(&self) -> &str {
        "wf"
    }

    fn label(&self, version: &SimulatorVersion) -> String {
        version.label()
    }

    fn space(&self, version: &SimulatorVersion) -> ParameterSpace {
        version.parameter_space()
    }

    fn simulator(&self, version: &SimulatorVersion) -> WorkflowSimulator {
        WorkflowSimulator::new(*version)
    }

    fn describe(&self, tag: &str, s: &WfScenario, parts: &mut Vec<String>) {
        parts.push(format!(
            "{tag}|workers={}|makespan={:016x}",
            s.n_workers,
            s.gt_makespan.to_bits()
        ));
    }

    /// The relative makespan error.
    fn judge(&self, _: &WorkflowSimulator, _: &WfScenario, out: &ScenarioError) -> (f64, u64) {
        (out.scalar, out.work)
    }

    /// One sample per unit: the per-application mean — Figure 2
    /// aggregates versions over these.
    fn summarize(&self, errors: Vec<f64>) -> Vec<f64> {
        vec![numeric::mean(&errors)]
    }
}

/// The workflow simulator family: 12 versions × one unit per application.
pub type WfFamily = SimFamily<WfCase>;

impl WfFamily {
    /// Build from explicit versions, per-application splits, and a loss.
    /// `loss_label` names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<SimulatorVersion>,
        splits: Vec<AppSplit>,
        loss: StructuredLoss,
        loss_label: &str,
    ) -> Self {
        Self::from_splits(WfCase, versions, splits, loss, loss_label)
    }

    /// The family the paper's Figure 2 sweeps: all 12 versions over the
    /// default experiment grid, under the L1 loss selected by Table 3.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let opts = dataset_options(fast, seed);
        let apps: Vec<AppKind> = if fast {
            vec![AppKind::Genome1000, AppKind::Montage]
        } else {
            AppKind::REAL.to_vec()
        };
        let splits = apps
            .iter()
            .map(|&app| {
                let records = dataset_for(app, &opts);
                let (train, test) = split_train_test(&records);
                AppSplit {
                    name: app.name().to_string(),
                    train: WfScenario::from_records(&train),
                    test: WfScenario::from_records(&test),
                }
            })
            .collect();
        let loss = StructuredLoss::paper_set()[0].clone();
        Self::new(SimulatorVersion::all(), splits, loss, "L1")
    }
}
