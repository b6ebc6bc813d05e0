//! Case study #2 (MPI communication) as a sweepable family.
//!
//! Follows the paper's §6.4 protocol: every version calibrates against the
//! full base-scale scenario set and is judged on the same scenarios
//! (deliberate overfitting; generalization across scales is a separate
//! experiment, `sec6_5`). A sweep unit is one version, and its summary
//! samples are the per-scenario mean relative transfer-rate errors —
//! exactly what Figure 5's bars and error bars aggregate.

use super::{CaseStudy, SimFamily, Split};
use mpisim::prelude::{
    dataset, mean_relative_rate_error, BenchmarkKind, MpiEmulatorConfig, MpiRun, MpiScenario,
    MpiSimulator, MpiSimulatorVersion, NODE_COUNTS,
};
use simcal::prelude::{MatrixLoss, ParameterSpace};

/// Node counts used by the experiments. The paper runs 128/256/512; the
/// `fast` grid shrinks the base scale (contention structure is preserved)
/// so smoke runs finish in seconds.
pub fn node_counts(fast: bool) -> Vec<usize> {
    if fast {
        vec![32, 64, 128]
    } else {
        NODE_COUNTS.to_vec()
    }
}

/// Ground-truth emulator configuration for the experiments.
pub fn emulator_config(fast: bool) -> MpiEmulatorConfig {
    MpiEmulatorConfig {
        repetitions: if fast { 3 } else { 5 },
        ..Default::default()
    }
}

/// Case study #2 as a [`CaseStudy`].
pub struct MpiCase;

impl CaseStudy for MpiCase {
    type Version = MpiSimulatorVersion;
    type Sim = MpiSimulator;
    type Loss = MatrixLoss;

    fn name(&self) -> &str {
        "mpi"
    }

    fn label(&self, version: &MpiSimulatorVersion) -> String {
        version.label()
    }

    fn space(&self, version: &MpiSimulatorVersion) -> ParameterSpace {
        version.parameter_space()
    }

    fn simulator(&self, version: &MpiSimulatorVersion) -> MpiSimulator {
        MpiSimulator::new(*version)
    }

    /// Untagged: the one scenario set is both training and test data.
    fn describe(&self, _tag: &str, s: &MpiScenario, parts: &mut Vec<String>) {
        parts.push(format!(
            "bench={}|nodes={}|sizes={}",
            s.benchmark.name(),
            s.n_nodes,
            s.sizes.len()
        ));
        for rate in s.mean_rates() {
            parts.push(format!("rate={:016x}", rate.to_bits()));
        }
    }

    fn judge(&self, sim: &MpiSimulator, s: &MpiScenario, run: &MpiRun) -> (f64, u64) {
        let work = sim.simulation_work(s.benchmark, s.n_nodes, &s.sizes);
        (mean_relative_rate_error(s, run), work)
    }
}

/// Content hash of an MPI scenario set under a named loss: the dataset
/// component of both the family fingerprint and the persistent-cache
/// fingerprint. Rate observations contribute exact bit patterns, so two
/// hashes agree only when the ground truth is identical.
pub fn dataset_fingerprint(scenarios: &[MpiScenario], loss_label: &str) -> u64 {
    super::dataset_fingerprint(&MpiCase, loss_label, [("", scenarios, &[][..])])
}

/// The MPI simulator family: 16 versions × one unit each.
pub type MpiFamily = SimFamily<MpiCase>;

impl MpiFamily {
    /// Build from explicit versions, scenarios, and a loss. `loss_label`
    /// names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<MpiSimulatorVersion>,
        scenarios: Vec<MpiScenario>,
        loss: MatrixLoss,
        loss_label: &str,
    ) -> Self {
        let splits = vec![Split::single(scenarios, Vec::new())];
        Self::from_splits(MpiCase, versions, splits, loss, loss_label)
    }

    /// The family the paper's Figure 5 sweeps: all 16 versions over the
    /// base-scale calibration set, under the L1 loss selected by Table 5.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let cfg = emulator_config(fast);
        let base_nodes = node_counts(fast)[0];
        let scenarios = dataset(&BenchmarkKind::CALIBRATION_SET, &[base_nodes], &cfg, seed);
        let loss = MatrixLoss::paper_set()[0].clone();
        Self::new(MpiSimulatorVersion::all(), scenarios, loss, "L1")
    }

    /// The scenario set (training and test are the same here).
    pub fn scenarios(&self) -> &[MpiScenario] {
        self.train()
    }
}
