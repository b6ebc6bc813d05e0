//! The one [`VersionFamily`] adapter, [`SimFamily`], and the four case
//! studies plugged into it.
//!
//! simcal's seam is a [`Simulator`] with a `run()` per ground-truth
//! scenario plus a loss; everything above that seam — building the
//! objective (full or subsampled), its cache fingerprint, the calibrator,
//! the held-out evaluation, the dataset fingerprint — is the same for
//! every case study and lives here once. A case study contributes a
//! [`CaseStudy`]: how a level-of-detail version becomes a simulator and a
//! parameter space, how a scenario is described in the dataset
//! fingerprint, and how one held-out scenario's error and deterministic
//! cost are read off its `run()` output — the output the calibration
//! loss folds, so no case study simulates a scenario any other way.
//! [`wf`], [`mpi`], [`batch`] and [`grid`] are such specs plus their
//! paper datasets; `examples/custom_family.rs` is a fifth.

pub mod batch;
pub mod grid;
pub mod mpi;
pub mod wf;

use crate::family::{SweepUnit, UnitEval, VersionFamily};
use simcal::prelude::{
    fnv1a, fnv1a_fold, Budget, CacheFingerprint, Calibration, CalibrationResult, Calibrator,
    Fidelity, Loss, ParameterSpace, SimulationObjective, Simulator,
};

/// The scenario type of a case study's simulator.
pub type Scenario<C> = <<C as CaseStudy>::Sim as Simulator>::Scenario;

/// What a case study supplies to become a sweepable family.
pub trait CaseStudy: Sync {
    /// One level of detail of the simulator.
    type Version: Sync;
    /// The simulator a version instantiates.
    type Sim: Simulator;
    /// The loss calibrations minimize.
    type Loss: Loss<<Self::Sim as Simulator>::Output> + Clone + Sync;

    /// Short family identifier (`"wf"`, `"mpi"`, ...): the family name in
    /// ledgers and the objective component of cache fingerprints.
    fn name(&self) -> &str;

    /// Stable label of a version.
    fn label(&self, version: &Self::Version) -> String;

    /// Parameter space of a version.
    fn space(&self, version: &Self::Version) -> ParameterSpace;

    /// Instantiate the simulator for a version.
    fn simulator(&self, version: &Self::Version) -> Self::Sim;

    /// First part of the dataset fingerprint: the family name plus any
    /// configuration the scenarios do not carry themselves.
    fn header(&self) -> String {
        self.name().to_string()
    }

    /// Append the dataset-fingerprint parts of one scenario of the `tag`
    /// (`"train"` / `"test"`) set. Float observations must contribute
    /// their exact bit patterns, so two fingerprints agree only when the
    /// data is identical.
    fn describe(&self, tag: &str, scenario: &Scenario<Self>, parts: &mut Vec<String>);

    /// Held-out error of one scenario and the deterministic simulation
    /// work spent on it (see [`UnitEval::work_units`]), both read off
    /// `output`, the scenario's one [`Simulator::run`] — the same record
    /// the calibration loss folds.
    fn judge(
        &self,
        simulator: &Self::Sim,
        scenario: &Scenario<Self>,
        output: &<Self::Sim as Simulator>::Output,
    ) -> (f64, u64);

    /// Reduce a unit's per-scenario errors to the samples its version's
    /// summary aggregates over. The default keeps one sample per scenario.
    fn summarize(&self, errors: Vec<f64>) -> Vec<f64> {
        errors
    }
}

/// One sub-dataset of a family: every version is calibrated once against
/// each split's training scenarios and judged on its held-out scenarios.
#[derive(Clone, Debug)]
pub struct Split<S> {
    /// Name of the split in unit labels (`"<version> / <name>"`) and in
    /// the dataset fingerprint. Empty for the single split of a family
    /// with one unit per version, whose units are labelled by version
    /// alone.
    pub name: String,
    /// Training scenarios.
    pub train: Vec<S>,
    /// Held-out test scenarios. Empty means the version is judged on the
    /// training scenarios themselves (the MPI case study's deliberate
    /// overfitting protocol, paper §6.4).
    pub test: Vec<S>,
}

impl<S> Split<S> {
    /// The single unnamed train/test split of a one-unit-per-version
    /// family.
    pub fn single(train: Vec<S>, test: Vec<S>) -> Self {
        Self {
            name: String::new(),
            train,
            test,
        }
    }

    /// The scenarios a calibration is judged on.
    pub fn held_out(&self) -> &[S] {
        if self.test.is_empty() {
            &self.train
        } else {
            &self.test
        }
    }
}

/// Content hash of a family's datasets under a named loss: the header,
/// then per split its name (when it has one) and every train and test
/// scenario's [`CaseStudy::describe`] parts.
pub fn dataset_fingerprint<'a, C: CaseStudy>(
    case: &C,
    loss_label: &str,
    splits: impl IntoIterator<Item = (&'a str, &'a [Scenario<C>], &'a [Scenario<C>])>,
) -> u64
where
    Scenario<C>: 'a,
{
    let mut parts = vec![format!("{}|loss={loss_label}", case.header())];
    for (name, train, test) in splits {
        if !name.is_empty() {
            // Spelled `app=`: workflows were the first multi-split family
            // and fingerprints are on-disk keys.
            parts.push(format!("app={name}"));
        }
        for (tag, set) in [("train", train), ("test", test)] {
            for scenario in set {
                case.describe(tag, scenario, &mut parts);
            }
        }
    }
    fnv1a_fold(parts.iter().map(|part| fnv1a(part.as_bytes())))
}

/// Per-scenario held-out errors of `calibration` under `version`, with
/// the deterministic work spent: each scenario [`Simulator::run`] once,
/// then [`CaseStudy::judge`]d. The one held-out evaluation path, shared
/// by [`VersionFamily::evaluate`] and the experiment binaries'
/// uncalibrated baselines and cross-dataset checks.
pub fn evaluate_on<C: CaseStudy>(
    case: &C,
    version: &C::Version,
    scenarios: &[Scenario<C>],
    calibration: &Calibration,
) -> UnitEval {
    let simulator = case.simulator(version);
    let (samples, work): (Vec<f64>, Vec<u64>) = scenarios
        .iter()
        .map(|s| case.judge(&simulator, s, &simulator.run(s, calibration)))
        .unzip();
    UnitEval {
        samples,
        work_units: work.iter().sum(),
    }
}

/// The paper family `name` names — `wf`, `mpi`, `batch` or `grid` — on
/// its paper dataset (shrunken under `fast`), as the command line and the
/// calibd daemon look families up. It is `Send`, so the daemon can build
/// it at admission and run it on a worker thread.
pub fn paper(name: &str, fast: bool, seed: u64) -> Result<Box<dyn VersionFamily + Send>, String> {
    Ok(match name {
        "wf" => Box::new(wf::WfFamily::paper(fast, seed)),
        "mpi" => Box::new(mpi::MpiFamily::paper(fast, seed)),
        "batch" => Box::new(batch::BatchFamily::paper(fast, seed)),
        "grid" => Box::new(grid::GridFamily::paper(fast, seed)),
        other => {
            return Err(format!(
                "unknown family {other:?} (want wf, mpi, batch, or grid)"
            ))
        }
    })
}

/// A case study's versions, datasets and loss as a sweepable family: one
/// unit per (version, split).
pub struct SimFamily<C: CaseStudy> {
    case: C,
    versions: Vec<C::Version>,
    splits: Vec<Split<Scenario<C>>>,
    loss: C::Loss,
    fingerprint: u64,
}

impl<C: CaseStudy> SimFamily<C> {
    /// Build from explicit versions, splits, and a loss. `loss_label`
    /// names the loss in the dataset fingerprint (a loss carries no
    /// public identifier of its own).
    ///
    /// # Panics
    /// Panics on an empty family (no versions, no splits, or a split
    /// without training scenarios) and on splits that would produce
    /// duplicate unit labels.
    pub fn from_splits(
        case: C,
        versions: Vec<C::Version>,
        splits: Vec<Split<Scenario<C>>>,
        loss: C::Loss,
        loss_label: &str,
    ) -> Self {
        assert!(
            !versions.is_empty()
                && !splits.is_empty()
                && splits.iter().all(|s| !s.train.is_empty()),
            "empty family"
        );
        let mut names: Vec<&str> = splits.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), splits.len(), "split names must be distinct");
        let fingerprint = dataset_fingerprint(
            &case,
            loss_label,
            splits
                .iter()
                .map(|s| (s.name.as_str(), &s.train[..], &s.test[..])),
        );
        Self {
            case,
            versions,
            splits,
            loss,
            fingerprint,
        }
    }

    /// The case-study spec.
    pub fn case(&self) -> &C {
        &self.case
    }

    /// The versions, in sweep order.
    pub fn versions(&self) -> &[C::Version] {
        &self.versions
    }

    /// The splits (for baselines and progress reports).
    pub fn splits(&self) -> &[Split<Scenario<C>>] {
        &self.splits
    }

    /// Training scenarios of the first split — *the* training set of a
    /// single-split family.
    pub fn train(&self) -> &[Scenario<C>] {
        &self.splits[0].train
    }

    /// Held-out scenarios of the first split — *the* test set of a
    /// single-split family.
    pub fn test(&self) -> &[Scenario<C>] {
        self.splits[0].held_out()
    }
}

impl<C: CaseStudy> VersionFamily for SimFamily<C> {
    fn name(&self) -> &str {
        self.case.name()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn version_labels(&self) -> Vec<String> {
        self.versions.iter().map(|v| self.case.label(v)).collect()
    }

    fn dim(&self, version: usize) -> usize {
        self.case.space(&self.versions[version]).dim()
    }

    fn units(&self) -> Vec<SweepUnit> {
        let mut units = Vec::with_capacity(self.versions.len() * self.splits.len());
        for (version, v) in self.versions.iter().enumerate() {
            for (slot, split) in self.splits.iter().enumerate() {
                let label = match split.name.as_str() {
                    "" => self.case.label(v),
                    name => format!("{} / {name}", self.case.label(v)),
                };
                units.push(SweepUnit {
                    version,
                    slot,
                    label,
                });
            }
        }
        units
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        self.calibrate_at(unit, budget, seed, &Fidelity::full())
    }

    /// One objective for every fidelity: the scenario subset `fidelity`
    /// selects is a view of the training set, tagged into the cache
    /// fingerprint only when it is a proper subset — so full fidelity is
    /// the plain calibration, cache entries included.
    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        let version = &self.versions[unit.version];
        let train = &self.splits[unit.slot].train;
        let simulator = self.case.simulator(version);
        let objective = SimulationObjective::new(
            &simulator,
            train,
            self.loss.clone(),
            self.case.space(version),
        )
        .on_subset(&fidelity.indices(train.len(), seed));
        let label = match objective.subset_tag() {
            Some(tag) => format!("{}#sub{tag:016x}", unit.label),
            None => unit.label.clone(),
        };
        let objective = objective.with_cache_fingerprint(CacheFingerprint::of(
            self.case.name(),
            &label,
            self.fingerprint,
        ));
        Calibrator::bo_gp(budget, seed).calibrate(&objective)
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let eval = evaluate_on(
            &self.case,
            &self.versions[unit.version],
            self.splits[unit.slot].held_out(),
            calibration,
        );
        UnitEval {
            samples: self.case.summarize(eval.samples),
            work_units: eval.work_units,
        }
    }
}
