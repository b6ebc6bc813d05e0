//! The abstraction a simulator family implements to become sweepable.
//!
//! A *family* is a set of simulator versions (levels of detail) together
//! with the datasets they are calibrated against and evaluated on. The
//! sweep orchestrator only ever talks to this trait, so the four case
//! studies — and any future simulator — plug into the same machinery.
//! Simulators built on simcal's `Simulator` trait get the implementation
//! from [`crate::families::SimFamily`]; implement the trait by hand only
//! for something that is not one.

use simcal::prelude::{Budget, Calibration, CalibrationResult, Fidelity};

/// One calibration work item of a sweep.
///
/// Most families calibrate each version once, so a version has exactly one
/// unit. Case study #1 follows the paper's §5.4 protocol of calibrating
/// each version once *per application*, so there a version has one unit
/// per application.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepUnit {
    /// Index into [`VersionFamily::version_labels`].
    pub version: usize,
    /// Which of the family's sub-datasets this unit calibrates against
    /// (0 for families with one unit per version).
    pub slot: usize,
    /// Stable human-readable identifier, unique within the family; part
    /// of the ledger's checkpoint keys.
    pub label: String,
}

/// Held-out evaluation of one calibrated unit.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitEval {
    /// Test errors, one per sample the version's Figure-2/5-style summary
    /// aggregates over (per application for workflows, per scenario for
    /// MPI, per trace for batch scheduling).
    pub samples: Vec<f64>,
    /// Deterministic simulation work spent evaluating the test set
    /// (discrete events processed, or the analytic solve size for the
    /// event-loop-free MPI model). This — not wall-clock, which would
    /// break bit-for-bit resume equality — is the cost axis of the
    /// accuracy-versus-cost Pareto front.
    pub work_units: u64,
}

/// A set of simulator versions plus the data to calibrate and judge them.
///
/// Implementations must be deterministic: for a fixed seed and a fixed
/// evaluation budget, [`VersionFamily::calibrate`] and
/// [`VersionFamily::evaluate`] must return identical values on every call,
/// on any machine, at any thread count. That determinism is what lets the
/// sweep orchestrator replay ledger checkpoints bit-for-bit.
pub trait VersionFamily: Sync {
    /// Short family identifier (`"wf"`, `"mpi"`, `"batch"`, `"grid"`).
    fn name(&self) -> &str;

    /// Content hash of the family's configuration and datasets. Two
    /// family instances with equal fingerprints must behave identically;
    /// the ledger keys embed it so checkpoints are never replayed against
    /// different data.
    fn fingerprint(&self) -> u64;

    /// Version labels, in sweep order.
    fn version_labels(&self) -> Vec<String>;

    /// Dimensionality of a version's parameter space.
    fn dim(&self, version: usize) -> usize;

    /// All units, version-major, in a deterministic order.
    fn units(&self) -> Vec<SweepUnit>;

    /// Calibrate one unit against its training data.
    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult;

    /// Calibrate one unit at a reduced fidelity: against the
    /// deterministic, seed-derived scenario subset `fidelity` selects
    /// out of the unit's training data ([`simcal::fidelity`]). The cheap
    /// rungs of successive-halving sweeps call this instead of
    /// [`VersionFamily::calibrate`].
    ///
    /// Contract: at full fidelity (`fidelity.is_full(n)` for the unit's
    /// `n` training scenarios) this must return **bit-for-bit** what
    /// `calibrate(unit, budget, seed)` returns — implementations should
    /// simply delegate in that case, which also shares loss-cache
    /// entries with fixed-budget sweeps. At reduced fidelity the subset
    /// objective must carry a subset-specific cache fingerprint
    /// ([`simcal::prelude::SimulationObjective::subset_tag`]) so subset
    /// losses never collide with full-set losses.
    ///
    /// The default ignores `fidelity` and calibrates at full fidelity —
    /// correct for any family (successive halving then only saves budget,
    /// not scenarios), and what families without a meaningful scenario
    /// axis keep.
    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        let _ = fidelity;
        self.calibrate(unit, budget, seed)
    }

    /// Evaluate a calibration on the unit's held-out test data.
    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval;
}
