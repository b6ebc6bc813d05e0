//! Shared plumbing for the case-study-2 (MPI) experiment binaries.

use lodsel::families::mpi::dataset_fingerprint;
use mpisim::prelude::*;
use simcal::prelude::*;

/// Cache fingerprint of one (version, training set, loss) calibration —
/// the same identity the MPI sweep family uses, so standalone binaries
/// and sweeps share persistent-cache entries.
pub fn cache_fingerprint(
    version: MpiSimulatorVersion,
    train: &[MpiScenario],
    loss: &MatrixLoss,
) -> CacheFingerprint {
    CacheFingerprint::of(
        "mpi",
        &version.label(),
        dataset_fingerprint(train, loss.name()),
    )
}

/// Calibrate `version` against `train` under `loss` with `restarts`
/// independent seeds, keeping the calibration with the lowest *training*
/// loss. Thin wrapper over the shared multi-start helper (same seed
/// derivation and tie-breaking as every other case study); one restart is
/// the plain calibration under `seed`.
pub fn calibrate_version(
    version: MpiSimulatorVersion,
    train: &[MpiScenario],
    loss: MatrixLoss,
    budget: Budget,
    seed: u64,
    restarts: usize,
) -> CalibrationResult {
    let sim = MpiSimulator::new(version);
    let fingerprint = cache_fingerprint(version, train, &loss);
    let obj = objective(&sim, train, loss).with_cache_fingerprint(fingerprint);
    lodsel::multistart::calibrate_best_of(&obj, budget, seed, restarts)
}
