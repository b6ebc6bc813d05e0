//! # simcal — automated simulation calibration
//!
//! The paper's primary contribution: a general framework for automatically
//! calibrating simulators of parallel and distributed computing systems
//! against ground-truth execution data, so that a simulator's *intrinsic*
//! accuracy can be evaluated soundly and levels of detail compared
//! rationally.
//!
//! The moving parts mirror the paper's methodology (§3) and
//! implementation (§4):
//!
//! - [`param`] — user-specified parameter ranges (continuous, `2^x`
//!   exponential, integer) forming a [`param::ParameterSpace`];
//! - [`objective`] — the [`objective::Simulator`] trait (the paper's
//!   `Simulator` class with its overridable `run()`) and the
//!   [`objective::Objective`] a calibration minimizes;
//! - [`loss`] — the loss-function families of both case studies
//!   (makespan/task-error compositions L1–L6; explained-variance
//!   compositions L1–L4);
//! - [`algorithms`] — GRID, RAND, GRAD, and BO with four surrogate
//!   regressors ([`surrogate`]);
//! - [`budget`] — wall-clock and evaluation-count budgets with parallel
//!   batch evaluation and convergence traces;
//! - [`cache`] — the persistent, content-addressed on-disk loss cache
//!   behind the evaluator's memo map (enabled per objective via
//!   [`objective::Objective::cache_fingerprint`] plus [`cache::install`]
//!   or `CALIB_CACHE`);
//! - [`jsonl`] — the append-only JSONL log behind the cache shards, the
//!   lodsel run ledger and calibd's job log ([`jsonl::JsonlLog`]);
//! - [`fault`] — panic isolation ([`fault::guard`]), the typed
//!   [`fault::EvalFailure`] quarantine taxonomy, and the deterministic
//!   [`fault::FaultPlan`] injection harness behind the chaos tests;
//! - [`fidelity`] — deterministic scenario subsampling
//!   ([`fidelity::Fidelity`], evaluated through
//!   [`objective::SimulationObjective::on_subset`]) for the cheap rungs
//!   of multi-fidelity (successive-halving) sweeps;
//! - [`calibrate`] — the top-level [`calibrate::Calibrator`] driver;
//! - [`synthetic`] — synthetic benchmarking and the calibration-error
//!   metric used to select the loss/algorithm pair (Tables 3 and 5).
//!
//! ## Example: calibrate a toy simulator
//!
//! ```
//! use simcal::prelude::*;
//!
//! // A "simulator" whose scenario is a ground-truth value and whose output
//! // is the relative error of the calibrated parameter against it.
//! struct Toy;
//! impl Simulator for Toy {
//!     type Scenario = f64;
//!     type Output = ScenarioError;
//!     fn run(&self, truth: &f64, calib: &Calibration) -> ScenarioError {
//!         ScenarioError::scalar_only(relative_error(*truth, calib.values[0]))
//!     }
//! }
//!
//! let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 100.0 });
//! let dataset = vec![42.0, 42.0];
//! let objective = SimulationObjective::new(
//!     &Toy, &dataset,
//!     StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
//!     space,
//! );
//! let result = Calibrator::bo_gp(Budget::Evaluations(150), 1).calibrate(&objective);
//! assert!((result.calibration.values[0] - 42.0).abs() < 5.0);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod budget;
pub mod cache;
pub mod calibrate;
pub mod fault;
pub mod fidelity;
pub mod jsonl;
pub mod loss;
pub mod objective;
pub mod param;
pub mod surrogate;
pub mod synthetic;

/// Serializes the unit tests that install the process-global `obs`
/// recorder: each install replaces the recorder another test may be
/// reading.
#[cfg(test)]
pub(crate) static OBS_RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One-stop imports for framework users.
pub mod prelude {
    pub use crate::algorithms::{
        AlgorithmKind, BayesianOpt, GradientDescent, GridSearch, RandomSearch, SearchAlgorithm,
    };
    pub use crate::budget::{Budget, Evaluator, TracePoint};
    pub use crate::cache::{
        fnv1a, fnv1a_fold, CacheFingerprint, CacheRecord, CachedOutcome, DiskCache,
    };
    pub use crate::calibrate::{CalibrationFailed, CalibrationResult, Calibrator};
    pub use crate::fault::{EvalFailure, FaultKind, FaultPlan};
    pub use crate::fidelity::{subset_indices, subset_tag, Fidelity};
    pub use crate::loss::{
        relative_error, Agg, ElementMix, Loss, MatrixLoss, ScenarioError, StructuredLoss,
    };
    pub use crate::objective::{FnObjective, Objective, SimulationObjective, Simulator};
    pub use crate::param::{Calibration, Knob, ParamDef, ParamKind, ParameterSpace};
    pub use crate::surrogate::{Surrogate, SurrogateKind};
    pub use crate::synthetic::{best_pair, calibration_error, synthetic_benchmark, SyntheticCell};
}
