//! # lodsel — level-of-detail selection
//!
//! The paper's end product is not a calibration: it is a *decision* — which
//! level of detail should a practitioner simulate at? This crate turns the
//! workspace's calibration machinery into that decision. It orchestrates
//! the full (version × restart) calibration sweep behind a small
//! [`family::VersionFamily`] trait (implemented once, by the generic
//! [`families::SimFamily`] adapter, for the workflow, MPI, batch-scheduling,
//! and data-grid case studies — and for any other
//! [`simcal::prelude::Simulator`] given a [`families::CaseStudy`] spec),
//! fans the runs onto the thread pool, and reduces the results to an accuracy-versus-cost
//! Pareto front plus a ranked recommendation: *the cheapest version whose
//! held-out error is within ε of the best*.
//!
//! Sweeps are **resumable**. Every completed calibration run and every
//! completed unit evaluation is checkpointed to a [`ledger::Ledger`] — an
//! append-only JSONL event log — keyed by a content hash of the
//! family/version/budget/seed that produced it. Re-running an interrupted
//! sweep against the same ledger serves the completed work from the
//! checkpoints without re-consuming any budget, and (because every
//! calibration is deterministic for a fixed seed and evaluation budget)
//! the resumed sweep's outcome is bit-for-bit identical to an
//! uninterrupted one. The ledger doubles as the subsystem's observability
//! surface: `--bin lodsel --status` summarizes any ledger file.
//!
//! Layout:
//!
//! - [`family`] — the [`family::VersionFamily`] abstraction a simulator
//!   family implements to become sweepable;
//! - [`multistart`] — the shared multi-start (best-of-N-restarts) helper
//!   used by every case study;
//! - [`sweep`] — the orchestrator: budget division, fan-out, checkpoint
//!   replay, outcome assembly; every calibration it (or a shard, or a
//!   successive-halving rung) invokes goes through its one run executor;
//! - [`ledger`] — the JSONL run ledger and its content-hash keys;
//! - [`shard`] — sharded sweep execution: plan slicing, per-shard
//!   ledgers, and the deterministic merge back to one outcome;
//! - [`pareto`] — Pareto front and the ε-recommendation;
//! - [`families`] — the generic [`families::SimFamily`] adapter, the
//!   [`families::CaseStudy`] spec a case study supplies, and the four
//!   case studies' specs and paper datasets;
//! - [`report`] — plain-text table rendering (shared with the experiment
//!   binaries);
//! - [`trace`] — `--trace` JSONL parsing and the `--trace-report`
//!   per-phase summary;
//! - [`cli`] — the argv reader, budget-flag grammar and `--ledger`/`--trace`
//!   set-up every binary of the workspace shares.

#![warn(missing_docs)]

pub mod cli;
pub mod families;
pub mod family;
pub mod ledger;
pub mod multistart;
pub mod pareto;
pub mod report;
pub mod shard;
pub mod sweep;
pub mod trace;

/// One-stop imports for sweep drivers.
pub mod prelude {
    pub use crate::families::batch::BatchFamily;
    pub use crate::families::grid::GridFamily;
    pub use crate::families::mpi::MpiFamily;
    pub use crate::families::wf::WfFamily;
    pub use crate::families::{evaluate_on, CaseStudy, SimFamily, Split};
    pub use crate::family::{SweepUnit, UnitEval, VersionFamily};
    pub use crate::ledger::{
        ledger_status, FailureHistory, Ledger, LedgerEvent, LedgerStatus, RunRecord, UnitRecord,
    };
    pub use crate::multistart::{best_result, calibrate_best_of, pick_best, restart_seed};
    pub use crate::pareto::{
        pareto_front, recommend, render_recommendation, try_recommend, RecommendError,
        Recommendation, VersionScore,
    };
    pub use crate::report::{fnum, pct, Table};
    pub use crate::shard::{merge_shards, run_shard, run_sweep_sharded, shard_path, ShardError};
    pub use crate::sweep::{
        front_flags, run_sweep, sweep_fingerprint, try_run_sweep, BudgetPolicy, RunFailure,
        ShReport, ShRung, ShRungReport, ShSchedule, SweepConfig, SweepError, SweepOutcome,
        UnitOutcome, VersionOutcome,
    };
    pub use crate::trace::{parse_trace, render_report, TraceFile};
}
