//! Sharded sweep execution: slice the (unit × restart) plan across N
//! ledger shards, run each slice independently, and merge the shards
//! back into one sweep ledger whose replay produces a [`SweepOutcome`]
//! bit-for-bit equal to a single-process [`run_sweep`](crate::sweep::run_sweep).
//!
//! The partition is round-robin over the deterministic plan order: run
//! `i` of the full grid belongs to shard `i % shards`. Every shard
//! computes the *full* plan (budgets and checkpoint keys must not depend
//! on where a shard boundary lands) and executes only its slice,
//! appending [`LedgerEvent::RunCompleted`] / [`LedgerEvent::RunFailed`]
//! checkpoints to its own shard file — the same records, bit-for-bit,
//! that a single-process sweep would have written. A shard file opens
//! with a [`LedgerEvent::ShardStarted`] header carrying the sweep-plan
//! fingerprint ([`crate::sweep::sweep_fingerprint`]); the merge step
//! refuses (with a typed [`ShardError`], never a panic) to combine
//! shards whose fingerprints disagree, so shards of two different sweeps
//! can never be silently mixed.
//!
//! [`merge_shards`] reduces shard files into one target ledger, first
//! write wins on duplicate run keys (duplicates are bit-identical
//! anyway: runs are deterministic and content-keyed). Running the sweep
//! against the merged ledger serves every calibration run from a
//! checkpoint — zero objective re-invocations — and the evaluate/reduce
//! phases are deterministic, so the merged outcome's digest equals the
//! single-process digest. That equality is pinned by golden tests.

use crate::family::VersionFamily;
use crate::ledger::{Ledger, LedgerEvent};
use crate::sweep::{
    climb, plan_sweep, sweep_fingerprint, try_run_sweep, RunExecutor, RunPlan, SweepConfig,
    SweepError, SweepOutcome,
};
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// File name of shard `index` under the sharded sweep's directory `dir`.
pub fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}.jsonl"))
}

/// Why a sharded operation was refused. Merging never panics on bad
/// inputs: a foreign or headerless shard is a typed error the caller
/// (e.g. the calibd daemon) reports and survives.
#[derive(Debug)]
pub enum ShardError {
    /// Reading or writing a ledger file failed.
    Io(io::Error),
    /// A shard file carries no [`LedgerEvent::ShardStarted`] header, so
    /// there is no way to tell which sweep it belongs to.
    MissingHeader {
        /// The offending shard file.
        path: PathBuf,
    },
    /// A shard was produced by a different sweep configuration than the
    /// one being merged.
    FingerprintMismatch {
        /// The offending shard file.
        path: PathBuf,
        /// The sweep-plan fingerprint being merged.
        expected: u64,
        /// The fingerprint recorded in the shard's header.
        found: u64,
    },
    /// The sweep itself cannot be planned (e.g. the total budget is
    /// smaller than the run plan) — nothing was executed.
    Plan(SweepError),
    /// The budget policy cannot run under this shard partition
    /// (successive halving needs global rung barriers, so it only runs
    /// unsharded).
    PolicyUnsupported {
        /// The offending policy, serialized.
        policy: String,
        /// The requested partition width.
        shards: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard I/O error: {e}"),
            ShardError::MissingHeader { path } => write!(
                f,
                "shard {} has no ShardStarted header (not a shard ledger?)",
                path.display()
            ),
            ShardError::FingerprintMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "shard {} belongs to a different sweep: fingerprint {found:016x}, \
                 expected {expected:016x}",
                path.display()
            ),
            ShardError::Plan(e) => write!(f, "sweep cannot be planned: {e}"),
            ShardError::PolicyUnsupported { policy, shards } => write!(
                f,
                "budget policy {policy} needs global rung barriers and cannot run \
                 across {shards} shards (use 1 shard)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// First `ShardStarted` header of a shard's event stream, or a typed
/// error when there is none.
fn shard_header(path: &Path, events: &[LedgerEvent]) -> Result<u64, ShardError> {
    events
        .iter()
        .find_map(|e| match e {
            LedgerEvent::ShardStarted { sweep, .. } => Some(*sweep),
            _ => None,
        })
        .ok_or_else(|| ShardError::MissingHeader {
            path: path.to_path_buf(),
        })
}

/// Execute shard `index` of a `shards`-way partition of the sweep,
/// checkpointing into `shard_path(dir, index)`. Resumable exactly like
/// [`run_sweep`](crate::sweep::run_sweep): runs already checkpointed in the shard file are not
/// re-executed, and recorded failures count against the retry allowance.
/// Returns the number of calibration runs newly completed (or newly
/// failed) in this call — a fully-checkpointed shard returns 0.
///
/// A shard file left behind by a *different* sweep configuration is
/// refused with [`ShardError::FingerprintMismatch`] instead of being
/// silently polluted.
pub fn run_shard(
    family: &dyn VersionFamily,
    config: &SweepConfig,
    index: usize,
    shards: usize,
    dir: &Path,
) -> Result<usize, ShardError> {
    assert!(shards >= 1, "a sharded sweep needs at least one shard");
    assert!(index < shards, "shard index {index} out of {shards}");
    let fp = sweep_fingerprint(family, config);
    let planned = plan_sweep(family, config).map_err(ShardError::Plan)?;
    if planned.schedule.is_some() && shards > 1 {
        return Err(ShardError::PolicyUnsupported {
            policy: planned.policy_json.clone(),
            shards,
        });
    }
    let path = shard_path(dir, index);
    let ledger = Ledger::open(&path)?;
    let events = ledger.events();
    if events
        .iter()
        .any(|e| matches!(e, LedgerEvent::ShardStarted { .. }))
    {
        let found = shard_header(&path, &events)?;
        if found != fp {
            return Err(ShardError::FingerprintMismatch {
                path,
                expected: fp,
                found,
            });
        }
    }
    ledger
        .append(&LedgerEvent::ShardStarted {
            sweep: fp,
            shard: index,
            shards,
            family: planned.name.clone(),
            fingerprint: planned.fingerprint,
        })
        .map_err(ShardError::Io)?;

    // This shard's slice: round-robin over the plan. It climbs the same
    // ladder a whole sweep does, so successive halving (one shard only)
    // leaves its rung records and promotion decisions here for the
    // post-merge replay.
    let slice: Vec<&RunPlan> = planned.plans.iter().skip(index).step_by(shards).collect();
    let exec = RunExecutor::new(family, &planned, config, Some(&ledger));
    let shard_span = obs::span!(
        "shard",
        index = index,
        shards = shards,
        pending = exec.pending(&planned.ladder[0], &slice)
    );
    climb(&exec, &planned.ladder, &slice, shard_span.id());
    Ok(exec.executed())
}

/// What [`merge_shards`] deduplicates an event by, in the target and
/// in every shard alike.
#[derive(PartialEq, Eq, Hash)]
enum MergeKey {
    /// Run and rung checkpoints: content-keyed, so first write wins.
    Run(u64),
    /// Unit evaluations: content-keyed, first write wins.
    Unit(u64),
    /// Failures and promotion decisions, by their full line, so retry
    /// counting stays correct across repeated merges.
    Line(String),
}

/// The event's [`MergeKey`]; `None` for events that stay in their shard
/// file.
fn merge_key(event: &LedgerEvent) -> Option<MergeKey> {
    match event {
        // Rung keys are content hashes of (base, rung, budget, subset), so
        // first-write-wins per key is as idempotent for them as for plain
        // run records.
        LedgerEvent::RunCompleted { record } | LedgerEvent::RungCompleted { record, .. } => {
            Some(MergeKey::Run(record.key))
        }
        LedgerEvent::UnitCompleted { record } => Some(MergeKey::Unit(record.key)),
        LedgerEvent::RunFailed { .. }
        | LedgerEvent::RunPromoted { .. }
        | LedgerEvent::RunEliminated { .. } => Some(MergeKey::Line(
            serde_json::to_string(event).unwrap_or_default(),
        )),
        // Shard headers and per-execution markers stay in their shard
        // files; the merged ledger is a plain sweep ledger.
        LedgerEvent::ShardStarted { .. }
        | LedgerEvent::SweepStarted { .. }
        | LedgerEvent::SweepCompleted { .. } => None,
    }
}

/// Merge shard ledgers into the target ledger at `target`, validating
/// that every shard belongs to the same sweep. An event already in the
/// target, or merged earlier, is skipped — checkpoints by key, failures
/// and promotion decisions by content — so re-merging is idempotent.
/// Returns the open merged ledger, ready to be passed to
/// [`run_sweep`](crate::sweep::run_sweep).
pub fn merge_shards(shard_paths: &[PathBuf], target: &Path) -> Result<Ledger, ShardError> {
    let merged = Ledger::open(target)?;
    let mut seen: HashSet<MergeKey> = merged.events().iter().filter_map(merge_key).collect();

    let mut expected: Option<u64> = None;
    for path in shard_paths {
        let events = Ledger::read(path)?;
        let sweep = shard_header(path, &events)?;
        match expected {
            None => expected = Some(sweep),
            Some(fp) if fp != sweep => {
                return Err(ShardError::FingerprintMismatch {
                    path: path.clone(),
                    expected: fp,
                    found: sweep,
                });
            }
            Some(_) => {}
        }
        for event in &events {
            if merge_key(event).is_some_and(|key| seen.insert(key)) {
                merged.append(event).map_err(ShardError::Io)?;
            }
        }
        obs::counter(obs::Counter::ShardMerges, 1);
    }
    Ok(merged)
}

/// Run the whole sweep as `shards` slices under `dir`, merge the shard
/// ledgers into `dir/merged.jsonl`, and replay the merged ledger through
/// [`run_sweep`](crate::sweep::run_sweep). The outcome — including its digest — is bit-for-bit
/// equal to a single-process `run_sweep` of the same configuration, and
/// the final replay performs zero calibration work (every run is served
/// from a merged checkpoint).
pub fn run_sweep_sharded(
    family: &dyn VersionFamily,
    config: &SweepConfig,
    shards: usize,
    dir: &Path,
) -> Result<SweepOutcome, ShardError> {
    for index in 0..shards {
        run_shard(family, config, index, shards, dir)?;
    }
    let paths: Vec<PathBuf> = (0..shards).map(|i| shard_path(dir, i)).collect();
    let merged = merge_shards(&paths, &dir.join("merged.jsonl"))?;
    try_run_sweep(family, config, Some(&merged)).map_err(ShardError::Plan)
}
