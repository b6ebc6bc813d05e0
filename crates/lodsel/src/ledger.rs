//! The run ledger: an append-only JSONL event log that makes sweeps
//! durable, resumable, and observable.
//!
//! Every line is one externally-tagged [`LedgerEvent`]. Completed
//! calibration runs and completed unit evaluations are appended (and
//! flushed) as they finish, so a sweep killed at any point loses at most
//! the work in flight. Checkpoint records are keyed by an FNV-1a content
//! hash over a canonical description of what produced them — family name,
//! dataset fingerprint, unit label, restart, seed, and budget — so a
//! resume can only ever replay a checkpoint against the exact
//! configuration that wrote it.
//!
//! The file is a [`simcal::jsonl`] log, so a torn final line (the usual
//! signature of a kill mid-write) or any other unparseable line is
//! skipped, not fatal — the corresponding work simply re-runs.

use serde::{Deserialize, Serialize};
use simcal::jsonl::{self, JsonlLog};
use simcal::prelude::{Budget, CalibrationResult};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// 64-bit FNV-1a hash (the workspace's one content hash, from simcal).
pub use simcal::cache::fnv1a;

/// Checkpoint key of one calibration run.
pub fn run_key(
    family: &str,
    fingerprint: u64,
    unit: &str,
    restart: usize,
    seed: u64,
    budget: &Budget,
) -> u64 {
    let budget_json = serde_json::to_string(budget).expect("budget serializes");
    fnv1a(
        format!(
            "run|family={family}|fp={fingerprint:016x}|unit={unit}|restart={restart}|\
             seed={seed}|budget={budget_json}"
        )
        .as_bytes(),
    )
}

/// Checkpoint key of one rung execution of a successive-halving run:
/// derived from the run's base plan key plus everything that shapes the
/// rung's evaluation (rung index, per-rung budget, scenario-subset
/// denominator), so a resumed sweep can only replay a rung record against
/// the exact rung configuration that wrote it.
pub fn rung_key(base: u64, rung: usize, budget: &Budget, scenario_denom: usize) -> u64 {
    let budget_json = serde_json::to_string(budget).expect("budget serializes");
    fnv1a(
        format!("rung|base={base:016x}|rung={rung}|budget={budget_json}|denom={scenario_denom}")
            .as_bytes(),
    )
}

/// Base key of one successive-halving run, which its [`rung_key`]s and
/// promotion decisions hang off. It covers the whole budget policy, so two
/// SH configurations sharing a rung-0 budget never replay each other.
pub fn sh_run_key(
    family: &str,
    fingerprint: u64,
    unit: &str,
    restart: usize,
    seed: u64,
    budget_policy_json: &str,
) -> u64 {
    fnv1a(
        format!(
            "shrun|family={family}|fp={fingerprint:016x}|unit={unit}|restart={restart}|\
             seed={seed}|policy={budget_policy_json}"
        )
        .as_bytes(),
    )
}

/// Checkpoint key of one unit's held-out evaluation (covers the full
/// multi-start configuration the evaluated calibration was selected from).
pub fn unit_key(
    family: &str,
    fingerprint: u64,
    unit: &str,
    restarts: usize,
    seed: u64,
    budget_policy_json: &str,
) -> u64 {
    fnv1a(
        format!(
            "unit|family={family}|fp={fingerprint:016x}|unit={unit}|restarts={restarts}|\
             seed={seed}|policy={budget_policy_json}"
        )
        .as_bytes(),
    )
}

/// Checkpoint of one completed calibration run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Content-hash key ([`run_key`]).
    pub key: u64,
    /// Unit label.
    pub unit: String,
    /// Restart index within the unit's multi-start.
    pub restart: usize,
    /// The derived seed this run calibrated with.
    pub seed: u64,
    /// The full calibration result (round-trips bit-for-bit).
    pub result: CalibrationResult,
}

/// Checkpoint of one completed unit evaluation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// Content-hash key ([`unit_key`]).
    pub key: u64,
    /// Unit label.
    pub unit: String,
    /// Which restart won the multi-start (lowest training loss).
    pub best_restart: usize,
    /// Held-out test errors (see [`crate::family::UnitEval::samples`]).
    pub samples: Vec<f64>,
    /// Deterministic simulation work spent on the test set.
    pub work_units: u64,
    /// Measured wall-clock seconds of the evaluation. Observability only:
    /// never part of digests or recommendations, so resumed sweeps stay
    /// bit-for-bit equal to fresh ones.
    pub wall_secs: f64,
}

/// One line of the ledger.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LedgerEvent {
    /// A sweep (fresh or resumed) started against this ledger.
    SweepStarted {
        /// Family identifier.
        family: String,
        /// Family dataset fingerprint.
        fingerprint: u64,
        /// Master seed.
        seed: u64,
        /// Restarts per unit.
        restarts: usize,
        /// Units in the full sweep plan.
        units: usize,
        /// Calibration runs actually pending (not served from checkpoints).
        pending_runs: usize,
    },
    /// A calibration run finished.
    RunCompleted {
        /// The checkpoint payload.
        record: RunRecord,
    },
    /// A unit's held-out evaluation finished.
    UnitCompleted {
        /// The checkpoint payload.
        record: UnitRecord,
    },
    /// A calibration run or unit evaluation failed (panicked, or produced
    /// only non-finite values). The sweep continues in degraded mode; a
    /// resume retries the keyed work until its recorded attempts reach
    /// `1 + max_fault_retries` (see [`crate::sweep::SweepConfig`]).
    RunFailed {
        /// Checkpoint key of the failed work ([`run_key`] or
        /// [`rung_key`] for calibrate failures, [`unit_key`] for evaluate
        /// failures).
        key: u64,
        /// Unit label.
        unit: String,
        /// Restart index (for evaluate failures, the winning restart
        /// whose calibration was being evaluated).
        restart: usize,
        /// Seed of the failed calibration run (the sweep's master seed
        /// for evaluate failures).
        seed: u64,
        /// 1-based attempt number across sweep executions.
        attempt: usize,
        /// Which stage failed: `"calibrate"` or `"evaluate"`.
        stage: String,
        /// Readable failure reason (panic message or a summary).
        reason: String,
    },
    /// The sweep covered every unit and produced a recommendation.
    SweepCompleted {
        /// Family identifier.
        family: String,
        /// Digest of the deterministic outcome
        /// ([`crate::sweep::SweepOutcome::digest`]).
        digest: String,
        /// The recommended version label.
        chosen: String,
    },
    /// One rung of a successive-halving run finished
    /// ([`crate::sweep::BudgetPolicy::SuccessiveHalving`]).
    RungCompleted {
        /// Base plan key of the run the rung belongs to (the key
        /// promotion decisions are recorded against).
        base: u64,
        /// Rung index (0 = cheapest).
        rung: usize,
        /// The checkpoint payload; its `key` is the rung-specific
        /// [`rung_key`].
        record: RunRecord,
    },
    /// A successive-halving run was promoted past a rung. Decisions are
    /// appended in plan order once a rung's ranking is computed, so a
    /// resumed sweep *replays* the recorded decision set instead of
    /// re-ranking (a partially recorded rung falls back to the
    /// deterministic re-rank, which reproduces the same decisions).
    RunPromoted {
        /// Base plan key of the promoted run.
        key: u64,
        /// The rung the decision was made at.
        rung: usize,
    },
    /// A successive-halving run was eliminated at a rung (ranked below
    /// the promotion cut, or failed the rung's calibration).
    RunEliminated {
        /// Base plan key of the eliminated run.
        key: u64,
        /// The rung the decision was made at.
        rung: usize,
    },
    /// One shard of a sharded sweep ([`crate::shard`]) started appending
    /// to this ledger. The sweep-plan fingerprint
    /// ([`crate::sweep::sweep_fingerprint`]) lets the merge step reject
    /// shards that were produced by a different sweep configuration.
    ShardStarted {
        /// Sweep-plan fingerprint the shard was partitioned from.
        sweep: u64,
        /// This shard's index (0-based).
        shard: usize,
        /// Total shards in the partition.
        shards: usize,
        /// Family identifier.
        family: String,
        /// Family dataset fingerprint.
        fingerprint: u64,
    },
}

/// Most recent failure recorded in a ledger, for status reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureSummary {
    /// Unit label of the failed work.
    pub unit: String,
    /// Which stage failed: `"calibrate"` or `"evaluate"`.
    pub stage: String,
    /// Readable failure reason.
    pub reason: String,
}

/// Most recent `SweepStarted` event, for status reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Family identifier.
    pub family: String,
    /// Units in the full sweep plan.
    pub units: usize,
    /// Calibration runs pending when the sweep (re)started.
    pub pending_runs: usize,
}

/// The `SweepCompleted` event, for status reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompletionSummary {
    /// Family identifier.
    pub family: String,
    /// Digest of the deterministic outcome.
    pub digest: String,
    /// The recommended version label.
    pub chosen: String,
}

/// Machine-readable summary of a ledger's event stream: what
/// `lodsel --status` prints, as data. Serialized by
/// `lodsel --status-json` and embedded in `calibd` job-status responses,
/// so both frontends agree on the schema by construction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LedgerStatus {
    /// Total parseable events in the ledger.
    pub events: usize,
    /// `SweepStarted` events (each execution against the ledger logs one).
    pub sweeps_started: usize,
    /// `ShardStarted` events (0 for unsharded ledgers).
    pub shards_started: usize,
    /// Completed calibration runs.
    pub runs_done: usize,
    /// Completed successive-halving rung executions (0 for fixed-budget
    /// sweeps).
    pub rungs_done: usize,
    /// Recorded successive-halving promotion decisions.
    pub promotions: usize,
    /// Recorded successive-halving elimination decisions.
    pub eliminations: usize,
    /// Completed unit evaluations.
    pub unit_evals_done: usize,
    /// Failed run/unit attempts.
    pub failed_attempts: usize,
    /// Most recent failure, if any.
    pub last_failure: Option<FailureSummary>,
    /// Most recent `SweepStarted`, if any.
    pub last_sweep: Option<SweepSummary>,
    /// The completion record, once the sweep finished.
    pub completed: Option<CompletionSummary>,
}

/// Reduce a ledger's event stream to its [`LedgerStatus`] summary.
pub fn ledger_status(events: &[LedgerEvent]) -> LedgerStatus {
    let mut status = LedgerStatus {
        events: events.len(),
        sweeps_started: 0,
        shards_started: 0,
        runs_done: 0,
        rungs_done: 0,
        promotions: 0,
        eliminations: 0,
        unit_evals_done: 0,
        failed_attempts: 0,
        last_failure: None,
        last_sweep: None,
        completed: None,
    };
    for event in events {
        match event {
            LedgerEvent::SweepStarted {
                family,
                units,
                pending_runs,
                ..
            } => {
                status.sweeps_started += 1;
                status.last_sweep = Some(SweepSummary {
                    family: family.clone(),
                    units: *units,
                    pending_runs: *pending_runs,
                });
            }
            LedgerEvent::ShardStarted { .. } => status.shards_started += 1,
            LedgerEvent::RunCompleted { .. } => status.runs_done += 1,
            LedgerEvent::RungCompleted { .. } => status.rungs_done += 1,
            LedgerEvent::RunPromoted { .. } => status.promotions += 1,
            LedgerEvent::RunEliminated { .. } => status.eliminations += 1,
            LedgerEvent::UnitCompleted { .. } => status.unit_evals_done += 1,
            LedgerEvent::RunFailed {
                unit,
                stage,
                reason,
                ..
            } => {
                status.failed_attempts += 1;
                status.last_failure = Some(FailureSummary {
                    unit: unit.clone(),
                    stage: stage.clone(),
                    reason: reason.clone(),
                });
            }
            LedgerEvent::SweepCompleted {
                family,
                digest,
                chosen,
            } => {
                status.completed = Some(CompletionSummary {
                    family: family.clone(),
                    digest: digest.clone(),
                    chosen: chosen.clone(),
                });
            }
        }
    }
    status
}

impl LedgerStatus {
    /// Render the human status table, byte-identical to what
    /// `lodsel --status` has always printed (the shard line is new and
    /// appears only for sharded ledgers).
    pub fn render_text(&self, path: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ledger {path}: {} events", self.events);
        let _ = writeln!(out, "  sweeps started:        {}", self.sweeps_started);
        if self.shards_started > 0 {
            let _ = writeln!(out, "  shards started:        {}", self.shards_started);
        }
        let _ = writeln!(out, "  calibration runs done: {}", self.runs_done);
        if self.rungs_done > 0 || self.promotions > 0 || self.eliminations > 0 {
            let _ = writeln!(out, "  rung runs done:        {}", self.rungs_done);
            let _ = writeln!(
                out,
                "  promoted/eliminated:   {} / {}",
                self.promotions, self.eliminations
            );
        }
        let _ = writeln!(out, "  unit evaluations done: {}", self.unit_evals_done);
        if self.failed_attempts > 0 {
            let _ = writeln!(out, "  failed attempts:       {}", self.failed_attempts);
            if let Some(f) = &self.last_failure {
                let _ = writeln!(
                    out,
                    "  last failure: unit={} stage={} reason={}",
                    f.unit, f.stage, f.reason
                );
            }
        }
        if let Some(s) = &self.last_sweep {
            let _ = writeln!(
                out,
                "  last sweep: family={} units={} pending_runs={}",
                s.family, s.units, s.pending_runs
            );
        }
        match &self.completed {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "  completed: family={} chosen={} digest={}",
                    c.family, c.chosen, c.digest
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  completed: no (resume by re-running with the same --ledger)"
                );
            }
        }
        out
    }
}

/// Replayed failure history of one checkpoint key: how many attempts
/// have failed so far and what the latest one reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureHistory {
    /// Failed attempts recorded for this key.
    pub attempts: usize,
    /// Stage of the most recent failure (`"calibrate"` or `"evaluate"`).
    pub stage: String,
    /// Reason of the most recent failure.
    pub last_reason: String,
}

struct Inner {
    log: JsonlLog,
    events: Vec<LedgerEvent>,
}

/// An open ledger file: loaded history plus an append handle.
///
/// # Example: resuming a sweep
///
/// Running the same sweep twice against the same ledger serves the second
/// run entirely from checkpoints: no calibration re-runs, and the outcome
/// digest is bit-for-bit identical.
///
/// ```
/// use lodsel::prelude::*;
/// use simcal::prelude::Budget;
///
/// let path = std::env::temp_dir().join(format!("lodsel-doc-{}.jsonl", std::process::id()));
/// let family = BatchFamily::paper(true, 7);
/// let config = SweepConfig {
///     budget: BudgetPolicy::PerRun { budget: Budget::Evaluations(2) },
///     restarts: 1,
///     seed: 7,
///     epsilon: 0.1,
///     max_fault_retries: 2,
///     cache: None,
/// };
///
/// let ledger = Ledger::open(&path).unwrap();
/// let first = run_sweep(&family, &config, Some(&ledger));
///
/// // "Interrupted and restarted": a fresh process opens the same file.
/// let resumed = Ledger::open(&path).unwrap();
/// let runs_before = resumed.checkpoints().0.len();
/// let second = run_sweep(&family, &config, Some(&resumed));
///
/// assert_eq!(first.digest(), second.digest());
/// assert_eq!(resumed.checkpoints().0.len(), runs_before); // nothing re-ran
/// # std::fs::remove_file(&path).ok();
/// ```
pub struct Ledger {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl Ledger {
    /// Open (creating if absent) the ledger at `path`, loading all
    /// parseable events already in it.
    ///
    /// Errors carry the offending path, so "lodsel --ledger some/dir"
    /// fails with a message a user can act on rather than a bare
    /// "Is a directory".
    pub fn open(path: impl AsRef<Path>) -> io::Result<Ledger> {
        let path = path.as_ref().to_path_buf();
        let at = |e: io::Error| {
            io::Error::new(
                e.kind(),
                format!("cannot open ledger {}: {e}", path.display()),
            )
        };
        let (log, events) = JsonlLog::open(&path).map_err(at)?;
        Ok(Ledger {
            path,
            inner: Mutex::new(Inner { log, events }),
        })
    }

    /// The ledger's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event as a JSONL line and flush it to disk.
    ///
    /// An error — including an event that fails to serialize — is
    /// returned rather than panicking, because a ledger hiccup must never
    /// take down a sweep that is otherwise making progress.
    pub fn append(&self, event: &LedgerEvent) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.log.append(event).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot append to ledger {}: {e}", self.path.display()),
            )
        })?;
        inner.events.push(event.clone());
        Ok(())
    }

    /// Snapshot of all events seen so far (loaded plus appended).
    pub fn events(&self) -> Vec<LedgerEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// The run and unit checkpoints currently in the ledger, keyed by
    /// their content hashes. Run checkpoints include successive-halving
    /// rung records, whose keys are their [`rung_key`]s. Later records win
    /// on duplicate keys (a re-run of identical work writes an identical
    /// record anyway).
    pub fn checkpoints(&self) -> (HashMap<u64, RunRecord>, HashMap<u64, UnitRecord>) {
        let mut runs = HashMap::new();
        let mut units = HashMap::new();
        for event in self.inner.lock().unwrap().events.iter() {
            match event {
                LedgerEvent::RunCompleted { record }
                | LedgerEvent::RungCompleted { record, .. } => {
                    runs.insert(record.key, record.clone());
                }
                LedgerEvent::UnitCompleted { record } => {
                    units.insert(record.key, record.clone());
                }
                _ => {}
            }
        }
        (runs, units)
    }

    /// Successive-halving promotion/elimination decisions replayed from
    /// the ledger, keyed by `(base plan key, rung)`; `true` means
    /// promoted. The *last* recorded decision for a key wins, so a rung
    /// that was re-ranked (e.g. after a kill mid-decision left partial
    /// coverage) replays its final decision set.
    pub fn rung_decisions(&self) -> HashMap<(u64, usize), bool> {
        let mut decisions = HashMap::new();
        for event in self.inner.lock().unwrap().events.iter() {
            match event {
                LedgerEvent::RunPromoted { key, rung } => {
                    decisions.insert((*key, *rung), true);
                }
                LedgerEvent::RunEliminated { key, rung } => {
                    decisions.insert((*key, *rung), false);
                }
                _ => {}
            }
        }
        decisions
    }

    /// Per-key failure history replayed from the ledger: how many
    /// attempts of each keyed run/unit have failed, and what the most
    /// recent failure reported. A later successful checkpoint does not
    /// erase the history, but resume logic never consults the history of
    /// a key that has a checkpoint — checkpoints win.
    pub fn failure_history(&self) -> HashMap<u64, FailureHistory> {
        let mut failures: HashMap<u64, FailureHistory> = HashMap::new();
        for event in self.inner.lock().unwrap().events.iter() {
            if let LedgerEvent::RunFailed {
                key, stage, reason, ..
            } = event
            {
                let entry = failures.entry(*key).or_insert_with(|| FailureHistory {
                    attempts: 0,
                    stage: String::new(),
                    last_reason: String::new(),
                });
                entry.attempts += 1;
                entry.stage = stage.clone();
                entry.last_reason = reason.clone();
            }
        }
        failures
    }

    /// Read the events of a ledger file without opening it for appends.
    /// A missing file reads as empty.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<LedgerEvent>> {
        jsonl::read(path.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal::prelude::{
        Budget, Calibration, Calibrator, FnObjective, ParamKind, ParameterSpace,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lodsel-ledger-test-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_result() -> CalibrationResult {
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, |c: &Calibration| (c.values[0] - 0.3).powi(2));
        Calibrator::bo_gp(Budget::Evaluations(5), 1).calibrate(&obj)
    }

    #[test]
    fn keys_are_stable_and_configuration_sensitive() {
        let b = Budget::Evaluations(100);
        let k = run_key("wf", 7, "v1/app", 2, 42, &b);
        assert_eq!(k, run_key("wf", 7, "v1/app", 2, 42, &b));
        assert_ne!(k, run_key("wf", 7, "v1/app", 3, 42, &b));
        assert_ne!(k, run_key("wf", 8, "v1/app", 2, 42, &b));
        assert_ne!(k, run_key("wf", 7, "v1/app", 2, 43, &b));
        assert_ne!(
            k,
            run_key("wf", 7, "v1/app", 2, 42, &Budget::Evaluations(101))
        );
        assert_ne!(k, run_key("mpi", 7, "v1/app", 2, 42, &b));
    }

    #[test]
    fn checkpoint_keys_are_pinned() {
        // Keys are on disk in every ledger: a resume finds its
        // checkpoints only while these values hold.
        let run = run_key("toy", 0x70f0, "v1", 1, 42, &Budget::Evaluations(8));
        assert_eq!(run, 0x08bb_8552_434c_5b5f);
        let rung = rung_key(run, 2, &Budget::Evaluations(3), 4);
        assert_eq!(rung, 0x2094_11a2_278b_1c0e);
        let policy = r#"{"PerRun":{"budget":{"Evaluations":8}}}"#;
        let unit = unit_key("toy", 0x70f0, "v1", 2, 42, policy);
        assert_eq!(unit, 0x81af_0a14_5a78_bf52);
        let sh = r#"{"SuccessiveHalving":{"total":48,"eta":2,"min_scenarios":1}}"#;
        let sh_run = sh_run_key("toy", 0x70f0, "v1", 1, 42, sh);
        assert_eq!(sh_run, 0x0c29_60cd_f4da_6b4f);
    }

    #[test]
    fn append_read_roundtrip_and_checkpoints() {
        let path = tmp_path("roundtrip");
        let ledger = Ledger::open(&path).unwrap();
        let run = RunRecord {
            key: 11,
            unit: "u".into(),
            restart: 0,
            seed: 5,
            result: sample_result(),
        };
        let unit = UnitRecord {
            key: 22,
            unit: "u".into(),
            best_restart: 0,
            samples: vec![0.25, 0.5],
            work_units: 99,
            wall_secs: 0.001,
        };
        ledger
            .append(&LedgerEvent::RunCompleted {
                record: run.clone(),
            })
            .unwrap();
        ledger
            .append(&LedgerEvent::UnitCompleted {
                record: unit.clone(),
            })
            .unwrap();

        // Same-instance checkpoints see the appended records.
        let (runs, units) = ledger.checkpoints();
        assert_eq!(runs.get(&11), Some(&run));
        assert_eq!(units.get(&22), Some(&unit));

        // Reopening reloads them bit-for-bit from disk.
        drop(ledger);
        let reopened = Ledger::open(&path).unwrap();
        let (runs, units) = reopened.checkpoints();
        assert_eq!(runs.get(&11), Some(&run));
        assert_eq!(units.get(&22), Some(&unit));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reads_are_lenient_to_torn_and_garbage_lines() {
        let path = tmp_path("lenient");
        {
            let ledger = Ledger::open(&path).unwrap();
            ledger
                .append(&LedgerEvent::SweepStarted {
                    family: "toy".into(),
                    fingerprint: 1,
                    seed: 2,
                    restarts: 3,
                    units: 4,
                    pending_runs: 5,
                })
                .unwrap();
        }
        // Simulate a kill mid-write: a torn line, then garbage.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"RunCompleted\":{\"record\":{\"key\":1,\"un");
        std::fs::write(&path, &text).unwrap();
        let events = Ledger::read(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], LedgerEvent::SweepStarted { .. }));

        // Reopening heals the torn tail: the next append starts on a
        // fresh line and parses on its own.
        let reopened = Ledger::open(&path).unwrap();
        reopened
            .append(&LedgerEvent::SweepCompleted {
                family: "toy".into(),
                digest: "d".into(),
                chosen: "v".into(),
            })
            .unwrap();
        drop(reopened);
        let events = Ledger::read(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], LedgerEvent::SweepCompleted { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let events = Ledger::read(tmp_path("missing")).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn opening_a_directory_as_a_ledger_reports_the_path() {
        // Regression: `lodsel --ledger some/dir` used to surface a bare
        // OS error with no hint of which path was at fault.
        let dir = std::env::temp_dir().join(format!("lodsel-ledger-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = match Ledger::open(&dir) {
            Err(e) => e,
            Ok(_) => panic!("opening a directory as a ledger must fail"),
        };
        let msg = err.to_string();
        assert!(msg.contains("cannot open ledger"), "{msg}");
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn failure_history_counts_attempts_and_keeps_the_latest_reason() {
        let path = tmp_path("failures");
        let ledger = Ledger::open(&path).unwrap();
        for (attempt, reason) in [(1, "first crash"), (2, "second crash")] {
            ledger
                .append(&LedgerEvent::RunFailed {
                    key: 77,
                    unit: "v1/app".into(),
                    restart: 0,
                    seed: 42,
                    attempt,
                    stage: "calibrate".into(),
                    reason: reason.into(),
                })
                .unwrap();
        }
        let history = ledger.failure_history();
        let h = history.get(&77).unwrap();
        assert_eq!(h.attempts, 2);
        assert_eq!(h.stage, "calibrate");
        assert_eq!(h.last_reason, "second crash");

        // The history replays identically from disk.
        drop(ledger);
        let reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.failure_history().get(&77), Some(h));
        let _ = std::fs::remove_file(&path);
    }
}
