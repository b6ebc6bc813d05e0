//! The sweep orchestrator: plan the full (unit × restart) grid, divide the
//! budget fairly, replay ledger checkpoints, fan the remaining runs onto
//! the thread pool, and reduce everything to per-version outcomes
//! plus the Pareto recommendation.
//!
//! Determinism contract: with [`simcal::prelude::Budget::Evaluations`]
//! budgets, a sweep's deterministic outcome — everything covered by
//! [`SweepOutcome::digest`] — is identical across thread counts, across
//! fresh/interrupted/resumed executions, and across machines. Wall-clock
//! measurements are carried alongside for observability but never feed
//! the digest or the recommendation.
//!
//! Failure model: a simulator version that panics or yields only
//! non-finite values must not take the whole sweep down. Every
//! `family.calibrate_at` / `family.evaluate` call is the same
//! checkpointed step under [`simcal::fault::guard`]; a crash becomes a
//! [`LedgerEvent::RunFailed`] event and a [`RunFailure`] row in the
//! outcome, the affected version drops out of the recommendation, and a
//! resume retries the failed work up to
//! [`SweepConfig::max_fault_retries`] additional times before reporting
//! it as permanently failed. Fault-free sweeps digest bit-for-bit as
//! they always have; failures extend the digest only when present.

use crate::family::{SweepUnit, VersionFamily};
use crate::ledger::{
    run_key, rung_key, sh_run_key, unit_key, FailureHistory, Ledger, LedgerEvent, RunRecord,
    UnitRecord,
};
use crate::multistart::{pick_best, restart_seed};
use crate::pareto::{pareto_front, try_recommend, Recommendation};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use simcal::prelude::{Budget, CalibrationResult, Fidelity};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How the sweep's evaluation budget is distributed over calibration runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum BudgetPolicy {
    /// Every run gets the same fixed budget (what the paper's per-figure
    /// experiments do).
    PerRun {
        /// The per-run budget.
        budget: Budget,
    },
    /// A shared evaluation budget divided fairly across the full
    /// (unit × restart) plan: every run gets `total / runs`, and the
    /// remainder goes to the earliest runs in plan order. The division is
    /// computed over the *full* plan, so an interrupted sweep, its resume
    /// and every shard assign identical budgets to every run.
    TotalEvaluations {
        /// Total loss evaluations available to the whole sweep.
        total: usize,
    },
    /// Hyperband-style successive halving over the full (unit × restart)
    /// plan: every run starts on a cheap rung — a small per-run budget
    /// over a small, seed-derived scenario subset
    /// ([`simcal::fidelity`]) — survivors are ranked by rung loss and
    /// the top `1/eta` promoted, until the final rung runs the full
    /// scenario set. The rung schedule ([`ShSchedule::plan`]) is
    /// computed over the *full* plan, so interruptions and shard
    /// boundaries never change budgets, subsets, or checkpoint keys.
    SuccessiveHalving {
        /// Total loss evaluations across all rungs (must be at least
        /// `rungs × runs`, else the sweep fails with
        /// [`SweepError::BudgetTooSmall`]).
        total: usize,
        /// Halving factor (clamped to at least 2): survivors per rung
        /// shrink by `eta`, scenario subsets grow by `eta`.
        eta: usize,
        /// Lower bound on a rung's scenario-subset size (clamped to each
        /// unit's dataset size).
        min_scenarios: usize,
    },
}

/// Configuration of one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Budget distribution.
    pub budget: BudgetPolicy,
    /// Restarts per unit (clamped to at least one).
    pub restarts: usize,
    /// Master seed; restart seeds derive from it exactly as the
    /// standalone experiment binaries always have.
    pub seed: u64,
    /// Relative accuracy tolerance of the recommendation (finite and
    /// non-negative, else [`SweepError::InvalidEpsilon`]).
    pub epsilon: f64,
    /// How many times a resume may retry a run (or unit evaluation) that
    /// failed in an earlier execution. Within one execution each pending
    /// item is attempted once; across executions a keyed item is
    /// attempted at most `1 + max_fault_retries` times, after which it is
    /// reported as permanently failed straight from the ledger without
    /// re-running. Without a ledger there is nothing to count attempts
    /// against, so the value is inert.
    pub max_fault_retries: usize,
    /// Persistent loss-cache directory ([`simcal::cache`]). When set, it
    /// is installed process-globally for the duration of the sweep (the
    /// previous state is restored afterwards), so every calibration whose
    /// objective carries a cache fingerprint replays identical
    /// evaluations from disk across sweep executions. `None` leaves
    /// whatever is already active (an installed directory or
    /// `CALIB_CACHE`) untouched.
    pub cache: Option<PathBuf>,
}

impl SweepConfig {
    /// A per-run-budget sweep configuration with the default ε of 10%
    /// and two fault retries.
    pub fn per_run(budget: Budget, restarts: usize, seed: u64) -> Self {
        Self {
            budget: BudgetPolicy::PerRun { budget },
            restarts,
            seed,
            epsilon: 0.1,
            max_fault_retries: 2,
            cache: None,
        }
    }
}

/// Identity of a sweep's run plan: family name and dataset fingerprint,
/// master seed, restarts, budget policy, and unit count. Two sweep
/// configurations with equal fingerprints generate bit-for-bit identical
/// (version × restart) run plans — identical checkpoint keys, budgets,
/// and seeds — so their ledger shards can be merged
/// ([`crate::shard::merge_shards`]). Settings that do not change any run
/// (ε, retry allowance, cache directory) are excluded.
pub fn sweep_fingerprint(family: &dyn VersionFamily, config: &SweepConfig) -> u64 {
    let policy_json = serde_json::to_string(&config.budget).expect("policy serializes");
    crate::ledger::fnv1a(
        format!(
            "sweep|family={}|fp={:016x}|seed={}|restarts={}|policy={}|units={}",
            family.name(),
            family.fingerprint(),
            config.seed,
            config.restarts.max(1),
            policy_json,
            family.units().len()
        )
        .as_bytes(),
    )
}

/// Installs a sweep's persistent-cache directory for its duration and
/// restores the previous process-global state on drop (panic-safe).
pub(crate) struct CacheScope {
    previous: Option<std::sync::Arc<PathBuf>>,
    active: bool,
}

impl CacheScope {
    pub(crate) fn activate(dir: Option<&std::path::Path>) -> Self {
        match dir {
            Some(d) => {
                let previous = simcal::cache::installed();
                simcal::cache::install(d);
                Self {
                    previous,
                    active: true,
                }
            }
            None => Self {
                previous: None,
                active: false,
            },
        }
    }
}

impl Drop for CacheScope {
    fn drop(&mut self) {
        if self.active {
            match self.previous.take() {
                Some(p) => simcal::cache::install(p.as_ref().clone()),
                None => simcal::cache::uninstall(),
            }
        }
    }
}

/// Outcome of one unit: its winning calibration and held-out evaluation.
#[derive(Clone, Debug)]
pub struct UnitOutcome {
    /// Unit label.
    pub label: String,
    /// Index of the unit's version.
    pub version: usize,
    /// Which restart won (lowest training loss, first-wins on ties).
    pub best_restart: usize,
    /// The winning calibration result.
    pub best: CalibrationResult,
    /// Held-out test errors.
    pub samples: Vec<f64>,
    /// Deterministic simulation work of the held-out evaluation.
    pub work_units: u64,
    /// Measured evaluation wall-clock seconds (observability only).
    pub wall_secs: f64,
    /// Whether the evaluation was served from a ledger checkpoint.
    pub cached: bool,
}

/// Aggregated outcome of one version (all of its units).
#[derive(Clone, Debug)]
pub struct VersionOutcome {
    /// Version label.
    pub label: String,
    /// Dimensionality of the version's parameter space.
    pub dim: usize,
    /// Per-unit outcomes, in unit order.
    pub units: Vec<UnitOutcome>,
    /// Concatenated unit samples (the Figure-2/5-style summary inputs).
    pub samples: Vec<f64>,
    /// Mean of `samples`: the version's held-out test error.
    pub test_error: f64,
    /// Total deterministic simulation work across units.
    pub work_units: u64,
    /// Total measured wall seconds across units (calibration excluded;
    /// observability only).
    pub wall_secs: f64,
}

/// One failed (version, unit, restart) item of a degraded sweep.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RunFailure {
    /// Version label the failed unit belongs to.
    pub version: String,
    /// Unit label.
    pub unit: String,
    /// Restart index of the failed calibration run; for evaluate-stage
    /// failures, the winning restart whose calibration was evaluated.
    pub restart: usize,
    /// Which stage failed: `"calibrate"` or `"evaluate"`.
    pub stage: String,
    /// Attempts made so far across executions (1-based).
    pub attempt: usize,
    /// Whether a resume against the same ledger will retry this item
    /// (false once attempts reach `1 + max_fault_retries`).
    pub retriable: bool,
    /// Readable failure reason (panic message or a summary).
    pub reason: String,
}

/// What happened on one rung of a successive-halving sweep.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ShRungReport {
    /// Rung index (0 = cheapest).
    pub rung: usize,
    /// Runs that entered the rung.
    pub entrants: usize,
    /// Per-run evaluation budget on the rung.
    pub budget: usize,
    /// Scenario-subset denominator the rung evaluated at.
    pub scenario_denom: usize,
    /// Runs promoted to the next rung (entrants on the final rung).
    pub promoted: usize,
    /// Entrants whose rung calibration failed (never promoted).
    pub failed: usize,
}

/// Deterministic summary of a successive-halving execution, carried on
/// the outcome and folded into its digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ShReport {
    /// Halving factor.
    pub eta: usize,
    /// Configured total evaluation budget.
    pub total: usize,
    /// Scenario-subset floor.
    pub min_scenarios: usize,
    /// Evaluations the ladder assigns on a fault-free execution
    /// ([`ShSchedule::total_evaluations`]).
    pub planned_evaluations: usize,
    /// Per-rung outcomes, cheapest first.
    pub rungs: Vec<ShRungReport>,
}

/// Outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Family identifier.
    pub family: String,
    /// Completed versions, in family order. A version is omitted when
    /// every run of one of its units failed, or a unit's evaluation did.
    pub versions: Vec<VersionOutcome>,
    /// Runs and unit evaluations that failed (panicked or produced only
    /// non-finite values), in deterministic plan order. Empty for a
    /// healthy sweep.
    pub failures: Vec<RunFailure>,
    /// The recommendation; present only when at least one version has
    /// usable results.
    pub recommendation: Option<Recommendation>,
    /// Successive-halving summary; `None` for fixed-budget sweeps.
    pub sh: Option<ShReport>,
}

/// The digest's serialized shape: every deterministic field of the
/// outcome, and nothing wall-clock-dependent.
#[derive(Serialize)]
struct DigestUnit {
    label: String,
    best_restart: usize,
    loss: f64,
    calibration: Vec<f64>,
    evaluations: usize,
    samples: Vec<f64>,
    work_units: u64,
}

#[derive(Serialize)]
struct DigestDoc {
    family: String,
    complete: bool,
    versions: Vec<(String, Vec<DigestUnit>)>,
    recommendation: Option<Recommendation>,
}

impl SweepOutcome {
    /// Hex digest of the outcome's deterministic content. Fresh,
    /// interrupted-then-resumed, serial, and parallel executions of the
    /// same sweep all digest identically; wall-clock fields are excluded.
    pub fn digest(&self) -> String {
        let doc = DigestDoc {
            family: self.family.clone(),
            // Every sweep covers every unit; kept so recorded digests hold.
            complete: true,
            versions: self
                .versions
                .iter()
                .map(|v| {
                    (
                        v.label.clone(),
                        v.units
                            .iter()
                            .map(|u| DigestUnit {
                                label: u.label.clone(),
                                best_restart: u.best_restart,
                                loss: u.best.loss,
                                calibration: u.best.calibration.values.clone(),
                                evaluations: u.best.evaluations,
                                samples: u.samples.clone(),
                                work_units: u.work_units,
                            })
                            .collect(),
                    )
                })
                .collect(),
            recommendation: self.recommendation.clone(),
        };
        let json = serde_json::to_string(&doc).expect("digest serializes");
        let mut bytes = json.into_bytes();
        // Failures extend the digest input only when present, so the
        // digest of a fault-free sweep is bit-for-bit what it was before
        // failures existed (pinned by the golden tests), while degraded
        // sweeps with different failure sets digest differently.
        if !self.failures.is_empty() {
            let failures = serde_json::to_string(&self.failures).expect("digest serializes");
            bytes.extend_from_slice(failures.as_bytes());
        }
        // Same pattern for successive halving: the report extends the
        // digest input only when the policy ran, so every fixed-budget
        // digest stays bit-for-bit what the golden tests pinned.
        if let Some(sh) = &self.sh {
            let report = serde_json::to_string(sh).expect("digest serializes");
            bytes.extend_from_slice(report.as_bytes());
        }
        format!("{:016x}", crate::ledger::fnv1a(&bytes))
    }
}

/// A sweep configuration that cannot be planned. Surfaced as a typed
/// error (not a panic) so services embedding sweeps — calibd worker
/// threads in particular — can fail the one job instead of aborting.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// The budget cannot give every planned run (or, under successive
    /// halving, every rung entrant) at least one evaluation.
    BudgetTooSmall {
        /// The configured total budget.
        total: usize,
        /// Runs in the full (unit × restart) plan.
        runs: usize,
        /// Smallest total the policy accepts for this plan.
        needed: usize,
    },
    /// The recommendation's tolerance ε is negative or not finite.
    InvalidEpsilon {
        /// The configured ε.
        epsilon: f64,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::BudgetTooSmall {
                total,
                runs,
                needed,
            } => write!(
                f,
                "total budget of {total} evaluations cannot cover {runs} runs \
                 (at least {needed} needed)"
            ),
            SweepError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must be finite and non-negative, got {epsilon}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One rung of a successive-halving schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ShRung {
    /// Rung index (0 = cheapest).
    pub rung: usize,
    /// Runs that enter this rung (per the full plan; faults may thin the
    /// actual field).
    pub survivors: usize,
    /// Per-run evaluation budget on this rung.
    pub budget: usize,
    /// Scenario-subset denominator: entrants evaluate roughly `1/denom`
    /// of their unit's scenario set (1 on the final rung = full set).
    pub scenario_denom: usize,
}

/// The deterministic rung ladder of a successive-halving sweep.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ShSchedule {
    /// Halving factor (already clamped to at least 2).
    pub eta: usize,
    /// Configured total evaluation budget.
    pub total: usize,
    /// Scenario-subset floor.
    pub min_scenarios: usize,
    /// The rungs, cheapest first; the last always has `scenario_denom`
    /// 1 (full scenario set).
    pub rungs: Vec<ShRung>,
}

impl ShSchedule {
    /// Plan the ladder for `runs` runs: `floor(log_eta(runs)) + 1`
    /// rungs, rung `r` keeping `max(1, runs / eta^r)` survivors on a
    /// `1/eta^(R-1-r)` scenario subset, each rung splitting an equal
    /// share of `total` over its survivors (the remainder of either
    /// division is deterministically left unspent). Errs unless every
    /// rung can give each entrant at least one evaluation, i.e.
    /// `total >= rungs × runs`.
    pub fn plan(
        runs: usize,
        total: usize,
        eta: usize,
        min_scenarios: usize,
    ) -> Result<ShSchedule, SweepError> {
        assert!(runs > 0, "cannot schedule a sweep of zero runs");
        let eta = eta.max(2);
        let mut levels = 1usize;
        let mut p = eta;
        while p <= runs {
            levels += 1;
            p *= eta;
        }
        let needed = levels * runs;
        if total < needed {
            return Err(SweepError::BudgetTooSmall {
                total,
                runs,
                needed,
            });
        }
        let rungs = (0..levels)
            .map(|r| {
                let survivors = (runs / eta.pow(r as u32)).max(1);
                let share = total / levels + usize::from(r < total % levels);
                ShRung {
                    rung: r,
                    survivors,
                    budget: share / survivors,
                    scenario_denom: eta.pow((levels - 1 - r) as u32),
                }
            })
            .collect();
        Ok(ShSchedule {
            eta,
            total,
            min_scenarios,
            rungs,
        })
    }

    /// Evaluations the ladder actually assigns (≤ `total`; the planned
    /// spend of a fault-free execution, which is what calibd charges
    /// quota for).
    pub fn total_evaluations(&self) -> usize {
        self.rungs.iter().map(|r| r.survivors * r.budget).sum()
    }

    /// The fidelity entrants of rung `r` evaluate at.
    pub fn fidelity(&self, r: usize) -> Fidelity {
        Fidelity {
            rung: r,
            scenario_denom: self.rungs[r].scenario_denom,
            min_scenarios: self.min_scenarios,
        }
    }
}

/// Per-run budgets for a plan of `runs` runs under `policy`, and the rung
/// schedule when the policy is successive halving (its plans carry the
/// rung-0 budget as their nominal budget; each rung supplies its own).
///
/// Errs with [`SweepError::BudgetTooSmall`] when a budget cannot give
/// every run (every rung entrant) at least one evaluation.
fn run_budgets(
    policy: &BudgetPolicy,
    runs: usize,
) -> Result<(Vec<Budget>, Option<ShSchedule>), SweepError> {
    match *policy {
        BudgetPolicy::PerRun { budget } if budget.max_evaluations() == Some(0) => {
            Err(SweepError::BudgetTooSmall {
                total: 0,
                runs,
                needed: runs,
            })
        }
        BudgetPolicy::PerRun { budget } => Ok((vec![budget; runs], None)),
        BudgetPolicy::TotalEvaluations { total } => {
            if total < runs {
                return Err(SweepError::BudgetTooSmall {
                    total,
                    runs,
                    needed: runs,
                });
            }
            let base = total / runs;
            let extra = total % runs;
            let budgets = (0..runs)
                .map(|i| Budget::Evaluations(base + usize::from(i < extra)))
                .collect();
            Ok((budgets, None))
        }
        BudgetPolicy::SuccessiveHalving {
            total,
            eta,
            min_scenarios,
        } => {
            let schedule = ShSchedule::plan(runs, total, eta, min_scenarios)?;
            let nominal = Budget::Evaluations(schedule.rungs[0].budget);
            Ok((vec![nominal; runs], Some(schedule)))
        }
    }
}

pub(crate) struct RunPlan {
    pub(crate) unit_idx: usize,
    pub(crate) restart: usize,
    pub(crate) seed: u64,
    pub(crate) budget: Budget,
    pub(crate) key: u64,
}

/// The fully-expanded deterministic plan of a sweep: everything the run
/// phase needs, computed identically by `run_sweep` and by every shard of
/// a sharded execution ([`crate::shard`]).
pub(crate) struct PlannedSweep {
    pub(crate) name: String,
    pub(crate) fingerprint: u64,
    pub(crate) labels: Vec<String>,
    pub(crate) units: Vec<SweepUnit>,
    pub(crate) restarts: usize,
    pub(crate) policy_json: String,
    pub(crate) plans: Vec<RunPlan>,
    /// The rung schedule, for successive-halving sweeps only.
    pub(crate) schedule: Option<ShSchedule>,
    /// The ladder every run climbs: the schedule's rungs, or one
    /// full-fidelity rung for a fixed-budget sweep.
    pub(crate) ladder: Vec<Rung>,
}

/// Plan the FULL (unit × restart) grid — budgets and checkpoint keys must
/// not depend on where an interruption (or a shard boundary) lands.
/// Errs before anything runs on a budget too small for the plan or an ε
/// that is negative or not finite.
pub(crate) fn plan_sweep(
    family: &dyn VersionFamily,
    config: &SweepConfig,
) -> Result<PlannedSweep, SweepError> {
    if !(config.epsilon.is_finite() && config.epsilon >= 0.0) {
        return Err(SweepError::InvalidEpsilon {
            epsilon: config.epsilon,
        });
    }
    let labels = family.version_labels();
    let units = family.units();
    assert!(!units.is_empty(), "family has no units to sweep");
    let restarts = config.restarts.max(1);
    let name = family.name().to_string();
    let fingerprint = family.fingerprint();
    let policy_json = serde_json::to_string(&config.budget).expect("policy serializes");
    let (budgets, schedule) = run_budgets(&config.budget, units.len() * restarts)?;
    // A fixed-budget sweep is the one-rung ladder at full fidelity.
    let ladder = schedule.as_ref().map_or_else(
        || {
            vec![Rung {
                sh: None,
                fidelity: Fidelity::full(),
            }]
        },
        |s| {
            s.rungs
                .iter()
                .map(|rung| Rung {
                    sh: Some(rung.clone()),
                    fidelity: s.fidelity(rung.rung),
                })
                .collect()
        },
    );
    let plans: Vec<RunPlan> = units
        .iter()
        .enumerate()
        .flat_map(|(ui, unit)| {
            let budgets = &budgets;
            let name = &name;
            let policy_json = &policy_json;
            let sh = schedule.is_some();
            (0..restarts).map(move |r| {
                let seed = restart_seed(config.seed, r);
                let budget = budgets[ui * restarts + r];
                let key = if sh {
                    sh_run_key(name, fingerprint, &unit.label, r, seed, policy_json)
                } else {
                    run_key(name, fingerprint, &unit.label, r, seed, &budget)
                };
                RunPlan {
                    unit_idx: ui,
                    restart: r,
                    seed,
                    budget,
                    key,
                }
            })
        })
        .collect();
    Ok(PlannedSweep {
        name,
        fingerprint,
        labels,
        units,
        restarts,
        policy_json,
        plans,
        schedule,
        ladder,
    })
}

/// One rung of the budget ladder every sweep climbs. Successive halving
/// climbs its schedule's rungs; a fixed-budget sweep is the one-rung
/// ladder at full fidelity, on which each run keeps its planned budget
/// and checkpoint key.
pub(crate) struct Rung {
    /// The schedule's rung, or `None` on a fixed-budget sweep's one rung:
    /// its runs record [`LedgerEvent::RunCompleted`] under their plan
    /// keys, sit directly under the caller's span, and go unreported.
    sh: Option<ShRung>,
    fidelity: Fidelity,
}

impl Rung {
    /// What `plan` runs on this rung.
    fn run<'a>(&self, plan: &'a RunPlan) -> RunSpec<'a> {
        let (rung, key, budget) = match &self.sh {
            None => (None, plan.key, plan.budget),
            Some(sh) => {
                let budget = Budget::Evaluations(sh.budget);
                let key = rung_key(plan.key, sh.rung, &budget, sh.scenario_denom);
                (Some(sh.rung), key, budget)
            }
        };
        RunSpec {
            plan,
            rung,
            key,
            budget,
            fidelity: self.fidelity,
        }
    }
}

/// One calibration run as the executor sees it: one plan's execution on
/// one rung of the ladder ([`Rung::run`]).
struct RunSpec<'a> {
    plan: &'a RunPlan,
    /// `Some(r)`: rung `r` of a successive-halving run, recorded as
    /// [`LedgerEvent::RungCompleted`] under the plan's base key. `None`:
    /// a fixed-budget run, recorded as [`LedgerEvent::RunCompleted`].
    rung: Option<usize>,
    /// Checkpoint key ([`run_key`] or [`rung_key`]): keys the success
    /// record and the failure history.
    key: u64,
    budget: Budget,
    fidelity: Fidelity,
}

/// One checkpointed item of work — a calibration run on one rung, or a
/// unit's held-out evaluation — as its stage hands it to
/// [`RunExecutor::step`].
struct Step<'p, T> {
    /// Keys the success record and the failure history.
    key: u64,
    /// The run a failure is reported against (an evaluation's winner).
    plan: &'p RunPlan,
    /// `"calibrate"` or `"evaluate"`.
    stage: &'static str,
    /// The seed a [`LedgerEvent::RunFailed`] records.
    seed: u64,
    /// The item's record, if an earlier execution completed it.
    checkpoint: Option<T>,
}

/// The single place a sweep invokes a family's calibration or held-out
/// evaluation, so a shard's, a rung's or a unit's records are bit-for-bit
/// what any other execution would have written.
pub(crate) struct RunExecutor<'a> {
    family: &'a dyn VersionFamily,
    labels: &'a [String],
    units: &'a [SweepUnit],
    pub(crate) ledger: Option<&'a Ledger>,
    /// Run and rung checkpoints, by their record keys.
    runs: HashMap<u64, RunRecord>,
    unit_checkpoints: HashMap<u64, UnitRecord>,
    failure_history: HashMap<u64, FailureHistory>,
    max_attempts: usize,
    /// Steps whose work ran in this execution, not answered by the ledger.
    executed: AtomicUsize,
}

impl<'a> RunExecutor<'a> {
    /// Snapshot the ledger's checkpoints and failure history.
    pub(crate) fn new(
        family: &'a dyn VersionFamily,
        planned: &'a PlannedSweep,
        config: &SweepConfig,
        ledger: Option<&'a Ledger>,
    ) -> Self {
        let (runs, unit_checkpoints) = ledger.map(|l| l.checkpoints()).unwrap_or_default();
        Self {
            family,
            labels: &planned.labels,
            units: &planned.units,
            ledger,
            runs,
            unit_checkpoints,
            failure_history: ledger.map(|l| l.failure_history()).unwrap_or_default(),
            max_attempts: 1 + config.max_fault_retries,
            executed: AtomicUsize::new(0),
        }
    }

    /// Failed attempts recorded against `key` in earlier executions.
    fn attempts_of(&self, key: u64) -> usize {
        self.failure_history.get(&key).map_or(0, |h| h.attempts)
    }

    /// Steps whose work ran so far in this execution.
    pub(crate) fn executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// The ledger checkpoint of `run`, if it completed in an earlier
    /// execution.
    fn checkpoint(&self, run: &RunSpec) -> Option<&RunRecord> {
        self.runs.get(&run.key)
    }

    /// How many of `plans` [`RunExecutor::calibrate`] would calibrate on
    /// `rung`: no checkpoint, and recorded failures within the retry
    /// allowance.
    pub(crate) fn pending(&self, rung: &Rung, plans: &[&RunPlan]) -> usize {
        plans
            .iter()
            .map(|p| rung.run(p))
            .filter(|run| {
                self.checkpoint(run).is_none() && self.attempts_of(run.key) < self.max_attempts
            })
            .count()
    }

    /// The failure row of `plan`'s run.
    fn failure_row(
        &self,
        plan: &RunPlan,
        stage: &str,
        attempt: usize,
        reason: String,
    ) -> RunFailure {
        let unit = &self.units[plan.unit_idx];
        RunFailure {
            version: self.labels[unit.version].clone(),
            unit: unit.label.clone(),
            restart: plan.restart,
            stage: stage.into(),
            attempt,
            retriable: attempt < self.max_attempts,
            reason,
        }
    }

    /// The row of the most recent failure recorded against `key`, if any,
    /// reported against `plan`.
    fn recorded_failure(&self, key: u64, plan: &RunPlan) -> Option<RunFailure> {
        let h = self.failure_history.get(&key)?;
        let mut row = self.failure_row(plan, &h.stage, h.attempts, h.last_reason.clone());
        row.retriable = false;
        Some(row)
    }

    /// The one checkpointed step both stages take: serve the checkpoint;
    /// else, once retries are exhausted, report the failure history; else
    /// run `work` under the fault guard and append what `record` makes of
    /// its result, or — when it panicked or returned `Err` (a non-finite
    /// result) — a [`LedgerEvent::RunFailed`] and the failure row.
    fn step<T>(
        &self,
        step: Step<T>,
        work: impl FnOnce() -> Result<T, String>,
        record: impl FnOnce(&T) -> Option<LedgerEvent>,
    ) -> Result<T, RunFailure> {
        if let Some(done) = step.checkpoint {
            return Ok(done);
        }
        // Across executions a keyed item is attempted at most
        // `max_attempts` times; after that it is reported from the
        // ledger's history, never re-run.
        let prior = self.attempts_of(step.key);
        if prior >= self.max_attempts {
            return Err(self
                .recorded_failure(step.key, step.plan)
                .expect("exhausted retries imply a failure history"));
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        // The guard isolates a panicking simulator version: its work
        // becomes a RunFailed event and the sweep degrades instead of
        // unwinding. (Individual evaluation panics are already
        // quarantined inside simcal; what reaches here is a version whose
        // calibration found no usable incumbent at all, or a family whose
        // calibrate or evaluate itself crashed.)
        match simcal::fault::guard(work).flatten() {
            Ok(done) => {
                if let Some(event) = record(&done) {
                    self.append(event);
                }
                Ok(done)
            }
            Err(reason) => {
                let attempt = prior + 1;
                self.append(LedgerEvent::RunFailed {
                    key: step.key,
                    unit: self.units[step.plan.unit_idx].label.clone(),
                    restart: step.plan.restart,
                    seed: step.seed,
                    attempt,
                    stage: step.stage.into(),
                    reason: reason.clone(),
                });
                Err(self.failure_row(step.plan, step.stage, attempt, reason))
            }
        }
    }

    /// Calibrate `run` as one [`RunExecutor::step`]. A calibration that
    /// executes does so inside a `run` span under `parent` and
    /// checkpoints as a [`LedgerEvent::RunCompleted`], or on a
    /// successive-halving rung as a [`LedgerEvent::RungCompleted`].
    fn calibrate(
        &self,
        run: &RunSpec,
        parent: Option<obs::SpanId>,
    ) -> Result<CalibrationResult, RunFailure> {
        let plan = run.plan;
        let unit = &self.units[plan.unit_idx];
        let step = Step {
            key: run.key,
            plan,
            stage: "calibrate",
            seed: plan.seed,
            checkpoint: self.checkpoint(run).map(|record| record.result.clone()),
        };
        let work = || {
            let attrs = if obs::enabled() {
                vec![
                    ("unit", unit.label.clone()),
                    ("restart", plan.restart.to_string()),
                ]
            } else {
                Vec::new()
            };
            let _span = obs::SpanGuard::enter_under("run", parent, attrs);
            let result = self
                .family
                .calibrate_at(unit, run.budget, plan.seed, &run.fidelity);
            match result.loss {
                loss if loss.is_finite() => Ok(result),
                loss => Err(format!("calibration returned non-finite loss {loss}")),
            }
        };
        let record = |result: &CalibrationResult| {
            let record = RunRecord {
                key: run.key,
                unit: unit.label.clone(),
                restart: plan.restart,
                seed: plan.seed,
                result: result.clone(),
            };
            Some(match run.rung {
                None => LedgerEvent::RunCompleted { record },
                Some(rung) => LedgerEvent::RungCompleted {
                    base: plan.key,
                    rung,
                    record,
                },
            })
        };
        self.step(step, work, record)
    }

    /// Append `event` to the ledger, if there is one.
    pub(crate) fn append(&self, event: LedgerEvent) {
        if let Some(l) = self.ledger {
            log_io(l.append(&event));
        }
    }
}

/// What climbing the ladder made of a set of runs.
pub(crate) struct Climb {
    /// Per run, in plan order: the highest rung it reached and its result
    /// there (eliminated runs keep their last rung's result, so every
    /// version still gets outcomes for the Pareto reduction), or the
    /// failure of a run that produced no result on any rung.
    pub(crate) runs: Vec<Result<(usize, CalibrationResult), RunFailure>>,
    /// What happened on each successive-halving rung (none on a
    /// fixed-budget sweep's one rung).
    pub(crate) rungs: Vec<ShRungReport>,
}

/// Climb `ladder` with `plans`: the one loop that runs calibrations, for
/// every budget policy, whole sweeps and shards alike.
///
/// Per rung: serve each entrant's calibration from its ledger checkpoint
/// or run it fresh, then promote. The last rung decides nothing, so the
/// one rung of a fixed-budget sweep only runs. Below it, if the ledger
/// already holds a decision for every entrant the recorded decisions are
/// *replayed*; otherwise entrants are ranked by rung loss (ascending
/// `total_cmp`, ties broken by plan order) and the top `survivors(r+1)`
/// promoted, with every decision appended in plan order. A run whose
/// rung calibration failed is never promoted.
pub(crate) fn climb(
    exec: &RunExecutor,
    ladder: &[Rung],
    plans: &[&RunPlan],
    parent: Option<obs::SpanId>,
) -> Climb {
    let decisions = exec.ledger.map(|l| l.rung_decisions()).unwrap_or_default();

    let mut highest: Vec<Option<(usize, CalibrationResult)>> = vec![None; plans.len()];
    let mut last_failure: Vec<Option<RunFailure>> = vec![None; plans.len()];
    let mut active: Vec<usize> = (0..plans.len()).collect();
    let mut rung_reports: Vec<ShRungReport> = Vec::new();

    for (r, rung) in ladder.iter().enumerate() {
        let entering = active.clone();
        let next = ladder.get(r + 1).and_then(|next| next.sh.as_ref());
        // A successive-halving rung opens its own span; a fixed-budget
        // sweep's runs sit directly under the caller's.
        let rung_span = rung
            .sh
            .as_ref()
            .map(|_| obs::span!("rung", rung = r, entrants = entering.len()));
        let parent = rung_span.as_ref().map_or(parent, obs::SpanGuard::id);
        // A rung's decision is sealed once the ledger covers every
        // entrant; replay then substitutes for re-ranking.
        let sealed = next.is_some()
            && entering
                .iter()
                .all(|&i| decisions.contains_key(&(plans[i].key, r)));

        // A run the sealed decision eliminated without a rung record — its
        // rung calibration failed in the recorded execution — is not
        // executed: re-running could not change the decision, so the
        // replay reports its recorded failure, if any.
        let outcomes: Vec<Result<CalibrationResult, Option<RunFailure>>> = entering
            .par_iter()
            .map(|&i| {
                let run = rung.run(plans[i]);
                let eliminated = sealed && decisions.get(&(run.plan.key, r)) == Some(&false);
                if eliminated && exec.checkpoint(&run).is_none() {
                    return Err(exec.recorded_failure(run.key, run.plan));
                }
                exec.calibrate(&run, parent).map_err(Some)
            })
            .collect();

        let mut succeeded: Vec<usize> = Vec::new();
        for (&i, outcome) in entering.iter().zip(outcomes) {
            match outcome {
                Ok(result) => {
                    highest[i] = Some((r, result));
                    succeeded.push(i);
                }
                Err(failure) => last_failure[i] = failure.or(last_failure[i].take()),
            }
        }

        let promoted: Vec<usize> = match next {
            None => entering.clone(),
            Some(_) if sealed => entering
                .iter()
                .copied()
                .filter(|&i| decisions.get(&(plans[i].key, r)) == Some(&true))
                .collect(),
            Some(next) => {
                // Stable sort by rung loss: ties keep plan order, and
                // only successful entrants are rankable at all.
                let loss = |i: usize| highest[i].as_ref().map_or(f64::NAN, |(_, res)| res.loss);
                let mut chosen = succeeded.clone();
                chosen.sort_by(|&a, &b| loss(a).total_cmp(&loss(b)));
                chosen.truncate(next.survivors);
                chosen.sort_unstable();
                for &i in &entering {
                    let key = plans[i].key;
                    exec.append(if chosen.contains(&i) {
                        LedgerEvent::RunPromoted { key, rung: r }
                    } else {
                        LedgerEvent::RunEliminated { key, rung: r }
                    });
                }
                chosen
            }
        };

        if let Some(sh) = &rung.sh {
            rung_reports.push(ShRungReport {
                rung: r,
                entrants: entering.len(),
                budget: sh.budget,
                scenario_denom: sh.scenario_denom,
                promoted: promoted.len(),
                failed: entering.len() - succeeded.len(),
            });
        }
        active = promoted;
    }

    let runs = plans
        .iter()
        .zip(highest.into_iter().zip(last_failure))
        .map(|(p, (reached, last_failure))| {
            reached.ok_or_else(|| {
                last_failure.unwrap_or_else(|| {
                    exec.failure_row(
                        p,
                        "calibrate",
                        exec.max_attempts,
                        "rung execution skipped after recorded elimination".into(),
                    )
                })
            })
        })
        .collect();
    Climb {
        runs,
        rungs: rung_reports,
    }
}

/// Execute (or resume) a sweep of `family` under `config`.
///
/// Infallible wrapper over [`try_run_sweep`] for callers that treat an
/// unplannable configuration as a programming error.
///
/// # Panics
/// Panics with the [`SweepError`] message when the configuration cannot
/// be planned (e.g. a total budget smaller than the run plan).
pub fn run_sweep(
    family: &dyn VersionFamily,
    config: &SweepConfig,
    ledger: Option<&Ledger>,
) -> SweepOutcome {
    match try_run_sweep(family, config, ledger) {
        Ok(outcome) => outcome,
        Err(e) => panic!("{e}"),
    }
}

/// Execute (or resume) a sweep of `family` under `config`.
///
/// With a ledger, completed runs and unit evaluations found in it are
/// served as checkpoints — no budget is re-consumed — and newly completed
/// work is appended as it finishes, so a kill at any point loses at most
/// the work in flight.
///
/// Errs — without running anything — when the configuration cannot be
/// planned ([`SweepError::BudgetTooSmall`]); services embedding sweeps
/// surface this as a failed job rather than a crashed worker.
pub fn try_run_sweep(
    family: &dyn VersionFamily,
    config: &SweepConfig,
    ledger: Option<&Ledger>,
) -> Result<SweepOutcome, SweepError> {
    let _cache_scope = CacheScope::activate(config.cache.as_deref());

    // Root span plus one sequential child span per phase, all on the
    // calling thread, so a trace report's per-phase totals add up to
    // the sweep's wall time. Per-run/per-unit spans opened on pool
    // workers attach to the phase spans via explicit parenting.
    let _sweep_span = obs::span!(
        "sweep",
        family = family.name().to_string(),
        units = family.units().len(),
        restarts = config.restarts.max(1)
    );
    let plan_span = obs::span!("plan");

    let planned = plan_sweep(family, config)?;
    let PlannedSweep {
        name,
        fingerprint,
        labels,
        units,
        restarts,
        policy_json,
        plans,
        schedule,
        ladder,
    } = &planned;
    let (fingerprint, restarts) = (*fingerprint, *restarts);

    let exec = RunExecutor::new(family, &planned, config, ledger);

    // Phase 1: calibration runs climb the ladder, each rung fanned onto
    // the pool one item per run. A run's evaluator batches and BO
    // acquisition blocks nest inside it through the pool's
    // help-while-waiting scheduling. A run is pending unless its first
    // rung has a checkpoint or its recorded failed attempts already
    // exhausted the retry allowance (later rungs depend on decisions, so a
    // count on the first rung is the honest summary).
    let plans: Vec<&RunPlan> = plans.iter().collect();
    let pending_count = exec.pending(&ladder[0], &plans);
    exec.append(LedgerEvent::SweepStarted {
        family: name.clone(),
        fingerprint,
        seed: config.seed,
        restarts,
        units: units.len(),
        pending_runs: pending_count,
    });
    drop(plan_span);
    let calibrate_span = obs::span!("calibrate", pending = pending_count);
    let climbed = climb(&exec, ladder, &plans, calibrate_span.id());
    let sh_report = schedule.as_ref().map(|s| ShReport {
        eta: s.eta,
        total: s.total,
        min_scenarios: s.min_scenarios,
        planned_evaluations: s.total_evaluations(),
        rungs: climbed.rungs,
    });
    // Per run, in plan order: the rung its result comes from with the
    // result, or its failure row (reported in plan order, regardless of
    // which pool worker observed it).
    let runs = climbed.runs;
    let mut failures: Vec<RunFailure> = runs
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    drop(calibrate_span);

    // Phase 2: per-unit winner selection + held-out evaluation, also in
    // parallel (each evaluation simulates the full test set once).
    let eval_inputs: Vec<(usize, &SweepUnit)> = units.iter().enumerate().collect();
    let evaluate_span = obs::span!("evaluate", units = eval_inputs.len());
    let evaluate_id = evaluate_span.id();
    // `None`: every calibration run of the unit failed; those failures
    // are already reported individually, so the unit adds nothing.
    let unit_results: Vec<Option<Result<UnitOutcome, RunFailure>>> = eval_inputs
        .par_iter()
        .map(|&(ui, unit)| {
            let attrs = if obs::enabled() {
                vec![("unit", unit.label.clone())]
            } else {
                Vec::new()
            };
            let _unit_span = obs::SpanGuard::enter_under("unit", evaluate_id, attrs);
            // Winner selection over the restarts that survived phase 1,
            // keeping each survivor's original restart index. Under
            // successive halving only restarts that reached the unit's
            // highest rung compete — a loss computed on a small scenario
            // subset is not comparable to a later rung's fuller loss.
            let survived: Vec<(usize, &(usize, CalibrationResult))> = (0..restarts)
                .filter_map(|r| Some((r, runs[ui * restarts + r].as_ref().ok()?)))
                .collect();
            let top_rung = survived.iter().map(|(_, (g, _))| *g).max()?;
            let (restart_of, candidates): (Vec<usize>, Vec<CalibrationResult>) = survived
                .iter()
                .filter(|(_, (g, _))| *g == top_rung)
                .map(|(r, (_, result))| (*r, result.clone()))
                .unzip();
            let winner = pick_best(&candidates);
            let best_restart = restart_of[winner];
            let best = candidates[winner].clone();
            let degraded = survived.len() < restarts;

            let key = unit_key(
                name,
                fingerprint,
                &unit.label,
                restarts,
                config.seed,
                policy_json,
            );
            // Evaluate-stage failures are reported against the winning
            // run, with the sweep's master seed.
            let step = Step {
                key,
                plan: plans[ui * restarts + best_restart],
                stage: "evaluate",
                seed: config.seed,
                checkpoint: exec.unit_checkpoints.get(&key).cloned(),
            };
            let work = || {
                let t0 = Instant::now();
                let eval = family.evaluate(unit, &best.calibration);
                if !eval.samples.iter().all(|s| s.is_finite()) {
                    return Err("held-out evaluation produced non-finite samples".to_string());
                }
                Ok(UnitRecord {
                    key,
                    unit: unit.label.clone(),
                    best_restart,
                    samples: eval.samples,
                    work_units: eval.work_units,
                    wall_secs: t0.elapsed().as_secs_f64(),
                })
            };
            // A degraded unit (some restarts failed) is not checkpointed:
            // once a resume successfully retries the failed runs, the
            // winner may change, and a stale checkpoint would pin the old
            // evaluation forever.
            let record = |record: &UnitRecord| {
                (!degraded).then(|| LedgerEvent::UnitCompleted {
                    record: record.clone(),
                })
            };
            Some(exec.step(step, work, record).map(|record| UnitOutcome {
                label: unit.label.clone(),
                version: unit.version,
                best_restart: record.best_restart,
                best,
                samples: record.samples,
                work_units: record.work_units,
                wall_secs: record.wall_secs,
                cached: exec.unit_checkpoints.contains_key(&key),
            }))
        })
        .collect();
    let mut unit_outcomes: Vec<UnitOutcome> = Vec::new();
    for result in unit_results.into_iter().flatten() {
        match result {
            Ok(outcome) => unit_outcomes.push(outcome),
            Err(failure) => failures.push(failure),
        }
    }
    drop(evaluate_span);

    // Reduce to versions, keeping only those whose every unit has an
    // outcome.
    let _reduce_span = obs::span!("reduce");
    let mut versions = Vec::new();
    for (vi, label) in labels.iter().enumerate() {
        let mine: Vec<UnitOutcome> = unit_outcomes
            .iter()
            .filter(|u| u.version == vi)
            .cloned()
            .collect();
        let expected = units.iter().filter(|u| u.version == vi).count();
        if mine.is_empty() || mine.len() < expected {
            continue;
        }
        let samples: Vec<f64> = mine.iter().flat_map(|u| u.samples.clone()).collect();
        versions.push(VersionOutcome {
            label: label.clone(),
            dim: family.dim(vi),
            test_error: numeric::mean(&samples),
            samples,
            work_units: mine.iter().map(|u| u.work_units).sum(),
            wall_secs: mine.iter().map(|u| u.wall_secs).sum(),
            units: mine,
        });
    }

    // Recommend from the surviving versions; a sweep whose every version
    // failed has nobody left to recommend, and a slate whose every
    // surviving version carries a non-finite test error has nothing to
    // anchor ε-eligibility on — both degrade to a failure row instead of
    // a recommendation.
    let mut recommendation = None;
    if !versions.is_empty() {
        match try_recommend(
            &versions.iter().map(|v| v.label.clone()).collect::<Vec<_>>(),
            &versions.iter().map(|v| v.test_error).collect::<Vec<_>>(),
            &versions.iter().map(|v| v.work_units).collect::<Vec<_>>(),
            config.epsilon,
        ) {
            Ok(rec) => recommendation = Some(rec),
            Err(e) => failures.push(RunFailure {
                version: "(all)".into(),
                unit: "(recommendation)".into(),
                restart: 0,
                stage: "recommend".into(),
                attempt: 1,
                retriable: false,
                reason: e.to_string(),
            }),
        }
    }
    let outcome = SweepOutcome {
        family: name.clone(),
        versions,
        failures,
        recommendation,
        sh: sh_report,
    };
    if let (Some(l), Some(rec)) = (ledger, &outcome.recommendation) {
        log_io(l.append(&LedgerEvent::SweepCompleted {
            family: name.clone(),
            digest: outcome.digest(),
            chosen: rec.chosen.clone(),
        }));
    }
    Ok(outcome)
}

/// A ledger write failure must not abort a sweep mid-flight (the result is
/// still computed; only resumability degrades) — report it and carry on.
fn log_io(result: std::io::Result<()>) {
    if let Err(e) = result {
        obs::diag!("ledger append failed: {e}");
    }
}

/// Mark versions on the accuracy-versus-cost Pareto front of an outcome.
pub fn front_flags(versions: &[VersionOutcome]) -> Vec<bool> {
    pareto_front(
        &versions
            .iter()
            .map(|v| (v.test_error, v.work_units))
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal::prelude::Calibration;

    #[test]
    fn total_budget_divides_fairly_with_remainder_to_earliest() {
        let (b, schedule) = run_budgets(&BudgetPolicy::TotalEvaluations { total: 100 }, 8).unwrap();
        assert!(schedule.is_none());
        let evals: Vec<usize> = b
            .iter()
            .map(|b| match b {
                Budget::Evaluations(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(evals, vec![13, 13, 13, 13, 12, 12, 12, 12]);
        assert_eq!(evals.iter().sum::<usize>(), 100);
    }

    #[test]
    fn per_run_budget_is_replicated() {
        let (b, schedule) = run_budgets(
            &BudgetPolicy::PerRun {
                budget: Budget::Evaluations(7),
            },
            3,
        )
        .unwrap();
        assert_eq!(b, vec![Budget::Evaluations(7); 3]);
        assert!(schedule.is_none());
    }

    #[test]
    fn starving_a_run_is_a_typed_error_not_a_panic() {
        // Regression: this used to `assert!`, so a calibd job submitted
        // with a tiny quota aborted the worker thread that planned it.
        let err = run_budgets(&BudgetPolicy::TotalEvaluations { total: 3 }, 5).unwrap_err();
        assert_eq!(
            err,
            SweepError::BudgetTooSmall {
                total: 3,
                runs: 5,
                needed: 5
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("cannot cover"), "{msg}");
        assert!(msg.contains("3 evaluations"), "{msg}");
    }

    /// A family the planner must refuse before anything runs.
    struct Unrunnable;

    impl VersionFamily for Unrunnable {
        fn name(&self) -> &str {
            "unrunnable"
        }

        fn fingerprint(&self) -> u64 {
            0
        }

        fn version_labels(&self) -> Vec<String> {
            vec!["v0".into()]
        }

        fn dim(&self, _version: usize) -> usize {
            1
        }

        fn units(&self) -> Vec<SweepUnit> {
            (0..2)
                .map(|slot| SweepUnit {
                    version: 0,
                    slot,
                    label: format!("v0/{slot}"),
                })
                .collect()
        }

        fn calibrate(&self, _: &SweepUnit, _: Budget, _: u64) -> CalibrationResult {
            unreachable!("a refused sweep calibrates nothing")
        }

        fn evaluate(&self, _: &SweepUnit, _: &Calibration) -> crate::family::UnitEval {
            unreachable!("a refused sweep evaluates nothing")
        }
    }

    #[test]
    fn a_negative_or_non_finite_epsilon_is_refused_before_anything_runs() {
        let config = |epsilon| SweepConfig {
            epsilon,
            ..SweepConfig::per_run(Budget::Evaluations(4), 1, 7)
        };
        for epsilon in [-0.1, f64::NAN, f64::INFINITY] {
            let err = try_run_sweep(&Unrunnable, &config(epsilon), None).unwrap_err();
            assert!(
                matches!(err, SweepError::InvalidEpsilon { .. }),
                "{epsilon}: {err}"
            );
            assert!(err.to_string().contains("epsilon"), "{err}");
        }
        // Zero tolerance is meaningful: only the best version is eligible.
        assert!(plan_sweep(&Unrunnable, &config(0.0)).is_ok());
    }

    #[test]
    fn a_zero_per_run_budget_is_refused_before_anything_runs() {
        let config = SweepConfig::per_run(Budget::Evaluations(0), 2, 7);
        assert_eq!(
            try_run_sweep(&Unrunnable, &config, None).unwrap_err(),
            SweepError::BudgetTooSmall {
                total: 0,
                runs: 4,
                needed: 4
            }
        );
    }

    #[test]
    fn sh_schedule_halves_survivors_and_grows_subsets() {
        // 8 runs, eta 2 -> 4 rungs keeping 8, 4, 2, 1 survivors on
        // 1/8, 1/4, 1/2, full scenario subsets.
        let s = ShSchedule::plan(8, 48, 2, 1).unwrap();
        let survivors: Vec<usize> = s.rungs.iter().map(|r| r.survivors).collect();
        let denoms: Vec<usize> = s.rungs.iter().map(|r| r.scenario_denom).collect();
        let budgets: Vec<usize> = s.rungs.iter().map(|r| r.budget).collect();
        assert_eq!(survivors, vec![8, 4, 2, 1]);
        assert_eq!(denoms, vec![8, 4, 2, 1]);
        // Each rung splits an equal 12-evaluation share over its
        // survivors; later rungs give each survivor more.
        assert_eq!(budgets, vec![1, 3, 6, 12]);
        assert!(s.total_evaluations() <= 48);
        assert_eq!(s.total_evaluations(), 8 + 12 + 12 + 12);
        // The final rung is always full fidelity.
        assert!(s.fidelity(3).is_full(1000));
        assert!(!s.fidelity(0).is_full(1000));
    }

    #[test]
    fn sh_schedule_is_deterministic_and_rejects_tiny_budgets() {
        assert_eq!(
            ShSchedule::plan(6, 60, 3, 2).unwrap(),
            ShSchedule::plan(6, 60, 3, 2).unwrap()
        );
        // 5 runs, eta 2 -> 3 rungs; anything under 15 cannot give every
        // rung-0 entrant one evaluation from its share.
        let err = ShSchedule::plan(5, 14, 2, 1).unwrap_err();
        assert_eq!(
            err,
            SweepError::BudgetTooSmall {
                total: 14,
                runs: 5,
                needed: 15
            }
        );
        assert!(ShSchedule::plan(5, 15, 2, 1).is_ok());
        // A single run degenerates to one full-fidelity rung.
        let s = ShSchedule::plan(1, 9, 2, 1).unwrap();
        assert_eq!(s.rungs.len(), 1);
        assert_eq!(s.rungs[0].scenario_denom, 1);
        assert_eq!(s.rungs[0].budget, 9);
        // eta is clamped to at least 2 (eta 1 would never halve).
        assert_eq!(ShSchedule::plan(4, 30, 0, 1).unwrap().eta, 2);
    }

    #[test]
    fn sh_run_budgets_use_the_rung_zero_budget() {
        let (b, schedule) = run_budgets(
            &BudgetPolicy::SuccessiveHalving {
                total: 48,
                eta: 2,
                min_scenarios: 1,
            },
            8,
        )
        .unwrap();
        assert_eq!(b, vec![Budget::Evaluations(1); 8]);
        assert_eq!(schedule, Some(ShSchedule::plan(8, 48, 2, 1).unwrap()));
    }
}
