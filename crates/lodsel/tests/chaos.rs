//! Chaos tests: sweeps must survive failing simulator versions.
//!
//! The deterministic [`simcal::fault`] harness injects panics and NaN
//! losses at exact (seed, evaluation-index) coordinates, so every test
//! here is reproducible — including across thread counts (CI runs this
//! suite under both the default pool and `CALIB_THREADS=1`).
//!
//! The fault plan is process-global, so every test that installs one
//! serializes on [`FAULTS`].

mod common;

use common::{tmp_ledger, TOY_ERRORS, TOY_WORKS};
use lodsel::ledger::fnv1a;
use lodsel::prelude::*;
use proptest::prelude::*;
use simcal::fault;
use simcal::prelude::{
    Budget, Calibration, CalibrationResult, Calibrator, FaultKind, FnObjective, ParamKind,
    ParameterSpace,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

/// Serializes tests that install a global fault plan. A test that panics
/// while holding it poisons the lock; [`lock`] takes it anyway, so one
/// failure does not fail the rest of the suite.
static FAULTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|poison| poison.into_inner())
}

const EVALS: usize = 8;

fn config() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(EVALS), 2, 42)
}

/// The seed a [`ChaosFamily`] calibration run actually hands to its
/// evaluator: unique per (unit, restart), so a seeded fault spec can
/// target exactly one run of the sweep.
fn unit_run_seed(label: &str, restart: usize) -> u64 {
    restart_seed(42, restart) ^ fnv1a(label.as_bytes())
}

/// The toy grid, except each run's evaluator seed is derived per unit
/// (see [`unit_run_seed`]) so seeded fault injection is run-precise.
struct ChaosFamily;

impl VersionFamily for ChaosFamily {
    fn name(&self) -> &str {
        "chaos"
    }

    fn fingerprint(&self) -> u64 {
        0xc4a0_5c4a_05c4_a05c
    }

    fn version_labels(&self) -> Vec<String> {
        (0..4).map(|i| format!("v{i}")).collect()
    }

    fn dim(&self, _version: usize) -> usize {
        1
    }

    fn units(&self) -> Vec<SweepUnit> {
        (0..4)
            .map(|v| SweepUnit {
                version: v,
                slot: 0,
                label: format!("v{v}"),
            })
            .collect()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        let target = 0.2 * (unit.version as f64 + 1.0);
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, move |c: &Calibration| (c.values[0] - target).powi(2));
        // The restart index is recoverable from the plan seed because
        // restart_seed() only touches the high half of the word.
        let restart = ((seed ^ 42) >> 32) as usize;
        Calibrator::bo_gp(budget, unit_run_seed(&unit.label, restart)).calibrate(&obj)
    }

    fn evaluate(&self, unit: &SweepUnit, _calibration: &Calibration) -> UnitEval {
        UnitEval {
            samples: vec![TOY_ERRORS[unit.version]],
            work_units: TOY_WORKS[unit.version],
        }
    }
}

/// Completed run results keyed by (unit, restart), serialized with the
/// wall-clock fields zeroed — string equality is then bit-for-bit
/// equality of everything deterministic.
fn run_records(path: &Path) -> HashMap<(String, usize), String> {
    Ledger::read(path)
        .unwrap()
        .into_iter()
        .filter_map(|event| match event {
            LedgerEvent::RunCompleted { mut record } => {
                record.result.elapsed_secs = 0.0;
                for point in &mut record.result.trace {
                    point.elapsed_secs = 0.0;
                }
                Some((
                    (record.unit.clone(), record.restart),
                    serde_json::to_string(&record.result).unwrap(),
                ))
            }
            _ => None,
        })
        .collect()
}

fn run_failed_events(path: &Path) -> Vec<(String, usize, String)> {
    Ledger::read(path)
        .unwrap()
        .into_iter()
        .filter_map(|event| match event {
            LedgerEvent::RunFailed {
                unit,
                restart,
                stage,
                ..
            } => Some((unit, restart, stage)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A single injected evaluation panic is quarantined inside the
    /// targeted run: the sweep completes with no failed runs, the
    /// targeted run records the panic, and every other run is
    /// bit-for-bit equal to the fault-free sweep.
    #[test]
    fn one_eval_panic_perturbs_only_the_targeted_run(
        k in 0usize..EVALS,
        restart in 0usize..2,
        version in 0usize..4,
    ) {
        let _guard = lock();
        fault::uninstall();
        let label = format!("v{version}");

        let clean_path = tmp_ledger("chaos-clean");
        let clean = run_sweep(&ChaosFamily, &config(), Some(&Ledger::open(&clean_path).unwrap()));
        prop_assert!(clean.failures.is_empty());

        fault::install(fault::FaultPlan::new().with_seeded_fault(
            FaultKind::Panic,
            k,
            unit_run_seed(&label, restart),
        ));
        let faulty_path = tmp_ledger("chaos-faulty");
        let faulty = run_sweep(&ChaosFamily, &config(), Some(&Ledger::open(&faulty_path).unwrap()));
        fault::uninstall();

        prop_assert!(faulty.failures.is_empty(), "a quarantined eval must not fail the run");
        prop_assert!(faulty.recommendation.is_some());

        let clean_runs = run_records(&clean_path);
        let faulty_runs = run_records(&faulty_path);
        prop_assert_eq!(clean_runs.len(), 8);
        prop_assert_eq!(faulty_runs.len(), 8);
        for (key, json) in &clean_runs {
            if key == &(label.clone(), restart) {
                prop_assert!(
                    faulty_runs[key].contains("\"eval_panics\":1"),
                    "targeted run must record the quarantined panic"
                );
            } else {
                prop_assert_eq!(&faulty_runs[key], json, "untargeted run drifted: {:?}", key);
            }
        }
        std::fs::remove_file(&clean_path).ok();
        std::fs::remove_file(&faulty_path).ok();
    }
}

/// Panicking every evaluation of one run fails exactly that run: the
/// sweep completes in degraded mode, reports the (version, unit, restart)
/// triple, keeps every other run bit-for-bit intact, and still recommends
/// (every version retains a surviving restart). Running the same faulted
/// sweep twice digests identically — injected faults are deterministic.
#[test]
fn a_fully_failing_run_degrades_the_sweep_but_nothing_else() {
    let _guard = lock();
    fault::uninstall();
    let (label, restart) = ("v2".to_string(), 1usize);

    let clean_path = tmp_ledger("chaos-allfail-clean");
    run_sweep(
        &ChaosFamily,
        &config(),
        Some(&Ledger::open(&clean_path).unwrap()),
    );

    let seed = unit_run_seed(&label, restart);
    let plan = (0..EVALS).fold(fault::FaultPlan::new(), |p, k| {
        p.with_seeded_fault(FaultKind::Panic, k, seed)
    });
    fault::install(plan);
    let digests: Vec<String> = (0..2)
        .map(|i| {
            let path = tmp_ledger(&format!("chaos-allfail-{i}"));
            let outcome = run_sweep(&ChaosFamily, &config(), Some(&Ledger::open(&path).unwrap()));

            assert_eq!(outcome.failures.len(), 1);
            let f = &outcome.failures[0];
            assert_eq!((f.version.as_str(), f.unit.as_str()), ("v2", "v2"));
            assert_eq!(f.restart, restart);
            assert_eq!(f.stage, "calibrate");
            assert_eq!(f.attempt, 1);
            assert!(f.retriable);
            assert!(f.reason.contains("no finite loss"), "{}", f.reason);

            // Exactly one RunFailed event, and the other seven runs are
            // bit-for-bit what the fault-free sweep produced.
            assert_eq!(
                run_failed_events(&path),
                vec![(label.clone(), restart, "calibrate".to_string())]
            );
            let runs = run_records(&path);
            assert_eq!(runs.len(), 7);
            for (key, json) in &runs {
                assert_eq!(json, &run_records(&clean_path)[key]);
            }

            // v2 still has restart 0, so every version survives and the
            // recommendation stands.
            assert_eq!(outcome.versions.len(), 4);
            assert_eq!(outcome.recommendation.as_ref().unwrap().chosen, "v2");
            std::fs::remove_file(&path).ok();
            outcome.digest()
        })
        .collect();
    fault::uninstall();
    assert_eq!(
        digests[0], digests[1],
        "injected faults must be deterministic"
    );

    let clean = run_sweep(&ChaosFamily, &config(), None);
    assert_ne!(
        digests[0],
        clean.digest(),
        "a degraded outcome must not impersonate a healthy one"
    );
    std::fs::remove_file(&clean_path).ok();
}

/// Per-rung ledger geometry of a successive-halving sweep: which
/// `(base, rung)` pairs hold rung checkpoints, which were promoted, and
/// the unit labels that ever produced a rung record.
struct ShLedgerSets {
    completed: std::collections::HashSet<(u64, usize)>,
    promoted: std::collections::HashSet<(u64, usize)>,
    units: std::collections::HashSet<(String, usize)>,
}

fn sh_ledger_sets(path: &Path) -> ShLedgerSets {
    let mut sets = ShLedgerSets {
        completed: std::collections::HashSet::new(),
        promoted: std::collections::HashSet::new(),
        units: std::collections::HashSet::new(),
    };
    for event in Ledger::read(path).unwrap() {
        match event {
            LedgerEvent::RungCompleted { base, rung, record } => {
                sets.completed.insert((base, rung));
                sets.units.insert((record.unit, record.restart));
            }
            LedgerEvent::RunPromoted { key, rung } => {
                sets.promoted.insert((key, rung));
            }
            _ => {}
        }
    }
    sets
}

/// Injected panics under successive halving: a run whose every
/// evaluation panics fails its first rung, is eliminated there, and is
/// never promoted — every promotion in the ledger points at a run that
/// holds a rung checkpoint for that rung. The sweep still completes,
/// keeps all four versions (the target's sibling restart survives), and
/// digests deterministically.
#[test]
fn sh_eliminates_a_panicking_run_and_never_promotes_it() {
    let _guard = lock();
    fault::uninstall();
    let sh_config = SweepConfig {
        budget: BudgetPolicy::SuccessiveHalving {
            total: 48,
            eta: 2,
            min_scenarios: 1,
        },
        ..config()
    };
    let (label, restart) = ("v2".to_string(), 1usize);

    let clean_path = tmp_ledger("chaos-sh-clean");
    let clean = run_sweep(
        &ChaosFamily,
        &sh_config,
        Some(&Ledger::open(&clean_path).unwrap()),
    );
    assert!(clean.failures.is_empty());
    std::fs::remove_file(&clean_path).ok();

    // Panic every evaluation the targeted run could ever make (the
    // deepest rung budgets 12), so no rung of it can produce a loss.
    let seed = unit_run_seed(&label, restart);
    let plan = (0..12).fold(fault::FaultPlan::new(), |p, k| {
        p.with_seeded_fault(FaultKind::Panic, k, seed)
    });
    fault::install(plan);
    let digests: Vec<String> = (0..2)
        .map(|i| {
            let path = tmp_ledger(&format!("chaos-sh-{i}"));
            let outcome = run_sweep(
                &ChaosFamily,
                &sh_config,
                Some(&Ledger::open(&path).unwrap()),
            );

            assert_eq!(outcome.failures.len(), 1);
            let f = &outcome.failures[0];
            assert_eq!((f.version.as_str(), f.restart), ("v2", restart));
            assert_eq!(f.stage, "calibrate");

            let report = outcome.sh.as_ref().expect("SH sweeps carry a report");
            assert_eq!(report.rungs[0].entrants, 8);
            assert_eq!(report.rungs[0].failed, 1);
            assert!(report.rungs[1..].iter().all(|r| r.failed == 0));

            let ShLedgerSets {
                completed,
                promoted,
                units,
            } = sh_ledger_sets(&path);
            assert!(
                !units.contains(&(label.clone(), restart)),
                "a run that panics every evaluation must never checkpoint a rung"
            );
            assert!(
                promoted.iter().all(|p| completed.contains(p)),
                "every promotion must point at a run with that rung's checkpoint"
            );
            assert_eq!(
                completed.iter().filter(|&&(_, r)| r == 0).count(),
                7,
                "the other seven runs all complete rung 0"
            );

            // The sibling restart keeps v2 alive, so the toy geometry's
            // recommendation stands.
            assert_eq!(outcome.versions.len(), 4);
            assert_eq!(outcome.recommendation.as_ref().unwrap().chosen, "v2");
            std::fs::remove_file(&path).ok();
            outcome.digest()
        })
        .collect();
    fault::uninstall();
    assert_eq!(digests[0], digests[1], "faulted SH must be deterministic");
    assert_ne!(
        digests[0],
        clean.digest(),
        "a degraded SH outcome must not impersonate a healthy one"
    );
}

/// The acceptance scenario: one version always panics, another always
/// returns NaN. The sweep completes, records RunFailed events for both,
/// and recommends from the two survivors.
struct BrokenFamily;

impl VersionFamily for BrokenFamily {
    fn name(&self) -> &str {
        "broken"
    }

    fn fingerprint(&self) -> u64 {
        0xb20c_e4b2_0ce4_b20c
    }

    fn version_labels(&self) -> Vec<String> {
        (0..4).map(|i| format!("v{i}")).collect()
    }

    fn dim(&self, _version: usize) -> usize {
        1
    }

    fn units(&self) -> Vec<SweepUnit> {
        (0..4)
            .map(|v| SweepUnit {
                version: v,
                slot: 0,
                label: format!("v{v}"),
            })
            .collect()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        let version = unit.version;
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, move |c: &Calibration| match version {
            1 => panic!("version v1 always crashes"),
            3 => f64::NAN,
            _ => (c.values[0] - 0.5).powi(2),
        });
        Calibrator::bo_gp(budget, seed).calibrate(&obj)
    }

    fn evaluate(&self, unit: &SweepUnit, _calibration: &Calibration) -> UnitEval {
        UnitEval {
            samples: vec![TOY_ERRORS[unit.version]],
            work_units: TOY_WORKS[unit.version],
        }
    }
}

#[test]
fn sweep_survives_panicking_and_nan_versions_and_recommends_from_survivors() {
    let _guard = lock();
    fault::uninstall();
    let path = tmp_ledger("chaos-broken");
    let ledger = Ledger::open(&path).unwrap();
    let outcome = run_sweep(&BrokenFamily, &config(), Some(&ledger));
    drop(ledger);

    // v1 and v3: 2 restarts each, all failed at the calibrate stage.
    assert_eq!(outcome.failures.len(), 4);
    for f in &outcome.failures {
        assert!(f.version == "v1" || f.version == "v3", "{}", f.version);
        assert_eq!(f.stage, "calibrate");
        assert!(f.retriable);
        assert!(f.reason.contains("no finite loss"), "{}", f.reason);
    }
    let v1_reason = &outcome
        .failures
        .iter()
        .find(|f| f.version == "v1")
        .unwrap()
        .reason;
    let v3_reason = &outcome
        .failures
        .iter()
        .find(|f| f.version == "v3")
        .unwrap()
        .reason;
    assert!(v1_reason.contains("panicked"), "{v1_reason}");
    assert!(v3_reason.contains("non-finite"), "{v3_reason}");

    // Only the survivors reach the outcome and the recommendation.
    let labels: Vec<&str> = outcome.versions.iter().map(|v| v.label.as_str()).collect();
    assert_eq!(labels, vec!["v0", "v2"]);
    let rec = outcome
        .recommendation
        .expect("survivors must be recommended from");
    assert!(rec.chosen == "v0" || rec.chosen == "v2");

    assert_eq!(run_failed_events(&path).len(), 4);
    std::fs::remove_file(&path).ok();
}

/// A version whose held-out evaluation produces non-finite samples fails
/// at the evaluate stage and drops out of the recommendation.
struct NanEvalFamily;

impl VersionFamily for NanEvalFamily {
    fn name(&self) -> &str {
        "nan-eval"
    }

    fn fingerprint(&self) -> u64 {
        0x4a4e_4a4e_4a4e_4a4e
    }

    fn version_labels(&self) -> Vec<String> {
        (0..3).map(|i| format!("v{i}")).collect()
    }

    fn dim(&self, _version: usize) -> usize {
        1
    }

    fn units(&self) -> Vec<SweepUnit> {
        (0..3)
            .map(|v| SweepUnit {
                version: v,
                slot: 0,
                label: format!("v{v}"),
            })
            .collect()
    }

    fn calibrate(&self, _unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, |c: &Calibration| (c.values[0] - 0.5).powi(2));
        Calibrator::bo_gp(budget, seed).calibrate(&obj)
    }

    fn evaluate(&self, unit: &SweepUnit, _calibration: &Calibration) -> UnitEval {
        UnitEval {
            samples: if unit.version == 1 {
                vec![f64::NAN]
            } else {
                vec![TOY_ERRORS[unit.version]]
            },
            work_units: TOY_WORKS[unit.version],
        }
    }
}

#[test]
fn non_finite_evaluation_samples_fail_the_unit_at_the_evaluate_stage() {
    let _guard = lock();
    fault::uninstall();
    let path = tmp_ledger("chaos-naneval");
    let ledger = Ledger::open(&path).unwrap();
    let outcome = run_sweep(&NanEvalFamily, &config(), Some(&ledger));
    drop(ledger);

    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!(f.version, "v1");
    assert_eq!(f.stage, "evaluate");
    assert!(f.reason.contains("non-finite"), "{}", f.reason);
    let labels: Vec<&str> = outcome.versions.iter().map(|v| v.label.as_str()).collect();
    assert_eq!(labels, vec!["v0", "v2"]);
    assert!(outcome.recommendation.is_some());
    let events = run_failed_events(&path);
    assert_eq!(events.len(), 1);
    // The recorded restart is whichever restart won the multi-start.
    assert_eq!(events[0].0, "v1");
    assert_eq!(events[0].2, "evaluate");
    std::fs::remove_file(&path).ok();
}

/// Resume retries failed work a bounded number of times: with
/// `max_fault_retries = 1`, the second execution retries (attempt 2) and
/// the third reports the failure straight from the ledger without
/// running anything — no new RunFailed events, `retriable: false`. The
/// bad version fails at `stage`: every calibration panics, or its runs
/// calibrate fine and its held-out evaluation returns NaN.
struct OneBrokenFamily {
    stage: &'static str,
    calibrations: std::sync::atomic::AtomicUsize,
    evaluations: std::sync::atomic::AtomicUsize,
}

impl OneBrokenFamily {
    fn new(stage: &'static str) -> Self {
        Self {
            stage,
            calibrations: std::sync::atomic::AtomicUsize::new(0),
            evaluations: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Calibrate and evaluate calls since the last take.
    fn take_calls(&self) -> (usize, usize) {
        let take =
            |n: &std::sync::atomic::AtomicUsize| n.swap(0, std::sync::atomic::Ordering::SeqCst);
        (take(&self.calibrations), take(&self.evaluations))
    }
}

impl VersionFamily for OneBrokenFamily {
    fn name(&self) -> &str {
        "one-broken"
    }

    fn fingerprint(&self) -> u64 {
        0x1b0c_1b0c_1b0c_1b0c
    }

    fn version_labels(&self) -> Vec<String> {
        vec!["good".into(), "bad".into()]
    }

    fn dim(&self, _version: usize) -> usize {
        1
    }

    fn units(&self) -> Vec<SweepUnit> {
        (0..2)
            .map(|v| SweepUnit {
                version: v,
                slot: 0,
                label: if v == 0 { "good".into() } else { "bad".into() },
            })
            .collect()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        self.calibrations
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let broken = unit.version == 1 && self.stage == "calibrate";
        let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        let obj = FnObjective::new(space, move |c: &Calibration| {
            if broken {
                panic!("permanently broken version");
            }
            (c.values[0] - 0.5).powi(2)
        });
        Calibrator::bo_gp(budget, seed).calibrate(&obj)
    }

    fn evaluate(&self, unit: &SweepUnit, _calibration: &Calibration) -> UnitEval {
        self.evaluations
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let broken = unit.version == 1 && self.stage == "evaluate";
        UnitEval {
            samples: vec![if broken { f64::NAN } else { 0.25 }],
            work_units: 10,
        }
    }
}

#[test]
fn resume_retries_failed_runs_then_gives_up_after_the_bound() {
    let _guard = lock();
    fault::uninstall();
    let mut cfg = config();
    cfg.max_fault_retries = 1;
    // Per failing stage: the bad unit's failure rows per execution, then
    // the (calibrate, evaluate) calls each of the three executions makes.
    let cases = [
        // Both of the bad unit's runs fail; the good unit is evaluated
        // once and checkpointed.
        ("calibrate", 2, [(4, 1), (2, 0), (0, 0)]),
        // Every run succeeds and is checkpointed; only the evaluation of
        // the bad unit's winner fails, so only it re-runs.
        ("evaluate", 1, [(4, 2), (0, 1), (0, 0)]),
    ];
    for (stage, failing, calls) in cases {
        let path = tmp_ledger("chaos-retry");
        let family = OneBrokenFamily::new(stage);
        let execute = || {
            let ledger = Ledger::open(&path).unwrap();
            run_sweep(&family, &cfg, Some(&ledger))
        };

        // Execution 1: the good unit succeeds, the bad unit's work fails
        // (attempt 1, retriable).
        let first = execute();
        assert_eq!(family.take_calls(), calls[0], "{stage}");
        assert_eq!(first.failures.len(), failing);
        assert!(first
            .failures
            .iter()
            .all(|f| f.stage == stage && f.attempt == 1 && f.retriable));
        assert_eq!(run_failed_events(&path).len(), failing);

        // Execution 2 (resume): only the failed work re-runs — attempt 2,
        // the last allowed, so no longer retriable.
        let second = execute();
        assert_eq!(
            family.take_calls(),
            calls[1],
            "{stage}: good work must be served from checkpoints"
        );
        assert_eq!(second.failures.len(), failing);
        assert!(second
            .failures
            .iter()
            .all(|f| f.stage == stage && f.attempt == 2 && !f.retriable));
        assert_eq!(run_failed_events(&path).len(), 2 * failing);

        // Execution 3: retries exhausted — nothing re-runs, the failures
        // are reported from the ledger, and no new events are appended.
        let third = execute();
        assert_eq!(
            family.take_calls(),
            calls[2],
            "{stage}: exhausted work must not re-run"
        );
        assert_eq!(third.failures.len(), failing);
        assert!(third
            .failures
            .iter()
            .all(|f| f.stage == stage && f.attempt == 2 && !f.retriable));
        assert_eq!(run_failed_events(&path).len(), 2 * failing);

        // The surviving version is still reported and recommended
        // throughout.
        for outcome in [&first, &second, &third] {
            let labels: Vec<&str> = outcome.versions.iter().map(|v| v.label.as_str()).collect();
            assert_eq!(labels, vec!["good"]);
            assert_eq!(outcome.recommendation.as_ref().unwrap().chosen, "good");
        }
        std::fs::remove_file(&path).ok();
    }
}
