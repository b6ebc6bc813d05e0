//! The persistent-cache contract at the sweep level: a repeated sweep
//! against the same cache directory is served entirely from disk (zero
//! objective invocations, bit-for-bit identical digest), and warm-started
//! calibrations change only how the budget is spent — never the losses
//! recorded at shared calibration points. A shard cut anywhere, as a kill
//! mid-append leaves it, heals to the same records and the same digest.

mod common;

use common::ToyFamily;
use lodsel::prelude::*;
use simcal::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The cache directory is process-global state; serialize the tests that
/// install one. A test takes the lock even when an earlier one panicked
/// holding it, so one failure reads as one failure, not as a cascade.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

/// Collision-free temp cache directory (tests run concurrently).
fn tmp_cache_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lodsel-cache-{tag}-{}-{n}", std::process::id()))
}

fn config(dir: &std::path::Path) -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::PerRun {
            budget: Budget::Evaluations(6),
        },
        restarts: 2,
        seed: 42,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: Some(dir.to_path_buf()),
    }
}

#[test]
fn repeated_sweep_is_served_entirely_from_the_disk_cache() {
    let _guard = CACHE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_cache_dir("sweep-twice");

    let cold_family = ToyFamily::new(true);
    let cold = run_sweep(&cold_family, &config(&dir), None);
    assert!(
        cold_family.objective_evaluations() > 0,
        "the first pass must really evaluate"
    );

    // Second pass, fresh family, same cache directory and no ledger:
    // every calibration re-runs, but every evaluation replays from disk.
    let warm_family = ToyFamily::new(true);
    let warm = run_sweep(&warm_family, &config(&dir), None);
    assert_eq!(
        warm_family.objective_evaluations(),
        0,
        "second pass must not invoke the objective at all"
    );
    assert_eq!(
        warm_family.calibration_runs(),
        cold_family.calibration_runs(),
        "without a ledger, every calibration still runs (against the cache)"
    );
    assert_eq!(warm.digest(), cold.digest(), "replay must be bit-for-bit");

    // The scope restored the process-global state.
    assert!(simcal::cache::installed().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_changes_only_budget_spent_never_recorded_losses() {
    let _guard = CACHE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_cache_dir("warm-vs-fresh");
    simcal::cache::install(&dir);

    let space = ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
    let f = |x: f64| (x - 0.6).powi(2);
    let fingerprint = CacheFingerprint::of("toy-warm", "target", 0x7a57);
    let obj = FnObjective::new(space, move |c: &Calibration| f(c.values[0]))
        .with_cache_fingerprint(fingerprint);
    let calibrator = Calibrator::bo_gp(Budget::Evaluations(30), 9);

    let fresh = calibrator.calibrate(&obj);
    // Warm observations from a "neighbouring" calibration: near the
    // optimum, plus one deliberately wrong pair the fit must survive.
    let warm_points = vec![(vec![0.62], f(0.62)), (vec![0.5], 0.5)];
    let algorithm = BayesianOpt::new(SurrogateKind::GaussianProcess).with_warm_start(warm_points);
    let warmed = calibrator
        .try_calibrate_with(&algorithm, &obj)
        .expect("warm-started calibration must find a finite loss");
    simcal::cache::uninstall();

    // Same budget consumed; both incumbents really evaluated.
    assert_eq!(warmed.evaluations, fresh.evaluations);
    assert_eq!(
        warmed.loss.to_bits(),
        f(warmed.calibration.values[0]).to_bits(),
        "the warm incumbent must come from an evaluated point, not a warm pair"
    );

    // Both runs recorded into one shard. Every surviving entry still
    // holds the objective's own loss — the warm start never rewrote a
    // recorded loss, at shared keys or anywhere else.
    let recorded = simcal::cache::load_finite_observations(&dir, fingerprint, 9);
    assert!(!recorded.is_empty());
    for (values, loss) in &recorded {
        assert_eq!(
            loss.to_bits(),
            f(values[0]).to_bits(),
            "cached loss at x={} drifted",
            values[0]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The records a shard holds, order and repeats aside (a healed torn
/// fragment stays in the file as a line that is not a record).
fn shard_records(path: &Path) -> BTreeSet<String> {
    simcal::jsonl::read::<CacheRecord>(path)
        .unwrap()
        .iter()
        .map(|record| format!("{record:?}"))
        .collect()
}

#[test]
fn a_shard_cut_at_any_byte_heals_to_the_cold_records_and_digest() {
    let _guard = CACHE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cold_dir = tmp_cache_dir("cut-cold");
    let cold = run_sweep(&ToyFamily::new(true), &config(&cold_dir), None);

    // Cut the largest shard; the others stay whole, so every warm sweep
    // re-evaluates exactly what the cut lost.
    let mut shards: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(&cold_dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            (std::fs::metadata(&path).unwrap().len(), path)
        })
        .collect();
    shards.sort();
    let (_, shard) = shards.last().expect("the cold sweep wrote no shard");
    let name = shard.file_name().unwrap();
    let cold_records = shard_records(shard);
    assert!(
        (2..=20).contains(&cold_records.len()),
        "{} records: the toy budget should keep the shard small",
        cold_records.len()
    );

    for cut in common::ledger_cuts(shard, "cache-cut") {
        let warm_dir = tmp_cache_dir("cut-warm");
        std::fs::create_dir_all(&warm_dir).unwrap();
        for (_, path) in &shards {
            std::fs::copy(path, warm_dir.join(path.file_name().unwrap())).unwrap();
        }
        std::fs::copy(&cut, warm_dir.join(name)).unwrap();

        let warm = run_sweep(&ToyFamily::new(true), &config(&warm_dir), None);
        assert_eq!(warm.digest(), cold.digest(), "cut {}", cut.display());
        assert_eq!(
            shard_records(&warm_dir.join(name)),
            cold_records,
            "cut {}: the healed shard lost or gained records",
            cut.display()
        );
        let _ = std::fs::remove_dir_all(&warm_dir);
        let _ = std::fs::remove_file(&cut);
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
}
