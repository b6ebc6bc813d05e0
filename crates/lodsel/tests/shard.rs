//! Sharded-sweep determinism and shard-merge robustness.
//!
//! The golden property pinned here is the one the calibd daemon relies
//! on: an N-shard execution merged back together produces a
//! `SweepOutcome` digest bit-for-bit equal to a single-process
//! `run_sweep`, with zero calibration re-runs during the final replay.

mod common;

use common::{tmp_ledger, ToyFamily};
use lodsel::prelude::*;
use lodsel::shard::{merge_shards, run_shard, run_sweep_sharded, shard_path, ShardError};
use simcal::prelude::Budget;

fn toy_config(seed: u64) -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::PerRun {
            budget: Budget::Evaluations(4),
        },
        restarts: 2,
        seed,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
    }
}

/// A collision-free temp directory for a sharded sweep.
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = tmp_ledger(tag).with_extension("d");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sharded_digest_equals_single_process_digest() {
    // Single-process reference run.
    let reference_family = ToyFamily::new(true);
    let config = toy_config(11);
    let reference = run_sweep(&reference_family, &config, None);
    let plan_runs = 4 * 2; // units × restarts
    assert_eq!(reference_family.calibration_runs(), plan_runs);

    for shards in [1, 2, 3, 8] {
        let dir = tmp_dir(&format!("golden-{shards}"));
        let family = ToyFamily::new(true);
        let outcome = run_sweep_sharded(&family, &config, shards, &dir).unwrap();
        // Exactly the full plan was calibrated once across all shards —
        // the final merged replay re-ran nothing.
        assert_eq!(
            family.calibration_runs(),
            plan_runs,
            "{shards}-shard run must calibrate each plan entry exactly once"
        );
        assert_eq!(
            outcome.digest(),
            reference.digest(),
            "{shards}-shard digest must be bit-for-bit equal to single-process"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn interrupted_shard_resumes_without_recalibrating_completed_runs() {
    let config = toy_config(23);
    let dir = tmp_dir("resume");

    // "First process": complete shard 0 of 2, then die before shard 1.
    let first = ToyFamily::new(true);
    let done = run_shard(&first, &config, 0, 2, &dir).unwrap();
    assert_eq!(done, 4, "shard 0 owns half of the 8-run plan");
    assert_eq!(first.calibration_runs(), 4);

    // "Restarted process": re-runs both shards from the same directory.
    let second = ToyFamily::new(true);
    assert_eq!(run_shard(&second, &config, 0, 2, &dir).unwrap(), 0);
    assert_eq!(
        second.calibration_runs(),
        0,
        "shard 0 is fully checkpointed; resume must not re-consume budget"
    );
    assert_eq!(run_shard(&second, &config, 1, 2, &dir).unwrap(), 4);
    assert_eq!(second.calibration_runs(), 4);

    let merged = merge_shards(
        &[shard_path(&dir, 0), shard_path(&dir, 1)],
        &dir.join("merged.jsonl"),
    )
    .unwrap();
    let outcome = run_sweep(&second, &config, Some(&merged));
    assert_eq!(
        second.calibration_runs(),
        4,
        "final replay serves every run from a checkpoint"
    );

    let fresh = ToyFamily::new(true);
    assert_eq!(outcome.digest(), run_sweep(&fresh, &config, None).digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_shard_tail_heals_and_merge_succeeds() {
    let config = toy_config(31);
    let dir = tmp_dir("torn");
    let family = ToyFamily::new(true);
    run_shard(&family, &config, 0, 2, &dir).unwrap();
    run_shard(&family, &config, 1, 2, &dir).unwrap();

    // Simulate a kill mid-append on shard 1: a torn trailing line.
    let path1 = shard_path(&dir, 1);
    let intact = Ledger::read(&path1).unwrap().len();
    let mut text = std::fs::read_to_string(&path1).unwrap();
    text.push_str("{\"RunCompleted\":{\"record\":{\"key\":99,\"un");
    std::fs::write(&path1, &text).unwrap();

    // The torn fragment is skipped; every intact record still merges.
    assert_eq!(Ledger::read(&path1).unwrap().len(), intact);
    let merged = merge_shards(&[shard_path(&dir, 0), path1], &dir.join("merged.jsonl")).unwrap();
    let runs = merged.checkpoints().0.len();
    assert_eq!(runs, 8, "all intact run checkpoints survive a torn tail");

    let outcome = run_sweep(&family, &config, Some(&merged));
    let fresh = ToyFamily::new(true);
    assert_eq!(outcome.digest(), run_sweep(&fresh, &config, None).digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_foreign_fingerprints_with_typed_error() {
    let dir = tmp_dir("foreign");
    let family = ToyFamily::new(true);
    // Two shards from sweeps that differ only by seed: different plans,
    // different fingerprints.
    run_shard(&family, &toy_config(1), 0, 2, &dir).unwrap();
    let other = shard_path(&dir, 9);
    std::fs::rename(
        {
            let other_dir = tmp_dir("foreign-other");
            run_shard(&family, &toy_config(2), 1, 2, &other_dir).unwrap();
            shard_path(&other_dir, 1)
        },
        &other,
    )
    .unwrap();

    let err = match merge_shards(
        &[shard_path(&dir, 0), other.clone()],
        &dir.join("merged.jsonl"),
    ) {
        Err(e) => e,
        Ok(_) => panic!("merging foreign shards must fail"),
    };
    match err {
        ShardError::FingerprintMismatch {
            path,
            expected,
            found,
        } => {
            assert_eq!(path, other);
            assert_ne!(expected, found);
        }
        other => panic!("expected FingerprintMismatch, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_headerless_files_with_typed_error() {
    let dir = tmp_dir("headerless");
    // A plain (unsharded) sweep ledger has no ShardStarted header.
    let plain = dir.join("plain.jsonl");
    let family = ToyFamily::new(true);
    let ledger = Ledger::open(&plain).unwrap();
    run_sweep(&family, &toy_config(5), Some(&ledger));
    drop(ledger);

    let err = match merge_shards(std::slice::from_ref(&plain), &dir.join("merged.jsonl")) {
        Err(e) => e,
        Ok(_) => panic!("merging a headerless file must fail"),
    };
    match err {
        ShardError::MissingHeader { path } => assert_eq!(path, plain),
        other => panic!("expected MissingHeader, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_shard_refuses_a_shard_file_from_another_sweep() {
    let dir = tmp_dir("stale");
    let family = ToyFamily::new(true);
    run_shard(&family, &toy_config(7), 0, 2, &dir).unwrap();
    let err = run_shard(&family, &toy_config(8), 0, 2, &dir).unwrap_err();
    assert!(matches!(err, ShardError::FingerprintMismatch { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_is_idempotent() {
    let config = toy_config(13);
    let dir = tmp_dir("idempotent");
    let family = ToyFamily::new(true);
    run_shard(&family, &config, 0, 2, &dir).unwrap();
    run_shard(&family, &config, 1, 2, &dir).unwrap();
    let paths = [shard_path(&dir, 0), shard_path(&dir, 1)];
    let target = dir.join("merged.jsonl");
    let first = merge_shards(&paths, &target).unwrap().events().len();
    let second = merge_shards(&paths, &target).unwrap().events().len();
    assert_eq!(first, second, "re-merging must not duplicate events");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn re_merging_a_successive_halving_shard_is_idempotent() {
    // A daemon killed between merging a job's shard and recording the job
    // as done merges the same shard again on restart. Rung checkpoints and
    // promotion decisions already in the target must not be appended twice.
    let config = SweepConfig {
        budget: BudgetPolicy::SuccessiveHalving {
            total: 48,
            eta: 2,
            min_scenarios: 1,
        },
        ..toy_config(17)
    };
    let dir = tmp_dir("sh-idempotent");
    let family = ToyFamily::new(true);
    run_shard(&family, &config, 0, 1, &dir).unwrap();
    let paths = [shard_path(&dir, 0)];
    let target = dir.join("merged.jsonl");
    let merged = merge_shards(&paths, &target).unwrap();
    let outcome = run_sweep(&family, &config, Some(&merged));
    let replayed = merged.events();
    drop(merged);

    let again = merge_shards(&paths, &target).unwrap().events();
    assert_eq!(
        again.len(),
        replayed.len(),
        "re-merging must not duplicate events"
    );
    // 8 runs under eta 2 climb 8 -> 4 -> 2 -> 1: 15 rung checkpoints and
    // 14 decisions, once each.
    let status = ledger_status(&again);
    assert_eq!(
        (status.rungs_done, status.promotions, status.eliminations),
        (15, 7, 7)
    );
    let fresh = ToyFamily::new(true);
    assert_eq!(outcome.digest(), run_sweep(&fresh, &config, None).digest());
    let _ = std::fs::remove_dir_all(&dir);
}
