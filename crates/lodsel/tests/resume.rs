//! The resumability contract: kill a sweep at any point — between two
//! ledger records or halfway through one — resume it against the same
//! ledger, and the resumed outcome is bit-for-bit equal to an
//! uninterrupted sweep, with no calibration budget consumed twice. A kill
//! is modelled as what it leaves on disk: every cut of a recorded ledger
//! ([`common::ledger_cuts`]).

mod common;

use common::{ledger_cuts, tmp_ledger, ToyFamily};
use lodsel::prelude::*;

fn config(restarts: usize) -> SweepConfig {
    SweepConfig {
        // An uneven shared budget, so fair division hands different runs
        // different budgets — resume must reassign them identically.
        budget: BudgetPolicy::TotalEvaluations { total: 50 },
        restarts,
        seed: 42,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
    }
}

/// Calibration runs a ledger file holds checkpoints for.
fn runs_completed(path: &std::path::Path) -> usize {
    Ledger::read(path)
        .unwrap()
        .iter()
        .filter(|e| matches!(e, LedgerEvent::RunCompleted { .. }))
        .count()
}

/// Resume from every cut of a recorded ledger and compare against fresh.
#[test]
fn resume_equals_fresh_bit_for_bit() {
    for restarts in 1..=3 {
        // The evaluation depends on the winning calibration, so any drift
        // in replayed results or winner selection would change the digest.
        let fresh_family = ToyFamily::new(true);
        let fresh = run_sweep(&fresh_family, &config(restarts), None);

        let recorded = tmp_ledger("resume-recorded");
        run_sweep(
            &ToyFamily::new(true),
            &config(restarts),
            Some(&Ledger::open(&recorded).unwrap()),
        );
        for cut in ledger_cuts(&recorded, "resume") {
            let interrupted_runs = runs_completed(&cut);
            let resumed_family = ToyFamily::new(true);
            let reopened = Ledger::open(&cut).unwrap();
            let resumed = run_sweep(&resumed_family, &config(restarts), Some(&reopened));
            drop(reopened);

            // Bit-for-bit: digest covers winners, calibrations, losses,
            // samples, work, and the recommendation.
            let at = format!("restarts = {restarts}, {}", cut.display());
            assert_eq!(resumed.digest(), fresh.digest(), "{at}");
            assert_eq!(resumed.recommendation, fresh.recommendation, "{at}");

            // No budget re-consumption: the cut's checkpoints and the
            // resumed calibrations together equal one fresh sweep's.
            assert_eq!(
                interrupted_runs + resumed_family.calibration_runs(),
                fresh_family.calibration_runs(),
                "{at}"
            );

            // A second resume finds everything checkpointed and runs
            // nothing.
            let idle_family = ToyFamily::new(true);
            let again = Ledger::open(&cut).unwrap();
            let third = run_sweep(&idle_family, &config(restarts), Some(&again));
            assert_eq!(idle_family.calibration_runs(), 0, "{at}");
            assert_eq!(third.digest(), fresh.digest(), "{at}");

            let _ = std::fs::remove_file(&cut);
        }
        let _ = std::fs::remove_file(&recorded);
    }
}

/// A ledger written under one configuration must not leak checkpoints
/// into a sweep with a different seed: keys cover the full provenance.
#[test]
fn different_seed_ignores_the_ledger() {
    let path = tmp_ledger("crossseed");
    let ledger = Ledger::open(&path).unwrap();
    let family = ToyFamily::new(true);
    run_sweep(&family, &config(2), Some(&ledger));
    drop(ledger);

    let other_family = ToyFamily::new(true);
    let mut other = config(2);
    other.seed = 43;
    let reopened = Ledger::open(&path).unwrap();
    run_sweep(&other_family, &other, Some(&reopened));
    assert_eq!(
        other_family.calibration_runs(),
        8,
        "a different seed must re-run everything"
    );
    let _ = std::fs::remove_file(&path);
}
