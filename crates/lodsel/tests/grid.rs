//! Sweep-level tests for the data-grid family: the golden digest of a
//! tiny sweep is pinned bit-for-bit, the recommendation is finite over
//! all 8 versions, and the resumability contract (resume from any cut of
//! the recorded ledger, mid-record included, equals fresh) holds with a
//! *real* simulator family — not just the toy one — behind the ledger.

mod common;

use common::{ledger_cuts, tiny_grid, tmp_ledger};
use lodsel::prelude::*;
use simcal::prelude::Budget;

/// The pinned family: one 16-job training workload, one held out, all 8
/// versions.
fn tiny_family(seed: u64) -> GridFamily {
    tiny_grid(seed, 1)
}

fn config() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(8), 2, 42)
}

#[test]
fn grid_sweep_digest_is_pinned_bit_for_bit() {
    // Pinned at introduction. Any change to the workload generator, the
    // simulator, the calibration pipeline, or the digest itself shows up
    // here — bump deliberately, never accidentally.
    let outcome = run_sweep(&tiny_family(42), &config(), None);
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.digest(), "4d7808acb8091cf5");
}

#[test]
fn grid_sweep_recommends_over_all_eight_versions() {
    let outcome = run_sweep(&tiny_family(42), &config(), None);
    assert_eq!(outcome.versions.len(), 8);
    for v in &outcome.versions {
        assert!(v.test_error.is_finite());
        assert!(
            v.work_units > 0,
            "{}: deterministic cost must be counted",
            v.label
        );
    }
    let rec = outcome.recommendation.expect("complete sweep recommends");
    assert!(rec.best_error.is_finite());
    assert_eq!(rec.scores.len(), 8);
    assert!(
        outcome.versions.iter().any(|v| v.label == rec.chosen),
        "recommendation must name a swept version"
    );
}

#[test]
fn grid_resume_equals_fresh_bit_for_bit() {
    let fresh = run_sweep(&tiny_family(42), &config(), None);

    let recorded = tmp_ledger("grid-recorded");
    run_sweep(
        &tiny_family(42),
        &config(),
        Some(&Ledger::open(&recorded).unwrap()),
    );
    for cut in ledger_cuts(&recorded, "grid-resume") {
        let reopened = Ledger::open(&cut).unwrap();
        let resumed = run_sweep(&tiny_family(42), &config(), Some(&reopened));
        drop(reopened);

        assert_eq!(resumed.digest(), fresh.digest(), "{}", cut.display());
        assert_eq!(
            resumed.recommendation,
            fresh.recommendation,
            "{}",
            cut.display()
        );
        let _ = std::fs::remove_file(&cut);
    }
    let _ = std::fs::remove_file(&recorded);
}
