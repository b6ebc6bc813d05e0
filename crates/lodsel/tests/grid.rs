//! Sweep-level tests for the data-grid family: the golden digest of a
//! tiny sweep is pinned bit-for-bit, the recommendation is finite over
//! all 8 versions, and the resumability contract (interrupt after k
//! units, resume, equals fresh) holds with a *real* simulator family —
//! not just the toy one — behind the ledger.

mod common;

use common::{tiny_grid, tmp_ledger};
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
    assert!(outcome.complete);
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

    for k in [0usize, 3, 5] {
        let path = tmp_ledger(&format!("grid-resume-{k}"));
        let mut interrupted_cfg = config();
        interrupted_cfg.max_units = Some(k);
        let ledger = Ledger::open(&path).unwrap();
        let interrupted = run_sweep(&tiny_family(42), &interrupted_cfg, Some(&ledger));
        assert!(!interrupted.complete);
        assert_eq!(interrupted.versions.len(), k);
        drop(ledger);

        let reopened = Ledger::open(&path).unwrap();
        let resumed = run_sweep(&tiny_family(42), &config(), Some(&reopened));
        drop(reopened);

        assert_eq!(resumed.digest(), fresh.digest(), "k = {k}");
        assert_eq!(resumed.recommendation, fresh.recommendation, "k = {k}");
        let _ = std::fs::remove_file(&path);
    }
}
