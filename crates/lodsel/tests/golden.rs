//! Golden determinism tests on a tiny 4-version grid: the sweep's choice,
//! ranking, Pareto flags, and digest are pinned, and the ledger's on-disk
//! schema is checked line by line.

mod common;

use common::{tmp_ledger, ToyFamily, TOY_ERRORS, TOY_WORKS};
use lodsel::prelude::*;
use simcal::prelude::Budget;

fn config() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(8), 2, 42)
}

#[test]
fn sweep_reproduces_the_known_pareto_geometry() {
    let family = ToyFamily::new(false);
    let outcome = run_sweep(&family, &config(), None);

    assert_eq!(outcome.versions.len(), 4);
    for (v, (&err, &work)) in outcome
        .versions
        .iter()
        .zip(TOY_ERRORS.iter().zip(&TOY_WORKS))
    {
        assert_eq!(v.samples, vec![err]);
        assert_eq!(v.test_error, err);
        assert_eq!(v.work_units, work);
    }
    // v3 (0.35 err, 5 work) is dominated by v0 (0.30 err, 1 work).
    assert_eq!(
        front_flags(&outcome.versions),
        vec![true, true, true, false]
    );

    let rec = outcome.recommendation.expect("complete sweep recommends");
    assert_eq!(rec.best_error, 0.10);
    // Within ε = 10% of the best error, v2 is 10x cheaper than v1.
    assert_eq!(rec.chosen, "v2");
    let ranked: Vec<&str> = rec.scores.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(ranked, vec!["v2", "v1", "v0", "v3"]);
}

#[test]
fn fault_free_digests_are_pinned_bit_for_bit() {
    // Captured before the failure model existed. A fault-free sweep must
    // keep digesting to exactly these values: the failure machinery may
    // only extend the digest input when failures actually occur.
    let a = run_sweep(&ToyFamily::new(true), &config(), None);
    assert!(a.failures.is_empty());
    assert_eq!(a.digest(), "c10c6fae5e95faac");
    let b = run_sweep(&ToyFamily::new(false), &config(), None);
    assert!(b.failures.is_empty());
    assert_eq!(b.digest(), "9da6bcf5cdc8e746");
}

#[test]
fn digest_is_stable_across_runs_and_sensitive_to_configuration() {
    let a = run_sweep(&ToyFamily::new(true), &config(), None);
    let b = run_sweep(&ToyFamily::new(true), &config(), None);
    assert_eq!(a.digest(), b.digest(), "same sweep must digest identically");

    let mut other = config();
    other.seed = 43;
    let c = run_sweep(&ToyFamily::new(true), &other, None);
    assert_ne!(a.digest(), c.digest(), "digest must track the seed");
}

#[test]
fn ledger_schema_holds_line_by_line() {
    let family = ToyFamily::new(false);
    let cfg = config();
    let path = tmp_ledger("schema");
    let ledger = Ledger::open(&path).unwrap();
    let outcome = run_sweep(&family, &cfg, Some(&ledger));
    drop(ledger);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // 1 start + (4 units x 2 restarts) runs + 4 unit evals + 1 completion.
    assert_eq!(lines.len(), 1 + 8 + 4 + 1);
    assert!(lines[0].contains("\"SweepStarted\""));
    assert!(lines.last().unwrap().contains("\"SweepCompleted\""));
    let runs = lines
        .iter()
        .filter(|l| l.contains("\"RunCompleted\""))
        .count();
    let units = lines
        .iter()
        .filter(|l| l.contains("\"UnitCompleted\""))
        .count();
    assert_eq!(runs, 8);
    assert_eq!(units, 4);
    // The completion line records the recommendation and the digest.
    let last = lines.last().unwrap();
    let chosen = &outcome.recommendation.as_ref().unwrap().chosen;
    assert!(last.contains(&format!("\"chosen\":\"{chosen}\"")));
    assert!(last.contains(&outcome.digest()));
    // Every line parses back as an event.
    assert_eq!(Ledger::read(&path).unwrap().len(), lines.len());
    let _ = std::fs::remove_file(&path);
}
