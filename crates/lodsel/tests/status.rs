//! Schema tests for the machine-readable ledger status
//! (`lodsel --status-json`, reused by `calibctl status`).

mod common;

use common::{tmp_ledger, ToyFamily};
use lodsel::prelude::*;
use simcal::prelude::Budget;

fn toy_config() -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::PerRun {
            budget: Budget::Evaluations(3),
        },
        restarts: 1,
        seed: 9,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
    }
}

#[test]
fn status_json_schema_is_stable_and_round_trips() {
    let path = tmp_ledger("status-json");
    let family = ToyFamily::new(true);
    let ledger = Ledger::open(&path).unwrap();
    let outcome = run_sweep(&family, &toy_config(), Some(&ledger));
    drop(ledger);

    let status = ledger_status(&Ledger::read(&path).unwrap());
    assert_eq!(status.sweeps_started, 1);
    assert_eq!(status.shards_started, 0);
    assert_eq!(status.runs_done, 4);
    assert_eq!(status.unit_evals_done, 4);
    assert_eq!(status.failed_attempts, 0);
    let done = status.completed.as_ref().expect("sweep completed");
    assert_eq!(done.family, "toy");
    assert_eq!(done.digest, outcome.digest());

    // The wire shape: field names are the schema `calibctl status`
    // consumes, so pin them explicitly.
    let json = serde_json::to_string(&status).unwrap();
    let value: serde::Value = serde_json::from_str(&json).unwrap();
    assert!(
        matches!(value, serde::Value::Object(_)),
        "status must serialize as an object"
    );
    for key in [
        "events",
        "sweeps_started",
        "shards_started",
        "runs_done",
        "rungs_done",
        "promotions",
        "eliminations",
        "unit_evals_done",
        "failed_attempts",
        "last_failure",
        "last_sweep",
        "completed",
    ] {
        assert!(value.get(key).is_some(), "status JSON is missing {key:?}");
    }
    let completed = value.get("completed").unwrap();
    for key in ["family", "digest", "chosen"] {
        assert!(
            completed.get(key).is_some(),
            "completed summary is missing {key:?}"
        );
    }

    // And it deserializes back bit-for-bit.
    let back: LedgerStatus = serde_json::from_str(&json).unwrap();
    assert_eq!(back, status);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn status_text_rendering_matches_the_legacy_table() {
    let path = tmp_ledger("status-text");
    let family = ToyFamily::new(true);
    let ledger = Ledger::open(&path).unwrap();
    let outcome = run_sweep(&family, &toy_config(), Some(&ledger));
    drop(ledger);

    let events = Ledger::read(&path).unwrap();
    let status = ledger_status(&events);
    let text = status.render_text("L");
    let chosen = outcome.recommendation.as_ref().unwrap().chosen.clone();
    let expected = format!(
        "ledger L: {} events\n\
         \x20 sweeps started:        1\n\
         \x20 calibration runs done: 4\n\
         \x20 unit evaluations done: 4\n\
         \x20 last sweep: family=toy units=4 pending_runs=4\n\
         \x20 completed: family=toy chosen={chosen} digest={}\n",
        events.len(),
        outcome.digest()
    );
    assert_eq!(text, expected);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_ledger_status_reports_incomplete() {
    let status = ledger_status(&[]);
    assert_eq!(status.events, 0);
    assert!(status.completed.is_none());
    assert!(status
        .render_text("x")
        .contains("completed: no (resume by re-running with the same --ledger)"));
}
