//! A replayed job keeps its quota charge. Limits gate admission only:
//! a job admitted under an old limit is charged again when `jobs.jsonl`
//! is replayed, even if a restart lowered its tenant's limit below the
//! charge, so the lowered limit blocks new work until the job is
//! cancelled.

use calibd::client::Client;
use calibd::daemon::{Daemon, DaemonConfig};
use calibd::proto::{JobSpec, JobState};
use std::path::Path;

/// A batch job on the fast grid: 4 runs × `budget_evals` evaluations.
fn spec(budget_evals: usize) -> JobSpec {
    JobSpec {
        family: "batch".into(),
        fast: true,
        budget_evals,
        total_evals: None,
        restarts: 1,
        seed: 5,
        epsilon: 0.1,
        shards: 1,
        tenant: "t".into(),
        sh_eta: None,
        sh_min_scenarios: None,
    }
}

/// An accept-only daemon: jobs stay queued.
fn config(dir: &Path, default_quota: usize) -> DaemonConfig {
    DaemonConfig {
        workers: 0,
        default_quota,
        ..DaemonConfig::local(dir)
    }
}

#[test]
fn a_replayed_job_keeps_its_charge_under_a_lowered_limit() {
    let dir = std::env::temp_dir().join(format!("calibd-quota-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let planned = spec(6).planned_evaluations(4);
    assert_eq!(planned, 24);
    {
        let handle = Daemon::start(config(&dir, 1_000)).unwrap();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        assert_eq!(client.submit(spec(6)).unwrap(), 1);
        handle.stop();
    }

    // Restart under a limit below job 1's charge.
    let handle = Daemon::start(config(&dir, 20)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    assert_eq!(client.status(Some(1)).unwrap()[0].state, JobState::Queued);
    let small = spec(5);
    assert_eq!(small.planned_evaluations(4), 20);
    let err = client.submit(small.clone()).unwrap_err();
    assert!(
        err.to_string().contains("quota"),
        "the replayed charge fills the lowered limit: {err}"
    );

    // Cancelling job 1 refunds exactly what replay charged.
    assert_eq!(client.cancel(1).unwrap().state, JobState::Cancelled);
    assert_eq!(client.submit(small.clone()).unwrap(), 2);
    let err = client.submit(small).unwrap_err();
    assert!(err.to_string().contains("quota"), "{err}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
