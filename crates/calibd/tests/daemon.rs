//! End-to-end daemon tests over real loopback sockets: a submitted job
//! completes with the single-process digest, a killed daemon resumes
//! from its shard ledgers with zero re-calibration, quotas gate
//! admission (and refund on cancel), and the handshake enforces the
//! trace parser's versioning contract.

use calibd::client::Client;
use calibd::daemon::{Daemon, DaemonConfig, JobEvent};
use calibd::proto::{
    parse_response, read_frame, write_frame, JobSpec, JobState, Request, Response, SCHEMA_NAME,
};
use lodsel::ledger::{Ledger, LedgerEvent};
use lodsel::prelude::{BatchFamily, BudgetPolicy, SweepConfig};
use lodsel::shard::{run_shard, shard_path};
use lodsel::sweep::{run_sweep, try_run_sweep};
use simcal::prelude::Budget;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "calibd-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The wire spec the tests submit: small enough to finish in seconds.
fn toy_spec(seed: u64, shards: usize, tenant: &str) -> JobSpec {
    JobSpec {
        family: "batch".into(),
        fast: true,
        budget_evals: 6,
        total_evals: None,
        restarts: 1,
        seed,
        epsilon: 0.1,
        shards,
        tenant: tenant.into(),
        sh_eta: None,
        sh_min_scenarios: None,
    }
}

/// The SweepConfig the daemon derives from [`toy_spec`] — must match
/// `daemon::sweep_config` for the digest comparisons to be meaningful.
fn toy_config(seed: u64) -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::PerRun {
            budget: Budget::Evaluations(6),
        },
        restarts: 1,
        seed,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
    }
}

fn config(dir: &Path, workers: usize) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        default_shards: 2,
        workers,
        default_quota: 10_000_000,
        tenant_quotas: Vec::new(),
    }
}

fn runs_completed_in(path: &Path) -> usize {
    match Ledger::read(path) {
        Ok(events) => events
            .iter()
            .filter(|e| matches!(e, LedgerEvent::RunCompleted { .. }))
            .count(),
        Err(_) => 0,
    }
}

#[test]
fn submitted_job_completes_with_the_single_process_digest() {
    let dir = tmp_dir("e2e");
    let handle = Daemon::start(config(&dir, 1)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    let job = client.submit(toy_spec(7, 2, "alice")).unwrap();
    let mut seqs = Vec::new();
    let (state, digest, chosen) = client
        .watch(job, |seq, event| {
            seqs.push(seq);
            // Progress events use the obs trace counter shape.
            assert_eq!(
                event.get("event").and_then(serde::Value::as_str),
                Some("counter")
            );
            assert!(event.get("name").is_some() && event.get("value").is_some());
        })
        .unwrap();
    assert_eq!(state, JobState::Completed);
    assert!(chosen.is_some(), "completed sweeps carry a recommendation");
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "progress sequence numbers are monotonic: {seqs:?}"
    );

    // The served digest is bit-for-bit the single-process outcome.
    let fresh = run_sweep(&BatchFamily::paper(true, 7), &toy_config(7), None);
    assert_eq!(digest.as_deref(), Some(fresh.digest().as_str()));

    // Status agrees, and its embedded ledger summary counted every run.
    let statuses = client.status(Some(job)).unwrap();
    assert_eq!(statuses.len(), 1);
    assert_eq!(statuses[0].state, JobState::Completed);
    assert_eq!(statuses[0].digest, digest);
    assert_eq!(statuses[0].ledger.as_ref().unwrap().runs_done, 4);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_restart_resumes_without_recalibrating_completed_runs() {
    let dir = tmp_dir("resume");
    let spec = toy_spec(11, 2, "bob");

    // Simulate a daemon that accepted job 1 and finished shard 0 of 2
    // before dying: the durable state is the Submitted log line plus
    // shard 0's ledger, exactly what a kill between shards leaves.
    let submitted = JobEvent::Submitted {
        id: 1,
        spec: spec.clone(),
        shards: 2,
        planned_evals: spec.planned_evaluations(4),
    };
    let mut log = std::fs::File::create(dir.join("jobs.jsonl")).unwrap();
    writeln!(log, "{}", serde_json::to_string(&submitted).unwrap()).unwrap();
    drop(log);
    let jdir = dir.join("job-1");
    std::fs::create_dir_all(&jdir).unwrap();
    let family = BatchFamily::paper(true, 11);
    let done = run_shard(&family, &toy_config(11), 0, 2, &jdir).unwrap();
    assert_eq!(done, 2, "shard 0 of 2 owns half of the 4-run plan");
    assert_eq!(runs_completed_in(&shard_path(&jdir, 0)), 2);

    // Restart: the daemon replays the log, re-queues job 1, and must
    // finish it by running only shard 1's half of the plan.
    let handle = Daemon::start(config(&dir, 1)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let (state, digest, _) = client.watch(1, |_, _| {}).unwrap();
    assert_eq!(state, JobState::Completed);

    // Zero re-invocation: every calibration appends exactly one
    // RunCompleted to its shard, so 4 total across both shards means
    // shard 0's pre-crash work was served from its ledger, not redone.
    assert_eq!(runs_completed_in(&shard_path(&jdir, 0)), 2);
    assert_eq!(runs_completed_in(&shard_path(&jdir, 1)), 2);

    // And the resumed outcome digest is bit-for-bit the uninterrupted
    // single-process one.
    let fresh = run_sweep(&BatchFamily::paper(true, 11), &toy_config(11), None);
    assert_eq!(digest.as_deref(), Some(fresh.digest().as_str()));

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quota_gates_admission_and_cancel_refunds() {
    let dir = tmp_dir("quota");
    // Each toy job plans 4 runs x 6 evaluations = 24; quota fits one.
    let mut cfg = config(&dir, 0); // no workers: jobs stay queued
    cfg.default_quota = 30;
    let handle = Daemon::start(cfg).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    let first = client.submit(toy_spec(3, 2, "carol")).unwrap();
    let err = client.submit(toy_spec(4, 2, "carol")).unwrap_err();
    assert!(
        err.to_string().contains("quota"),
        "rejection names the quota: {err}"
    );
    // Another tenant has its own budget.
    let other = client.submit(toy_spec(5, 2, "dave")).unwrap();
    assert_ne!(first, other);

    // Cancelling the queued job refunds its charge, making room.
    let cancelled = client.cancel(first).unwrap();
    assert_eq!(cancelled.state, JobState::Cancelled);
    client.submit(toy_spec(6, 2, "carol")).unwrap();

    // Terminal jobs cannot be cancelled again; unknown jobs error.
    assert!(client.cancel(first).is_err());
    assert!(client.cancel(999).is_err());
    assert!(client.status(Some(999)).is_err());

    // All three admitted jobs show up in the full listing.
    assert_eq!(client.status(None).unwrap().len(), 3);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_jobs_survive_restart_as_cancelled() {
    let dir = tmp_dir("cancel-replay");
    {
        let mut cfg = config(&dir, 0);
        cfg.default_quota = 30;
        let handle = Daemon::start(cfg).unwrap();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let job = client.submit(toy_spec(3, 2, "erin")).unwrap();
        client.cancel(job).unwrap();
        handle.stop();
    }
    // The replayed registry must show the job as cancelled (not
    // re-queued) and its quota refund must be re-applied: a fresh
    // submission still fits under the 30-evaluation limit.
    let mut cfg = config(&dir, 0);
    cfg.default_quota = 30;
    let handle = Daemon::start(cfg).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let statuses = client.status(Some(1)).unwrap();
    assert_eq!(statuses[0].state, JobState::Cancelled);
    client.submit(toy_spec(4, 2, "erin")).unwrap();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
// Writes a torn tail by hand, behind the log's back.
#[allow(clippy::disallowed_methods)]
fn job_submitted_after_a_torn_log_tail_survives_restart() {
    // A kill mid-append leaves `jobs.jsonl` ending in a partial line.
    // Regression: the log was reopened in append mode as-is, so the next
    // `Submitted` record was glued onto the torn line and the lenient
    // replay dropped both — the job vanished on the following restart.
    let dir = tmp_dir("torn-tail");
    let id = {
        let handle = Daemon::start(config(&dir, 0)).unwrap();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let id = client.submit(toy_spec(3, 2, "frank")).unwrap();
        handle.stop();
        id
    };
    let log = dir.join("jobs.jsonl");
    let mut file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
    file.write_all(br#"{"Submitted":{"id":99,"spec":{"fam"#)
        .unwrap();
    drop(file);

    let after_tear = {
        let handle = Daemon::start(config(&dir, 0)).unwrap();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let after_tear = client.submit(toy_spec(4, 2, "frank")).unwrap();
        handle.stop();
        after_tear
    };
    assert_ne!(after_tear, id);

    let handle = Daemon::start(config(&dir, 0)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let ids: Vec<u64> = client
        .status(None)
        .unwrap()
        .iter()
        .map(|status| status.job)
        .collect();
    assert_eq!(ids, vec![id, after_tear], "the torn record alone is lost");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handshake_enforces_the_trace_versioning_contract() {
    let dir = tmp_dir("hello");
    let handle = Daemon::start(config(&dir, 0)).unwrap();
    let addr = handle.addr().to_string();
    // A daemon that stops answering or hanging up fails the test instead
    // of hanging it.
    let connect = || {
        let stream = TcpStream::connect(&addr).unwrap();
        let timeout = std::time::Duration::from_secs(5);
        stream.set_read_timeout(Some(timeout)).unwrap();
        stream
    };

    let hello_gets = |schema: &str, version: u64| -> Response {
        let stream = connect();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_frame(
            &mut writer,
            &Request::Hello {
                schema: schema.into(),
                version,
            },
        )
        .unwrap();
        let line = read_frame(&mut reader).unwrap().expect("daemon answers");
        parse_response(&line).expect("daemon speaks the protocol")
    };

    // Foreign schema and newer version are refused...
    assert!(matches!(
        hello_gets("lodcal-trace", 1),
        Response::Error { .. }
    ));
    assert!(matches!(
        hello_gets(SCHEMA_NAME, 99),
        Response::Error { .. }
    ));
    // ...an older version is accepted (v0 clients keep working).
    assert!(matches!(hello_gets(SCHEMA_NAME, 0), Response::Hello { .. }));

    // A first frame that is not Hello closes the conversation.
    {
        let stream = connect();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_frame(&mut writer, &Request::Status { job: None }).unwrap();
        let line = read_frame(&mut reader).unwrap().expect("daemon answers");
        assert!(matches!(
            parse_response(&line),
            Some(Response::Error { .. })
        ));
        assert!(read_frame(&mut reader).unwrap().is_none(), "then hangs up");
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_submissions_are_typed_not_fatal() {
    let dir = tmp_dir("reject");
    let handle = Daemon::start(config(&dir, 0)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    let mut bad_family = toy_spec(1, 2, "f");
    bad_family.family = "quantum".into();
    let err = client.submit(bad_family).unwrap_err();
    assert!(err.to_string().contains("unknown family"));

    let mut starved = toy_spec(1, 2, "f");
    starved.total_evals = Some(1); // cannot cover 4 runs
    assert!(client.submit(starved).is_err());

    let mut zero_budget = toy_spec(1, 2, "f");
    zero_budget.budget_evals = 0;
    assert!(client.submit(zero_budget).is_err());

    // The connection survived every rejection.
    assert_eq!(client.status(None).unwrap().len(), 0);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sh_job_completes_with_rung_progress_and_the_single_process_digest() {
    let dir = tmp_dir("sh-e2e");
    let handle = Daemon::start(config(&dir, 1)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    // 4 units x 2 restarts = 8 runs; the eta-2 ladder fits in 48.
    let mut spec = toy_spec(7, 4, "sh-alice");
    spec.restarts = 2;
    spec.total_evals = Some(48);
    spec.sh_eta = Some(2);
    let job = client.submit(spec).unwrap();

    let mut saw_rung_frame = false;
    let (state, digest, chosen) = client
        .watch(job, |_seq, event| {
            if event.get("name").and_then(serde::Value::as_str) == Some("calibd_rungs_completed") {
                saw_rung_frame = true;
            }
        })
        .unwrap();
    assert_eq!(state, JobState::Completed);
    assert!(chosen.is_some());
    assert!(saw_rung_frame, "watch streams rung-progress frames");

    // SH needs global rank points, so the daemon runs it on one shard
    // regardless of the requested 4.
    let statuses = client.status(Some(job)).unwrap();
    assert_eq!(statuses[0].shards, 1);
    let ledger = statuses[0].ledger.as_ref().unwrap();
    assert!(ledger.rungs_done > 0, "rung records landed in the ledger");
    assert!(ledger.promotions > 0 && ledger.eliminations > 0);

    // Bit-for-bit the single-process SH outcome.
    let sh_config = SweepConfig {
        budget: BudgetPolicy::SuccessiveHalving {
            total: 48,
            eta: 2,
            min_scenarios: 1,
        },
        restarts: 2,
        seed: 7,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
    };
    let fresh = try_run_sweep(&BatchFamily::paper(true, 7), &sh_config, None).unwrap();
    assert_eq!(digest.as_deref(), Some(fresh.digest().as_str()));

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn starved_sh_job_fails_typed_and_refunds_quota() {
    let dir = tmp_dir("sh-starve");
    let mut cfg = config(&dir, 1);
    // Room for exactly one charge of 9 at a time: a successful refund is
    // the only way the second submission can be admitted.
    cfg.default_quota = 10;
    let handle = Daemon::start(cfg).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    // 4 runs with eta 2 need 3 rungs x 4 = 12 evaluations, so a total of
    // 9 passes the flat admission check (9 >= 4 runs) but cannot be
    // planned — the worker must surface the typed error, not abort.
    let mut spec = toy_spec(3, 1, "sh-frank");
    spec.total_evals = Some(9);
    spec.sh_eta = Some(2);
    let job = client.submit(spec.clone()).unwrap();
    let (state, digest, _) = client.watch(job, |_, _| {}).unwrap();
    assert_eq!(state, JobState::Failed);
    assert_eq!(digest, None);
    let statuses = client.status(Some(job)).unwrap();
    let error = statuses[0].error.as_deref().unwrap();
    assert!(
        error.contains("cannot cover"),
        "failure carries the typed budget error: {error}"
    );

    // The 9-evaluation charge was refunded: an identical submission fits
    // under the 10-evaluation quota again.
    client.submit(spec).unwrap();

    // And SH without a total budget is refused outright.
    let mut no_total = toy_spec(3, 1, "sh-frank");
    no_total.sh_eta = Some(2);
    let err = client.submit(no_total).unwrap_err();
    assert!(err.to_string().contains("total"), "rejection: {err}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_shutdown_request_stops_the_daemon() {
    let dir = tmp_dir("shutdown");
    let handle = Daemon::start(config(&dir, 1)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    client.shutdown().unwrap();
    // All daemon threads exit on their own; join would hang otherwise.
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
