//! The calibd daemon: a job registry, fair multi-tenant scheduling,
//! sharded sweep execution, and the TCP frontend.
//!
//! ## Durability and replay
//!
//! Every state transition a restart must survive is appended to
//! `data_dir/jobs.jsonl`, a [`simcal::jsonl`] log of [`JobEvent`]s. On
//! startup the daemon replays the log: jobs with a
//! `Submitted` event but no terminal event are re-queued in id order and
//! resume from their ledger shards under `data_dir/job-<id>/` — every
//! calibration run already checkpointed there is served without
//! re-consuming any budget, so a kill at any point re-runs at most the
//! work that was in flight, and the resumed outcome digest is
//! bit-for-bit what an uninterrupted run would have produced.
//!
//! ## Quota semantics
//!
//! Admission charges a job's full planned evaluation count against its
//! tenant's [`QuotaBook`] entry up front (the plan is deterministic, so
//! the count is exact). Completion keeps the charge; failure and
//! cancellation refund it in full. Replayed `Submitted` events re-charge
//! (the in-memory book dies with the process), and replayed terminal
//! events re-apply their refunds — resumed jobs are never charged twice.
//! A job's first terminal record wins; a later one (only logs written
//! before terminal records were made unique hold them) is ignored, so
//! no job is refunded twice.
//!
//! ## Scheduling
//!
//! Queued jobs are drained round-robin across tenants ([`FairQueue`]):
//! a tenant that submits a burst of jobs cannot starve another tenant's
//! single job. Shard execution itself fans out on the process-wide
//! rayon pool; `workers` controls how many jobs make progress
//! concurrently (0 is allowed and means "accept but never execute",
//! which the tests use to pin queue behaviour deterministically).
//!
//! Waiting is event-driven. One condvar, `changed`, means "the registry
//! changed": it is notified after every change a waiter can be waiting
//! for — a job enqueued, completed, failed or cancelled, and shutdown.
//! Every notifier makes its change while holding the registry lock (the
//! `shutdown` store included) and notifies after releasing it, so a
//! waiter that checked its condition under the lock cannot miss its
//! wake-up. Workers and watchers share the condvar and each re-checks
//! its own condition: an idle worker sleeps until a job is enqueued, and
//! a watcher hears that its job finished as soon as the worker records
//! the outcome. No daemon thread wakes on a timer except a watcher's
//! `PROGRESS_PERIOD` tick, which re-reads the job's shard ledgers for
//! run-level progress. Nothing reads from disk under the registry lock.

use crate::proto::{
    check_hello, counter_event, parse_request, read_frame, write_frame, FrameError, JobSpec,
    JobState, JobStatus, ProtoError, Request, Response, SCHEMA_NAME, SCHEMA_VERSION,
};
use lodsel::ledger::{ledger_status, Ledger, LedgerEvent, LedgerStatus};
use lodsel::prelude::SweepConfig;
use lodsel::shard::{merge_shards, run_shard, shard_path};
use lodsel::sweep::try_run_sweep;
use serde::{Deserialize, Serialize};
use simcal::jsonl::JsonlLog;
use simcal::prelude::{Budget, QuotaBook};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a watcher waits for its job to finish before it re-reads the
/// job's shard ledgers for run-level progress. Completion and shutdown
/// end the wait at once; runs finished inside a shard are visible only in
/// the ledgers.
const PROGRESS_PERIOD: Duration = Duration::from_millis(25);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Root of the daemon's durable state: `jobs.jsonl` plus one
    /// `job-<id>/` shard directory per job.
    pub data_dir: PathBuf,
    /// Shard count for jobs that do not pick one (`spec.shards == 0`).
    pub default_shards: usize,
    /// Worker threads executing jobs concurrently (0 = accept only).
    pub workers: usize,
    /// Evaluation quota for tenants without an explicit limit.
    pub default_quota: usize,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, usize)>,
}

impl DaemonConfig {
    /// Loopback daemon rooted at `data_dir` with generous defaults.
    pub fn local(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            data_dir: data_dir.into(),
            default_shards: 2,
            workers: 2,
            default_quota: 10_000_000,
            tenant_quotas: Vec::new(),
        }
    }
}

/// One line of `jobs.jsonl`: the durable job-lifecycle log.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// A job was admitted. `planned_evals` is recorded so replay can
    /// re-charge quota without reconstructing the family.
    Submitted {
        /// Job id.
        id: u64,
        /// The submitted spec.
        spec: JobSpec,
        /// Resolved shard count.
        shards: usize,
        /// Evaluations charged at admission.
        planned_evals: usize,
    },
    /// The job finished with a recommendation.
    Completed {
        /// Job id.
        id: u64,
        /// Outcome digest.
        digest: String,
        /// Recommended version label.
        chosen: Option<String>,
    },
    /// The job gave up.
    Failed {
        /// Job id.
        id: u64,
        /// Why.
        error: String,
    },
    /// The job was cancelled by a client.
    Cancelled {
        /// Job id.
        id: u64,
    },
}

/// Round-robin-fair per-tenant job queue: `pop` serves tenants in
/// rotation, one job at a time, so no tenant's backlog starves another.
#[derive(Default)]
pub struct FairQueue {
    queues: BTreeMap<String, VecDeque<u64>>,
    rotation: VecDeque<String>,
}

impl FairQueue {
    /// Enqueue `job` for `tenant` (FIFO within the tenant).
    pub fn push(&mut self, tenant: &str, job: u64) {
        if !self.queues.contains_key(tenant) {
            self.rotation.push_back(tenant.to_string());
        }
        self.queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(job);
    }

    /// Dequeue the next job fairly: the first tenant in rotation with
    /// work yields one job and moves to the back of the rotation.
    pub fn pop(&mut self) -> Option<u64> {
        for _ in 0..self.rotation.len() {
            let tenant = self.rotation.pop_front()?;
            let job = self.queues.get_mut(&tenant).and_then(VecDeque::pop_front);
            self.rotation.push_back(tenant);
            if job.is_some() {
                return job;
            }
        }
        None
    }

    /// Drop a queued job wherever it sits. Returns whether it was found.
    pub fn remove(&mut self, job: u64) -> bool {
        for queue in self.queues.values_mut() {
            if let Some(at) = queue.iter().position(|&j| j == job) {
                queue.remove(at);
                return true;
            }
        }
        false
    }

    /// Queued jobs across all tenants.
    pub fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Job {
    spec: JobSpec,
    shards: usize,
    planned_evals: usize,
    state: JobState,
    digest: Option<String>,
    chosen: Option<String>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
}

impl Job {
    /// A job admitted (or replayed from the job log) and not yet run.
    fn queued(spec: JobSpec, shards: usize, planned_evals: usize) -> Job {
        Job {
            spec,
            shards,
            planned_evals,
            state: JobState::Queued,
            digest: None,
            chosen: None,
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Enter the terminal state `event` records, live or on replay.
    /// Failure and cancellation refund the admission charge; `Submitted`
    /// is not terminal and changes nothing. The first terminal record
    /// wins: once the job is terminal every later event is ignored, so a
    /// log that ends one job twice never refunds it twice.
    fn finish(&mut self, event: JobEvent, quotas: &QuotaBook) {
        if self.state.terminal() {
            return;
        }
        match event {
            JobEvent::Completed { digest, chosen, .. } => {
                self.state = JobState::Completed;
                self.digest = Some(digest);
                self.chosen = chosen;
            }
            JobEvent::Failed { error, .. } => {
                self.state = JobState::Failed;
                self.error = Some(error);
                quotas.refund(&self.spec.tenant, self.planned_evals);
            }
            JobEvent::Cancelled { .. } => {
                self.state = JobState::Cancelled;
                quotas.refund(&self.spec.tenant, self.planned_evals);
            }
            JobEvent::Submitted { .. } => {}
        }
    }
}

#[derive(Default)]
struct Registry {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    queue: FairQueue,
}

impl Registry {
    /// Take the next queued job for a worker and mark it `Running` in the
    /// same critical section, so a cancel finds it either queued (and
    /// removes it) or running (and raises its flag), never in between.
    fn claim(&mut self) -> Option<u64> {
        let id = self.queue.pop()?;
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = JobState::Running;
        }
        Some(id)
    }
}

struct Shared {
    config: DaemonConfig,
    addr: SocketAddr,
    registry: Mutex<Registry>,
    /// "The registry changed" (module doc, "Scheduling").
    changed: Condvar,
    shutdown: AtomicBool,
    quotas: QuotaBook,
    jobs_log: Mutex<JsonlLog>,
}

impl Shared {
    /// Append one event to `jobs.jsonl`. A failed append must not take
    /// the daemon down (the job still runs; only its durability across a
    /// restart degrades), but it is reported, never swallowed.
    fn log_event(&self, event: &JobEvent) {
        if let Err(e) = self.jobs_log.lock().expect("jobs log lock").append(event) {
            obs::diag!("jobs.jsonl append failed: {e}");
        }
    }

    /// Ask every thread to stop. The flag is stored under the registry
    /// lock, so a worker or watcher that found it clear under the lock is
    /// already waiting when `notify_all` runs.
    fn begin_shutdown(&self) {
        let registry = self.registry.lock().expect("registry lock");
        self.shutdown.store(true, Ordering::SeqCst);
        drop(registry);
        self.changed.notify_all();
        // Wake the blocking accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Handle to a running daemon: its bound address plus shutdown/join.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Ask every thread to stop (running jobs pause at their next shard
    /// boundary and will resume from their ledgers on the next start).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Shut down and wait for the worker and accept threads to exit.
    pub fn stop(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Block until the daemon shuts down (via a `Shutdown` request).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The daemon entry point.
pub struct Daemon;

impl Daemon {
    /// Bind, replay `jobs.jsonl`, and start worker + accept threads.
    pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let quotas = QuotaBook::new(config.default_quota);
        for (tenant, limit) in &config.tenant_quotas {
            quotas.set_limit(tenant, *limit);
        }
        let (jobs_log, events) = JsonlLog::open(&config.data_dir.join("jobs.jsonl"))?;
        let registry = replay(events, &quotas);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            addr,
            registry: Mutex::new(registry),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            quotas,
            jobs_log: Mutex::new(jobs_log),
        });

        let mut threads = Vec::new();
        for _ in 0..shared.config.workers {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
        }
        Ok(DaemonHandle { shared, threads })
    }
}

/// Rebuild the registry from the job log's events, re-applying quota
/// charges and refunds, and re-queue every non-terminal job in id order.
fn replay(events: Vec<JobEvent>, quotas: &QuotaBook) -> Registry {
    let mut registry = Registry::default();
    for event in events {
        match event {
            JobEvent::Submitted {
                id,
                spec,
                shards,
                planned_evals,
            } => {
                // Re-charge: it was admitted before; changed limits only
                // gate future admissions.
                let _ = quotas.charge(&spec.tenant, planned_evals);
                registry.next_id = registry.next_id.max(id + 1);
                registry
                    .jobs
                    .insert(id, Job::queued(spec, shards, planned_evals));
            }
            JobEvent::Completed { id, .. }
            | JobEvent::Failed { id, .. }
            | JobEvent::Cancelled { id } => {
                if let Some(job) = registry.jobs.get_mut(&id) {
                    job.finish(event, quotas);
                }
            }
        }
    }
    let pending: Vec<(u64, String)> = registry
        .jobs
        .iter()
        .filter(|(_, j)| j.state == JobState::Queued)
        .map(|(id, j)| (*id, j.spec.tenant.clone()))
        .collect();
    for (id, tenant) in pending {
        registry.queue.push(&tenant, id);
    }
    registry
}

/// The sweep configuration a spec maps to.
fn sweep_config(spec: &JobSpec) -> SweepConfig {
    SweepConfig {
        budget: spec.budget_policy(),
        epsilon: spec.epsilon,
        ..SweepConfig::per_run(
            Budget::Evaluations(spec.budget_evals),
            spec.restarts,
            spec.seed,
        )
    }
}

/// A job's shard directory under the daemon's data dir.
fn job_dir(data_dir: &Path, id: u64) -> PathBuf {
    data_dir.join(format!("job-{id}"))
}

/// Combined ledger summary across a job's shard files.
fn job_ledger_status(data_dir: &Path, id: u64, shards: usize) -> LedgerStatus {
    let dir = job_dir(data_dir, id);
    let mut events: Vec<LedgerEvent> = Vec::new();
    for s in 0..shards {
        if let Ok(mut shard_events) = Ledger::read(shard_path(&dir, s)) {
            events.append(&mut shard_events);
        }
    }
    ledger_status(&events)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut registry = shared.registry.lock().expect("registry lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = registry.claim() {
                    break id;
                }
                registry = shared.changed.wait(registry).expect("registry lock");
            }
        };
        execute_job(shared, claimed);
    }
}

fn execute_job(shared: &Arc<Shared>, id: u64) {
    let (spec, shards, cancel) = {
        let registry = shared.registry.lock().expect("registry lock");
        let Some(job) = registry.jobs.get(&id) else {
            return;
        };
        (job.spec.clone(), job.shards, job.cancel.clone())
    };
    obs::counter(obs::Counter::JobsActive, 1);
    let _job_span = obs::span!(
        "job",
        id = id,
        family = spec.family.clone(),
        shards = shards
    );
    let failed = |error: String| finish(shared, id, JobEvent::Failed { id, error });
    let cancelled = || finish(shared, id, JobEvent::Cancelled { id });

    let family = match lodsel::families::paper(&spec.family, spec.fast, spec.seed) {
        Ok(f) => f,
        Err(e) => return failed(e),
    };
    let config = sweep_config(&spec);
    let dir = job_dir(&shared.config.data_dir, id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return failed(format!("cannot create {}: {e}", dir.display()));
    }

    for s in 0..shards {
        if cancel.load(Ordering::SeqCst) {
            return cancelled();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Dying mid-job: no terminal event, so the next start
            // re-queues the job and resumes from the shard ledgers. It
            // goes back in the queue too, where a cancel can still take
            // it; no worker claims anything once `shutdown` is set.
            let mut guard = shared.registry.lock().expect("registry lock");
            let registry = &mut *guard;
            if let Some(job) = registry.jobs.get_mut(&id) {
                job.state = JobState::Queued;
                registry.queue.push(&job.spec.tenant, id);
            }
            return;
        }
        if let Err(e) = run_shard(family.as_ref(), &config, s, shards, &dir) {
            return failed(e.to_string());
        }
    }
    if cancel.load(Ordering::SeqCst) {
        return cancelled();
    }
    let paths: Vec<PathBuf> = (0..shards).map(|s| shard_path(&dir, s)).collect();
    let merged = match merge_shards(&paths, &dir.join("merged.jsonl")) {
        Ok(l) => l,
        Err(e) => return failed(e.to_string()),
    };
    let outcome = match try_run_sweep(family.as_ref(), &config, Some(&merged)) {
        Ok(outcome) => outcome,
        Err(e) => return failed(e.to_string()),
    };
    let digest = outcome.digest();
    let chosen = outcome.recommendation.as_ref().map(|r| r.chosen.clone());
    finish(shared, id, JobEvent::Completed { id, digest, chosen });
}

/// Record job `id`'s terminal `event`: log it, apply it under the
/// registry lock, then wake every waiter.
fn finish(shared: &Shared, id: u64, event: JobEvent) {
    shared.log_event(&event);
    let mut registry = shared.registry.lock().expect("registry lock");
    if let Some(job) = registry.jobs.get_mut(&id) {
        job.finish(event, &shared.quotas);
    }
    drop(registry);
    shared.changed.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        // Connection handlers are detached: they die with their socket.
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &shared);
        });
    }
}

/// A job's status fields, copied under the registry lock; [`with_ledger`]
/// adds the ledger summary once the lock is released.
fn job_status_of(id: u64, job: &Job) -> JobStatus {
    JobStatus {
        job: id,
        tenant: job.spec.tenant.clone(),
        family: job.spec.family.clone(),
        shards: job.shards,
        state: job.state,
        digest: job.digest.clone(),
        chosen: job.chosen.clone(),
        error: job.error.clone(),
        ledger: None,
    }
}

/// Add the ledger summary to a status snapshot. It parses every shard
/// ledger of the job, so it must not run under the registry lock.
fn with_ledger(shared: &Shared, mut status: JobStatus) -> JobStatus {
    status.ledger = Some(job_ledger_status(
        &shared.config.data_dir,
        status.job,
        status.shards,
    ));
    status
}

/// Admit or refuse a submission, under the registry lock.
fn admit(shared: &Shared, spec: JobSpec) -> Response {
    let family = match lodsel::families::paper(&spec.family, spec.fast, spec.seed) {
        Ok(f) => f,
        Err(e) => return Response::Rejected { reason: e },
    };
    let units = family.units().len();
    let restarts = spec.restarts.max(1);
    if spec.sh_eta.is_some() && spec.total_evals.is_none() {
        return Response::Rejected {
            reason: "successive halving needs a total evaluation budget (total_evals)".into(),
        };
    }
    if let Some(total) = spec.total_evals {
        if total < units * restarts {
            return Response::Rejected {
                reason: format!(
                    "total budget of {total} evaluations cannot cover {} runs",
                    units * restarts
                ),
            };
        }
    } else if spec.budget_evals == 0 {
        return Response::Rejected {
            reason: "budget_evals must be at least 1".into(),
        };
    }
    // Rung barriers are global rank points, so successive-halving jobs
    // always run on one shard regardless of the requested count.
    let shards = if spec.sh_eta.is_some() {
        1
    } else if spec.shards == 0 {
        shared.config.default_shards.max(1)
    } else {
        spec.shards
    };
    let planned = spec.planned_evaluations(units);
    if let Err(e) = shared.quotas.charge(&spec.tenant, planned) {
        return Response::Rejected {
            reason: e.to_string(),
        };
    }
    let mut registry = shared.registry.lock().expect("registry lock");
    registry.next_id = registry.next_id.max(1);
    let id = registry.next_id;
    registry.next_id += 1;
    shared.log_event(&JobEvent::Submitted {
        id,
        spec: spec.clone(),
        shards,
        planned_evals: planned,
    });
    let tenant = spec.tenant.clone();
    registry.jobs.insert(id, Job::queued(spec, shards, planned));
    registry.queue.push(&tenant, id);
    drop(registry);
    obs::counter(obs::Counter::JobsAccepted, 1);
    obs::counter(obs::Counter::JobsQueued, 1);
    shared.changed.notify_all();
    Response::Accepted { job: id }
}

/// Status of one job, or of every job when `job` is `None`.
fn handle_status(shared: &Shared, job: Option<u64>) -> Response {
    let registry = shared.registry.lock().expect("registry lock");
    let snapshot = match job {
        Some(id) => match registry.jobs.get(&id) {
            Some(j) => vec![job_status_of(id, j)],
            None => {
                return Response::Error {
                    message: format!("no such job {id}"),
                }
            }
        },
        None => registry
            .jobs
            .iter()
            .map(|(id, j)| job_status_of(*id, j))
            .collect(),
    };
    drop(registry);
    Response::Jobs {
        jobs: snapshot
            .into_iter()
            .map(|status| with_ledger(shared, status))
            .collect(),
    }
}

fn handle_cancel(shared: &Shared, id: u64) -> Response {
    let mut registry = shared.registry.lock().expect("registry lock");
    let Some(job) = registry.jobs.get(&id) else {
        return Response::Error {
            message: format!("no such job {id}"),
        };
    };
    let status = match job.state {
        JobState::Queued => {
            // Of two concurrent cancels, only the one that dequeued the
            // job records it.
            let dequeued = registry.queue.remove(id);
            drop(registry);
            if dequeued {
                finish(shared, id, JobEvent::Cancelled { id });
            }
            let registry = shared.registry.lock().expect("registry lock");
            job_status_of(id, &registry.jobs[&id])
        }
        JobState::Running => {
            // The worker records the cancellation at its next shard
            // boundary.
            job.cancel.store(true, Ordering::SeqCst);
            let status = job_status_of(id, job);
            drop(registry);
            status
        }
        state => {
            return Response::Error {
                message: format!("job {id} is already {state:?}"),
            }
        }
    };
    Response::Jobs {
        jobs: vec![with_ledger(shared, status)],
    }
}

/// Wait on `changed` while job `id` is not terminal and the daemon is
/// up, for at most `timeout`. The caller hands over the guard it holds,
/// so no change can fall between its last look and the wait.
fn await_change<'a>(
    shared: &Shared,
    registry: MutexGuard<'a, Registry>,
    id: u64,
    timeout: Duration,
) -> MutexGuard<'a, Registry> {
    let (registry, _) = shared
        .changed
        .wait_timeout_while(registry, timeout, |registry| {
            !shared.shutdown.load(Ordering::SeqCst)
                && !registry
                    .jobs
                    .get(&id)
                    .is_some_and(|job| job.state.terminal())
        })
        .expect("registry lock");
    registry
}

/// Stream progress frames for `id` until it reaches a terminal state.
/// `Done` leaves as soon as the worker records the outcome; a run-level
/// progress frame can lag its ledger record by up to `progress_period`.
fn handle_watch(
    shared: &Shared,
    id: u64,
    progress_period: Duration,
    out: &mut impl io::Write,
) -> io::Result<()> {
    let exists = shared
        .registry
        .lock()
        .expect("registry lock")
        .jobs
        .contains_key(&id);
    if !exists {
        return write_frame(
            out,
            &Response::Error {
                message: format!("no such job {id}"),
            },
        );
    }
    let mut seq = 0u64;
    let mut last_runs = usize::MAX;
    // Rung frames start at 0 (not MAX) so fixed-budget jobs — which never
    // complete a rung — stream exactly the frames they always did.
    let mut last_rungs = 0usize;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return write_frame(
                out,
                &Response::Error {
                    message: "daemon shutting down".into(),
                },
            );
        }
        let (state, shards, digest, chosen) = {
            let registry = shared.registry.lock().expect("registry lock");
            let job = &registry.jobs[&id];
            (
                job.state,
                job.shards,
                job.digest.clone(),
                job.chosen.clone(),
            )
        };
        let ledger = job_ledger_status(&shared.config.data_dir, id, shards);
        let runs = ledger.runs_done;
        if runs != last_runs {
            last_runs = runs;
            write_frame(
                out,
                &Response::Progress {
                    job: id,
                    seq,
                    event: counter_event("calibd_runs_completed", runs as u64),
                },
            )?;
            seq += 1;
        }
        let rungs = ledger.rungs_done;
        if rungs != last_rungs {
            last_rungs = rungs;
            write_frame(
                out,
                &Response::Progress {
                    job: id,
                    seq,
                    event: counter_event("calibd_rungs_completed", rungs as u64),
                },
            )?;
            seq += 1;
        }
        if state.terminal() {
            return write_frame(
                out,
                &Response::Done {
                    job: id,
                    state,
                    digest,
                    chosen,
                },
            );
        }
        let registry = shared.registry.lock().expect("registry lock");
        drop(await_change(shared, registry, id, progress_period));
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // Frames are small and each answers a waiting client: never batch them.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    // The connection opens with a Hello exchange; anything else is a
    // protocol error that closes the connection.
    match read_frame(&mut reader) {
        Ok(Some(line)) => match parse_request(&line) {
            Ok(Request::Hello { schema, version }) => {
                if let Err(e) = check_hello(&schema, version) {
                    write_frame(
                        &mut writer,
                        &Response::Error {
                            message: e.to_string(),
                        },
                    )?;
                    return Ok(());
                }
                write_frame(
                    &mut writer,
                    &Response::Hello {
                        schema: SCHEMA_NAME.into(),
                        version: SCHEMA_VERSION,
                    },
                )?;
            }
            Ok(_) => {
                write_frame(
                    &mut writer,
                    &Response::Error {
                        message: "first frame must be Hello".into(),
                    },
                )?;
                return Ok(());
            }
            Err(e) => {
                write_frame(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                )?;
                return Ok(());
            }
        },
        Ok(None) => return Ok(()),
        Err(e) => {
            let _ = write_frame(
                &mut writer,
                &Response::Error {
                    message: e.to_string(),
                },
            );
            return Ok(());
        }
    }

    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e @ FrameError::Oversized { .. }) => {
                let _ = write_frame(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        let response = match parse_request(&line) {
            Ok(Request::Hello { schema, version }) => match check_hello(&schema, version) {
                Ok(()) => Response::Hello {
                    schema: SCHEMA_NAME.into(),
                    version: SCHEMA_VERSION,
                },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Ok(Request::Submit { spec }) => admit(shared, spec),
            Ok(Request::Status { job }) => handle_status(shared, job),
            Ok(Request::Watch { job }) => {
                handle_watch(shared, job, PROGRESS_PERIOD, &mut writer)?;
                continue;
            }
            Ok(Request::Cancel { job }) => handle_cancel(shared, job),
            Ok(Request::Shutdown) => {
                write_frame(&mut writer, &Response::ShuttingDown)?;
                shared.begin_shutdown();
                return Ok(());
            }
            Err(
                e @ (ProtoError::UnknownKind(_)
                | ProtoError::BadJson(_)
                | ProtoError::Invalid(_)
                | ProtoError::BadHello(_)),
            ) => Response::Error {
                message: e.to_string(),
            },
        };
        write_frame(&mut writer, &response)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::parse_response;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn fair_queue_round_robins_across_tenants() {
        let mut q = FairQueue::default();
        q.push("a", 1);
        q.push("a", 2);
        q.push("a", 3);
        q.push("b", 4);
        q.push("c", 5);
        // One job per tenant per rotation: a, b, c, then a's backlog.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fair_queue_removal_and_reuse() {
        let mut q = FairQueue::default();
        q.push("a", 1);
        q.push("b", 2);
        assert!(q.remove(1));
        assert!(!q.remove(99));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
        // A drained tenant accepts new work without duplicating its
        // rotation slot.
        q.push("a", 3);
        q.push("a", 4);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn planned_evaluations_cover_both_budget_shapes() {
        let mut spec = JobSpec {
            family: "batch".into(),
            fast: true,
            budget_evals: 5,
            total_evals: None,
            restarts: 2,
            seed: 1,
            epsilon: 0.1,
            shards: 0,
            tenant: "t".into(),
            sh_eta: None,
            sh_min_scenarios: None,
        };
        assert_eq!(spec.planned_evaluations(4), 4 * 2 * 5);
        spec.total_evals = Some(123);
        assert_eq!(spec.planned_evaluations(4), 123);
        spec.total_evals = None;
        spec.restarts = 0; // clamped to 1, like the sweep itself
        assert_eq!(spec.planned_evaluations(4), 4 * 5);
    }

    #[test]
    fn planned_evaluations_follow_the_sh_schedule() {
        let spec = JobSpec {
            family: "batch".into(),
            fast: true,
            budget_evals: 5,
            total_evals: Some(48),
            restarts: 2,
            seed: 1,
            epsilon: 0.1,
            shards: 0,
            tenant: "t".into(),
            sh_eta: Some(2),
            sh_min_scenarios: None,
        };
        // 4 units × 2 restarts = 8 runs: the eta-2 ladder over a 48
        // budget spends 44 (see the ShSchedule tests), and the charge
        // matches what the sweep will actually consume.
        assert_eq!(spec.planned_evaluations(4), 44);
        // An unplannable total charges as requested; the worker's typed
        // failure refunds it.
        let starved = JobSpec {
            total_evals: Some(9),
            ..spec
        };
        assert_eq!(starved.planned_evaluations(4), 9);
    }

    #[test]
    fn replay_keeps_the_first_terminal_record_of_a_job() {
        // A log written before terminal records were made unique can end
        // one job twice. Job 1 was cancelled (refunded) and job 3 failed
        // (refunded); their second records must change nothing, so the
        // tenant is charged only for the queued job 2.
        let submitted = |id| JobEvent::Submitted {
            id,
            spec: tiny_spec(),
            shards: 1,
            planned_evals: 10,
        };
        let events = vec![
            submitted(1),
            submitted(2),
            submitted(3),
            JobEvent::Cancelled { id: 1 },
            JobEvent::Completed {
                id: 1,
                digest: "d".into(),
                chosen: None,
            },
            JobEvent::Failed {
                id: 3,
                error: "e".into(),
            },
            JobEvent::Cancelled { id: 3 },
        ];
        let quotas = QuotaBook::new(100);
        let registry = replay(events, &quotas);
        let states: Vec<JobState> = registry.jobs.values().map(|j| j.state).collect();
        assert_eq!(
            states,
            vec![JobState::Cancelled, JobState::Queued, JobState::Failed]
        );
        assert_eq!(registry.jobs[&1].digest, None);
        assert_eq!(quotas.charged("t"), 10);
        assert_eq!(registry.queue.len(), 1);
    }

    // One wake-up test per transition a watcher can wait for. Each blocks
    // a waiter in `await_change` with a timeout that only a missed
    // notification can reach.

    const WAIT: Duration = Duration::from_secs(60);

    /// A daemon with `workers` workers in a fresh data dir.
    fn start(tag: &str, workers: usize) -> (DaemonHandle, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "calibd-wake-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DaemonConfig {
            workers,
            ..DaemonConfig::local(&dir)
        };
        (Daemon::start(config).expect("daemon starts"), dir)
    }

    /// A batch job that finishes in well under a second.
    fn tiny_spec() -> JobSpec {
        JobSpec {
            family: "batch".into(),
            fast: true,
            budget_evals: 2,
            total_evals: None,
            restarts: 1,
            seed: 7,
            epsilon: 0.1,
            shards: 1,
            tenant: "t".into(),
            sh_eta: None,
            sh_min_scenarios: None,
        }
    }

    /// The starved successive-halving total of
    /// `starved_sh_job_fails_typed_and_refunds_quota`: admitted, then
    /// failed by the worker.
    fn starved_spec() -> JobSpec {
        JobSpec {
            budget_evals: 6,
            total_evals: Some(9),
            seed: 3,
            sh_eta: Some(2),
            ..tiny_spec()
        }
    }

    fn submit(shared: &Shared, spec: JobSpec) -> u64 {
        match admit(shared, spec) {
            Response::Accepted { job } => job,
            other => panic!("not admitted: {other:?}"),
        }
    }

    fn state_of(shared: &Shared, id: u64) -> JobState {
        shared.registry.lock().expect("registry lock").jobs[&id].state
    }

    /// Block a waiter in `await_change` on job `id`, run `trigger`, and
    /// assert that a notification, not the timeout, woke the waiter. It
    /// announces itself while it still holds the registry lock, and every
    /// transition needs that lock, so `trigger` cannot make its change
    /// before the waiter blocks.
    fn assert_wakes(shared: &Arc<Shared>, id: u64, trigger: impl FnOnce()) {
        let (blocked, is_blocked) = mpsc::channel();
        let waiter = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                let registry = shared.registry.lock().expect("registry lock");
                let start = Instant::now();
                blocked.send(()).expect("test thread listens");
                drop(await_change(&shared, registry, id, WAIT));
                start.elapsed()
            })
        };
        is_blocked.recv().expect("waiter announces itself");
        trigger();
        let waited = waiter.join().expect("waiter thread");
        assert!(waited < WAIT / 4, "missed wake-up: waited {waited:?}");
    }

    #[test]
    fn a_watcher_wakes_when_its_job_completes() {
        let (handle, dir) = start("completed", 1);
        let shared = Arc::clone(&handle.shared);
        // Job 1 does not exist yet when the waiter blocks: the enqueue
        // must wake the idle worker, and the completion the waiter.
        assert_wakes(&shared, 1, || assert_eq!(submit(&shared, tiny_spec()), 1));
        assert_eq!(state_of(&shared, 1), JobState::Completed);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_watcher_wakes_when_its_job_fails() {
        let (handle, dir) = start("failed", 1);
        let shared = Arc::clone(&handle.shared);
        assert_wakes(&shared, 1, || {
            assert_eq!(submit(&shared, starved_spec()), 1);
        });
        assert_eq!(state_of(&shared, 1), JobState::Failed);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_watcher_wakes_when_its_queued_job_is_cancelled() {
        let (handle, dir) = start("cancel-queued", 0);
        let shared = Arc::clone(&handle.shared);
        let id = submit(&shared, tiny_spec());
        assert_wakes(&shared, id, || {
            handle_cancel(&shared, id);
        });
        assert_eq!(state_of(&shared, id), JobState::Cancelled);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_watcher_wakes_when_its_running_job_is_cancelled() {
        let (handle, dir) = start("cancel-running", 0);
        let shared = Arc::clone(&handle.shared);
        let id = submit(&shared, tiny_spec());
        // Claim the job as a worker does, so the cancel only raises the
        // flag.
        assert_eq!(
            shared.registry.lock().expect("registry lock").claim(),
            Some(id)
        );
        let Response::Jobs { jobs } = handle_cancel(&shared, id) else {
            panic!("a running job can be cancelled");
        };
        assert_eq!(jobs[0].state, JobState::Running);
        // The worker finds the flag at its first shard boundary.
        assert_wakes(&shared, id, || execute_job(&shared, id));
        assert_eq!(state_of(&shared, id), JobState::Cancelled);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Job `id`'s terminal records in `dir`'s `jobs.jsonl`.
    fn terminal_records(dir: &Path, id: u64) -> Vec<JobEvent> {
        simcal::jsonl::read(&dir.join("jobs.jsonl"))
            .expect("jobs.jsonl reads")
            .into_iter()
            .filter(|event| match event {
                JobEvent::Completed { id: of, .. }
                | JobEvent::Failed { id: of, .. }
                | JobEvent::Cancelled { id: of } => *of == id,
                JobEvent::Submitted { .. } => false,
            })
            .collect()
    }

    #[test]
    fn a_job_cancelled_right_after_its_claim_ends_once() {
        let (handle, dir) = start("claim-cancel", 0);
        let shared = Arc::clone(&handle.shared);
        let id = submit(&shared, tiny_spec());
        assert_eq!(
            shared.registry.lock().expect("registry lock").claim(),
            Some(id)
        );
        handle_cancel(&shared, id);
        execute_job(&shared, id);
        assert_eq!(terminal_records(&dir, id), vec![JobEvent::Cancelled { id }]);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_paused_by_shutdown_can_still_be_cancelled() {
        let (handle, dir) = start("pause-cancel", 0);
        let shared = Arc::clone(&handle.shared);
        let id = submit(&shared, tiny_spec());
        assert_eq!(
            shared.registry.lock().expect("registry lock").claim(),
            Some(id)
        );
        handle.shutdown();
        execute_job(&shared, id);
        assert_eq!(state_of(&shared, id), JobState::Queued);
        handle_cancel(&shared, id);
        assert_eq!(terminal_records(&dir, id), vec![JobEvent::Cancelled { id }]);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_canceller_that_dequeued_a_job_logs_and_refunds() {
        let (handle, dir) = start("double-cancel", 0);
        let shared = Arc::clone(&handle.shared);
        let first = submit(&shared, tiny_spec());
        let second = submit(&shared, tiny_spec());
        // A first canceller has dequeued job 1 but not yet recorded it.
        assert!(shared
            .registry
            .lock()
            .expect("registry lock")
            .queue
            .remove(first));
        handle_cancel(&shared, first);
        finish(&shared, first, JobEvent::Cancelled { id: first });
        assert_eq!(
            terminal_records(&dir, first),
            vec![JobEvent::Cancelled { id: first }]
        );
        let second_charge =
            shared.registry.lock().expect("registry lock").jobs[&second].planned_evals;
        assert_eq!(shared.quotas.charged("t"), second_charge);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_watcher_wakes_when_the_daemon_handle_shuts_down() {
        let (handle, dir) = start("shutdown-handle", 0);
        let shared = Arc::clone(&handle.shared);
        let id = submit(&shared, tiny_spec());
        assert_wakes(&shared, id, || handle.shutdown());
        assert_eq!(state_of(&shared, id), JobState::Queued);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_watcher_wakes_when_a_client_shuts_the_daemon_down() {
        let (handle, dir) = start("shutdown-request", 0);
        let shared = Arc::clone(&handle.shared);
        let id = submit(&shared, tiny_spec());
        let addr = handle.addr().to_string();
        assert_wakes(&shared, id, || {
            let mut client = Client::connect(&addr).expect("daemon accepts");
            client.shutdown().expect("daemon acknowledges");
        });
        // The woken watch ends with the shutdown error frame.
        let mut frames = Vec::new();
        handle_watch(&shared, id, WAIT, &mut frames).expect("writes to a buffer");
        let line = read_frame(&mut frames.as_slice())
            .expect("one frame")
            .expect("not empty");
        assert_eq!(
            parse_response(&line),
            Some(Response::Error {
                message: "daemon shutting down".into()
            })
        );
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
