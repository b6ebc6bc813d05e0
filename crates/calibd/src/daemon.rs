//! The calibd daemon: a job registry, fair multi-tenant scheduling,
//! sharded sweep execution, and the TCP frontend.
//!
//! ## Durability and replay
//!
//! A job's logged state changes in one place: `Registry::apply`, which
//! takes one [`JobEvent`]. A live transition is applied and then
//! appended to `data_dir/jobs.jsonl`, a [`simcal::jsonl`] log, both under
//! the registry lock; so a transition is reserved before it is logged,
//! and the log's order is the apply order. On startup the daemon replays
//! the log as a fold of the same `apply`: a job with a `Submitted` event
//! but no terminal event comes back queued and resumes from its ledger
//! shards under `data_dir/job-<id>/`. Every calibration run already
//! checkpointed there is served without re-consuming any budget, so a
//! kill at any point re-runs at most the work that was in flight, and
//! the resumed outcome digest is bit-for-bit what an uninterrupted run
//! would have produced. `apply` refuses to end a job that is unknown or
//! already terminal, so the first terminal record of a job wins (only
//! logs written before terminal records were made unique end a job
//! twice) and no job is refunded twice. Two moves are not logged: a
//! worker's claim (queued to running) and the pause of a running job at
//! shutdown (running to queued). A restart reads a running job as
//! queued.
//!
//! ## Quota semantics
//!
//! Each tenant has a limit ([`DaemonConfig::tenant_quotas`], else
//! [`DaemonConfig::default_quota`]) and a charge. Limits gate admission
//! only: a submission is refused when its planned evaluation count
//! exceeds the tenant's limit minus its charge. `apply(Submitted)`
//! charges the full planned count (the plan is deterministic, so the
//! count is exact) unconditionally, live and on replay: a replayed job is
//! always re-charged, even under a limit a restart lowered below its
//! charge, which then blocks admissions until refunds make room.
//! Completion keeps the charge; failure and cancellation refund it in
//! full.
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
//! run-level progress. Nothing reads from disk under the registry lock;
//! only the `jobs.jsonl` appends write there.

use crate::proto::{
    check_hello, counter_event, parse_request, read_frame, write_frame, FrameError, JobSpec,
    JobState, JobStatus, Request, Response, SCHEMA_NAME, SCHEMA_VERSION,
};
use lodsel::ledger::{ledger_status, Ledger, LedgerEvent, LedgerStatus};
use lodsel::prelude::SweepConfig;
use lodsel::shard::{merge_shards, run_shard, shard_path};
use lodsel::sweep::try_run_sweep;
use serde::{Deserialize, Serialize};
use simcal::jsonl::JsonlLog;
use simcal::prelude::Budget;
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

/// A transition [`Registry::apply`] refuses; the text is a client's error.
#[derive(Debug, PartialEq)]
struct Illegal(String);

/// Every job, the queue, the tenants' quota accounts and the job log:
/// everything that changes under the registry lock.
struct Registry {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    queue: FairQueue,
    /// Tenant limits: `limits`, else `default_quota` (module doc,
    /// "Quota semantics").
    default_quota: usize,
    limits: BTreeMap<String, usize>,
    /// Evaluations each tenant's jobs hold.
    charged: BTreeMap<String, usize>,
    log: JsonlLog,
}

impl Registry {
    /// Open `jobs.jsonl` and replay it: a fold of [`Registry::apply`],
    /// in which a refused event (a job's second terminal record, say)
    /// changes nothing.
    fn open(config: &DaemonConfig) -> io::Result<Registry> {
        let (log, events) = JsonlLog::open(&config.data_dir.join("jobs.jsonl"))?;
        let mut registry = Registry {
            next_id: 1,
            jobs: BTreeMap::new(),
            queue: FairQueue::default(),
            default_quota: config.default_quota,
            limits: config.tenant_quotas.iter().cloned().collect(),
            charged: BTreeMap::new(),
            log,
        };
        for event in events {
            let _ = registry.apply(event);
        }
        Ok(registry)
    }

    /// The one writer of a job's logged state, live and on replay.
    /// `Submitted` inserts, charges and enqueues a new job (a repeated
    /// record, which a retried append can leave, is refused); a terminal
    /// event ends a queued or running job, taking it off the queue, and
    /// `Failed` and `Cancelled` refund its charge.
    fn apply(&mut self, event: JobEvent) -> Result<(), Illegal> {
        let id = match event {
            JobEvent::Submitted {
                id,
                spec,
                shards,
                planned_evals,
            } => {
                if self.jobs.contains_key(&id) {
                    return Err(Illegal(format!("job {id} already exists")));
                }
                *self.charged.entry(spec.tenant.clone()).or_default() += planned_evals;
                self.queue.push(&spec.tenant, id);
                self.next_id = self.next_id.max(id + 1);
                let job = Job {
                    spec,
                    shards,
                    planned_evals,
                    state: JobState::Queued,
                    digest: None,
                    chosen: None,
                    error: None,
                    cancel: Arc::default(),
                };
                self.jobs.insert(id, job);
                return Ok(());
            }
            JobEvent::Completed { id, .. }
            | JobEvent::Failed { id, .. }
            | JobEvent::Cancelled { id } => id,
        };
        let job = self
            .jobs
            .get_mut(&id)
            .ok_or_else(|| Illegal(format!("no such job {id}")))?;
        if job.state.terminal() {
            return Err(Illegal(format!("job {id} is already {:?}", job.state)));
        }
        if job.state == JobState::Queued {
            self.queue.remove(id);
        }
        job.state = match event {
            JobEvent::Completed { digest, chosen, .. } => {
                job.digest = Some(digest);
                job.chosen = chosen;
                JobState::Completed
            }
            JobEvent::Failed { error, .. } => {
                job.error = Some(error);
                JobState::Failed
            }
            _ => JobState::Cancelled,
        };
        if job.state != JobState::Completed {
            let charged = self.charged.get_mut(&job.spec.tenant);
            *charged.expect("a job's tenant is charged at its submission") -= job.planned_evals;
        }
        Ok(())
    }

    /// Apply `event`, then append it to `jobs.jsonl`. A failed append
    /// must not take the daemon down (only the job's durability across a
    /// restart degrades), but it is reported, never swallowed.
    fn record(&mut self, event: JobEvent) -> Result<(), Illegal> {
        self.apply(event.clone())?;
        if let Err(e) = self.log.append(&event) {
            obs::diag!("jobs.jsonl append failed: {e}");
        }
        Ok(())
    }

    /// Admit a job planning `planned` evaluations, or refuse it when they
    /// exceed what its tenant's limit leaves.
    fn admit(&mut self, spec: JobSpec, shards: usize, planned: usize) -> Result<u64, Illegal> {
        let tenant = &spec.tenant;
        let limit = self
            .limits
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota);
        let remaining = limit.saturating_sub(self.charged.get(tenant).copied().unwrap_or(0));
        if planned > remaining {
            return Err(Illegal(format!(
                "tenant {tenant} quota exceeded: requested {planned} evaluations, {remaining} remaining"
            )));
        }
        let id = self.next_id;
        self.record(JobEvent::Submitted {
            id,
            spec,
            shards,
            planned_evals: planned,
        })?;
        Ok(id)
    }

    /// A client's cancel. A running job's worker records it at its next
    /// shard boundary; any other job is cancelled now, or refused.
    fn cancel(&mut self, id: u64) -> Result<(), Illegal> {
        match self.jobs.get(&id) {
            Some(job) if job.state == JobState::Running => {
                job.cancel.store(true, Ordering::SeqCst);
                Ok(())
            }
            _ => self.record(JobEvent::Cancelled { id }),
        }
    }

    /// Take the next queued job for a worker and mark it `Running` (not
    /// logged) in the same critical section, so a cancel finds it either
    /// queued or running, never in between.
    fn claim(&mut self) -> Option<u64> {
        let id = self.queue.pop()?;
        self.jobs.get_mut(&id)?.state = JobState::Running;
        Some(id)
    }

    /// Put a running job back in the queue (not logged): its worker
    /// stopped at a shard boundary for shutdown. No worker claims it
    /// again once `shutdown` is set, but a cancel can still take it.
    fn pause(&mut self, id: u64) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = JobState::Queued;
            self.queue.push(&job.spec.tenant, id);
        }
    }
}

struct Shared {
    config: DaemonConfig,
    addr: SocketAddr,
    registry: Mutex<Registry>,
    /// "The registry changed" (module doc, "Scheduling").
    changed: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("registry lock")
    }

    /// Ask every thread to stop. The flag is stored under the registry
    /// lock, so a worker or watcher that found it clear under the lock is
    /// already waiting when `notify_all` runs.
    fn begin_shutdown(&self) {
        let registry = self.lock();
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
        let registry = Registry::open(&config)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            addr,
            registry: Mutex::new(registry),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
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
            let mut registry = shared.lock();
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
        let registry = shared.lock();
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
    // Only the worker that claimed a job ends it while it runs, so
    // `apply` accepts the outcome.
    let end = |event| {
        let _ = shared.lock().record(event);
        shared.changed.notify_all();
    };
    let failed = |error: String| end(JobEvent::Failed { id, error });
    let cancelled = || end(JobEvent::Cancelled { id });

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
            // resumes the job from the shard ledgers.
            return shared.lock().pause(id);
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
    end(JobEvent::Completed { id, digest, chosen });
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

/// Validate a submission, then admit or refuse it under the registry lock.
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
    let admitted = shared.lock().admit(spec, shards, planned);
    match admitted {
        Ok(id) => {
            obs::counter(obs::Counter::JobsAccepted, 1);
            obs::counter(obs::Counter::JobsQueued, 1);
            shared.changed.notify_all();
            Response::Accepted { job: id }
        }
        Err(Illegal(reason)) => Response::Rejected { reason },
    }
}

/// Status of one job, or of every job when `job` is `None`.
fn handle_status(shared: &Shared, job: Option<u64>) -> Response {
    let registry = shared.lock();
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
    let mut registry = shared.lock();
    let status = registry
        .cancel(id)
        .map(|()| job_status_of(id, &registry.jobs[&id]));
    drop(registry);
    shared.changed.notify_all();
    match status {
        Ok(status) => Response::Jobs {
            jobs: vec![with_ledger(shared, status)],
        },
        Err(Illegal(message)) => Response::Error { message },
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
    let exists = shared.lock().jobs.contains_key(&id);
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
            let registry = shared.lock();
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
        drop(await_change(shared, shared.lock(), id, progress_period));
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // Frames are small and each answers a waiting client: never batch them.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // The connection opens with a Hello exchange: a first frame that is
    // not an accepted Hello is answered with an `Error`, and the
    // connection closes.
    let mut greeted = false;
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
                Ok(()) => {
                    greeted = true;
                    Response::Hello {
                        schema: SCHEMA_NAME.into(),
                        version: SCHEMA_VERSION,
                    }
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Ok(_) if !greeted => Response::Error {
                message: "first frame must be Hello".into(),
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
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        };
        write_frame(&mut writer, &response)?;
        if !greeted {
            return Ok(());
        }
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

    /// A data dir removed when dropped.
    struct DataDir(PathBuf);

    impl DataDir {
        fn new(tag: &str) -> DataDir {
            let dir = std::env::temp_dir().join(format!(
                "calibd-unit-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            DataDir(dir)
        }

        /// An accept-only daemon's configuration, rooted here.
        fn config(&self, default_quota: usize) -> DaemonConfig {
            DaemonConfig {
                workers: 0,
                default_quota,
                ..DaemonConfig::local(&self.0)
            }
        }

        /// The registry a restart builds from `events` in `jobs.jsonl`.
        fn replay(&self, events: &[JobEvent]) -> Registry {
            let config = self.config(100);
            let path = config.data_dir.join("jobs.jsonl");
            let (mut log, _) = JsonlLog::open::<JobEvent>(&path).expect("log opens");
            for event in events {
                log.append(event).expect("log appends");
            }
            Registry::open(&config).expect("log replays")
        }
    }

    impl Drop for DataDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spec_for(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            ..tiny_spec()
        }
    }

    #[test]
    fn replay_keeps_the_first_terminal_record_of_a_job() {
        // A log written before terminal records were made unique can end
        // one job twice. Job 1 was cancelled (refunded) and job 3 failed
        // (refunded); their second records must change nothing, and so
        // must a repeated `Submitted` record of job 2, so the tenant is
        // charged once, for the queued job 2.
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
            submitted(2),
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
        let dir = DataDir::new("first-terminal");
        let registry = dir.replay(&events);
        let states: Vec<JobState> = registry.jobs.values().map(|j| j.state).collect();
        assert_eq!(
            states,
            vec![JobState::Cancelled, JobState::Queued, JobState::Failed]
        );
        assert_eq!(registry.jobs[&1].digest, None);
        assert_eq!(registry.charged["t"], 10);
        assert_eq!(registry.queue.len(), 1);
        assert_eq!(registry.next_id, 4);
    }

    #[test]
    fn admission_charges_accumulate_up_to_the_limit() {
        let dir = DataDir::new("quota-limit");
        let mut registry = Registry::open(&dir.config(100)).expect("opens");
        assert_eq!(registry.admit(tiny_spec(), 1, 60), Ok(1));
        // The refusal names the tenant, the request and what remains...
        assert_eq!(
            registry.admit(tiny_spec(), 1, 41),
            Err(Illegal(
                "tenant t quota exceeded: requested 41 evaluations, 40 remaining".into()
            ))
        );
        // ...and changes nothing: no job, no charge, no record.
        assert_eq!(registry.jobs.len(), 1);
        assert_eq!(registry.charged["t"], 60);
        assert_eq!(registry.admit(tiny_spec(), 1, 40), Ok(2));
        assert!(registry.admit(tiny_spec(), 1, 1).is_err());
        let log: Vec<JobEvent> = simcal::jsonl::read(&dir.0.join("jobs.jsonl")).expect("reads");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn tenants_have_their_own_limits_and_charges() {
        let dir = DataDir::new("quota-tenants");
        let config = DaemonConfig {
            tenant_quotas: vec![("big".into(), 1000)],
            ..dir.config(10)
        };
        let mut registry = Registry::open(&config).expect("opens");
        assert!(registry.admit(spec_for("big"), 1, 500).is_ok());
        assert!(registry.admit(spec_for("big"), 1, 500).is_ok());
        assert!(registry.admit(spec_for("big"), 1, 1).is_err());
        // The default tenant is unaffected by big's limit and charge.
        assert!(registry.admit(spec_for("small"), 1, 11).is_err());
        assert!(registry.admit(spec_for("small"), 1, 10).is_ok());
    }

    #[test]
    fn failure_and_cancellation_refund_once_and_completion_keeps_the_charge() {
        let dir = DataDir::new("quota-refund");
        let mut registry = Registry::open(&dir.config(50)).expect("opens");
        for _ in 0..3 {
            registry.admit(tiny_spec(), 1, 10).expect("fits");
        }
        let completed = JobEvent::Completed {
            id: 1,
            digest: "d".into(),
            chosen: None,
        };
        let failed = JobEvent::Failed {
            id: 2,
            error: "e".into(),
        };
        registry.apply(completed).expect("queued job completes");
        assert_eq!(registry.charged["t"], 30);
        registry.apply(failed.clone()).expect("queued job fails");
        registry
            .apply(JobEvent::Cancelled { id: 3 })
            .expect("cancels");
        assert_eq!(registry.charged["t"], 10);
        assert!(registry.queue.is_empty(), "ended jobs leave the queue");
        // A job is never refunded twice: a second end is refused.
        assert_eq!(
            registry.apply(JobEvent::Cancelled { id: 2 }),
            Err(Illegal("job 2 is already Failed".into()))
        );
        assert!(registry.apply(failed).is_err());
        assert!(registry.apply(JobEvent::Cancelled { id: 1 }).is_err());
        // Ending an unknown job is refused too.
        assert_eq!(
            registry.apply(JobEvent::Cancelled { id: 9 }),
            Err(Illegal("no such job 9".into()))
        );
        assert_eq!(registry.charged["t"], 10);
        assert!(registry.admit(tiny_spec(), 1, 40).is_ok());
    }

    #[test]
    fn a_replayed_job_is_recharged_under_a_lowered_limit() {
        let dir = DataDir::new("quota-lowered");
        let mut registry = Registry::open(&dir.config(100)).expect("opens");
        assert_eq!(registry.admit(tiny_spec(), 1, 80), Ok(1));
        drop(registry);
        let mut registry = Registry::open(&dir.config(50)).expect("replays");
        assert_eq!(registry.charged["t"], 80);
        assert_eq!(
            registry.admit(tiny_spec(), 1, 1),
            Err(Illegal(
                "tenant t quota exceeded: requested 1 evaluations, 0 remaining".into()
            ))
        );
        assert_eq!(registry.cancel(1), Ok(()));
        assert_eq!(registry.admit(tiny_spec(), 1, 50), Ok(2));
    }

    /// Every ordering of `counts[a]` steps of each actor `a`.
    fn interleavings(counts: &mut [usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if counts.iter().all(|&c| c == 0) {
            out.push(prefix.clone());
        }
        for actor in 0..counts.len() {
            if counts[actor] > 0 {
                counts[actor] -= 1;
                prefix.push(actor);
                interleavings(counts, prefix, out);
                prefix.pop();
                counts[actor] += 1;
            }
        }
    }

    /// What a restart must rebuild from the log: each job's logged state
    /// (a running job reads as queued), the charges and the next id.
    fn durable(registry: &Registry) -> String {
        let jobs: Vec<_> = registry
            .jobs
            .iter()
            .map(|(id, job)| {
                let state = match job.state {
                    JobState::Running => JobState::Queued,
                    state => state,
                };
                (id, state, &job.digest, &job.chosen, &job.error)
            })
            .collect();
        format!("{jobs:?} {:?} {}", registry.charged, registry.next_id)
    }

    #[test]
    fn every_interleaving_of_one_job_keeps_the_lifecycle_legal() {
        // Actors: 0 submits job 1, 1 cancels it (two steps: two clients),
        // 2 and 3 are workers (a claim, then a shard boundary at which
        // worker 2 completes and worker 3 fails the job it holds), and 4
        // shuts the daemon down. Each step is one critical section of the
        // real code, made on the real `Registry`.
        const PLANNED: usize = 10;
        let dir = DataDir::new("explore");
        let config = dir.config(100);
        let log_path = config.data_dir.join("jobs.jsonl");
        let mut orderings = Vec::new();
        interleavings(&mut [1, 2, 2, 2, 1], &mut Vec::new(), &mut orderings);
        assert_eq!(orderings.len(), 5040);
        let mut endings = std::collections::BTreeSet::new();
        for ordering in &orderings {
            let _ = std::fs::remove_file(&log_path);
            let mut registry = Registry::open(&config).expect("opens");
            let (mut shutdown, mut claimed, mut holds) = (false, [false; 2], [false; 2]);
            let mut refunds = 0;
            for (k, &actor) in ordering.iter().enumerate() {
                let at = format!("{ordering:?} step {k}");
                let state = registry.jobs.get(&1).map(|job| job.state);
                let charged = registry.charged.get("t").copied().unwrap_or(0);
                match actor {
                    0 => assert_eq!(registry.admit(tiny_spec(), 1, PLANNED), Ok(1)),
                    1 => {
                        let _ = registry.cancel(1);
                    }
                    // `worker_loop`: no claim once shutdown is set.
                    2 | 3 if !claimed[actor - 2] => {
                        claimed[actor - 2] = true;
                        if !shutdown && registry.claim().is_some() {
                            assert_eq!(state, Some(JobState::Queued), "{at}: claimed");
                            holds[actor - 2] = true;
                        }
                    }
                    // `execute_job` at a shard boundary.
                    2 | 3 if std::mem::take(&mut holds[actor - 2]) => {
                        if registry.jobs[&1].cancel.load(Ordering::SeqCst) {
                            let end = registry.record(JobEvent::Cancelled { id: 1 });
                            assert_eq!(end, Ok(()), "{at}: worker's cancel");
                        } else if shutdown {
                            registry.pause(1);
                        } else {
                            let end = if actor == 2 {
                                JobEvent::Completed {
                                    id: 1,
                                    digest: "d".into(),
                                    chosen: None,
                                }
                            } else {
                                JobEvent::Failed {
                                    id: 1,
                                    error: "e".into(),
                                }
                            };
                            assert_eq!(registry.record(end), Ok(()), "{at}: worker's end");
                        }
                    }
                    2 | 3 => {}
                    _ => shutdown = true,
                }
                let state = registry.jobs.get(&1).map(|job| job.state);
                let now = registry.charged.get("t").copied().unwrap_or(0);
                refunds += usize::from(now < charged);
                let expected = match state {
                    Some(JobState::Failed | JobState::Cancelled) | None => 0,
                    Some(_) => PLANNED,
                };
                assert!(refunds <= 1 && now == expected, "{at}: charged {now}");
                let queued = state == Some(JobState::Queued);
                assert_eq!(registry.queue.len(), usize::from(queued), "{at}: queue");
                let log: Vec<JobEvent> = simcal::jsonl::read(&log_path).expect("reads");
                let ends = log
                    .iter()
                    .filter(|e| !matches!(e, JobEvent::Submitted { .. }));
                assert!(ends.count() <= 1, "{at}: {log:?}");
                let replayed = Registry::open(&config).expect("replays");
                assert_eq!(durable(&replayed), durable(&registry), "{at}: replay");
            }
            endings.insert(format!("{:?}", registry.jobs[&1].state));
        }
        // Every way a job can be left was reached.
        assert_eq!(
            endings.into_iter().collect::<Vec<_>>(),
            ["Cancelled", "Completed", "Failed", "Queued"]
        );
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
        shared.lock().jobs[&id].state
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
                let registry = shared.lock();
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
        assert_eq!(shared.lock().claim(), Some(id));
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
        assert_eq!(shared.lock().claim(), Some(id));
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
        assert_eq!(shared.lock().claim(), Some(id));
        handle.shutdown();
        execute_job(&shared, id);
        assert_eq!(state_of(&shared, id), JobState::Queued);
        handle_cancel(&shared, id);
        assert_eq!(terminal_records(&dir, id), vec![JobEvent::Cancelled { id }]);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_cancel_is_refused_and_refunds_nothing() {
        let (handle, dir) = start("double-cancel", 0);
        let shared = Arc::clone(&handle.shared);
        let first = submit(&shared, tiny_spec());
        let second = submit(&shared, tiny_spec());
        assert!(matches!(
            handle_cancel(&shared, first),
            Response::Jobs { .. }
        ));
        assert_eq!(
            handle_cancel(&shared, first),
            Response::Error {
                message: format!("job {first} is already Cancelled")
            }
        );
        assert_eq!(
            terminal_records(&dir, first),
            vec![JobEvent::Cancelled { id: first }]
        );
        let registry = shared.lock();
        assert_eq!(registry.charged["t"], registry.jobs[&second].planned_evals);
        drop(registry);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_is_stored_under_the_registry_lock() {
        let (handle, dir) = start("shutdown-lock", 0);
        let shared = Arc::clone(&handle.shared);
        let registry = shared.lock();
        let (started, has_started) = mpsc::channel();
        let stopper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                started.send(()).expect("test thread listens");
                shared.begin_shutdown();
            })
        };
        has_started.recv().expect("stopper announces itself");
        // No hook shows the stopper blocked on the lock, so give a store
        // made before `lock()` time to land. Correct code cannot store
        // the flag while this thread holds the lock, however long it
        // waits, so the wait cannot make the test fail spuriously.
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            !shared.shutdown.load(Ordering::SeqCst),
            "shutdown was stored while another thread held the registry lock"
        );
        drop(registry);
        stopper.join().expect("stopper thread");
        assert!(shared.shutdown.load(Ordering::SeqCst));
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
