//! The workflow simulator: executes a workflow on a submit-node + workers
//! platform at a configurable level of detail (paper §5.2).
//!
//! The execution model mirrors the paper's Pegasus/HTCondor deployment:
//! the workflow's input data starts on the submit node's disk; workers run
//! tasks on their cores; all data moves between the submit node and the
//! workers (with optional worker-local storage reuse under
//! [`StorageModel::AllNodes`]); task starts go either directly to workers
//! or through an HTCondor-style negotiation-cycle service.
//!
//! One execution engine serves both the 12 candidate simulator versions
//! (via [`WorkflowSimulator`]) and the ground-truth emulator (which layers
//! extra hidden effects on top through the resolved model's noise fields).

use crate::versions::{ComputeModel, NetworkModel, SimulatorVersion, StorageModel};
use crate::workflow::{FileId, TaskId, Workflow};
use dessim::{ActivityKind, DiskId, Engine, LinkId, Platform};
use numeric::{lognormal, rng_from_seed};
use simcal::prelude::{Calibration, Knob, ParamKind};
use std::collections::VecDeque;

/// Result of simulating one workflow execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutput {
    /// Overall execution time (seconds).
    pub makespan: f64,
    /// Per-task execution times, indexed by [`TaskId`]: from assignment to
    /// a worker core until all outputs are stored and overheads paid.
    pub task_times: Vec<f64>,
    /// Discrete events the kernel processed: a deterministic measure of
    /// how much this level of detail costs to simulate.
    pub sim_events: u64,
}

/// Task-start overhead model.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OverheadModel {
    /// Constant startup delay before each task (no batching).
    Direct {
        /// Startup overhead in seconds.
        startup: f64,
    },
    /// HTCondor-style: task starts are released at periodic negotiation
    /// cycles; each task pays `pre` before staging and `post` after.
    Condor {
        /// Negotiation cycle period in seconds.
        cycle: f64,
        /// Pre-execution overhead in seconds.
        pre: f64,
        /// Post-execution overhead in seconds.
        post: f64,
    },
}

/// Hidden stochastic effects used only by the ground-truth emulator.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NoiseModel {
    /// Lognormal sigma on per-task compute time.
    pub compute_sigma: f64,
    /// Relative jitter on overheads (uniform in `[1-j, 1+j]`).
    pub overhead_jitter: f64,
    /// Maximum extra scheduling delay per task (uniform in `[0, s]`).
    pub sched_jitter: f64,
    /// Noise seed.
    pub seed: u64,
}

/// Fully-resolved simulation model: one concrete value per knob.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedModel {
    pub network: NetworkModel,
    pub backbone_bw: f64,
    pub backbone_lat: f64,
    pub net_bw: f64,
    pub net_lat: f64,
    pub storage: StorageModel,
    pub submit_disk_bw: f64,
    pub worker_disk_bw: f64,
    pub disk_concurrency: u32,
    pub core_speed: f64,
    pub overhead: OverheadModel,
    pub noise: Option<NoiseModel>,
}

/// The one list of `version`'s knobs: each calibrated value is asked of
/// `knob`, with its range, where the resolved model takes it, and the
/// order of the calls is the parameter order. A knob the version does not
/// model keeps its neutral value.
pub(crate) fn model(version: SimulatorVersion, knob: &mut Knob) -> ResolvedModel {
    let bw = ParamKind::Exponential {
        lo_exp: 20.0,
        hi_exp: 40.0,
    };
    let lat = ParamKind::Continuous { lo: 0.0, hi: 0.010 };
    let overhead = ParamKind::Continuous { lo: 0.0, hi: 20.0 };
    let (backbone_bw, backbone_lat) = match version.network {
        NetworkModel::SharedDedicated => (knob("backbone_bw", bw), knob("backbone_lat", lat)),
        NetworkModel::OneLink | NetworkModel::Star => (0.0, 0.0),
    };
    ResolvedModel {
        network: version.network,
        backbone_bw,
        backbone_lat,
        net_bw: knob("net_bw", bw),
        net_lat: knob("net_lat", lat),
        storage: version.storage,
        submit_disk_bw: knob("submit_disk_bw", bw),
        worker_disk_bw: match version.storage {
            StorageModel::AllNodes => knob("worker_disk_bw", bw),
            StorageModel::SubmitOnly => 0.0,
        },
        disk_concurrency: knob("disk_concurrency", ParamKind::Integer { lo: 1, hi: 100 })
            .round()
            .max(1.0) as u32,
        core_speed: knob("core_speed", bw),
        overhead: match version.compute {
            ComputeModel::Direct => OverheadModel::Direct { startup: 0.0 },
            ComputeModel::HtCondor => OverheadModel::Condor {
                cycle: knob("condor_cycle", overhead),
                pre: knob("condor_overhead", overhead),
                post: 0.0,
            },
        },
        noise: None,
    }
}

/// `version`'s resolved model at `calib`; panics unless there is one value per parameter.
pub(crate) fn resolve(version: SimulatorVersion, calib: &Calibration) -> ResolvedModel {
    calib.answer(|| version.label(), |knob| model(version, knob))
}

/// A calibratable workflow simulator at one level of detail.
#[derive(Clone, Copy, Debug)]
pub struct WorkflowSimulator {
    /// The level-of-detail configuration.
    pub version: SimulatorVersion,
    /// Cores per worker node (48 on the paper's Chameleon deployment).
    pub cores_per_worker: u32,
}

impl WorkflowSimulator {
    /// A simulator with the paper's 48-core workers.
    pub fn new(version: SimulatorVersion) -> Self {
        Self {
            version,
            cores_per_worker: 48,
        }
    }

    /// Simulate `workflow` on `n_workers` workers under `calibration`
    /// (which must live in `self.version.parameter_space()`).
    pub fn simulate(
        &self,
        workflow: &Workflow,
        n_workers: usize,
        calibration: &Calibration,
    ) -> SimOutput {
        let model = resolve(self.version, calibration);
        execute(workflow, n_workers, self.cores_per_worker, &model)
    }
}

// ---------------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Meta {
    /// HTCondor negotiation cycle tick.
    CondorCycle,
    /// Pre-task overhead finished; begin input staging.
    PreDone(TaskId),
    /// One stage of an input file's journey completed.
    StageIn {
        task: TaskId,
        file: FileId,
        step: StageStep,
    },
    /// Compute phase finished; begin output staging.
    ComputeDone(TaskId),
    /// One stage of an output file's journey completed.
    StageOut {
        task: TaskId,
        file: FileId,
        step: StageStep,
    },
    /// Post-task overhead finished; task is done.
    PostDone(TaskId),
}

#[derive(Clone, Copy, Debug)]
enum StageStep {
    /// Disk read at the source completed.
    ReadSrc,
    /// Network transfer completed.
    Transfer,
    /// Disk write at the destination completed.
    WriteDst,
}

struct Exec<'a> {
    workflow: &'a Workflow,
    model: &'a ResolvedModel,
    n_workers: usize,

    engine: Engine,
    /// What each activity meant, indexed by its tag: tags are handed out
    /// as 0, 1, 2, … in add order.
    meta: Vec<Meta>,

    submit_disk: DiskId,
    worker_disks: Vec<DiskId>,
    routes: Vec<Vec<LinkId>>,

    // Task state
    /// Direct successors, flat: `t`'s are
    /// `successors[succ_start[t]..succ_start[t + 1]]`, ascending.
    succ_start: Vec<usize>,
    successors: Vec<TaskId>,
    deps_remaining: Vec<usize>,
    inputs_remaining: Vec<usize>,
    outputs_remaining: Vec<usize>,
    assigned_worker: Vec<usize>,
    start_time: Vec<f64>,
    task_times: Vec<f64>,
    done: Vec<bool>,
    done_count: usize,

    // Scheduling state
    ready_queue: VecDeque<TaskId>,
    free_cores: Vec<u32>,
    cycle_timer_active: bool,

    /// File locations: whether file `f` is stored on worker `w`, at
    /// `f * n_workers + w`.
    at_worker: Vec<bool>,

    // Pre-drawn noise (ground-truth emulator only)
    work_mult: Vec<f64>,
    pre_mult: Vec<f64>,
    post_mult: Vec<f64>,
    sched_delay: Vec<f64>,
}

/// The task graph as flat arrays: `(succ_start, successors, preds)`,
/// where `successors[succ_start[t]..succ_start[t + 1]]` are the direct
/// successors of `t` in ascending order and `preds[t]` counts its distinct
/// direct predecessors — [`Workflow::successors`] and the lengths of
/// [`Workflow::predecessors`], without a vector per task.
fn task_graph(workflow: &Workflow) -> (Vec<usize>, Vec<TaskId>, Vec<usize>) {
    let n = workflow.num_tasks();
    let mut producer = vec![usize::MAX; workflow.files.len()];
    for (t, task) in workflow.tasks.iter().enumerate() {
        for &f in &task.outputs {
            producer[f] = t;
        }
    }
    // Count each (producer, consumer) edge once: `last[p] == t` marks `p`
    // as already counted for `t`.
    let mut last = vec![usize::MAX; n];
    let mut preds = vec![0; n];
    let mut succ_start = vec![0; n + 1];
    for (t, task) in workflow.tasks.iter().enumerate() {
        for &f in &task.inputs {
            let p = producer[f];
            if p != usize::MAX && last[p] != t {
                last[p] = t;
                preds[t] += 1;
                succ_start[p + 1] += 1;
            }
        }
    }
    for t in 0..n {
        succ_start[t + 1] += succ_start[t];
    }
    // Fill in consumer order, so each task's successors ascend; `last`
    // becomes the write cursor, and an edge already written for `t` is
    // the one just before it.
    let mut successors = vec![0; succ_start[n]];
    last.copy_from_slice(&succ_start[..n]);
    for (t, task) in workflow.tasks.iter().enumerate() {
        for &f in &task.inputs {
            let p = producer[f];
            if p != usize::MAX && !(last[p] > succ_start[p] && successors[last[p] - 1] == t) {
                successors[last[p]] = t;
                last[p] += 1;
            }
        }
    }
    (succ_start, successors, preds)
}

/// Execute `workflow` under a fully-resolved model.
pub(crate) fn execute(
    workflow: &Workflow,
    n_workers: usize,
    cores_per_worker: u32,
    model: &ResolvedModel,
) -> SimOutput {
    assert!(n_workers >= 1, "need at least one worker");
    let n_tasks = workflow.num_tasks();
    if n_tasks == 0 {
        return SimOutput {
            makespan: 0.0,
            task_times: Vec::new(),
            sim_events: 0,
        };
    }

    // Build the platform.
    let mut platform = Platform::new();
    let routes: Vec<Vec<LinkId>> = match model.network {
        NetworkModel::OneLink => {
            let l = platform.add_link(model.net_bw, model.net_lat);
            (0..n_workers).map(|_| vec![l]).collect()
        }
        NetworkModel::Star => (0..n_workers)
            .map(|_| vec![platform.add_link(model.net_bw, model.net_lat)])
            .collect(),
        NetworkModel::SharedDedicated => {
            let bb = platform.add_link(model.backbone_bw, model.backbone_lat);
            (0..n_workers)
                .map(|_| vec![bb, platform.add_link(model.net_bw, model.net_lat)])
                .collect()
        }
    };
    let submit_disk = platform.add_disk(model.submit_disk_bw, model.disk_concurrency);
    let worker_disks: Vec<DiskId> = match model.storage {
        StorageModel::AllNodes => (0..n_workers)
            .map(|_| platform.add_disk(model.worker_disk_bw, model.disk_concurrency))
            .collect(),
        StorageModel::SubmitOnly => Vec::new(),
    };

    // Pre-draw noise.
    let (work_mult, pre_mult, post_mult, sched_delay) = match &model.noise {
        Some(noise) => {
            let mut rng = rng_from_seed(noise.seed);
            let s = noise.compute_sigma;
            let work: Vec<f64> = (0..n_tasks)
                .map(|_| {
                    if s > 0.0 {
                        lognormal(&mut rng, -s * s / 2.0, s)
                    } else {
                        1.0
                    }
                })
                .collect();
            let j = noise.overhead_jitter;
            let pre: Vec<f64> = (0..n_tasks)
                .map(|_| 1.0 + j * (2.0 * rng.unit() - 1.0))
                .collect();
            let post: Vec<f64> = (0..n_tasks)
                .map(|_| 1.0 + j * (2.0 * rng.unit() - 1.0))
                .collect();
            let sched: Vec<f64> = (0..n_tasks)
                .map(|_| noise.sched_jitter * rng.unit())
                .collect();
            (work, pre, post, sched)
        }
        None => (
            vec![1.0; n_tasks],
            vec![1.0; n_tasks],
            vec![1.0; n_tasks],
            vec![0.0; n_tasks],
        ),
    };

    let (succ_start, successors, deps_remaining) = task_graph(workflow);
    let mut exec = Exec {
        workflow,
        model,
        n_workers,
        engine: Engine::new(platform),
        meta: Vec::new(),
        submit_disk,
        worker_disks,
        routes,
        succ_start,
        successors,
        deps_remaining,
        inputs_remaining: vec![0; n_tasks],
        outputs_remaining: vec![0; n_tasks],
        assigned_worker: vec![usize::MAX; n_tasks],
        start_time: vec![0.0; n_tasks],
        task_times: vec![0.0; n_tasks],
        done: vec![false; n_tasks],
        done_count: 0,
        ready_queue: VecDeque::new(),
        free_cores: vec![cores_per_worker; n_workers],
        cycle_timer_active: false,
        at_worker: vec![false; workflow.files.len() * n_workers],
        work_mult,
        pre_mult,
        post_mult,
        sched_delay,
    };
    exec.run()
}

impl<'a> Exec<'a> {
    /// Add an activity. Activities added between two engine steps — e.g.
    /// every input file of a task starting to stage at once — are
    /// released together: the engine recomputes rates once for all of
    /// them, at its next step.
    fn add(&mut self, kind: ActivityKind, meta: Meta) {
        let tag = self.meta.len() as u64;
        self.meta.push(meta);
        self.engine.add_activity(kind, tag);
    }

    /// Whether file `f` is stored on worker `w`'s local disk.
    fn stored_at(&self, f: FileId, w: usize) -> bool {
        self.model.storage == StorageModel::AllNodes && self.at_worker[f * self.n_workers + w]
    }

    fn run(&mut self) -> SimOutput {
        // Seed: entry tasks are ready.
        for t in 0..self.workflow.num_tasks() {
            if self.deps_remaining[t] == 0 {
                self.ready_queue.push_back(t);
            }
        }
        self.schedule();

        let mut makespan: f64 = 0.0;
        while self.done_count < self.workflow.num_tasks() {
            let completion = self
                .engine
                .step()
                .expect("engine drained before all tasks completed (scheduling deadlock)");
            let meta = self.meta[completion.tag as usize];
            self.handle(meta, completion.time);
            makespan = makespan.max(completion.time);
        }
        SimOutput {
            makespan,
            task_times: std::mem::take(&mut self.task_times),
            sim_events: self.engine.events_processed(),
        }
    }

    /// Effective negotiation-cycle period (guarded against a zero value
    /// that would stall virtual time).
    fn effective_cycle(cycle: f64) -> f64 {
        cycle.max(1e-3)
    }

    /// Assign ready tasks to free cores according to the compute model.
    fn schedule(&mut self) {
        match self.model.overhead {
            OverheadModel::Direct { .. } => {
                while !self.ready_queue.is_empty() && self.total_free_cores() > 0 {
                    let t = self.ready_queue.pop_front().expect("non-empty queue");
                    self.assign(t);
                }
            }
            OverheadModel::Condor { cycle, .. } => {
                // Tasks wait for the next negotiation cycle.
                if !self.ready_queue.is_empty() && !self.cycle_timer_active {
                    let c = Self::effective_cycle(cycle);
                    let now = self.engine.time();
                    let mut delay = c - (now % c);
                    if delay < 1e-9 {
                        delay = c;
                    }
                    self.add(ActivityKind::timer(delay), Meta::CondorCycle);
                    self.cycle_timer_active = true;
                }
            }
        }
    }

    fn total_free_cores(&self) -> u32 {
        self.free_cores.iter().sum()
    }

    /// Put `t` on the worker with the most free cores and start its
    /// pre-task overhead.
    fn assign(&mut self, t: TaskId) {
        let worker = (0..self.n_workers)
            .max_by_key(|&w| self.free_cores[w])
            .expect("at least one worker");
        assert!(
            self.free_cores[worker] > 0,
            "assign called with no free core"
        );
        self.free_cores[worker] -= 1;
        self.assigned_worker[t] = worker;
        self.start_time[t] = self.engine.time();

        let pre = match self.model.overhead {
            OverheadModel::Direct { startup } => startup,
            OverheadModel::Condor { pre, .. } => pre,
        };
        let delay = pre * self.pre_mult[t] + self.sched_delay[t];
        self.add(ActivityKind::timer(delay.max(0.0)), Meta::PreDone(t));
    }

    fn handle(&mut self, meta: Meta, now: f64) {
        match meta {
            Meta::CondorCycle => {
                self.cycle_timer_active = false;
                while !self.ready_queue.is_empty() && self.total_free_cores() > 0 {
                    let t = self.ready_queue.pop_front().expect("non-empty queue");
                    self.assign(t);
                }
                // Tasks still waiting (for cores) get the next cycle.
                self.schedule();
            }
            Meta::PreDone(t) => self.start_staging_in(t),
            Meta::StageIn { task, file, step } => self.advance_stage_in(task, file, step),
            Meta::ComputeDone(t) => self.start_staging_out(t),
            Meta::StageOut { task, file, step } => self.advance_stage_out(task, file, step),
            Meta::PostDone(t) => self.finish_task(t, now),
        }
    }

    // ---- input staging ----

    fn start_staging_in(&mut self, t: TaskId) {
        let workflow = self.workflow;
        let inputs = &workflow.tasks[t].inputs;
        self.inputs_remaining[t] = inputs.len();
        if inputs.is_empty() {
            self.start_compute(t);
            return;
        }
        let w = self.assigned_worker[t];
        for &f in inputs {
            let disk = if self.stored_at(f, w) {
                self.worker_disks[w]
            } else {
                self.submit_disk
            };
            // Read at the source; `advance_stage_in` routes the rest.
            self.add(
                ActivityKind::io(disk, workflow.files[f].size),
                Meta::StageIn {
                    task: t,
                    file: f,
                    step: StageStep::ReadSrc,
                },
            );
        }
    }

    fn advance_stage_in(&mut self, t: TaskId, f: FileId, step: StageStep) {
        let w = self.assigned_worker[t];
        let size = self.workflow.files[f].size;
        let local = self.stored_at(f, w);
        match step {
            StageStep::ReadSrc => {
                if local {
                    // Local read: staging of this file is complete.
                    self.input_staged(t);
                } else {
                    self.add(
                        ActivityKind::flow(self.routes[w].clone(), size),
                        Meta::StageIn {
                            task: t,
                            file: f,
                            step: StageStep::Transfer,
                        },
                    );
                }
            }
            StageStep::Transfer => {
                if self.model.storage == StorageModel::AllNodes {
                    self.add(
                        ActivityKind::io(self.worker_disks[w], size),
                        Meta::StageIn {
                            task: t,
                            file: f,
                            step: StageStep::WriteDst,
                        },
                    );
                } else {
                    // Submit-only storage: data is consumed in-stream.
                    self.input_staged(t);
                }
            }
            StageStep::WriteDst => {
                self.at_worker[f * self.n_workers + w] = true;
                self.input_staged(t);
            }
        }
    }

    fn input_staged(&mut self, t: TaskId) {
        self.inputs_remaining[t] -= 1;
        if self.inputs_remaining[t] == 0 {
            self.start_compute(t);
        }
    }

    // ---- compute ----

    fn start_compute(&mut self, t: TaskId) {
        let work = self.workflow.tasks[t].work * self.work_mult[t];
        self.add(
            ActivityKind::compute(self.model.core_speed, work),
            Meta::ComputeDone(t),
        );
    }

    // ---- output staging ----

    fn start_staging_out(&mut self, t: TaskId) {
        let workflow = self.workflow;
        let outputs = &workflow.tasks[t].outputs;
        self.outputs_remaining[t] = outputs.len();
        if outputs.is_empty() {
            self.start_post(t);
            return;
        }
        let w = self.assigned_worker[t];
        for &f in outputs {
            let size = workflow.files[f].size;
            if self.model.storage == StorageModel::AllNodes {
                // Write locally first; reuse by same-worker consumers.
                self.add(
                    ActivityKind::io(self.worker_disks[w], size),
                    Meta::StageOut {
                        task: t,
                        file: f,
                        step: StageStep::ReadSrc,
                    },
                );
            } else {
                // Stream straight to the submit node.
                self.add(
                    ActivityKind::flow(self.routes[w].clone(), size),
                    Meta::StageOut {
                        task: t,
                        file: f,
                        step: StageStep::Transfer,
                    },
                );
            }
        }
    }

    fn advance_stage_out(&mut self, t: TaskId, f: FileId, step: StageStep) {
        let w = self.assigned_worker[t];
        let size = self.workflow.files[f].size;
        match step {
            StageStep::ReadSrc => {
                // Local write done: file now available worker-locally.
                self.at_worker[f * self.n_workers + w] = true;
                self.add(
                    ActivityKind::flow(self.routes[w].clone(), size),
                    Meta::StageOut {
                        task: t,
                        file: f,
                        step: StageStep::Transfer,
                    },
                );
            }
            StageStep::Transfer => {
                self.add(
                    ActivityKind::io(self.submit_disk, size),
                    Meta::StageOut {
                        task: t,
                        file: f,
                        step: StageStep::WriteDst,
                    },
                );
            }
            StageStep::WriteDst => {
                self.output_staged(t);
            }
        }
    }

    fn output_staged(&mut self, t: TaskId) {
        self.outputs_remaining[t] -= 1;
        if self.outputs_remaining[t] == 0 {
            self.start_post(t);
        }
    }

    // ---- completion ----

    fn start_post(&mut self, t: TaskId) {
        let post = match self.model.overhead {
            OverheadModel::Direct { .. } => 0.0,
            OverheadModel::Condor { post, .. } => post,
        };
        self.add(
            ActivityKind::timer((post * self.post_mult[t]).max(0.0)),
            Meta::PostDone(t),
        );
    }

    fn finish_task(&mut self, t: TaskId, now: f64) {
        debug_assert!(!self.done[t], "task finished twice");
        self.done[t] = true;
        self.done_count += 1;
        self.task_times[t] = now - self.start_time[t];
        let w = self.assigned_worker[t];
        self.free_cores[w] += 1;

        // Unlock successors.
        for i in self.succ_start[t]..self.succ_start[t + 1] {
            let s = self.successors[i];
            self.deps_remaining[s] -= 1;
            if self.deps_remaining[s] == 0 {
                self.ready_queue.push_back(s);
            }
        }
        self.schedule();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, AppKind, WorkflowSpec};

    /// A fixed, plausible calibration for a version's space.
    fn calib_for(version: SimulatorVersion) -> Calibration {
        let space = version.parameter_space();
        let mut pairs: Vec<(&str, f64)> = Vec::new();
        for p in space.params() {
            let v = match p.name.as_str() {
                "net_bw" | "backbone_bw" => 1.25e9,
                "net_lat" | "backbone_lat" => 1e-4,
                "submit_disk_bw" | "worker_disk_bw" => 5e8,
                "disk_concurrency" => 8.0,
                "core_speed" => crate::generator::OPS_PER_REF_SECOND,
                "condor_cycle" => 2.0,
                "condor_overhead" => 1.0,
                other => panic!("unexpected parameter {other}"),
            };
            pairs.push((Box::leak(p.name.clone().into_boxed_str()), v));
        }
        space.calibration_from_pairs(&pairs)
    }

    fn small_workflow() -> Workflow {
        generate(&WorkflowSpec {
            app: AppKind::Forkjoin,
            num_tasks: 10,
            work_per_task_secs: 1.0,
            data_footprint_bytes: 10e6,
            seed: 1,
        })
    }

    #[test]
    fn all_twelve_versions_run_and_agree_dimensionally() {
        let wf = small_workflow();
        // The generator jitters per-task work, so the compute lower bound
        // is the critical path of the *drawn* works, not 3 x the mean.
        let cp = wf.critical_path_work() / crate::generator::OPS_PER_REF_SECOND;
        assert!(cp > 2.0, "3 levels of ~1s tasks: {cp}");
        for version in SimulatorVersion::all() {
            let sim = WorkflowSimulator::new(version);
            let out = sim.simulate(&wf, 2, &calib_for(version));
            assert!(out.makespan > 0.0, "{}", version.label());
            assert_eq!(out.task_times.len(), 10, "{}", version.label());
            assert!(
                out.task_times.iter().all(|&t| t > 0.0),
                "{}",
                version.label()
            );
            // Makespan at least the critical path of compute times alone.
            assert!(
                out.makespan >= cp,
                "{}: {} < critical path {}",
                version.label(),
                out.makespan,
                cp
            );
        }
    }

    #[test]
    #[should_panic(expected = "onelink/submit/direct: 6 calibration values for 5 parameters")]
    fn a_calibration_with_a_value_left_over_is_refused() {
        let version = SimulatorVersion::lowest_detail();
        let mut calib = calib_for(version);
        calib.values.push(1.0);
        WorkflowSimulator::new(version).simulate(&small_workflow(), 2, &calib);
    }

    #[test]
    fn more_workers_never_slow_down_direct_execution() {
        let wf = generate(&WorkflowSpec {
            app: AppKind::Seismology,
            num_tasks: 60,
            work_per_task_secs: 2.0,
            data_footprint_bytes: 0.0,
            seed: 2,
        });
        let version = SimulatorVersion {
            network: NetworkModel::Star,
            storage: StorageModel::SubmitOnly,
            compute: ComputeModel::Direct,
        };
        let sim = WorkflowSimulator {
            version,
            cores_per_worker: 4,
        };
        let c = calib_for(version);
        let m1 = sim.simulate(&wf, 1, &c).makespan;
        let m4 = sim.simulate(&wf, 4, &c).makespan;
        assert!(m4 <= m1 * 1.01, "1 worker {m1}, 4 workers {m4}");
        assert!(m4 < m1 * 0.6, "parallel speedup expected: {m1} -> {m4}");
    }

    #[test]
    fn chain_workflow_is_fully_serial() {
        let wf = generate(&WorkflowSpec {
            app: AppKind::Chain,
            num_tasks: 5,
            work_per_task_secs: 1.0,
            data_footprint_bytes: 0.0,
            seed: 3,
        });
        let version = SimulatorVersion::lowest_detail();
        let sim = WorkflowSimulator::new(version);
        let out = sim.simulate(&wf, 1, &calib_for(version));
        // Fully serial: the makespan covers at least every task's compute,
        // and per-task times sum to at least the makespan's compute content.
        let total_compute = wf.total_work() / crate::generator::OPS_PER_REF_SECOND;
        assert!(out.makespan >= total_compute, "makespan {}", out.makespan);
        let time_total: f64 = out.task_times.iter().sum();
        assert!(time_total >= total_compute, "task-time total {time_total}");
    }

    #[test]
    fn condor_batches_task_starts_at_cycles() {
        let wf = generate(&WorkflowSpec {
            app: AppKind::Forkjoin,
            num_tasks: 10,
            work_per_task_secs: 0.1,
            data_footprint_bytes: 0.0,
            seed: 4,
        });
        let direct_v = SimulatorVersion {
            network: NetworkModel::OneLink,
            storage: StorageModel::SubmitOnly,
            compute: ComputeModel::Direct,
        };
        let condor_v = SimulatorVersion {
            compute: ComputeModel::HtCondor,
            ..direct_v
        };
        // Zero overheads except the condor cycle: the cycle alone must
        // stretch the makespan (3 waves x up-to-5s waits).
        let direct_c = direct_v.parameter_space().calibration_from_pairs(&[
            ("net_bw", 1e9),
            ("net_lat", 0.0),
            ("submit_disk_bw", 1e9),
            ("disk_concurrency", 10.0),
            ("core_speed", crate::generator::OPS_PER_REF_SECOND),
        ]);
        let condor_c = condor_v.parameter_space().calibration_from_pairs(&[
            ("net_bw", 1e9),
            ("net_lat", 0.0),
            ("submit_disk_bw", 1e9),
            ("disk_concurrency", 10.0),
            ("core_speed", crate::generator::OPS_PER_REF_SECOND),
            ("condor_cycle", 5.0),
            ("condor_overhead", 0.0),
        ]);
        let md = WorkflowSimulator::new(direct_v)
            .simulate(&wf, 2, &direct_c)
            .makespan;
        let mc = WorkflowSimulator::new(condor_v)
            .simulate(&wf, 2, &condor_c)
            .makespan;
        assert!(
            mc > md + 10.0,
            "cycle batching should dominate: direct {md}, condor {mc}"
        );
        // Task starts are aligned to 5s multiples => makespan near one.
        assert!(mc >= 15.0, "three levels x 5s cycles: {mc}");
    }

    #[test]
    fn all_nodes_storage_reuses_local_files_on_one_worker() {
        // A chain on 1 worker: with AllNodes, intermediate files are read
        // locally; with SubmitOnly every input is re-fetched over the
        // network. Given a slow network and fast disks, AllNodes is faster.
        let wf = generate(&WorkflowSpec {
            app: AppKind::Chain,
            num_tasks: 8,
            work_per_task_secs: 0.0,
            data_footprint_bytes: 800e6,
            seed: 5,
        });
        let base = SimulatorVersion {
            network: NetworkModel::OneLink,
            storage: StorageModel::SubmitOnly,
            compute: ComputeModel::Direct,
        };
        let submit_only = base.parameter_space().calibration_from_pairs(&[
            ("net_bw", 1e8), // slow network
            ("net_lat", 0.0),
            ("submit_disk_bw", 1e10),
            ("disk_concurrency", 10.0),
            ("core_speed", 1e9),
        ]);
        let all_v = SimulatorVersion {
            storage: StorageModel::AllNodes,
            ..base
        };
        let all_nodes = all_v.parameter_space().calibration_from_pairs(&[
            ("net_bw", 1e8),
            ("net_lat", 0.0),
            ("submit_disk_bw", 1e10),
            ("worker_disk_bw", 1e10),
            ("disk_concurrency", 10.0),
            ("core_speed", 1e9),
        ]);
        let m_submit = WorkflowSimulator::new(base)
            .simulate(&wf, 1, &submit_only)
            .makespan;
        let m_all = WorkflowSimulator::new(all_v)
            .simulate(&wf, 1, &all_nodes)
            .makespan;
        // SubmitOnly pays: input transfer + output transfer per task.
        // AllNodes pays: output transfer only (inputs are local).
        assert!(
            m_all < m_submit * 0.7,
            "local reuse should halve network traffic: submit {m_submit}, all {m_all}"
        );
    }

    #[test]
    fn slower_network_increases_makespan_monotonically() {
        let wf = small_workflow();
        let version = SimulatorVersion::lowest_detail();
        let mk = |bw: f64| {
            let c = version.parameter_space().calibration_from_pairs(&[
                ("net_bw", bw),
                ("net_lat", 1e-4),
                ("submit_disk_bw", 1e10),
                ("disk_concurrency", 10.0),
                ("core_speed", 1e9),
            ]);
            WorkflowSimulator::new(version)
                .simulate(&wf, 2, &c)
                .makespan
        };
        let fast = mk(1e10);
        let mid = mk(1e8);
        let slow = mk(1e7);
        assert!(fast < mid && mid < slow, "{fast} < {mid} < {slow} violated");
    }

    #[test]
    fn simulation_is_deterministic() {
        let wf = small_workflow();
        let version = SimulatorVersion::highest_detail();
        let sim = WorkflowSimulator::new(version);
        let c = calib_for(version);
        let a = sim.simulate(&wf, 4, &c);
        let b = sim.simulate(&wf, 4, &c);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_footprint_workflow_still_pays_latency_and_compute() {
        let wf = generate(&WorkflowSpec {
            app: AppKind::Forkjoin,
            num_tasks: 10,
            work_per_task_secs: 1.0,
            data_footprint_bytes: 0.0,
            seed: 6,
        });
        let version = SimulatorVersion::lowest_detail();
        let out = WorkflowSimulator::new(version).simulate(&wf, 2, &calib_for(version));
        // Strictly above the compute critical path: zero-byte transfers
        // still pay network latency.
        let cp = wf.critical_path_work() / crate::generator::OPS_PER_REF_SECOND;
        assert!(
            out.makespan > cp,
            "critical path {} x latency: {}",
            cp,
            out.makespan
        );
    }

    #[test]
    fn task_graph_equals_the_workflow_successors_and_predecessors() {
        for app in AppKind::ALL {
            for seed in 0..4 {
                let wf = generate(&WorkflowSpec {
                    app,
                    num_tasks: 30 + 7 * seed as usize,
                    work_per_task_secs: 1.0,
                    data_footprint_bytes: 1e6,
                    seed,
                });
                let (succ_start, successors, preds) = task_graph(&wf);
                let want: Vec<Vec<TaskId>> = wf.successors();
                let got: Vec<Vec<TaskId>> = (0..wf.num_tasks())
                    .map(|t| successors[succ_start[t]..succ_start[t + 1]].to_vec())
                    .collect();
                assert_eq!(got, want, "{}", app.name());
                let want: Vec<usize> = wf.predecessors().iter().map(Vec::len).collect();
                assert_eq!(preds, want, "{}", app.name());
            }
        }
        // A file read twice by one task, and two files from one producer,
        // make one edge.
        let mut wf = Workflow::new("dup");
        let a = wf.add_task("a", 1.0);
        let b = wf.add_task("b", 1.0);
        let f = wf.connect(a, b, "f", 1.0);
        wf.add_input(b, f);
        wf.connect(a, b, "g", 1.0);
        assert_eq!(task_graph(&wf), (vec![0, 1, 1], vec![b], vec![0, 1]));
    }

    /// One word per run: the makespan's bits, every task time's bits and
    /// the kernel event count, folded in that order.
    fn fold_output(out: &SimOutput) -> u64 {
        simcal::cache::fnv1a_fold(
            std::iter::once(out.makespan.to_bits())
                .chain(out.task_times.iter().map(|t| t.to_bits()))
                .chain(std::iter::once(out.sim_events)),
        )
    }

    /// The executor's completion times, event order and event counts are
    /// pinned to the bit: every version on a forkjoin, a seismology and a
    /// Montage workflow (the last with data, from the ground-truth
    /// dataset), plus one ground-truth emulator run, which takes the
    /// noise path. A kernel or executor change that is meant to be bit for
    /// bit must leave all thirteen words alone.
    #[test]
    fn executor_outputs_are_pinned() {
        use crate::ground_truth::{dataset_for, DatasetOptions, EmulatorConfig};
        let record = dataset_for(
            AppKind::Montage,
            &DatasetOptions {
                repetitions: 1,
                size_indices: vec![0],
                work_indices: vec![0],
                footprint_indices: vec![1],
                worker_counts: vec![6],
                ..Default::default()
            },
        )
        .remove(0);
        let seismology = generate(&WorkflowSpec {
            app: AppKind::Seismology,
            num_tasks: 60,
            work_per_task_secs: 2.0,
            data_footprint_bytes: 50e6,
            seed: 2,
        });
        let montage = generate(&record.spec);
        assert!(montage.data_footprint() > 0.0);
        let runs = [(small_workflow(), 2), (seismology, 4), (montage, 6)];
        let got: Vec<u64> = SimulatorVersion::all()
            .into_iter()
            .map(|version| {
                let sim = WorkflowSimulator::new(version);
                let c = calib_for(version);
                simcal::cache::fnv1a_fold(
                    runs.iter()
                        .map(|(wf, n)| fold_output(&sim.simulate(wf, *n, &c))),
                )
            })
            .collect();
        // In `SimulatorVersion::all()` order.
        let want: [u64; 12] = [
            0xf184_8f09_b962_397f,
            0x2531_bdce_974c_6e9e,
            0x3a08_536b_fd1c_4a21,
            0x8772_942d_9b71_dd7f,
            0xfd37_b19b_2f5d_c655,
            0x2e9a_ea42_f20b_53ab,
            0x0c54_50e4_a5d3_6107,
            0xf726_17ea_5feb_d9f2,
            0xa18a_f617_f078_8445,
            0x6794_06b2_3868_dbe7,
            0x1178_77fa_2c67_0ef7,
            0xfb02_1d7f_80e1_fded,
        ];
        assert_eq!(got, want);
        let emulated = EmulatorConfig::default().emulate(&runs[2].0, 6, 0x5EED);
        assert_eq!(fold_output(&emulated), 0x7cca_5750_b185_4735);
    }

    #[test]
    fn task_times_sum_to_at_least_serial_content() {
        let wf = small_workflow();
        let version = SimulatorVersion::highest_detail();
        let out = WorkflowSimulator::new(version).simulate(&wf, 2, &calib_for(version));
        let compute_total = wf.total_work() / crate::generator::OPS_PER_REF_SECOND;
        let time_total: f64 = out.task_times.iter().sum();
        assert!(
            time_total > compute_total,
            "{time_total} vs {compute_total}"
        );
    }
}
