//! The batch-scheduling simulator: EASY backfilling on a homogeneous
//! cluster, with configurable levels of detail for the scheduler-overhead
//! model and the job-runtime model.
//!
//! Both the candidate simulators and the ground-truth emulator run the
//! same EASY backfilling algorithm (like Alea and Batsim do); the levels
//! of detail differ in what *platform behaviour* is modelled around it,
//! exactly as in the paper's two case studies.

use crate::versions::{BatchVersion, OverheadDetail, RuntimeDetail};
use crate::workload::Job;
use dessim::{ActivityKind, Engine, Platform};
use numeric::{lognormal, rng_from_seed};
use serde::{Deserialize, Serialize};
use simcal::prelude::{Calibration, Knob, ParamKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of simulating one workload execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchOutput {
    /// Time the last job finished (s).
    pub makespan: f64,
    /// Per-job turnaround times: completion minus submission (s).
    pub turnarounds: Vec<f64>,
    /// Discrete events the kernel processed: a deterministic measure of
    /// how much this level of detail costs to simulate.
    pub sim_events: u64,
}

/// Fully-resolved model (one value per knob).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedBatch {
    /// Node speed: work units per second.
    pub node_speed: f64,
    /// Runtime inflation per unit of cluster utilization at job start
    /// (0 = no interference modelled).
    pub contention_coeff: f64,
    /// Scheduling-pass period (0 = scheduler reacts instantly).
    pub sched_cycle: f64,
    /// Per-job dispatch overhead added before execution.
    pub dispatch_overhead: f64,
    /// Ground-truth-only lognormal sigma on job runtimes.
    pub noise_sigma: f64,
    /// Ground-truth-only noise seed.
    pub noise_seed: u64,
}

/// The one list of `version`'s knobs: each calibrated value is asked of
/// `knob`, with its range, where the resolved model takes it, and the
/// order of the calls is the parameter order. A knob the version does not
/// model keeps its neutral value.
pub(crate) fn model(version: BatchVersion, knob: &mut Knob) -> ResolvedBatch {
    let uniform = |lo, hi| ParamKind::Continuous { lo, hi };
    ResolvedBatch {
        // Work units per second, log-uniform over a broad range around 1
        // (the workload's natural unit).
        node_speed: knob(
            "node_speed",
            ParamKind::Exponential {
                lo_exp: -5.0,
                hi_exp: 5.0,
            },
        ),
        contention_coeff: match version.runtime {
            RuntimeDetail::Contention => knob("contention_coeff", uniform(0.0, 2.0)),
            RuntimeDetail::Proportional => 0.0,
        },
        sched_cycle: match version.overhead {
            OverheadDetail::Cycle => knob("sched_cycle", uniform(0.0, 120.0)),
            OverheadDetail::Instant => 0.0,
        },
        dispatch_overhead: match version.overhead {
            OverheadDetail::Cycle => knob("dispatch_overhead", uniform(0.0, 30.0)),
            OverheadDetail::Instant => 0.0,
        },
        noise_sigma: 0.0,
        noise_seed: 0,
    }
}

/// `version`'s resolved model at `calib`; panics unless there is one value per parameter.
pub(crate) fn resolve(version: BatchVersion, calib: &Calibration) -> ResolvedBatch {
    calib.answer(|| version.label(), |knob| model(version, knob))
}

/// A calibratable batch-scheduling simulator at one level of detail.
#[derive(Clone, Copy, Debug)]
pub struct BatchSimulator {
    /// The level-of-detail configuration.
    pub version: BatchVersion,
    /// Cluster size in nodes.
    pub total_nodes: u32,
}

impl BatchSimulator {
    /// A simulator of a `total_nodes`-node cluster.
    pub fn new(version: BatchVersion, total_nodes: u32) -> Self {
        assert!(total_nodes > 0, "cluster needs nodes");
        Self {
            version,
            total_nodes,
        }
    }

    /// Simulate `jobs` (sorted by submission) under `calibration`.
    pub fn simulate(&self, jobs: &[Job], calibration: &Calibration) -> BatchOutput {
        execute(jobs, self.total_nodes, &resolve(self.version, calibration))
    }
}

#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Event-driven EASY-backfilling execution.
///
/// Events (job arrivals, job completions, scheduler cycle ticks) live in a
/// [`dessim::Engine`] as absolute-deadline [`ActivityKind::TimerAt`]
/// activities — arrivals enter as one up-front [`Engine::add_activities`]
/// batch — while the EASY state machine (FIFO queue, running-set heap for
/// shadow-time queries) stays local. All events at one instant are drained
/// via [`Engine::peek_time`] so a single scheduling pass covers them.
pub(crate) fn execute(jobs: &[Job], total_nodes: u32, model: &ResolvedBatch) -> BatchOutput {
    assert!(
        jobs.iter().all(|j| j.nodes <= total_nodes),
        "a job requests more nodes than the cluster has"
    );
    let n = jobs.len();
    if n == 0 {
        return BatchOutput {
            makespan: 0.0,
            turnarounds: Vec::new(),
            sim_events: 0,
        };
    }

    // Pre-drawn runtime noise (ground-truth emulator only).
    let noise: Vec<f64> = if model.noise_sigma > 0.0 {
        let mut rng = rng_from_seed(model.noise_seed);
        let s = model.noise_sigma;
        (0..n)
            .map(|_| lognormal(&mut rng, -s * s / 2.0, s))
            .collect()
    } else {
        vec![1.0; n]
    };

    let mut sim = Sim {
        jobs,
        model,
        noise,
        total_nodes,
        engine: Engine::new(Platform::new()),
        free: total_nodes,
        queue: Vec::new(),
        running: BinaryHeap::new(),
        end_time: vec![f64::NAN; n],
        makespan: 0.0,
        next_arrival: 0,
        completed: 0,
        // A scheduling pass is useful only after an arrival or a
        // completion; tracking this lets cycle ticks jump over idle
        // periods, which keeps the event count bounded by the number of
        // state changes even when a calibration proposes a microscopic
        // cycle period.
        state_changed: true,
        pending_cycle: None,
        next_cycle_tag: 2 * n as u64,
    };
    sim.run();

    let turnarounds: Vec<f64> = jobs
        .iter()
        .zip(&sim.end_time)
        .map(|(j, &e)| {
            debug_assert!(e.is_finite(), "every job must have finished");
            e - j.submit_time
        })
        .collect();
    BatchOutput {
        makespan: sim.makespan,
        turnarounds,
        sim_events: sim.engine.events_processed(),
    }
}

/// EASY-backfilling state machine over a [`dessim::Engine`] event queue.
///
/// Tag scheme: `[0, n)` completion of job `tag`; `[n, 2n)` arrival of job
/// `tag - n`; `>= 2n` a scheduler cycle tick.
struct Sim<'a> {
    jobs: &'a [Job],
    model: &'a ResolvedBatch,
    noise: Vec<f64>,
    total_nodes: u32,
    engine: Engine,
    free: u32,
    /// FIFO queue of waiting jobs.
    queue: Vec<usize>,
    /// (end_time, job, nodes) of running jobs, for shadow-time queries.
    running: BinaryHeap<Reverse<(OrdF64, usize, u32)>>,
    end_time: Vec<f64>,
    makespan: f64,
    next_arrival: usize,
    completed: usize,
    state_changed: bool,
    pending_cycle: Option<f64>,
    next_cycle_tag: u64,
}

impl Sim<'_> {
    /// Start job `j` at `start` (dispatch overhead included here).
    fn start_job(&mut self, j: usize, start: f64) {
        let job = &self.jobs[j];
        // Utilization-dependent runtime inflation (interference model).
        let utilization = 1.0 - self.free as f64 / self.total_nodes as f64;
        let runtime = job.work / self.model.node_speed
            * (1.0 + self.model.contention_coeff * utilization)
            * self.noise[j];
        let end = start + self.model.dispatch_overhead + runtime;
        self.free -= job.nodes;
        self.running.push(Reverse((OrdF64(end), j, job.nodes)));
        self.end_time[j] = end;
        self.makespan = self.makespan.max(end);
        self.engine
            .add_activity(ActivityKind::timer_at(end), j as u64);
    }

    /// EASY backfilling pass at time `now` over the FIFO queue.
    fn schedule(&mut self, now: f64) {
        loop {
            let Some(&head) = self.queue.first() else {
                return;
            };
            if self.jobs[head].nodes <= self.free {
                self.queue.remove(0);
                self.start_job(head, now);
                continue;
            }
            // Head does not fit: compute its reservation (shadow time) from
            // the walltime-estimate end times of running jobs, then
            // backfill jobs that cannot delay it.
            let mut releases: Vec<(f64, u32)> = self
                .running
                .iter()
                .map(|Reverse((OrdF64(end), _, nodes))| (*end, *nodes))
                .collect();
            releases.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut avail = self.free;
            let mut shadow_time = f64::INFINITY;
            for (end, nodes) in &releases {
                avail += nodes;
                if avail >= self.jobs[head].nodes {
                    shadow_time = *end;
                    break;
                }
            }
            // Nodes still free at the shadow time once the head starts.
            let extra = avail.saturating_sub(self.jobs[head].nodes);

            let mut backfilled = false;
            let mut i = 1;
            while i < self.queue.len() {
                let j = self.queue[i];
                let fits_now = self.jobs[j].nodes <= self.free;
                let cannot_delay_head = now + self.jobs[j].walltime_estimate <= shadow_time
                    || self.jobs[j].nodes <= extra.min(self.free);
                if fits_now && cannot_delay_head {
                    self.queue.remove(i);
                    self.start_job(j, now);
                    backfilled = true;
                } else {
                    i += 1;
                }
            }
            if !backfilled {
                return;
            }
            // A backfill may have freed nothing, but utilization changed;
            // loop to re-check the head (it still cannot fit) and stop.
            if self.jobs[head].nodes > self.free {
                return;
            }
        }
    }

    /// Apply one engine event; returns whether it was a cycle tick.
    fn handle_event(&mut self, tag: u64, now: f64) -> bool {
        let n = self.jobs.len();
        let tag = tag as usize;
        if tag < n {
            // Job completion. Completions fire in end-time order, so the
            // running-set minimum is an entry ending at this instant.
            let Reverse((OrdF64(end), _, nodes)) = self
                .running
                .pop()
                .expect("completion event with empty running set");
            debug_assert!(
                end <= now + 1e-9,
                "completion at {now} but earliest end is {end}"
            );
            self.free += nodes;
            self.completed += 1;
            self.state_changed = true;
            false
        } else if tag < 2 * n {
            self.queue.push(tag - n);
            self.next_arrival += 1;
            self.state_changed = true;
            false
        } else {
            true
        }
    }

    fn run(&mut self) {
        let n = self.jobs.len();
        // All arrivals enter the engine as one batch of absolute timers.
        let arrivals: Vec<(ActivityKind, u64)> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| (ActivityKind::timer_at(job.submit_time), (n + j) as u64))
            .collect();
        self.engine.add_activities(arrivals);

        // Cycle-aligned scheduling: passes happen at multiples of the
        // period (guarded against a zero period stalling virtual time).
        let cycle = if self.model.sched_cycle > 0.0 {
            Some(self.model.sched_cycle.max(1e-3))
        } else {
            None
        };

        while self.completed < n {
            let c = self
                .engine
                .step()
                .unwrap_or_else(|| panic!("no events but {} jobs incomplete", n - self.completed));
            let now = c.time;
            let mut saw_cycle_tick = self.handle_event(c.tag, now);
            // Drain every event at this instant (absolute timers make the
            // comparison exact) so one scheduling pass covers them all.
            while self.engine.peek_time().is_some_and(|t| t <= now) {
                let c = self.engine.step().expect("peeked event");
                saw_cycle_tick |= self.handle_event(c.tag, now);
            }

            match cycle {
                None => self.schedule(now),
                Some(cyc) => {
                    if saw_cycle_tick {
                        self.pending_cycle = None;
                        if self.state_changed {
                            self.schedule(now);
                            self.state_changed = false;
                        }
                    }
                    if !self.queue.is_empty() && self.pending_cycle.is_none() {
                        // With nothing new to schedule, the next useful tick
                        // is the first boundary at or after the next state
                        // change.
                        let t_arr = self
                            .jobs
                            .get(self.next_arrival)
                            .map(|j| j.submit_time)
                            .unwrap_or(f64::INFINITY);
                        let t_done = self
                            .running
                            .peek()
                            .map(|Reverse((OrdF64(e), _, _))| *e)
                            .unwrap_or(f64::INFINITY);
                        let base = if self.state_changed {
                            now
                        } else {
                            t_arr.min(t_done)
                        };
                        assert!(
                            base.is_finite(),
                            "queued jobs but no future event can free resources"
                        );
                        let mut boundary = (base / cyc).ceil() * cyc;
                        if boundary <= now {
                            boundary = ((now / cyc).floor() + 1.0) * cyc;
                        }
                        self.engine
                            .add_activity(ActivityKind::timer_at(boundary), self.next_cycle_tag);
                        self.next_cycle_tag += 1;
                        self.pending_cycle = Some(boundary);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versions::BatchVersion;
    use crate::workload::{generate, WorkloadSpec};

    fn resolved(speed: f64, cycle: f64, dispatch: f64, contention: f64) -> ResolvedBatch {
        ResolvedBatch {
            node_speed: speed,
            contention_coeff: contention,
            sched_cycle: cycle,
            dispatch_overhead: dispatch,
            noise_sigma: 0.0,
            noise_seed: 0,
        }
    }

    fn job(submit: f64, nodes: u32, work: f64, estimate: f64) -> Job {
        Job {
            submit_time: submit,
            nodes,
            work,
            walltime_estimate: estimate,
        }
    }

    #[test]
    #[should_panic(expected = "cycle/contention: 5 calibration values for 4 parameters")]
    fn a_calibration_with_a_value_left_over_is_refused() {
        let version = BatchVersion::highest_detail();
        let mut calib = version.parameter_space().denormalize(&[0.5; 4]);
        calib.values.push(1.0);
        BatchSimulator::new(version, 4).simulate(&[job(0.0, 1, 1.0, 1.0)], &calib);
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = vec![job(5.0, 2, 100.0, 200.0)];
        let out = execute(&jobs, 4, &resolved(1.0, 0.0, 0.0, 0.0));
        assert!((out.makespan - 105.0).abs() < 1e-9);
        assert!((out.turnarounds[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_when_cluster_is_full() {
        // Two 4-node jobs on a 4-node cluster: strictly serial.
        let jobs = vec![job(0.0, 4, 100.0, 150.0), job(0.0, 4, 100.0, 150.0)];
        let out = execute(&jobs, 4, &resolved(1.0, 0.0, 0.0, 0.0));
        assert!((out.makespan - 200.0).abs() < 1e-9);
        assert!((out.turnarounds[1] - 200.0).abs() < 1e-9);
    }

    #[test]
    fn easy_backfills_a_small_job_that_cannot_delay_the_head() {
        // t=0: A (3 nodes, 100s) starts on a 4-node cluster.
        // B (4 nodes) must wait for A => shadow time 100.
        // C (1 node, estimate 50s <= shadow) backfills immediately.
        let jobs = vec![
            job(0.0, 3, 100.0, 120.0),
            job(1.0, 4, 50.0, 60.0),
            job(2.0, 1, 40.0, 50.0),
        ];
        let out = execute(&jobs, 4, &resolved(1.0, 0.0, 0.0, 0.0));
        // C ends at 2+40 = 42 (backfilled), B starts at 100.
        assert!(
            (out.turnarounds[2] - 40.0).abs() < 1e-9,
            "C {:?}",
            out.turnarounds
        );
        assert!(
            (out.turnarounds[1] - (150.0 - 1.0)).abs() < 1e-9,
            "B {:?}",
            out.turnarounds
        );
    }

    #[test]
    fn backfill_never_delays_the_head_job() {
        // C's estimate exceeds the shadow time and would use the head's
        // nodes: it must NOT backfill.
        let jobs = vec![
            job(0.0, 3, 100.0, 120.0),
            job(1.0, 4, 50.0, 60.0),
            job(2.0, 1, 500.0, 600.0), // too long to backfill
        ];
        let out = execute(&jobs, 4, &resolved(1.0, 0.0, 0.0, 0.0));
        // B starts when A ends (t=100); C runs after B (1-node slot opens
        // only after B, since B takes the whole cluster).
        assert!(
            (out.turnarounds[1] - 149.0).abs() < 1e-9,
            "B {:?}",
            out.turnarounds
        );
        assert!(
            out.turnarounds[2] > 500.0,
            "C must wait: {:?}",
            out.turnarounds
        );
    }

    #[test]
    fn scheduling_cycle_delays_starts_to_boundaries() {
        let jobs = vec![job(5.0, 1, 10.0, 20.0)];
        let out = execute(&jobs, 4, &resolved(1.0, 30.0, 0.0, 0.0));
        // Arrival at 5; first cycle boundary after 5 is 30.
        assert!(
            (out.makespan - 40.0).abs() < 1e-9,
            "makespan {}",
            out.makespan
        );
    }

    #[test]
    fn dispatch_overhead_added_per_job() {
        let jobs = vec![job(0.0, 1, 10.0, 20.0), job(0.0, 1, 10.0, 20.0)];
        let out = execute(&jobs, 4, &resolved(1.0, 1.0, 5.0, 0.0));
        // Both start at the first cycle (t=1), each pays 5s dispatch.
        assert!(
            (out.makespan - 16.0).abs() < 1e-9,
            "makespan {}",
            out.makespan
        );
    }

    #[test]
    fn contention_inflates_runtime_under_load() {
        let base = vec![job(0.0, 2, 100.0, 150.0), job(0.0, 2, 100.0, 150.0)];
        let no_contention = execute(&base, 4, &resolved(1.0, 0.0, 0.0, 0.0));
        let contended = execute(&base, 4, &resolved(1.0, 0.0, 0.0, 1.0));
        assert!((no_contention.makespan - 100.0).abs() < 1e-9);
        // Second job starts when utilization is 0.5 -> inflated by 1.5x.
        assert!(
            contended.makespan > 125.0,
            "contended {}",
            contended.makespan
        );
    }

    #[test]
    fn faster_nodes_shorten_everything() {
        let jobs = generate(&WorkloadSpec {
            num_jobs: 40,
            ..Default::default()
        });
        let slow = execute(&jobs, 32, &resolved(0.5, 0.0, 0.0, 0.0));
        let fast = execute(&jobs, 32, &resolved(2.0, 0.0, 0.0, 0.0));
        assert!(fast.makespan < slow.makespan);
        let t_slow: f64 = slow.turnarounds.iter().sum();
        let t_fast: f64 = fast.turnarounds.iter().sum();
        assert!(t_fast < t_slow);
    }

    #[test]
    fn all_jobs_complete_and_turnarounds_cover_runtimes() {
        let jobs = generate(&WorkloadSpec {
            num_jobs: 200,
            seed: 9,
            ..Default::default()
        });
        let out = execute(&jobs, 64, &resolved(1.0, 30.0, 2.0, 0.5));
        assert_eq!(out.turnarounds.len(), 200);
        for (j, t) in jobs.iter().zip(&out.turnarounds) {
            assert!(*t >= j.work / 1.0 - 1e-9, "turnaround below runtime");
        }
    }

    #[test]
    fn simulator_api_is_deterministic() {
        let jobs = generate(&WorkloadSpec {
            num_jobs: 60,
            seed: 2,
            ..Default::default()
        });
        let version = BatchVersion::highest_detail();
        let space = version.parameter_space();
        let calib = space.denormalize(&vec![0.5; space.dim()]);
        let sim = BatchSimulator::new(version, 32);
        assert_eq!(sim.simulate(&jobs, &calib), sim.simulate(&jobs, &calib));
    }

    #[test]
    #[should_panic(expected = "more nodes than the cluster")]
    fn oversized_job_rejected() {
        let jobs = vec![job(0.0, 8, 1.0, 2.0)];
        execute(&jobs, 4, &resolved(1.0, 0.0, 0.0, 0.0));
    }
}
