//! The federated data-grid simulator: jobs brokered to sites, inputs
//! staged from storage elements through site caches and WAN links, then
//! computed on site slots — with configurable levels of detail for the
//! transfer, cache, and broker models.
//!
//! All sizes are in MB and all rates in MB/s; times are seconds.

use crate::versions::{BrokerDetail, CacheDetail, GridVersion, TransferDetail};
use crate::workload::GridWorkload;
use dessim::{ActivityKind, Engine, LinkId, Platform};
use numeric::{lognormal, rng_from_seed};
use serde::{Deserialize, Serialize};
use simcal::prelude::{Calibration, Knob, ParamKind};
use std::collections::VecDeque;

/// Result of simulating one workload execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridOutput {
    /// Time the last job finished (s).
    pub makespan: f64,
    /// Per-job turnaround times: completion minus submission (s).
    pub turnarounds: Vec<f64>,
    /// Deterministic simulation-cost counter: kernel events processed
    /// plus explicit cache-model operations. Never wall-clock.
    pub sim_events: u64,
}

/// Fully-resolved model (one value per knob).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedGrid {
    /// Slot speed: work units per second.
    pub core_speed: f64,
    /// Per-site WAN access-link bandwidth (MB/s).
    pub wan_bandwidth: f64,
    /// End-to-end WAN latency budget per remote transfer (s).
    pub wan_latency: f64,
    /// Storage-element read bandwidth (MB/s).
    pub disk_bandwidth: f64,
    /// Analytic cache hit ratio (hit-ratio cache versions only).
    pub hit_ratio: f64,
    /// Explicit cache capacity in MB (LRU versions only).
    pub cache_mb: f64,
    /// Per-file middleware startup cost (per-file transfer versions only).
    pub transfer_startup: f64,
    /// Serial broker decision overhead (per-job broker versions only).
    pub broker_overhead: f64,
    /// Ground-truth-only lognormal sigma on job runtimes.
    pub noise_sigma: f64,
    /// Ground-truth-only noise seed.
    pub noise_seed: u64,
    /// Ground-truth-only extra bytes per WAN transfer (TCP ramp-up, MB).
    pub ramp_mb: f64,
}

/// The one list of `version`'s knobs: each calibrated value is asked of
/// `knob`, with its range, where the resolved model takes it, and the
/// order of the calls is the parameter order. A knob the version does not
/// model keeps its neutral value.
///
/// Every version calibrates the platform (core speed, WAN link bandwidth
/// and latency, storage-element bandwidth); each higher-detail axis adds
/// the knob of the behaviour it models.
pub(crate) fn model(version: GridVersion, knob: &mut Knob) -> ResolvedGrid {
    let exp2 = |lo_exp, hi_exp| ParamKind::Exponential { lo_exp, hi_exp };
    let uniform = |lo, hi| ParamKind::Continuous { lo, hi };
    ResolvedGrid {
        core_speed: knob("core_speed", exp2(-4.0, 4.0)),
        wan_bandwidth: knob("wan_bandwidth", exp2(0.0, 9.0)),
        wan_latency: knob("wan_latency", uniform(0.0, 2.0)),
        disk_bandwidth: knob("disk_bandwidth", exp2(3.0, 11.0)),
        hit_ratio: match version.cache {
            CacheDetail::HitRatio => knob("hit_ratio", uniform(0.0, 1.0)),
            CacheDetail::Lru => 0.0,
        },
        cache_mb: match version.cache {
            CacheDetail::Lru => knob("cache_mb", exp2(7.0, 15.0)),
            CacheDetail::HitRatio => 0.0,
        },
        transfer_startup: match version.transfer {
            TransferDetail::PerFile => knob("transfer_startup", uniform(0.0, 8.0)),
            TransferDetail::FlowLevel => 0.0,
        },
        broker_overhead: match version.broker {
            BrokerDetail::PerJob => knob("broker_overhead", uniform(0.0, 10.0)),
            BrokerDetail::Bulk => 0.0,
        },
        noise_sigma: 0.0,
        noise_seed: 0,
        ramp_mb: 0.0,
    }
}

/// `version`'s resolved model at `calib`; panics unless there is one value per parameter.
pub(crate) fn resolve(version: GridVersion, calib: &Calibration) -> ResolvedGrid {
    calib.answer(|| version.label(), |knob| model(version, knob))
}

/// A calibratable data-grid simulator at one level of detail.
#[derive(Clone, Copy, Debug)]
pub struct GridSimulator {
    /// The level-of-detail configuration.
    pub version: GridVersion,
}

impl GridSimulator {
    /// A simulator at `version`'s level of detail.
    pub fn new(version: GridVersion) -> Self {
        Self { version }
    }

    /// Simulate `workload` under `calibration`.
    pub fn simulate(&self, workload: &GridWorkload, calibration: &Calibration) -> GridOutput {
        execute(workload, self.version, &resolve(self.version, calibration))
    }
}

/// Per-site explicit LRU cache over catalog file identities.
///
/// Small catalogs make linear scans cheaper than hashing here, and —
/// more importantly — keep every operation deterministic. Each logical
/// cache operation (probe, insert, evict) increments `ops`, the
/// deterministic surcharge that makes the explicit cache *cost more to
/// simulate* than the analytic one, as the real middleware models do.
struct LruCache {
    /// Most-recently-used last: (catalog index, size MB).
    entries: VecDeque<(usize, f64)>,
    used_mb: f64,
    capacity_mb: f64,
    ops: u64,
}

impl LruCache {
    fn new(capacity_mb: f64) -> Self {
        Self {
            entries: VecDeque::new(),
            used_mb: 0.0,
            capacity_mb,
            ops: 0,
        }
    }

    /// Probe for `file`; a hit refreshes its recency.
    fn probe(&mut self, file: usize) -> bool {
        self.ops += 1;
        if let Some(pos) = self.entries.iter().position(|&(f, _)| f == file) {
            let e = self.entries.remove(pos).expect("present");
            self.entries.push_back(e);
            true
        } else {
            false
        }
    }

    /// Insert `file` after a miss, evicting LRU entries until it fits.
    /// Files larger than the whole cache are not retained.
    fn insert(&mut self, file: usize, size_mb: f64) {
        self.ops += 1;
        if size_mb > self.capacity_mb {
            return;
        }
        while self.used_mb + size_mb > self.capacity_mb {
            let (_, evicted) = self
                .entries
                .pop_front()
                .expect("over-full cache has entries");
            self.used_mb -= evicted;
            self.ops += 1;
        }
        self.entries.push_back((file, size_mb));
        self.used_mb += size_mb;
    }

    fn contains(&self, file: usize) -> bool {
        self.entries.iter().any(|&(f, _)| f == file)
    }
}

/// Event-driven grid execution over a [`dessim::Engine`].
///
/// Tag scheme (`n` = job count): `[0, n)` compute completion of job
/// `tag`; `[n, 2n)` arrival of job `tag - n`; `[2n, 3n)` broker decision
/// for job `tag - 2n`; `3n + j` completion of one of job `j`'s input
/// transfers (jobs track their own pending-transfer counts, so several
/// activities may share a tag).
pub(crate) fn execute(
    workload: &GridWorkload,
    version: GridVersion,
    model: &ResolvedGrid,
) -> GridOutput {
    let n = workload.jobs.len();
    if n == 0 {
        return GridOutput {
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

    // Platform: one WAN access link per site plus, for per-file
    // transfers, a shared "grid middleware" link whose latency charges
    // the per-file startup once per flow (its bandwidth is effectively
    // infinite so it never throttles).
    let mut platform = Platform::new();
    let access: Vec<LinkId> = (0..workload.sites)
        .map(|_| platform.add_link(model.wan_bandwidth, model.wan_latency / 2.0))
        .collect();
    let middleware = match version.transfer {
        TransferDetail::PerFile => Some(platform.add_link(1e12, model.transfer_startup)),
        TransferDetail::FlowLevel => None,
    };

    let mut sim = Sim {
        workload,
        version,
        model,
        noise,
        access,
        middleware,
        engine: Engine::new(platform),
        free_slots: vec![workload.slots_per_site; workload.sites],
        site_queue: vec![VecDeque::new(); workload.sites],
        caches: match version.cache {
            CacheDetail::Lru => (0..workload.sites)
                .map(|_| LruCache::new(model.cache_mb))
                .collect(),
            CacheDetail::HitRatio => Vec::new(),
        },
        exec_site: vec![usize::MAX; n],
        pending_transfers: vec![0; n],
        end_time: vec![f64::NAN; n],
        makespan: 0.0,
        completed: 0,
        broker_queue: VecDeque::new(),
        broker_busy: false,
    };
    sim.run();

    let cache_ops: u64 = sim.caches.iter().map(|c| c.ops).sum();
    let turnarounds: Vec<f64> = workload
        .jobs
        .iter()
        .zip(&sim.end_time)
        .map(|(j, &e)| {
            debug_assert!(e.is_finite(), "every job must have finished");
            e - j.submit_time
        })
        .collect();
    GridOutput {
        makespan: sim.makespan,
        turnarounds,
        sim_events: sim.engine.events_processed() + cache_ops,
    }
}

/// Grid state machine over a [`dessim::Engine`] event queue.
struct Sim<'a> {
    workload: &'a GridWorkload,
    version: GridVersion,
    model: &'a ResolvedGrid,
    noise: Vec<f64>,
    access: Vec<LinkId>,
    middleware: Option<LinkId>,
    engine: Engine,
    free_slots: Vec<u32>,
    /// Per-site FIFO queue of placed jobs waiting for a slot.
    site_queue: Vec<VecDeque<usize>>,
    /// Per-site explicit caches (LRU versions only).
    caches: Vec<LruCache>,
    exec_site: Vec<usize>,
    pending_transfers: Vec<u32>,
    end_time: Vec<f64>,
    makespan: f64,
    completed: usize,
    /// Jobs awaiting a broker decision (per-job broker only).
    broker_queue: VecDeque<usize>,
    broker_busy: bool,
}

impl Sim<'_> {
    /// Input bytes of job `j` the broker judges local to `site`.
    ///
    /// The bulk broker sees static file homes only; the per-job broker
    /// additionally credits dynamic site state — explicit cache contents
    /// under the LRU model, the expected locally-served fraction under
    /// the analytic model.
    fn local_mb(&self, j: usize, site: usize, dynamic: bool) -> f64 {
        let mut local = 0.0;
        let mut remote = 0.0;
        for &f in &self.workload.jobs[j].reads {
            let file = &self.workload.files[f];
            let cached =
                dynamic && self.version.cache == CacheDetail::Lru && self.caches[site].contains(f);
            if file.home == site || cached {
                local += file.size_mb;
            } else {
                remote += file.size_mb;
            }
        }
        if dynamic && self.version.cache == CacheDetail::HitRatio {
            local += self.model.hit_ratio * remote;
        }
        local
    }

    /// Pick the execution site for job `j` (most local input bytes, ties
    /// to the lowest site index).
    fn choose_site(&self, j: usize, dynamic: bool) -> usize {
        let mut best = 0;
        let mut best_mb = f64::NEG_INFINITY;
        for site in 0..self.workload.sites {
            let mb = self.local_mb(j, site, dynamic);
            if mb > best_mb {
                best = site;
                best_mb = mb;
            }
        }
        best
    }

    /// Place job `j` on `site`: queue it, and start it if a slot is free.
    fn place(&mut self, j: usize, site: usize, now: f64) {
        self.exec_site[j] = site;
        self.site_queue[site].push_back(j);
        self.try_start(site, now);
    }

    /// Start queued jobs on `site` while slots remain.
    fn try_start(&mut self, site: usize, now: f64) {
        while self.free_slots[site] > 0 {
            let Some(j) = self.site_queue[site].pop_front() else {
                return;
            };
            self.free_slots[site] -= 1;
            self.stage(j, now);
        }
    }

    /// Stage job `j`'s inputs on its execution site: resolve cache hits,
    /// launch WAN transfers for the misses, or go straight to compute.
    fn stage(&mut self, j: usize, now: f64) {
        let site = self.exec_site[j];
        let workload = self.workload;
        let n = workload.jobs.len() as u64;
        // Catalog indices (with sizes) that must come over the WAN.
        let mut misses: Vec<(usize, f64)> = Vec::new();
        for &f in &workload.jobs[j].reads {
            let file = workload.files[f];
            if file.home == site {
                continue;
            }
            match self.version.cache {
                CacheDetail::Lru => {
                    if !self.caches[site].probe(f) {
                        self.caches[site].insert(f, file.size_mb);
                        misses.push((f, file.size_mb));
                    }
                }
                CacheDetail::HitRatio => {
                    // Analytic cache: a fixed fraction of every remote
                    // read is served locally.
                    let mb = file.size_mb * (1.0 - self.model.hit_ratio);
                    if mb > 0.0 {
                        misses.push((f, mb));
                    }
                }
            }
        }

        if misses.is_empty() {
            self.start_compute(j, now);
            return;
        }
        match self.version.transfer {
            TransferDetail::PerFile => {
                let middleware = self.middleware.expect("per-file versions have middleware");
                self.pending_transfers[j] = misses.len() as u32;
                for (f, mb) in misses {
                    let home = self.workload.files[f].home;
                    let route = vec![middleware, self.access[home], self.access[site]];
                    self.engine.add_activity(
                        ActivityKind::flow(route, mb + self.model.ramp_mb),
                        3 * n + j as u64,
                    );
                }
            }
            TransferDetail::FlowLevel => {
                // One aggregate flow into the execution site; sources are
                // deliberately not modelled at this level of detail.
                let total: f64 = misses.iter().map(|&(_, mb)| mb).sum();
                self.pending_transfers[j] = 1;
                self.engine.add_activity(
                    ActivityKind::flow(vec![self.access[site]], total),
                    3 * n + j as u64,
                );
            }
        }
    }

    /// All inputs staged: run the compute phase as one absolute timer.
    fn start_compute(&mut self, j: usize, now: f64) {
        let job = &self.workload.jobs[j];
        let input_mb = self.workload.input_mb(job);
        let runtime = (job.work / self.model.core_speed + input_mb / self.model.disk_bandwidth)
            * self.noise[j];
        let end = now + runtime;
        self.end_time[j] = end;
        self.makespan = self.makespan.max(end);
        self.engine
            .add_activity(ActivityKind::timer_at(end), j as u64);
    }

    /// Broker intake for job `j` at arrival time `now`.
    fn arrive(&mut self, j: usize, now: f64) {
        let n = self.workload.jobs.len() as u64;
        match self.version.broker {
            BrokerDetail::Bulk => {
                let site = self.choose_site(j, false);
                self.place(j, site, now);
            }
            BrokerDetail::PerJob => {
                if self.broker_busy {
                    self.broker_queue.push_back(j);
                } else {
                    self.broker_busy = true;
                    self.engine.add_activity(
                        ActivityKind::timer_at(now + self.model.broker_overhead),
                        2 * n + j as u64,
                    );
                }
            }
        }
    }

    /// Per-job broker decision completed for job `j`.
    fn broker_done(&mut self, j: usize, now: f64) {
        let n = self.workload.jobs.len() as u64;
        let site = self.choose_site(j, true);
        self.place(j, site, now);
        if let Some(next) = self.broker_queue.pop_front() {
            self.engine.add_activity(
                ActivityKind::timer_at(now + self.model.broker_overhead),
                2 * n + next as u64,
            );
        } else {
            self.broker_busy = false;
        }
    }

    fn run(&mut self) {
        let n = self.workload.jobs.len();
        // All arrivals enter the engine as one batch of absolute timers.
        let arrivals: Vec<(ActivityKind, u64)> = self
            .workload
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| (ActivityKind::timer_at(job.submit_time), (n + j) as u64))
            .collect();
        self.engine.add_activities(arrivals);

        while self.completed < n {
            let c = self
                .engine
                .step()
                .unwrap_or_else(|| panic!("no events but {} jobs incomplete", n - self.completed));
            let now = c.time;
            let tag = c.tag as usize;
            if tag < n {
                // Compute completion: free the slot, admit the next job.
                let site = self.exec_site[tag];
                self.free_slots[site] += 1;
                self.completed += 1;
                self.try_start(site, now);
            } else if tag < 2 * n {
                self.arrive(tag - n, now);
            } else if tag < 3 * n {
                self.broker_done(tag - 2 * n, now);
            } else {
                let j = tag - 3 * n;
                self.pending_transfers[j] -= 1;
                if self.pending_transfers[j] == 0 {
                    self.start_compute(j, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, GridSpec};

    fn resolved() -> ResolvedGrid {
        ResolvedGrid {
            core_speed: 1.0,
            wan_bandwidth: 10.0,
            wan_latency: 0.2,
            disk_bandwidth: 100.0,
            hit_ratio: 0.0,
            cache_mb: 1024.0,
            transfer_startup: 1.0,
            broker_overhead: 0.5,
            noise_sigma: 0.0,
            noise_seed: 0,
            ramp_mb: 0.0,
        }
    }

    fn workload() -> GridWorkload {
        generate(&GridSpec {
            jobs: 30,
            files: 48,
            ..GridSpec::default()
        })
    }

    #[test]
    fn every_version_completes_every_job() {
        let w = workload();
        for v in GridVersion::all() {
            let out = execute(&w, v, &resolved());
            assert_eq!(out.turnarounds.len(), w.jobs.len(), "{}", v.label());
            assert!(out.makespan > 0.0);
            assert!(out.turnarounds.iter().all(|t| *t > 0.0));
            assert!(out.sim_events > 0);
        }
    }

    #[test]
    #[should_panic(expected = "flow/hitratio/bulk: 6 calibration values for 5 parameters")]
    fn a_calibration_with_a_value_left_over_is_refused() {
        let version = GridVersion::lowest_detail();
        let mut calib = version.parameter_space().denormalize(&[0.5; 5]);
        calib.values.push(1.0);
        GridSimulator::new(version).simulate(&workload(), &calib);
    }

    #[test]
    fn execution_is_deterministic() {
        let w = workload();
        for v in GridVersion::all() {
            assert_eq!(
                execute(&w, v, &resolved()),
                execute(&w, v, &resolved()),
                "{}",
                v.label()
            );
        }
    }

    #[test]
    fn versions_differ_in_predictions_and_cost() {
        let w = workload();
        let low = execute(&w, GridVersion::lowest_detail(), &resolved());
        let high = execute(&w, GridVersion::highest_detail(), &resolved());
        assert_ne!(low.makespan, high.makespan);
        assert!(
            high.sim_events > low.sim_events,
            "higher detail must cost more: {} vs {}",
            high.sim_events,
            low.sim_events
        );
    }

    #[test]
    fn perfect_hit_ratio_removes_wan_time() {
        let w = workload();
        let v = GridVersion::lowest_detail();
        let cold = execute(&w, v, &resolved());
        let mut warm_model = resolved();
        warm_model.hit_ratio = 1.0;
        let warm = execute(&w, v, &warm_model);
        assert!(
            warm.makespan < cold.makespan,
            "warm {} vs cold {}",
            warm.makespan,
            cold.makespan
        );
    }

    #[test]
    fn bigger_lru_cache_never_hurts_much_and_usually_helps() {
        let w = generate(&GridSpec {
            jobs: 60,
            files: 32,
            skew: 2.0,
            ..GridSpec::default()
        });
        let v = GridVersion {
            cache: CacheDetail::Lru,
            ..GridVersion::lowest_detail()
        };
        let mut small = resolved();
        small.cache_mb = 1.0; // effectively no cache
        let mut big = resolved();
        big.cache_mb = 1e6; // everything fits
        let out_small = execute(&w, v, &small);
        let out_big = execute(&w, v, &big);
        assert!(
            out_big.makespan < out_small.makespan,
            "big cache {} vs none {}",
            out_big.makespan,
            out_small.makespan
        );
    }

    #[test]
    fn per_file_startup_slows_transfers_down() {
        let w = workload();
        let flow = execute(
            &w,
            GridVersion {
                transfer: TransferDetail::FlowLevel,
                ..GridVersion::lowest_detail()
            },
            &resolved(),
        );
        let mut expensive = resolved();
        expensive.transfer_startup = 30.0;
        let perfile = execute(
            &w,
            GridVersion {
                transfer: TransferDetail::PerFile,
                ..GridVersion::lowest_detail()
            },
            &expensive,
        );
        assert!(
            perfile.makespan > flow.makespan,
            "per-file {} vs flow {}",
            perfile.makespan,
            flow.makespan
        );
    }

    #[test]
    fn broker_overhead_serialises_placements() {
        let w = workload();
        let bulk = execute(&w, GridVersion::lowest_detail(), &resolved());
        let mut slow = resolved();
        slow.broker_overhead = 20.0;
        let perjob = execute(
            &w,
            GridVersion {
                broker: BrokerDetail::PerJob,
                ..GridVersion::lowest_detail()
            },
            &slow,
        );
        assert!(
            perjob.makespan > bulk.makespan,
            "per-job {} vs bulk {}",
            perjob.makespan,
            bulk.makespan
        );
    }

    #[test]
    fn simulator_api_is_deterministic() {
        let w = workload();
        let version = GridVersion::highest_detail();
        let space = version.parameter_space();
        let calib = space.denormalize(&vec![0.5; space.dim()]);
        let sim = GridSimulator::new(version);
        assert_eq!(sim.simulate(&w, &calib), sim.simulate(&w, &calib));
    }

    #[test]
    fn lru_cache_evicts_in_recency_order() {
        let mut c = LruCache::new(10.0);
        c.insert(0, 4.0);
        c.insert(1, 4.0);
        assert!(c.probe(0)); // 0 is now most recent
        c.insert(2, 4.0); // evicts 1
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert!(c.ops > 0);
    }

    #[test]
    fn oversized_file_is_not_retained() {
        let mut c = LruCache::new(10.0);
        c.insert(0, 50.0);
        assert!(!c.contains(0));
        assert_eq!(c.used_mb, 0.0);
    }
}
