//! The reference engine: the original full-recompute event loop.
//!
//! [`ReferenceEngine`] keeps the straightforward fluid-model loop the crate
//! started with: on every activity-set change it recomputes *every* rate
//! from scratch, and every [`ReferenceEngine::step`] linearly scans all
//! activities for the earliest completion and rewrites every `remaining`
//! amount. That is `O(n)` per event (`O(n^2)` per simulation); it exists
//! as the **oracle** for the optimized [`crate::Engine`]: simple enough to
//! audit by eye, and property tests assert both engines emit the same
//! completion sequence on randomized workloads.
//!
//! One deliberate fix relative to the historical code: an unconstrained
//! (empty-route) flow used to get the sentinel rate `f64::MAX`, and its
//! completion relied on `remaining / f64::MAX` producing a subnormal time
//! step — which both skewed virtual time (1e300 bytes "took" ~5.6e-9
//! simulated seconds) and risked `remaining - rate * dt` overflowing for
//! other activities. Infinite rates are now kept as `f64::INFINITY` and
//! handled explicitly: such flows complete at the current instant and are
//! excluded from progress arithmetic.

use crate::engine::{ActivityId, ActivityKind, Completion};
use crate::platform::{DiskId, Platform};
use crate::sharing::max_min_fair_share;
use std::collections::BTreeMap;

/// Tolerance under which a remaining amount counts as finished.
const EPS: f64 = 1e-9;

#[derive(Clone, Debug)]
enum Phase {
    /// Flow still paying its route latency (`remaining` is seconds).
    Latency,
    /// Transferring / computing / waiting.
    Active,
}

#[derive(Clone, Debug)]
struct Act {
    kind: ActivityKind,
    tag: u64,
    phase: Phase,
    remaining: f64,
    rate: f64,
}

/// The original full-recompute, linear-scan engine (see module docs).
///
/// Same observable contract as [`crate::Engine`] — identical completion
/// sequences up to floating-point noise — at `O(n)` cost per event.
#[derive(Clone, Debug)]
pub struct ReferenceEngine {
    platform: Platform,
    time: f64,
    next_id: u64,
    acts: BTreeMap<u64, Act>,
    dirty: bool,
}

impl ReferenceEngine {
    /// Create an engine over `platform`, at virtual time 0.
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            time: 0.0,
            next_id: 0,
            acts: BTreeMap::new(),
            dirty: true,
        }
    }

    /// Current virtual time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Number of in-flight activities.
    pub fn active_count(&self) -> usize {
        self.acts.len()
    }

    /// Add an activity; `tag` is echoed back in its [`Completion`].
    pub fn add_activity(&mut self, kind: ActivityKind, tag: u64) -> ActivityId {
        let id = self.next_id;
        self.next_id += 1;
        let (phase, remaining) = match &kind {
            ActivityKind::Compute { work, .. } => (Phase::Active, *work),
            ActivityKind::Io { bytes, .. } => (Phase::Active, *bytes),
            ActivityKind::Flow { route, bytes } => {
                let lat = self.platform.route_latency(route);
                if lat > 0.0 {
                    (Phase::Latency, lat)
                } else {
                    (Phase::Active, *bytes)
                }
            }
            ActivityKind::Timer { delay } => (Phase::Active, *delay),
            ActivityKind::TimerAt { at } => (Phase::Active, (*at - self.time).max(0.0)),
        };
        self.acts.insert(
            id,
            Act {
                kind,
                tag,
                phase,
                remaining,
                rate: 0.0,
            },
        );
        self.dirty = true;
        ActivityId(id)
    }

    /// Batch add; equivalent to repeated [`ReferenceEngine::add_activity`].
    pub fn add_activities(
        &mut self,
        batch: impl IntoIterator<Item = (ActivityKind, u64)>,
    ) -> Vec<ActivityId> {
        batch
            .into_iter()
            .map(|(kind, tag)| self.add_activity(kind, tag))
            .collect()
    }

    /// Recompute every activity's progress rate from the current set.
    fn recompute_rates(&mut self) {
        // Flows in the Active phase share links max-min fair.
        let flow_ids: Vec<u64> = self
            .acts
            .iter()
            .filter(|(_, a)| {
                matches!(a.kind, ActivityKind::Flow { .. }) && matches!(a.phase, Phase::Active)
            })
            .map(|(id, _)| *id)
            .collect();
        let caps: Vec<f64> = self.platform.links().map(|(_, l)| l.bandwidth).collect();
        let routes: Vec<Vec<usize>> = flow_ids
            .iter()
            .map(|id| match &self.acts[id].kind {
                ActivityKind::Flow { route, .. } => route.iter().map(|l| l.index()).collect(),
                _ => unreachable!(),
            })
            .collect();
        let flow_rates = max_min_fair_share(&caps, &routes);
        for (id, rate) in flow_ids.iter().zip(flow_rates) {
            // An empty route (intra-host transfer) is unconstrained; the
            // infinite rate is handled explicitly in `step`.
            self.acts.get_mut(id).unwrap().rate = rate;
        }

        // Disk ops: oldest `max_concurrency` ops on each disk share its
        // bandwidth equally; younger ops wait at rate 0.
        for d in 0..self.platform.num_disks() {
            let disk = self.platform.disk(DiskId(d));
            let ops: Vec<u64> = self
                .acts
                .iter()
                .filter(|(_, a)| matches!(a.kind, ActivityKind::Io { disk: did, .. } if did.index() == d))
                .map(|(id, _)| *id)
                .collect();
            let served = ops.len().min(disk.max_concurrency as usize);
            let share = if served > 0 {
                disk.bandwidth / served as f64
            } else {
                0.0
            };
            for (i, id) in ops.iter().enumerate() {
                self.acts.get_mut(id).unwrap().rate = if i < served { share } else { 0.0 };
            }
        }

        // Computations, timers, and latency-phase flows progress in their
        // own unit at fixed rates.
        for a in self.acts.values_mut() {
            match (&a.kind, &a.phase) {
                (ActivityKind::Compute { rate, .. }, _) => a.rate = *rate,
                (ActivityKind::Timer { .. }, _) => a.rate = 1.0,
                (ActivityKind::TimerAt { .. }, _) => a.rate = 1.0,
                (ActivityKind::Flow { .. }, Phase::Latency) => a.rate = 1.0,
                _ => {}
            }
        }
        self.dirty = false;
    }

    /// Advance to the next completion and return it, or `None` when no
    /// activities remain.
    pub fn step(&mut self) -> Option<Completion> {
        loop {
            if self.acts.is_empty() {
                return None;
            }
            if self.dirty {
                self.recompute_rates();
            }

            // Earliest event: min over activities of remaining/rate. An
            // infinite rate means the activity completes this instant.
            let mut best: Option<(u64, f64)> = None;
            for (&id, a) in &self.acts {
                let dt = if a.remaining <= EPS || a.rate.is_infinite() {
                    0.0
                } else if a.rate > 0.0 {
                    a.remaining / a.rate
                } else {
                    f64::INFINITY
                };
                if best.is_none_or(|(_, b)| dt < b) {
                    best = Some((id, dt));
                }
            }
            let (event_id, dt) = best.expect("non-empty activity set");
            assert!(
                dt.is_finite(),
                "deadlock: every in-flight activity has rate 0 (time {})",
                self.time
            );

            // Advance all activities by dt (infinite-rate flows complete
            // at dt = 0 and never enter this arithmetic).
            if dt > 0.0 {
                self.time += dt;
                for a in self.acts.values_mut() {
                    if a.rate > 0.0 && a.rate.is_finite() {
                        a.remaining = (a.remaining - a.rate * dt).max(0.0);
                    }
                }
            }

            let act = self.acts.get_mut(&event_id).expect("event activity exists");
            match act.phase {
                Phase::Latency => {
                    // Latency paid: start the transfer phase.
                    let bytes = match &act.kind {
                        ActivityKind::Flow { bytes, .. } => *bytes,
                        _ => unreachable!("only flows have a latency phase"),
                    };
                    act.phase = Phase::Active;
                    act.remaining = bytes;
                    act.rate = 0.0;
                    self.dirty = true;
                    // Loop: the phase change alters sharing but completes
                    // nothing caller-visible.
                }
                Phase::Active => {
                    let tag = act.tag;
                    self.acts.remove(&event_id);
                    self.dirty = true;
                    return Some(Completion {
                        id: ActivityId(event_id),
                        tag,
                        time: self.time,
                    });
                }
            }
        }
    }

    /// Run until no activities remain, returning every completion in order.
    pub fn run_to_completion(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = self.step() {
            out.push(c);
        }
        out
    }
}
