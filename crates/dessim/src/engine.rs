//! The discrete-event engine: activities, virtual time, and completions.
//!
//! The engine owns a [`Platform`] and a set of in-flight activities. Each
//! call to [`Engine::step`] advances virtual time to the next activity
//! completion and returns it; the simulator built on top reacts by adding
//! new activities.
//!
//! Unlike the naive fluid-model loop (recompute every rate and scan every
//! activity at every event — see [`crate::reference::ReferenceEngine`]),
//! this engine is built for 10⁶ concurrent activities. Four mechanisms
//! carry the hot path (see DESIGN.md for the per-mechanism O(·) bounds):
//!
//! - **Structure-of-arrays storage.** Activity state is split into a hot
//!   column of 32-byte rows (`remaining`, `rate`, `materialized_at`, heap
//!   position, flags) that the step loop touches, and cold columns
//!   (serial id, tag, route/disk metadata) it mostly doesn't. Slots are
//!   recycled through a free list; the *serial* id handed out as
//!   [`ActivityId`] is never reused, so recycling is invisible to
//!   callers. All route segments live in one shared arena (`Vec<u32>` of
//!   link indices), compacted when more than half is dead — no
//!   per-activity heap allocation survives `add_activity`.
//! - **Addressable event heap.** Predicted completion times live in an
//!   indexed 4-ary min-heap ordered by `(finish, serial)`. An entry is
//!   16 bytes: `finish` as its order-preserving `u64` image (the order of
//!   `f64::total_cmp`) and the slot; the serial is read from its column
//!   only on a key tie. Each activity's current heap position is stored
//!   in its hot row, so a rate change *moves* its single entry (a hole
//!   sift up or down) instead of abandoning a stale one. The heap never
//!   holds more entries than live activities.
//! - **Frontier-limited rate recomputation.** An add or completion marks
//!   the links it touches; the re-solve covers only those links, the
//!   flows crossing them, and their *boundary* links (modeled by residual
//!   capacity), expanding outward only when the candidate solution proves
//!   the boundary approximation wrong ([`crate::sharing::Frontier`]).
//!   Whole-component walks — `O(component)` per event on well-connected
//!   platforms — are gone from the hot path.
//! - **Same-instant batch draining.** After popping an event, every
//!   further heap entry provably due at the same timestamp (timers,
//!   zero-remaining activities, anything a pending re-solve cannot move)
//!   is drained into an internal completion queue before the next sharing
//!   flush, so a burst of simultaneous completions costs one
//!   invalidation+re-solve pass instead of one per event.
//!
//! Rate recomputation is deferred and merged: any number of
//! [`Engine::add_activity`] / [`Engine::add_activities`] calls between two
//! events trigger a single incremental re-solve.
//!
//! **Determinism contract:** completion order and times are a function of
//! the platform and the add sequence only — independent of storage
//! layout, slot recycling, and frontier size. Ties at one instant resolve
//! by serial (add) order, and residual-capacity sums are taken in serial
//! order so registry order never leaks into float arithmetic. The order
//! flows enter a candidate problem and the order their rates are
//! committed are immaterial: the solver's per-flow rates do not depend on
//! push order, a commit touches only the flow's own row, and the event
//! heap pops by the total order `(finish, serial)` whatever its layout.

use crate::platform::{DiskId, LinkId, Platform};
use crate::sharing::{Frontier, Workspace};
use std::collections::VecDeque;

/// Tolerance under which a remaining amount counts as finished.
const EPS: f64 = 1e-9;

/// Sentinel heap position: the activity has no queued prediction.
const NO_HEAP: u32 = u32::MAX;

// Hot-row flag layout: low 3 bits hold the kind, the rest are state bits.
const KIND_MASK: u32 = 0x7;
const KIND_COMPUTE: u32 = 0;
const KIND_IO: u32 = 1;
const KIND_FLOW: u32 = 2;
const KIND_TIMER: u32 = 3;
const KIND_TIMER_AT: u32 = 4;
/// Slot holds a live (not yet completed) activity.
const FLAG_LIVE: u32 = 0x8;
/// Flow still paying its route latency (`remaining` is seconds).
const FLAG_LATENCY: u32 = 0x10;
/// The activity's rate or phase changed after its first prediction; any
/// further schedule is a *re*-insert (mirrors the old generation counter
/// for [`KernelCounters::heap_reinserts`]).
const FLAG_RESCHED: u32 = 0x20;

/// Unique identifier of an activity within one [`Engine`].
///
/// Ids are serial: assigned in add order and never reused, even though
/// the engine recycles internal storage slots of completed activities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) u64);

/// What an activity does. Construct via the helper constructors.
#[derive(Clone, Debug)]
pub enum ActivityKind {
    /// Computation progressing at a fixed caller-chosen rate (ops/s).
    Compute {
        /// Progress rate in operations per second.
        rate: f64,
        /// Total work in operations.
        work: f64,
    },
    /// A disk I/O operation; the disk's bandwidth is shared equally among
    /// the oldest `max_concurrency` pending operations.
    Io {
        /// Target disk.
        disk: DiskId,
        /// Bytes to read or write.
        bytes: f64,
    },
    /// A network flow across a route of links; bandwidth shared max-min
    /// fair with all other active flows. The route's total latency is
    /// charged serially before the transfer starts.
    Flow {
        /// Links traversed, in order.
        route: Vec<LinkId>,
        /// Bytes to transfer.
        bytes: f64,
    },
    /// Fires after a fixed delay (e.g. a scheduler's periodic cycle).
    Timer {
        /// Delay in seconds from the moment the timer is added.
        delay: f64,
    },
    /// Fires at an absolute virtual time (immediately if already past).
    /// Unlike [`ActivityKind::Timer`], the deadline does not depend on
    /// when the activity is added, so schedulers can pre-compute exact
    /// event times.
    TimerAt {
        /// Absolute deadline in seconds of virtual time.
        at: f64,
    },
}

impl ActivityKind {
    /// A fixed-rate computation of `work` operations at `rate` ops/s.
    ///
    /// # Panics
    /// Panics if `rate <= 0`, or if either argument is non-finite or
    /// `work < 0`.
    pub fn compute(rate: f64, work: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "compute rate must be positive"
        );
        assert!(
            work >= 0.0 && work.is_finite(),
            "compute work must be non-negative"
        );
        ActivityKind::Compute { rate, work }
    }

    /// A disk I/O operation of `bytes` bytes.
    ///
    /// # Panics
    /// Panics if `bytes` is negative or non-finite.
    pub fn io(disk: DiskId, bytes: f64) -> Self {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "io bytes must be non-negative"
        );
        ActivityKind::Io { disk, bytes }
    }

    /// A network flow of `bytes` bytes along `route`.
    ///
    /// # Panics
    /// Panics if `bytes` is negative or non-finite.
    pub fn flow(route: Vec<LinkId>, bytes: f64) -> Self {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "flow bytes must be non-negative"
        );
        ActivityKind::Flow { route, bytes }
    }

    /// A timer firing `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or non-finite.
    pub fn timer(delay: f64) -> Self {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "timer delay must be non-negative"
        );
        ActivityKind::Timer { delay }
    }

    /// A timer firing at absolute virtual time `at` (or immediately if
    /// `at` is already in the past when added).
    ///
    /// # Panics
    /// Panics if `at` is negative or non-finite.
    pub fn timer_at(at: f64) -> Self {
        assert!(
            at >= 0.0 && at.is_finite(),
            "timer deadline must be non-negative"
        );
        ActivityKind::TimerAt { at }
    }
}

/// A finished activity, as returned by [`Engine::step`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// The finished activity.
    pub id: ActivityId,
    /// The caller-supplied tag identifying what this activity meant.
    pub tag: u64,
    /// Virtual time of completion, in seconds.
    pub time: f64,
}

/// Hot per-activity state: everything the step loop reads or writes per
/// event, packed into one 32-byte row (two rows per cache line).
#[derive(Clone, Copy, Debug)]
struct Hot {
    /// Remaining amount in the unit of the current phase, valid as of
    /// `materialized_at`.
    remaining: f64,
    /// Current progress rate; `f64::INFINITY` for unconstrained
    /// (empty-route) flows, which complete at the current instant.
    rate: f64,
    /// Virtual time at which `remaining` was last brought up to date.
    materialized_at: f64,
    /// Index of this activity's entry in the event heap, or [`NO_HEAP`].
    heap_pos: u32,
    /// Kind discriminant and state bits (`KIND_*` / `FLAG_*`).
    flags: u32,
}

/// Bring `remaining` up to date at `now` under the activity's current rate.
fn materialize(h: &mut Hot, now: f64) {
    if now > h.materialized_at {
        if h.rate.is_infinite() {
            h.remaining = 0.0;
        } else if h.rate > 0.0 {
            h.remaining = (h.remaining - h.rate * (now - h.materialized_at)).max(0.0);
        }
    }
    h.materialized_at = now;
}

/// The order-preserving `u64` image of `x`: `key_of(a) < key_of(b)` iff
/// `a.total_cmp(&b)` is `Less`. Non-negatives get their sign bit set,
/// negatives have every bit flipped; [`finish_of`] inverts it exactly.
#[inline]
fn key_of(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The `f64` whose [`key_of`] is `key`, bit for bit.
#[inline]
fn finish_of(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// An event-heap entry: a predicted completion (or phase transition).
///
/// The tie-break is the activity's serial id, so simultaneous events fire
/// in add order (matching the reference engine's scan order). It is read
/// from the engine's serial column only when two keys are equal, which
/// keeps an entry at 16 bytes.
#[derive(Clone, Copy, Debug)]
struct Ev {
    /// [`key_of`] the predicted finish time.
    key: u64,
    /// Slot of the live activity this entry predicts.
    slot: u32,
}

impl Ev {
    fn new(finish: f64, slot: u32) -> Self {
        Ev {
            key: key_of(finish),
            slot,
        }
    }

    fn finish(&self) -> f64 {
        finish_of(self.key)
    }

    /// Min-order on `(finish, serial)` under `f64::total_cmp`, with each
    /// slot's serial in `serials`; serials are unique, so this is total.
    #[inline]
    fn lt(&self, other: &Ev, serials: &[u64]) -> bool {
        self.key < other.key
            || (self.key == other.key && serials[self.slot as usize] < serials[other.slot as usize])
    }
}

/// Children per heap node: a shallower tree than a binary heap, with the
/// four children of a node adjacent in memory.
const ARITY: usize = 4;

/// Addressable 4-ary min-heap of predicted completions.
///
/// Each live activity has at most one entry; its position is maintained
/// in the hot row (`heap_pos`), so a rate change relocates the entry in
/// `O(log n)` instead of leaving a stale one behind, and the heap never
/// holds more entries than live activities. Sifts move a *hole*: the
/// moving entry is carried and written once, at its final position, and
/// each entry it passes is written (and its `heap_pos` updated) once.
#[derive(Clone, Debug, Default)]
struct EventHeap {
    v: Vec<Ev>,
}

impl EventHeap {
    fn peek(&self) -> Option<&Ev> {
        self.v.first()
    }

    /// Write `e` at `i` and record its position.
    #[inline]
    fn place(&mut self, hot: &mut [Hot], i: usize, e: Ev) {
        self.v[i] = e;
        hot[e.slot as usize].heap_pos = i as u32;
    }

    /// Move the hole at `i` up until `e` fits, then place `e` there.
    fn sift_up(&mut self, hot: &mut [Hot], serials: &[u64], mut i: usize, e: Ev) {
        while i > 0 {
            let p = (i - 1) / ARITY;
            let parent = self.v[p];
            if !e.lt(&parent, serials) {
                break;
            }
            self.place(hot, i, parent);
            i = p;
        }
        self.place(hot, i, e);
    }

    /// Move the hole at `i` down until `e` fits, then place `e` there.
    fn sift_down(&mut self, hot: &mut [Hot], serials: &[u64], mut i: usize, e: Ev) {
        let n = self.v.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut c = first;
            let mut child = self.v[first];
            for j in first + 1..(first + ARITY).min(n) {
                if self.v[j].lt(&child, serials) {
                    c = j;
                    child = self.v[j];
                }
            }
            if !child.lt(&e, serials) {
                break;
            }
            self.place(hot, i, child);
            i = c;
        }
        self.place(hot, i, e);
    }

    /// Fill the hole at `i` with `e`, sifting whichever way it must go.
    fn fill(&mut self, hot: &mut [Hot], serials: &[u64], i: usize, e: Ev) {
        if i > 0 && e.lt(&self.v[(i - 1) / ARITY], serials) {
            self.sift_up(hot, serials, i, e);
        } else {
            self.sift_down(hot, serials, i, e);
        }
    }

    /// Insert `e`, or relocate the slot's existing entry to `e`.
    fn upsert(&mut self, hot: &mut [Hot], serials: &[u64], e: Ev) {
        let pos = hot[e.slot as usize].heap_pos;
        if pos == NO_HEAP {
            self.v.push(e);
            self.sift_up(hot, serials, self.v.len() - 1, e);
        } else {
            self.fill(hot, serials, pos as usize, e);
        }
    }

    /// Remove the slot's entry, if it has one.
    fn remove(&mut self, hot: &mut [Hot], serials: &[u64], slot: u32) {
        let pos = hot[slot as usize].heap_pos;
        if pos == NO_HEAP {
            return;
        }
        hot[slot as usize].heap_pos = NO_HEAP;
        let last = self.v.pop().expect("non-empty: slot had an entry");
        if (pos as usize) < self.v.len() {
            self.fill(hot, serials, pos as usize, last);
        }
    }

    /// Pop the minimum entry.
    fn pop_min(&mut self, hot: &mut [Hot], serials: &[u64]) -> Option<Ev> {
        let min = *self.v.first()?;
        hot[min.slot as usize].heap_pos = NO_HEAP;
        let last = self.v.pop().expect("heap is non-empty");
        if !self.v.is_empty() {
            self.sift_down(hot, serials, 0, last);
        }
        Some(min)
    }
}

/// Queue (or relocate) the slot's predicted completion, if one is
/// determinable: finished or unconstrained activities complete now;
/// rate-0 activities stay unscheduled — their entry, if any, is removed —
/// until a rate change makes progress possible.
fn schedule(
    hot: &mut [Hot],
    heap: &mut EventHeap,
    serials: &[u64],
    now: f64,
    slot: u32,
    reinserts: &mut u64,
) {
    let h = hot[slot as usize];
    let finish = if h.remaining <= EPS || h.rate.is_infinite() {
        now
    } else if h.rate > 0.0 {
        now + h.remaining / h.rate
    } else {
        heap.remove(hot, serials, slot);
        return;
    };
    if h.flags & FLAG_RESCHED != 0 {
        *reinserts += 1;
    }
    heap.upsert(hot, serials, Ev::new(finish, slot));
}

/// Change an activity's rate: materialize progress under the old rate and
/// relocate its queued prediction.
fn set_rate(
    hot: &mut [Hot],
    heap: &mut EventHeap,
    serials: &[u64],
    now: f64,
    slot: u32,
    rate: f64,
    reinserts: &mut u64,
) {
    let h = &mut hot[slot as usize];
    if h.rate == rate {
        return;
    }
    materialize(h, now);
    h.rate = rate;
    h.flags |= FLAG_RESCHED;
    schedule(hot, heap, serials, now, slot, reinserts);
}

/// Deterministic kernel work counters, read via [`Engine::counters`].
///
/// All of these are host-independent measures of simulation effort:
/// identical platforms and workloads produce identical counts on any
/// machine and thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Completions delivered by [`Engine::step`].
    pub events: u64,
    /// Predicted-completion heap updates beyond each activity's first:
    /// every rate change or phase transition relocates the activity's
    /// heap entry to a fresh prediction.
    pub heap_reinserts: u64,
    /// Incremental max-min re-solves: one per touched disk re-share
    /// plus one per candidate frontier solve (expansion iterations
    /// included).
    pub sharing_resolves: u64,
    /// Total links included in committed frontier solves; divided by the
    /// link share of [`KernelCounters::sharing_resolves`] this is the
    /// mean frontier size, the quantity the frontier optimization keeps
    /// small on well-connected platforms.
    pub frontier_links: u64,
    /// Work inside the link re-solves: links scanned for a bottleneck
    /// plus per-link flow-list entries walked when freezing, summed over
    /// every filling round of every candidate solve. This is the term
    /// that grows with the size of a welded component while
    /// [`KernelCounters::sharing_resolves`] and
    /// [`KernelCounters::frontier_links`] stay flat.
    pub solver_visits: u64,
    /// Peak bytes allocated to the shared route arena (capacity, not
    /// live length), tracking the storage cost of route metadata.
    pub arena_bytes: u64,
}

impl Drop for Engine {
    /// Flushes this engine's [`KernelCounters`] to the global [`obs`]
    /// recorder (a no-op when none is installed). Clones flush
    /// independently, so counts accumulated before a clone appear once
    /// per surviving copy.
    fn drop(&mut self) {
        if obs::enabled() {
            obs::counter(obs::Counter::KernelEvents, self.events);
            obs::counter(obs::Counter::KernelHeapReinserts, self.heap_reinserts);
            obs::counter(obs::Counter::KernelSharingResolves, self.sharing_resolves);
            obs::counter(obs::Counter::KernelFrontierLinks, self.frontier_links);
            obs::counter(obs::Counter::KernelSolverVisits, self.solver_visits);
            obs::counter(obs::Counter::KernelArenaBytes, self.arena_bytes);
        }
    }
}

/// Flow-level discrete-event simulation engine.
///
/// See the [crate-level docs](crate) for an example and the
/// [module docs](self) for the data structures behind `step`.
#[derive(Clone, Debug)]
pub struct Engine {
    platform: Platform,
    time: f64,
    /// Completions delivered by [`Engine::step`] since construction — a
    /// deterministic measure of how much simulation work this engine
    /// performed, independent of host speed (used by `lodsel` as the
    /// simulation-cost axis of its accuracy×cost trade-off).
    events: u64,
    /// Heap relocations past each activity's first prediction (see
    /// [`KernelCounters::heap_reinserts`]).
    heap_reinserts: u64,
    /// Incremental sharing re-solves (see
    /// [`KernelCounters::sharing_resolves`]).
    sharing_resolves: u64,
    /// Links in committed frontier solves (see
    /// [`KernelCounters::frontier_links`]).
    frontier_links: u64,
    /// Solver work inside link re-solves (see
    /// [`KernelCounters::solver_visits`]).
    solver_visits: u64,
    /// Peak route-arena footprint (see [`KernelCounters::arena_bytes`]).
    arena_bytes: u64,
    // --- Structure-of-arrays activity storage, indexed by slot. ---
    /// Hot rows: the only per-activity state the step loop touches.
    hot: Vec<Hot>,
    /// Serial id of the activity occupying each slot.
    serials: Vec<u64>,
    /// Caller-supplied tag of the activity occupying each slot.
    tags: Vec<u64>,
    /// Kind metadata: flows store the arena start index, I/O ops the
    /// disk index.
    m0: Vec<u32>,
    /// Kind metadata: flows store the (deduplicated) arena route length.
    m1: Vec<u32>,
    /// Flows: total transfer bytes, needed at the latency→transfer
    /// transition.
    bytes: Vec<f64>,
    /// Recycled slots (LIFO). Slot reuse is invisible to callers: ids
    /// are serial and never reused.
    free: Vec<u32>,
    /// Next serial id to hand out.
    next_serial: u64,
    /// Number of live slots.
    live: usize,
    // --- Shared route arena. ---
    /// All flow routes, flattened: per-flow segments of link indices,
    /// sorted and deduplicated. Dead segments are reclaimed by
    /// compaction once they outnumber live ones.
    routes: Vec<u32>,
    /// Total length of live segments in `routes`.
    routes_live: usize,
    heap: EventHeap,
    /// Completions drained at the current instant, awaiting delivery.
    ready: VecDeque<Completion>,
    /// Slots of Active-phase flows registered on each link (latency-phase
    /// flows consume no bandwidth and are not listed).
    link_flows: Vec<Vec<u32>>,
    /// Slots of pending I/O ops per disk, in FIFO (insertion) order.
    disk_ops: Vec<Vec<u32>>,
    /// Links/disks whose sharing changed since the last flush.
    touched_links: Vec<usize>,
    link_touched: Vec<bool>,
    touched_disks: Vec<usize>,
    disk_touched: Vec<bool>,
    /// Reusable max-min solver buffers.
    ws: Workspace,
    /// Reusable frontier-expansion state (change-queue, membership masks,
    /// per-link flow counts).
    frontier: Frontier,
}

impl Engine {
    /// Create an engine over `platform`, at virtual time 0.
    pub fn new(platform: Platform) -> Self {
        let nl = platform.num_links();
        let nd = platform.num_disks();
        Self {
            platform,
            time: 0.0,
            events: 0,
            heap_reinserts: 0,
            sharing_resolves: 0,
            frontier_links: 0,
            solver_visits: 0,
            arena_bytes: 0,
            hot: Vec::new(),
            serials: Vec::new(),
            tags: Vec::new(),
            m0: Vec::new(),
            m1: Vec::new(),
            bytes: Vec::new(),
            free: Vec::new(),
            next_serial: 0,
            live: 0,
            routes: Vec::new(),
            routes_live: 0,
            heap: EventHeap::default(),
            ready: VecDeque::new(),
            link_flows: vec![Vec::new(); nl],
            disk_ops: vec![Vec::new(); nd],
            touched_links: Vec::new(),
            link_touched: vec![false; nl],
            touched_disks: Vec::new(),
            disk_touched: vec![false; nd],
            ws: Workspace::new(),
            frontier: Frontier::new(),
        }
    }

    /// Current virtual time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completions delivered by [`Engine::step`] so far: a deterministic,
    /// host-independent count of the simulation work performed.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Deterministic kernel work counters accumulated since
    /// construction. These are plain field increments on the hot path
    /// (no atomics); they are additionally flushed to the global
    /// [`obs`] recorder — when one is installed — when the engine
    /// drops.
    pub fn counters(&self) -> KernelCounters {
        KernelCounters {
            events: self.events,
            heap_reinserts: self.heap_reinserts,
            sharing_resolves: self.sharing_resolves,
            frontier_links: self.frontier_links,
            solver_visits: self.solver_visits,
            arena_bytes: self.arena_bytes,
        }
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Number of in-flight activities (live plus drained-but-undelivered
    /// completions). O(1): maintained counters, no slab scan.
    pub fn active_count(&self) -> usize {
        self.live + self.ready.len()
    }

    /// Copy `route` into the arena as a sorted, deduplicated segment,
    /// compacting first when dead segments dominate. Returns
    /// `(start, len)`.
    fn arena_push(&mut self, route: &[LinkId]) -> (u32, u32) {
        if self.routes.len() >= 1024 && self.routes_live * 2 < self.routes.len() {
            self.compact_arena();
        }
        let start = self.routes.len();
        self.routes.extend(route.iter().map(|l| l.index() as u32));
        self.routes[start..].sort_unstable();
        let mut w = start;
        for r in start..self.routes.len() {
            if w == start || self.routes[r] != self.routes[w - 1] {
                self.routes[w] = self.routes[r];
                w += 1;
            }
        }
        self.routes.truncate(w);
        let len = w - start;
        self.routes_live += len;
        self.arena_bytes = self
            .arena_bytes
            .max((self.routes.capacity() * std::mem::size_of::<u32>()) as u64);
        (start as u32, len as u32)
    }

    /// Rewrite the arena with only live segments, updating each flow's
    /// start index. Runs when the arena is more than half dead, so its
    /// O(slots + live-routes) cost is amortized against the adds that
    /// created the garbage.
    fn compact_arena(&mut self) {
        let mut fresh = Vec::with_capacity(self.routes_live.max(64));
        for si in 0..self.hot.len() {
            let flags = self.hot[si].flags;
            if flags & FLAG_LIVE != 0 && flags & KIND_MASK == KIND_FLOW {
                let start = self.m0[si] as usize;
                let len = self.m1[si] as usize;
                self.m0[si] = fresh.len() as u32;
                fresh.extend_from_slice(&self.routes[start..start + len]);
            }
        }
        self.routes = fresh;
    }

    /// Add an activity; `tag` is echoed back in its [`Completion`].
    ///
    /// Rate recomputation is deferred until the next [`Engine::step`] /
    /// [`Engine::peek_time`], so consecutive adds at one instant cost a
    /// single incremental re-solve.
    pub fn add_activity(&mut self, kind: ActivityKind, tag: u64) -> ActivityId {
        let now = self.time;
        let serial = self.next_serial;
        self.next_serial += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.hot.len() as u32;
                self.hot.push(Hot {
                    remaining: 0.0,
                    rate: 0.0,
                    materialized_at: 0.0,
                    heap_pos: NO_HEAP,
                    flags: 0,
                });
                self.serials.push(0);
                self.tags.push(0);
                self.m0.push(0);
                self.m1.push(0);
                self.bytes.push(0.0);
                s
            }
        };
        let si = slot as usize;
        self.serials[si] = serial;
        self.tags[si] = tag;

        let mut exact_deadline = None;
        let (flags, remaining, rate) = match &kind {
            ActivityKind::Compute { work, rate } => (KIND_COMPUTE, *work, *rate),
            ActivityKind::Io { disk, bytes } => {
                let d = disk.index();
                self.m0[si] = d as u32;
                self.disk_ops[d].push(slot);
                if !self.disk_touched[d] {
                    self.disk_touched[d] = true;
                    self.touched_disks.push(d);
                }
                (KIND_IO, *bytes, 0.0)
            }
            ActivityKind::Flow { route, bytes } => {
                // Latency is summed over the route as given (duplicates
                // charge twice); sharing counts each link once, so the
                // arena keeps the deduplicated form.
                let lat = self.platform.route_latency(route);
                let (start, len) = self.arena_push(route);
                self.m0[si] = start;
                self.m1[si] = len;
                self.bytes[si] = *bytes;
                if lat > 0.0 {
                    (KIND_FLOW | FLAG_LATENCY, lat, 1.0)
                } else if len == 0 {
                    // Unconstrained: completes at the current instant.
                    (KIND_FLOW, *bytes, f64::INFINITY)
                } else {
                    for k in start as usize..(start + len) as usize {
                        let l = self.routes[k] as usize;
                        self.link_flows[l].push(slot);
                        if !self.link_touched[l] {
                            self.link_touched[l] = true;
                            self.touched_links.push(l);
                        }
                    }
                    (KIND_FLOW, *bytes, 0.0)
                }
            }
            ActivityKind::Timer { delay } => (KIND_TIMER, *delay, 1.0),
            ActivityKind::TimerAt { at } => {
                // An absolute timer fires at exactly `at`, not
                // `now + (at - now)` (which differs in the last ulps).
                if *at > now {
                    exact_deadline = Some(*at);
                }
                (KIND_TIMER_AT, (*at - now).max(0.0), 1.0)
            }
        };
        self.hot[si] = Hot {
            remaining,
            rate,
            materialized_at: now,
            heap_pos: NO_HEAP,
            flags: flags | FLAG_LIVE,
        };
        self.live += 1;
        match exact_deadline {
            Some(at) => self
                .heap
                .upsert(&mut self.hot, &self.serials, Ev::new(at, slot)),
            None => schedule(
                &mut self.hot,
                &mut self.heap,
                &self.serials,
                now,
                slot,
                &mut self.heap_reinserts,
            ),
        }
        ActivityId(serial)
    }

    /// Add a batch of activities released at the same instant, e.g. a
    /// scheduler dispatching many ready tasks at once. Equivalent to
    /// calling [`Engine::add_activity`] in order — rates are recomputed
    /// once, at the next event — but states the intent and returns all ids.
    pub fn add_activities(
        &mut self,
        batch: impl IntoIterator<Item = (ActivityKind, u64)>,
    ) -> Vec<ActivityId> {
        batch
            .into_iter()
            .map(|(kind, tag)| self.add_activity(kind, tag))
            .collect()
    }

    /// Re-share every touched disk and run a frontier-limited re-solve
    /// around the touched links.
    fn flush_touched(&mut self) {
        if self.touched_disks.is_empty() && self.touched_links.is_empty() {
            return;
        }
        let now = self.time;
        if !self.touched_disks.is_empty() {
            // Disks: each disk is its own sharing domain. The oldest
            // `max_concurrency` ops split the bandwidth; younger ops wait.
            let Engine {
                platform,
                hot,
                serials,
                heap,
                heap_reinserts,
                sharing_resolves,
                disk_ops,
                touched_disks,
                disk_touched,
                ..
            } = self;
            for &d in touched_disks.iter() {
                disk_touched[d] = false;
                let disk = platform.disk(DiskId(d));
                let ops = &disk_ops[d];
                let served = ops.len().min(disk.max_concurrency as usize);
                let share = if served > 0 {
                    disk.bandwidth / served as f64
                } else {
                    0.0
                };
                for (i, &s) in ops.iter().enumerate() {
                    set_rate(
                        hot,
                        heap,
                        serials,
                        now,
                        s,
                        if i < served { share } else { 0.0 },
                        heap_reinserts,
                    );
                }
                *sharing_resolves += 1;
            }
            touched_disks.clear();
        }
        if !self.touched_links.is_empty() {
            self.solve_links(now);
        }
    }

    /// Frontier-limited incremental max-min re-solve.
    ///
    /// Seeds the dirty set *D* with the touched links, collects the flows
    /// *F* crossing them and the boundary links *B* those flows also
    /// cross, and solves the candidate problem over *D ∪ B* where each
    /// boundary link's capacity is its *residual* (full capacity minus
    /// the frozen rates of flows outside *F*). A boundary link is
    /// promoted to dirty — and the solve repeated over the grown frontier
    /// — iff it has outside flows and either was binding in the candidate
    /// or carries an *F*-flow whose rate changed; in both cases its
    /// frozen outside rates are suspect. On commit, the *F*-rates equal a
    /// full-component solve (see [`Frontier`]); flows outside *F* keep
    /// their rates without being visited, which is what makes events
    /// local on platforms whose flow–link graph is one giant component.
    ///
    /// Touched links that share no flow are solved as *separate* problems
    /// rather than one merged one: progressive filling is superlinear in
    /// problem size, so a batch release touching every link (e.g. the
    /// initial workload) must decompose into its natural clusters. Seeds
    /// stay marked in `link_touched` until absorbed; a pending seed
    /// reached through a shared flow is folded into the active problem
    /// (the two clusters genuinely interact), everything else starts its
    /// own problem in touch order.
    fn solve_links(&mut self, now: f64) {
        let Engine {
            platform,
            hot,
            serials,
            m0,
            m1,
            routes,
            heap,
            heap_reinserts,
            sharing_resolves,
            frontier_links,
            solver_visits,
            link_flows,
            touched_links,
            link_touched,
            ws,
            frontier: fr,
            ..
        } = self;
        fr.ensure_links(platform.num_links());
        fr.ensure_slots(hot.len());
        // `link_touched[l]` now means "seed not yet absorbed by a problem".
        for &seed in touched_links.iter() {
            if !link_touched[seed] {
                continue; // absorbed by an earlier problem
            }
            link_touched[seed] = false;
            fr.in_dirty[seed] = true;
            fr.dirty.push(seed);

            let mut d_cursor = 0usize;
            let mut f_cursor = 0usize;
            'expand: loop {
                // Pull the flows of newly-dirty links into F.
                while d_cursor < fr.dirty.len() {
                    let l = fr.dirty[d_cursor];
                    d_cursor += 1;
                    for &s in &link_flows[l] {
                        if !fr.in_flows[s as usize] {
                            fr.in_flows[s as usize] = true;
                            fr.flows.push(s);
                        }
                    }
                }
                // Pull the other links of newly-added flows into B,
                // counting F-crossings per link (arena segments are
                // deduplicated, so the count compares directly with the
                // registry length). A pending seed reached here belongs
                // to this cluster: fold it straight into D.
                while f_cursor < fr.flows.len() {
                    let s = fr.flows[f_cursor] as usize;
                    f_cursor += 1;
                    let start = m0[s] as usize;
                    for &lu in &routes[start..start + m1[s] as usize] {
                        let l = lu as usize;
                        fr.f_count[l] += 1;
                        if fr.in_dirty[l] {
                            continue;
                        }
                        if link_touched[l] {
                            link_touched[l] = false;
                            fr.in_dirty[l] = true;
                            fr.dirty.push(l);
                        } else if !fr.in_boundary[l] {
                            fr.in_boundary[l] = true;
                            fr.boundary.push(l);
                        }
                    }
                }
                if d_cursor < fr.dirty.len() {
                    continue; // folded-in seeds bring new flows
                }
                if fr.flows.is_empty() {
                    // A touched link with no remaining flows: nothing to
                    // share, move on to the next seed.
                    fr.reset();
                    break 'expand;
                }

                // Candidate problem: links ascending (ties between equal
                // fair shares go to the lowest link index), flows in
                // discovery order — per-flow rates do not depend on the
                // order flows are pushed in (DESIGN.md "Kernel complexity").
                fr.links_sorted.clear();
                fr.links_sorted.extend_from_slice(&fr.dirty);
                for &l in &fr.boundary {
                    if !fr.in_dirty[l] {
                        fr.links_sorted.push(l);
                    }
                }
                fr.links_sorted.sort_unstable();

                ws.clear();
                for &l in &fr.links_sorted {
                    let cap = platform.link(LinkId(l)).bandwidth;
                    let outside = link_flows[l].len() - fr.f_count[l] as usize;
                    let c = if outside == 0 {
                        cap
                    } else {
                        // Residual capacity: subtract outside flows' frozen
                        // rates in serial order, so the sum never depends on
                        // registry (slot) order.
                        fr.outside.clear();
                        for &s in &link_flows[l] {
                            if !fr.in_flows[s as usize] {
                                fr.outside.push((serials[s as usize], hot[s as usize].rate));
                            }
                        }
                        fr.outside.sort_unstable_by_key(|&(ser, _)| ser);
                        let mut c = cap;
                        for &(_, r) in fr.outside.iter() {
                            c -= r;
                        }
                        c
                    };
                    fr.local[l] = ws.push_capacity(c);
                }
                // Arena segments are sorted and deduplicated, and local
                // indices ascend with link index, so each mapped route is
                // already in the form the workspace stores.
                for &s in &fr.flows {
                    let start = m0[s as usize] as usize;
                    ws.push_sorted_route(
                        routes[start..start + m1[s as usize] as usize]
                            .iter()
                            .map(|&lu| fr.local[lu as usize] as u32),
                    );
                }
                ws.solve();
                *sharing_resolves += 1;
                *solver_visits += ws.visits();
                let rates = ws.rates();

                // Expansion check: which boundary links invalidate their
                // residual approximation?
                for (i, &s) in fr.flows.iter().enumerate() {
                    fr.changed[s as usize] = rates[i] != hot[s as usize].rate;
                }
                let mut expanded = false;
                for bi in 0..fr.boundary.len() {
                    let l = fr.boundary[bi];
                    if fr.in_dirty[l] {
                        continue;
                    }
                    if link_flows[l].len() == fr.f_count[l] as usize {
                        // No outside flows: the full capacity was used, the
                        // candidate is exact here.
                        continue;
                    }
                    let promote = ws.was_binding(fr.local[l])
                        || link_flows[l]
                            .iter()
                            .any(|&s| fr.in_flows[s as usize] && fr.changed[s as usize]);
                    if promote {
                        fr.in_dirty[l] = true;
                        fr.dirty.push(l);
                        expanded = true;
                    }
                }
                if !expanded {
                    *frontier_links += fr.links_sorted.len() as u64;
                    for (i, &s) in fr.flows.iter().enumerate() {
                        set_rate(hot, heap, serials, now, s, rates[i], heap_reinserts);
                    }
                    fr.reset();
                    break 'expand;
                }
            }
        }
        touched_links.clear();
    }

    /// Can the pending flush change this entry's completion? `true` when
    /// provably not: only Active-phase flows and disk ops have
    /// flush-mutable rates, and even those are pinned once their
    /// effective remaining is zero (they complete *now* under any rate).
    fn drain_safe(&self, slot: u32) -> bool {
        let h = &self.hot[slot as usize];
        let kind = h.flags & KIND_MASK;
        let shared = (kind == KIND_FLOW && h.flags & FLAG_LATENCY == 0) || kind == KIND_IO;
        if !shared || h.rate.is_infinite() {
            return true;
        }
        let rem = if self.time > h.materialized_at && h.rate > 0.0 {
            (h.remaining - h.rate * (self.time - h.materialized_at)).max(0.0)
        } else {
            h.remaining
        };
        rem <= EPS
    }

    /// Handle a due heap entry: either an internal latency→transfer
    /// transition or a completion queued for delivery.
    fn dispatch(&mut self, slot: u32) {
        let si = slot as usize;
        let now = self.time;
        if self.hot[si].flags & FLAG_LATENCY != 0 {
            // Latency paid: start the transfer phase. The rate is
            // assigned by the next flush.
            let h = &mut self.hot[si];
            h.flags = (h.flags & !FLAG_LATENCY) | FLAG_RESCHED;
            h.remaining = self.bytes[si];
            h.materialized_at = now;
            h.rate = 0.0;
            schedule(
                &mut self.hot,
                &mut self.heap,
                &self.serials,
                now,
                slot,
                &mut self.heap_reinserts,
            ); // queues only if bytes ~ 0
            let start = self.m0[si] as usize;
            let len = self.m1[si] as usize;
            for k in start..start + len {
                let l = self.routes[k] as usize;
                self.link_flows[l].push(slot);
                if !self.link_touched[l] {
                    self.link_touched[l] = true;
                    self.touched_links.push(l);
                }
            }
            return;
        }

        // A completion: unregister from sharing domains and queue it.
        match self.hot[si].flags & KIND_MASK {
            KIND_FLOW => {
                let start = self.m0[si] as usize;
                let len = self.m1[si] as usize;
                for k in start..start + len {
                    let l = self.routes[k] as usize;
                    let lf = &mut self.link_flows[l];
                    if let Some(pos) = lf.iter().position(|&s| s == slot) {
                        lf.swap_remove(pos);
                    }
                    if !self.link_touched[l] {
                        self.link_touched[l] = true;
                        self.touched_links.push(l);
                    }
                }
                self.routes_live -= len;
            }
            KIND_IO => {
                let d = self.m0[si] as usize;
                if let Some(pos) = self.disk_ops[d].iter().position(|&s| s == slot) {
                    self.disk_ops[d].remove(pos); // preserve FIFO order
                }
                if !self.disk_touched[d] {
                    self.disk_touched[d] = true;
                    self.touched_disks.push(d);
                }
            }
            _ => {}
        }
        self.hot[si].flags &= !FLAG_LIVE;
        self.free.push(slot);
        self.live -= 1;
        self.ready.push_back(Completion {
            id: ActivityId(self.serials[si]),
            tag: self.tags[si],
            time: now,
        });
    }

    /// Virtual time of the next internal event (completion or phase
    /// transition) without advancing to it. `None` when idle; may also be
    /// `None` if every in-flight activity is stalled at rate 0.
    pub fn peek_time(&mut self) -> Option<f64> {
        if !self.ready.is_empty() {
            return Some(self.time);
        }
        if self.live == 0 {
            return None;
        }
        self.flush_touched();
        self.heap.peek().map(|e| e.finish().max(self.time))
    }

    /// Advance to the next completion and return it, or `None` when no
    /// activities remain. Internal phase transitions (a flow finishing its
    /// latency and starting to consume bandwidth) are handled
    /// transparently. All completions sharing one timestamp are drained
    /// in a single batch (one sharing re-solve), then delivered one per
    /// call in serial order.
    pub fn step(&mut self) -> Option<Completion> {
        if let Some(c) = self.ready.pop_front() {
            self.events += 1;
            return Some(c);
        }
        loop {
            if self.live == 0 {
                return None;
            }
            self.flush_touched();
            let Some(ev) = self.heap.pop_min(&mut self.hot, &self.serials) else {
                panic!(
                    "deadlock: every in-flight activity has rate 0 (time {})",
                    self.time
                )
            };
            self.time = self.time.max(ev.finish());
            self.dispatch(ev.slot);
            // Drain everything else due at this instant. Entries a
            // pending re-solve could still move force a flush first;
            // after it, predictions are current and the peek decides.
            while let Some(&next) = self.heap.peek() {
                if next.finish() > self.time {
                    break;
                }
                if (!self.touched_links.is_empty() || !self.touched_disks.is_empty())
                    && !self.drain_safe(next.slot)
                {
                    self.flush_touched();
                    continue;
                }
                let ev = self
                    .heap
                    .pop_min(&mut self.hot, &self.serials)
                    .expect("peeked entry");
                self.dispatch(ev.slot);
            }
            if let Some(c) = self.ready.pop_front() {
                self.events += 1;
                return Some(c);
            }
            // Only phase transitions fired; flush and pop again.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_flow_latency_plus_transfer() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.5);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l], 200.0), 1);
        let c = e.step().unwrap();
        assert!(close(c.time, 0.5 + 2.0), "time {}", c.time);
        assert!(e.step().is_none());
    }

    #[test]
    fn two_equal_flows_share_bandwidth() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 1);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 2);
        let c1 = e.step().unwrap();
        let c2 = e.step().unwrap();
        // Each gets 50 B/s: both finish at t=2.
        assert!(close(c1.time, 2.0));
        assert!(close(c2.time, 2.0));
    }

    #[test]
    fn short_flow_completion_speeds_up_long_flow() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l], 50.0), 1); // short
        e.add_activity(ActivityKind::flow(vec![l], 150.0), 2); // long
        let c1 = e.step().unwrap();
        assert_eq!(c1.tag, 1);
        assert!(close(c1.time, 1.0)); // 50 bytes at 50 B/s
        let c2 = e.step().unwrap();
        assert_eq!(c2.tag, 2);
        // Long flow: 50 bytes at 50 B/s (t in [0,1]) + 100 bytes at 100 B/s.
        assert!(close(c2.time, 2.0), "time {}", c2.time);
    }

    #[test]
    fn compute_activity_runs_at_given_rate() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::compute(4.0, 10.0), 9);
        let c = e.step().unwrap();
        assert!(close(c.time, 2.5));
        assert_eq!(c.tag, 9);
    }

    #[test]
    fn timer_fires_at_absolute_delay() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(3.0), 5);
        let c = e.step().unwrap();
        assert!(close(c.time, 3.0));
    }

    #[test]
    fn timer_added_later_fires_relative_to_add_time() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(1.0), 1);
        assert!(close(e.step().unwrap().time, 1.0));
        e.add_activity(ActivityKind::timer(2.0), 2);
        assert!(close(e.step().unwrap().time, 3.0));
    }

    #[test]
    fn timer_at_fires_at_exact_absolute_time() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(0.1), 1);
        assert!(close(e.step().unwrap().time, 0.1));
        // Relative arithmetic (0.1 + (0.3 - 0.1)) would land one ulp off;
        // the absolute deadline must be hit exactly.
        e.add_activity(ActivityKind::timer_at(0.3), 2);
        assert_eq!(e.step().unwrap().time, 0.3);
    }

    #[test]
    fn timer_at_in_the_past_fires_immediately() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(2.0), 1);
        assert!(close(e.step().unwrap().time, 2.0));
        e.add_activity(ActivityKind::timer_at(1.0), 2);
        let c = e.step().unwrap();
        assert_eq!(c.tag, 2);
        assert_eq!(c.time, 2.0);
    }

    #[test]
    fn disk_concurrency_limit_queues_ops() {
        let mut p = Platform::new();
        let d = p.add_disk(100.0, 1); // one op at a time
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::io(d, 100.0), 1);
        e.add_activity(ActivityKind::io(d, 100.0), 2);
        let c1 = e.step().unwrap();
        let c2 = e.step().unwrap();
        assert_eq!((c1.tag, c2.tag), (1, 2));
        assert!(close(c1.time, 1.0));
        assert!(close(c2.time, 2.0), "serialized, not shared: {}", c2.time);
    }

    #[test]
    fn disk_shares_bandwidth_up_to_concurrency() {
        let mut p = Platform::new();
        let d = p.add_disk(100.0, 2);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::io(d, 100.0), 1);
        e.add_activity(ActivityKind::io(d, 100.0), 2);
        let c1 = e.step().unwrap();
        let c2 = e.step().unwrap();
        assert!(close(c1.time, 2.0));
        assert!(close(c2.time, 2.0));
    }

    #[test]
    fn zero_byte_flow_costs_latency_only() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.25);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l], 0.0), 1);
        assert!(close(e.step().unwrap().time, 0.25));
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::compute(1.0, 0.0), 1);
        let c = e.step().unwrap();
        assert_eq!(c.time, 0.0);
    }

    #[test]
    fn empty_route_flow_is_instant_after_no_latency() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::flow(vec![], 1e9), 1);
        let c = e.step().unwrap();
        assert!(c.time < 1e-6);
    }

    #[test]
    fn empty_route_flow_added_later_completes_at_current_instant() {
        // Regression for the old `f64::MAX` rate sentinel: an unconstrained
        // flow must complete at exactly the current virtual time, with no
        // sentinel arithmetic skewing it (1e300 bytes / f64::MAX would have
        // taken ~5.6e-9 simulated seconds) or perturbing other activities.
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(1.0), 1);
        assert_eq!(e.step().unwrap().time, 1.0);
        e.add_activity(ActivityKind::flow(vec![], 1e300), 2);
        e.add_activity(ActivityKind::timer(1.0), 3);
        let c = e.step().unwrap();
        assert_eq!(c.tag, 2);
        assert_eq!(c.time, 1.0, "unconstrained flow completes at add time");
        let c = e.step().unwrap();
        assert_eq!(c.tag, 3);
        assert_eq!(c.time, 2.0, "follow-up timer unperturbed");
    }

    #[test]
    fn multi_link_route_pays_summed_latency_and_bottleneck() {
        let mut p = Platform::new();
        let a = p.add_link(100.0, 0.1);
        let b = p.add_link(50.0, 0.2);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![a, b], 100.0), 1);
        let c = e.step().unwrap();
        // 0.3 latency + 100/50 transfer.
        assert!(close(c.time, 2.3), "time {}", c.time);
    }

    #[test]
    fn duplicate_route_links_share_once_but_charge_latency_twice() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.1);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l, l], 100.0), 1);
        let c = e.step().unwrap();
        // Latency 0.2 (per occurrence) + 100/100 transfer (link counted
        // once for sharing).
        assert!(close(c.time, 1.2), "time {}", c.time);
    }

    #[test]
    fn interleaved_kinds_complete_in_time_order() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let d = p.add_disk(100.0, 4);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::compute(10.0, 15.0), 1); // t=1.5
        e.add_activity(ActivityKind::flow(vec![l], 50.0), 2); // t=0.5
        e.add_activity(ActivityKind::io(d, 100.0), 3); // t=1.0
        e.add_activity(ActivityKind::timer(0.25), 4); // t=0.25
        let order: Vec<u64> = e.run_to_completion().iter().map(|c| c.tag).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
    }

    #[test]
    fn run_to_completion_drains_everything() {
        let mut e = Engine::new(Platform::new());
        for i in 0..10 {
            e.add_activity(ActivityKind::timer(i as f64), i);
        }
        assert_eq!(e.run_to_completion().len(), 10);
        assert_eq!(e.active_count(), 0);
        assert_eq!(e.events_processed(), 10);
    }

    #[test]
    fn events_processed_counts_completions_not_phase_transitions() {
        // A flow with latency goes through an internal latency→transfer
        // transition; only the final completion counts as an event.
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.5);
        let mut e = Engine::new(p);
        assert_eq!(e.events_processed(), 0);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 1);
        e.step().unwrap();
        assert_eq!(e.events_processed(), 1);
    }

    #[test]
    fn counters_track_reinserts_and_sharing_resolves() {
        // Two flows sharing one link: the arrivals re-share the link
        // (frontier re-solve) and relocate the flows' predictions. Both
        // completions land at one instant, so the same-instant batch
        // drains them under a single invalidation — exactly one resolve,
        // where per-event flushing would have paid two.
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 1);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 2);
        e.run_to_completion();
        let c = e.counters();
        assert_eq!(c.events, 2);
        assert!(c.heap_reinserts >= 1, "counters: {c:?}");
        assert!(c.sharing_resolves >= 1, "counters: {c:?}");
        assert!(c.frontier_links >= 1, "counters: {c:?}");
        assert!(c.solver_visits >= 1, "counters: {c:?}");
        assert!(c.arena_bytes >= 8, "counters: {c:?}");

        // A lone timer needs neither re-inserts nor sharing nor routes.
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(1.0), 1);
        e.run_to_completion();
        let c = e.counters();
        assert_eq!(
            c,
            KernelCounters {
                events: 1,
                heap_reinserts: 0,
                sharing_resolves: 0,
                frontier_links: 0,
                solver_visits: 0,
                arena_bytes: 0,
            }
        );
    }

    #[test]
    fn latency_phase_does_not_consume_bandwidth() {
        // Flow A has huge latency; flow B should get the full link until
        // A's latency elapses.
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let l_lat = p.add_link(1e12, 10.0); // pure-latency hop for A
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l_lat, l], 100.0), 1);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 2);
        let c = e.step().unwrap();
        assert_eq!(c.tag, 2);
        assert!(close(c.time, 1.0), "B at full bandwidth: {}", c.time);
        let c = e.step().unwrap();
        assert_eq!(c.tag, 1);
        assert!(
            close(c.time, 11.0),
            "A: 10 latency + 1 transfer: {}",
            c.time
        );
    }

    #[test]
    fn simultaneous_completions_all_reported() {
        let mut e = Engine::new(Platform::new());
        e.add_activity(ActivityKind::timer(1.0), 1);
        e.add_activity(ActivityKind::timer(1.0), 2);
        let c1 = e.step().unwrap();
        let c2 = e.step().unwrap();
        assert!(close(c1.time, 1.0) && close(c2.time, 1.0));
        assert_ne!(c1.tag, c2.tag);
    }

    #[test]
    fn simultaneous_completions_deliver_in_add_order() {
        // A same-instant burst (timers, computes, flows reaching zero at
        // one timestamp) drains as one batch but must still be delivered
        // in serial (add) order — the reference engine's tie-break.
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l], 100.0), 0); // t=1 alone? no: shares
        e.add_activity(ActivityKind::timer(1.0), 1);
        e.add_activity(ActivityKind::compute(1.0, 1.0), 2);
        // Flow shares nothing (only flow on l): rate 100, finishes t=1.
        let order: Vec<u64> = e.run_to_completion().iter().map(|c| c.tag).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn time_is_monotone_nondecreasing() {
        let mut p = Platform::new();
        let l = p.add_link(10.0, 0.01);
        let d = p.add_disk(5.0, 2);
        let mut e = Engine::new(p);
        for i in 0..20 {
            match i % 3 {
                0 => e.add_activity(ActivityKind::flow(vec![l], (i * 7 % 13) as f64), i),
                1 => e.add_activity(ActivityKind::io(d, (i * 5 % 11) as f64), i),
                _ => e.add_activity(ActivityKind::compute(2.0, (i % 9) as f64), i),
            };
        }
        let mut last = 0.0;
        while let Some(c) = e.step() {
            assert!(c.time >= last - 1e-12);
            last = c.time;
        }
    }

    #[test]
    fn add_activities_batches_one_release() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        let ids = e.add_activities(vec![
            (ActivityKind::flow(vec![l], 100.0), 1),
            (ActivityKind::flow(vec![l], 100.0), 2),
            (ActivityKind::timer(0.5), 3),
        ]);
        assert_eq!(ids.len(), 3);
        assert_eq!(e.active_count(), 3);
        let order: Vec<(u64, f64)> = e
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.time))
            .collect();
        assert_eq!(order[0].0, 3);
        assert!(close(order[0].1, 0.5));
        // Both flows share the link throughout: each finishes at t=2.
        assert!(close(order[1].1, 2.0) && close(order[2].1, 2.0));
    }

    #[test]
    fn peek_time_previews_next_event_without_advancing() {
        let mut e = Engine::new(Platform::new());
        assert_eq!(e.peek_time(), None);
        e.add_activity(ActivityKind::timer(2.0), 1);
        e.add_activity(ActivityKind::timer(1.0), 2);
        assert!(close(e.peek_time().unwrap(), 1.0));
        assert_eq!(e.time(), 0.0, "peek must not advance time");
        let c = e.step().unwrap();
        assert_eq!(c.tag, 2);
        assert!(close(e.peek_time().unwrap(), 2.0));
        e.step();
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn disjoint_components_do_not_disturb_each_other() {
        // Two independent link pairs: completing a flow on one component
        // must leave the other component's predicted times untouched.
        let mut p = Platform::new();
        let a = p.add_link(100.0, 0.0);
        let b = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![a], 50.0), 1);
        e.add_activity(ActivityKind::flow(vec![a], 150.0), 2);
        e.add_activity(ActivityKind::flow(vec![b], 100.0), 3);
        e.add_activity(ActivityKind::flow(vec![b], 100.0), 4);
        let order: Vec<(u64, f64)> = e
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.time))
            .collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0].0, 1);
        assert!(close(order[0].1, 1.0));
        // Flows 3 and 4 split link b 50/50 the whole way: t=2 each,
        // unaffected by the re-solve of link a at t=1.
        for &(tag, t) in &order[1..] {
            assert!(close(t, 2.0), "tag {tag} at {t}");
        }
    }

    #[test]
    fn frontier_stops_at_backbone_bottleneck() {
        // Star-over-backbone: cross flows from every leaf link share a
        // low-capacity backbone, so leaf-local churn never changes a
        // cross flow's rate. Results must match physics regardless.
        let mut p = Platform::new();
        let bb = p.add_link(2.0, 0.0); // cross flows bottleneck here at 1.0
        let leaf_a = p.add_link(100.0, 0.0);
        let leaf_b = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![bb, leaf_a], 10.0), 1); // rate 1
        e.add_activity(ActivityKind::flow(vec![bb, leaf_b], 10.0), 2); // rate 1
        e.add_activity(ActivityKind::flow(vec![leaf_a], 99.0), 3); // rate 99
        let order: Vec<(u64, f64)> = e
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.time))
            .collect();
        assert_eq!(order[0].0, 3);
        assert!(close(order[0].1, 1.0), "local flow: {}", order[0].1);
        // Cross flows: 1 B/s throughout (backbone-bound), 10s each. The
        // local completion at t=1 must not have perturbed them.
        assert!(close(order[1].1, 10.0), "cross: {}", order[1].1);
        assert!(close(order[2].1, 10.0), "cross: {}", order[2].1);
    }

    #[test]
    fn frontier_expands_when_boundary_becomes_binding() {
        // l1 (cap 2): flows f and g. l2 (cap 10): flows f and o.
        // Initially f=1, g=1 (l1 binding), o=9. When g completes, f's
        // true rate rises to 2, so o must drop to 8 — the re-solve
        // touching only l1 must expand across l2 to fix o.
        let mut p = Platform::new();
        let l1 = p.add_link(2.0, 0.0);
        let l2 = p.add_link(10.0, 0.0);
        let mut e = Engine::new(p);
        e.add_activity(ActivityKind::flow(vec![l1, l2], 20.0), 1); // f
        e.add_activity(ActivityKind::flow(vec![l1], 1.0), 2); // g: done t=1
        e.add_activity(ActivityKind::flow(vec![l2], 90.0), 3); // o
        let order: Vec<(u64, f64)> = e
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.time))
            .collect();
        assert_eq!(order[0], (2, order[0].1));
        assert!(close(order[0].1, 1.0), "g: {}", order[0].1);
        // f: 1 B/s for 1s, then 2 B/s for 19/2 s => t = 10.5.
        let f = order.iter().find(|&&(tag, _)| tag == 1).unwrap();
        assert!(close(f.1, 10.5), "f: {}", f.1);
        // o: 9 B/s for 1s (81 left), 8 B/s until f is done at 10.5
        // (76 more, 5 left), then the full 10 B/s => t = 11.0.
        let o = order.iter().find(|&&(tag, _)| tag == 3).unwrap();
        assert!(close(o.1, 11.0), "o: {}", o.1);
    }

    #[test]
    fn free_list_recycles_slots_but_never_ids() {
        let mut e = Engine::new(Platform::new());
        let a = e.add_activity(ActivityKind::timer(1.0), 1);
        let b = e.add_activity(ActivityKind::timer(1.0), 2);
        e.run_to_completion();
        assert_eq!(e.hot.len(), 2, "two slots allocated");
        // Both slots are free; new adds must reuse them, not grow.
        let c = e.add_activity(ActivityKind::timer(1.0), 3);
        let d = e.add_activity(ActivityKind::timer(1.0), 4);
        assert_eq!(e.hot.len(), 2, "slots recycled, no growth");
        let ids = [a, b, c, d];
        for (i, x) in ids.iter().enumerate() {
            for y in &ids[i + 1..] {
                assert_ne!(x, y, "ids must never alias");
            }
        }
        assert!(c > b && d > c, "ids are serial");
        let done = e.run_to_completion();
        let got: Vec<ActivityId> = done.iter().map(|c| c.id).collect();
        assert_eq!(got, vec![c, d], "completions carry the serial ids");
    }

    #[test]
    fn live_ids_never_aliased_while_slots_recycle() {
        // Churn adds/completions so slots recycle heavily; every live id
        // must stay distinct from every other live id at all times.
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        let mut live: std::collections::HashSet<ActivityId> = std::collections::HashSet::new();
        let mut next_tag = 0u64;
        for round in 0..50 {
            for _ in 0..3 {
                let id = e.add_activity(
                    ActivityKind::flow(vec![l], 10.0 + (next_tag % 7) as f64),
                    next_tag,
                );
                assert!(live.insert(id), "id {id:?} aliased a live activity");
                next_tag += 1;
            }
            // Complete a couple to free slots for the next round.
            for _ in 0..2 {
                if let Some(c) = e.step() {
                    assert!(live.remove(&c.id), "completion for unknown id");
                }
            }
            assert!(e.hot.len() <= 3 * (round + 1), "slab growth is bounded");
        }
        while let Some(c) = e.step() {
            assert!(live.remove(&c.id));
        }
        assert!(live.is_empty());
    }

    #[test]
    fn arena_grows_then_compacts_under_churn() {
        let mut p = Platform::new();
        let links: Vec<_> = (0..8).map(|_| p.add_link(1e6, 0.0)).collect();
        let mut e = Engine::new(p);
        // Many short-lived 4-link flows: dead segments accumulate, so the
        // arena must compact rather than grow linearly with total adds.
        for i in 0..2000usize {
            let route = vec![
                links[i % 8],
                links[(i + 1) % 8],
                links[(i + 2) % 8],
                links[(i + 3) % 8],
            ];
            e.add_activity(ActivityKind::flow(route, 100.0), i as u64);
            if i % 2 == 1 {
                // Keep at most ~2 flows in flight.
                e.step().unwrap();
                e.step().unwrap();
            }
        }
        e.run_to_completion();
        assert_eq!(e.routes_live, 0, "all segments dead after drain");
        assert!(
            e.routes.len() < 2000,
            "arena compacted: {} entries for 2000 four-link flows",
            e.routes.len()
        );
        let c = e.counters();
        assert!(c.arena_bytes > 0);
        assert!(
            c.arena_bytes < (2000 * 4 * 4) as u64,
            "peak arena {} must stay well under the no-compaction total",
            c.arena_bytes
        );
    }

    #[test]
    fn heap_never_exceeds_live_activities() {
        let mut p = Platform::new();
        let l = p.add_link(100.0, 0.0);
        let mut e = Engine::new(p);
        for i in 0..64 {
            e.add_activity(ActivityKind::flow(vec![l], 10.0 + i as f64), i);
        }
        while e.step().is_some() {
            assert!(
                e.heap.v.len() <= e.live,
                "addressable heap holds at most one entry per live activity"
            );
        }
        assert!(e.heap.v.is_empty());
    }

    #[test]
    fn key_of_orders_like_total_cmp_and_inverts_exactly() {
        let mut values = Vec::new();
        for x in [
            0.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ] {
            values.extend([x, -x]);
        }
        let mut rng = numeric::rng_from_seed(0x4EA9);
        while values.len() < 2_000 {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                values.push(x);
            }
        }
        for &a in &values {
            assert_eq!(finish_of(key_of(a)).to_bits(), a.to_bits(), "{a:e}");
            for &b in &values[..64] {
                assert_eq!(key_of(a).cmp(&key_of(b)), a.total_cmp(&b), "{a:e} vs {b:e}");
            }
        }
        for pair in values[12..].chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            assert_eq!(key_of(a).cmp(&key_of(b)), a.total_cmp(&b), "{a:e} vs {b:e}");
        }
    }

    /// Random inserts, relocations, removals and pops over at most 64 slots
    /// against a `BTreeSet<(key, serial)>`: every pop must return the
    /// set's minimum, and every hot row must hold its entry's position.
    #[test]
    fn event_heap_equals_an_ordered_set() {
        use std::collections::BTreeSet;
        // Few distinct times (both zeros among them), so keys tie often
        // and the serial decides.
        let times = [-0.0, 0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 3.0, f64::INFINITY];
        for seed in 0..200u64 {
            let mut rng = numeric::rng_from_seed(seed);
            let slots = 1 + rng.below(64);
            let row = Hot {
                remaining: 0.0,
                rate: 0.0,
                materialized_at: 0.0,
                heap_pos: NO_HEAP,
                flags: 0,
            };
            let mut hot = vec![row; slots];
            let mut serials = vec![0u64; slots];
            let mut next_serial = 0u64;
            let mut heap = EventHeap::default();
            let mut want: BTreeSet<(u64, u64)> = BTreeSet::new();
            let mut entry: Vec<Option<(u64, u64)>> = vec![None; slots];
            for _ in 0..400 {
                let slot = rng.below(slots);
                match rng.below(4) {
                    0 | 1 => {
                        // Insert, or relocate an existing entry; a fresh
                        // entry takes a fresh serial, as a reused slot does.
                        if entry[slot].is_none() {
                            serials[slot] = next_serial;
                            next_serial += 1;
                        }
                        let e = Ev::new(times[rng.below(times.len())], slot as u32);
                        heap.upsert(&mut hot, &serials, e);
                        if let Some(old) = entry[slot].replace((e.key, serials[slot])) {
                            want.remove(&old);
                        }
                        want.insert((e.key, serials[slot]));
                    }
                    2 => {
                        heap.remove(&mut hot, &serials, slot as u32);
                        if let Some(old) = entry[slot].take() {
                            want.remove(&old);
                        }
                    }
                    _ => {
                        let got = heap.pop_min(&mut hot, &serials);
                        let min = want.pop_first();
                        assert_eq!(got.map(|e| (e.key, serials[e.slot as usize])), min);
                        if let Some(e) = got {
                            entry[e.slot as usize] = None;
                        }
                    }
                }
                assert_eq!(heap.v.len(), want.len());
                for (s, h) in hot.iter().enumerate() {
                    match entry[s] {
                        Some(_) => assert_eq!(heap.v[h.heap_pos as usize].slot, s as u32),
                        None => assert_eq!(h.heap_pos, NO_HEAP),
                    }
                }
            }
            while let Some(e) = heap.pop_min(&mut hot, &serials) {
                assert_eq!(Some((e.key, serials[e.slot as usize])), want.pop_first());
            }
            assert!(want.is_empty());
        }
    }
}
