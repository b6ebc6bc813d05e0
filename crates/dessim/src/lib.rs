//! # dessim — a flow-level discrete-event simulation kernel
//!
//! This crate is the simulation substrate underneath both case-study
//! simulators in the `lodcal` workspace. It implements the same modelling
//! paradigm as SimGrid's *fluid* models, which the paper's simulators
//! (WRENCH- and SMPI-based) are built on:
//!
//! - **Links** have a bandwidth (bytes/s) and a latency (s). Network
//!   transfers are **flows** over multi-link routes; concurrent flows share
//!   link bandwidth according to **max-min fairness**, computed by
//!   progressive filling ([`sharing`]).
//! - **Disks** have a bandwidth and a maximum number of concurrent I/O
//!   operations; active operations share the bandwidth equally, extra
//!   operations queue FIFO.
//! - **Compute** activities progress at a caller-chosen rate (the simulator
//!   on top owns core allocation policy).
//! - **Timers** fire at absolute times (used e.g. for HTCondor negotiation
//!   cycles).
//!
//! The [`engine::Engine`] advances virtual time from one activity
//! completion to the next; the simulator on top reacts to each
//! [`engine::Completion`] by adding new activities, in the classic
//! discrete-event style. The hot path is built for ~10⁶ concurrent
//! activities: structure-of-arrays activity storage with a recycled slot
//! free-list and a shared route arena, an addressable 4-ary event heap
//! (one relocatable entry per activity), frontier-limited incremental max-min
//! re-solves, and same-instant batch draining of simultaneous
//! completions (see the [`engine`] module docs). The original
//! full-recompute loop survives as [`reference::ReferenceEngine`], the
//! oracle the optimized engine is property-tested against — within
//! tolerance on arbitrary workloads, and *bitwise* on workloads whose
//! arithmetic is exactly representable — and the baseline for the
//! scaling benchmarks.
//!
//! ## Example
//!
//! ```
//! use dessim::{Engine, Platform, ActivityKind};
//!
//! let mut platform = Platform::new();
//! let link = platform.add_link(125_000_000.0, 1e-4); // 1 Gbps, 100us
//! let mut engine = Engine::new(platform);
//! engine.add_activity(ActivityKind::flow(vec![link], 125_000_000.0), 7);
//! let done = engine.step().unwrap();
//! assert_eq!(done.tag, 7);
//! assert!((done.time - 1.0001).abs() < 1e-9); // latency + bytes/bw
//! ```

pub mod engine;
pub mod platform;
pub mod reference;
pub mod sharing;

pub use engine::{ActivityId, ActivityKind, Completion, Engine, KernelCounters};
pub use platform::{Disk, DiskId, Host, HostId, Link, LinkId, Platform};
pub use reference::ReferenceEngine;
pub use sharing::{max_min_fair_share, Frontier, SharingProblem, SharingScratch, Workspace};
