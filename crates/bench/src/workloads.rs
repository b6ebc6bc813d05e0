//! Deterministic kernel workloads for the `engine_scaling` smoke binary.
//!
//! Two shapes, chosen to exercise the two structural regimes of the
//! incremental engine:
//!
//! - [`clustered`]: many small independent sharing components. Per-event
//!   cost is bounded by the component size, so throughput measures the
//!   constant factors of the hot path (storage layout, heap, solver).
//! - [`backbone`]: one giant connected component — every group of links
//!   is bridged to a shared backbone by a few long-lived cross flows.
//!   A whole-component re-solve is `O(n)` per event here; only a
//!   frontier-limited re-solve keeps events local.

use dessim::{ActivityKind, Platform};

/// Links per group in both workloads.
pub const LINKS_PER_GROUP: usize = 4;

/// A large mixed workload whose link contention decomposes into many
/// small connected components: groups of 4 links (group count scaling
/// with `n` so components stay ~128 activities), every flow routed
/// inside one group, plus computes and timers.
pub fn clustered(n: usize) -> (Platform, Vec<(ActivityKind, u64)>) {
    let groups = (n / 128).max(16);
    let mut p = Platform::new();
    let links: Vec<Vec<_>> = (0..groups)
        .map(|g| {
            (0..LINKS_PER_GROUP)
                .map(|i| p.add_link(1e9 + ((g * LINKS_PER_GROUP + i) as f64) * 1e6, 0.0))
                .collect()
        })
        .collect();
    let batch = (0..n)
        .map(|i| {
            let kind = match i % 8 {
                0 => ActivityKind::compute(1e9 + (i as f64) * 1e3, 1e9),
                1 => ActivityKind::timer(0.5 + (i % 97) as f64 * 0.01),
                _ => {
                    let group = &links[i % groups];
                    let a = group[i % LINKS_PER_GROUP];
                    let b = group[(i / groups + 1) % LINKS_PER_GROUP];
                    let route = if a == b { vec![a] } else { vec![a, b] };
                    ActivityKind::flow(route, 1e6 + (i as f64) * 37.0)
                }
            };
            (kind, i as u64)
        })
        .collect();
    (p, batch)
}

/// Number of backbone-crossing flows in the [`backbone`] workload,
/// independent of `n`: enough to weld every group into one connected
/// component, few enough that a frontier-limited solve stays cheap.
pub const BACKBONE_CROSS_FLOWS: usize = 64;

/// A single-component workload: the [`clustered`] group structure plus
/// one low-capacity backbone link and [`BACKBONE_CROSS_FLOWS`] long
/// cross flows, each routed over the backbone and one group link. The
/// backbone's capacity is chosen so cross flows bottleneck *on the
/// backbone* (its fair share is far below any group share); group-local
/// events therefore never change a cross flow's rate, and a
/// frontier-limited re-solve touches one group plus the backbone
/// instead of the whole `n`-activity component.
pub fn backbone(n: usize) -> (Platform, Vec<(ActivityKind, u64)>) {
    let groups = (n / 128).max(16);
    let mut p = Platform::new();
    // Backbone fair share ~1e6/s per cross flow vs ~1e7/s group shares.
    let bb = p.add_link(BACKBONE_CROSS_FLOWS as f64 * 1e6, 0.0);
    let links: Vec<Vec<_>> = (0..groups)
        .map(|g| {
            (0..LINKS_PER_GROUP)
                .map(|i| p.add_link(1e9 + ((g * LINKS_PER_GROUP + i) as f64) * 1e6, 0.0))
                .collect()
        })
        .collect();
    let mut batch: Vec<(ActivityKind, u64)> = Vec::with_capacity(n);
    for i in 0..n.saturating_sub(BACKBONE_CROSS_FLOWS) {
        let kind = match i % 8 {
            0 => ActivityKind::compute(1e9 + (i as f64) * 1e3, 1e9),
            1 => ActivityKind::timer(0.5 + (i % 97) as f64 * 0.01),
            _ => {
                let group = &links[i % groups];
                let a = group[i % LINKS_PER_GROUP];
                let b = group[(i / groups + 1) % LINKS_PER_GROUP];
                let route = if a == b { vec![a] } else { vec![a, b] };
                ActivityKind::flow(route, 1e6 + (i as f64) * 37.0)
            }
        };
        batch.push((kind, i as u64));
    }
    // Long-lived cross flows: large enough to stay active for most of
    // the run, welding every `i % groups`-th group to the backbone.
    let base = batch.len();
    for c in 0..BACKBONE_CROSS_FLOWS.min(n) {
        let group = &links[(c * (groups / BACKBONE_CROSS_FLOWS).max(1)) % groups];
        let route = vec![bb, group[c % LINKS_PER_GROUP]];
        batch.push((
            ActivityKind::flow(route, 1e9 + (c as f64) * 1e5),
            (base + c) as u64,
        ));
    }
    (p, batch)
}
