//! Pin on a welded sharing component: the exact completion stream and the
//! exact kernel counters of a small backbone-shaped run.
//!
//! `tests/bitexact.rs` puts every cohort on fresh links (one-link
//! frontiers, one filling round per solve) and `tests/oracle.rs` compares
//! against [`dessim::ReferenceEngine`], which calls the same solver — so
//! neither sees a change in the solver's arithmetic or in the order the
//! engine builds and commits a candidate problem. Here 64 two-hop cross
//! flows weld eight four-link groups to one low-capacity backbone, every
//! capacity and byte count is a non-dyadic fraction (each filling round
//! rounds), and batches released mid-run recycle slots, so discovery order
//! differs from serial order. The digest and counters below were recorded
//! at the commit *before* links kept their own flow lists and before the
//! engine stopped sorting candidate flows by serial; any bit that moves in
//! a rate, a completion time or an event order moves them.

use dessim::{ActivityKind, Engine, LinkId, Platform};

const GROUPS: usize = 8;
const LINKS_PER_GROUP: usize = 4;
const CROSS_FLOWS: usize = 64;
const INITIAL_LOCAL_FLOWS: usize = 160;
const RELEASES: usize = 10;
const FLOWS_PER_RELEASE: usize = 24;

/// FNV-1a over `(tag, time.to_bits())` of every completion, in order.
const PINNED_DIGEST: u64 = 0xb8c3_5c9d_bc60_9f8d;
/// `(events, heap_reinserts, sharing_resolves, frontier_links)`: 10.8
/// links per candidate solve, so filling takes many rounds.
const PINNED_COUNTERS: (u64, u64, u64, u64) = (484, 11721, 1359, 14720);

fn platform() -> (Platform, LinkId, Vec<Vec<LinkId>>) {
    let mut p = Platform::new();
    let backbone = p.add_link(CROSS_FLOWS as f64 * 1e6 / 3.0, 0.0);
    let groups = (0..GROUPS)
        .map(|g| {
            (0..LINKS_PER_GROUP)
                .map(|i| {
                    let k = (g * LINKS_PER_GROUP + i) as f64;
                    // One link per group charges latency, so some flows
                    // join their links at a phase transition, not an add.
                    let latency = if i == 3 { 1e-3 / 3.0 } else { 0.0 };
                    p.add_link(1e8 / 7.0 + k * 1e6 / 3.0, latency)
                })
                .collect()
        })
        .collect();
    (p, backbone, groups)
}

/// The `i`-th local flow: one or two links inside group `i % GROUPS`.
fn local_flow(groups: &[Vec<LinkId>], i: usize) -> ActivityKind {
    let group = &groups[i % GROUPS];
    let a = group[(i / GROUPS) % LINKS_PER_GROUP];
    let b = group[(i / 3) % LINKS_PER_GROUP];
    let route = if a == b { vec![a] } else { vec![a, b] };
    ActivityKind::flow(route, 2e6 + i as f64 * 37e3 / 3.0)
}

fn fnv1a_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn welded_component_stream_and_counters_are_pinned() {
    let (p, backbone, groups) = platform();
    let mut e = Engine::new(p);
    let mut next_tag = 0u64;
    let mut tagged = |kind: ActivityKind| {
        next_tag += 1;
        (kind, next_tag)
    };

    let mut first: Vec<_> = (0..INITIAL_LOCAL_FLOWS)
        .map(|i| tagged(local_flow(&groups, i)))
        .collect();
    first.extend((0..CROSS_FLOWS).map(|c| {
        let leaf = groups[c % GROUPS][(c / GROUPS) % LINKS_PER_GROUP];
        tagged(ActivityKind::flow(
            vec![backbone, leaf],
            2e6 + c as f64 * 1e5 / 7.0,
        ))
    }));
    e.add_activities(first);

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut done = 0usize;
    let mut released = 0usize;
    let mut last = 0.0f64;
    while let Some(c) = e.step() {
        assert!(c.time >= last, "completions out of time order");
        last = c.time;
        digest = fnv1a_fold(fnv1a_fold(digest, c.tag), c.time.to_bits());
        done += 1;
        if done.is_multiple_of(16) && released < RELEASES {
            let base = INITIAL_LOCAL_FLOWS + released * FLOWS_PER_RELEASE;
            let mut batch: Vec<_> = (base..base + FLOWS_PER_RELEASE)
                .map(|i| tagged(local_flow(&groups, i)))
                .collect();
            batch.push(tagged(ActivityKind::timer(0.01 + released as f64 / 30.0)));
            batch.push(tagged(ActivityKind::compute(1e9 / 3.0, 1e8)));
            e.add_activities(batch);
            released += 1;
        }
    }
    assert_eq!(released, RELEASES);

    let c = e.counters();
    assert_eq!(
        (
            c.events,
            c.heap_reinserts,
            c.sharing_resolves,
            c.frontier_links
        ),
        PINNED_COUNTERS
    );
    assert_eq!(digest, PINNED_DIGEST, "digest {digest:#018x}");
}
