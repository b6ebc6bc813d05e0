//! Seeded kernel workloads, described without any `dessim` type so the
//! generator can be tested on its own; `surface` turns a description into a
//! platform and activities.
//!
//! Same two shapes as `lodcal_bench::workloads` (kept here so the benchmark
//! does not freeze `crates/bench`), with link capacities and flow sizes
//! jittered from the seed:
//!
//! - [`clustered`]: groups of 4 links, every flow inside one group, so link
//!   contention decomposes into ~128-activity components and per-event cost
//!   is the hot path's constants (storage, heap, per-cluster solve).
//! - [`backbone`]: the same groups welded into one component by 64 long
//!   cross flows over one low-capacity backbone link — the coupling
//!   gridsim's shared WAN links produce.

pub const LINKS_PER_GROUP: usize = 4;
pub const BACKBONE_CROSS_FLOWS: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activity {
    Compute {
        rate: f64,
        work: f64,
    },
    Timer {
        delay: f64,
    },
    /// A flow over one or two links (`route[..hops]`, link indices).
    Flow {
        route: [u32; 2],
        hops: u8,
        bytes: f64,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct KernelInput {
    /// Link bandwidths in bytes/s; a link's index is its position.
    pub links: Vec<f64>,
    /// Activities, all released at time 0; an activity's tag is its position.
    pub activities: Vec<Activity>,
}

/// splitmix64: all the randomness the harness needs for its own inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A factor in `[1 - spread, 1 + spread)`.
    fn factor(&mut self, spread: f64) -> f64 {
        1.0 + spread * (2.0 * self.unit() - 1.0)
    }
}

fn group_count(n: usize) -> usize {
    (n / 128).max(16)
}

fn group_links(jitter: &mut SplitMix, groups: usize) -> Vec<f64> {
    (0..groups * LINKS_PER_GROUP)
        .map(|i| (1e9 + i as f64 * 1e6) * jitter.factor(0.05))
        .collect()
}

/// Activity `i` of the group-local mix: 1/8 computes, 1/8 timers, 3/4
/// flows inside group `i % groups`. `first_link` is the index of the first
/// group link.
fn local_activity(jitter: &mut SplitMix, i: usize, groups: usize, first_link: usize) -> Activity {
    match i % 8 {
        0 => Activity::Compute {
            rate: 1e9 + i as f64 * 1e3,
            work: 1e9 * jitter.factor(0.05),
        },
        1 => Activity::Timer {
            delay: 0.5 + (i % 97) as f64 * 0.01,
        },
        _ => {
            let base = first_link + (i % groups) * LINKS_PER_GROUP;
            let a = (base + i % LINKS_PER_GROUP) as u32;
            let b = (base + (i / groups + 1) % LINKS_PER_GROUP) as u32;
            Activity::Flow {
                route: [a, b],
                hops: if a == b { 1 } else { 2 },
                bytes: (1e6 + i as f64 * 37.0) * jitter.factor(0.05),
            }
        }
    }
}

pub fn clustered(n: usize, seed: u64) -> KernelInput {
    let mut jitter = SplitMix(seed);
    let groups = group_count(n);
    let links = group_links(&mut jitter, groups);
    let activities = (0..n)
        .map(|i| local_activity(&mut jitter, i, groups, 0))
        .collect();
    KernelInput { links, activities }
}

pub fn backbone(n: usize, seed: u64) -> KernelInput {
    let mut jitter = SplitMix(seed);
    let groups = group_count(n);
    // Link 0 is the backbone: its fair share (~1e6/s per cross flow) is far
    // below any group share (~1e7/s), so cross flows bottleneck on it.
    let mut links = vec![BACKBONE_CROSS_FLOWS as f64 * 1e6 * jitter.factor(0.05)];
    links.extend(group_links(&mut jitter, groups));
    let local = n.saturating_sub(BACKBONE_CROSS_FLOWS);
    let mut activities: Vec<Activity> = (0..local)
        .map(|i| local_activity(&mut jitter, i, groups, 1))
        .collect();
    // Long-lived cross flows: large enough to stay active for most of the
    // run, each over the backbone and one link of a different group.
    for c in 0..BACKBONE_CROSS_FLOWS.min(n) {
        let group = (c * (groups / BACKBONE_CROSS_FLOWS).max(1)) % groups;
        let link = 1 + group * LINKS_PER_GROUP + c % LINKS_PER_GROUP;
        activities.push(Activity::Flow {
            route: [0, link as u32],
            hops: 2,
            bytes: (1e9 + c as f64 * 1e5) * jitter.factor(0.05),
        });
    }
    KernelInput { links, activities }
}

impl KernelInput {
    /// FNV-1a over every number of the description, bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::stamp::Fnv::new();
        for l in &self.links {
            h.write(&l.to_bits().to_le_bytes());
        }
        for a in &self.activities {
            match *a {
                Activity::Compute { rate, work } => {
                    h.write(b"c");
                    h.write(&rate.to_bits().to_le_bytes());
                    h.write(&work.to_bits().to_le_bytes());
                }
                Activity::Timer { delay } => {
                    h.write(b"t");
                    h.write(&delay.to_bits().to_le_bytes());
                }
                Activity::Flow { route, hops, bytes } => {
                    h.write(b"f");
                    for l in &route[..hops as usize] {
                        h.write(&l.to_le_bytes());
                    }
                    h.write(&bytes.to_bits().to_le_bytes());
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload_other_seed_other_workload() {
        for generate in [clustered as fn(usize, u64) -> KernelInput, backbone] {
            let a = generate(2_000, 20250706);
            assert_eq!(a, generate(2_000, 20250706));
            assert_eq!(a.fingerprint(), generate(2_000, 20250706).fingerprint());
            let b = generate(2_000, 7);
            assert_eq!(a.activities.len(), b.activities.len());
            assert_ne!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn clustered_flows_stay_inside_their_group() {
        let k = clustered(4_096, 1);
        assert_eq!(k.activities.len(), 4_096);
        assert_eq!(k.links.len(), 32 * LINKS_PER_GROUP);
        let mut flows = 0;
        for a in &k.activities {
            if let Activity::Flow { route, hops, .. } = *a {
                flows += 1;
                let group = route[0] as usize / LINKS_PER_GROUP;
                assert!(route[..hops as usize]
                    .iter()
                    .all(|&l| l as usize / LINKS_PER_GROUP == group));
            }
        }
        assert_eq!(flows, 4_096 * 6 / 8);
    }

    #[test]
    fn backbone_adds_cross_flows_over_link_zero() {
        let k = backbone(6_000, 1);
        assert_eq!(k.activities.len(), 6_000);
        let cross = k
            .activities
            .iter()
            .filter(|a| matches!(a, Activity::Flow { route, .. } if route[0] == 0))
            .count();
        assert_eq!(cross, BACKBONE_CROSS_FLOWS);
        // The backbone is the bottleneck of every cross flow.
        assert!(k.links[0] / (BACKBONE_CROSS_FLOWS as f64) < k.links[1] / 100.0);
    }
}
