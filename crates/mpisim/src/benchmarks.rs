//! The Intel MPI Benchmarks (IMB) communication patterns the ground truth
//! was collected with (paper §6.1): PingPing, PingPong, BiRandom, and
//! Stencil, with `2^x`-byte messages for `x in 10..=22`, on 128, 256, and
//! 512 compute nodes with six MPI ranks per node.

use numeric::rng_from_seed;
use serde::{Deserialize, Serialize};

/// MPI ranks per compute node (Summit practice: one per GPU).
pub const RANKS_PER_NODE: usize = 6;

/// The paper's message sizes: `2^x` bytes for `x in 10..=22`.
pub fn message_sizes() -> Vec<f64> {
    (10..=22).map(|x| f64::from(2u32.pow(x))).collect()
}

/// The paper's node counts.
pub const NODE_COUNTS: [usize; 3] = [128, 256, 512];

/// An IMB point-to-point benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkKind {
    /// Simultaneous bidirectional exchange between paired ranks.
    PingPing,
    /// Alternating send/receive between paired ranks (one direction active
    /// at a time).
    PingPong,
    /// Bidirectional exchange between randomly permuted rank pairs.
    BiRandom,
    /// 2-D nearest-neighbour halo exchange.
    Stencil,
}

impl BenchmarkKind {
    /// All benchmarks, in paper order.
    pub const ALL: [BenchmarkKind; 4] = [
        BenchmarkKind::PingPing,
        BenchmarkKind::PingPong,
        BenchmarkKind::BiRandom,
        BenchmarkKind::Stencil,
    ];

    /// The three benchmarks used for calibration in §6.4 (Stencil is held
    /// out for the §6.5 generalization study).
    pub const CALIBRATION_SET: [BenchmarkKind; 3] = [
        BenchmarkKind::PingPing,
        BenchmarkKind::PingPong,
        BenchmarkKind::BiRandom,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkKind::PingPing => "PingPing",
            BenchmarkKind::PingPong => "PingPong",
            BenchmarkKind::BiRandom => "BiRandom",
            BenchmarkKind::Stencil => "Stencil",
        }
    }

    /// The set of *simultaneously active* directed flows `(src, dst)` over
    /// rank ids, for `n_ranks` ranks. This is the steady-state contention
    /// pattern whose max-min allocation determines per-flow rates.
    ///
    /// - PingPong pairs rank `i` with `i + n/2`; only one direction is in
    ///   flight at a time, so one flow per pair.
    /// - PingPing uses the same pairs with both directions concurrently.
    /// - BiRandom pairs ranks by a seeded random permutation,
    ///   bidirectionally.
    /// - Stencil arranges ranks in a (near-)square grid; each rank
    ///   exchanges with its four neighbours (torus wrap), bidirectionally.
    pub fn flows(self, n_ranks: usize, seed: u64) -> Vec<(usize, usize)> {
        assert!(n_ranks >= 2, "need at least two ranks");
        match self {
            BenchmarkKind::PingPong => {
                let half = n_ranks / 2;
                (0..half).map(|i| (i, i + half)).collect()
            }
            BenchmarkKind::PingPing => {
                let half = n_ranks / 2;
                (0..half)
                    .flat_map(|i| [(i, i + half), (i + half, i)])
                    .collect()
            }
            BenchmarkKind::BiRandom => {
                let mut ranks: Vec<usize> = (0..n_ranks).collect();
                let mut rng = rng_from_seed(seed);
                rng.shuffle(&mut ranks);
                ranks
                    .chunks_exact(2)
                    .flat_map(|p| [(p[0], p[1]), (p[1], p[0])])
                    .collect()
            }
            BenchmarkKind::Stencil => {
                // Widest grid no wider than sqrt, so the grid is near-square.
                let mut width = (n_ranks as f64).sqrt().floor() as usize;
                while width > 1 && !n_ranks.is_multiple_of(width) {
                    width -= 1;
                }
                let height = n_ranks / width.max(1);
                let width = width.max(1);
                let at = |r: usize, c: usize| r * width + c;
                let mut flows = Vec::with_capacity(n_ranks * 2);
                for r in 0..height {
                    for c in 0..width {
                        let me = at(r, c);
                        // Right and down neighbours with torus wrap, both
                        // directions: covers all four neighbour exchanges.
                        let right = at(r, (c + 1) % width);
                        let down = at((r + 1) % height, c);
                        if right != me {
                            flows.push((me, right));
                            flows.push((right, me));
                        }
                        if down != me {
                            flows.push((me, down));
                            flows.push((down, me));
                        }
                    }
                }
                flows
            }
        }
    }

    /// Parse a benchmark name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "pingping" => Some(BenchmarkKind::PingPing),
            "pingpong" => Some(BenchmarkKind::PingPong),
            "birandom" => Some(BenchmarkKind::BiRandom),
            "stencil" => Some(BenchmarkKind::Stencil),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn message_sizes_match_paper() {
        let s = message_sizes();
        assert_eq!(s.len(), 13);
        assert_eq!(s[0], 1024.0);
        assert_eq!(s[12], 4_194_304.0);
    }

    #[test]
    fn pingpong_has_one_flow_per_pair() {
        let flows = BenchmarkKind::PingPong.flows(12, 0);
        assert_eq!(flows.len(), 6);
        assert!(flows.iter().all(|&(s, d)| d == s + 6));
    }

    #[test]
    fn pingping_doubles_pingpong() {
        let pp = BenchmarkKind::PingPong.flows(12, 0);
        let pi = BenchmarkKind::PingPing.flows(12, 0);
        assert_eq!(pi.len(), 2 * pp.len());
        // Every reverse flow is present.
        let set: HashSet<(usize, usize)> = pi.iter().copied().collect();
        for &(s, d) in &pp {
            assert!(set.contains(&(s, d)) && set.contains(&(d, s)));
        }
    }

    #[test]
    fn birandom_is_a_perfect_bidirectional_matching() {
        let flows = BenchmarkKind::BiRandom.flows(100, 7);
        assert_eq!(flows.len(), 100);
        let mut degree = vec![0usize; 100];
        for &(s, d) in &flows {
            assert_ne!(s, d);
            degree[s] += 1;
            degree[d] += 1;
        }
        // Each rank appears in exactly one pair, both directions.
        assert!(degree.iter().all(|&d| d == 2));
    }

    #[test]
    fn birandom_is_seeded() {
        assert_eq!(
            BenchmarkKind::BiRandom.flows(50, 3),
            BenchmarkKind::BiRandom.flows(50, 3)
        );
        assert_ne!(
            BenchmarkKind::BiRandom.flows(50, 3),
            BenchmarkKind::BiRandom.flows(50, 4)
        );
    }

    #[test]
    fn stencil_every_rank_communicates() {
        let flows = BenchmarkKind::Stencil.flows(36, 0);
        let mut touched = [false; 36];
        for &(s, d) in &flows {
            touched[s] = true;
            touched[d] = true;
        }
        assert!(touched.iter().all(|&t| t));
    }

    #[test]
    fn stencil_degree_is_bounded_by_eight() {
        // 4 neighbours x 2 directions.
        let flows = BenchmarkKind::Stencil.flows(64, 0);
        let mut out = vec![0usize; 64];
        for &(s, _) in &flows {
            out[s] += 1;
        }
        assert!(
            out.iter().all(|&d| d <= 4),
            "max out-degree {:?}",
            out.iter().max()
        );
    }

    #[test]
    fn flows_respect_rank_bounds() {
        for b in BenchmarkKind::ALL {
            for n in [2, 6, 100, 768] {
                for (s, d) in b.flows(n, 1) {
                    assert!(s < n && d < n, "{} n={n}", b.name());
                }
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in BenchmarkKind::ALL {
            assert_eq!(BenchmarkKind::parse(b.name()), Some(b));
        }
    }
}
