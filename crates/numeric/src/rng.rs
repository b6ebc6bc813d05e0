//! Deterministic random sampling.
//!
//! [`Rng`] is the workspace's only random source: ground-truth noise, the
//! workflow generator, the searches' proposals, the tree surrogates and
//! the property-test cases all draw from one, seeded explicitly by the
//! caller. Its stream is a contract, not an implementation detail: every
//! golden digest depends on it, and `stream_is_pinned` below pins it draw
//! for draw. On top of it sit the continuous distributions the workspace
//! needs: normal (Box–Muller), lognormal, and truncated normal.

/// One step of the SplitMix64 generator: a stream whose whole state is
/// one `u64`. Seeds [`Rng`], and keys draws that must be a pure function
/// of their key.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// Construct a deterministic RNG from a seed, expanded through SplitMix64.
pub fn rng_from_seed(seed: u64) -> Rng {
    let mut sm = seed;
    Rng {
        s: std::array::from_fn(|_| splitmix64(&mut sm)),
    }
}

impl Rng {
    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` by widening multiply, whose bias is
    /// negligible (and deterministic) for every `n` far below 2^64.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Sample `N(mean, std^2)` via the Box–Muller transform.
///
/// # Panics
/// Panics if `std` is negative.
pub fn normal(rng: &mut Rng, mean: f64, std: f64) -> f64 {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    if std == 0.0 {
        return mean;
    }
    // Box–Muller: u1 in (0, 1] to avoid ln(0).
    let u1 = 1.0 - rng.unit();
    let u2 = rng.unit();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std * z
}

/// Sample a lognormal variate whose *underlying normal* has the given mean
/// and standard deviation (i.e. `exp(N(mu, sigma^2))`).
pub fn lognormal(rng: &mut Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Sample `N(mean, std^2)` truncated to `[lo, hi]` by rejection, falling
/// back to clamping after 64 rejections (relevant only for extreme
/// truncations).
///
/// # Panics
/// Panics if `lo > hi`.
pub fn truncated_normal(rng: &mut Rng, mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "invalid truncation interval");
    for _ in 0..64 {
        let x = normal(rng, mean, std);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    normal(rng, mean, std).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn draws_respect_their_ranges_and_shuffle_permutes() {
        let mut rng = rng_from_seed(2);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!(rng.below(7) < 7);
            assert!((-2.0..2.0).contains(&rng.uniform(-2.0, 2.0)));
        }
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a sorted shuffle of 100 is astronomically unlikely"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_is_rejected() {
        rng_from_seed(0).below(0);
    }

    #[test]
    fn normal_zero_std_is_deterministic() {
        let mut rng = rng_from_seed(7);
        assert_eq!(normal(&mut rng, 3.5, 0.0), 3.5);
    }

    #[test]
    fn normal_moments_are_approximately_right() {
        let mut rng = rng_from_seed(123);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        let mean = crate::stats::mean(&xs);
        let std = crate::stats::std_dev(&xs);
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((std - 2.0).abs() < 0.05, "std {std}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = rng_from_seed(5);
        for _ in 0..1000 {
            assert!(lognormal(&mut rng, 0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = rng_from_seed(9);
        for _ in 0..1000 {
            let x = truncated_normal(&mut rng, 0.0, 5.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    /// Every draw kind the workspace makes, in one stream per seed.
    fn trace(seed: u64) -> Vec<u64> {
        let mut rng = rng_from_seed(seed);
        let mut out: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        out.extend((0..3).map(|_| rng.unit().to_bits()));
        out.push(rng.below(10) as u64);
        out.push(1 + rng.below(40) as u64);
        out.push(rng.below(6) as u64);
        out.push(rng.below(5) as u64);
        out.push(rng.below(1000) as u64);
        out.push(5 + rng.below(5) as u64);
        out.push(rng.uniform(-2.0, 3.0).to_bits());
        let mut perm: Vec<u64> = (0..10).collect();
        rng.shuffle(&mut perm);
        out.extend(perm);
        out.push(normal(&mut rng, 1.0, 2.0).to_bits());
        out.push(lognormal(&mut rng, 0.0, 0.5).to_bits());
        out.push(truncated_normal(&mut rng, 0.0, 5.0, -1.0, 1.0).to_bits());
        out
    }

    /// The stream is a contract: the ground-truth noise, the workflow
    /// generator, the searches and the tree surrogates all draw from it,
    /// so every golden digest pins it. Only the call syntax in `trace`
    /// may ever change here, never an expected value.
    #[test]
    fn stream_is_pinned() {
        #[rustfmt::skip]
        let expected: [(u64, [u64; 27]); 2] = [
            (0, [
                5987356902031041503, 7051070477665621255, 6633766593972829180, 211316841551650330,
                4602593612304994966, 4581584748142379552, 4605896617678821024,
                8, 12, 0, 1, 66, 5,
                13832945592231965082,
                8, 4, 6, 7, 2, 1, 9, 5, 3, 0,
                13825403439977253284, 4608882689568888766, 13790803160708059042,
            ]),
            (0x5eed, [
                10282429449889516544, 18289893575130937175, 1677040964159157043, 8068187894902567183,
                4601459083087267180, 4600711812718524134, 4598635283995021432,
                7, 5, 4, 4, 287, 9,
                4605887004618609944,
                6, 9, 2, 5, 4, 7, 3, 8, 0, 1,
                13821140276266807848, 4613443729063391385, 13829371804773604050,
            ]),
        ];
        for (seed, want) in expected {
            assert_eq!(trace(seed), want, "seed {seed}");
        }
    }

    /// Property-test cases draw from the same generator through
    /// `proptest::test_rng`; pinning its first draws pins every case.
    #[test]
    fn proptest_stream_is_pinned() {
        use proptest::Strategy;
        let mut rng = proptest::test_rng(0);
        let raw = [rng.next_u64(), rng.next_u64()];
        let signed = [
            (-50i64..50).generate(&mut rng),
            (-3i64..=3).generate(&mut rng),
        ];
        let unit = (0.0f64..1.0).generate(&mut rng).to_bits();
        assert_eq!(raw, [6409272458699751175, 6888991682673849350]);
        assert_eq!(signed, [-11, -2]);
        assert_eq!(unit, 4606759353512200829);
    }

    #[test]
    fn truncated_normal_extreme_truncation_clamps() {
        // Mean far outside the interval: rejection will fail, clamp kicks in.
        let mut rng = rng_from_seed(11);
        let x = truncated_normal(&mut rng, 1000.0, 0.01, 0.0, 1.0);
        assert!((0.0..=1.0).contains(&x));
    }
}
