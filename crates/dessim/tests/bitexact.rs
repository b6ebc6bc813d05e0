//! Bit-for-bit oracle: on workloads whose arithmetic is *exactly
//! representable* in f64, the optimized [`Engine`] must match the
//! full-recompute [`ReferenceEngine`] bitwise — identical completion
//! times (`==`, not within tolerance), identical ids, identical order.
//!
//! The tolerance-based oracle (`tests/oracle.rs`) leaves room for the two
//! engines to accumulate different rounding noise; this test removes that
//! room. Every rate is a dyadic rational (link bandwidth 1024 split among
//! a power-of-two cohort), every duration an integer, and every byte
//! count a multiple of the rate — so materialization
//! (`remaining - rate·dt`), finish prediction (`remaining / rate`), and
//! the max-min solve are all exact no matter how many times or in which
//! order they run. Any bitwise divergence therefore exposes a real
//! semantic difference (wrong sharing, wrong tie-break, wrong batch
//! order), not float noise. This pins the determinism contract:
//! completion streams are independent of storage layout, slot recycling,
//! frontier size, and same-instant batch draining.
//!
//! Cohorts are deliberately homogeneous (one fresh link/disk per cohort,
//! all members the same size) so the per-resource flow count is always a
//! power of two and shares stay dyadic for the whole run.

use dessim::{ActivityKind, Engine, Platform, ReferenceEngine};
use numeric::Rng;
use proptest::prelude::*;

const BW: f64 = 1024.0;

/// One same-instant release of activities (a cohort plus loose extras).
type Batch = Vec<(ActivityKind, u64)>;

/// Pre-generate the platform and all batches: resources must exist before
/// either engine is constructed, and both engines must see identical adds.
fn build_workload(rng: &mut Rng) -> (Platform, Vec<Batch>) {
    let mut p = Platform::new();
    let mut batches = Vec::new();
    let mut next_tag = 0u64;
    let n_batches = 3 + rng.below(5);
    for _ in 0..n_batches {
        let mut batch: Batch = Vec::new();
        let n_cohorts = 1 + rng.below(3);
        for _ in 0..n_cohorts {
            let k = 1usize << rng.below(4); // cohort size: 1,2,4,8
            let m = 1 + rng.below(8) as u64; // integer duration in seconds
            match rng.below(6) {
                0 | 1 => {
                    // k equal flows on a fresh link: each runs at the
                    // dyadic rate BW/k for exactly m seconds.
                    let lat = rng.below(3) as f64; // integer latency
                    let link = p.add_link(BW, lat);
                    let bytes = m as f64 * (BW / k as f64);
                    for _ in 0..k {
                        next_tag += 1;
                        batch.push((ActivityKind::flow(vec![link], bytes), next_tag));
                    }
                }
                2 => {
                    // Two-hop route over fresh links; the first is the
                    // (tied) bottleneck, shares stay dyadic.
                    let a = p.add_link(BW, 0.0);
                    let b = p.add_link(BW, rng.below(2) as f64);
                    let bytes = m as f64 * (BW / k as f64);
                    for _ in 0..k {
                        next_tag += 1;
                        batch.push((ActivityKind::flow(vec![a, b], bytes), next_tag));
                    }
                }
                3 => {
                    // k equal ops on a fresh disk with power-of-two
                    // concurrency ≥ k: all served at the dyadic BW/k.
                    let disk = p.add_disk(BW, 8);
                    let bytes = m as f64 * (BW / k as f64);
                    for _ in 0..k {
                        next_tag += 1;
                        batch.push((ActivityKind::io(disk, bytes), next_tag));
                    }
                }
                4 => {
                    // Computes at a power-of-two rate, integer duration.
                    let rate = (1u64 << rng.below(5)) as f64;
                    for _ in 0..k {
                        next_tag += 1;
                        batch.push((ActivityKind::compute(rate, m as f64 * rate), next_tag));
                    }
                }
                _ => {
                    // Timers with integer delays / deadlines, plus the
                    // occasional unconstrained (empty-route) flow.
                    for _ in 0..k {
                        next_tag += 1;
                        let kind = match rng.below(3) {
                            0 => ActivityKind::timer(rng.below(10) as f64),
                            1 => ActivityKind::timer_at(rng.below(30) as f64),
                            _ => ActivityKind::flow(vec![], rng.below(1000) as f64),
                        };
                        batch.push((kind, next_tag));
                    }
                }
            }
        }
        batches.push(batch);
    }
    (p, batches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lock-step run over an exactly-representable workload: every
    /// completion must agree bitwise in time, id, and tag, in the same
    /// order, with batches released mid-run after identical completions.
    #[test]
    fn exact_workloads_match_reference_bitwise(seed in 0u64..10_000) {
        let mut rng = numeric::rng_from_seed(seed);
        let (platform, mut batches) = build_workload(&mut rng);
        let mut opt = Engine::new(platform.clone());
        let mut refr = ReferenceEngine::new(platform);

        batches.reverse(); // pop from the back in release order
        let first = batches.pop().expect("at least one batch");
        opt.add_activities(first.clone());
        refr.add_activities(first);

        let mut done = 0usize;
        loop {
            match (opt.step(), refr.step()) {
                (None, None) => {
                    // Drained with batches pending: release the next one
                    // (both engines sit at the same integer time).
                    match batches.pop() {
                        Some(batch) => {
                            opt.add_activities(batch.clone());
                            refr.add_activities(batch);
                            continue;
                        }
                        None => break,
                    }
                }
                (Some(o), Some(r)) => {
                    // Bitwise: f64 `==`, no tolerance.
                    prop_assert_eq!(o, r, "completion {} diverged", done);
                    done += 1;
                }
                (o, r) => {
                    return Err(TestCaseError::fail(format!(
                        "one engine drained early: optimized {o:?}, reference {r:?}"
                    )));
                }
            }
            // Same-completion-count release points keep both engines'
            // add times identical (and integral: completions happen at
            // integer times by construction).
            if done.is_multiple_of(4) {
                if let Some(batch) = batches.pop() {
                    opt.add_activities(batch.clone());
                    refr.add_activities(batch);
                }
            }
        }
        prop_assert_eq!(opt.time().to_bits(), refr.time().to_bits(),
            "final times diverge: {} vs {}", opt.time(), refr.time());
    }
}
