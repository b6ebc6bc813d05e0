//! Oracle property test: the optimized incremental [`Engine`] must emit
//! the same completion sequence as the full-recompute
//! [`ReferenceEngine`] on randomized mixed workloads, including batches
//! of activities added mid-run.
//!
//! The two engines do their floating-point arithmetic in different orders
//! (the reference rewrites every `remaining` at every event; the
//! optimized engine materializes progress lazily, only on rate changes),
//! so completion times agree only up to accumulated rounding noise, and
//! near-simultaneous completions may swap order. The comparison therefore
//! checks times element-wise within a relative tolerance, and compares
//! the sets of (activity, tag) per *cluster* of indistinguishable times
//! rather than demanding a bit-identical order.

use dessim::{ActivityKind, Completion, DiskId, Engine, LinkId, Platform, ReferenceEngine};
use numeric::Rng;
use proptest::prelude::*;

/// Relative tolerance for comparing completion times across engines.
const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

fn build_platform(rng: &mut Rng) -> (Platform, Vec<LinkId>, Vec<DiskId>) {
    let mut p = Platform::new();
    let links: Vec<LinkId> = (0..2 + rng.below(4))
        .map(|_| {
            let lat = rng.uniform(0.0, 0.05);
            // Mix zero-latency links in so Active-on-add flows occur.
            p.add_link(rng.uniform(10.0, 100.0), if lat < 0.02 { 0.0 } else { lat })
        })
        .collect();
    let disks: Vec<DiskId> = (0..1 + rng.below(2))
        .map(|_| p.add_disk(rng.uniform(20.0, 80.0), 1 + rng.below(3) as u32))
        .collect();
    (p, links, disks)
}

fn random_kind(rng: &mut Rng, links: &[LinkId], disks: &[DiskId]) -> ActivityKind {
    match rng.below(12) {
        0..=2 => ActivityKind::compute(rng.uniform(1.0, 50.0), rng.uniform(0.0, 100.0)),
        3..=4 => {
            let d = disks[rng.below(disks.len())];
            ActivityKind::io(d, rng.uniform(0.0, 200.0))
        }
        5..=8 => {
            let hops = 1 + rng.below(3.min(links.len()));
            let route = (0..hops).map(|_| links[rng.below(links.len())]).collect();
            ActivityKind::flow(route, rng.uniform(0.0, 300.0))
        }
        9 => ActivityKind::flow(vec![], rng.uniform(0.0, 1e9)),
        10 => ActivityKind::timer(rng.uniform(0.0, 5.0)),
        _ => ActivityKind::timer_at(rng.uniform(0.0, 20.0)),
    }
}

/// Compare two completion sequences: same length, element-wise close
/// times, and identical (id, tag) multisets within each cluster of
/// indistinguishable times.
fn compare_sequences(opt: &[Completion], refr: &[Completion]) -> Result<(), TestCaseError> {
    prop_assert_eq!(opt.len(), refr.len(), "completion counts differ");
    for (k, (o, r)) in opt.iter().zip(refr).enumerate() {
        prop_assert!(
            close(o.time, r.time),
            "completion {k}: optimized at {} vs reference at {}",
            o.time,
            r.time
        );
    }
    let mut i = 0;
    while i < opt.len() {
        // Extend the cluster while consecutive times are indistinguishable.
        let mut j = i + 1;
        while j < opt.len() && close(opt[j].time, opt[j - 1].time) {
            j += 1;
        }
        let mut a: Vec<_> = opt[i..j].iter().map(|c| (c.id, c.tag)).collect();
        let mut b: Vec<_> = refr[i..j].iter().map(|c| (c.id, c.tag)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "cluster at t~{} differs", opt[i].time);
        i = j;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both engines, fed the identical workload (initial batch plus
    /// batches released after every few completions), produce the same
    /// completion sequence and final virtual time.
    #[test]
    fn incremental_engine_matches_reference(seed in 0u64..10_000) {
        let mut rng = numeric::rng_from_seed(seed);
        let (platform, links, disks) = build_platform(&mut rng);
        let mut opt = Engine::new(platform.clone());
        let mut refr = ReferenceEngine::new(platform);

        let mut next_tag = 0u64;
        let mut make_batch = |rng: &mut Rng, n: usize| -> Vec<(ActivityKind, u64)> {
            (0..n)
                .map(|_| {
                    next_tag += 1;
                    (random_kind(rng, &links, &disks), next_tag)
                })
                .collect()
        };

        let n0 = 10 + rng.below(30);
        let initial = make_batch(&mut rng, n0);
        opt.add_activities(initial.clone());
        refr.add_activities(initial);

        let mut batches_left = 2 + rng.below(4);
        let mut opt_done = Vec::new();
        let mut refr_done = Vec::new();
        loop {
            match (opt.step(), refr.step()) {
                (None, None) => break,
                (Some(o), Some(r)) => {
                    opt_done.push(o);
                    refr_done.push(r);
                }
                (o, r) => {
                    return Err(TestCaseError::fail(format!(
                        "one engine drained early: optimized {o:?}, reference {r:?}"
                    )));
                }
            }
            // Mid-run releases: both engines get the same batch after the
            // same completion, exercising incremental re-solves against
            // already-in-flight activities.
            if batches_left > 0 && opt_done.len() % 5 == 0 {
                batches_left -= 1;
                let n = 2 + rng.below(6);
                let batch = make_batch(&mut rng, n);
                opt.add_activities(batch.clone());
                refr.add_activities(batch);
            }
        }
        compare_sequences(&opt_done, &refr_done)?;
        prop_assert!(close(opt.time(), refr.time()),
            "final times: {} vs {}", opt.time(), refr.time());
    }
}
