//! Multi-fidelity evaluation: deterministic scenario subsampling.
//!
//! Successive-halving sweeps (lodsel) start every calibration run on a
//! *cheap rung* — a small evaluation budget over a small subset of the
//! ground-truth scenario set — and only the survivors graduate to the
//! full set. This module supplies the two ingredients that make cheap
//! rungs sound:
//!
//! * [`subset_indices`]: a deterministic, seed-derived uniform k-subset
//!   of scenario indices. Membership is keyed by `(seed, rung)` only, so
//!   a resumed sweep rebuilds bit-for-bit the same subset a fresh sweep
//!   evaluates — the resume-equals-fresh contract extends to every rung.
//! * [`SimulationObjective::on_subset`]: the objective restricted to
//!   that subset, whose loss is an *unbiased estimator* of the full
//!   objective's loss for mean-aggregating losses: each scenario is
//!   included with equal probability, so the expectation of the subset
//!   mean over subset draws equals the full-set mean (see the
//!   exhaustive-enumeration proptest). Max-style aggregations are biased
//!   low on subsets — rung losses then underestimate, which is still a
//!   valid *ranking* signal but not an estimate; the final rung always
//!   runs the full set either way.
//!
//! A subset is a view of the one objective, not a second objective: the
//! loss is the same code, reducing in dataset order, so at full fidelity
//! — `k == n` — the loss is bit-for-bit the full loss and shares its
//! cache entries.
//!
//! [`SimulationObjective::on_subset`]: crate::objective::SimulationObjective::on_subset

use serde::{Deserialize, Serialize};

/// The fidelity one rung of a multi-fidelity sweep evaluates at: which
/// fraction of the ground-truth scenario set a calibration sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fidelity {
    /// Rung index (0 = cheapest). Part of the subset-membership key, so
    /// distinct rungs of one run draw independent subsets.
    pub rung: usize,
    /// Subset-size denominator: a rung targets `ceil(n / scenario_denom)`
    /// of the `n` scenarios. `1` means full fidelity.
    pub scenario_denom: usize,
    /// Lower bound on the subset size (clamped to the dataset size), so
    /// tiny datasets are never subsampled down to a meaningless handful.
    pub min_scenarios: usize,
}

impl Fidelity {
    /// Full fidelity: the whole scenario set.
    pub fn full() -> Self {
        Self {
            rung: 0,
            scenario_denom: 1,
            min_scenarios: 1,
        }
    }

    /// Subset size this fidelity selects out of `n` scenarios.
    pub fn subset_len(&self, n: usize) -> usize {
        let denom = self.scenario_denom.max(1);
        n.min(self.min_scenarios.max(1).max(n.div_ceil(denom)))
    }

    /// Whether this fidelity keeps all `n` scenarios. Callers should then
    /// evaluate the full objective directly (identical results, shared
    /// loss-cache entries).
    pub fn is_full(&self, n: usize) -> bool {
        self.subset_len(n) == n
    }

    /// The scenario indices this fidelity selects out of `n`, for the
    /// run identified by `seed`. Deterministic in `(n, seed, rung)`.
    pub fn indices(&self, n: usize, seed: u64) -> Vec<usize> {
        subset_indices(n, self.subset_len(n), seed, self.rung)
    }
}

/// A deterministic uniform `k`-subset of `0..n`, sorted ascending.
///
/// The draw is a partial Fisher–Yates shuffle over a splitmix64 stream
/// keyed by `(seed, rung)` — every scenario is selected with probability
/// `k / n` (up to the negligible `n / 2^64` modulo bias), which is what
/// makes the subset mean an unbiased estimator of the full mean. Sorting
/// restores dataset order so downstream aggregation reduces in the same
/// order as the full objective.
///
/// # Panics
/// Panics if `k > n`.
pub fn subset_indices(n: usize, k: usize, seed: u64, rung: usize) -> Vec<usize> {
    assert!(k <= n, "cannot select {k} of {n} scenarios");
    let mut state = seed ^ (rung as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + (numeric::rng::splitmix64(&mut state) % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut chosen = pool;
    chosen.truncate(k);
    chosen.sort_unstable();
    chosen
}

/// Content tag of a concrete subset, for loss-cache fingerprints: two
/// different subsets of the same dataset must never share cache entries.
pub fn subset_tag(indices: &[usize], full_len: usize) -> u64 {
    let words = [full_len, indices.len()];
    let bytes: Vec<u8> = words
        .iter()
        .chain(indices)
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    crate::cache::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Agg, ElementMix, ScenarioError, StructuredLoss};
    use crate::objective::{Objective, SimulationObjective, Simulator};
    use crate::param::{Calibration, ParamKind, ParameterSpace};
    use std::collections::HashSet;

    struct Toy;
    impl Simulator for Toy {
        type Scenario = f64;
        type Output = ScenarioError;
        fn run(&self, scenario: &f64, calibration: &Calibration) -> ScenarioError {
            ScenarioError::scalar_only(crate::loss::relative_error(
                *scenario,
                calibration.values[0],
            ))
        }
    }

    fn space1() -> ParameterSpace {
        ParameterSpace::new().with("x", ParamKind::Continuous { lo: 0.0, hi: 100.0 })
    }

    fn avg_loss() -> StructuredLoss {
        StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1")
    }

    #[test]
    fn subsets_are_deterministic_uniform_and_sorted() {
        let a = subset_indices(10, 4, 42, 1);
        let b = subset_indices(10, 4, 42, 1);
        assert_eq!(a, b, "same key, same subset");
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        assert!(a.iter().all(|&i| i < 10));

        // Different seeds and different rungs draw different subsets
        // (statistically certain for these sizes).
        assert_ne!(subset_indices(10, 4, 42, 1), subset_indices(10, 4, 43, 1));
        assert_ne!(subset_indices(10, 4, 42, 1), subset_indices(10, 4, 42, 2));

        // Degenerate sizes.
        assert_eq!(subset_indices(5, 5, 7, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(subset_indices(5, 0, 7, 0), Vec::<usize>::new());

        // Every index is reachable (a stuck generator would never select
        // some positions).
        let mut seen = HashSet::new();
        for seed in 0..200u64 {
            seen.extend(subset_indices(8, 2, seed, 0));
        }
        assert_eq!(seen.len(), 8);
    }

    /// Successive halving's rung subsets are keyed by `(seed, rung)`; every
    /// SH digest depends on these exact draws.
    #[test]
    fn subsets_are_pinned() {
        assert_eq!(subset_indices(40, 7, 0x5eed, 0), [1, 8, 12, 21, 28, 30, 37]);
        assert_eq!(subset_indices(12, 5, 3, 2), [2, 3, 7, 8, 11]);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversized_subset_is_rejected() {
        subset_indices(3, 4, 0, 0);
    }

    #[test]
    fn fidelity_subset_len_applies_denominator_and_floor() {
        let f = Fidelity {
            rung: 0,
            scenario_denom: 4,
            min_scenarios: 3,
        };
        assert_eq!(f.subset_len(20), 5); // ceil(20/4)
        assert_eq!(f.subset_len(8), 3); // floor wins over ceil(8/4)=2
        assert_eq!(f.subset_len(2), 2); // clamped to the dataset
        assert!(!f.is_full(20));
        assert!(f.is_full(2));
        assert!(Fidelity::full().is_full(1000));
    }

    #[test]
    fn full_fidelity_subset_loss_is_bit_for_bit_the_full_loss() {
        let dataset = vec![10.0, 20.0, 30.0, 40.0];
        let full = SimulationObjective::new(&Toy, &dataset, avg_loss(), space1());
        let indices: Vec<usize> = (0..dataset.len()).collect();
        let sub =
            SimulationObjective::new(&Toy, &dataset, avg_loss(), space1()).on_subset(&indices);
        assert_eq!(sub.subset_tag(), None, "the identity view is untagged");
        for x in [25.0, 10.0, 35.0] {
            let c = Calibration::new(vec![x]);
            assert_eq!(full.loss(&c).to_bits(), sub.loss(&c).to_bits());
        }
    }

    #[test]
    fn proper_subsets_are_tagged_and_evaluate_only_their_scenarios() {
        let dataset = vec![10.0, 20.0, 30.0, 40.0];
        let sub = SimulationObjective::new(&Toy, &dataset, avg_loss(), space1()).on_subset(&[1, 3]);
        assert_eq!(sub.subset_tag(), Some(subset_tag(&[1, 3], 4)));
        assert_eq!(sub.dataset_len(), 2);
        let picked = vec![20.0, 40.0];
        let direct = SimulationObjective::new(&Toy, &picked, avg_loss(), space1());
        let batch = vec![Calibration::new(vec![10.0]), Calibration::new(vec![35.0])];
        for c in &batch {
            assert_eq!(sub.loss(c).to_bits(), direct.loss(c).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_subset_is_rejected() {
        let dataset = vec![10.0];
        let _ = SimulationObjective::new(&Toy, &dataset, avg_loss(), space1()).on_subset(&[]);
    }

    #[test]
    fn expected_subset_loss_over_all_subsets_is_the_full_loss() {
        // Exhaustive enumeration of every C(n, k) subset: the average of
        // the subset losses equals the full loss for a mean-aggregating
        // loss — the unbiasedness contract cheap rungs rely on.
        let dataset = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let full = SimulationObjective::new(&Toy, &dataset, avg_loss(), space1());
        let c = Calibration::new(vec![27.0]);
        let full_loss = full.loss(&c);
        for k in 1..=dataset.len() {
            let mut total = 0.0;
            let mut count = 0usize;
            for combo in combinations(dataset.len(), k) {
                let sub = SimulationObjective::new(&Toy, &dataset, avg_loss(), space1())
                    .on_subset(&combo);
                total += sub.loss(&c);
                count += 1;
            }
            let expected = total / count as f64;
            assert!(
                (expected - full_loss).abs() < 1e-12,
                "k={k}: E[subset loss]={expected} != full {full_loss}"
            );
        }
    }

    #[test]
    fn subset_tags_distinguish_subsets() {
        let a = subset_tag(&[0, 1, 2], 10);
        assert_eq!(a, subset_tag(&[0, 1, 2], 10));
        assert_ne!(a, subset_tag(&[0, 1, 3], 10));
        assert_ne!(a, subset_tag(&[0, 1, 2], 11));
        assert_ne!(subset_tag(&[0, 1], 10), subset_tag(&[0, 1, 2], 10));
        // On-disk key: `label#sub<tag>` names loss-cache shards.
        assert_eq!(a, 0xefd8_811b_ad41_518f);
    }

    /// All k-combinations of 0..n, in lexicographic order.
    fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        if k == 0 || k > n {
            return out;
        }
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            out.push(combo.clone());
            // Advance: rightmost slot that can still move right.
            let mut i = k;
            while i > 0 && combo[i - 1] == i - 1 + n - k {
                i -= 1;
            }
            if i == 0 {
                return out;
            }
            combo[i - 1] += 1;
            for j in i..k {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }
}
