//! Successive-halving properties: the pinned golden digest of an SH
//! sweep, bit-for-bit equality after a resume from any cut of the
//! recorded ledger, the fewer-evaluations-same-recommendation contract
//! the ablation relies on, and subset-loss unbiasedness on the real
//! workflow objective.

mod common;

use common::{ledger_cuts, tmp_ledger, ToyFamily};
use lodsel::prelude::*;
use proptest::prelude::*;
use simcal::prelude::{Agg, ElementMix, Objective, StructuredLoss};
use wfsim::prelude::{
    dataset_for, objective, AppKind, DatasetOptions, SimulatorVersion, WfScenario,
    WorkflowSimulator,
};

/// 8 runs (4 units × 2 restarts) under a 48-evaluation total: a 4-rung
/// ladder with entrants 8/4/2/1, per-run budgets 1/3/6/12, and a planned
/// spend of 44 evaluations.
fn sh_config() -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::SuccessiveHalving {
            total: 48,
            eta: 2,
            min_scenarios: 1,
        },
        restarts: 2,
        seed: 42,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
    }
}

#[test]
fn sh_schedule_is_the_documented_ladder() {
    let s = ShSchedule::plan(8, 48, 2, 1).unwrap();
    let entrants: Vec<usize> = s.rungs.iter().map(|r| r.survivors).collect();
    let budgets: Vec<usize> = s.rungs.iter().map(|r| r.budget).collect();
    let denoms: Vec<usize> = s.rungs.iter().map(|r| r.scenario_denom).collect();
    assert_eq!(entrants, vec![8, 4, 2, 1]);
    assert_eq!(budgets, vec![1, 3, 6, 12]);
    assert_eq!(denoms, vec![8, 4, 2, 1], "final rung is always full set");
    assert_eq!(s.total_evaluations(), 44);

    // Starved totals fail typed with the exact threshold.
    assert_eq!(
        ShSchedule::plan(8, 31, 2, 1),
        Err(SweepError::BudgetTooSmall {
            total: 31,
            runs: 8,
            needed: 32,
        })
    );
    assert!(ShSchedule::plan(8, 32, 2, 1).is_ok());
}

#[test]
fn sh_digest_is_pinned_bit_for_bit() {
    // Captured when successive halving landed. The SH report extends the
    // digest input, so any drift in subset membership, rung budgets, or
    // promotion order shows up here.
    let outcome = run_sweep(&ToyFamily::new(true), &sh_config(), None);
    let report = outcome.sh.as_ref().expect("SH sweeps carry a report");
    assert_eq!(report.planned_evaluations, 44);
    assert_eq!(report.rungs.len(), 4);
    let entrants: Vec<usize> = report.rungs.iter().map(|r| r.entrants).collect();
    let promoted: Vec<usize> = report.rungs.iter().map(|r| r.promoted).collect();
    assert_eq!(entrants, vec![8, 4, 2, 1]);
    assert_eq!(promoted, vec![4, 2, 1, 1]);
    assert!(report.rungs.iter().all(|r| r.failed == 0));
    assert_eq!(outcome.digest(), "1ead715d560ee4d4");

    // And stable across runs, like every digest.
    let again = run_sweep(&ToyFamily::new(true), &sh_config(), None);
    assert_eq!(again.digest(), outcome.digest());
}

#[test]
fn sh_reaches_the_fixed_budget_recommendation_with_fewer_evaluations() {
    // The ablation's claim in miniature: a fixed shared budget of 96
    // evaluations (12 per run) and an SH ladder capped at half that
    // total agree on the recommendation, with SH spending strictly less.
    let fixed_family = ToyFamily::new(false);
    let fixed_config = SweepConfig {
        budget: BudgetPolicy::TotalEvaluations { total: 96 },
        ..sh_config()
    };
    let fixed = run_sweep(&fixed_family, &fixed_config, None);
    let sh_family = ToyFamily::new(false);
    let sh = run_sweep(&sh_family, &sh_config(), None);

    let fixed_rec = fixed.recommendation.expect("fixed sweep completes");
    let sh_rec = sh.recommendation.expect("SH sweep completes");
    assert_eq!(sh_rec.chosen, fixed_rec.chosen);
    assert_eq!(sh_rec.chosen, "v2");
    assert!(
        sh_family.objective_evaluations() < fixed_family.objective_evaluations(),
        "SH spent {} objective evaluations, fixed spent {}",
        sh_family.objective_evaluations(),
        fixed_family.objective_evaluations()
    );
}

#[test]
fn kill_and_resume_mid_rung_equals_fresh_at_every_prefix() {
    let fresh_family = ToyFamily::new(true);
    let fresh = run_sweep(&fresh_family, &sh_config(), None);

    // One complete recorded execution to cut.
    let recorded = tmp_ledger("halving-recorded");
    {
        let ledger = Ledger::open(&recorded).unwrap();
        run_sweep(&ToyFamily::new(true), &sh_config(), Some(&ledger));
    }

    // Cut the ledger at every record and halfway through each — inside
    // rung records, between a rung's records and its decisions, halfway
    // through a decision set — and resume. Sealed decisions must replay,
    // unsealed rungs must re-rank to the identical field, and the digest
    // must never move.
    for path in ledger_cuts(&recorded, "halving-resume") {
        let resumed_family = ToyFamily::new(true);
        let ledger = Ledger::open(&path).unwrap();
        let resumed = run_sweep(&resumed_family, &sh_config(), Some(&ledger));
        drop(ledger);
        assert_eq!(
            resumed.digest(),
            fresh.digest(),
            "resume from {} diverged",
            path.display()
        );
        assert_eq!(resumed.recommendation, fresh.recommendation);
        assert!(
            resumed_family.calibration_runs() <= fresh_family.calibration_runs(),
            "resume must never exceed a fresh sweep's calibration work"
        );

        // A second resume finds every rung checkpointed and runs nothing.
        let idle_family = ToyFamily::new(true);
        let again = Ledger::open(&path).unwrap();
        let third = run_sweep(&idle_family, &sh_config(), Some(&again));
        assert_eq!(idle_family.calibration_runs(), 0);
        assert_eq!(third.digest(), fresh.digest());
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&recorded);
}

#[test]
fn sh_ledger_records_rungs_and_decisions() {
    let path = tmp_ledger("halving-ledger");
    let ledger = Ledger::open(&path).unwrap();
    run_sweep(&ToyFamily::new(true), &sh_config(), Some(&ledger));
    drop(ledger);

    let status = ledger_status(&Ledger::read(&path).unwrap());
    // 8 + 4 + 2 + 1 rung executions; 8 + 4 + 2 decisions (the final rung
    // decides nothing); promotions are the next rung's entrants.
    assert_eq!(status.rungs_done, 15);
    assert_eq!(status.promotions, 7);
    assert_eq!(status.eliminations, 7);
    assert_eq!(status.runs_done, 0, "SH runs checkpoint as rungs, not runs");
    assert!(status.completed.is_some());
    let _ = std::fs::remove_file(&path);
}

/// A handful of real Montage scenarios: one workflow shape at four
/// worker counts.
fn tiny_wf_scenarios() -> Vec<WfScenario> {
    let opts = DatasetOptions {
        repetitions: 1,
        seed: 3,
        size_indices: vec![0],
        work_indices: vec![1],
        footprint_indices: vec![1],
        worker_counts: vec![1, 2, 4, 6],
        ..Default::default()
    };
    WfScenario::from_records(&dataset_for(AppKind::Montage, &opts))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The unbiasedness contract on the *real* workflow objective, not a
    /// toy: over every C(n, k) scenario subset, the mean of the subset
    /// losses equals the full-set loss for the mean-aggregating L1 the
    /// paper selects — at any calibration in the version's space.
    #[test]
    fn wf_subset_losses_are_unbiased(
        unit in proptest::collection::vec(0.0f64..=1.0, 16),
        high_detail in prop_oneof![Just(true), Just(false)],
        k in 1usize..=4,
    ) {
        let version = if high_detail {
            SimulatorVersion::highest_detail()
        } else {
            SimulatorVersion::lowest_detail()
        };
        let scenarios = tiny_wf_scenarios();
        prop_assert_eq!(scenarios.len(), 4);
        let sim = WorkflowSimulator::new(version);
        let loss = StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1");
        let space = version.parameter_space();
        let calibration = space.denormalize(&unit[..space.dim()]);

        let full = objective(&sim, &scenarios, loss.clone());
        let full_loss = full.loss(&calibration);
        prop_assert!(full_loss.is_finite());

        let mut total = 0.0;
        let mut count = 0usize;
        for combo in combinations(scenarios.len(), k) {
            let sub = objective(&sim, &scenarios, loss.clone()).on_subset(&combo);
            total += sub.loss(&calibration);
            count += 1;
        }
        let expected = total / count as f64;
        let tolerance = 1e-9 * full_loss.abs().max(1.0);
        prop_assert!(
            (expected - full_loss).abs() <= tolerance,
            "k={}: E[subset loss]={} != full {}", k, expected, full_loss
        );
    }
}
