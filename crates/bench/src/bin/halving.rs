//! **Successive-halving ablation**: does the multi-fidelity ladder reach
//! the fixed-budget sweep's recommendation at a fraction of the
//! evaluations?
//!
//! For each case-study family (workflows and the federated data grid,
//! both on their fast experiment grids), the driver runs:
//!
//! 1. a **fixed** sweep under `TotalEvaluations` — every (unit × restart)
//!    run gets the same per-run budget; and
//! 2. a **successive-halving** sweep whose total budget is *half* the
//!    fixed sweep's, laddered over `log_eta(runs) + 1` rungs of shrinking
//!    fields and scenario subsets (eta = 4, so every rung can still
//!    afford a non-degenerate per-run budget).
//!
//! Both sweeps are deterministic, so the table below is reproducible
//! bit-for-bit. The driver exits non-zero if any family's SH sweep fails
//! to reproduce the fixed recommendation — the regression the
//! `results/halving.txt` artifact pins.
//!
//! Unlike the paper-replication binaries this driver defaults to seed 42
//! — the sweep subsystem's canonical seed (the `lodsel` CLI default and
//! the golden-test seed) — so the artifact lines up with every other SH
//! fixture. `--seed` still overrides it; agreement is a property of the
//! error landscape, not something SH can guarantee on every seed (a seed
//! whose fixed sweep leaves exactly one version inside the ε band has no
//! slack for cheap-rung noise).
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin halving [-- --seed S]
//! ```

use lodcal_bench::args::ExpArgs;
use lodsel::prelude::*;
use simcal::prelude::Budget;

fn sweep_with(args: &ExpArgs, family: &dyn VersionFamily, budget: BudgetPolicy) -> SweepOutcome {
    let config = SweepConfig {
        budget,
        ..SweepConfig::per_run(args.budget, 2, args.seed)
    };
    try_run_sweep(family, &config, None)
        .unwrap_or_else(|e| args.fail(format_args!("cannot run sweep: {e}")))
}

fn main() {
    let mut args = ExpArgs::parse(12);
    if !std::env::args().any(|a| a == "--seed") {
        args.seed = 42;
    }
    let per_run = match args.budget {
        Budget::Evaluations(n) => n,
        _ => args.fail("halving compares evaluation budgets; use --budget-evals"),
    };

    let families = ["wf", "grid"]
        .map(|name| lodsel::families::paper(name, true, args.seed).expect("a paper family"));

    println!(
        "successive halving vs fixed budget (fast grids, {per_run} evals/run fixed, \
         SH total = 50%, eta 4, seed {})\n",
        args.seed
    );
    let mut table = Table::new(&[
        "family",
        "runs",
        "fixed evals",
        "sh evals",
        "fraction",
        "rungs",
        "fixed choice",
        "sh choice",
        "agree",
    ]);
    let mut all_agree = true;

    for family in &families {
        let family = family.as_ref();
        let runs = family.units().len() * 2;
        let fixed_total = runs * per_run;
        let sh_total = fixed_total / 2;

        let fixed = sweep_with(
            &args,
            family,
            BudgetPolicy::TotalEvaluations { total: fixed_total },
        );
        let sh = sweep_with(
            &args,
            family,
            BudgetPolicy::SuccessiveHalving {
                total: sh_total,
                eta: 4,
                min_scenarios: 1,
            },
        );

        let fixed_rec = fixed.recommendation.expect("fixed sweep completes");
        let sh_rec = sh.recommendation.expect("SH sweep completes");
        let report = sh.sh.expect("SH sweeps carry a report");
        let sh_evals = report.planned_evaluations;
        let agree = sh_rec.chosen == fixed_rec.chosen;
        all_agree &= agree;

        table.row(vec![
            family.name().to_string(),
            runs.to_string(),
            fixed_total.to_string(),
            sh_evals.to_string(),
            format!("{:.2}", sh_evals as f64 / fixed_total as f64),
            report.rungs.len().to_string(),
            fixed_rec.chosen.clone(),
            sh_rec.chosen.clone(),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
        obs::diag!(
            "{}: fixed {} evals -> {}, SH {} evals -> {}",
            family.name(),
            fixed_total,
            fixed_rec.chosen,
            sh_evals,
            sh_rec.chosen
        );
    }

    println!("{}", table.render());
    println!(
        "(fixed = one shared budget split evenly over all runs; sh = successive halving \
         under half that total, promoting the top 1/4 per rung and widening the scenario \
         subset until the final rung runs the full set. \"agree\" = identical \
         epsilon-recommendation.)"
    );
    args.maybe_write_tsv(&table);

    if !all_agree {
        obs::diag!("successive halving diverged from the fixed-budget recommendation");
        std::process::exit(1);
    }
}
