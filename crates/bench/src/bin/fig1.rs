//! Regenerates **Figure 1**: loss value vs. time when computing a
//! calibration using all ground-truth data for the Epigenomics workflow
//! (BO-GP + L1, the pair selected by Table 3).
//!
//! Paper shape to reproduce: rapid improvement early in the budget,
//! marginal improvement afterwards.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin fig1 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::case1::calibrate_version;
use lodcal_bench::print_convergence;
use lodsel::families::wf::dataset_options;
use simcal::prelude::*;
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse(250);
    let opts = dataset_options(args.fast, args.seed);

    let records = dataset_for(AppKind::Epigenomics, &opts);
    let scenarios = WfScenario::from_records(&records);
    eprintln!(
        "calibrating against {} Epigenomics executions",
        scenarios.len()
    );

    let loss = StructuredLoss::paper_set()[0].clone(); // L1
    let result = calibrate_version(
        SimulatorVersion::highest_detail(),
        &scenarios,
        loss,
        args.budget,
        args.seed,
    );

    let table = print_convergence("Figure 1: loss vs. time, Epigenomics, BO-GP + L1", &result);

    // The paper's qualitative claim: most of the improvement happens in
    // the early fraction of the budget.
    if result.trace.len() >= 2 {
        let first = result.trace.first().expect("non-empty trace").best_loss;
        let final_loss = result.loss;
        let halfway_evals = result.evaluations / 2;
        let at_half = result
            .trace
            .iter()
            .take_while(|p| p.evaluations <= halfway_evals)
            .last()
            .map_or(first, |p| p.best_loss);
        let total_gain = first - final_loss;
        if total_gain > 0.0 {
            let early_fraction = (first - at_half) / total_gain;
            println!(
                "improvement achieved in the first half of the budget: {:.0}%",
                early_fraction * 100.0
            );
        }
    }
    args.maybe_write_tsv(&table);
}
