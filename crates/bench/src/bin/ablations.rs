//! Ablations called out in DESIGN.md, reproducing two paper statements
//! that Tables 3/5 do not show directly (§4):
//!
//! 1. "We omit results for the GRID and GRAD algorithms because they
//!    performed poorly in preliminary experiments" — the preliminary
//!    comparison, rerun here: GRID / GRAD / RAND / BO-GP under one budget.
//! 2. "All versions of the BO algorithms perform almost identically, and
//!    we only present results for the BO-GP algorithm" — BO-GP / BO-RF /
//!    BO-ET / BO-GBRT under one budget.
//! 3. BO proposal batch size (parallel batches vs nearly sequential
//!    proposals) — an implementation choice of our framework.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin ablations [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodsel::report::{fnum, Table};
use simcal::algorithms::BayesianOpt;
use simcal::budget::Evaluator;
use simcal::prelude::*;
use wfsim::prelude::*;

/// The synthetic case-1 benchmark: the highest-detail simulator, its own
/// output at a known reference as ground truth, and the reference.
fn synthetic_scenarios(fast: bool, seed: u64) -> (WorkflowSimulator, Vec<WfScenario>, Calibration) {
    let version = SimulatorVersion::highest_detail();
    let space = version.parameter_space();
    let sim = WorkflowSimulator::new(version);
    let reference_unit: Vec<f64> = (0..space.dim())
        .map(|i| if i % 2 == 0 { 0.35 } else { 0.65 })
        .collect();
    let reference = space.denormalize(&reference_unit);
    let opts = DatasetOptions {
        repetitions: 1,
        seed,
        size_indices: vec![0],
        work_indices: vec![1, 3],
        footprint_indices: vec![1, 2],
        worker_counts: vec![if fast { 2 } else { 4 }],
        ..Default::default()
    };
    let scenarios = WfScenario::synthetic(&sim, &dataset(&[AppKind::Forkjoin], &opts), &reference);
    (sim, scenarios, reference)
}

/// Final loss and calibration error of each cell, one row per algorithm.
fn cell_table(first_column: &str, cells: &[SyntheticCell]) -> Table {
    let mut table = Table::new(&[first_column, "final loss", "calibration error"]);
    for cell in cells {
        table.row(vec![
            cell.algorithm.clone(),
            format!("{:.4}", cell.result.loss),
            fnum(cell.calibration_error),
        ]);
    }
    table
}

fn main() {
    let args = ExpArgs::parse(200);
    let (sim, scenarios, reference) = synthetic_scenarios(args.fast, args.seed);
    let loss = StructuredLoss::paper_set()[0].clone();
    let objectives = [(loss.name().to_string(), objective(&sim, &scenarios, loss))];

    // --- Ablations 1 and 2: the whole menu on one objective -------------
    let calibrators: Vec<(String, Calibrator)> = AlgorithmKind::ALL
        .into_iter()
        .map(|algorithm| {
            let calibrator = Calibrator {
                algorithm,
                budget: args.budget,
                seed: args.seed,
            };
            (algorithm.name().to_string(), calibrator)
        })
        .collect();
    let cells = synthetic_benchmark(&calibrators, &objectives, &reference);
    for cell in &cells {
        eprintln!("{}: loss {:.4}", cell.algorithm, cell.result.loss);
    }
    // `AlgorithmKind::ALL` lists GRID, RAND and GRAD, then the four BO
    // surrogates from BO-GP: ablation 1 is the first four cells (the three
    // other BO rows are left to ablation 2), ablation 2 the last four.
    println!("Ablation 1: all search algorithms under one budget (case-1 synthetic)\n");
    println!("{}", cell_table("algorithm", &cells[..4]).render());
    println!("Ablation 2: BO surrogate regressors (paper: near-identical)\n");
    println!("{}", cell_table("surrogate", &cells[3..]).render());

    // --- Ablation 3: BO proposal batch size -----------------------------
    println!("Ablation 3: BO-GP proposal batch size\n");
    let mut t3 = Table::new(&["batch size", "final loss"]);
    for batch in [1usize, 4, 8, 16] {
        let evaluator = Evaluator::new(&objectives[0].1, args.budget);
        let bo = BayesianOpt {
            batch_size: batch,
            ..BayesianOpt::new(SurrogateKind::GaussianProcess)
        };
        bo.search(&evaluator, args.seed);
        let (best, _, _) = evaluator.best().expect("budget admits evaluations");
        t3.row(vec![batch.to_string(), format!("{best:.4}")]);
        eprintln!("batch {batch}: loss {best:.4}");
    }
    println!("{}", t3.render());
    args.maybe_write_tsv(&t3);
}
