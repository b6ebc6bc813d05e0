//! Ablations called out in DESIGN.md, reproducing two paper statements
//! that Tables 3/5 do not show directly (§4):
//!
//! 1. "We omit results for the GRID and GRAD algorithms because they
//!    performed poorly in preliminary experiments" — the preliminary
//!    comparison, rerun here: GRID / GRAD / RAND / BO-GP under one budget.
//! 2. "All versions of the BO algorithms perform almost identically, and
//!    we only present results for the BO-GP algorithm" — BO-GP / BO-RF /
//!    BO-ET / BO-GBRT under one budget.
//! 3. BO proposal batch size (parallel constant-liar batches vs nearly
//!    sequential proposals) — an implementation choice of our framework.
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

/// Build the synthetic case-1 objective (highest-detail simulator, its own
/// output at a known reference as ground truth) plus the reference.
fn synthetic_objective(fast: bool, seed: u64) -> (WorkflowSimulator, Vec<WfScenario>, Calibration) {
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
    let mut scenarios = Vec::new();
    for record in dataset(&[AppKind::Forkjoin], &opts) {
        let workflow = generate(&record.spec);
        let out = sim.simulate(&workflow, record.n_workers, &reference);
        scenarios.push(WfScenario {
            workflow,
            n_workers: record.n_workers,
            gt_makespan: out.makespan,
            gt_task_times: out.task_times,
        });
    }
    (sim, scenarios, reference)
}

fn main() {
    let args = ExpArgs::parse(200);
    let (sim, scenarios, reference) = synthetic_objective(args.fast, args.seed);
    let space = sim.version.parameter_space();
    let loss = StructuredLoss::paper_set()[0].clone();
    let obj = objective(&sim, &scenarios, loss);

    // --- Ablation 1: the full algorithm menu ----------------------------
    println!("Ablation 1: all search algorithms under one budget (case-1 synthetic)\n");
    let mut t1 = Table::new(&["algorithm", "final loss", "calibration error"]);
    for kind in AlgorithmKind::ALL {
        // Skip the three redundant BO rows here; ablation 2 covers them.
        if matches!(
            kind,
            AlgorithmKind::BoRf | AlgorithmKind::BoEt | AlgorithmKind::BoGbrt
        ) {
            continue;
        }
        let r = Calibrator {
            algorithm: kind,
            budget: args.budget,
            seed: args.seed,
        }
        .calibrate(&obj);
        t1.row(vec![
            kind.name().to_string(),
            format!("{:.4}", r.loss),
            fnum(calibration_error(&space, &r.calibration, &reference)),
        ]);
        eprintln!("{}: loss {:.4}", kind.name(), r.loss);
    }
    println!("{}", t1.render());

    // --- Ablation 2: BO surrogates --------------------------------------
    println!("Ablation 2: BO surrogate regressors (paper: near-identical)\n");
    let mut t2 = Table::new(&["surrogate", "final loss", "calibration error"]);
    for kind in [
        AlgorithmKind::BoGp,
        AlgorithmKind::BoRf,
        AlgorithmKind::BoEt,
        AlgorithmKind::BoGbrt,
    ] {
        let r = Calibrator {
            algorithm: kind,
            budget: args.budget,
            seed: args.seed,
        }
        .calibrate(&obj);
        t2.row(vec![
            kind.name().to_string(),
            format!("{:.4}", r.loss),
            fnum(calibration_error(&space, &r.calibration, &reference)),
        ]);
        eprintln!("{}: loss {:.4}", kind.name(), r.loss);
    }
    println!("{}", t2.render());

    // --- Ablation 3: BO proposal batch size -----------------------------
    println!("Ablation 3: BO-GP proposal batch size\n");
    let mut t3 = Table::new(&["batch size", "final loss"]);
    for batch in [1usize, 4, 8, 16] {
        let evaluator = Evaluator::new(&obj, args.budget);
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
