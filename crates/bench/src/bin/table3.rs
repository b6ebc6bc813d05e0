//! Regenerates **Table 3**: calibration error vs. algorithm and loss
//! function for case study #1, using the synthetic-benchmarking technique
//! of §3 — ground truth is generated *by the simulator itself* at a known
//! reference calibration θ*, so the relative L1 distance of each computed
//! calibration to θ* (x100) is a sound quality measure.
//!
//! Paper shape to reproduce: BO-GP with L1 achieves the lowest
//! calibration error overall, and BO-GP generally beats RAND.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin table3 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodsel::report::{fnum, Table};
use simcal::prelude::*;
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse(300);
    let version = SimulatorVersion::highest_detail();
    let space = version.parameter_space();
    let sim = WorkflowSimulator::new(version);

    // One arbitrary-but-interior reference calibration, as in the paper
    // (one synthetic-benchmarking pass). Interior values keep every
    // simulated component exercised and identifiable.
    let reference_unit: Vec<f64> = (0..space.dim())
        .map(|i| if i % 2 == 0 { 0.35 } else { 0.65 })
        .collect();
    let reference = space.denormalize(&reference_unit);
    let opts = DatasetOptions {
        repetitions: 1,
        seed: args.seed,
        size_indices: vec![0, 1],
        work_indices: vec![1, 3],
        footprint_indices: vec![1, 2],
        worker_counts: vec![1, 4],
        ..Default::default()
    };
    let apps = if args.fast {
        vec![AppKind::Forkjoin]
    } else {
        vec![AppKind::Genome1000]
    };
    let scenarios = WfScenario::synthetic(&sim, &dataset(&apps, &opts), &reference);
    eprintln!(
        "synthetic ground truth: {} scenarios, {}-parameter space",
        scenarios.len(),
        space.dim()
    );

    let calibrators: Vec<(String, Calibrator)> = [AlgorithmKind::Random, AlgorithmKind::BoGp]
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
    let losses = StructuredLoss::paper_set();
    let objectives: Vec<_> = losses
        .iter()
        .map(|loss| {
            (
                loss.name().to_string(),
                objective(&sim, &scenarios, loss.clone()),
            )
        })
        .collect();
    let cells = synthetic_benchmark(&calibrators, &objectives, &reference);

    let mut header = vec!["Alg".to_string()];
    header.extend(losses.iter().map(|l| l.name().to_string()));
    let mut table = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for row in cells.chunks(losses.len()) {
        let mut line = vec![row[0].algorithm.clone()];
        for cell in row {
            line.push(fnum(cell.calibration_error));
            eprintln!(
                "  {} / {}: calibration error {:.2}",
                cell.algorithm, cell.loss_name, cell.calibration_error
            );
        }
        table.row(line);
    }

    println!("Table 3: calibration error vs. algorithm and loss function (lower is better)\n");
    println!("{}", table.render());
    let best = best_pair(&cells).expect("at least one cell");
    println!(
        "best pair: {} with {} (calibration error {})",
        best.algorithm,
        best.loss_name,
        fnum(best.calibration_error)
    );
    args.maybe_write_tsv(&table);
}
