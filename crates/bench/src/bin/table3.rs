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
    let patterns: [(f64, f64); 1] = [(0.35, 0.65)];
    let mut refs: Vec<(Calibration, Vec<WfScenario>)> = Vec::new();
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
    for &(even, odd) in &patterns {
        let reference_unit: Vec<f64> = (0..space.dim())
            .map(|i| if i % 2 == 0 { even } else { odd })
            .collect();
        let reference = space.denormalize(&reference_unit);
        let mut scenarios: Vec<WfScenario> = Vec::new();
        for record in wfsim::prelude::dataset(&apps, &opts) {
            let workflow = generate(&record.spec);
            let out = sim.simulate(&workflow, record.n_workers, &reference);
            scenarios.push(WfScenario {
                workflow,
                n_workers: record.n_workers,
                gt_makespan: out.makespan,
                gt_task_times: out.task_times,
            });
        }
        refs.push((reference, scenarios));
    }
    eprintln!(
        "synthetic ground truth: {} references x {} scenarios, {}-parameter space",
        refs.len(),
        refs[0].1.len(),
        space.dim()
    );

    let algorithms = [AlgorithmKind::Random, AlgorithmKind::BoGp];
    let losses = StructuredLoss::paper_set();

    let mut header = vec!["Alg".to_string()];
    header.extend(losses.iter().map(|l| l.name().to_string()));
    let mut table = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    let mut best: Option<(f64, String, String)> = None;
    for alg in algorithms {
        let mut cells = vec![alg.name().to_string()];
        for loss in &losses {
            let mut errs = Vec::new();
            for (reference, scenarios) in &refs {
                let obj = objective(&sim, scenarios, loss.clone());
                let result = Calibrator {
                    algorithm: alg,
                    budget: args.budget,
                    seed: args.seed,
                }
                .calibrate(&obj);
                errs.push(calibration_error(&space, &result.calibration, reference));
            }
            let err = numeric::mean(&errs);
            if best.as_ref().is_none_or(|(b, _, _)| err < *b) {
                best = Some((err, alg.name().to_string(), loss.name().to_string()));
            }
            cells.push(fnum(err));
            eprintln!(
                "  {} / {}: calibration error {:.2}",
                alg.name(),
                loss.name(),
                err
            );
        }
        table.row(cells);
    }

    println!("Table 3: calibration error vs. algorithm and loss function (lower is better)\n");
    println!("{}", table.render());
    let (err, alg, loss) = best.expect("at least one cell");
    println!(
        "best pair: {alg} with {loss} (calibration error {})",
        fnum(err)
    );
    args.maybe_write_tsv(&table);
}
