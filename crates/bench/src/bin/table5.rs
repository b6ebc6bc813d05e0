//! Regenerates **Table 5**: calibration error *and* average relative
//! transfer-rate error vs. algorithm and loss function for case study #2,
//! via synthetic benchmarking (§6.3.2).
//!
//! The second metric exists because bandwidths and multiplicative protocol
//! factors are confounded (B with factor α simulates exactly like αB with
//! factor 1), so the parameter-space distance alone can be misleading.
//!
//! Paper shape to reproduce: BO-GP + L1 is the best combination on both
//! metrics.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin table5 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodsel::families::mpi::node_counts;
use lodsel::multistart::{best_result, restart_seed};
use lodsel::report::{fnum, Table};
use mpisim::prelude::*;
use simcal::prelude::*;

fn main() {
    let args = ExpArgs::parse(400);
    let version = MpiSimulatorVersion::highest_detail();
    let space = version.parameter_space();
    let sim = MpiSimulator::new(version);
    let n_nodes = node_counts(args.fast)[0];

    // Three independent synthetic references are averaged per cell:
    // a single arbitrary reference makes the loss ranking a coin flip,
    // and the paper's comparison is about the *method*, not one draw.
    let n_refs = 3u64;
    let sizes = message_sizes();
    let mut refs: Vec<(simcal::prelude::Calibration, Vec<MpiScenario>)> = Vec::new();
    for r in 0..n_refs {
        let mut rng = numeric::rng_from_seed(args.seed.wrapping_add(r) ^ 0x7AB1E5);
        let reference = space.denormalize(&space.sample_unit(&mut rng));
        let scenarios: Vec<MpiScenario> = BenchmarkKind::CALIBRATION_SET
            .iter()
            .map(|&benchmark| {
                let rates = sim.transfer_rates(benchmark, n_nodes, &sizes, &reference);
                MpiScenario {
                    benchmark,
                    n_nodes,
                    sizes: sizes.clone(),
                    samples: rates.iter().map(|&r| vec![r * 0.98, r * 1.02]).collect(),
                }
            })
            .collect();
        refs.push((reference, scenarios));
    }
    eprintln!(
        "synthetic ground truth: {} references x {} benchmarks at {n_nodes} nodes",
        n_refs,
        BenchmarkKind::CALIBRATION_SET.len()
    );

    let algorithms = [AlgorithmKind::Random, AlgorithmKind::BoGp];
    let losses = MatrixLoss::paper_set();

    let mut header = vec!["Metric".to_string()];
    header.extend(losses.iter().map(|l| l.name().to_string()));
    let mut table = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    // (algorithm, loss, mean relative rate error) of every cell.
    let mut by_rate: Vec<(&str, &str, f64)> = Vec::new();
    for alg in algorithms {
        let mut err_cells = vec![format!("{} calib. error", alg.name())];
        let mut rate_cells = vec![format!("{} rel. rate error", alg.name())];
        for loss in &losses {
            let mut cal_errs = Vec::new();
            let mut rate_errs = Vec::new();
            for (reference, scenarios) in &refs {
                let obj = objective(&sim, scenarios, loss.clone());
                // Best of three restarts by training loss, applied
                // uniformly to every (algorithm, loss) cell.
                let result = best_result((0..3).map(|r| {
                    Calibrator {
                        algorithm: alg,
                        budget: args.budget,
                        seed: restart_seed(args.seed, r),
                    }
                    .calibrate(&obj)
                }))
                .expect("non-empty restarts");
                cal_errs.push(calibration_error(&space, &result.calibration, reference));
                rate_errs.push(numeric::mean(
                    &scenarios
                        .iter()
                        .map(|s| mean_relative_rate_error(s, &sim.run(s, &result.calibration)))
                        .collect::<Vec<_>>(),
                ));
            }
            let cal_err = numeric::mean(&cal_errs);
            let rate_err = numeric::mean(&rate_errs);
            by_rate.push((alg.name(), loss.name(), rate_err));
            err_cells.push(fnum(cal_err));
            rate_cells.push(format!("{rate_err:.3}"));
            eprintln!(
                "  {} / {}: calib err {:.2}, rate err {:.3}",
                alg.name(),
                loss.name(),
                cal_err,
                rate_err
            );
        }
        table.row(err_cells);
        table.row(rate_cells);
    }

    println!("Table 5: calibration error and relative transfer-rate error vs. loss function\n");
    println!("{}", table.render());
    let (alg, loss, err) =
        simcal::synthetic::lowest_finite(&by_rate, |c| c.2).expect("at least one cell");
    println!("best pair by rate error: {alg} with {loss} ({err:.3})");
    args.maybe_write_tsv(&table);
}
