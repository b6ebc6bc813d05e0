//! Regenerates **Figure 4**: loss value vs. time when calibrating against
//! all 128-node ground-truth data (BO-GP + L1, case study #2).
//!
//! Paper shape to reproduce: fast early convergence, marginal gains late.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin fig4 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::case2::calibrate_version;
use lodcal_bench::print_convergence;
use lodsel::families::mpi::{emulator_config, node_counts};
use mpisim::prelude::*;
use simcal::prelude::*;

fn main() {
    let args = ExpArgs::parse(500);
    let cfg = emulator_config(args.fast);
    let base_nodes = node_counts(args.fast)[0];

    let scenarios = dataset(
        &BenchmarkKind::CALIBRATION_SET,
        &[base_nodes],
        &cfg,
        args.seed,
    );
    eprintln!(
        "calibrating against {} benchmarks at {base_nodes} nodes",
        scenarios.len()
    );

    let loss = MatrixLoss::paper_set()[0].clone(); // L1
    let result = calibrate_version(
        MpiSimulatorVersion::highest_detail(),
        &scenarios,
        loss,
        args.budget,
        args.seed,
        1,
    );

    let table = print_convergence(
        &format!("Figure 4: loss vs. time, {base_nodes}-node ground truth, BO-GP + L1"),
        &result,
    );
    args.maybe_write_tsv(&table);
}
