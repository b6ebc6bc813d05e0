//! Regenerates **Figure 5**: percent relative error between simulated and
//! ground-truth transfer rates for all 16 calibrated MPI simulator
//! versions. As in the paper (§6.4), training and testing both use the
//! 128-node PingPing/PingPong/BiRandom ground truth (deliberate
//! overfitting; generalization is studied by `sec6_5`). With
//! `--uncalibrated`, also reports the §6.4 spec-based baseline.
//!
//! The (version × restart) grid is driven by the lodsel sweep subsystem:
//! runs fan onto the thread pool, `--ledger PATH` makes the sweep
//! resumable (bit-for-bit), and the accuracy-versus-cost recommendation
//! is reported on stderr alongside the figure's table.
//!
//! Paper shapes to reproduce:
//! - all versions land in a similar error band (average 13-24%);
//! - complex nodes slightly better in most cases;
//! - fixed change points give lower variance than arbitrary ones;
//! - backbone+links strikes the best accuracy/dimensionality compromise,
//!   while 4-ary tree / fat-tree topologies do worse;
//! - the spec-based baseline is ~91-97% error.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin fig5 [-- --fast --uncalibrated]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::sweep_figure::{self, SweepFigure};
use lodsel::families::mpi::node_counts;
use lodsel::prelude::*;
use mpisim::prelude::*;

fn main() {
    let args = ExpArgs::parse_sweep(500);
    let base_nodes = node_counts(args.fast)[0];
    // Best of 5 restarts per version by training loss, as in the paper;
    // the per-benchmark errors give the bars (avg) and error bars
    // (min/max).
    let baseline = MpiSimulatorVersion::lowest_detail();
    sweep_figure::run(
        &MpiFamily::paper(args.fast, args.seed),
        &args,
        SweepFigure {
            restarts: 5,
            title: format!(
                "Figure 5: percent relative transfer-rate error, all 16 calibrated versions \
                 ({base_nodes}-node ground truth)"
            ),
            version_header: "version (topology/node/protocol)",
            params_column: false,
            baseline_heading: "§6.4 uncalibrated baseline (Summit spec values, no calibration):",
            baseline_label: "spec-based, lowest detail",
            baseline: (baseline, spec_calibration(baseline)),
            note: None,
        },
    );
}
