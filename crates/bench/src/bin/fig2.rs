//! Regenerates **Figure 2**: percent relative error between simulated and
//! ground-truth makespans for all 12 calibrated simulator versions, on
//! held-out "large" executions (§5.4 train/test split). With
//! `--uncalibrated`, also reports the §5.4 baseline: the lowest-detail
//! simulator with hardware-spec parameter values.
//!
//! The (version × application × restart) grid is driven by the lodsel
//! sweep subsystem: runs fan onto the thread pool, `--ledger PATH`
//! makes the sweep resumable (an interrupted run picks up from its
//! checkpoints, bit-for-bit), and the accuracy-versus-cost recommendation
//! is reported on stderr alongside the figure's table.
//!
//! Paper shapes to reproduce:
//! - simulating HTCondor is crucial (top half of the figure much worse);
//! - one-link ≈ star; shared+dedicated does worse (extra dimensionality);
//! - storage on all nodes brings only marginal benefit;
//! - the spec-based uncalibrated baseline is orders of magnitude worse.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin fig2 [-- --fast --uncalibrated]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::sweep_figure::{self, SweepFigure};
use lodsel::prelude::*;
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse_sweep(150);
    // One calibration per (version, application) of the paper's §5.4
    // train/test splits, best of 3 restarts by training loss; each
    // application's mean error is one sample, so the table's avg and
    // min/max are the bars and error bars of Figure 2.
    let baseline = SimulatorVersion::lowest_detail();
    sweep_figure::run(
        &WfFamily::paper(args.fast, args.seed),
        &args,
        SweepFigure {
            restarts: 3,
            title: "Figure 2: percent relative makespan error, all 12 calibrated versions".into(),
            version_header: "version (net/storage/compute)",
            params_column: false,
            baseline_heading: "§5.4 uncalibrated baseline (hardware-spec values, no calibration):",
            baseline_label: "spec-based, lowest detail",
            baseline: (baseline, spec_calibration(baseline)),
            note: None,
        },
    );
}
