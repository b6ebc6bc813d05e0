//! Case study #3 — batch scheduling — the domain the paper's conclusion
//! names as future work ("batch-scheduling using Alea or Batsim and data
//! from the Parallel Workload Archive"). The experiment mirrors Figure 2:
//! calibrate all 4 level-of-detail versions under the same budget, report
//! held-out turnaround error per version plus the uncalibrated baseline,
//! and check whether the other case studies' conclusion ("model the
//! middleware's batching behaviour") generalizes to this domain.
//!
//! The (version × restart) grid is driven by the lodsel sweep subsystem:
//! runs fan onto the thread pool, `--ledger PATH` makes the sweep
//! resumable (bit-for-bit), and the accuracy-versus-cost recommendation
//! is reported on stderr alongside the table.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin case3 [-- --fast]
//! ```

use batchsim::prelude::*;
use lodcal_bench::args::ExpArgs;
use lodcal_bench::sweep_figure::{self, SweepFigure};
use lodsel::prelude::*;

fn main() {
    let args = ExpArgs::parse_sweep(150);
    // Best of three restarts by training loss, as in Figures 2/5. The
    // per-trace metric is the mean relative per-job *turnaround* error.
    // Spec-style baseline: nominal node speed 1.0, no overheads.
    let baseline = BatchVersion::lowest_detail();
    let nominal = baseline
        .parameter_space()
        .calibration_from_pairs(&[("node_speed", 1.0)]);
    sweep_figure::run(
        &BatchFamily::paper(args.fast, args.seed),
        &args,
        SweepFigure {
            restarts: 3,
            title: "Case study #3 (future work): batch scheduling, 4 calibrated versions".into(),
            version_header: "version (overhead/runtime)",
            params_column: true,
            baseline_heading: "uncalibrated baseline:",
            baseline_label: "nominal values, lowest detail",
            baseline: (baseline, nominal),
            note: Some(
                "(shape check: the cycle/* versions — which model the RJMS's periodic\n\
                 scheduling behaviour — should beat the instant/* versions, mirroring the\n\
                 'simulating HTCondor is crucial' finding of case study #1)",
            ),
        },
    );
}
