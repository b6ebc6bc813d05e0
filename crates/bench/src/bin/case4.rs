//! Case study #4 — a federated data grid, the workload class (data
//! locality, caching, wide-area transfers) none of the first three
//! families exercises. The experiment mirrors Figure 2: calibrate all 8
//! level-of-detail versions under the same budget, report held-out
//! turnaround error per version plus the uncalibrated baseline, and ask
//! which of the three middleware behaviours (per-file transfers, the
//! explicit cache, the serial broker) must be modelled.
//!
//! The (version × restart) grid is driven by the lodsel sweep subsystem:
//! runs fan onto the thread pool, `--ledger PATH` makes the sweep
//! resumable (bit-for-bit), and the accuracy-versus-cost recommendation
//! is reported on stderr alongside the table.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin case4 [-- --fast]
//! ```

use gridsim::prelude::*;
use lodcal_bench::args::ExpArgs;
use lodcal_bench::sweep_figure::{self, SweepFigure};
use lodsel::prelude::*;

fn main() {
    let args = ExpArgs::parse_sweep(150);
    // Best of three restarts by training loss, as in Figures 2/5. The
    // per-workload metric is the mean relative per-job *turnaround*
    // error on the held-out workloads. Spec-style baseline: nominal
    // platform values, lowest detail.
    let baseline = GridVersion::lowest_detail();
    let nominal = baseline.parameter_space().calibration_from_pairs(&[
        ("core_speed", 1.0),
        ("wan_bandwidth", 10.0),
        ("wan_latency", 0.1),
        ("disk_bandwidth", 100.0),
        ("hit_ratio", 0.5),
    ]);
    sweep_figure::run(
        &GridFamily::paper(args.fast, args.seed),
        &args,
        SweepFigure {
            restarts: 3,
            title: "Case study #4: federated data grid, 8 calibrated versions".into(),
            version_header: "version (transfer/cache/broker)",
            params_column: true,
            baseline_heading: "uncalibrated baseline:",
            baseline_label: "nominal values, lowest detail",
            baseline: (baseline, nominal),
            note: Some(
                "(shape check: the hidden grid stages per-file WAN flows through LRU\n\
                 caches behind a serial broker, so the perfile/lru/* versions should\n\
                 beat flow/hitratio/* — the data-grid echo of the other case studies'\n\
                 'model the middleware' conclusion)",
            ),
        },
    );
}
