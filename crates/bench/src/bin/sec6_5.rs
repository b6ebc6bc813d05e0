//! Regenerates the **§6.5 generalization results** for case study #2,
//! using the highest-detail simulator:
//!
//! 1. **Across benchmark types**: simulate the Stencil benchmark with a
//!    calibration computed from PingPing/PingPong/BiRandom, vs. one
//!    computed from Stencil's own ground truth (paper: 58.8% vs 28.6%).
//! 2. **Across scales**: simulate 256- and 512-node executions with a
//!    calibration computed from 128-node executions (paper, BiRandom:
//!    15.2% -> 30.8% -> 59.4%). The hidden testbed's scale-dependent
//!    congestion makes this a negative result for the simulator — and a
//!    positive one for the methodology, which is exactly what surfaces it.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin sec6_5 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::case2::calibrate_version;
use lodsel::families::mpi::{emulator_config, node_counts};
use lodsel::families::{evaluate_on, mpi::MpiCase};
use lodsel::report::{pct, Table};
use mpisim::prelude::*;
use simcal::prelude::*;

fn main() {
    let args = ExpArgs::parse(500);
    let cfg = emulator_config(args.fast);
    let scales = node_counts(args.fast);
    let base = scales[0];
    let version = MpiSimulatorVersion::highest_detail();
    let loss = MatrixLoss::paper_set()[0].clone();

    // --- Part 1: generalization across benchmark types -----------------
    let train_p2p = dataset(&BenchmarkKind::CALIBRATION_SET, &[base], &cfg, args.seed);
    let stencil = dataset(&[BenchmarkKind::Stencil], &[base], &cfg, args.seed);

    let from_p2p = calibrate_version(version, &train_p2p, loss.clone(), args.budget, args.seed, 5);
    let from_stencil =
        calibrate_version(version, &stencil, loss.clone(), args.budget, args.seed, 5);

    // Mean held-out rate error of a calibration on a scenario set.
    let rate_error = |result: &CalibrationResult, scenarios: &[MpiScenario]| {
        numeric::mean(&evaluate_on(&MpiCase, &version, scenarios, &result.calibration).samples)
    };
    let err_cross = rate_error(&from_p2p, &stencil);
    let err_self = rate_error(&from_stencil, &stencil);

    println!("§6.5 part 1: Stencil at {base} nodes, by calibration source\n");
    let mut t1 = Table::new(&["calibration source", "Stencil avg err %"]);
    t1.row(vec!["PingPing+PingPong+BiRandom".into(), pct(err_cross)]);
    t1.row(vec!["Stencil itself".into(), pct(err_self)]);
    println!("{}", t1.render());
    println!(
        "cross-benchmark calibration is {:.1}x worse than self-calibration\n",
        err_cross / err_self.max(1e-12)
    );

    // --- Part 2: generalization across scales ---------------------------
    println!("§6.5 part 2: per-benchmark error at larger scales, calibrated at {base} nodes\n");
    let mut t2header = vec!["benchmark".to_string()];
    t2header.extend(scales.iter().map(|n| format!("{n} nodes err %")));
    let mut t2 = Table::new(&t2header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    for benchmark in BenchmarkKind::CALIBRATION_SET {
        let mut cells = vec![benchmark.name().to_string()];
        for &n in &scales {
            let test = dataset(&[benchmark], &[n], &cfg, args.seed);
            let err = rate_error(&from_p2p, &test);
            cells.push(pct(err));
            eprintln!("{} @ {n} nodes: {:.1}%", benchmark.name(), err * 100.0);
        }
        t2.row(cells);
    }
    println!("{}", t2.render());
    println!(
        "(errors grow with scale: the calibrated simulator does not generalize beyond \
         its ground truth — the paper's negative result for this simulator)"
    );
    args.maybe_write_tsv(&t2);
}
