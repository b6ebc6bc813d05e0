//! Case study #2 in miniature: calibrate an SMPI-style simulator against
//! IMB point-to-point benchmark measurements at one scale, then check how
//! the calibration generalizes to a larger scale (the paper's §6.5).
//!
//! ```text
//! cargo run --release --example mpi_calibration
//! ```

use lodcal::mpisim::prelude::*;
use lodcal::simcal::prelude::*;

fn main() {
    // Emulated "Summit" ground truth: noisy transfer-rate samples for
    // PingPing/PingPong/BiRandom at 32 nodes.
    let cfg = MpiEmulatorConfig {
        repetitions: 3,
        ..Default::default()
    };
    let train = dataset(&BenchmarkKind::CALIBRATION_SET, &[32], &cfg, 99);

    let version = MpiSimulatorVersion {
        topology: TopologyModel::BackboneLinks,
        node: NodeModel::Simple,
        protocol: ProtocolModel::FixedChangepoints,
    };
    let simulator = MpiSimulator::new(version);
    let obj = objective(
        &simulator,
        &train,
        MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"),
    );
    let result = Calibrator::bo_gp(Budget::Evaluations(150), 5).calibrate(&obj);
    println!(
        "calibrated {} — training loss {:.3}",
        version.label(),
        result.loss
    );

    // In-sample accuracy (the metric of the paper's Figure 5).
    for s in &train {
        let err = mean_relative_rate_error(s, &simulator.run(s, &result.calibration));
        println!(
            "  {:<9} @ {:>3} nodes: {:.1}% transfer-rate error",
            s.benchmark.name(),
            s.n_nodes,
            err * 100.0
        );
    }

    // Generalization to a larger scale (the paper's §6.5 negative result:
    // the hidden platform has scale-dependent behaviour the simulator
    // cannot express, so the error grows).
    for nodes in [64usize, 128] {
        let test = dataset(&BenchmarkKind::CALIBRATION_SET, &[nodes], &cfg, 99);
        let errs: Vec<f64> = test
            .iter()
            .map(|s| mean_relative_rate_error(s, &simulator.run(s, &result.calibration)))
            .collect();
        println!(
            "generalization to {nodes} nodes: avg {:.1}% error",
            lodcal::numeric::mean(&errs) * 100.0
        );
    }
}
