//! End-to-end integration tests for case study #2: Summit-style
//! ground-truth emulation -> calibration -> accuracy and generalization,
//! spanning `mpisim`, `simcal`, and `numeric`.

use lodcal::mpisim::prelude::*;
use lodcal::simcal::prelude::*;

fn cfg() -> MpiEmulatorConfig {
    MpiEmulatorConfig {
        repetitions: 3,
        ..Default::default()
    }
}

#[test]
fn calibration_beats_spec_baseline_on_rate_error() {
    let train = dataset(&BenchmarkKind::CALIBRATION_SET, &[16], &cfg(), 1);
    let version = MpiSimulatorVersion::lowest_detail();
    let sim = MpiSimulator::new(version);
    let obj = objective(&sim, &train, MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"));
    let result = Calibrator::bo_gp(Budget::Evaluations(200), 4).calibrate(&obj);

    let calibrated: Vec<f64> = train
        .iter()
        .map(|s| mean_relative_rate_error(s, &sim.run(s, &result.calibration)))
        .collect();
    let spec = spec_calibration(version);
    let baseline: Vec<f64> = train
        .iter()
        .map(|s| mean_relative_rate_error(s, &sim.run(s, &spec)))
        .collect();
    assert!(
        numeric::mean(&calibrated) < numeric::mean(&baseline) * 0.5,
        "calibrated {:.3} vs spec {:.3}",
        numeric::mean(&calibrated),
        numeric::mean(&baseline)
    );
}

#[test]
fn scale_generalization_error_grows() {
    // The §6.5 shape: a calibration computed at the base scale degrades
    // at 4x the scale (the hidden platform has scale-dependent congestion
    // no candidate simulator expresses).
    let base = 16usize;
    let train = dataset(&BenchmarkKind::CALIBRATION_SET, &[base], &cfg(), 7);
    let version = MpiSimulatorVersion {
        topology: TopologyModel::BackboneLinks,
        node: NodeModel::Simple,
        protocol: ProtocolModel::FixedChangepoints,
    };
    let sim = MpiSimulator::new(version);
    let obj = objective(&sim, &train, MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"));
    let result = Calibrator::bo_gp(Budget::Evaluations(300), 8).calibrate(&obj);

    let err_at = |nodes: usize| {
        let data = dataset(&BenchmarkKind::CALIBRATION_SET, &[nodes], &cfg(), 7);
        let errs: Vec<f64> = data
            .iter()
            .map(|s| mean_relative_rate_error(s, &sim.run(s, &result.calibration)))
            .collect();
        numeric::mean(&errs)
    };
    let e_base = err_at(base);
    let e_big = err_at(base * 4);
    assert!(
        e_big > e_base * 1.3,
        "error should grow with scale: {e_base:.3} -> {e_big:.3}"
    );
}

#[test]
fn all_sixteen_versions_calibrate_without_panic() {
    let train = dataset(&[BenchmarkKind::PingPong], &[8], &cfg(), 2);
    for version in MpiSimulatorVersion::all() {
        let sim = MpiSimulator::new(version);
        let obj = objective(&sim, &train, MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"));
        let r = Calibrator::bo_gp(Budget::Evaluations(40), 1).calibrate(&obj);
        assert!(r.loss.is_finite(), "{}", version.label());
    }
}

#[test]
fn ground_truth_workload_is_shared_between_emulator_and_candidates() {
    // The BiRandom pairing must be identical on both sides — it is part
    // of the workload. With equal parameters, a candidate fat-tree/complex
    // simulator at the emulator's own hidden values reproduces the
    // noise-free truth exactly at base scale.
    let emu = MpiEmulatorConfig {
        scale_exponent: 0.0,
        ..MpiEmulatorConfig::default()
    };
    let version = MpiSimulatorVersion {
        topology: TopologyModel::FatTree,
        node: NodeModel::Complex,
        protocol: ProtocolModel::FixedChangepoints,
    };
    let space = version.parameter_space();
    let calib = space.calibration_from_pairs(&[
        ("down_bw", emu.down_bw),
        ("up_bw", emu.up_bw),
        ("link_lat", emu.link_lat),
        ("xbus_bw", emu.xbus_bw),
        ("pcie_bw", emu.pcie_bw),
        ("factor_small", emu.factors[0]),
        ("factor_medium", emu.factors[1]),
        ("factor_large", emu.factors[2]),
    ]);
    let sizes = message_sizes();
    let truth = emu.true_rates(BenchmarkKind::BiRandom, 32, &sizes);
    let sim =
        MpiSimulator::new(version).transfer_rates(BenchmarkKind::BiRandom, 32, &sizes, &calib);
    for (t, s) in truth.iter().zip(&sim) {
        assert!((t - s).abs() / t < 1e-9, "{t} vs {s}");
    }
}

#[test]
fn explained_variance_loss_is_minimized_near_truth() {
    // At the emulator's own parameters the explained-variance loss is
    // close to its theoretical floor (1.0 for unbiased noise). The hidden
    // scale exponent is disabled: it is inexpressible by construction and
    // would otherwise shift even the oracle at off-base scales.
    let emu = MpiEmulatorConfig {
        scale_exponent: 0.0,
        ..cfg()
    };
    let scenarios = dataset(&[BenchmarkKind::PingPong], &[16], &emu, 11);
    let version = MpiSimulatorVersion {
        topology: TopologyModel::FatTree,
        node: NodeModel::Complex,
        protocol: ProtocolModel::FixedChangepoints,
    };
    let sim = MpiSimulator::new(version);
    let space = version.parameter_space();
    let oracle = space.calibration_from_pairs(&[
        ("down_bw", emu.down_bw),
        ("up_bw", emu.up_bw),
        ("link_lat", emu.link_lat),
        ("xbus_bw", emu.xbus_bw),
        ("pcie_bw", emu.pcie_bw),
        ("factor_small", emu.factors[0]),
        ("factor_medium", emu.factors[1]),
        ("factor_large", emu.factors[2]),
    ]);
    let obj = objective(&sim, &scenarios, MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"));
    let at_oracle = obj.loss(&oracle);
    assert!(
        at_oracle < 3.0,
        "oracle loss should be near the noise floor: {at_oracle}"
    );
    // A far-off point must be much worse.
    let far = space.denormalize(&vec![0.05; space.dim()]);
    assert!(obj.loss(&far) > at_oracle * 3.0);
}
