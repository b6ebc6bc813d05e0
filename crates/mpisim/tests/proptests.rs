//! Property-based tests for the MPI simulator: totality across the whole
//! version/parameter space, physical sanity of the rate model, and
//! workload invariants.

mod oracle;

use mpisim::prelude::*;
use proptest::prelude::*;
use simcal::prelude::Calibration;

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

/// The simulator equals the rebuild-everything oracle bit for bit at the
/// paper's node counts, where a solve runs tens of filling rounds over
/// hundreds of links: every rate and the simulation work for all 16
/// versions and 4 benchmarks at three seeded calibrations each, and the
/// emulator's true rates at one seeded hidden testbed per scenario.
#[test]
fn simulator_equals_the_rebuild_oracle_at_paper_scale() {
    let sizes = message_sizes();
    let mut rng = numeric::rng_from_seed(0x5ca1e);
    for version in MpiSimulatorVersion::all() {
        let space = version.parameter_space();
        let sim = MpiSimulator::new(version);
        for _ in 0..3 {
            let unit: Vec<f64> = (0..space.dim()).map(|_| rng.uniform(0.0, 1.0)).collect();
            let calib = space.denormalize(&unit);
            let model = oracle::resolve(version, &calib);
            for benchmark in BenchmarkKind::ALL {
                for n_nodes in NODE_COUNTS {
                    assert_eq!(
                        bits(&sim.transfer_rates(benchmark, n_nodes, &sizes, &calib)),
                        bits(&oracle::rates_by_rebuild(
                            &model, benchmark, n_nodes, &sizes
                        )),
                        "{} {} n={n_nodes}",
                        version.label(),
                        benchmark.name()
                    );
                    assert_eq!(
                        sim.simulation_work(benchmark, n_nodes, &sizes),
                        oracle::work_by_rebuild(&model, benchmark, n_nodes, &sizes),
                        "{} {} n={n_nodes}",
                        version.label(),
                        benchmark.name()
                    );
                }
            }
        }
    }
    for benchmark in BenchmarkKind::ALL {
        for n_nodes in NODE_COUNTS {
            let cfg = MpiEmulatorConfig {
                scale_exponent: rng.uniform(0.0, 1.0),
                link_lat: rng.uniform(0.0, 1e-4),
                pcie_bw: rng.uniform(1e9, 1e11),
                ..Default::default()
            };
            assert_eq!(
                bits(&cfg.true_rates(benchmark, n_nodes, &sizes)),
                bits(&oracle::rates_by_rebuild(
                    &oracle::emulator_model(&cfg),
                    benchmark,
                    n_nodes,
                    &sizes
                )),
                "emulator {} n={n_nodes}",
                benchmark.name()
            );
        }
    }
}

/// Two calls on one thread whose link capacities and latencies are bit for
/// bit the same but whose protocol factors differ: the second must not
/// reuse anything the first priced. On a backbone every PingPong flow
/// between two nodes prices alike, so the first flow of each call looks
/// like the last flow of the call before it.
#[test]
fn consecutive_calls_never_reuse_terms() {
    let sizes = message_sizes();
    let mut rng = numeric::rng_from_seed(0xfac7);
    for version in MpiSimulatorVersion::all() {
        let space = version.parameter_space();
        let sim = MpiSimulator::new(version);
        let unit: Vec<f64> = (0..space.dim()).map(|_| rng.uniform(0.0, 1.0)).collect();
        let first = space.denormalize(&unit);
        let mut second = first.clone();
        for (name, factor) in [
            ("factor_small", 0.55),
            ("factor_medium", 0.85),
            ("factor_large", 1.25),
        ] {
            let i = space
                .index_of(name)
                .expect("every version has protocol factors");
            assert_ne!(first.values[i].to_bits(), f64::to_bits(factor));
            second.values[i] = factor;
        }
        for (benchmark, n_nodes) in [
            (BenchmarkKind::PingPong, 2),
            (BenchmarkKind::PingPing, 2),
            (BenchmarkKind::PingPong, 128),
        ] {
            for calib in [&first, &second, &first] {
                assert_eq!(
                    bits(&sim.transfer_rates(benchmark, n_nodes, &sizes, calib)),
                    bits(&oracle::rates_by_rebuild(
                        &oracle::resolve(version, calib),
                        benchmark,
                        n_nodes,
                        &sizes
                    )),
                    "{} {} n={n_nodes}",
                    version.label(),
                    benchmark.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The simulator equals the rebuild-everything oracle bit for bit: every
    /// rate, the simulation work and the emulator's true rates, for all 16
    /// versions and 4 benchmarks from 1 node (all traffic intra-node) across
    /// partial 4-ary tree levels and the fat tree's 18-node switch boundary.
    #[test]
    fn simulator_equals_the_rebuild_oracle(
        version_idx in 0usize..16,
        bench_idx in 0usize..4,
        n_nodes in 1usize..=40,
        unit in proptest::collection::vec(0.0f64..1.0, 11),
        scale_exponent in 0.0f64..1.0,
        link_lat in 0.0f64..1e-4,
        pcie_bw in 1e9f64..1e11,
    ) {
        let version = MpiSimulatorVersion::all()[version_idx];
        let space = version.parameter_space();
        let calib: Calibration = space.denormalize(&unit[..space.dim()]);
        let benchmark = BenchmarkKind::ALL[bench_idx];
        let sizes = message_sizes();
        let sim = MpiSimulator::new(version);
        let model = oracle::resolve(version, &calib);

        let got = sim.transfer_rates(benchmark, n_nodes, &sizes, &calib);
        let want = oracle::rates_by_rebuild(&model, benchmark, n_nodes, &sizes);
        prop_assert_eq!(bits(&got), bits(&want), "{} {} n={}", version.label(), benchmark.name(), n_nodes);
        prop_assert_eq!(
            sim.simulation_work(benchmark, n_nodes, &sizes),
            oracle::work_by_rebuild(&model, benchmark, n_nodes, &sizes)
        );

        let cfg = MpiEmulatorConfig { scale_exponent, link_lat, pcie_bw, ..Default::default() };
        let truth = oracle::emulator_model(&cfg);
        prop_assert_eq!(
            bits(&cfg.true_rates(benchmark, n_nodes, &sizes)),
            bits(&oracle::rates_by_rebuild(&truth, benchmark, n_nodes, &sizes))
        );
    }

    /// One simulator asked about shuffled scenarios and calibrations answers
    /// every call exactly as a fresh simulator would: nothing one call
    /// leaves behind reaches the next.
    #[test]
    fn a_reused_simulator_equals_a_fresh_one_per_call(
        version_idx in 0usize..16,
        scenarios in proptest::collection::vec(0usize..24, 1..24),
        units in proptest::collection::vec(0.0f64..1.0, 24 * 11),
    ) {
        let version = MpiSimulatorVersion::all()[version_idx];
        let space = version.parameter_space();
        let sizes = message_sizes();
        let reused = MpiSimulator::new(version);
        for (call, &s) in scenarios.iter().enumerate() {
            let (benchmark, n_nodes) = (BenchmarkKind::ALL[s % 4], 1 + s / 4);
            let calib = space.denormalize(&units[call * 11..call * 11 + space.dim()]);
            let fresh = MpiSimulator::new(version);
            prop_assert_eq!(
                bits(&reused.transfer_rates(benchmark, n_nodes, &sizes, &calib)),
                bits(&fresh.transfer_rates(benchmark, n_nodes, &sizes, &calib))
            );
            prop_assert_eq!(
                reused.simulation_work(benchmark, n_nodes, &sizes),
                MpiSimulator::new(version).simulation_work(benchmark, n_nodes, &sizes)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every version at every in-range calibration produces positive,
    /// finite rates bounded by the memory-copy ceiling times the largest
    /// protocol factor.
    #[test]
    fn transfer_rates_are_total_and_bounded(
        version_idx in 0usize..16,
        unit in proptest::collection::vec(0.02f64..0.98, 11),
        bench_idx in 0usize..4,
        n_nodes in 2usize..24,
    ) {
        let version = MpiSimulatorVersion::all()[version_idx];
        let space = version.parameter_space();
        let calib: Calibration = space.denormalize(&unit[..space.dim()]);
        let benchmark = BenchmarkKind::ALL[bench_idx];
        let sizes = [1024.0, 65536.0, 4194304.0];
        let rates = MpiSimulator::new(version)
            .transfer_rates(benchmark, n_nodes, &sizes, &calib);
        prop_assert_eq!(rates.len(), 3);
        let ceiling = 1.5 * INTRA_NODE_BW; // max factor x memory ceiling
        for r in &rates {
            prop_assert!(r.is_finite() && *r > 0.0);
            prop_assert!(*r <= ceiling * (1.0 + 1e-9), "rate {r} above ceiling");
        }
    }

    /// With a flat protocol (all factors equal) and zero latency, rates
    /// are non-decreasing in message size (no latency to amortize, fixed
    /// allocation); with positive latency small messages are slower.
    #[test]
    fn latency_amortization(seed_factor in 0.2f64..1.4) {
        let version = MpiSimulatorVersion::lowest_detail();
        let space = version.parameter_space();
        let calib = space.calibration_from_pairs(&[
            ("bb_bw", 1e10),
            ("bb_lat", 2e-6),
            ("factor_small", seed_factor),
            ("factor_medium", seed_factor),
            ("factor_large", seed_factor),
        ]);
        let sizes = message_sizes();
        let rates = MpiSimulator::new(version)
            .transfer_rates(BenchmarkKind::PingPong, 8, &sizes, &calib);
        for w in rates.windows(2) {
            prop_assert!(w[1] >= w[0] * (1.0 - 1e-9), "{:?}", rates);
        }
    }

    /// The emulator's measured samples always scatter around the
    /// noise-free truth within a few sigma.
    #[test]
    fn measurement_noise_is_bounded(n_nodes in 2usize..16, seed in 0u64..100) {
        let cfg = MpiEmulatorConfig { repetitions: 4, ..Default::default() };
        let sizes = [131072.0];
        let truth = cfg.true_rates(BenchmarkKind::PingPong, n_nodes, &sizes)[0];
        let samples = &cfg.measure(BenchmarkKind::PingPong, n_nodes, &sizes, seed)[0];
        for s in samples {
            let ratio = s / truth;
            prop_assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
        }
    }

    /// BiRandom pairings are perfect matchings for any even rank count.
    #[test]
    fn birandom_matching(n_nodes in 1usize..50, seed in 0u64..100) {
        let n_ranks = n_nodes * RANKS_PER_NODE;
        let flows = BenchmarkKind::BiRandom.flows(n_ranks, seed);
        let mut degree = vec![0u32; n_ranks];
        for (s, d) in flows {
            prop_assert!(s != d);
            degree[s] += 1;
            degree[d] += 1;
        }
        prop_assert!(degree.iter().all(|&d| d == 2));
    }

    /// More nodes never increases the per-flow rate on a fixed-capacity
    /// shared backbone (contention is monotone). Uses PingPong, whose
    /// deterministic pairing keeps every flow inter-node: BiRandom's seeded
    /// matching includes a varying number of intra-node (memory-speed)
    /// flows, so its *mean* rate is monotone only in expectation, not for
    /// every draw.
    #[test]
    fn backbone_contention_monotone(steps in 1usize..4) {
        let version = MpiSimulatorVersion::lowest_detail();
        let space = version.parameter_space();
        let calib = space.calibration_from_pairs(&[
            ("bb_bw", 5e10),
            ("bb_lat", 1e-6),
            ("factor_small", 1.0),
            ("factor_medium", 1.0),
            ("factor_large", 1.0),
        ]);
        let sizes = [4194304.0];
        let sim = MpiSimulator::new(version);
        let mut last = f64::INFINITY;
        for k in 0..=steps {
            let nodes = 4 << k;
            let r = sim.transfer_rates(BenchmarkKind::PingPong, nodes, &sizes, &calib)[0];
            prop_assert!(r <= last * (1.0 + 1e-9), "nodes {nodes}: {r} > {last}");
            last = r;
        }
    }
}
