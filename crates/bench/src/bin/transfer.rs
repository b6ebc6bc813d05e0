//! **Warm-start transfer experiment** over the persistent loss cache:
//! does a calibration cached at one scale accelerate calibrating the same
//! simulator version at a larger scale?
//!
//! For every ordered pair of experiment scales (source → target), the
//! driver:
//!
//! 1. calibrates the highest-detail MPI simulator at the source scale
//!    with a persistent cache installed, so every evaluated point lands
//!    in the source shard;
//! 2. runs a **cold** BO-GP calibration at the target scale;
//! 3. runs a **warm** calibration at the target scale whose surrogate is
//!    seeded with the finite `(point, loss)` observations read back from
//!    the source shard ([`simcal::cache::load_finite_observations`]) —
//!    the warm points steer the fit but are never evaluated and never
//!    consume budget;
//! 4. reports, per pair, the evaluations each run needed to reach within
//!    5% of the cold run's final loss (the budget saved by transfer) and
//!    the held-out error delta between the two final calibrations.
//!
//! The hidden testbed's congestion is scale-dependent, so the transferred
//! surrogate is helpful-but-wrong in an instructive way: the warm run
//! must keep its final accuracy (the incumbent only ever comes from
//! points it evaluated itself) while spending less of its budget
//! rediscovering the basin.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin transfer [-- --fast --cache DIR]
//! ```
//!
//! Without `--cache`, a seed-keyed directory under the system temp dir is
//! used (reused across runs, demonstrating cross-run reuse).

use lodcal_bench::args::ExpArgs;
use lodcal_bench::case2::cache_fingerprint;
use lodsel::families::mpi::{emulator_config, node_counts};
use lodsel::families::{evaluate_on, mpi::MpiCase};
use lodsel::report::{pct, Table};
use mpisim::prelude::*;
use simcal::prelude::*;
use std::path::PathBuf;

/// Budget evaluations consumed before the trace first reached
/// `threshold`, or `None` if it never did.
fn evals_to_threshold(trace: &[TracePoint], threshold: f64) -> Option<usize> {
    trace
        .iter()
        .find(|p| p.best_loss <= threshold)
        .map(|p| p.evaluations)
}

fn main() {
    let args = ExpArgs::parse(300);
    let cache_dir = args
        .cache
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("lodcal-transfer-{}", args.seed)));
    simcal::cache::install(cache_dir.clone());
    obs::diag!("persistent cache: {}", cache_dir.display());

    let cfg = emulator_config(args.fast);
    let scales = node_counts(args.fast);
    let version = MpiSimulatorVersion::highest_detail();
    let loss = MatrixLoss::paper_set()[0].clone();
    let space = version.parameter_space();

    // Ground truth per scale, generated once.
    let datasets: Vec<Vec<MpiScenario>> = scales
        .iter()
        .map(|&n| dataset(&BenchmarkKind::CALIBRATION_SET, &[n], &cfg, args.seed))
        .collect();

    println!(
        "warm-start transfer across scales ({}, seed {})\n",
        version.label(),
        args.seed
    );
    let mut table = Table::new(&[
        "transfer (nodes)",
        "warm pts",
        "cold evals@5%",
        "warm evals@5%",
        "budget saved",
        "cold err %",
        "warm err %",
        "err delta %",
    ]);

    for si in 0..scales.len() {
        // Populate (or reuse) the source-scale shard.
        let src_fp = cache_fingerprint(version, &datasets[si], &loss);
        let sim = MpiSimulator::new(version);
        let src_obj = objective(&sim, &datasets[si], loss.clone()).with_cache_fingerprint(src_fp);
        let src = Calibrator::bo_gp(args.budget, args.seed).calibrate(&src_obj);
        obs::diag!(
            "source {} nodes: loss {:.4} after {} evaluations",
            scales[si],
            src.loss,
            src.evaluations
        );

        for ti in si + 1..scales.len() {
            let warm_natural =
                simcal::cache::load_finite_observations(&cache_dir, src_fp, args.seed);
            let warm: Vec<(Vec<f64>, f64)> = warm_natural
                .iter()
                .map(|(values, y)| (space.normalize(&Calibration::new(values.clone())), *y))
                .collect();

            let tgt_fp = cache_fingerprint(version, &datasets[ti], &loss);
            let tgt_obj =
                objective(&sim, &datasets[ti], loss.clone()).with_cache_fingerprint(tgt_fp);
            let calibrator = Calibrator::bo_gp(args.budget, args.seed);
            let cold = calibrator.calibrate(&tgt_obj);
            let warm_algo =
                BayesianOpt::new(SurrogateKind::GaussianProcess).with_warm_start(warm.clone());
            let warmed = calibrator
                .try_calibrate_with(&warm_algo, &tgt_obj)
                .expect("warm-started calibration found no finite loss");

            // Budget-to-threshold: evaluations to get within 5% of the
            // cold run's final loss.
            let threshold = cold.loss * 1.05;
            let cold_at = evals_to_threshold(&cold.trace, threshold);
            let warm_at = evals_to_threshold(&warmed.trace, threshold);
            let saved = match (cold_at, warm_at) {
                (Some(c), Some(w)) => format!("{}", c as i64 - w as i64),
                _ => "-".into(),
            };
            let fmt = |at: Option<usize>| at.map_or("-".into(), |n| n.to_string());

            let rate_error = |result: &CalibrationResult| {
                let eval = evaluate_on(&MpiCase, &version, &datasets[ti], &result.calibration);
                numeric::mean(&eval.samples)
            };
            let (cold_err, warm_err) = (rate_error(&cold), rate_error(&warmed));
            table.row(vec![
                format!("{} -> {}", scales[si], scales[ti]),
                warm.len().to_string(),
                fmt(cold_at),
                fmt(warm_at),
                saved,
                pct(cold_err),
                pct(warm_err),
                format!("{:+.2}", (warm_err - cold_err) * 100.0),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "(budget saved = cold minus warm evaluations to reach within 5% of the cold run's \
         final loss; positive = the transferred surrogate converged sooner. The error delta \
         compares final held-out rate errors — warm starts steer the search but the incumbent \
         always comes from points the run evaluated itself.)"
    );
    args.maybe_write_tsv(&table);
}
