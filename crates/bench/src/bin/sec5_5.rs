//! Regenerates the **§5.5 training-data-diversity results**:
//!
//! 1. Calibrations trained on a single sequential-work value and a single
//!    data-footprint value lose accuracy on the test set — worst when the
//!    training set has zero work and/or zero footprint (some simulated
//!    components are never exercised).
//! 2. Calibrations trained only on the synthetic chain and/or forkjoin
//!    benchmarks, tested on real-application ground truth: chain-only is
//!    worst (no parallelism in training), forkjoin-only loses 1.2x-3.5x,
//!    both-together is hurt by the costlier loss evaluation.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin sec5_5 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::case1::{calibrate_version, fixed_loss};
use lodsel::families::wf::dataset_options;
use lodsel::multistart::restart_seed;
use lodsel::report::Table;
use simcal::prelude::*;
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse(100);
    let opts = dataset_options(args.fast, args.seed);
    let version = SimulatorVersion::highest_detail();
    let loss = StructuredLoss::paper_set()[0].clone();
    let app = AppKind::Genome1000;

    let records = dataset_for(app, &opts);
    let (train_full, test) = split_train_test(&records);
    let test_scenarios = WfScenario::from_records(&test);

    // Mean over three independent calibration seeds: this experiment is
    // about the *expected* effect of a training-set choice, and a single
    // lucky calibration can mask an unidentifiable parameter (e.g. disk
    // concurrency is invisible to single-worker chain training).
    let calibrate_and_test = |train: &[GroundTruthRecord]| -> f64 {
        let scenarios = WfScenario::from_records(train);
        let losses: Vec<f64> = (0..3)
            .map(|r| {
                let result = calibrate_version(
                    version,
                    &scenarios,
                    loss.clone(),
                    args.budget,
                    restart_seed(args.seed, r),
                );
                fixed_loss(version, &result.calibration, &test_scenarios, &loss)
            })
            .collect();
        numeric::mean(&losses)
    };

    // --- Part 1: restrict work / footprint diversity -------------------
    let baseline = calibrate_and_test(&train_full);
    println!("§5.5 part 1: diversity of work and footprint in the training set\n");
    let mut t1 = Table::new(&["training set", "test loss", "vs diverse (x)"]);
    t1.row(vec![
        "diverse (default §5.4 training set)".into(),
        format!("{baseline:.4}"),
        "1.0".into(),
    ]);

    // Work/footprint values present in the emitted records.
    let mut works: Vec<f64> = train_full
        .iter()
        .map(|r| r.spec.work_per_task_secs)
        .collect();
    works.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    works.dedup();
    let mut fps: Vec<f64> = train_full
        .iter()
        .map(|r| r.spec.data_footprint_bytes)
        .collect();
    fps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    fps.dedup();

    let mut degraded = 0usize;
    let mut cases = 0usize;
    for &w in &works {
        for &f in &fps {
            let restricted: Vec<GroundTruthRecord> = train_full
                .iter()
                .filter(|r| r.spec.work_per_task_secs == w && r.spec.data_footprint_bytes == f)
                .cloned()
                .collect();
            if restricted.is_empty() || restricted.len() == train_full.len() {
                continue;
            }
            let l = calibrate_and_test(&restricted);
            cases += 1;
            if l > baseline {
                degraded += 1;
            }
            t1.row(vec![
                format!("single work={w}s footprint={:.0}MB", f / 1e6),
                format!("{l:.4}"),
                format!("{:.1}", l / baseline.max(1e-12)),
            ]);
        }
    }
    println!("{}", t1.render());
    if cases > 0 {
        println!("restricted training degraded the test loss in {degraded}/{cases} cases\n");
    }

    // --- Part 2: synthetic-benchmark-only training ----------------------
    println!(
        "§5.5 part 2: training on chain / forkjoin only, testing on {}\n",
        app.name()
    );
    let chain = dataset_for(AppKind::Chain, &opts);
    let forkjoin = dataset_for(AppKind::Forkjoin, &opts);
    let both: Vec<GroundTruthRecord> = chain.iter().chain(forkjoin.iter()).cloned().collect();

    let mut t2 = Table::new(&["training set", "test loss", "vs app-trained (x)"]);
    t2.row(vec![
        format!("{} (app-trained baseline)", app.name()),
        format!("{baseline:.4}"),
        "1.0".into(),
    ]);
    for (name, train) in [
        ("chain only", &chain),
        ("forkjoin only", &forkjoin),
        ("chain+forkjoin", &both),
    ] {
        let l = calibrate_and_test(train);
        t2.row(vec![
            name.into(),
            format!("{l:.4}"),
            format!("{:.1}", l / baseline.max(1e-12)),
        ]);
        eprintln!("{name}: test loss {l:.4}");
    }
    println!("{}", t2.render());
    args.maybe_write_tsv(&t2);
}
