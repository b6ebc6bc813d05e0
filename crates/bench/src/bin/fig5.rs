//! Regenerates **Figure 5**: percent relative error between simulated and
//! ground-truth transfer rates for all 16 calibrated MPI simulator
//! versions. As in the paper (§6.4), training and testing both use the
//! 128-node PingPing/PingPong/BiRandom ground truth (deliberate
//! overfitting; generalization is studied by `sec6_5`). With
//! `--uncalibrated`, also reports the §6.4 spec-based baseline.
//!
//! The (version × restart) grid is driven by the lodsel sweep subsystem:
//! runs fan onto the work-stealing pool, `--ledger PATH` makes the sweep
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
use lodcal_bench::case1::summarize;
use lodcal_bench::case2::node_counts;
use lodcal_bench::report::{pct, Table};
use lodsel::prelude::*;
use mpisim::prelude::*;

fn main() {
    let args = ExpArgs::parse(500);
    let base_nodes = node_counts(args.fast)[0];
    let family = MpiFamily::paper(args.fast, args.seed);

    // Best of 5 restarts per version by training loss, as in the paper.
    let config = SweepConfig {
        budget: BudgetPolicy::PerRun {
            budget: args.budget,
        },
        restarts: 5,
        seed: args.seed,
        epsilon: args.epsilon,
        max_units: None,
        max_fault_retries: 2,
        cache: args.cache.as_ref().map(std::path::PathBuf::from),
    };
    let ledger = args.open_ledger();
    let recorder = args.install_trace();
    let outcome = run_sweep(&family, &config, ledger.as_ref());
    args.write_trace(recorder);

    let mut table = Table::new(&[
        "version (topology/node/protocol)",
        "avg err %",
        "min err %",
        "max err %",
    ]);
    for v in &outcome.versions {
        // Per-benchmark errors: bars (avg) and error bars (min/max).
        let (avg, min, max) = summarize(&v.samples);
        table.row(vec![v.label.clone(), pct(avg), pct(min), pct(max)]);
    }

    println!(
        "Figure 5: percent relative transfer-rate error, all 16 calibrated versions \
         ({base_nodes}-node ground truth)\n"
    );
    println!("{}", table.render());

    if args.uncalibrated {
        let version = MpiSimulatorVersion::lowest_detail();
        let calib = spec_calibration(version);
        let errs = evaluate_on(family.case(), &version, family.scenarios(), &calib).samples;
        let (avg, min, max) = summarize(&errs);
        let mut t = Table::new(&["baseline", "avg err %", "min err %", "max err %"]);
        t.row(vec![
            "spec-based, lowest detail".into(),
            pct(avg),
            pct(min),
            pct(max),
        ]);
        println!("§6.4 uncalibrated baseline (Summit spec values, no calibration):\n");
        println!("{}", t.render());
    }

    if let Some(rec) = &outcome.recommendation {
        eprint!("{}", render_recommendation(rec));
    }
    args.maybe_write_tsv(&table);
}
