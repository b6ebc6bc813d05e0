//! Regenerates **Figure 2**: percent relative error between simulated and
//! ground-truth makespans for all 12 calibrated simulator versions, on
//! held-out "large" executions (§5.4 train/test split). With
//! `--uncalibrated`, also reports the §5.4 baseline: the lowest-detail
//! simulator with hardware-spec parameter values.
//!
//! The (version × application × restart) grid is driven by the lodsel
//! sweep subsystem: runs fan onto the work-stealing pool, `--ledger PATH`
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
use lodcal_bench::case1::summarize;
use lodcal_bench::report::{pct, Table};
use lodsel::families::wf::WfCase;
use lodsel::prelude::*;
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse(150);
    // The paper's §5.4 per-application train/test splits.
    let family = WfFamily::paper(args.fast, args.seed);
    for s in family.splits() {
        obs::diag!(
            "{}: {} train / {} test records",
            s.name,
            s.train.len(),
            s.test.len()
        );
    }

    // One calibration per (version, application), best of 3 restarts by
    // training loss, then aggregate across apps — the bars (avg) and
    // error bars (min/max) of Figure 2.
    let config = SweepConfig {
        budget: BudgetPolicy::PerRun {
            budget: args.budget,
        },
        restarts: 3,
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
        "version (net/storage/compute)",
        "avg err %",
        "min err %",
        "max err %",
    ]);
    for v in &outcome.versions {
        let (avg, min, max) = summarize(&v.samples);
        table.row(vec![v.label.clone(), pct(avg), pct(min), pct(max)]);
    }

    println!("Figure 2: percent relative makespan error, all 12 calibrated versions\n");
    println!("{}", table.render());

    if args.uncalibrated {
        let version = SimulatorVersion::lowest_detail();
        let calib = spec_calibration(version);
        let mut per_app = Vec::new();
        for s in family.splits() {
            let errs = evaluate_on(&WfCase, &version, &s.test, &calib).samples;
            per_app.push(numeric::mean(&errs));
            obs::diag!(
                "uncalibrated / {}: {:.0}%",
                s.name,
                numeric::mean(&errs) * 100.0
            );
        }
        let (avg, min, max) = summarize(&per_app);
        let mut t = Table::new(&["baseline", "avg err %", "min err %", "max err %"]);
        t.row(vec![
            "spec-based, lowest detail".into(),
            pct(avg),
            pct(min),
            pct(max),
        ]);
        println!("§5.4 uncalibrated baseline (hardware-spec values, no calibration):\n");
        println!("{}", t.render());
    }

    if let Some(rec) = &outcome.recommendation {
        eprint!("{}", render_recommendation(rec));
    }
    args.maybe_write_tsv(&table);
}
