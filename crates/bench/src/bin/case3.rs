//! Case study #3 — batch scheduling — the domain the paper's conclusion
//! names as future work ("batch-scheduling using Alea or Batsim and data
//! from the Parallel Workload Archive"). The experiment mirrors Figure 2:
//! calibrate all 4 level-of-detail versions under the same budget, report
//! held-out turnaround error per version plus the uncalibrated baseline,
//! and check whether the other case studies' conclusion ("model the
//! middleware's batching behaviour") generalizes to this domain.
//!
//! The (version × restart) grid is driven by the lodsel sweep subsystem:
//! runs fan onto the work-stealing pool, `--ledger PATH` makes the sweep
//! resumable (bit-for-bit), and the accuracy-versus-cost recommendation
//! is reported on stderr alongside the table.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin case3 [-- --fast]
//! ```

use batchsim::prelude::*;
use lodcal_bench::args::ExpArgs;
use lodcal_bench::case1::summarize;
use lodcal_bench::report::{pct, Table};
use lodsel::prelude::*;

fn main() {
    let args = ExpArgs::parse(150);
    let family = BatchFamily::paper(args.fast, args.seed);
    obs::diag!(
        "{} training / {} testing workload traces",
        family.train().len(),
        family.test().len()
    );

    // Best of three restarts by training loss, as in Figures 2/5. The
    // per-trace metric is the mean relative per-job *turnaround* error.
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
        "version (overhead/runtime)",
        "params",
        "avg err %",
        "min err %",
        "max err %",
    ]);
    for v in &outcome.versions {
        let (avg, min, max) = summarize(&v.samples);
        table.row(vec![
            v.label.clone(),
            v.dim.to_string(),
            pct(avg),
            pct(min),
            pct(max),
        ]);
    }

    println!("Case study #3 (future work): batch scheduling, 4 calibrated versions\n");
    println!("{}", table.render());

    if args.uncalibrated {
        // Spec-style baseline: nominal node speed 1.0, no overheads.
        let version = BatchVersion::lowest_detail();
        let spec = version
            .parameter_space()
            .calibration_from_pairs(&[("node_speed", 1.0)]);
        let errs = evaluate_on(family.case(), &version, family.test(), &spec).samples;
        let (avg, min, max) = summarize(&errs);
        let mut t = Table::new(&["baseline", "avg err %", "min err %", "max err %"]);
        t.row(vec![
            "nominal values, lowest detail".into(),
            pct(avg),
            pct(min),
            pct(max),
        ]);
        println!("uncalibrated baseline:\n\n{}", t.render());
    }

    println!(
        "(shape check: the cycle/* versions — which model the RJMS's periodic\n\
         scheduling behaviour — should beat the instant/* versions, mirroring the\n\
         'simulating HTCondor is crucial' finding of case study #1)"
    );
    if let Some(rec) = &outcome.recommendation {
        eprint!("{}", render_recommendation(rec));
    }
    args.maybe_write_tsv(&table);
}
