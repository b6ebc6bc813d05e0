//! Case study #4 — a federated data grid, the workload class (data
//! locality, caching, wide-area transfers) none of the first three
//! families exercises. The experiment mirrors Figure 2: calibrate all 8
//! level-of-detail versions under the same budget, report held-out
//! turnaround error per version plus the uncalibrated baseline, and ask
//! which of the three middleware behaviours (per-file transfers, the
//! explicit cache, the serial broker) must be modelled.
//!
//! The (version × restart) grid is driven by the lodsel sweep subsystem:
//! runs fan onto the work-stealing pool, `--ledger PATH` makes the sweep
//! resumable (bit-for-bit), and the accuracy-versus-cost recommendation
//! is reported on stderr alongside the table.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin case4 [-- --fast]
//! ```

use gridsim::prelude::*;
use lodcal_bench::args::ExpArgs;
use lodcal_bench::case1::summarize;
use lodcal_bench::report::{pct, Table};
use lodsel::prelude::*;

fn main() {
    let args = ExpArgs::parse(150);
    let family = GridFamily::paper(args.fast, args.seed);
    obs::diag!(
        "{} training / {} testing grid workloads",
        family.train().len(),
        family.test().len()
    );

    // Best of three restarts by training loss, as in Figures 2/5. The
    // per-workload metric is the mean relative per-job *turnaround*
    // error on the held-out workloads.
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
        "version (transfer/cache/broker)",
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

    println!("Case study #4: federated data grid, 8 calibrated versions\n");
    println!("{}", table.render());

    if args.uncalibrated {
        // Spec-style baseline: nominal platform values, lowest detail.
        let version = GridVersion::lowest_detail();
        let spec = version.parameter_space().calibration_from_pairs(&[
            ("core_speed", 1.0),
            ("wan_bandwidth", 10.0),
            ("wan_latency", 0.1),
            ("disk_bandwidth", 100.0),
            ("hit_ratio", 0.5),
        ]);
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
        "(shape check: the hidden grid stages per-file WAN flows through LRU\n\
         caches behind a serial broker, so the perfile/lru/* versions should\n\
         beat flow/hitratio/* — the data-grid echo of the other case studies'\n\
         'model the middleware' conclusion)"
    );
    if let Some(rec) = &outcome.recommendation {
        eprint!("{}", render_recommendation(rec));
    }
    args.maybe_write_tsv(&table);
}
