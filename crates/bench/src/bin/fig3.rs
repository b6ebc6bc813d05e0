//! Regenerates **Figure 3**: training-dataset cost vs. achieved loss, for
//! the single-sample scheme (one worker count n, one task count m) and
//! the rectangular-sample scheme (all worker counts <= n, all task counts
//! <= m), per workflow application (§5.5).
//!
//! Paper shapes to reproduce:
//! - the §5.4 default (second-largest n and m, marked `*`) achieves
//!   relatively low loss at relatively low cost;
//! - larger (rectangular) training datasets can be *detrimental* under a
//!   fixed budget (fewer optimizer iterations per unit of data);
//! - the cheapest single-sample options (smallest workflow on one worker)
//!   are among the worst.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin fig3 [-- --fast]
//! ```

use lodcal_bench::args::ExpArgs;
use lodcal_bench::case1::{calibrate_version, fixed_loss};
use lodsel::families::wf::dataset_options;
use lodsel::report::{fnum, Table};
use simcal::prelude::*;
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse(100);
    let opts = dataset_options(args.fast, args.seed);
    let apps: Vec<AppKind> = if args.fast {
        vec![AppKind::Forkjoin]
    } else {
        vec![AppKind::Genome1000, AppKind::Montage]
    };
    let version = SimulatorVersion::highest_detail();
    let loss = StructuredLoss::paper_set()[0].clone(); // L1

    let mut table = Table::new(&[
        "application",
        "scheme",
        "workers(n)",
        "tasks(m)",
        "train cost (worker-s)",
        "test loss",
        "default?",
    ]);

    for &app in &apps {
        let records = dataset_for(app, &opts);
        let (_, test) = split_train_test(&records);
        let test_scenarios = WfScenario::from_records(&test);

        let mut sizes: Vec<usize> = records.iter().map(|r| r.spec.num_tasks).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let mut workers: Vec<usize> = records.iter().map(|r| r.n_workers).collect();
        workers.sort_unstable();
        workers.dedup();
        let default_n = workers[workers.len().saturating_sub(2)];
        let default_m = sizes[sizes.len().saturating_sub(2)];

        for scheme in ["single", "rectangular"] {
            for &n in &workers {
                for &m in &sizes {
                    let train: Vec<GroundTruthRecord> = records
                        .iter()
                        .filter(|r| match scheme {
                            "single" => r.n_workers == n && r.spec.num_tasks == m,
                            _ => r.n_workers <= n && r.spec.num_tasks <= m,
                        })
                        .cloned()
                        .collect();
                    if train.is_empty() {
                        continue;
                    }
                    let cost: f64 = train.iter().map(|r| r.cost()).sum();
                    let train_scenarios = WfScenario::from_records(&train);
                    let result = calibrate_version(
                        version,
                        &train_scenarios,
                        loss.clone(),
                        args.budget,
                        args.seed,
                    );
                    let test_loss =
                        fixed_loss(version, &result.calibration, &test_scenarios, &loss);
                    let is_default = scheme == "single" && n == default_n && m == default_m;
                    table.row(vec![
                        app.name().to_string(),
                        scheme.to_string(),
                        n.to_string(),
                        m.to_string(),
                        fnum(cost),
                        format!("{test_loss:.4}"),
                        if is_default {
                            "*".into()
                        } else {
                            String::new()
                        },
                    ]);
                    eprintln!(
                        "{} {scheme} n={n} m={m}: cost {:.0}, test loss {:.4}",
                        app.name(),
                        cost,
                        test_loss
                    );
                }
            }
        }
    }

    println!("Figure 3: training dataset cost vs. loss (single- and rectangular-sample schemes)\n");
    println!("{}", table.render());
    args.maybe_write_tsv(&table);
}
