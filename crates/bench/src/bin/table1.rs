//! Regenerates **Table 1**: the workflow specifications behind the
//! ground-truth executions — and verifies, by generating one workflow per
//! grid point, that the generators honour the requested task counts and
//! data footprints.
//!
//! ```text
//! cargo run --release -p lodcal-bench --bin table1
//! ```

use lodcal_bench::args::ExpArgs;
use lodsel::report::{fnum, Table};
use wfsim::prelude::*;

fn main() {
    let args = ExpArgs::parse(0);

    let mut table = Table::new(&[
        "application",
        "sizes (#tasks)",
        "work/task (s)",
        "footprints (MB)",
        "workers",
        "generated depth range",
    ]);

    for row in table1() {
        // Generate the smallest and largest size to report structure.
        let mut depths = Vec::new();
        for &size in [row.sizes.first(), row.sizes.last()].into_iter().flatten() {
            let wf = generate(&WorkflowSpec {
                app: row.app,
                num_tasks: size,
                work_per_task_secs: row.works_secs[0],
                data_footprint_bytes: row.footprints_mb[1] * 1e6,
                seed: args.seed,
            });
            assert_eq!(wf.num_tasks(), size, "generator must honour the size");
            assert!(wf.validate().is_ok());
            depths.push(wf.depth());
        }
        table.row(vec![
            row.app.name().to_string(),
            row.sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            row.works_secs
                .iter()
                .map(|w| fnum(*w))
                .collect::<Vec<_>>()
                .join(", "),
            row.footprints_mb
                .iter()
                .map(|f| fnum(*f))
                .collect::<Vec<_>>()
                .join(", "),
            row.worker_counts
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            format!(
                "{}..{}",
                depths.iter().min().unwrap(),
                depths.iter().max().unwrap()
            ),
        ]);
    }

    println!("Table 1: workflow specifications used for ground-truth executions\n");
    println!("{}", table.render());
    args.maybe_write_tsv(&table);
}
