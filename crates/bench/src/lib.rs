//! # lodcal-bench — experiment harness
//!
//! Shared plumbing for the binaries under `src/bin/`, each of which
//! regenerates one table or figure of the paper (see DESIGN.md for the
//! per-experiment index).

pub mod args;
pub mod case1;
pub mod case2;
pub mod sweep_figure;
pub mod workloads;

use lodsel::report::{fnum, Table};
use simcal::prelude::CalibrationResult;

/// Print `title`, the convergence table of `result` (best loss after each
/// evaluation, with elapsed time) and its final loss — Figures 1 and 4.
/// Returns the table for `--tsv`.
pub fn print_convergence(title: &str, result: &CalibrationResult) -> Table {
    let mut table = Table::new(&["evaluations", "elapsed_s", "best_loss"]);
    for p in &result.trace {
        table.row(vec![
            p.evaluations.to_string(),
            format!("{:.3}", p.elapsed_secs),
            format!("{:.5}", p.best_loss),
        ]);
    }
    println!("{title}\n");
    println!("{}", table.render());
    println!(
        "final loss {} after {} evaluations in {:.2}s",
        fnum(result.loss),
        result.evaluations,
        result.elapsed_secs
    );
    table
}
