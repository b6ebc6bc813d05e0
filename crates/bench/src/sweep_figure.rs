//! The one driver behind the sweep figures: `fig2`, `fig5`, `case3` and
//! `case4` are the same experiment run on four case studies (paper §5.4,
//! §6.4 and the §7 future-work domains). Calibrate every level-of-detail
//! version under one budget through the lodsel sweep, report held-out
//! error (avg/min/max) per version, and with `--uncalibrated` set a
//! spec-value baseline beside it. A binary supplies only its family and a
//! [`SweepFigure`].
//!
//! The sweep fans (version × split × restart) runs onto the thread
//! pool, `--ledger PATH` makes it resumable bit-for-bit, `--trace PATH`
//! records it, and the accuracy-versus-cost recommendation goes to stderr.

use crate::args::ExpArgs;
use lodsel::cli::record_sweep;
use lodsel::prelude::*;
use simcal::prelude::Calibration;

/// What one sweep figure prints beyond its family's sweep.
pub struct SweepFigure<C: CaseStudy> {
    /// Restarts per unit; the best by training loss is kept.
    pub restarts: usize,
    /// Heading printed above the per-version table.
    pub title: String,
    /// Header of the version column.
    pub version_header: &'static str,
    /// Whether the table lists each version's parameter count.
    pub params_column: bool,
    /// Heading printed above the `--uncalibrated` table.
    pub baseline_heading: &'static str,
    /// Row label of the baseline.
    pub baseline_label: &'static str,
    /// The uncalibrated version and the spec values it runs with.
    pub baseline: (C::Version, Calibration),
    /// Shape note printed after the tables.
    pub note: Option<&'static str>,
}

/// Sweep `family`, print the figure to stdout and the recommendation to
/// stderr, and write the per-version table to `--tsv`.
pub fn run<C: CaseStudy>(family: &SimFamily<C>, args: &ExpArgs, figure: SweepFigure<C>) {
    for split in family.splits() {
        let name = match split.name.as_str() {
            "" => family.case().name(),
            name => name,
        };
        obs::diag!(
            "{name}: {} train / {} held-out scenarios",
            split.train.len(),
            split.held_out().len()
        );
    }

    let config = SweepConfig {
        epsilon: args.epsilon,
        ..SweepConfig::per_run(args.budget, figure.restarts, args.seed)
    };
    let outcome = record_sweep(args.ledger.as_deref(), args.trace.as_deref(), |ledger| {
        try_run_sweep(family, &config, ledger)
    })
    .unwrap_or_else(|e| args.fail(format_args!("cannot run sweep: {e}")));

    let mut header = vec![figure.version_header];
    if figure.params_column {
        header.push("params");
    }
    header.extend(["avg err %", "min err %", "max err %"]);
    let mut table = Table::new(&header);
    for v in &outcome.versions {
        let mut row = vec![v.label.clone()];
        if figure.params_column {
            row.push(v.dim.to_string());
        }
        row.extend(error_cells(&v.samples));
        table.row(row);
    }
    println!("{}\n", figure.title);
    println!("{}", table.render());

    if args.uncalibrated {
        let (version, calibration) = &figure.baseline;
        let mut baseline = Table::new(&["baseline", "avg err %", "min err %", "max err %"]);
        let mut row = vec![figure.baseline_label.to_string()];
        row.extend(error_cells(&baseline_samples(family, version, calibration)));
        baseline.row(row);
        println!("{}\n\n{}", figure.baseline_heading, baseline.render());
    }
    if let Some(note) = figure.note {
        println!("{note}");
    }

    if let Some(rec) = &outcome.recommendation {
        eprint!("{}", render_recommendation(rec));
    }
    args.maybe_write_tsv(&table);
}

/// Held-out error samples of a fixed `calibration` under `version`, by the
/// path [`VersionFamily::evaluate`] takes for a calibrated unit: per
/// split, the case study's summary of its held-out errors, concatenated.
pub fn baseline_samples<C: CaseStudy>(
    family: &SimFamily<C>,
    version: &C::Version,
    calibration: &Calibration,
) -> Vec<f64> {
    let case = family.case();
    family
        .splits()
        .iter()
        .flat_map(|split| {
            case.summarize(evaluate_on(case, version, split.held_out(), calibration).samples)
        })
        .collect()
}

/// The avg / min / max error cells of a table row.
fn error_cells(samples: &[f64]) -> [String; 3] {
    [
        pct(numeric::mean(samples)),
        pct(numeric::min(samples)),
        pct(numeric::max(samples)),
    ]
}

#[cfg(test)]
mod tests {
    //! The four binaries each computed their baseline by hand before they
    //! shared [`baseline_samples`]; those expressions are the reference.

    use super::baseline_samples;
    use lodsel::families::wf::WfCase;
    use lodsel::prelude::*;

    const SEED: u64 = 20250706;

    fn assert_same_bits(shared: &[f64], reference: &[f64]) {
        assert!(!reference.is_empty());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(shared), bits(reference));
    }

    #[test]
    fn wf_baseline_is_the_per_application_mean() {
        let family = WfFamily::paper(true, SEED);
        let version = wfsim::prelude::SimulatorVersion::lowest_detail();
        let calib = wfsim::prelude::spec_calibration(version);
        let reference: Vec<f64> = family
            .splits()
            .iter()
            .map(|s| numeric::mean(&evaluate_on(&WfCase, &version, &s.test, &calib).samples))
            .collect();
        assert_same_bits(&baseline_samples(&family, &version, &calib), &reference);
    }

    #[test]
    fn mpi_baseline_is_judged_on_the_training_scenarios() {
        let family = MpiFamily::paper(true, SEED);
        let version = mpisim::prelude::MpiSimulatorVersion::lowest_detail();
        let calib = mpisim::prelude::spec_calibration(version);
        let reference = evaluate_on(family.case(), &version, family.scenarios(), &calib).samples;
        assert_same_bits(&baseline_samples(&family, &version, &calib), &reference);
    }

    #[test]
    fn batch_baseline_is_judged_on_the_test_traces() {
        let family = BatchFamily::paper(true, SEED);
        let version = batchsim::prelude::BatchVersion::lowest_detail();
        let spec = version
            .parameter_space()
            .calibration_from_pairs(&[("node_speed", 1.0)]);
        let reference = evaluate_on(family.case(), &version, family.test(), &spec).samples;
        assert_same_bits(&baseline_samples(&family, &version, &spec), &reference);
    }

    #[test]
    fn grid_baseline_is_judged_on_the_test_workloads() {
        let family = GridFamily::paper(true, SEED);
        let version = gridsim::prelude::GridVersion::lowest_detail();
        let spec = version.parameter_space().calibration_from_pairs(&[
            ("core_speed", 1.0),
            ("wan_bandwidth", 10.0),
            ("wan_latency", 0.1),
            ("disk_bandwidth", 100.0),
            ("hit_ratio", 0.5),
        ]);
        let reference = evaluate_on(family.case(), &version, family.test(), &spec).samples;
        assert_same_bits(&baseline_samples(&family, &version, &spec), &reference);
    }
}
