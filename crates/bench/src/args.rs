//! Minimal shared CLI parsing for the experiment binaries.
//!
//! Every binary parsed with [`ExpArgs::parse`] accepts:
//!
//! - `--budget-evals N`  — loss evaluations per calibration (deterministic);
//! - `--budget-secs S`   — wall-clock seconds per calibration (overrides
//!   evaluations when both are given, mirroring the paper's fixed
//!   time-budget comparisons);
//! - `--seed S`          — master seed;
//! - `--fast`            — shrink the experiment grid for a quick smoke run;
//! - `--tsv PATH`        — also write the result rows as TSV;
//! - `--cache DIR`       — persistent loss-cache directory, installed for
//!   the whole process (see [`simcal::cache`]; overrides the
//!   `CALIB_CACHE` environment variable).
//!
//! The sweep figures (`fig2`, `fig5`, `case3`, `case4`, parsed with
//! [`ExpArgs::parse_sweep`] and run by [`crate::sweep_figure`]) also
//! accept:
//!
//! - `--uncalibrated`    — add the spec-value baseline;
//! - `--ledger PATH`     — checkpoint completed work to (and resume it
//!   from) a lodsel run ledger;
//! - `--epsilon F`       — recommendation tolerance;
//! - `--trace PATH`      — record an `obs` JSONL trace of the run
//!   (summarize it later with `lodsel --trace-report PATH`).
//!
//! Any other flag — a sweep flag included, for every other binary — is
//! refused with exit status 2. Flags are read through [`lodsel::cli`],
//! so errors and `--help` look as they do for `lodsel` and `calibd`.
//!
//! Output convention: result tables go to stdout, diagnostics go to
//! stderr via [`obs::diag!`] (prefixed with the binary name), and
//! machine-readable artifacts go to `--tsv`/`--ledger`/`--trace` files.

use lodsel::cli::{usage_error, Flags};
use lodsel::report::Table;
use simcal::prelude::Budget;
use std::fmt::Display;
use std::time::Duration;

const USAGE: &str = "flags: --budget-evals N | --budget-secs S | --seed S | --fast | \
                     --tsv PATH | --cache DIR";
const SWEEP_USAGE: &str = "flags: --budget-evals N | --budget-secs S | --seed S | --fast | \
                           --tsv PATH | --cache DIR | --uncalibrated | --ledger PATH | \
                           --epsilon F | --trace PATH";

/// Parsed common arguments.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Per-calibration budget.
    pub budget: Budget,
    /// Master seed.
    pub seed: u64,
    /// Reduced-grid smoke mode.
    pub fast: bool,
    /// Optional TSV output path.
    pub tsv: Option<String>,
    /// Optional persistent loss-cache directory (already installed).
    pub cache: Option<String>,
    /// Include the uncalibrated spec-based baseline (sweep figures only).
    pub(crate) uncalibrated: bool,
    /// Optional lodsel run-ledger path (sweep figures only).
    pub(crate) ledger: Option<String>,
    /// Recommendation tolerance (sweep figures only).
    pub(crate) epsilon: f64,
    /// Optional JSONL trace output path (sweep figures only).
    pub(crate) trace: Option<String>,
    /// The flags this binary reads, printed with a usage error.
    usage: &'static str,
}

impl ExpArgs {
    /// Parse the common flags from `std::env::args`, with a default
    /// evaluation budget, and install `--cache` if given.
    ///
    /// Exits with status 2 on an unknown flag.
    pub fn parse(default_evals: usize) -> ExpArgs {
        Self::parse_flags(default_evals, false)
    }

    /// [`ExpArgs::parse`] plus the flags only the sweep figures read.
    pub fn parse_sweep(default_evals: usize) -> ExpArgs {
        Self::parse_flags(default_evals, true)
    }

    fn parse_flags(default_evals: usize, sweep: bool) -> ExpArgs {
        let mut budget_evals = default_evals;
        let mut budget_secs: Option<f64> = None;
        let mut parsed = ExpArgs {
            budget: Budget::Evaluations(default_evals),
            seed: 20250706,
            fast: false,
            tsv: None,
            cache: None,
            uncalibrated: false,
            ledger: None,
            epsilon: 0.1,
            trace: None,
            usage: if sweep { SWEEP_USAGE } else { USAGE },
        };

        let mut flags = Flags::from_env(parsed.usage);
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--budget-evals" => budget_evals = flags.value(&flag),
                "--budget-secs" => budget_secs = Some(flags.value(&flag)),
                "--seed" => parsed.seed = flags.value(&flag),
                "--fast" => parsed.fast = true,
                "--tsv" => parsed.tsv = Some(flags.value(&flag)),
                "--cache" => parsed.cache = Some(flags.value(&flag)),
                "--uncalibrated" if sweep => parsed.uncalibrated = true,
                "--ledger" if sweep => parsed.ledger = Some(flags.value(&flag)),
                "--epsilon" if sweep => parsed.epsilon = flags.value(&flag),
                "--trace" if sweep => parsed.trace = Some(flags.value(&flag)),
                other => flags.unknown(other),
            }
        }

        parsed.budget = match budget_secs {
            Some(s) => Budget::WallClock(Duration::from_secs_f64(s)),
            None => Budget::Evaluations(budget_evals),
        };
        if let Some(dir) = &parsed.cache {
            simcal::cache::install(dir);
        }
        parsed
    }

    /// A usage error: print `msg` and this binary's flags, exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        usage_error(self.usage, msg)
    }

    /// Write `table` to the TSV path if one was requested.
    pub fn maybe_write_tsv(&self, table: &Table) {
        if let Some(path) = &self.tsv {
            if let Err(e) = table.write_tsv(std::path::Path::new(path)) {
                obs::diag!("failed to write {path}: {e}");
            } else {
                obs::diag!("wrote {path}");
            }
        }
    }
}
