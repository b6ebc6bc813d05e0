//! The command line every binary of the workspace shares: one argv reader
//! ([`Flags`]), one grammar for the sweep budget flags ([`BudgetFlags`]),
//! and the `--ledger`/`--trace` set-up around a sweep ([`record_sweep`]).
//!
//! A usage error is one stderr line in one style — `<prog>: missing value
//! for F`, `<prog>: invalid F: <reason>` or `<prog>: unknown option X` —
//! then the binary's usage, and exit status 2. `--help` prints the usage
//! to stdout and exits 0.

use crate::ledger::Ledger;
use crate::sweep::BudgetPolicy;
use simcal::prelude::Budget;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

/// Print `<prog>: msg` and `usage` to stderr, then exit with status 2.
pub fn usage_error(usage: &str, msg: impl Display) -> ! {
    obs::diag!("{msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// An argv reader: iterate it for the flags, and take a flag's value with
/// [`Flags::value`]. Iteration answers `--help` and `-h` itself.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Flags {
    /// Read `args`, the arguments after the program name; `usage` is
    /// printed with every usage error.
    pub fn new(args: impl IntoIterator<Item = String>, usage: &'static str) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        Flags {
            args: args.into_iter(),
            usage,
        }
    }

    /// Read this process's arguments.
    pub fn from_env(usage: &'static str) -> Flags {
        Flags::new(std::env::args().skip(1), usage)
    }

    /// The argument after `flag`, parsed. A missing or malformed value is
    /// a usage error.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let Some(text) = self.args.next() else {
            self.fail(format_args!("missing value for {flag}"));
        };
        text.parse()
            .unwrap_or_else(|e| self.fail(format_args!("invalid {flag}: {e}")))
    }

    /// `arg` is no flag of this binary: a usage error.
    pub fn unknown(&self, arg: &str) -> ! {
        self.fail(format_args!("unknown option {arg}"))
    }

    /// A usage error with this binary's usage.
    pub fn fail(&self, msg: impl Display) -> ! {
        usage_error(self.usage, msg)
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }
}

/// The sweep budget flags: `--budget-evals N` per run, `--total-evals N`
/// shared by the whole plan, or `--budget sh:TOTAL:ETA[:MIN]` for
/// successive halving. The fields are the budget fields of calibd's wire
/// `JobSpec`, so a submitted job and an in-process sweep read one
/// mapping, [`BudgetFlags::policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetFlags {
    /// Per-run evaluation budget, used when no total is set.
    pub budget_evals: usize,
    /// Shared total: `--total-evals`, or the `TOTAL` of `--budget sh:`.
    pub total_evals: Option<usize>,
    /// Successive-halving elimination factor (`ETA`).
    pub sh_eta: Option<usize>,
    /// Minimum scenario-subset size per rung (`MIN`).
    pub sh_min_scenarios: Option<usize>,
}

impl BudgetFlags {
    /// No budget flag given: `budget_evals` per run.
    pub fn new(budget_evals: usize) -> BudgetFlags {
        BudgetFlags {
            budget_evals,
            total_evals: None,
            sh_eta: None,
            sh_min_scenarios: None,
        }
    }

    /// Read `flag` and its value if it is a budget flag, and say whether
    /// it was. `--budget sh:` with `--total-evals`, in either order, is a
    /// usage error: the spec carries its own total.
    pub fn read(&mut self, flag: &str, flags: &mut Flags) -> bool {
        const BOTH: &str = "--budget sh: carries its own total; drop --total-evals";
        match flag {
            "--budget-evals" => self.budget_evals = flags.value(flag),
            "--total-evals" => {
                let total = flags.value(flag);
                if self.sh_eta.is_some() {
                    flags.fail(BOTH);
                }
                self.total_evals = Some(total);
            }
            "--budget" => {
                let ShSpec(total, eta, min_scenarios) = flags.value(flag);
                if self.total_evals.is_some() && self.sh_eta.is_none() {
                    flags.fail(BOTH);
                }
                self.total_evals = Some(total);
                self.sh_eta = Some(eta);
                self.sh_min_scenarios = min_scenarios;
            }
            _ => return false,
        }
        true
    }

    /// The policy the flags name: successive halving when an `ETA` comes
    /// with a total, else a fair split of the total, else `budget_evals`
    /// per run.
    pub fn policy(&self) -> BudgetPolicy {
        match (self.total_evals, self.sh_eta) {
            (Some(total), Some(eta)) => BudgetPolicy::SuccessiveHalving {
                total,
                eta,
                min_scenarios: self.sh_min_scenarios.unwrap_or(1),
            },
            (Some(total), None) => BudgetPolicy::TotalEvaluations { total },
            (None, _) => BudgetPolicy::PerRun {
                budget: Budget::Evaluations(self.budget_evals),
            },
        }
    }
}

/// A `--budget sh:TOTAL:ETA[:MIN]` spec as (`TOTAL`, `ETA`, `MIN`); its
/// `FromStr` is the only parser of that grammar.
#[derive(Debug, PartialEq, Eq)]
struct ShSpec(usize, usize, Option<usize>);

impl FromStr for ShSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<ShSpec, String> {
        let shape = || format!("want sh:TOTAL:ETA[:MIN], got {spec}");
        let fields: Vec<&str> = spec
            .strip_prefix("sh:")
            .ok_or_else(shape)?
            .split(':')
            .collect();
        let (total, eta, min) = match fields[..] {
            [total, eta] => (total, eta, None),
            [total, eta, min] => (total, eta, Some(min)),
            _ => return Err(shape()),
        };
        let field = |name: &str, text: &str| {
            text.parse::<usize>()
                .map_err(|e| format!("{name} {text:?} in {spec}: {e}"))
        };
        Ok(ShSpec(
            field("TOTAL", total)?,
            field("ETA", eta)?,
            min.map(|m| field("MIN", m)).transpose()?,
        ))
    }
}

/// Run `sweep` against the ledger at `ledger` and record it to a trace
/// at `trace`, each if given. A ledger that cannot be opened exits with
/// status 2 — a requested ledger never degrades silently to a
/// non-resumable sweep — while a trace that cannot be written is only
/// reported, since the sweep's results are still good.
pub fn record_sweep<T>(
    ledger: Option<&str>,
    trace: Option<&str>,
    sweep: impl FnOnce(Option<&Ledger>) -> T,
) -> T {
    let ledger = ledger.map(|path| {
        Ledger::open(path).unwrap_or_else(|e| {
            obs::diag!("cannot open ledger {path}: {e}");
            std::process::exit(2);
        })
    });
    let recorder = trace.map(|_| {
        let rec = Arc::new(obs::TraceRecorder::new());
        obs::install(rec.clone());
        rec
    });
    let out = sweep(ledger.as_ref());
    if let (Some(path), Some(rec)) = (trace, recorder) {
        obs::uninstall();
        match rec.write_jsonl(std::path::Path::new(path)) {
            Ok(()) => obs::diag!("wrote trace {path}"),
            Err(e) => obs::diag!("failed to write trace {path}: {e}"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The policy `args` name, read the way a binary reads them.
    fn policy(args: &[&str]) -> BudgetPolicy {
        let mut flags = Flags::new(args.iter().map(|a| a.to_string()), "usage");
        let mut budget = BudgetFlags::new(60);
        while let Some(flag) = flags.next() {
            assert!(budget.read(&flag, &mut flags), "{flag} is a budget flag");
        }
        budget.policy()
    }

    #[test]
    fn budget_flags_map_to_one_policy() {
        let sh = |total, eta, min_scenarios| BudgetPolicy::SuccessiveHalving {
            total,
            eta,
            min_scenarios,
        };
        let per_run = |n| BudgetPolicy::PerRun {
            budget: Budget::Evaluations(n),
        };
        let cases: [(&[&str], BudgetPolicy); 8] = [
            (&[], per_run(60)),
            (&["--budget-evals", "12"], per_run(12)),
            (
                &["--total-evals", "30"],
                BudgetPolicy::TotalEvaluations { total: 30 },
            ),
            (
                &["--total-evals", "30", "--budget-evals", "12"],
                BudgetPolicy::TotalEvaluations { total: 30 },
            ),
            (&["--budget", "sh:24:2"], sh(24, 2, 1)),
            (&["--budget", "sh:24:2:3"], sh(24, 2, 3)),
            (
                &["--budget-evals", "12", "--budget", "sh:24:2"],
                sh(24, 2, 1),
            ),
            // The last spec wins whole: its MIN does not inherit.
            (
                &["--budget", "sh:24:2:3", "--budget", "sh:96:4"],
                sh(96, 4, 1),
            ),
        ];
        for (args, want) in cases {
            assert_eq!(policy(args), want, "{args:?}");
        }
    }

    #[test]
    fn sh_spec_grammar() {
        assert_eq!("sh:24:2:3".parse(), Ok(ShSpec(24, 2, Some(3))));
        assert_eq!("sh:24:2".parse(), Ok(ShSpec(24, 2, None)));
        for bad in [
            "24:2",
            "sh:24",
            "sh:24:2:3:4",
            "sh:24:x",
            "sh:-1:2",
            "hb:24:2",
            "sh:",
        ] {
            let err = bad.parse::<ShSpec>().unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn values_are_parsed_in_order() {
        let mut flags = Flags::new(
            ["--seed", "7", "--fast", "--epsilon", "0.25"].map(String::from),
            "usage",
        );
        assert_eq!(flags.next().as_deref(), Some("--seed"));
        assert_eq!(flags.value::<u64>("--seed"), 7);
        assert_eq!(flags.next().as_deref(), Some("--fast"));
        assert_eq!(flags.next().as_deref(), Some("--epsilon"));
        assert_eq!(flags.value::<f64>("--epsilon"), 0.25);
        assert_eq!(flags.next(), None);
    }
}
