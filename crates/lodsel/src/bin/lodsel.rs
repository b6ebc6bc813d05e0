//! Standalone level-of-detail selection driver.
//!
//! Sweeps one of the four simulator families — calibrating every version
//! with multi-start, scoring held-out accuracy against deterministic
//! simulation cost — and prints the per-version table plus the ranked
//! ε-recommendation. With `--ledger`, completed work is checkpointed so an
//! interrupted sweep resumes (bit-for-bit) instead of starting over;
//! `--status` summarizes a ledger without running anything. With
//! `--trace`, the sweep records a JSONL trace (spans, counters,
//! histograms); `--trace-report` summarizes such a file into a per-phase
//! time table without running anything.
//!
//! Output convention: result tables go to stdout, diagnostics go to
//! stderr (prefixed with the program name), machine-readable data goes
//! to `--ledger`/`--trace` files.

use lodsel::cli::{record_sweep, usage_error, BudgetFlags, Flags};
use lodsel::prelude::*;

const USAGE: &str = "\
usage: lodsel [options]
  --family <name>          family to sweep: wf, mpi, batch, or grid
                           (default: batch)
  --fast                   shrunken experiment grid for smoke runs
  --budget-evals <n>       per-run evaluation budget (default: 60)
  --total-evals <n>        instead: one shared budget divided fairly
  --budget sh:T:E[:M]      instead: successive halving — total budget T
                           split over log_E rungs, top 1/E promoted per
                           rung, scenario subsets growing to the full set
                           (M = minimum subset size, default 1); T is
                           the total, so --total-evals is refused with it
  --restarts <n>           calibration restarts per unit (default: 2)
  --seed <n>               master seed (default: 42)
  --epsilon <f>            recommendation tolerance (default: 0.1)
  --max-fault-retries <n>  resume retries for failed runs (default: 2)
  --cache <dir>            persistent loss-cache directory (overrides the
                           CALIB_CACHE environment variable)
  --ledger <path>          JSONL run ledger to checkpoint to / resume from
  --status                 summarize the ledger (requires --ledger) and exit
  --status-json            like --status, but one machine-readable JSON line
  --trace <path>           record a JSONL trace of the sweep to <path>
  --trace-report <path>    summarize a recorded trace and exit
  --help                   print this help";

struct Opts {
    family: String,
    fast: bool,
    budget: BudgetFlags,
    restarts: usize,
    seed: u64,
    epsilon: f64,
    max_fault_retries: usize,
    cache: Option<String>,
    ledger: Option<String>,
    status: bool,
    status_json: bool,
    trace: Option<String>,
    trace_report: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        family: "batch".into(),
        fast: false,
        budget: BudgetFlags::new(60),
        restarts: 2,
        seed: 42,
        epsilon: 0.1,
        max_fault_retries: 2,
        cache: None,
        ledger: None,
        status: false,
        status_json: false,
        trace: None,
        trace_report: None,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--family" => opts.family = flags.value(&flag),
            "--fast" => opts.fast = true,
            "--restarts" => opts.restarts = flags.value(&flag),
            "--seed" => opts.seed = flags.value(&flag),
            "--epsilon" => opts.epsilon = flags.value(&flag),
            "--max-fault-retries" => opts.max_fault_retries = flags.value(&flag),
            "--cache" => opts.cache = Some(flags.value(&flag)),
            "--ledger" => opts.ledger = Some(flags.value(&flag)),
            "--status" => opts.status = true,
            "--status-json" => opts.status_json = true,
            "--trace" => opts.trace = Some(flags.value(&flag)),
            "--trace-report" => opts.trace_report = Some(flags.value(&flag)),
            other if opts.budget.read(other, &mut flags) => {}
            other => flags.unknown(other),
        }
    }
    opts
}

fn print_status(path: &str, json: bool) {
    let events = match Ledger::read(path) {
        Ok(events) => events,
        Err(e) => usage_error(USAGE, format_args!("cannot read ledger {path}: {e}")),
    };
    let status = ledger_status(&events);
    if json {
        let line = serde_json::to_string(&status)
            .unwrap_or_else(|e| usage_error(USAGE, format_args!("cannot serialize status: {e}")));
        println!("{line}");
    } else {
        print!("{}", status.render_text(path));
    }
}

fn print_trace_report(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(USAGE, format_args!("cannot read trace {path}: {e}")));
    let trace = parse_trace(&text)
        .unwrap_or_else(|e| usage_error(USAGE, format_args!("cannot parse trace {path}: {e}")));
    print!("{}", render_report(&trace));
}

fn main() {
    let opts = parse_opts();
    if let Some(path) = &opts.trace_report {
        print_trace_report(path);
        return;
    }
    if opts.status || opts.status_json {
        match &opts.ledger {
            Some(path) => print_status(path, opts.status_json),
            None => usage_error(USAGE, "--status requires --ledger"),
        }
        return;
    }

    let family = lodsel::families::paper(&opts.family, opts.fast, opts.seed)
        .unwrap_or_else(|e| usage_error(USAGE, e));
    let config = SweepConfig {
        budget: opts.budget.policy(),
        restarts: opts.restarts,
        seed: opts.seed,
        epsilon: opts.epsilon,
        max_fault_retries: opts.max_fault_retries,
        cache: opts.cache.as_ref().map(std::path::PathBuf::from),
    };
    let outcome = record_sweep(opts.ledger.as_deref(), opts.trace.as_deref(), |ledger| {
        obs::diag!(
            "sweeping family {} ({} units, {} restarts)",
            family.name(),
            family.units().len(),
            config.restarts,
        );
        try_run_sweep(family.as_ref(), &config, ledger)
    })
    .unwrap_or_else(|e| usage_error(USAGE, format_args!("cannot run sweep: {e}")));

    // The rung ladder first: it explains where the budget went before the
    // per-version table shows what it bought.
    if let Some(sh) = &outcome.sh {
        let mut rungs = Table::new(&[
            "rung",
            "entrants",
            "run budget",
            "scenarios",
            "promoted",
            "failed",
        ]);
        for r in &sh.rungs {
            rungs.row(vec![
                r.rung.to_string(),
                r.entrants.to_string(),
                r.budget.to_string(),
                if r.scenario_denom <= 1 {
                    "full".to_string()
                } else {
                    format!("1/{}", r.scenario_denom)
                },
                r.promoted.to_string(),
                r.failed.to_string(),
            ]);
        }
        println!(
            "successive halving (eta {}, total {}, planned {} evaluations):",
            sh.eta, sh.total, sh.planned_evaluations
        );
        println!("{}", rungs.render());
    }

    let front = front_flags(&outcome.versions);
    let chosen = outcome
        .recommendation
        .as_ref()
        .map(|r| r.chosen.clone())
        .unwrap_or_default();
    let mut table = Table::new(&[
        "version",
        "params",
        "test err (%)",
        "sim work",
        "wall (s)",
        "pareto",
        "pick",
    ]);
    for (v, on_front) in outcome.versions.iter().zip(&front) {
        table.row(vec![
            v.label.clone(),
            v.dim.to_string(),
            pct(v.test_error),
            v.work_units.to_string(),
            format!("{:.2}", v.wall_secs),
            if *on_front { "*" } else { "" }.to_string(),
            if v.label == chosen { "<==" } else { "" }.to_string(),
        ]);
    }
    println!("{}", table.render());
    // Only degraded sweeps print the failure table, so fault-free stdout
    // stays byte-identical to what it was before failures existed.
    if !outcome.failures.is_empty() {
        let mut failed = Table::new(&["version", "unit", "restart", "stage", "attempt", "reason"]);
        for f in &outcome.failures {
            failed.row(vec![
                f.version.clone(),
                f.unit.clone(),
                f.restart.to_string(),
                f.stage.clone(),
                format!("{}{}", f.attempt, if f.retriable { "" } else { " (final)" }),
                f.reason.clone(),
            ]);
        }
        println!("failed runs ({}):", outcome.failures.len());
        println!("{}", failed.render());
    }
    match &outcome.recommendation {
        Some(rec) => print!("{}", render_recommendation(rec)),
        None => println!("no recommendation: every version failed or none has a finite test error"),
    }
}
