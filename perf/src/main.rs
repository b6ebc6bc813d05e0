//! `lodcal-perf`: the repository's benchmark.
//!
//! ```text
//! lodcal-perf run --workload NAME [--seed S] [--seconds N] [--trace 0|1 | --traced]
//! lodcal-perf all [--seed S] [--seconds N] [--traced]
//! lodcal-perf aa  [--sets 2] [--seed S] [--seconds N]
//! ```
//!
//! `run` measures one workload in this process (so peak memory and the
//! lazily built global pool are per workload), checks its outputs, prints
//! every metric as `workload metric value unit`, and ends with one JSON
//! object. `all` runs the seven workloads one after another, each in a
//! child process; `aa` runs them all several times on the same build and
//! holds the sets against each other and the metrics' bounds.
//!
//! Closed loop, one process, the pool pinned to one thread: see README.md.

mod kernelgen;
mod metrics;
mod probes;
mod stamp;
mod stats;
mod surface;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use stamp::Stamp;
use stats::Tally;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Ctx, Tracer};
use workloads::{Rep, Workload};

/// The repo's experiment seed.
const DEFAULT_SEED: u64 = 20250706;
const DEFAULT_SECONDS: f64 = 10.0;
/// Repetitions never drop below this, however slow the host.
const MIN_REPS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
    threads: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lodcal-perf run --workload NAME [--seed S] [--seconds N] [--trace 0|1 | --traced]\n\
         \x20      lodcal-perf all [--seed S] [--seconds N] [--traced]\n\
         \x20      lodcal-perf aa [--sets N] [--seed S] [--seconds N]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_flags(flags: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 2,
        threads: 1,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value()?)?),
            "--seed" => args.seed = value()?.parse().ok()?,
            "--seconds" => args.seconds = value()?.parse().ok().filter(|s| *s >= 0.0)?,
            "--trace" => {
                args.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--traced" => args.traced = true,
            "--sets" => args.sets = value()?.parse().ok().filter(|n| *n >= 2)?,
            // Only `pool.par_speedup` runs a child at more than one thread.
            "--threads" => args.threads = value()?.parse().ok().filter(|n| *n >= 1)?,
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = parse_flags(flags) else {
        return usage();
    };
    match (command.as_str(), args.workload) {
        ("run", Some(workload)) => run(workload, &args),
        ("all", None) => all(&args),
        ("aa", None) => aa(&args),
        _ => usage(),
    }
}

// ---------------------------------------------------------------------------
// run: one workload in this process
// ---------------------------------------------------------------------------

/// The untraced repetitions of a run, reduced to the end-to-end metrics.
struct Summary {
    setup_s: f64,
    /// Read when the untraced repetitions end: the probes of a traced run
    /// would add to it.
    peak_rss_mb: f64,
    walls: Vec<f64>,
    tail: Option<(f64, f64)>,
    rerun_s: Option<f64>,
    evaluations: Option<u64>,
    error_pct: Option<f64>,
    inputs: u64,
    digest: String,
    tally: Tally,
    violations: Vec<String>,
}

impl Summary {
    fn of(reps: &[Rep]) -> Self {
        let first = &reps[0];
        let mut tally = Tally::default();
        let mut violations = Vec::new();
        for (i, rep) in reps.iter().enumerate() {
            tally.merge(rep.tally);
            violations.extend(rep.violations.iter().map(|v| format!("rep {i}: {v}")));
            // Same seed, same inputs, same answer: a digest, an evaluation
            // count or a held-out error that moves between repetitions is
            // a determinism bug, whatever the timings say.
            if rep.inputs != first.inputs {
                violations.push(format!(
                    "rep {i} generated inputs {:016x}, rep 0 {:016x}",
                    rep.inputs, first.inputs
                ));
            }
            if (&rep.digest, rep.evaluations, rep.error_pct)
                != (&first.digest, first.evaluations, first.error_pct)
            {
                violations.push(format!(
                    "rep {i} answered {} ({:?} evals, error {:?}), rep 0 answered {} ({:?}, {:?})",
                    rep.digest,
                    rep.evaluations,
                    rep.error_pct,
                    first.digest,
                    first.evaluations,
                    first.error_pct
                ));
            }
        }
        if tally.failed > 0 {
            violations.push(format!(
                "{} of {} operations failed on a fault-free build",
                tally.failed, tally.attempted
            ));
        }
        let walls: Vec<f64> = reps.iter().flat_map(|r| r.walls.iter().copied()).collect();
        if walls.is_empty() {
            violations.push("no repetition produced a timing".into());
        }
        let reruns: Vec<f64> = reps.iter().filter_map(|r| r.rerun_s).collect();
        Summary {
            setup_s: stats::median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            peak_rss_mb: stamp::peak_rss_mb(),
            tail: stats::tail(&walls),
            walls,
            rerun_s: (!reruns.is_empty()).then(|| stats::median(&reruns)),
            evaluations: first.evaluations,
            error_pct: first.error_pct,
            inputs: first.inputs,
            digest: first.digest.clone(),
            tally,
            violations,
        }
    }

    /// 0 if every repetition failed; the run is marked incorrect then.
    fn wall_s(&self) -> f64 {
        if self.walls.is_empty() {
            return 0.0;
        }
        stats::median(&self.walls)
    }

    /// Every end-to-end metric that is defined on this workload.
    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::from([
            ("setup_s", self.setup_s),
            ("wall_s", self.wall_s()),
            ("peak_rss_mb", self.peak_rss_mb),
            ("failed_fraction", self.tally.failed_fraction()),
        ]);
        if let Some((_, value)) = self.tail {
            m.insert("wall_tail_s", value);
        }
        if let Some(v) = self.rerun_s {
            m.insert("rerun_s", v);
        }
        if let Some(v) = self.evaluations {
            m.insert("evals_to_recommendation", v as f64);
        }
        if let Some(v) = self.error_pct {
            m.insert("recommended_error_pct", v);
        }
        m
    }
}

fn json_metrics<'a>(values: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = values
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(workload: Workload, args: &Args) -> ExitCode {
    // Before the first use of the pool, which reads it once. One thread:
    // at two on a two-core shared host, repetitions of one sweep land on
    // 1.01 s or 1.27 s depending on whether the second core is free; at
    // one, run medians stay within 3 % (README.md).
    std::env::set_var("CALIB_THREADS", args.threads.to_string());
    let name = workload.name();
    let stamp = Stamp::detect();
    println!(
        "# lodcal-perf workload={name} seed={} seconds={} traced={} threads={}",
        args.seed, args.seconds, args.traced, args.threads
    );
    println!("# host {}", stamp.json_fields());
    println!("# sizes {}", workload.sizes());

    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        reps.push(workloads::run_rep(
            workload,
            args.seed,
            reps.len(),
            Ctx::OFF,
        ));
    }
    let mut summary = Summary::of(&reps);

    let mut layer = None;
    if args.traced {
        match traced(workload, args, &stamp, &summary, reps.len()) {
            Ok((values, tally)) => {
                summary.tally.merge(tally);
                layer = Some(values);
            }
            Err(violations) => summary.violations.extend(violations),
        }
    }

    let end_to_end = summary.end_to_end();
    for m in &END_TO_END {
        if let Some(value) = end_to_end.get(m.name) {
            println!("{name} {} {value} {}", m.name, m.unit);
        }
    }
    if let Some((percentile, _)) = summary.tail {
        println!("{name} wall_tail_percentile {percentile} %");
    }
    if !summary.walls.is_empty() {
        println!("{name} wall_s.min {} s", stats::min(&summary.walls));
        println!(
            "{name} wall_s.q1 {} s",
            stats::quantile(&summary.walls, 0.25)
        );
        println!(
            "{name} wall_s.q3 {} s",
            stats::quantile(&summary.walls, 0.75)
        );
    }
    println!("{name} wall_s.samples {} count", summary.walls.len());
    println!("{name} reps {} count", reps.len());
    println!("{name} attempted {} count", summary.tally.attempted);
    println!("{name} inputs {:016x} hex", summary.inputs);
    println!("{name} digest {} hex", summary.digest);
    if let Some(values) = &layer {
        // The end-to-end metrics among them are printed above.
        for (metric, unit) in PER_LAYER {
            if !END_TO_END.iter().any(|m| m.name == *metric) {
                println!("{name} {metric} {} {unit}", values[metric]);
            }
        }
    }
    for violation in &summary.violations {
        println!("{name} VIOLATION {violation}");
    }

    let metrics = match &layer {
        Some(values) => json_metrics(PER_LAYER.iter().map(|(n, u)| (*n, values[n], *u))),
        None => json_metrics(
            END_TO_END
                .iter()
                .filter(|m| m.everywhere)
                .map(|m| (m.name, end_to_end[m.name], m.unit)),
        ),
    };
    let correct = summary.violations.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        summary.tally.attempted.max(1),
        summary.tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced repetition and the layer probes. Returns every per-layer
/// metric by name, or the checks that failed.
fn traced(
    workload: Workload,
    args: &Args,
    stamp: &Stamp,
    untraced: &Summary,
    rep_index: usize,
) -> Result<(BTreeMap<&'static str, f64>, Tally), Vec<String>> {
    let tracer = Tracer::new();
    let mut values: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut violations = Vec::new();

    let (rep, readout, probed) = Ctx::root(&tracer).span("workload", |ctx| {
        // The program's own recorder is on for this one repetition only,
        // to read the counters and the histogram it already keeps.
        let recorder = surface::ObsProbe::install();
        let rep = ctx.in_rep(rep_index).span("rep", |c| {
            workloads::run_rep(workload, args.seed, rep_index, c)
        });
        let readout = recorder.uninstall();
        (rep, readout, probes::run(args.seed, ctx))
    });
    violations.extend(rep.violations.iter().map(|v| format!("traced rep: {v}")));
    if rep.digest != untraced.digest {
        violations.push(format!(
            "traced rep answered {}, untraced {}",
            rep.digest, untraced.digest
        ));
    }

    for (metric, value) in &rep.layer {
        *values.get_mut(metric).expect("registered metric") = *value;
    }
    match probed {
        Ok(ref probed) => {
            for (metric, value) in &probed.layer {
                *values.get_mut(metric.as_str()).expect("registered metric") = *value;
            }
        }
        Err(ref e) => violations.push(format!("probes: {e}")),
    }
    for (metric, value) in untraced.end_to_end() {
        if let Some(slot) = values.get_mut(metric) {
            *slot = value;
        }
    }
    if let Some((percentile, _)) = untraced.tail {
        values.insert("wall_tail_percentile", percentile);
    }
    if rep.calibrate_s > 0.0 && readout.objective_calls > 0 {
        let calls = readout.objective_calls as f64;
        values.insert("simcal.sim_share", readout.eval_latency_s / rep.calibrate_s);
        values.insert(
            "simcal.opt_ms_per_eval",
            (rep.calibrate_s - readout.eval_latency_s) / calls * 1e3,
        );
        values.insert(
            "dessim.events_per_eval",
            readout.kernel_events as f64 / calls,
        );
    }
    if !rep.walls.is_empty() && untraced.wall_s() > 0.0 {
        values.insert(
            "obs.trace_overhead_pct",
            (stats::median(&rep.walls) / untraced.wall_s() - 1.0) * 100.0,
        );
    }
    let spans = tracer.spans();
    let gap = trace::rep_self_sum_error(&spans);
    values.insert("trace.self_sum_error_pct", gap * 100.0);
    if gap > 0.02 {
        violations.push(format!(
            "self times sum to the rep's wall time only within {:.1} %",
            gap * 100.0
        ));
    }
    for (metric, value) in values.iter_mut() {
        if !value.is_finite() {
            violations.push(format!("{metric} is {value}"));
            *value = 0.0;
        }
    }

    match write_trace(workload, args, stamp, &spans, &readout, &values, &probed) {
        Ok(path) => println!("# trace {}", path.display()),
        Err(e) => violations.push(format!("cannot write the trace file: {e}")),
    }

    if workload == Workload::WfSim {
        par_speedup(args, stamp, untraced.wall_s());
    }
    if violations.is_empty() {
        Ok((values, rep.tally))
    } else {
        Err(violations)
    }
}

/// The trace file, written when the run ends: header, spans with self
/// times, the program's counters, every metric, the per-version cost tables.
fn write_trace(
    workload: Workload,
    args: &Args,
    stamp: &Stamp,
    spans: &[trace::Span],
    readout: &surface::ObsReadout,
    values: &BTreeMap<&'static str, f64>,
    probed: &Result<probes::Probed, String>,
) -> std::io::Result<std::path::PathBuf> {
    let name = workload.name();
    let mut lines = vec![format!(
        "{{\"event\":\"meta\",\"schema\":\"lodcal-perf-trace\",\"version\":1,\
         \"workload\":\"{name}\",\"seed\":{},\"threads\":{},\"sizes\":\"{}\",{}}}",
        args.seed,
        args.threads,
        workload.sizes(),
        stamp.json_fields()
    )];
    let own = trace::self_times_ns(spans);
    lines.extend(
        spans
            .iter()
            .zip(&own)
            .map(|(s, &ns)| trace::span_json(name, s, ns)),
    );
    for (counter, value) in [
        ("kernel_events", readout.kernel_events as f64),
        ("objective_calls", readout.objective_calls as f64),
        ("disk_cache_hits", readout.disk_cache_hits as f64),
        ("eval_latency_secs", readout.eval_latency_s),
    ] {
        lines.push(format!(
            "{{\"event\":\"count\",\"workload\":\"{name}\",\"name\":\"{counter}\",\"value\":{value}}}"
        ));
    }
    for (metric, unit) in PER_LAYER {
        lines.push(format!(
            "{{\"event\":\"metric\",\"workload\":\"{name}\",\"name\":\"{metric}\",\
             \"value\":{},\"unit\":\"{unit}\"}}",
            values[metric]
        ));
    }
    if let Ok(probed) = probed {
        for (kind, costs) in &probed.version_costs {
            for c in costs {
                lines.push(format!(
                    "{{\"event\":\"version_cost\",\"family\":\"{}\",\"version\":\"{}\",\
                     \"scenarios\":{},\"work_units\":{},\"secs\":{}}}",
                    kind.name(),
                    c.label,
                    c.scenarios,
                    c.work_units,
                    c.secs
                ));
            }
        }
    }
    let path = stamp::out_dir().join(format!("trace-{name}.jsonl"));
    std::fs::create_dir_all(stamp::out_dir())?;
    std::fs::write(&path, lines.join("\n") + "\n")?;
    Ok(path)
}

/// `pool.par_speedup`: `wf_sim` once more in a child process at four
/// threads. With fewer than four cores there are more threads than cores to
/// run them, and no wall-clock scaling is reported.
fn par_speedup(args: &Args, stamp: &Stamp, one_thread_wall_s: f64) {
    let name = Workload::WfSim.name();
    if stamp.cores < 4 {
        println!(
            "# {name} pool.par_speedup omitted: {} cores, needs 4",
            stamp.cores
        );
        return;
    }
    let child = child_run(Workload::WfSim, args.seed, 0.0, false, 4);
    match child.and_then(|c| c.metric("wall_s").ok_or("child printed no wall_s".into())) {
        Ok(wall) => println!("{name} pool.par_speedup {} ratio", one_thread_wall_s / wall),
        Err(e) => println!("# {name} pool.par_speedup omitted: {e}"),
    }
}

// ---------------------------------------------------------------------------
// all, aa: every workload, each in a child process
// ---------------------------------------------------------------------------

/// What a child `run` printed: its metric lines and whether it passed.
struct ChildRun {
    lines: Vec<String>,
    passed: bool,
}

impl ChildRun {
    /// The third field of the line `workload metric value unit`.
    fn field(&self, metric: &str) -> Option<&str> {
        self.lines.iter().find_map(|l| {
            let mut words = l.split_whitespace().skip(1);
            (words.next()? == metric).then(|| words.next())?
        })
    }

    fn metric(&self, metric: &str) -> Option<f64> {
        self.field(metric)?.parse().ok()
    }
}

fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    Ok(ChildRun {
        lines: String::from_utf8_lossy(&output.stdout)
            .lines()
            .map(str::to_string)
            .collect(),
        passed: output.status.success(),
    })
}

fn all(args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        match child_run(workload, args.seed, args.seconds, args.traced, args.threads) {
            Ok(child) => {
                for line in &child.lines {
                    println!("{line}");
                }
                if !child.passed {
                    failed.push(workload.name());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed.push(workload.name());
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}

/// A/A: the same build against itself. Every set runs every workload; each
/// later set is held against the first, metric by metric, beside the
/// metric's bound. Counts, errors and digests must repeat exactly.
fn aa(args: &Args) -> ExitCode {
    let mut sets: Vec<Vec<ChildRun>> = Vec::new();
    let mut ok = true;
    for set in 0..args.sets {
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            eprintln!("aa: set {set} {}", workload.name());
            match child_run(workload, args.seed, args.seconds, false, args.threads) {
                Ok(child) => {
                    ok &= child.passed;
                    runs.push(child);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(runs);
    }
    println!(
        "# aa seed={} seconds={} sets={}",
        args.seed, args.seconds, args.sets
    );
    println!("workload metric set0 setN rel_diff bound verdict");
    for (w, workload) in Workload::ALL.iter().enumerate() {
        let base = &sets[0][w];
        for (n, later) in sets.iter().enumerate().skip(1) {
            let other = &later[w];
            for m in &END_TO_END {
                let (Some(a), Some(b)) = (base.metric(m.name), other.metric(m.name)) else {
                    continue;
                };
                let diff = if a == b { 0.0 } else { (b - a).abs() / a.abs() };
                let within = diff <= m.bound;
                ok &= within;
                println!(
                    "{} {} {a} {b} {diff:.4} {} {}",
                    workload.name(),
                    m.name,
                    m.bound,
                    if within { "ok" } else { "EXCEEDS" }
                );
            }
            let same =
                base.field("digest").is_some() && base.field("digest") == other.field("digest");
            ok &= same;
            println!(
                "{} digest {} {} set{n} {}",
                workload.name(),
                base.field("digest").unwrap_or("-"),
                other.field("digest").unwrap_or("-"),
                if same { "ok" } else { "DIFFERS" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
