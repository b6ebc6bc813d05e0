//! Trace-file summarization: parse a versioned `lodcal-trace` JSONL
//! file (written via `--trace` on the experiment binaries) and reduce
//! it to a per-phase time/percentage table plus counter and histogram
//! summaries — the `lodsel --trace-report` subcommand.
//!
//! The schema is produced by `obs::TraceRecorder` and documented in
//! `obs::trace`; after the strict header line it reads like every
//! [`simcal::jsonl`] log: unparseable lines are skipped, and unknown
//! events and unknown fields are ignored, so a version-1 reader keeps
//! working on traces from newer writers that only add fields.

use crate::report::{fnum, Table};
use serde::Value;

/// One span parsed back out of a trace file.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Trace-unique span id.
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Span name (e.g. `"sweep"`, `"calibrate"`, `"run"`).
    pub name: String,
    /// Per-trace thread index.
    pub thread: u64,
    /// Start offset in microseconds on the trace's monotonic clock.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// True when the span was still open at serialization time.
    pub open: bool,
}

/// One histogram parsed back out of a trace file.
#[derive(Clone, Debug)]
pub struct TraceHistogram {
    /// Histogram name (e.g. `"eval_latency_secs"`).
    pub name: String,
    /// Total observation count.
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub sum_secs: f64,
    /// Inclusive upper bound of each finite bucket, in seconds.
    pub bounds_secs: Vec<f64>,
    /// Per-bucket counts; one trailing overflow bucket.
    pub counts: Vec<u64>,
}

/// A parsed trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceFile {
    /// Schema version from the meta line.
    pub version: u64,
    /// All spans, in id order.
    pub spans: Vec<TraceSpan>,
    /// All counters, in file order.
    pub counters: Vec<(String, u64)>,
    /// All histograms, in file order.
    pub histograms: Vec<TraceHistogram>,
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_f64().map(|f| f as u64)
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Parse the text of a trace file.
///
/// Fails on a missing/foreign meta line or a schema version newer than
/// this reader understands; skips malformed or unknown event lines
/// (forward compatibility, mirroring the ledger's lenient reads).
pub fn parse_trace(text: &str) -> Result<TraceFile, String> {
    if text.is_empty() {
        return Err("empty trace file".into());
    }
    let (meta_line, body) = text.split_once('\n').unwrap_or((text, ""));
    let meta: Value = serde_json::from_str(meta_line).map_err(|e| format!("bad meta line: {e}"))?;
    match get_str(&meta, "schema") {
        Some(s) if s == obs::trace::SCHEMA_NAME => {}
        other => {
            return Err(format!(
                "not a {} file (schema = {:?})",
                obs::trace::SCHEMA_NAME,
                other
            ))
        }
    }
    let version = get_u64(&meta, "version").ok_or("meta line has no version")?;
    if version > obs::trace::SCHEMA_VERSION {
        return Err(format!(
            "trace schema version {version} is newer than this reader (v{})",
            obs::trace::SCHEMA_VERSION
        ));
    }

    let mut out = TraceFile {
        version,
        ..TraceFile::default()
    };
    for v in simcal::jsonl::parse::<Value>(body.as_bytes()) {
        match get_str(&v, "event").as_deref() {
            Some("span") => {
                let (Some(id), Some(name)) = (get_u64(&v, "id"), get_str(&v, "name")) else {
                    continue;
                };
                out.spans.push(TraceSpan {
                    id,
                    parent: v.get("parent").and_then(|p| p.as_f64()).map(|f| f as u64),
                    name,
                    thread: get_u64(&v, "thread").unwrap_or(0),
                    start_us: get_u64(&v, "start_us").unwrap_or(0),
                    dur_us: get_u64(&v, "dur_us").unwrap_or(0),
                    open: matches!(v.get("open"), Some(Value::Bool(true))),
                });
            }
            Some("counter") => {
                if let (Some(name), Some(value)) = (get_str(&v, "name"), get_u64(&v, "value")) {
                    out.counters.push((name, value));
                }
            }
            Some("histogram") => {
                let Some(name) = get_str(&v, "name") else {
                    continue;
                };
                let floats = |key: &str| -> Vec<f64> {
                    match v.get(key) {
                        Some(Value::Array(items)) => {
                            items.iter().filter_map(|x| x.as_f64()).collect()
                        }
                        _ => Vec::new(),
                    }
                };
                out.histograms.push(TraceHistogram {
                    name,
                    count: get_u64(&v, "count").unwrap_or(0),
                    sum_secs: v.get("sum_secs").and_then(|x| x.as_f64()).unwrap_or(0.0),
                    bounds_secs: floats("bounds_secs"),
                    counts: floats("counts").into_iter().map(|f| f as u64).collect(),
                });
            }
            _ => {}
        }
    }
    out.spans.sort_by_key(|s| s.id);
    Ok(out)
}

/// Render the per-phase time/percentage report for a parsed trace.
///
/// The root is the longest parentless span (a sweep's `"sweep"` span).
/// Its direct children are the sweep's sequential phases, so their
/// durations — plus the residual `(unaccounted)` row — sum to the
/// root's wall time. Spans deeper in the tree ran concurrently on the
/// pool and are aggregated separately (their total can exceed the
/// sweep wall time; that is pool parallelism, not an error).
pub fn render_report(trace: &TraceFile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} v{} — {} spans, {} counters, {} histograms",
        obs::trace::SCHEMA_NAME,
        trace.version,
        trace.spans.len(),
        trace.counters.len(),
        trace.histograms.len()
    );

    let Some(root) = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .max_by_key(|s| s.dur_us)
    else {
        out.push_str("no spans recorded\n");
        return out;
    };
    let root_secs = root.dur_us as f64 * 1e-6;
    let _ = writeln!(
        out,
        "root span: {} ({} s total{})",
        root.name,
        fnum(root_secs),
        if root.open { ", still open" } else { "" }
    );

    // Direct children of the root = the sequential phases.
    let mut phases: Vec<(String, u64, u64)> = Vec::new(); // (name, spans, dur_us)
    for s in trace.spans.iter().filter(|s| s.parent == Some(root.id)) {
        match phases.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, count, dur)) => {
                *count += 1;
                *dur += s.dur_us;
            }
            None => phases.push((s.name.clone(), 1, s.dur_us)),
        }
    }
    let mut table = Table::new(&["phase", "spans", "total (s)", "% of root"]);
    let mut accounted = 0u64;
    for (name, count, dur) in &phases {
        accounted += dur;
        table.row(vec![
            name.clone(),
            count.to_string(),
            fnum(*dur as f64 * 1e-6),
            pct_of(*dur, root.dur_us),
        ]);
    }
    if root.dur_us > accounted {
        let rest = root.dur_us - accounted;
        table.row(vec![
            "(unaccounted)".into(),
            String::new(),
            fnum(rest as f64 * 1e-6),
            pct_of(rest, root.dur_us),
        ]);
    }
    out.push('\n');
    out.push_str(&table.render());

    // Everything deeper than the phases ran concurrently on the pool
    // (per-run/per-unit spans and whatever they opened underneath).
    let mut nested: Vec<(String, u64, u64)> = Vec::new();
    for s in &trace.spans {
        let Some(p) = s.parent else { continue };
        if p == root.id {
            continue;
        }
        match nested.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, count, dur)) => {
                *count += 1;
                *dur += s.dur_us;
            }
            None => nested.push((s.name.clone(), 1, s.dur_us)),
        }
    }
    if !nested.is_empty() {
        let mut t = Table::new(&["pool span", "spans", "total (s)"]);
        for (name, count, dur) in &nested {
            t.row(vec![
                name.clone(),
                count.to_string(),
                fnum(*dur as f64 * 1e-6),
            ]);
        }
        out.push('\n');
        out.push_str("concurrent pool spans (totals may exceed wall time):\n");
        out.push_str(&t.render());
    }

    // What the run spans (the body of the `calibrate` phase) spent their
    // time on: simulator + evaluator, surrogate fit, acquisition.
    let mut runs = trace.spans.iter().filter(|s| s.name == "run").peekable();
    if runs.peek().is_some() {
        let run_us: u64 = runs.map(|s| s.dur_us).sum();
        let mut t = Table::new(&["inside run spans", "total (s)", "% of runs"]);
        let mut rest = run_us;
        for (label, hist) in [
            ("evaluations", obs::Hist::EvalLatency),
            ("surrogate fit", obs::Hist::SurrogateFit),
            ("acquisition", obs::Hist::Acquisition),
        ] {
            let secs = trace
                .histograms
                .iter()
                .find(|h| h.name == hist.name())
                .map_or(0.0, |h| h.sum_secs);
            let us = (secs * 1e6) as u64;
            rest = rest.saturating_sub(us);
            t.row(vec![label.into(), fnum(secs), pct_of(us, run_us)]);
        }
        t.row(vec![
            "(other)".into(),
            fnum(rest as f64 * 1e-6),
            pct_of(rest, run_us),
        ]);
        out.push('\n');
        out.push_str(&t.render());
    }

    if !trace.counters.is_empty() {
        let mut t = Table::new(&["counter", "value"]);
        for (name, value) in &trace.counters {
            t.row(vec![name.clone(), value.to_string()]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }

    // Failure summary: surfaced only when something actually failed, so
    // healthy traces render exactly as they always have.
    let counter = |name: &str| {
        trace
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let (panics, nonfinite, retries) = (
        counter("eval_panics"),
        counter("eval_nonfinite"),
        counter("ledger_retries"),
    );
    if panics + nonfinite + retries > 0 {
        out.push('\n');
        let _ = writeln!(
            out,
            "failures: {panics} evaluation panic(s), {nonfinite} non-finite loss(es), \
             {retries} ledger write retry(ies) — all isolated; see the run ledger for details"
        );
    }

    for h in &trace.histograms {
        out.push('\n');
        let mean = if h.count > 0 {
            format!("{} ms mean", fnum(h.sum_secs / h.count as f64 * 1e3))
        } else {
            "no observations".to_string()
        };
        let _ = writeln!(out, "histogram {}: {} obs, {}", h.name, h.count, mean);
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let label = match h.bounds_secs.get(i) {
                Some(&b) => format!("<= {} ms", fnum(b * 1e3)),
                None => "overflow".to_string(),
            };
            let _ = writeln!(out, "  {label:>12}  {c}");
        }
    }
    out
}

fn pct_of(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "-".to_string();
    }
    format!("{:.1}%", part as f64 / whole as f64 * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> String {
        let rec = obs::TraceRecorder::new();
        use obs::Recorder as _;
        let sweep = rec.span_start("sweep", None, &[("family", "toy".to_string())]);
        let cal = rec.span_start("calibrate", Some(sweep), &[]);
        let run = rec.span_start("run", Some(cal), &[]);
        rec.span_end(run);
        rec.span_end(cal);
        let ev = rec.span_start("evaluate", Some(sweep), &[]);
        rec.span_end(ev);
        rec.span_end(sweep);
        rec.add(obs::Counter::EvalCacheMisses, 7);
        rec.observe(obs::Hist::EvalLatency, 0.002);
        rec.observe(obs::Hist::SurrogateFit, 0.25);
        rec.observe(obs::Hist::Acquisition, 0.5);
        rec.to_jsonl()
    }

    #[test]
    fn parse_and_report_round_trip() {
        let trace = parse_trace(&toy_trace()).unwrap();
        assert_eq!(trace.version, obs::trace::SCHEMA_VERSION);
        assert_eq!(trace.spans.len(), 4);
        assert!(trace
            .counters
            .iter()
            .any(|(n, v)| n == "eval_cache_misses" && *v == 7));
        let text = render_report(&trace);
        assert!(text.contains("root span: sweep"));
        assert!(text.contains("calibrate"));
        assert!(text.contains("evaluate"));
        assert!(text.contains("run"));
        assert!(text.contains("eval_latency_secs: 1 obs"));
        // The run spans are explained by the three sums.
        for (label, secs) in [("surrogate fit", "0.25"), ("acquisition", "0.50")] {
            let line = text.lines().find(|l| l.starts_with(label)).unwrap();
            assert!(line.contains(secs), "{line}");
        }
    }

    #[test]
    fn phase_rows_sum_to_root_duration() {
        let trace = parse_trace(&toy_trace()).unwrap();
        let root = trace
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .max_by_key(|s| s.dur_us)
            .unwrap();
        let phase_total: u64 = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.dur_us)
            .sum();
        assert!(phase_total <= root.dur_us);
    }

    #[test]
    fn foreign_and_newer_files_are_rejected() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("{\"schema\":\"something-else\",\"version\":1}\n").is_err());
        let newer = format!(
            "{{\"schema\":\"{}\",\"version\":{}}}\n",
            obs::trace::SCHEMA_NAME,
            obs::trace::SCHEMA_VERSION + 1
        );
        assert!(parse_trace(&newer).is_err());
    }

    #[test]
    fn unknown_events_and_torn_lines_are_skipped() {
        let text = format!(
            "{{\"schema\":\"{}\",\"version\":1}}\n{{\"event\":\"future-thing\",\"x\":1}}\n{{\"event\":\"span\",\"id\":1,\"parent\":null,\"name\":\"sweep\",\"thread\":0,\"start_us\":0,\"dur_us\":10}}\n{{\"event\":\"span\",\"id\":2,\"par",
            obs::trace::SCHEMA_NAME
        );
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.spans.len(), 1);
    }
}
