//! Observability integration tests: the JSONL trace a real sweep records
//! (golden schema), the guarantee that tracing never perturbs sweep
//! results, and span collection under the thread pool.

mod common;

use common::ToyFamily;
use lodsel::prelude::*;
use obs::{Counter, Hist, TraceRecorder};
use serde::Value;
use simcal::prelude::Budget;
use std::sync::{Arc, Mutex, MutexGuard};

fn config() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(8), 2, 42)
}

/// The obs recorder is process-global; tests that install one serialize
/// on this lock (and tolerate poisoning from an unrelated panic).
fn global_recorder_lock() -> MutexGuard<'static, ()> {
    static GLOBAL: Mutex<()> = Mutex::new(());
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one toy sweep with a fresh global recorder installed; return the
/// recorder (uninstalled again) and the sweep outcome.
fn traced_sweep() -> (Arc<TraceRecorder>, SweepOutcome) {
    let rec = Arc::new(TraceRecorder::new());
    obs::install(rec.clone());
    let outcome = run_sweep(&ToyFamily::new(false), &config(), None);
    obs::uninstall();
    (rec, outcome)
}

#[test]
fn recorded_trace_matches_the_documented_schema() {
    let _guard = global_recorder_lock();
    let (rec, _) = traced_sweep();
    let text = rec.to_jsonl();

    // Every line is standalone JSON; the first is the versioned header.
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line parses as JSON"))
        .collect();
    assert_eq!(
        lines[0].get("schema").and_then(Value::as_str),
        Some(obs::trace::SCHEMA_NAME)
    );
    assert_eq!(
        lines[0].get("version").and_then(Value::as_f64),
        Some(obs::trace::SCHEMA_VERSION as f64)
    );

    let mut span_names = Vec::new();
    let mut counter_names = Vec::new();
    let mut hist_names = Vec::new();
    for line in &lines[1..] {
        let event = line.get("event").and_then(Value::as_str);
        let name = line
            .get("name")
            .and_then(Value::as_str)
            .expect("event line has a name")
            .to_string();
        match event {
            Some("span") => {
                // Required span fields; all times are epoch-relative integers.
                for field in ["id", "parent", "thread", "start_us", "dur_us"] {
                    assert!(line.get(field).is_some(), "span {name} missing {field}");
                }
                span_names.push(name);
            }
            Some("counter") => {
                assert!(line.get("value").is_some(), "counter {name} missing value");
                counter_names.push(name);
            }
            Some("histogram") => {
                for field in ["count", "sum_secs", "bounds_secs", "counts"] {
                    assert!(
                        line.get(field).is_some(),
                        "histogram {name} missing {field}"
                    );
                }
                hist_names.push(name);
            }
            _ => panic!("unrecognized trace line: {line:?}"),
        }
    }

    // Phase and pool spans of the sweep hierarchy are all present.
    for name in ["sweep", "plan", "calibrate", "evaluate", "reduce", "run"] {
        assert!(span_names.iter().any(|n| n == name), "no {name} span");
    }
    // All counters are emitted (zeros included), each exactly once.
    let mut expected: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    expected.sort_unstable();
    counter_names.sort_unstable();
    assert_eq!(counter_names, expected);
    let expected_hists: Vec<&str> = Hist::ALL.iter().map(|h| h.name()).collect();
    assert_eq!(hist_names, expected_hists);

    // The file round-trips through the --trace-report parser and the
    // per-phase rows cover the root span's wall time.
    let trace = parse_trace(&text).expect("schema round-trips");
    assert_eq!(trace.version, obs::trace::SCHEMA_VERSION);
    let report = render_report(&trace);
    assert!(report.contains("root span: sweep"));
    for phase in ["plan", "calibrate", "evaluate", "reduce"] {
        assert!(report.contains(phase), "report missing phase {phase}");
    }
}

#[test]
fn tracing_does_not_change_the_sweep_digest() {
    let _guard = global_recorder_lock();

    obs::uninstall();
    let untraced = run_sweep(&ToyFamily::new(true), &config(), None);
    let (_, traced) = traced_sweep();
    // ToyFamily::new(true) vs (false): evaluation is perturbed by the
    // calibrated value only in the first, so compare like with like.
    let traced_dependent = {
        let rec = Arc::new(TraceRecorder::new());
        obs::install(rec.clone());
        let outcome = run_sweep(&ToyFamily::new(true), &config(), None);
        obs::uninstall();
        outcome
    };

    assert_eq!(untraced.digest(), traced_dependent.digest());
    // And the independent toy geometry agrees on the decision either way.
    assert_eq!(
        untraced.recommendation.unwrap().chosen,
        traced.recommendation.unwrap().chosen
    );
}

#[test]
fn pool_spans_close_and_parent_correctly_under_the_pool() {
    let _guard = global_recorder_lock();
    let (rec, _) = traced_sweep();
    let spans = rec.spans();

    // Every span the sweep opened was closed (end recorded after start).
    assert!(!spans.is_empty());
    for s in &spans {
        assert!(s.end_ns >= s.start_ns, "span {} never closed", s.name);
    }

    let sweep = spans.iter().find(|s| s.name == "sweep").unwrap();
    let calibrate = spans
        .iter()
        .find(|s| s.name == "calibrate" && s.parent == Some(sweep.id))
        .unwrap();

    // 4 units x 2 restarts fanned onto the pool, each under "calibrate"
    // even when executed by a different worker thread.
    let runs: Vec<_> = spans.iter().filter(|s| s.name == "run").collect();
    assert_eq!(runs.len(), 8);
    for r in &runs {
        assert_eq!(r.parent, Some(calibrate.id), "run not under calibrate");
        assert!(r.start_ns >= calibrate.start_ns && r.end_ns <= calibrate.end_ns);
    }

    // The pool really ran them (thread ids recorded per span), and the
    // kernel/evaluator counters flowed through the same recorder.
    let threads: std::collections::HashSet<u64> = runs.iter().map(|s| s.thread).collect();
    assert!(!threads.is_empty());
    assert!(rec.counter_value(Counter::EvalCacheMisses) > 0);
    assert!(rec.histogram(Hist::EvalLatency).count > 0);
}
