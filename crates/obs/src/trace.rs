//! The in-memory trace recorder and its versioned JSONL serialization.
//!
//! # Trace schema (version 1)
//!
//! A trace file is JSON Lines: one JSON object per line, UTF-8, no
//! framing. The first line is always the meta header; every other
//! line carries an `"event"` discriminant:
//!
//! ```json
//! {"schema":"lodcal-trace","version":1}
//! {"event":"span","id":1,"parent":null,"name":"sweep","thread":0,"start_us":0,"dur_us":5120,"attrs":{"family":"toy"}}
//! {"event":"counter","name":"kernel_events","value":184320}
//! {"event":"histogram","name":"eval_latency_secs","count":12,"sum_secs":0.034,"bounds_secs":[...],"counts":[...]}
//! ```
//!
//! - **span** — `id` is unique per trace; `parent` is `null` for
//!   roots; `thread` is a small per-trace thread index (0 = first
//!   thread seen); `start_us`/`dur_us` are microseconds on the
//!   recorder's monotonic clock, relative to recorder creation. A
//!   span still open at serialization time carries `"open":true` and
//!   a duration measured up to the moment of serialization.
//! - **counter** — every [`Counter`] is emitted, including zeros.
//! - **histogram** — `bounds_secs` lists the inclusive upper bound of
//!   each finite bucket; `counts` has one extra trailing entry, the
//!   overflow bucket (see [`crate::BUCKET_COUNT`]).
//!
//! All times are *relative* monotonic readings: traces contain no
//! absolute wall-clock values, matching the ledger convention that
//! wall-clock data is observability-only and never part of a digest.
//! Consumers must ignore unknown fields and unknown `event` values;
//! `version` is bumped on any breaking change.

use crate::metrics::{bucket_bound, bucket_index, Counter, Hist, HistogramSnapshot, BUCKET_COUNT};
use crate::{Recorder, SpanId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Value of the `schema` field in a trace's meta line.
pub const SCHEMA_NAME: &str = "lodcal-trace";

/// Value of the `version` field in a trace's meta line. Bumped on any
/// breaking change to the line formats documented in [`self`](crate::trace).
pub const SCHEMA_VERSION: u64 = 1;

/// A completed span as read back from a [`TraceRecorder`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace-unique id (allocated from 1).
    pub id: SpanId,
    /// Parent span id, or `None` for a root span.
    pub parent: Option<SpanId>,
    /// Static span name (e.g. `"sweep"`, `"calibrate"`).
    pub name: &'static str,
    /// Per-trace thread index (0 = first thread that opened a span).
    pub thread: u64,
    /// Start offset in nanoseconds on the recorder's monotonic clock.
    pub start_ns: u64,
    /// End offset in nanoseconds on the recorder's monotonic clock.
    pub end_ns: u64,
    /// Key-value annotations from the [`crate::span!`] call site.
    pub attrs: Vec<(String, String)>,
}

struct OpenSpan {
    parent: Option<SpanId>,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    attrs: Vec<(String, String)>,
}

#[derive(Default)]
struct SpanTable {
    open: HashMap<SpanId, OpenSpan>,
    closed: Vec<SpanRecord>,
    threads: HashMap<std::thread::ThreadId, u64>,
}

struct HistState {
    counts: [AtomicU64; BUCKET_COUNT + 1],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl HistState {
    fn new() -> HistState {
        HistState {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

/// A thread-safe [`Recorder`] that collects spans, counters, and
/// histograms in memory and serializes them as versioned JSONL (see
/// the [module docs](self) for the schema).
pub struct TraceRecorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<SpanTable>,
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [HistState; Hist::ALL.len()],
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// Create an empty recorder; its monotonic epoch (the zero point
    /// of all span offsets) is the moment of this call.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(SpanTable::default()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistState::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Completed spans, ordered by id (i.e. by start).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let table = self.spans.lock().unwrap();
        let mut out = table.closed.clone();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Parent of a currently *open* span — test/report helper.
    pub fn open_parent_of(&self, id: SpanId) -> Option<SpanId> {
        self.spans
            .lock()
            .unwrap()
            .open
            .get(&id)
            .and_then(|s| s.parent)
    }

    /// Current value of `counter`.
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of `hist`.
    pub fn histogram(&self, hist: Hist) -> HistogramSnapshot {
        let state = &self.hists[hist.index()];
        HistogramSnapshot {
            counts: state
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: state.count.load(Ordering::Relaxed),
            sum_secs: f64::from_bits(state.sum_bits.load(Ordering::Relaxed)),
        }
    }

    /// Serialize the whole trace as JSONL (meta line first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"schema\":\"{SCHEMA_NAME}\",\"version\":{SCHEMA_VERSION}}}\n"
        ));
        let now = self.now_ns();
        {
            let table = self.spans.lock().unwrap();
            let mut lines: Vec<(SpanId, String)> = Vec::new();
            for s in &table.closed {
                lines.push((s.id, span_line(s, false)));
            }
            for (&id, o) in &table.open {
                let record = SpanRecord {
                    id,
                    parent: o.parent,
                    name: o.name,
                    thread: o.thread,
                    start_ns: o.start_ns,
                    end_ns: now.max(o.start_ns),
                    attrs: o.attrs.clone(),
                };
                lines.push((id, span_line(&record, true)));
            }
            lines.sort_by_key(|(id, _)| *id);
            for (_, line) in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        for c in Counter::ALL {
            out.push_str(&format!(
                "{{\"event\":\"counter\",\"name\":\"{}\",\"value\":{}}}\n",
                c.name(),
                self.counter_value(c)
            ));
        }
        for h in Hist::ALL {
            let snap = self.histogram(h);
            let bounds: Vec<String> = (0..BUCKET_COUNT)
                .map(|i| fmt_f64(bucket_bound(i)))
                .collect();
            let counts: Vec<String> = snap.counts.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "{{\"event\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum_secs\":{},\"bounds_secs\":[{}],\"counts\":[{}]}}\n",
                h.name(),
                snap.count,
                fmt_f64(snap.sum_secs),
                bounds.join(","),
                counts.join(","),
            ));
        }
        out
    }

    /// Write the serialized trace to `path`, creating parent
    /// directories as needed.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

impl Recorder for TraceRecorder {
    fn span_start(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        attrs: &[(&'static str, String)],
    ) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let mut table = self.spans.lock().unwrap();
        let next_thread = table.threads.len() as u64;
        let thread = *table
            .threads
            .entry(std::thread::current().id())
            .or_insert(next_thread);
        table.open.insert(
            id,
            OpenSpan {
                parent,
                name,
                thread,
                start_ns,
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        );
        id
    }

    fn span_end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut table = self.spans.lock().unwrap();
        if let Some(open) = table.open.remove(&id) {
            table.closed.push(SpanRecord {
                id,
                parent: open.parent,
                name: open.name,
                thread: open.thread,
                start_ns: open.start_ns,
                end_ns: end_ns.max(open.start_ns),
                attrs: open.attrs,
            });
        }
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    fn observe(&self, hist: Hist, seconds: f64) {
        let state = &self.hists[hist.index()];
        state.counts[bucket_index(seconds)].fetch_add(1, Ordering::Relaxed);
        state.count.fetch_add(1, Ordering::Relaxed);
        let mut bits = state.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(bits) + seconds).to_bits();
            match state.sum_bits.compare_exchange_weak(
                bits,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
    }
}

fn span_line(s: &SpanRecord, open: bool) -> String {
    let mut line = String::with_capacity(128);
    line.push_str(&format!(
        "{{\"event\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"dur_us\":{}",
        s.id,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        json_escape(s.name),
        s.thread,
        s.start_ns / 1_000,
        (s.end_ns - s.start_ns) / 1_000,
    ));
    if open {
        line.push_str(",\"open\":true");
    }
    if !s.attrs.is_empty() {
        line.push_str(",\"attrs\":{");
        for (i, (k, v)) in s.attrs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        line.push('}');
    }
    line.push('}');
    line
}

/// Render an `f64` as a JSON number token (`null` for non-finite
/// values, which JSON cannot represent).
fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let s = format!("{x}");
    // Ensure the token re-parses as a float, not an integer.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escape a string for inclusion inside JSON double quotes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_without_global_install() {
        let rec = TraceRecorder::new();
        let a = rec.span_start("a", None, &[("k", "v\"q".to_string())]);
        let b = rec.span_start("b", Some(a), &[]);
        rec.span_end(b);
        rec.span_end(a);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].parent, Some(a));
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_has_meta_line_and_escapes_strings() {
        let rec = TraceRecorder::new();
        let a = rec.span_start("a", None, &[("note", "say \"hi\"\n".to_string())]);
        rec.span_end(a);
        let open = rec.span_start("still-open", None, &[]);
        let _ = open;
        rec.add(Counter::PoolParks, 4);
        rec.observe(Hist::EvalLatency, 0.25);
        let text = rec.to_jsonl();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"schema\":\"lodcal-trace\",\"version\":1}"
        );
        assert!(text.contains("\\\"hi\\\"\\n"));
        assert!(text.contains("\"open\":true"));
        assert!(text.contains("{\"event\":\"counter\",\"name\":\"pool_parks\",\"value\":4}"));
        assert!(text.contains("\"name\":\"eval_latency_secs\",\"count\":1,\"sum_secs\":0.25"));
        // One meta + two spans + all counters + all histograms.
        assert_eq!(
            text.lines().count(),
            1 + 2 + Counter::ALL.len() + Hist::ALL.len()
        );
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let rec = std::sync::Arc::new(TraceRecorder::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        rec.add(Counter::KernelEvents, 1);
                        rec.observe(Hist::EvalLatency, 1e-3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counter_value(Counter::KernelEvents), 4000);
        let h = rec.histogram(Hist::EvalLatency);
        assert_eq!(h.count, 4000);
        assert!((h.sum_secs - 4.0).abs() < 1e-9);
        assert_eq!(h.counts[crate::metrics::bucket_index(1e-3)], 4000);
    }

    #[test]
    fn fmt_f64_round_trips_as_float_tokens() {
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }
}
