//! # obs — zero-dependency observability for the lodcal workspace
//!
//! Structured tracing and metrics for the simulation kernel
//! (`dessim`), the calibration evaluator (`simcal`), the thread pool
//! (`rayon`), and the level-of-detail sweep driver (`lodsel`):
//!
//! - **Hierarchical spans** — [`span!`] opens a named, monotonic-clock
//!   timed span; spans nest per thread and can be parented explicitly
//!   across pool threads with [`SpanGuard::enter_under`].
//! - **Typed counters** — the closed [`Counter`] enum names every
//!   counter in the workspace (kernel events, heap re-inserts, sharing
//!   re-solves, evaluator cache hits/misses, pool parks).
//! - **Histograms** — [`Hist`] names fixed log-spaced-bucket latency
//!   histograms (per-evaluation latency).
//!
//! Everything funnels through a process-global [`Recorder`]. The
//! default recorder is a no-op behind a single relaxed atomic-bool
//! load, so instrumented hot paths cost nothing measurable when
//! tracing is disabled (see DESIGN.md "Observability" for the <2%
//! bench guarantee). Installing a [`TraceRecorder`] turns the same
//! call sites into an in-memory trace that serializes to a versioned
//! JSONL file (schema [`trace::SCHEMA_NAME`] v[`trace::SCHEMA_VERSION`]).
//!
//! ## Recording spans
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(obs::TraceRecorder::new());
//! obs::install(rec.clone());
//! {
//!     let _sweep = obs::span!("sweep", family = "toy");
//!     let _phase = obs::span!("calibrate"); // nests under "sweep"
//! } // both spans close here
//! obs::uninstall();
//!
//! let spans = rec.spans();
//! assert_eq!(spans.len(), 2);
//! let sweep = spans.iter().find(|s| s.name == "sweep").unwrap();
//! let phase = spans.iter().find(|s| s.name == "calibrate").unwrap();
//! assert_eq!(phase.parent, Some(sweep.id));
//! assert_eq!(sweep.attrs[0], ("family".to_string(), "toy".to_string()));
//! ```
//!
//! ## Reading a histogram back
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(obs::TraceRecorder::new());
//! obs::install(rec.clone());
//! obs::observe(obs::Hist::EvalLatency, 3e-6); // 3 microseconds
//! obs::observe(obs::Hist::EvalLatency, 0.5); // half a second
//! obs::uninstall();
//!
//! let h = rec.histogram(obs::Hist::EvalLatency);
//! assert_eq!(h.count, 2);
//! assert!((h.sum_secs - 0.500003).abs() < 1e-9);
//! // Each observation lands in the first bucket whose upper bound
//! // (1 µs · 2^i) is above it.
//! assert_eq!(h.count_at_or_below(4e-6), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod span;
pub mod trace;

pub use metrics::{Counter, Hist, HistogramSnapshot, BUCKET_COUNT};
pub use span::SpanGuard;
pub use trace::{SpanRecord, TraceRecorder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Identifier of a recorded span, unique within one [`Recorder`]
/// installation. `Recorder::span_start` allocates them starting at 1.
pub type SpanId = u64;

/// Sink for spans, counters, and histogram observations.
///
/// Implementations must be thread-safe: the thread pool calls
/// into the recorder from every worker thread concurrently. The
/// workspace ships one real implementation, [`TraceRecorder`]; the
/// default (nothing installed) is a no-op.
pub trait Recorder: Send + Sync {
    /// Open a span and return its id. `parent` is `None` for a root
    /// span. `attrs` are key-value annotations rendered into the trace.
    fn span_start(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        attrs: &[(&'static str, String)],
    ) -> SpanId;

    /// Close a previously started span.
    fn span_end(&self, id: SpanId);

    /// Add `delta` to a counter.
    fn add(&self, counter: Counter, delta: u64);

    /// Record one observation (in seconds) into a histogram.
    fn observe(&self, hist: Hist, seconds: f64);
}

/// Fast-path gate: `true` only while a recorder is installed. A single
/// relaxed load — this is the entire cost instrumentation pays when
/// tracing is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder, if any. Guarded by a lock only on the slow
/// path (install/uninstall and enabled call sites); disabled call
/// sites never touch it.
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Install `recorder` as the process-global sink, enabling all
/// instrumentation. Replaces any previously installed recorder.
pub fn install(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().unwrap() = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove the global recorder, returning instrumentation to its
/// no-op (near-zero-cost) state.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *RECORDER.write().unwrap() = None;
}

/// Whether a recorder is currently installed. Call sites use this to
/// skip building attributes or reading clocks when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` against the installed recorder, if any.
#[inline]
fn with<R>(f: impl FnOnce(&dyn Recorder) -> R) -> Option<R> {
    let guard = RECORDER.read().unwrap();
    guard.as_deref().map(f)
}

/// Add `delta` to `counter` on the installed recorder. No-op (one
/// relaxed atomic load) when tracing is disabled.
#[inline]
pub fn counter(counter: Counter, delta: u64) {
    if enabled() {
        with(|r| r.add(counter, delta));
    }
}

/// Record one observation (in seconds) into `hist` on the installed
/// recorder. No-op when tracing is disabled.
#[inline]
pub fn observe(hist: Hist, seconds: f64) {
    if enabled() {
        with(|r| r.observe(hist, seconds));
    }
}

#[doc(hidden)]
pub fn __start_span(
    name: &'static str,
    parent: Option<SpanId>,
    attrs: &[(&'static str, String)],
) -> Option<SpanId> {
    with(|r| r.span_start(name, parent, attrs))
}

#[doc(hidden)]
pub fn __end_span(id: SpanId) {
    with(|r| r.span_end(id));
}

/// Open a hierarchical span that closes when the returned
/// [`SpanGuard`] drops. The span nests under the innermost span still
/// open on the current thread; use [`SpanGuard::enter_under`] to
/// parent across threads instead.
///
/// Attribute values are rendered with `ToString` only while a
/// recorder is installed — a disabled `span!` does not allocate.
///
/// ```
/// let _span = obs::span!("calibrate", version = "wf-v3", restarts = 5);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let attrs = if $crate::enabled() {
            vec![$((stringify!($key), ::std::string::ToString::to_string(&$value))),+]
        } else {
            ::std::vec::Vec::new()
        };
        $crate::SpanGuard::enter($name, attrs)
    }};
}

/// Print one structured diagnostic line to stderr: `prog: message`.
///
/// The workspace output convention (see DESIGN.md "Observability"):
/// result tables go to **stdout**, human diagnostics go to **stderr**
/// through this macro, and machine-readable data goes to the
/// `--trace` JSONL file. The prefix is the binary's basename so
/// interleaved pipeline output stays attributable.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        $crate::diag_line(::std::format_args!($($arg)*))
    };
}

/// Implementation of [`diag!`]: writes `prog: args` to stderr.
pub fn diag_line(args: std::fmt::Arguments<'_>) {
    eprintln!("{}: {args}", prog_name());
}

/// Basename of the running binary, used as the [`diag!`] prefix.
pub fn prog_name() -> &'static str {
    use std::sync::OnceLock;
    static NAME: OnceLock<String> = OnceLock::new();
    NAME.get_or_init(|| {
        std::env::args()
            .next()
            .as_deref()
            .map(std::path::Path::new)
            .and_then(|p| p.file_stem())
            .and_then(|s| s.to_str())
            .unwrap_or("lodcal")
            .to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that install the process-global recorder.
    static GLOBAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _lock = GLOBAL.lock().unwrap();
        uninstall();
        assert!(!enabled());
        counter(Counter::KernelEvents, 3);
        observe(Hist::EvalLatency, 0.1);
        let guard = span!("orphan", note = "ignored");
        assert_eq!(guard.id(), None);
    }

    #[test]
    fn install_routes_counters_and_uninstall_stops_them() {
        let _lock = GLOBAL.lock().unwrap();
        let rec = Arc::new(TraceRecorder::new());
        install(rec.clone());
        counter(Counter::EvalCacheHits, 2);
        counter(Counter::EvalCacheHits, 3);
        uninstall();
        counter(Counter::EvalCacheHits, 100);
        assert_eq!(rec.counter_value(Counter::EvalCacheHits), 5);
    }

    #[test]
    fn spans_nest_per_thread_and_close_in_order() {
        let _lock = GLOBAL.lock().unwrap();
        let rec = Arc::new(TraceRecorder::new());
        install(rec.clone());
        {
            let outer = span!("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span!("inner");
                assert_eq!(rec.open_parent_of(inner.id().unwrap()), Some(outer_id));
            }
            let sibling = span!("sibling");
            assert_eq!(rec.open_parent_of(sibling.id().unwrap()), Some(outer_id));
        }
        uninstall();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        for name in ["inner", "sibling"] {
            let child = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(child.parent, Some(outer.id));
            assert!(child.start_ns >= outer.start_ns);
            assert!(child.end_ns <= outer.end_ns);
        }
    }

    #[test]
    fn explicit_parenting_crosses_threads() {
        let _lock = GLOBAL.lock().unwrap();
        let rec = Arc::new(TraceRecorder::new());
        install(rec.clone());
        let root = span!("root");
        let root_id = root.id();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _child =
                        SpanGuard::enter_under("worker", root_id, vec![("idx", i.to_string())]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(root);
        uninstall();
        let spans = rec.spans();
        let root_id = root_id.unwrap();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|s| s.parent == Some(root_id)));
        // Spawned threads get distinct trace thread ids.
        let threads: std::collections::HashSet<u64> = workers.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4);
    }
}
