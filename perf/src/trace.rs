//! The benchmark's own span recorder. Spans are recorded from the
//! benchmark's files, around the calls into each layer; they stay in memory
//! and are written out when the run ends. An untraced run carries
//! [`Ctx::OFF`], which records nothing and only reads the clock.

use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    /// The repetition the span belongs to; `None` for probes.
    pub rep: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &str, parent: Option<SpanId>, rep: Option<usize>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            rep,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer lock")[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }
}

/// Where a call sits in the span tree. `Copy`, so adapters that are called
/// from pool threads can carry their parent with them.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<SpanId>,
    rep: Option<usize>,
}

impl<'a> Ctx<'a> {
    pub const OFF: Ctx<'static> = Ctx {
        tracer: None,
        parent: None,
        rep: None,
    };

    pub fn root(tracer: &'a Tracer) -> Self {
        Self {
            tracer: Some(tracer),
            parent: None,
            rep: None,
        }
    }

    pub fn in_rep(self, rep: usize) -> Self {
        Self {
            rep: Some(rep),
            ..self
        }
    }

    /// Run `f` inside a child span `name`; returns its result and its
    /// wall-clock seconds. The one timing primitive of the harness: traced
    /// and untraced runs read the clock at the same two points.
    pub fn timed<R>(self, name: &str, f: impl FnOnce(Ctx<'a>) -> R) -> (R, f64) {
        let id = self.tracer.map(|t| t.open(name, self.parent, self.rep));
        let start = Instant::now();
        let out = f(Ctx {
            parent: id.or(self.parent),
            ..self
        });
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (self.tracer, id) {
            t.close(id);
        }
        (out, secs)
    }

    pub fn span<R>(self, name: &str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        self.timed(name, f).0
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover (children of one span do not overlap at one pool thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Largest relative gap, over `rep` spans, between the span's duration and
/// the self times summed over its subtree. The traced run checks this stays
/// within 2 %: a larger gap means overlapping or unclosed children.
pub fn rep_self_sum_error(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let mut subtree = own.clone();
    // Children are opened after their parents, so a reverse pass folds
    // every subtree into its root.
    for s in spans.iter().rev() {
        if let Some(p) = s.parent {
            subtree[p] += subtree[s.id];
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "rep" && s.duration_ns() > 0)
        .map(|s| (subtree[s.id] as f64 / s.duration_ns() as f64 - 1.0).abs())
        .fold(0.0, f64::max)
}

pub fn span_json(workload: &str, s: &Span, self_ns: u64) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"event\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\
         \"rep\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
        s.id,
        opt(s.parent),
        s.name,
        workload,
        opt(s.rep),
        s.start_ns,
        s.end_ns,
        self_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            rep: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "setup", 0, 20),
            span(2, Some(0), "sweep", 20, 95),
            span(3, Some(2), "family.calibrate", 25, 60),
            span(4, Some(2), "family.calibrate", 60, 80),
            span(5, Some(2), "family.evaluate", 80, 90),
        ];
        // rep: 100 - (20 + 75); sweep: 75 - (35 + 20 + 10); leaves keep
        // their whole duration. A grandchild is charged to its parent only.
        assert_eq!(self_times_ns(&spans), vec![5, 20, 10, 35, 20, 10]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert_eq!(rep_self_sum_error(&spans), 0.0);
    }

    #[test]
    fn overlapping_children_show_up_as_a_self_sum_gap() {
        // Two children that each cover the whole parent: self time
        // saturates at 0 and the subtree sums to twice the parent.
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "a", 0, 100),
            span(2, Some(0), "b", 0, 100),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
        assert!((rep_self_sum_error(&spans) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ctx_records_the_tree_and_off_records_nothing() {
        let tracer = Tracer::new();
        let ((), secs) = Ctx::root(&tracer).in_rep(3).timed("rep", |c| {
            c.span("setup", |_| ());
            c.span("sweep", |c| c.span("family.calibrate", |_| ()));
        });
        assert!(secs >= 0.0);
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["rep", "setup", "sweep", "family.calibrate"]);
        let parents: Vec<Option<SpanId>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.rep == Some(3)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(Ctx::OFF.span("x", |c| c.span("y", |_| 7)), 7);
        assert!(span_json("wf_sim", &spans[1], 5).contains("\"parent\":0,\"name\":\"setup\""));
    }
}
