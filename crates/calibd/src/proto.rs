//! The `lodcal-calibd v1` wire protocol: JSONL request/response frames
//! over one TCP connection per client.
//!
//! Every frame is one line of JSON. Requests and responses are
//! externally-tagged enums — a unit variant is the bare kind string, a
//! struct variant is `{"Kind":{...fields}}` — so the protocol reads the
//! same way the run ledger and the obs trace do. A connection opens with
//! a `Hello` exchange carrying the schema name and version, versioned
//! exactly like the `lodcal-trace` file header:
//!
//! - a foreign schema name is an error (the peer is not a calibd);
//! - a version *newer* than this build understands is an error (frames
//!   may carry semantics this build would silently misread);
//! - an *older* version is accepted (v1 readers add only
//!   forward-compatible events).
//!
//! Within an accepted connection the reader is lenient the same way the
//! trace parser is: a frame kind it does not recognize is skipped by
//! clients (daemons answer `Error` but keep the connection), and a torn
//! final line (peer died mid-write) reads as end-of-stream. Frames are
//! capped at [`MAX_FRAME_BYTES`]; an oversized line is unrecoverable
//! (there is no resync point) and closes the connection.
//!
//! Progress frames embed events shaped like the obs trace schema
//! (`{"event":"counter","name":...,"value":...}`), so a subscribed
//! client can feed them to the same tooling that reads `--trace` files.

use lodsel::cli::BudgetFlags;
use lodsel::sweep::{BudgetPolicy, ShSchedule};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// Schema name carried by `Hello` frames.
pub const SCHEMA_NAME: &str = "lodcal-calibd";
/// Protocol version this build speaks.
pub const SCHEMA_VERSION: u64 = 1;
/// Hard cap on one frame's length in bytes (newline included).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// What a client asks a calibd for.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Connection opener: schema name + version handshake.
    Hello {
        /// Must be [`SCHEMA_NAME`].
        schema: String,
        /// The client's protocol version.
        version: u64,
    },
    /// Submit a sweep job.
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Job status: one job, or every job the daemon knows.
    Status {
        /// Restrict to this job id (`null` for all).
        job: Option<u64>,
    },
    /// Subscribe to a job's progress until it reaches a terminal state.
    Watch {
        /// The job to watch.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Ask the daemon to stop accepting work and exit.
    Shutdown,
}

/// Request kinds this build understands, for lenient tag checking.
const REQUEST_KINDS: [&str; 6] = ["Hello", "Submit", "Status", "Watch", "Cancel", "Shutdown"];

/// A sweep job, as submitted over the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Simulator family to sweep: `wf`, `mpi`, `batch`, or `grid`.
    pub family: String,
    /// Shrunken experiment grid (smoke-test scale).
    pub fast: bool,
    /// Per-run evaluation budget (ignored when `total_evals` is set).
    pub budget_evals: usize,
    /// Shared total-evaluation budget divided fairly over the plan.
    pub total_evals: Option<usize>,
    /// Successive-halving elimination factor. When set (with
    /// `total_evals` as the total budget), the sweep runs the
    /// multi-fidelity rung ladder instead of a fixed split. Absent on
    /// the wire for fixed-budget jobs, so v1 clients interoperate
    /// unchanged.
    pub sh_eta: Option<usize>,
    /// Minimum scenario-subset size per rung (successive halving only).
    pub sh_min_scenarios: Option<usize>,
    /// Calibration restarts per unit.
    pub restarts: usize,
    /// Master seed.
    pub seed: u64,
    /// Recommendation tolerance ε.
    pub epsilon: f64,
    /// Ledger shards to partition the run plan into (0 = daemon default).
    pub shards: usize,
    /// Tenant the job's evaluations are charged against.
    pub tenant: String,
}

impl JobSpec {
    /// The budget policy the job's sweep runs under, by the mapping the
    /// command-line budget flags use ([`BudgetFlags::policy`]).
    pub fn budget_policy(&self) -> BudgetPolicy {
        BudgetFlags {
            budget_evals: self.budget_evals,
            total_evals: self.total_evals,
            sh_eta: self.sh_eta,
            sh_min_scenarios: self.sh_min_scenarios,
        }
        .policy()
    }

    /// Evaluations this job will charge against its tenant's quota: the
    /// exact planned count (the plan is deterministic).
    pub fn planned_evaluations(&self, units: usize) -> usize {
        let runs = units * self.restarts.max(1);
        match self.budget_policy() {
            // Successive halving spends the scheduled rung budgets, which
            // can deterministically undershoot the requested total; an
            // unplannable (too small) total is charged as requested and
            // refunded when the worker surfaces the typed error.
            BudgetPolicy::SuccessiveHalving {
                total,
                eta,
                min_scenarios,
            } => ShSchedule::plan(runs, total, eta, min_scenarios)
                .map(|s| s.total_evaluations())
                .unwrap_or(total),
            BudgetPolicy::TotalEvaluations { total } => total,
            BudgetPolicy::PerRun { .. } => runs * self.budget_evals,
        }
    }
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing shards.
    Running,
    /// Finished with a recommendation and digest.
    Completed,
    /// Gave up (typed shard/merge error or family failure).
    Failed,
    /// Cancelled by a client before completion.
    Cancelled,
}

impl JobState {
    /// Whether the job will never run again.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One job's externally-visible status.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Family being swept.
    pub family: String,
    /// Shard count the plan is partitioned into.
    pub shards: usize,
    /// Lifecycle state.
    pub state: JobState,
    /// Outcome digest, once completed.
    pub digest: Option<String>,
    /// Recommended version label, once completed.
    pub chosen: Option<String>,
    /// Failure reason, if failed.
    pub error: Option<String>,
    /// Combined ledger summary across the job's shard files — the same
    /// schema `lodsel --status-json` prints, so `calibctl status` and
    /// the batch CLI agree by construction.
    pub ledger: Option<lodsel::ledger::LedgerStatus>,
}

/// What a calibd answers with.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Hello {
        /// Always [`SCHEMA_NAME`].
        schema: String,
        /// The daemon's protocol version.
        version: u64,
    },
    /// A submitted job was admitted.
    Accepted {
        /// The new job's id.
        job: u64,
    },
    /// A submitted job was refused (quota, unknown family, ...).
    Rejected {
        /// Why.
        reason: String,
    },
    /// Status answer.
    Jobs {
        /// One entry per selected job, in id order.
        jobs: Vec<JobStatus>,
    },
    /// One streamed progress event of a watched job.
    Progress {
        /// The watched job.
        job: u64,
        /// Monotonic sequence number within this watch.
        seq: u64,
        /// Trace-schema-shaped event payload.
        event: Value,
    },
    /// A watched job reached a terminal state.
    Done {
        /// The watched job.
        job: u64,
        /// Terminal state.
        state: JobState,
        /// Outcome digest, when completed.
        digest: Option<String>,
        /// Recommended version, when completed.
        chosen: Option<String>,
    },
    /// The request could not be served; the connection stays open.
    Error {
        /// Why.
        message: String,
    },
    /// Acknowledges `Shutdown`; the daemon is draining.
    ShuttingDown,
}

/// Response kinds this build understands, for lenient tag checking.
const RESPONSE_KINDS: [&str; 8] = [
    "Hello",
    "Accepted",
    "Rejected",
    "Jobs",
    "Progress",
    "Done",
    "Error",
    "ShuttingDown",
];

/// Why a frame was refused.
#[derive(Debug)]
pub enum ProtoError {
    /// The line is not JSON.
    BadJson(String),
    /// A well-formed frame whose kind this build does not know.
    UnknownKind(String),
    /// A known kind whose fields do not decode.
    Invalid(String),
    /// The handshake named a foreign schema or a newer version.
    BadHello(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadJson(e) => write!(f, "frame is not JSON: {e}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k:?}"),
            ProtoError::Invalid(e) => write!(f, "invalid frame: {e}"),
            ProtoError::BadHello(e) => write!(f, "handshake refused: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Why a frame could not be read off the socket.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure.
    Io(io::Error),
    /// A line exceeded [`MAX_FRAME_BYTES`]; there is no resync point, so
    /// the connection must be closed.
    Oversized {
        /// Bytes read before giving up.
        bytes: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::Oversized { bytes } => write!(
                f,
                "frame exceeds {MAX_FRAME_BYTES} bytes ({bytes}+ read); closing connection"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serialize `value` as one frame line and flush it. The line and its
/// newline go out in one write: on a socket, a frame split over two small
/// writes has its second half held back by Nagle's algorithm until the
/// peer's delayed ACK arrives.
pub fn write_frame<T: Serialize>(writer: &mut impl Write, value: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Read one frame line. `Ok(None)` means a clean end of stream — EOF at
/// a line boundary, or a torn final line (the peer died mid-write; the
/// fragment is dropped, mirroring the ledger's torn-tail leniency).
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        if buf.len() > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized { bytes: buf.len() });
        }
        // EOF mid-line: a torn frame, skipped leniently.
        return Ok(None);
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// The externally-tagged kind of a frame value: the string itself for a
/// unit variant, the single key for a struct variant.
fn frame_kind(value: &Value) -> Option<&str> {
    match value {
        Value::Str(kind) => Some(kind.as_str()),
        Value::Object(fields) if fields.len() == 1 => Some(fields[0].0.as_str()),
        _ => None,
    }
}

/// Validate a `Hello`'s schema/version against what this build speaks,
/// with exactly the trace parser's contract: foreign schema → error,
/// newer version → error, older or equal → accepted.
pub fn check_hello(schema: &str, version: u64) -> Result<(), ProtoError> {
    if schema != SCHEMA_NAME {
        return Err(ProtoError::BadHello(format!(
            "schema {schema:?} is not {SCHEMA_NAME:?}"
        )));
    }
    if version > SCHEMA_VERSION {
        return Err(ProtoError::BadHello(format!(
            "version {version} is newer than supported {SCHEMA_VERSION}"
        )));
    }
    Ok(())
}

/// Decode a request frame. Daemons answer [`Response::Error`] for any
/// `Err` but keep the connection open (the frame itself was bounded).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| ProtoError::BadJson(e.to_string()))?;
    let kind = frame_kind(&value).ok_or_else(|| {
        ProtoError::Invalid("request frame must be an externally-tagged enum".into())
    })?;
    if !REQUEST_KINDS.contains(&kind) {
        return Err(ProtoError::UnknownKind(kind.to_string()));
    }
    Request::from_value(&value).map_err(|e| ProtoError::Invalid(e.to_string()))
}

/// Decode a response frame leniently: garbage and unknown kinds read as
/// `None` so a v1 client skips forward-compatible frames from a newer
/// daemon rather than dying on them, exactly like lenient trace reads.
pub fn parse_response(line: &str) -> Option<Response> {
    let value: Value = serde_json::from_str(line).ok()?;
    let kind = frame_kind(&value)?;
    if !RESPONSE_KINDS.contains(&kind) {
        return None;
    }
    Response::from_value(&value).ok()
}

/// A trace-schema-shaped counter event for progress frames.
pub fn counter_event(name: &str, value: u64) -> Value {
    Value::Object(vec![
        ("event".into(), Value::Str("counter".into())),
        ("name".into(), Value::Str(name.into())),
        ("value".into(), value.to_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_contract_matches_the_trace_parser() {
        assert!(check_hello(SCHEMA_NAME, SCHEMA_VERSION).is_ok());
        assert!(check_hello(SCHEMA_NAME, 0).is_ok(), "older is accepted");
        assert!(check_hello(SCHEMA_NAME, SCHEMA_VERSION + 1).is_err());
        assert!(check_hello("lodcal-trace", SCHEMA_VERSION).is_err());
    }

    #[test]
    fn unknown_request_kind_is_typed_not_invalid() {
        let err = parse_request("{\"Frobnicate\":{\"job\":1}}").unwrap_err();
        assert!(matches!(err, ProtoError::UnknownKind(k) if k == "Frobnicate"));
        let err = parse_request("\"Explode\"").unwrap_err();
        assert!(matches!(err, ProtoError::UnknownKind(k) if k == "Explode"));
    }

    #[test]
    fn responses_parse_leniently() {
        assert!(parse_response("not json at all").is_none());
        assert!(parse_response("{\"FutureFrame\":{\"x\":1}}").is_none());
        assert!(parse_response("[1,2,3]").is_none());
        assert_eq!(
            parse_response("\"ShuttingDown\""),
            Some(Response::ShuttingDown)
        );
    }

    #[test]
    fn job_budget_fields_map_to_the_flags_policy() {
        let spec = |total_evals, sh_eta, sh_min_scenarios| JobSpec {
            family: "batch".into(),
            fast: true,
            budget_evals: 7,
            total_evals,
            sh_eta,
            sh_min_scenarios,
            restarts: 1,
            seed: 42,
            epsilon: 0.1,
            shards: 0,
            tenant: "default".into(),
        };
        let per_run = BudgetPolicy::PerRun {
            budget: simcal::prelude::Budget::Evaluations(7),
        };
        let sh = |min_scenarios| BudgetPolicy::SuccessiveHalving {
            total: 24,
            eta: 2,
            min_scenarios,
        };
        let cases = [
            (spec(None, None, None), per_run),
            (
                spec(Some(24), None, None),
                BudgetPolicy::TotalEvaluations { total: 24 },
            ),
            (spec(Some(24), Some(2), None), sh(1)),
            (spec(Some(24), Some(2), Some(3)), sh(3)),
            // An ETA without a total is still a per-run job.
            (spec(None, Some(2), None), per_run),
        ];
        for (job, want) in cases {
            assert_eq!(job.budget_policy(), want, "{job:?}");
        }
    }

    #[test]
    fn counter_events_use_the_trace_shape() {
        let e = counter_event("calibd_runs_completed", 7);
        assert_eq!(e.get("event").and_then(Value::as_str), Some("counter"));
        assert_eq!(
            e.get("name").and_then(Value::as_str),
            Some("calibd_runs_completed")
        );
        assert_eq!(e.get("value").and_then(Value::as_f64), Some(7.0));
    }

    #[test]
    fn a_frame_is_one_write() {
        // Two writes per frame stall every request/response on an
        // un-tuned socket (Nagle holds the second until the delayed ACK).
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut out, &Request::Status { job: Some(3) }).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"{\"Status\":{\"job\":3}}\n");
    }
}
