//! Blocking calibd client: one TCP connection, JSONL frames, with the
//! lenient read-side contract (unparseable frames are skipped, like the
//! trace parser skips unknown event kinds).

use crate::proto::{
    check_hello, parse_response, read_frame, write_frame, FrameError, JobSpec, JobState, JobStatus,
    Request, Response, SCHEMA_NAME, SCHEMA_VERSION,
};
use serde::Value;
use std::io::{self, BufReader};
use std::net::TcpStream;

/// A connected calibd client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn other(message: impl Into<String>) -> io::Error {
    io::Error::other(message.into())
}

impl Client {
    /// Connect and complete the Hello exchange.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Frames are small and each waits for its answer: never batch them.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Self {
            reader: BufReader::new(stream),
            writer,
        };
        client.send(&Request::Hello {
            schema: SCHEMA_NAME.into(),
            version: SCHEMA_VERSION,
        })?;
        match client.recv()? {
            Response::Hello { schema, version } => check_hello(&schema, version)
                .map_err(|e| other(format!("daemon handshake failed: {e}")))?,
            Response::Error { message } => return Err(other(message)),
            _ => return Err(other("daemon did not answer the Hello")),
        }
        Ok(client)
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, request)
    }

    /// Next parseable response frame. Unknown or garbled frames are
    /// skipped leniently; EOF and oversized frames are errors.
    fn recv(&mut self) -> io::Result<Response> {
        loop {
            match read_frame(&mut self.reader) {
                Ok(Some(line)) => {
                    if let Some(response) = parse_response(&line) {
                        return Ok(response);
                    }
                }
                Ok(None) => return Err(other("connection closed by daemon")),
                Err(FrameError::Io(e)) => return Err(e),
                Err(e @ FrameError::Oversized { .. }) => return Err(other(e.to_string())),
            }
        }
    }

    /// Submit a job; returns its id.
    pub fn submit(&mut self, spec: JobSpec) -> io::Result<u64> {
        self.send(&Request::Submit { spec })?;
        match self.recv()? {
            Response::Accepted { job } => Ok(job),
            Response::Rejected { reason } => Err(other(format!("rejected: {reason}"))),
            Response::Error { message } => Err(other(message)),
            _ => Err(other("unexpected reply to Submit")),
        }
    }

    /// Status of one job (or all jobs when `job` is `None`).
    pub fn status(&mut self, job: Option<u64>) -> io::Result<Vec<JobStatus>> {
        self.send(&Request::Status { job })?;
        match self.recv()? {
            Response::Jobs { jobs } => Ok(jobs),
            Response::Error { message } => Err(other(message)),
            _ => Err(other("unexpected reply to Status")),
        }
    }

    /// Stream progress for `job` until it finishes. Each progress frame
    /// invokes `on_progress(seq, event)`; returns the terminal state,
    /// the outcome digest, and the chosen version label.
    pub fn watch(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(u64, &Value),
    ) -> io::Result<(JobState, Option<String>, Option<String>)> {
        self.send(&Request::Watch { job })?;
        loop {
            match self.recv()? {
                Response::Progress { seq, event, .. } => on_progress(seq, &event),
                Response::Done {
                    state,
                    digest,
                    chosen,
                    ..
                } => return Ok((state, digest, chosen)),
                Response::Error { message } => return Err(other(message)),
                _ => {} // lenient: tolerate frames a future daemon may add
            }
        }
    }

    /// Cancel a job; returns its updated status.
    pub fn cancel(&mut self, job: u64) -> io::Result<JobStatus> {
        self.send(&Request::Cancel { job })?;
        match self.recv()? {
            Response::Jobs { mut jobs } => jobs.pop().ok_or_else(|| other("empty cancel reply")),
            Response::Error { message } => Err(other(message)),
            _ => Err(other("unexpected reply to Cancel")),
        }
    }

    /// Ask the daemon to shut down.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShuttingDown => Ok(()),
            Response::Error { message } => Err(other(message)),
            _ => Err(other("unexpected reply to Shutdown")),
        }
    }
}
