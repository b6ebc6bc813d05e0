//! The workspace's one append-only log: a file of JSON records, one per
//! line, that survives a kill at any byte. The run ledger
//! (`lodsel::ledger`), the loss-cache shards ([`crate::cache`]) and
//! calibd's `jobs.jsonl` are all [`JsonlLog`]s.
//!
//! The contract:
//!
//! - **One record per line.** [`JsonlLog::append`] writes the serialised
//!   record and its newline in one `write_all` and flushes it.
//! - **A torn tail heals on open.** A kill mid-append leaves a final line
//!   with no newline. When [`JsonlLog::open`] finds such a fragment, or
//!   any other line that is not a record, it compacts the log: it writes
//!   the record lines alone to a temporary file beside it and renames that
//!   into place, so the next record starts on a line of its own and no
//!   later open re-reads the fragment. A kill during compaction leaves the
//!   log as it was.
//! - **A retried append starts on a fresh line**, so a partial first
//!   attempt cannot corrupt the record that follows it.
//! - **Reads are lenient.** Blank lines and lines that are not a record
//!   (a torn tail, invalid UTF-8, a foreign line) are skipped, never
//!   fatal: the work they recorded simply re-runs.
//! - **Transient I/O errors retry.** Interrupted, would-block and
//!   timed-out errors are retried with a short bounded backoff (1 / 5 /
//!   20 ms), each retry bumping [`obs::Counter::LedgerRetries`]; any other
//!   error goes to the caller, who decides what a failed log means.
//!
//! "Durable" means surviving a killed process: nothing here calls
//! `sync_data`, so a host crash can still lose flushed records.

use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// An open append-only log.
pub struct JsonlLog {
    file: File,
}

impl JsonlLog {
    /// Open the log at `path` for appending, creating the file and its
    /// directory if absent, and return it with every record already in
    /// it. A log holding anything but whole record lines is compacted
    /// first.
    pub fn open<T: Deserialize>(path: &Path) -> io::Result<(JsonlLog, Vec<T>)> {
        retry_transient(|| {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            let mut file = open_for_append(path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let records: Vec<T> = parse(&bytes);
            // Whole record lines only: one newline per record, and one
            // closing the file.
            let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
            if newlines != records.len() || bytes.last().is_some_and(|&b| b != b'\n') {
                let mut kept = Vec::with_capacity(bytes.len());
                for line in lines(&bytes).filter(|line| record::<T>(line).is_some()) {
                    kept.extend_from_slice(line.as_bytes());
                    kept.push(b'\n');
                }
                let mut temp = path.as_os_str().to_owned();
                temp.push(".compact");
                std::fs::write(&temp, &kept)?;
                std::fs::rename(&temp, path)?;
                file = open_for_append(path)?;
            }
            Ok((JsonlLog { file }, records))
        })
    }

    /// Append `record` as one line and flush it.
    pub fn append<T: Serialize>(&mut self, record: &T) -> io::Result<()> {
        let mut line = serde_json::to_string(record).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record does not serialize: {e}"),
            )
        })?;
        line.push('\n');
        let file = &mut self.file;
        let mut dirty = false;
        retry_transient(|| {
            if dirty {
                file.write_all(b"\n")?;
            }
            dirty = true;
            file.write_all(line.as_bytes())?;
            file.flush()
        })
    }
}

/// The records of the log at `path`, read without opening it for
/// appending. A missing file reads as empty.
pub fn read<T: Deserialize>(path: &Path) -> io::Result<Vec<T>> {
    match retry_transient(|| std::fs::read(path)) {
        Ok(bytes) => Ok(parse(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// The records in `bytes`, one per line; lines that are not a record are
/// skipped.
pub fn parse<T: Deserialize>(bytes: &[u8]) -> Vec<T> {
    lines(bytes).filter_map(record).collect()
}

/// The non-blank UTF-8 lines of `bytes`.
fn lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line).ok())
        .filter(|line| !line.trim().is_empty())
}

/// The record `line` holds, if it is one.
fn record<T: Deserialize>(line: &str) -> Option<T> {
    serde_json::from_str(line).ok()
}

/// `path` opened for reading and appending, created if absent.
fn open_for_append(path: &Path) -> io::Result<File> {
    // The one place that opens a file for append.
    #[allow(clippy::disallowed_methods)]
    OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
}

/// Backoff before each retry of a transient I/O error.
const RETRY_BACKOFF_MS: [u64; 3] = [1, 5, 20];

/// Whether an I/O error kind is worth retrying: the operation may succeed
/// if simply re-attempted a moment later.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `op`, retrying transient I/O errors with a short backoff, at most
/// three retries. Permanent errors, and transient ones that outlast the
/// backoff schedule, are returned.
fn retry_transient<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(e) if attempt < RETRY_BACKOFF_MS.len() && is_transient(e.kind()) => {
                obs::counter(obs::Counter::LedgerRetries, 1);
                std::thread::sleep(std::time::Duration::from_millis(RETRY_BACKOFF_MS[attempt]));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The retry counter goes to the process-global recorder: tests that
    /// retry transient errors must not overlap the one that counts them.
    static RETRY_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn retry_transient_retries_interrupted_writes_and_counts_them() {
        let _serial = RETRY_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let _recorder = crate::OBS_RECORDER
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let recorder = std::sync::Arc::new(obs::TraceRecorder::new());
        obs::install(recorder.clone());
        let mut attempts = 0;
        let out = retry_transient(|| {
            attempts += 1;
            if attempts < 3 {
                Err(io::Error::new(ErrorKind::Interrupted, "interrupted"))
            } else {
                Ok(attempts)
            }
        });
        obs::uninstall();
        assert_eq!(out.unwrap(), 3);
        assert_eq!(recorder.counter_value(obs::Counter::LedgerRetries), 2);
    }

    #[test]
    fn retry_transient_gives_up_on_permanent_errors_immediately() {
        let mut attempts = 0;
        let out: io::Result<()> = retry_transient(|| {
            attempts += 1;
            Err(io::Error::new(ErrorKind::PermissionDenied, "nope"))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::PermissionDenied);
        assert_eq!(attempts, 1, "permanent errors must not be retried");
    }

    #[test]
    fn retry_transient_is_bounded_for_persistent_transient_errors() {
        let _serial = RETRY_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let mut attempts = 0;
        let out: io::Result<()> = retry_transient(|| {
            attempts += 1;
            Err(io::Error::new(ErrorKind::Interrupted, "still interrupted"))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::Interrupted);
        assert_eq!(attempts, 4, "one initial attempt plus three retries");
    }

    /// Collision-free path in a fresh temp directory (tests run
    /// concurrently).
    fn tmp_log(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("simcal-jsonl-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("log.jsonl")
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Note {
        id: u64,
        text: String,
    }

    fn note(id: u64, text: &str) -> Note {
        Note {
            id,
            text: text.into(),
        }
    }

    #[test]
    fn a_cut_at_any_byte_keeps_exactly_the_whole_records() {
        let path = tmp_log("cut");
        let notes = [
            note(1, "plain"),
            note(2, "say \"hi\"}"),
            note(3, "two\nlines"),
            note(4, "café"),
        ];
        {
            let (mut log, loaded) = JsonlLog::open::<Note>(&path).unwrap();
            assert!(loaded.is_empty());
            for n in &notes {
                log.append(n).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Each record ends in its closing `}` right before its newline.
        let ends: Vec<usize> = (0..full.len()).filter(|&i| full[i] == b'\n').collect();
        assert_eq!(ends.len(), notes.len(), "one line per record");
        let after = note(5, "after the cut");
        for k in 0..=full.len() {
            std::fs::write(&path, &full[..k]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= k).count();
            let (mut log, loaded) = JsonlLog::open::<Note>(&path).unwrap();
            assert_eq!(loaded, notes[..whole], "open after a cut at byte {k}");
            log.append(&after).unwrap();
            drop(log);
            let mut expected = notes[..whole].to_vec();
            expected.push(after.clone());
            assert_eq!(
                read::<Note>(&path).unwrap(),
                expected,
                "append after a cut at byte {k}"
            );
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn an_open_after_a_cut_leaves_a_clean_log_of_the_whole_records() {
        let path = tmp_log("compact");
        let notes = [note(1, "plain"), note(2, "two\nlines"), note(3, "café")];
        {
            let (mut log, _) = JsonlLog::open::<Note>(&path).unwrap();
            for n in &notes {
                log.append(n).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let ends: Vec<usize> = (0..full.len()).filter(|&i| full[i] == b'\n').collect();
        for k in 0..=full.len() {
            std::fs::write(&path, &full[..k]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= k).count();
            drop(JsonlLog::open::<Note>(&path).unwrap());
            // A clean log of the same records: what appending them to an
            // empty log writes.
            let clean = ends[..whole].last().map_or(0, |&end| end + 1);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                full[..clean],
                "open after a cut at byte {k}"
            );
        }
        // A fragment healed by an older open, followed by a record, goes
        // too.
        let mut healed = full[..ends[0] + 4].to_vec();
        healed.push(b'\n');
        healed.extend_from_slice(&full[ends[0] + 1..]);
        std::fs::write(&path, &healed).unwrap();
        let (_, loaded) = JsonlLog::open::<Note>(&path).unwrap();
        assert_eq!(loaded, notes);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
