//! Chronological trace output in the paper's §6 format.
//!
//! Every `MES(…)` message a process prints is prefixed with a label telling
//! *who* printed *what*, *where* and *when*:
//!
//! ```text
//! basfluit.sen.cwi.nl 1572865 79 1048087412 275851
//!     mainprog Worker(event) ResSourceCode.c 351 -> Welcome
//! ```
//!
//! i.e. machine, task-instance id, process-instance id, a timestamp in
//! seconds and microseconds since the Unix epoch, the task name, the
//! manifold name, the source file and line, and the message.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use crate::config::HostName;
use crate::ident::{Name, ProcessId, TaskInstanceId};

/// A clock supplying trace timestamps: the real system clock, or a virtual
/// one driven externally (by the cluster discrete-event simulator).
#[derive(Clone)]
pub enum Clock {
    /// Wall-clock time from the OS.
    System,
    /// Microseconds since the epoch, advanced by whoever owns the Arc.
    Virtual(Arc<AtomicU64>),
}

impl Clock {
    /// A fresh virtual clock starting at the given epoch-microseconds.
    pub fn virtual_at(epoch_micros: u64) -> (Clock, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(epoch_micros));
        (Clock::Virtual(cell.clone()), cell)
    }

    /// Current time in microseconds since the Unix epoch.
    pub fn now_micros(&self) -> u64 {
        match self {
            Clock::System => SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            Clock::Virtual(v) => v.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clock::System => write!(f, "Clock::System"),
            Clock::Virtual(v) => write!(f, "Clock::Virtual({})", v.load(Ordering::Relaxed)),
        }
    }
}

/// One trace line (two physical lines in the paper's output).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Machine the task instance runs on.
    pub host: HostName,
    /// Task-instance identification (the long number in the paper).
    pub task_uid: u64,
    /// Process-instance identification.
    pub proc_uid: u64,
    /// Seconds since the Unix epoch.
    pub secs: u64,
    /// Microseconds part.
    pub usecs: u32,
    /// Task name (e.g. `mainprog`).
    pub task_name: Name,
    /// Manifold name (e.g. `Worker(event)`).
    pub manifold_name: Name,
    /// Source file that issued the message.
    pub source_file: String,
    /// Line number in that file.
    pub line: u32,
    /// The actual message (`Welcome`, `Bye`, …).
    pub message: String,
}

impl TraceRecord {
    /// Encode a task-instance id the way the paper's runtime does (large
    /// composite numbers such as `262146`): instance index shifted into the
    /// high bits with a small tag in the low bits.
    pub fn task_uid_for(task: TaskInstanceId) -> u64 {
        ((task.0 + 1) << 18) | 2
    }

    /// Process-instance uid (the raw process number).
    pub fn proc_uid_for(p: ProcessId) -> u64 {
        p.0
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}\n    {} {} {} {} -> {}",
            self.host,
            self.task_uid,
            self.proc_uid,
            self.secs,
            self.usecs,
            self.task_name,
            self.manifold_name,
            self.source_file,
            self.line,
            self.message
        )
    }
}

impl TraceRecord {
    /// Parse one record from its two-line [`Display`] form. `first` is the
    /// numeric header line, `second` the indented detail line.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn parse_pair(first: &str, second: &str) -> Option<TraceRecord> {
        let mut h = first.split_whitespace();
        let host = HostName::new(h.next()?);
        let task_uid = h.next()?.parse().ok()?;
        let proc_uid = h.next()?.parse().ok()?;
        let secs = h.next()?.parse().ok()?;
        let usecs = h.next()?.parse().ok()?;
        if h.next().is_some() {
            return None;
        }
        let detail = second.trim_start();
        let (head, message) = detail.split_once(" -> ")?;
        let mut d = head.split_whitespace();
        let task_name = Name::new(d.next()?);
        let manifold_name = Name::new(d.next()?);
        let source_file = d.next()?.to_string();
        let line = d.next()?.parse().ok()?;
        if d.next().is_some() {
            return None;
        }
        Some(TraceRecord {
            host,
            task_uid,
            proc_uid,
            secs,
            usecs,
            task_name,
            manifold_name,
            source_file,
            line,
            message: message.to_string(),
        })
    }
}

/// Parse a whole trace dump (a sequence of two-line records as produced by
/// [`format_trace`] or the live `MES` echo). Blank lines are skipped;
/// malformed pairs are an error carrying the offending line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    while let Some((n, first)) = lines.next() {
        let (_, second) = lines
            .next()
            .ok_or_else(|| format!("line {}: record truncated", n + 1))?;
        let rec = TraceRecord::parse_pair(first, second)
            .ok_or_else(|| format!("line {}: malformed trace record", n + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Render records in the same two-line format [`parse_trace`] reads.
pub fn format_trace(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// Merge per-process trace files into one chronology: interleave the
/// record sequences by timestamp. Each input sequence is assumed
/// internally ordered (as every `TraceSink` produces); ties keep the
/// input order (earlier sequences first), so merging is deterministic.
pub fn merge_traces(sequences: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut merged: Vec<(usize, TraceRecord)> = sequences
        .into_iter()
        .enumerate()
        .flat_map(|(i, seq)| seq.into_iter().map(move |r| (i, r)))
        .collect();
    merged.sort_by_key(|(i, r)| (r.secs, r.usecs, *i));
    merged.into_iter().map(|(_, r)| r).collect()
}

/// Collects trace records chronologically; optionally echoes them to stderr
/// as they arrive.
pub struct TraceSink {
    records: Mutex<Vec<TraceRecord>>,
    echo: AtomicBool,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// New, silent sink.
    pub fn new() -> Self {
        TraceSink {
            records: Mutex::new(Vec::new()),
            echo: AtomicBool::new(false),
        }
    }

    /// Echo records to stderr as they arrive (the live `MES` behaviour).
    pub fn set_echo(&self, on: bool) {
        self.echo.store(on, Ordering::Relaxed);
    }

    /// Append a record.
    pub fn record(&self, rec: TraceRecord) {
        if self.echo.load(Ordering::Relaxed) {
            eprintln!("{rec}");
        }
        self.records.lock().push(rec);
    }

    /// Copy of all records so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().clone()
    }

    /// Remove and return all records. The sink retains whatever nobody
    /// has taken: a consumer that serves many jobs over one environment
    /// takes each job's records as the job ends, so the sink holds one
    /// job's worth at most.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Drop all but the most recent `n` records; returns how many went.
    /// For a sink nobody takes from until the very end: its owner bounds
    /// what it retains, and says in the final dump how much is missing.
    pub fn keep_last(&self, n: usize) -> usize {
        let mut records = self.records.lock();
        let excess = records.len().saturating_sub(n);
        records.drain(..excess);
        excess
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_layout() {
        let rec = TraceRecord {
            host: HostName::new("basfluit.sen.cwi.nl"),
            task_uid: 1572865,
            proc_uid: 79,
            secs: 1048087412,
            usecs: 275851,
            task_name: Name::new("mainprog"),
            manifold_name: Name::new("Worker(event)"),
            source_file: "ResSourceCode.c".into(),
            line: 351,
            message: "Welcome".into(),
        };
        let s = rec.to_string();
        assert!(s.starts_with("basfluit.sen.cwi.nl 1572865 79 1048087412 275851"));
        assert!(s.ends_with("mainprog Worker(event) ResSourceCode.c 351 -> Welcome"));
    }

    #[test]
    fn sink_collects_in_order() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        for i in 0..3 {
            sink.record(TraceRecord {
                host: HostName::new("h"),
                task_uid: 1,
                proc_uid: i,
                secs: 0,
                usecs: 0,
                task_name: Name::new("t"),
                manifold_name: Name::new("m"),
                source_file: "f".into(),
                line: 1,
                message: format!("m{i}"),
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[2].message, "m2");
        assert_eq!(sink.keep_last(5), 0);
        assert_eq!(sink.keep_last(2), 1);
        assert_eq!(sink.snapshot()[0].message, "m1");
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn virtual_clock_is_driven_externally() {
        let (clock, cell) = Clock::virtual_at(1_000_000);
        assert_eq!(clock.now_micros(), 1_000_000);
        cell.store(2_500_000, Ordering::Relaxed);
        assert_eq!(clock.now_micros(), 2_500_000);
    }

    #[test]
    fn system_clock_advances() {
        let c = Clock::System;
        let a = c.now_micros();
        assert!(a > 1_000_000_000_000_000); // after ~2001 in micros
    }

    fn rec(host: &str, secs: u64, usecs: u32, msg: &str) -> TraceRecord {
        TraceRecord {
            host: HostName::new(host),
            task_uid: 262146,
            proc_uid: 7,
            secs,
            usecs,
            task_name: Name::new("mainprog"),
            manifold_name: Name::new("Worker(event)"),
            source_file: "worker.rs".into(),
            line: 12,
            message: msg.into(),
        }
    }

    #[test]
    fn parse_round_trips_display() {
        let records = vec![
            rec("a.example", 10, 5, "Welcome"),
            rec("b.example", 10, 9, "Bye"),
        ];
        let text = format_trace(&records);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn parse_preserves_spaces_in_message() {
        let r = rec("h", 1, 2, "worker lost; re-dispatching subsolve(3, 1)");
        let back = parse_trace(&format_trace(std::slice::from_ref(&r))).unwrap();
        assert_eq!(back[0].message, r.message);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("just one line").is_err());
        assert!(parse_trace("h x 1 2 3\n    t m f 1 -> msg").is_err());
    }

    #[test]
    fn merge_interleaves_by_timestamp() {
        let a = vec![rec("a", 1, 0, "a1"), rec("a", 3, 0, "a2")];
        let b = vec![rec("b", 2, 0, "b1"), rec("b", 3, 0, "b2")];
        let m = merge_traces(vec![a, b]);
        let msgs: Vec<&str> = m.iter().map(|r| r.message.as_str()).collect();
        // Tie at secs=3 resolved by sequence order: a before b.
        assert_eq!(msgs, vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn merge_of_empty_is_empty() {
        assert!(merge_traces(vec![]).is_empty());
        assert!(merge_traces(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn task_uid_encoding() {
        assert_eq!(TraceRecord::task_uid_for(TaskInstanceId(0)), 262146);
        assert_ne!(
            TraceRecord::task_uid_for(TaskInstanceId(1)),
            TraceRecord::task_uid_for(TaskInstanceId(2))
        );
    }
}
