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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Collects trace records chronologically.
#[derive(Default)]
pub struct TraceSink {
    records: Mutex<Vec<TraceRecord>>,
}

impl TraceSink {
    /// New, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn record(&self, rec: TraceRecord) {
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
        assert_eq!(sink.take().len(), 3);
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

    #[test]
    fn task_uid_encoding() {
        assert_eq!(TraceRecord::task_uid_for(TaskInstanceId(0)), 262146);
        assert_ne!(
            TraceRecord::task_uid_for(TaskInstanceId(1)),
            TraceRecord::task_uid_for(TaskInstanceId(2))
        );
    }
}
