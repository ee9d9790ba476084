//! # transport — real multi-process task instances over sockets
//!
//! The `manifold` crate runs every process instance as a thread and keeps
//! task instances as bookkeeping entities. This crate supplies the missing
//! half of the paper's deployment story: task instances as *separate
//! operating-system processes*, connected to the coordinator's process over
//! TCP or Unix-domain sockets. Each child names its own host in its
//! `Hello`, and that is the host the §6 trace reports.
//!
//! The stack, bottom up:
//!
//! * [`wire`] — exact binary encoding of [`manifold::Unit`] values
//!   (little-endian, IEEE-754 bit patterns for reals);
//! * [`frame`] — length-prefixed, CRC-32-guarded framing, every frame
//!   at most [`MAX_FRAME`]: whole or in two parts (head and body, one
//!   `writev`, the CRC fed piece by piece), read back blocking or by an
//!   incremental decoder;
//! * [`msg`] — the session protocol (`Hello`/`HelloAck` handshake, `Job`/
//!   `Done`/`Fail` request-response, `Heartbeat`, `Shutdown`, `Leave`);
//! * [`conn`] — sockets: the one [`Listener`] (bind, stale Unix socket
//!   removal, non-blocking accept, unlink on drop; `unix:@NAME` binds in
//!   Linux's abstract namespace, with no file at all) behind both this
//!   crate's launcher and the serving daemon's reactor, and one
//!   connection (TCP or Unix socket) with timeouts and bounded
//!   reconnect-with-backoff;
//! * [`poll`] — `poll(2)` and a cross-thread waker: the launcher waits
//!   for its children's connections with it, and the serving daemon's
//!   reactor for everything;
//! * [`spawn`] — launching child task-instance processes: a local
//!   `fork/exec` spawner behind a trait tests substitute;
//! * [`server`] — the child-side serve loop (handshake, job execution,
//!   heartbeats while computing, `Leave` and `Shutdown` answered by
//!   closing);
//! * [`launcher`] — the coordinator-side pool: spawns instances, owns the
//!   fleet's membership (joins and retirements go through its slots),
//!   takes jobs without blocking (up to two on each connection's wire,
//!   the rest in the fleet's queue, one reader thread per connection),
//!   listens on a Unix-domain socket named in the abstract namespace (its
//!   children all run on this host), detects dead instances
//!   (EOF, heartbeat silence) and respawns them under a bounded budget;
//! * [`stage`] — set-up stage stamps a daemon prints to say where its
//!   start-up time went.
//!
//! Nothing above this crate binds or accepts a socket of its own: the
//! serving daemon's reactor listens through [`Listener`], and `protocol`
//! and the application layers talk to [`manifold::remote`] traits only, so
//! the threads backend and this process backend are interchangeable by
//! configuration.

pub mod conn;
pub mod frame;
pub mod launcher;
pub mod msg;
pub mod poll;
pub mod server;
pub mod spawn;
pub mod stage;
pub mod wire;

use std::fmt;

pub use conn::{connect_with_backoff, Addr, Backoff, Conn, Listener, Stream};
pub use frame::{crc32, frame_vec, read_frame, write_frame, FrameDecoder, HEADER_LEN, MAX_FRAME};
pub use launcher::{PoolConfig, RemoteWorkerPool};
pub use msg::{Message, PROTOCOL_VERSION};
pub use server::{serve, ServeConfig, ServeFaults, ServeSummary};
pub use spawn::{ChildHandle, LocalSpawner, SpawnSpec, Spawner};
pub use wire::{decode_unit, encode_unit, encode_unit_vec, MAX_DEPTH};

/// Errors from the wire codec and the incremental frame decoder.
///
/// These all mean "the peer (or the medium) produced bytes we refuse to
/// interpret"; the connection carrying them is considered poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Tuple nesting beyond [`MAX_DEPTH`].
    TooDeep,
    /// A length does not fit the `u32` wire field, or a frame exceeds
    /// [`MAX_FRAME`].
    TooLong,
    /// Attempt to encode a [`manifold::Unit::ProcessRef`], which has no
    /// meaning outside its own environment.
    ProcessRef,
    /// Input ended (or a declared length overran the buffer) mid-value.
    Truncated,
    /// A frame contained the given number of bytes after a complete unit.
    Trailing(usize),
    /// A text field was not valid UTF-8.
    BadUtf8,
    /// Unknown type tag.
    BadTag(u8),
    /// A frame's payload did not match the CRC-32 in its header.
    BadCrc,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooDeep => write!(f, "tuple nesting exceeds {MAX_DEPTH}"),
            WireError::TooLong => write!(f, "length exceeds wire limits"),
            WireError::ProcessRef => write!(f, "process references cannot cross the wire"),
            WireError::Truncated => write!(f, "input truncated mid-value"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadUtf8 => write!(f, "text field is not valid utf-8"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::BadCrc => write!(f, "frame payload fails its crc-32 checksum"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// The machine's real hostname, as the paper's §6 trace reports it.
///
/// Reads `/proc/sys/kernel/hostname`, falling back to the `HOSTNAME`
/// environment variable, then to `"localhost"`.
pub fn real_hostname() -> String {
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim();
        if !h.is_empty() {
            return h.to_string();
        }
    }
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    "localhost".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_error_displays() {
        assert!(WireError::TooDeep.to_string().contains("64"));
        assert!(WireError::Trailing(3).to_string().contains('3'));
        assert!(WireError::BadTag(9).to_string().contains('9'));
    }

    #[test]
    fn hostname_is_nonempty() {
        assert!(!real_hostname().is_empty());
    }
}
