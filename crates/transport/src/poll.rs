//! A hand-rolled `poll(2)` readiness facility.
//!
//! The build environment vendors no `mio`, so the serving daemon's reactor
//! and the launcher's handshake wait sit directly on the one syscall they
//! need. `poll(2)` is part of every libc the Rust standard library already
//! links against, so declaring the symbol here costs nothing and keeps
//! both layers dependency-free.
//!
//! Two pieces:
//!
//! * `poll` — a safe wrapper over the syscall: give it a scratch
//!   [`PollFd`] vector and a timeout, get back the number of ready fds
//!   (EINTR is retried internally, so callers never see it);
//! * [`Waker`] — the classic self-pipe trick over a `socketpair(2)` (via
//!   [`UnixStream::pair`], so no raw `pipe` FFI either): any thread calls
//!   [`Waker::wake`], the serve loop polls the read end and calls
//!   [`Waker::drain`] when it trips.

use std::io::{Read, Write};
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;

/// `poll(2)` event bit: readable.
pub const POLLIN: i16 = 0x001;
/// `poll(2)` event bit: writable.
pub const POLLOUT: i16 = 0x004;
/// `poll(2)` revent bit: error condition.
const POLLERR: i16 = 0x008;
/// `poll(2)` revent bit: peer hung up.
const POLLHUP: i16 = 0x010;
/// `poll(2)` revent bit: fd not open.
const POLLNVAL: i16 = 0x020;

/// One entry of the `poll(2)` fd set — layout-compatible with the
/// kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported ready events.
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report any of `mask` (or a terminal condition)?
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

extern "C" {
    // int poll(struct pollfd *fds, nfds_t nfds, int timeout);
    // nfds_t is unsigned long on every Linux ABI this repo targets.
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: std::os::raw::c_int) -> i32;
}

/// Block until at least one fd in `fds` is ready or `timeout_ms` elapses
/// (negative blocks forever). Returns the number of ready fds; 0 means
/// timeout. EINTR is retried.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        let n = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

/// Cross-thread wake-up for a thread blocked in [`poll_fds`].
pub struct Waker {
    /// Read end, in the polling thread's poll set.
    rx: UnixStream,
    /// Write end: one nonblocking `write(2)` per wake, from any thread.
    tx: UnixStream,
}

impl Waker {
    /// A fresh waker pair.
    pub fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The fd the polling thread adds to its poll set (watch [`POLLIN`]).
    pub fn poll_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Wake the polling thread. A full socketpair buffer means a wake-up
    /// is already pending, which is all a level-triggered poller needs.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Drain pending wake-up bytes (polling side, after the fd trips).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // Nonblocking: a short read (or WouldBlock) means it is empty.
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_with_no_ready_fd() {
        let w = Waker::new().unwrap();
        let mut fds = [PollFd::new(w.poll_fd(), POLLIN)];
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, 50).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn waker_trips_poll_and_drains() {
        let w = std::sync::Arc::new(Waker::new().unwrap());
        let w2 = std::sync::Arc::clone(&w);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
            w2.wake();
        });
        let mut fds = [PollFd::new(w.poll_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 5_000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
        // Both wakes are in flight once the writer joins; drain swallows
        // them all, so the next poll times out instead of spinning.
        t.join().unwrap();
        w.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 10).unwrap(), 0);
    }

    #[test]
    fn poll_reports_readable_socket_data() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        use std::os::fd::AsRawFd;
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 10).unwrap(), 0);
        a.write_all(b"x").unwrap();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
    }
}
