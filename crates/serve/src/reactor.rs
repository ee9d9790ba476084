//! The readiness half of the serve loop: many tenant connections, one
//! thread, zero threads per connection.
//!
//! The transport crate's coordinator↔worker path spends a thread per
//! connection — fine for 32 workers, a coordination-overhead cliff for
//! thousands of tenants. This reactor is the other shape: sockets are
//! nonblocking, and one hand-rolled [`poll(2)`][transport::poll] waits on the
//! listener (the transport crate's [`Listener`], the same one the worker
//! fleet binds, which replaces a stale socket file on bind), every
//! session's socket and one [`Waker`], which other threads trip to hand
//! the loop something that is not a socket — a finished engine job, or a
//! drain.
//!
//! The reactor knows nothing about admission or engines. [`Reactor::wait`]
//! sleeps in `poll(2)`, accepts every pending connection into the session
//! table and says which sessions have bytes to read; the serve loop
//! ([`crate::daemon`]) reads and handles them, queues replies on the
//! sessions' outboxes, and calls [`Reactor::flush`] once per turn.

use std::sync::Arc;
use std::time::Duration;

use transport::poll::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use transport::{Addr, Listener};

use crate::registry::{Registry, SessionId};

/// The listener, the session table and the poll set, owned by the one
/// thread that serves them.
pub struct Reactor {
    /// `None` once accepting stops.
    listener: Option<Listener>,
    local: Addr,
    waker: Arc<Waker>,
    /// Every live session.
    pub sessions: Registry,
    /// Scratch poll set: the waker, the listener, then one entry per
    /// session in `polled` order.
    fds: Vec<PollFd>,
    polled: Vec<SessionId>,
}

impl Reactor {
    /// Bind `addr`; nothing is accepted before the first [`Reactor::wait`].
    pub fn bind(addr: &Addr) -> std::io::Result<Reactor> {
        let (listener, local) = Listener::bind(addr)?;
        Ok(Reactor {
            listener: Some(listener),
            local,
            waker: Arc::new(Waker::new()?),
            sessions: Registry::default(),
            fds: Vec::new(),
            polled: Vec::new(),
        })
    }

    /// The bound address (with the kernel-assigned port for `tcp:…:0`).
    pub fn local_addr(&self) -> &Addr {
        &self.local
    }

    /// The waker that ends a [`Reactor::wait`] from another thread.
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Close the listener: no new connections.
    pub fn stop_accepting(&mut self) {
        self.listener = None;
    }

    /// Block until a socket is ready, the waker trips or `timeout`
    /// passes (`None` waits for ever); accept every pending connection,
    /// and return the sessions with something to read (or a hang-up).
    pub fn wait(&mut self, timeout: Option<Duration>) -> Vec<SessionId> {
        self.fds.clear();
        self.polled.clear();
        self.fds.push(PollFd::new(self.waker.poll_fd(), POLLIN));
        if let Some(l) = &self.listener {
            self.fds.push(PollFd::new(l.fd(), POLLIN));
        }
        let base = self.fds.len();
        for s in self.sessions.iter_mut() {
            let read = if s.closing { 0 } else { POLLIN };
            let write = if s.has_output() { POLLOUT } else { 0 };
            self.fds.push(PollFd::new(s.fd(), read | write));
            self.polled.push(s.id);
        }
        // Round up: a deadline 0.4 ms away must not become a busy loop.
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        if poll_fds(&mut self.fds, ms).is_err() {
            return Vec::new();
        }
        if self.fds[0].ready(POLLIN) {
            self.waker.drain();
        }
        if let Some(l) = self.listener.as_ref().filter(|_| self.fds[1].ready(POLLIN)) {
            loop {
                match l.accept().and_then(|s| s.set_nonblocking(true).map(|()| s)) {
                    Ok(stream) => {
                        self.sessions.insert(stream);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // WouldBlock, or a transient accept error: retry
                    // when the listener next polls ready.
                    Err(_) => break,
                }
            }
        }
        self.polled
            .iter()
            .zip(&self.fds[base..])
            .filter(|(_, fd)| fd.ready(POLLIN))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Write each session's outbox once, as far as its socket takes it,
    /// and close every session whose peer is gone or that is closing with
    /// nothing left to write. Returns the closed sessions.
    pub fn flush(&mut self) -> Vec<SessionId> {
        let mut closed = Vec::new();
        for s in self.sessions.iter_mut() {
            let gone = s.has_output() && s.flush().is_err();
            if gone || (s.closing && !s.has_output()) {
                closed.push(s.id);
            }
        }
        for &id in &closed {
            self.sessions.remove(id);
        }
        closed
    }
}
