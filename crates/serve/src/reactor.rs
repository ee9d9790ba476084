//! The readiness/reactor front end: many tenant connections, a few event
//! threads, zero threads per connection.
//!
//! The transport crate's coordinator↔worker path spends a thread per
//! connection — fine for 32 workers, a coordination-overhead cliff for
//! thousands of tenants. This reactor is the other shape: sockets are
//! nonblocking, each event thread (one per core by default) owns a slice
//! of the connections and sits in a hand-rolled [`poll(2)`][crate::poll]
//! loop, and all per-connection state is a [`FrameDecoder`] plus an
//! outbound byte queue. Thread 0 additionally owns the listener — the
//! transport crate's [`Listener`], the same one the worker fleet binds,
//! which replaces a stale socket file on bind — and deals accepted
//! connections round-robin to the event threads through injector queues.
//!
//! The reactor knows nothing about admission or engines: it turns socket
//! bytes into [`ServeMsg`]s for a [`Service`] and flushes whatever the
//! service (or the dispatcher, via [`Session::send`]) queues on each
//! session's outbox. Lifecycle: `accepting` gates new connections
//! (cleared when a drain starts), `stop` asks the threads to flush every
//! outbox and exit (bounded by a grace period so a dead peer cannot wedge
//! shutdown).

use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use transport::frame::FrameDecoder;
use transport::{Addr, Listener, Stream};

use crate::poll::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use crate::proto::ServeMsg;
use crate::registry::{Registry, Session};

/// What the service wants done with the connection after a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving it.
    Continue,
    /// Flush its outbox, then close it.
    Close,
}

/// The application half the reactor drives.
pub trait Service: Send + Sync + 'static {
    /// One decoded message arrived on `session`.
    fn on_message(&self, session: &Arc<Session>, msg: ServeMsg) -> Action;
    /// `session`'s connection is gone (EOF, error, or post-`Close`).
    fn on_disconnect(&self, session: &Arc<Session>);
}

/// Per-connection reactor state.
struct ConnState {
    stream: Stream,
    session: Arc<Session>,
    dec: FrameDecoder,
    /// Service asked for [`Action::Close`]: flush, then drop.
    closing: bool,
}

/// What one event thread shares with the acceptor and the outside world.
struct ThreadState {
    waker: Arc<Waker>,
    /// Freshly accepted connections awaiting adoption by the thread.
    injector: Mutex<Vec<(Stream, Arc<Session>)>>,
}

struct SharedState {
    service: Arc<dyn Service>,
    registry: Arc<Registry>,
    threads: Vec<ThreadState>,
    accepting: AtomicBool,
    stop: AtomicBool,
    next_session: AtomicU64,
    next_thread: AtomicU64,
}

/// The running front end.
pub struct Reactor {
    shared: Arc<SharedState>,
    joins: Vec<std::thread::JoinHandle<()>>,
    local: Addr,
}

impl Reactor {
    /// Bind `addr` and start `threads` event threads (0 = one per core).
    /// Thread 0 owns the listener.
    pub fn start(
        addr: &Addr,
        threads: usize,
        service: Arc<dyn Service>,
        registry: Arc<Registry>,
    ) -> std::io::Result<Reactor> {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            threads
        };
        let (listener, local) = Listener::bind(addr)?;
        let mut states = Vec::with_capacity(threads);
        for _ in 0..threads {
            states.push(ThreadState {
                waker: Arc::new(Waker::new()?),
                injector: Mutex::new(Vec::new()),
            });
        }
        let shared = Arc::new(SharedState {
            service,
            registry,
            threads: states,
            accepting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
        });
        let mut joins = Vec::with_capacity(threads);
        let mut listener = Some(listener);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            let l = listener.take(); // thread 0 owns the listener
            joins.push(
                std::thread::Builder::new()
                    .name(format!("serve-reactor-{i}"))
                    .spawn(move || event_loop(i, l, shared))?,
            );
        }
        Ok(Reactor {
            shared,
            joins,
            local,
        })
    }

    /// The bound address (with the kernel-assigned port for `tcp:…:0`).
    pub fn local_addr(&self) -> &Addr {
        &self.local
    }

    /// Stop accepting new connections (existing ones keep being served).
    pub fn stop_accepting(&self) {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.threads[0].waker.wake();
    }

    /// Flush every outbox (within `grace`), close all connections, and
    /// join the event threads. Returns true when every outbox flushed
    /// completely before the grace expired.
    pub fn stop(self, grace: Duration) -> bool {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        for t in &self.shared.threads {
            t.waker.wake();
        }
        let deadline = Instant::now() + grace;
        let mut clean = true;
        for j in self.joins {
            // The event threads bound their own exits by the same grace;
            // a join blocking past the deadline means a wedged thread.
            if Instant::now() > deadline + Duration::from_secs(5) {
                clean = false;
                break;
            }
            if j.join().is_err() {
                clean = false;
            }
        }
        clean && self.shared.registry.is_empty()
    }
}

const READ_CHUNK: usize = 64 * 1024;
const POLL_TICK_MS: i32 = 100;
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(5);

fn event_loop(index: usize, listener: Option<Listener>, shared: Arc<SharedState>) {
    let me = &shared.threads[index];
    let mut conns: Vec<ConnState> = Vec::new();
    let mut stop_seen: Option<Instant> = None;
    loop {
        // Adopt injected connections.
        for (stream, session) in me.injector.lock().drain(..) {
            conns.push(ConnState {
                stream,
                session,
                dec: FrameDecoder::new(),
                closing: false,
            });
        }

        let stopping = shared.stop.load(Ordering::Acquire);
        if stopping && stop_seen.is_none() {
            stop_seen = Some(Instant::now());
        }
        if stopping {
            // Flush what we can, then leave. Outboxes that cannot flush
            // within the grace are abandoned (dead peers).
            let all_flushed = conns.iter().all(|c| c.session.outbox.is_empty());
            let expired = stop_seen.is_some_and(|t| t.elapsed() > STOP_FLUSH_GRACE);
            if all_flushed || expired {
                for c in conns.drain(..) {
                    c.session.mark_disconnected();
                    shared.registry.remove(c.session.id);
                }
                return;
            }
        }

        // Build the poll set: waker, listener (thread 0, while accepting),
        // then one entry per connection.
        let accepting = shared.accepting.load(Ordering::Acquire);
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(me.waker.poll_fd(), POLLIN));
        let listener_slot = if let Some(l) = listener.as_ref().filter(|_| accepting) {
            fds.push(PollFd::new(l.fd(), POLLIN));
            Some(1)
        } else {
            None
        };
        let conn_base = fds.len();
        let n_polled = conns.len();
        for c in &conns {
            let mut ev = POLLIN;
            if !c.session.outbox.is_empty() {
                ev |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.fd(), ev));
        }

        if poll_fds(&mut fds, POLL_TICK_MS).is_err() {
            // EBADF from a racing close: rebuild the set next round.
            continue;
        }

        if fds[0].ready(POLLIN) {
            me.waker.drain();
        }

        // Accept burst (thread 0).
        if let (Some(slot), Some(l)) = (listener_slot, listener.as_ref()) {
            if fds[slot].ready(POLLIN) {
                loop {
                    match l.accept().and_then(|s| s.set_nonblocking(true).map(|()| s)) {
                        Ok(stream) => {
                            let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                            let t = (shared.next_thread.fetch_add(1, Ordering::Relaxed) as usize)
                                % shared.threads.len();
                            let session = Session::new(id, Arc::clone(&shared.threads[t].waker));
                            shared.registry.insert(Arc::clone(&session));
                            if t == index {
                                conns.push(ConnState {
                                    stream,
                                    session,
                                    dec: FrameDecoder::new(),
                                    closing: false,
                                });
                            } else {
                                shared.threads[t].injector.lock().push((stream, session));
                                shared.threads[t].waker.wake();
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break, // transient accept error; retry next tick
                    }
                }
            }
        }

        // Service each polled connection: reads first (they can queue
        // writes), then writes, then reap the dead. Connections accepted
        // *this* round sit past `n_polled` and wait for the next poll.
        let mut dead: Vec<usize> = Vec::new();
        let mut buf = [0u8; READ_CHUNK];
        for (ci, c) in conns.iter_mut().take(n_polled).enumerate() {
            let pf = fds[conn_base + ci];
            if pf.ready(POLLIN) && !c.closing {
                match drain_reads(c, &mut buf, &shared) {
                    Ok(()) => {}
                    Err(_) => {
                        dead.push(ci);
                        continue;
                    }
                }
            }
            // Flush opportunistically whenever there is something queued:
            // level-triggered poll plus an immediate attempt keeps latency
            // down without spinning.
            if !c.session.outbox.is_empty() {
                match c.session.outbox.write_to(&mut c.stream) {
                    Ok(_flushed) => {}
                    Err(_) => {
                        dead.push(ci);
                        continue;
                    }
                }
            }
            if c.closing && c.session.outbox.is_empty() {
                dead.push(ci);
            }
        }

        // Reap in reverse index order so removals do not shift the rest.
        for &ci in dead.iter().rev() {
            let c = conns.swap_remove(ci);
            c.session.mark_disconnected();
            shared.registry.remove(c.session.id);
            shared.service.on_disconnect(&c.session);
        }
    }
}

/// Read until `WouldBlock`/EOF, decoding and dispatching every complete
/// frame. An `Err` return means the connection is dead.
fn drain_reads(c: &mut ConnState, buf: &mut [u8], shared: &Arc<SharedState>) -> Result<(), ()> {
    loop {
        match c.stream.read(buf) {
            Ok(0) => return Err(()), // EOF
            Ok(n) => {
                c.dec.push(&buf[..n]);
                loop {
                    match c.dec.next_frame() {
                        Ok(Some(payload)) => match ServeMsg::decode(&payload) {
                            Ok(msg) => match shared.service.on_message(&c.session, msg) {
                                Action::Continue => {}
                                Action::Close => {
                                    c.closing = true;
                                    return Ok(());
                                }
                            },
                            // Undecodable payload: protocol error, hang up.
                            Err(_) => return Err(()),
                        },
                        Ok(None) => break,
                        // Corrupt frame (bad CRC/length): poison the conn.
                        Err(_) => return Err(()),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}
