//! The session table: every tenant connection, and how a reply finds its
//! way back to the socket that asked for it.
//!
//! One connection is one [`Session`]: its socket, its frame decoder and
//! its outbound byte queue. The serve loop ([`crate::daemon`]) creates a
//! session at accept time (before the tenant has even said `Hello`),
//! queues replies on it by session id or — with a journal — by tenant
//! name, and flushes it when `poll(2)` says the socket takes bytes. The
//! loop's one thread owns the table, so nothing in it is locked or
//! shared, and thousands of in-flight jobs route over however many
//! connections actually exist.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::Arc;

use transport::frame::FrameDecoder;
use transport::Stream;

use crate::proto::ServeMsg;

/// Session identifier — assigned at accept, echoed in `Welcome`.
pub type SessionId = u64;

/// Outbound frames awaiting the socket, and where a partial write of the
/// first one stopped.
#[derive(Default)]
struct Outbox {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of `bufs[0]` already written.
    head_off: usize,
}

impl Outbox {
    /// Write as much as the (nonblocking) sink accepts. `Ok(true)` means
    /// the queue is fully flushed; `Ok(false)` means the sink would block
    /// with bytes still pending.
    fn write_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while let Some(front) = self.bufs.front() {
            match w.write(&front[self.head_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) if self.head_off + n == front.len() => {
                    self.bufs.pop_front();
                    self.head_off = 0;
                }
                Ok(n) => {
                    self.head_off += n;
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// One connected tenant session.
pub struct Session {
    /// Table key, echoed to the tenant in `Welcome`.
    pub id: SessionId,
    stream: Stream,
    dec: FrameDecoder,
    outbox: Outbox,
    /// Fair-share identity; `None` until the tenant says `Hello`.
    pub tenant: Option<Arc<str>>,
    /// Flush the outbox, then close: read nothing more from the peer.
    pub closing: bool,
}

impl Session {
    /// Queue `msg` for delivery. False when it cannot be encoded.
    pub fn send(&mut self, msg: &ServeMsg) -> bool {
        msg.to_frame().map(|frame| self.push_frame(frame)).is_ok()
    }

    /// Queue a message already framed — a journaled reply — for
    /// delivery, as it is.
    pub fn push_frame(&mut self, frame: Vec<u8>) {
        self.outbox.bufs.push_back(frame);
    }

    /// Answer `Fail{seq}` with `error`, then close after the flush.
    pub fn refuse(&mut self, seq: u64, error: String) {
        self.send(&ServeMsg::Fail {
            seq,
            rseq: 0,
            error,
        });
        self.closing = true;
    }

    /// The next complete message already read, `Err` for a corrupt frame
    /// or an undecodable payload (the connection is poisoned).
    pub(crate) fn next_msg(&mut self) -> Result<Option<ServeMsg>, ()> {
        match self.dec.next_frame() {
            Ok(Some(payload)) => ServeMsg::decode(&payload).map(Some).map_err(drop),
            Ok(None) => Ok(None),
            Err(_) => Err(()),
        }
    }

    /// Read one chunk from the socket into the decoder: `Ok(true)` when
    /// it filled `buf` (the socket may hold more), `Ok(false)` when the
    /// socket is drained for now. EOF is an error: the peer is gone.
    pub(crate) fn fill(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        loop {
            return match self.stream.read(buf) {
                Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.dec.push(&buf[..n]);
                    Ok(n == buf.len())
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => Err(e),
            };
        }
    }

    /// Anything left to write?
    pub fn has_output(&self) -> bool {
        !self.outbox.bufs.is_empty()
    }

    /// Write what the socket takes now; `Err` means the peer is gone.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        self.outbox.write_to(&mut self.stream)
    }

    /// The socket, for the poll set.
    pub(crate) fn fd(&self) -> std::os::fd::RawFd {
        self.stream.fd()
    }
}

/// All live sessions, keyed by id, and which session speaks for which
/// tenant.
#[derive(Default)]
pub struct Registry {
    /// In accept order, so each turn serves the sockets in that order.
    sessions: BTreeMap<SessionId, Session>,
    /// Tenant name → the session currently speaking for it. A journaled
    /// daemon routes replies by *tenant* (the durable identity), not by
    /// the session that happened to submit the job — the submitting
    /// socket may be long dead by the time the job finishes.
    bound: HashMap<Arc<str>, SessionId>,
    last_id: SessionId,
}

impl Registry {
    /// Adopt a freshly accepted connection; its id.
    pub fn insert(&mut self, stream: Stream) -> SessionId {
        self.last_id += 1;
        let id = self.last_id;
        let session = Session {
            id,
            stream,
            dec: FrameDecoder::new(),
            outbox: Outbox::default(),
            tenant: None,
            closing: false,
        };
        self.sessions.insert(id, session);
        id
    }

    /// Look a session up.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.sessions.get_mut(&id)
    }

    /// Drop a session, and the tenant binding it holds.
    pub fn remove(&mut self, id: SessionId) -> Option<Session> {
        let s = self.sessions.remove(&id)?;
        if let Some(t) = &s.tenant {
            self.unbind_tenant(t, id);
        }
        Some(s)
    }

    /// Every live session, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Session> {
        self.sessions.values_mut()
    }

    /// Bind `tenant` to `id`: future tenant-routed replies go to this
    /// session. Last `Hello` wins — with a journal, one session speaks
    /// for a tenant at a time.
    pub fn bind_tenant(&mut self, tenant: Arc<str>, id: SessionId) {
        self.bound.insert(tenant, id);
    }

    /// Drop the binding, but only if `id` still holds it (a newer
    /// session's rebind must not be undone by the old socket's reap).
    pub fn unbind_tenant(&mut self, tenant: &str, id: SessionId) {
        if self.bound.get(tenant) == Some(&id) {
            self.bound.remove(tenant);
        }
    }

    /// The live session currently bound to `tenant`, if any.
    pub fn tenant_session(&mut self, tenant: &str) -> Option<&mut Session> {
        let id = *self.bound.get(tenant)?;
        self.sessions.get_mut(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    #[test]
    fn outbox_flushes_across_partial_writes() {
        let mut ob = Outbox::default();
        ob.bufs.push_back(vec![1, 2, 3, 4, 5]);
        ob.bufs.push_back(vec![6, 7]);

        // A sink that takes at most 3 bytes per call.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Trickle(Vec::new());
        while !ob.write_to(&mut sink).unwrap() {}
        assert_eq!(sink.0, vec![1, 2, 3, 4, 5, 6, 7]);
        assert!(ob.bufs.is_empty());
    }

    /// The partial-write resume point (`head_off`) under the worst case:
    /// a sink that takes exactly one byte per call, so *every* byte of a
    /// multi-frame backlog goes through the resume path. The flushed
    /// stream must still deframe to the original messages — byte-exact
    /// frame integrity, not just byte count.
    #[test]
    fn one_byte_writes_preserve_frame_integrity() {
        let mut ob = Outbox::default();
        let msgs = [
            ServeMsg::Done {
                seq: 1,
                rseq: 1,
                grids: 7,
                l2_error: 1.25e-4,
                combined: vec![0.5, -0.25, 3.75, f64::MIN_POSITIVE],
            },
            ServeMsg::Reject {
                seq: 2,
                rseq: 2,
                retry_after_ms: 25,
                reason: crate::proto::RejectReason::QueueFull,
            },
            ServeMsg::Drained { served: 99 },
        ];
        for m in &msgs {
            ob.bufs.push_back(m.to_frame().unwrap());
        }

        /// One byte per write() call, with a WouldBlock stutter every
        /// third byte for good measure.
        struct OneByte {
            out: Vec<u8>,
            calls: usize,
        }
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
                }
                self.out.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = OneByte {
            out: Vec::new(),
            calls: 0,
        };
        let mut rounds = 0;
        while !ob.write_to(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 100_000, "flush does not terminate");
        }
        assert!(ob.bufs.is_empty());

        let mut dec = transport::FrameDecoder::new();
        dec.push(&sink.out);
        let mut back = Vec::new();
        while let Some(payload) = dec.next_frame().unwrap() {
            back.push(ServeMsg::decode(&payload).unwrap());
        }
        assert_eq!(dec.pending(), 0, "trailing bytes after the last frame");
        assert_eq!(back, msgs, "frames reassembled byte-exactly");
    }

    /// A session's queued reply reaches its peer through `flush`, and a
    /// disconnected (removed) session can no longer be found to send to.
    #[test]
    fn registry_send_after_disconnect_reports_failure() {
        let mut reg = Registry::default();
        let (ours, mut peer) = UnixStream::pair().unwrap();
        let id = reg.insert(Stream::Unix(ours));
        let s = reg.get_mut(id).unwrap();
        assert!(s.send(&ServeMsg::Welcome {
            session: id,
            token: 0
        }));
        assert!(s.has_output());
        assert!(s.flush().unwrap());
        let frame = transport::frame::read_frame(&mut peer).unwrap().unwrap();
        assert_eq!(
            ServeMsg::decode(&frame).unwrap(),
            ServeMsg::Welcome {
                session: id,
                token: 0
            }
        );
        assert!(reg.remove(id).is_some());
        assert!(reg.get_mut(id).is_none());
    }

    #[test]
    fn tenant_binding_routes_to_latest_session_only() {
        let mut reg = Registry::default();
        let mut peers = Vec::new();
        let mut session = || {
            let (ours, peer) = UnixStream::pair().unwrap();
            peers.push(peer);
            Stream::Unix(ours)
        };
        let old = reg.insert(session());
        let new = reg.insert(session());
        let tenant: Arc<str> = Arc::from("acme");

        reg.bind_tenant(Arc::clone(&tenant), old);
        assert_eq!(reg.tenant_session("acme").unwrap().id, old);

        // Reconnect: the new session takes over.
        reg.bind_tenant(Arc::clone(&tenant), new);
        assert_eq!(reg.tenant_session("acme").unwrap().id, new);

        // The old socket's reap must not undo the rebind…
        reg.get_mut(old).unwrap().tenant = Some(Arc::clone(&tenant));
        reg.remove(old);
        assert_eq!(reg.tenant_session("acme").unwrap().id, new);

        // …but the current holder's departure does.
        reg.unbind_tenant("acme", new);
        assert!(reg.tenant_session("acme").is_none());
    }
}
