//! Sockets, both flavours (TCP and Unix-domain): the one [`Listener`]
//! that binds and accepts for the worker fleet and the serving daemon
//! alike, the [`Stream`] it accepts, and one coordinator↔child
//! connection ([`Conn`]) with timeouts, duplication for concurrent
//! read/write threads, and bounded connect-with-backoff.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::ffi::OsStrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::frame::{read_frame, write_frame};
use crate::msg::Message;

/// A connectable endpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// `host:port` TCP endpoint.
    Tcp(String),
    /// Filesystem path of a Unix-domain socket. A path that starts with
    /// `@` names a socket in Linux's abstract namespace instead: no file
    /// backs it, and the name goes away with the last descriptor bound to
    /// it, however its process ends.
    Unix(PathBuf),
}

/// The name of an abstract-namespace socket (`@name`), if `path` is one.
fn abstract_name(path: &Path) -> Option<&[u8]> {
    path.as_os_str().as_bytes().strip_prefix(b"@")
}

impl Addr {
    /// Parse the `tcp:HOST:PORT` / `unix:PATH` / `unix:@NAME` notation
    /// the launcher puts in the child's `MF_WORKER_ADDR` environment
    /// variable.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err("empty tcp address".into());
            }
            Ok(Addr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err("empty unix socket path".into());
            }
            Ok(Addr::Unix(PathBuf::from(rest)))
        } else {
            Err(format!("address must start with tcp: or unix: — got {s:?}"))
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Receive-buffer size. A subsolve's request and its reply are a few
/// hundred bytes, so one `read` normally brings in a whole frame — and
/// whatever heartbeat sits in front of it — header and payload together.
const RECV_BUF: usize = 4096;

/// A connected socket, either flavour.
pub enum Stream {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    Unix(UnixStream),
}

impl Stream {
    /// The descriptor, for `poll`.
    pub fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Switch the socket between blocking and non-blocking I/O.
    pub fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }
}

/// A bound, non-blocking listening socket, either flavour. A Unix socket
/// file is removed when the listener is dropped.
pub struct Listener(Bound);

enum Bound {
    Tcp(TcpListener),
    /// The socket file to unlink on drop; `None` for an abstract name.
    Unix(UnixListener, Option<PathBuf>),
}

impl Listener {
    /// Bind `addr` and return the listener with the address it is bound
    /// to (the kernel-assigned port for `tcp:…:0`). A stale socket file
    /// at a Unix path, left by a process that died without unlinking it,
    /// is removed first: it would refuse the bind.
    pub fn bind(addr: &Addr) -> std::io::Result<(Listener, Addr)> {
        match addr {
            Addr::Tcp(hp) => {
                let l = TcpListener::bind(hp.as_str())?;
                l.set_nonblocking(true)?;
                let local = Addr::Tcp(l.local_addr()?.to_string());
                Ok((Listener(Bound::Tcp(l)), local))
            }
            Addr::Unix(path) => {
                let (l, file) = match abstract_name(path) {
                    Some(name) => (
                        UnixListener::bind_addr(&SocketAddr::from_abstract_name(name)?)?,
                        None,
                    ),
                    None => {
                        let _ = std::fs::remove_file(path);
                        (UnixListener::bind(path)?, Some(path.clone()))
                    }
                };
                l.set_nonblocking(true)?;
                Ok((Listener(Bound::Unix(l, file)), addr.clone()))
            }
        }
    }

    /// Accept one pending connection, `TCP_NODELAY` set on a TCP one;
    /// `WouldBlock` when none is pending.
    pub fn accept(&self) -> std::io::Result<Stream> {
        match &self.0 {
            Bound::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Bound::Unix(l, _) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }

    /// The descriptor, for `poll`.
    pub fn fd(&self) -> RawFd {
        match &self.0 {
            Bound::Tcp(l) => l.as_raw_fd(),
            Bound::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Bound::Unix(_, Some(path)) = &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// An established connection, either flavour, speaking framed [`Message`]s.
///
/// Reads go through a small receive buffer, so a frame costs one `read`
/// instead of one per header and payload; a read at least as large as the
/// buffer bypasses it, so the body of a big frame lands straight in its
/// payload vector. Writes are unbuffered: [`write_frame`] hands header and
/// payload to the socket in one vectored write.
pub struct Conn {
    sock: Stream,
    /// Received but not yet consumed: `rbuf[pos..end]`. Allocated on the
    /// first read, so a handle that only writes never has one.
    rbuf: Vec<u8>,
    pos: usize,
    end: usize,
}

// The two constructors keep the names (and call shape) of the enum
// variants `Conn` had before it grew a buffer.
#[allow(non_snake_case)]
impl Conn {
    /// Wrap a connected TCP stream (cross-host capable).
    pub fn Tcp(s: TcpStream) -> Conn {
        Conn::from(Stream::Tcp(s))
    }

    /// Wrap a connected Unix-domain stream (same-host, lower latency).
    pub fn Unix(s: UnixStream) -> Conn {
        Conn::from(Stream::Unix(s))
    }
}

impl From<Stream> for Conn {
    fn from(sock: Stream) -> Conn {
        Conn {
            sock,
            rbuf: Vec::new(),
            pos: 0,
            end: 0,
        }
    }
}

impl Conn {
    /// Connect once, with a connect timeout for TCP (Unix-domain connects
    /// are effectively immediate).
    pub fn connect(addr: &Addr, timeout: Duration) -> std::io::Result<Conn> {
        match addr {
            Addr::Tcp(hp) => {
                use std::net::ToSocketAddrs;
                let mut last = std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("no socket addrs for {hp}"),
                );
                for sa in hp.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(s) => {
                            s.set_nodelay(true)?;
                            return Ok(Conn::Tcp(s));
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
            Addr::Unix(p) => Ok(Conn::Unix(match abstract_name(p) {
                Some(name) => UnixStream::connect_addr(&SocketAddr::from_abstract_name(name)?)?,
                None => UnixStream::connect(p)?,
            })),
        }
    }

    /// Read timeout for subsequent `recv_msg` calls (`None` blocks forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match &self.sock {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Write timeout for subsequent `send_msg` calls.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match &self.sock {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Duplicate the handle (shared socket), so one thread can write
    /// heartbeats while another blocks in `recv_msg`. The duplicate starts
    /// with an empty receive buffer of its own: bytes this handle has
    /// already buffered stay here, so only one of the two may be the
    /// reader.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match &self.sock {
            Stream::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Stream::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions, unblocking any thread inside a read.
    pub fn shutdown(&self) {
        match &self.sock {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Send one message as one frame.
    pub fn send_msg(&mut self, msg: &Message) -> std::io::Result<()> {
        let payload = msg.encode().map_err(std::io::Error::from)?;
        write_frame(self, &payload)
    }

    /// Receive one message; `Ok(None)` means the peer closed cleanly.
    pub fn recv_msg(&mut self) -> std::io::Result<Option<Message>> {
        match read_frame(self)? {
            None => Ok(None),
            Some(payload) => Message::decode(&payload)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.end {
            if buf.len() >= RECV_BUF {
                return self.sock.read(buf);
            }
            self.rbuf.resize(RECV_BUF, 0);
            (self.pos, self.end) = (0, 0);
            self.end = self.sock.read(&mut self.rbuf)?;
        }
        let n = buf.len().min(self.end - self.pos);
        buf[..n].copy_from_slice(&self.rbuf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }
    /// Sockets buffer nothing in user space.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.sock.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        self.sock.write_vectored(bufs)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.sock.flush()
    }
}

/// Exponential backoff schedule with a cap, for reconnect/respawn loops.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Backoff {
    /// Start at `initial`, double each step, never exceed `cap`.
    pub fn new(initial: Duration, cap: Duration) -> Self {
        Self { next: initial, cap }
    }

    /// The delay to sleep before the next attempt (advances the schedule).
    pub fn step(&mut self) -> Duration {
        let d = self.next;
        self.next = (self.next * 2).min(self.cap);
        d
    }
}

/// Connect with a bounded number of attempts, sleeping an exponentially
/// growing delay between failures. Children use this at startup: the
/// coordinator's listener may not be accepting yet when they exec.
pub fn connect_with_backoff(
    addr: &Addr,
    attempts: usize,
    initial_delay: Duration,
    connect_timeout: Duration,
) -> std::io::Result<Conn> {
    let mut backoff = Backoff::new(initial_delay, Duration::from_secs(2));
    let mut last = std::io::Error::other("no attempts made");
    for attempt in 0..attempts.max(1) {
        match Conn::connect(addr, connect_timeout) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        if attempt + 1 < attempts {
            std::thread::sleep(backoff.step());
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manifold::Unit;

    #[test]
    fn addr_parse_round_trips() {
        let t = Addr::parse("tcp:127.0.0.1:9000").unwrap();
        assert_eq!(t, Addr::Tcp("127.0.0.1:9000".into()));
        assert_eq!(t.to_string(), "tcp:127.0.0.1:9000");
        let u = Addr::parse("unix:/tmp/x.sock").unwrap();
        assert_eq!(u, Addr::Unix(PathBuf::from("/tmp/x.sock")));
        assert_eq!(u.to_string(), "unix:/tmp/x.sock");
        assert!(Addr::parse("9000").is_err());
        assert!(Addr::parse("tcp:").is_err());
        assert!(Addr::parse("unix:").is_err());
    }

    #[test]
    fn tcp_message_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(s);
            let m = conn.recv_msg().unwrap().unwrap();
            conn.send_msg(&m).unwrap(); // echo
            assert!(conn.recv_msg().unwrap().is_none()); // clean EOF
        });
        let mut c = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let msg = Message::Job {
            seq: 1,
            job: 0,
            payload: Unit::tuple(vec![Unit::real(0.5), Unit::text("x")]),
        };
        c.send_msg(&msg).unwrap();
        assert_eq!(c.recv_msg().unwrap().unwrap(), msg);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn unix_message_round_trip() {
        let dir = std::env::temp_dir().join(format!("tconn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("echo.sock");
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut conn = Conn::Unix(s);
            let m = conn.recv_msg().unwrap().unwrap();
            conn.send_msg(&m).unwrap();
        });
        let mut c = Conn::connect(&Addr::Unix(path.clone()), Duration::from_secs(5)).unwrap();
        c.send_msg(&Message::Heartbeat).unwrap();
        assert_eq!(c.recv_msg().unwrap().unwrap(), Message::Heartbeat);
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// A socket path in a directory no other test removes.
    fn temp_socket_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tconn-listener-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn a_listener_binds_over_a_stale_socket_file_and_unlinks_it_on_drop() {
        let path = temp_socket_path("stale.sock");
        let _ = std::fs::remove_file(&path);
        // A process that died without unlinking leaves its file behind.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        assert!(
            UnixListener::bind(&path).is_err(),
            "a stale file refuses binds"
        );

        let addr = Addr::Unix(path.clone());
        let (listener, local) = Listener::bind(&addr).unwrap();
        assert_eq!(local, addr);
        let mut client = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let stream = loop {
            match listener.accept() {
                Ok(s) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        assert!(stream.fd() >= 0);
        stream.set_nonblocking(false).unwrap();
        let mut server = Conn::from(stream);
        client.send_msg(&Message::Heartbeat).unwrap();
        assert_eq!(server.recv_msg().unwrap().unwrap(), Message::Heartbeat);

        drop(listener);
        assert!(!path.exists(), "dropping the listener removes its file");
        let _ = std::fs::remove_dir(path.parent().unwrap());
    }

    #[test]
    fn an_abstract_name_carries_messages_leaves_no_file_and_is_free_after_the_listener() {
        let name = format!("@tconn-abstract-{}", std::process::id());
        let addr = Addr::parse(&format!("unix:{name}")).unwrap();
        assert_eq!(addr.to_string(), format!("unix:{name}"));
        let (listener, local) = Listener::bind(&addr).unwrap();
        assert_eq!(local, addr);
        assert!(Listener::bind(&addr).is_err(), "the name is taken");
        let mut client = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let stream = loop {
            match listener.accept() {
                Ok(s) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        stream.set_nonblocking(false).unwrap();
        let mut server = Conn::from(stream);
        client.send_msg(&Message::Heartbeat).unwrap();
        assert_eq!(server.recv_msg().unwrap().unwrap(), Message::Heartbeat);
        assert!(!Path::new(&name).exists(), "no file backs the name");

        drop(listener);
        let (again, _) = Listener::bind(&addr).expect("the name went with its listener");
        drop(again);
    }

    #[test]
    fn a_tcp_listener_reports_its_bound_port_and_an_idle_accept_would_block() {
        let (listener, local) = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let Addr::Tcp(hp) = &local else {
            panic!("a tcp bind reports a tcp address, got {local}");
        };
        let port: u16 = hp.rsplit(':').next().unwrap().parse().unwrap();
        assert_ne!(port, 0, "the kernel-assigned port, not the requested 0");
        assert!(listener.fd() >= 0);
        let err = listener.accept().err().expect("nothing is pending");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        // The reported address is the one clients reach.
        let _client = Conn::connect(&local, Duration::from_secs(5)).unwrap();
    }

    /// A connected pair: the raw far end, and a `Conn` over the near end.
    fn pair() -> (UnixStream, Conn) {
        let (far, near) = UnixStream::pair().unwrap();
        (far, Conn::Unix(near))
    }

    fn done(seq: u64) -> Message {
        Message::Done {
            seq,
            job: 3,
            payload: Unit::tuple(vec![Unit::real(0.25), Unit::text("grid")]),
        }
    }

    #[test]
    fn frames_arriving_in_one_read_come_out_one_by_one() {
        let (mut far, mut conn) = pair();
        // A heartbeat, the reply behind it and the next reply, written as
        // one burst: the first `recv_msg` buffers all three.
        let mut burst = Vec::new();
        for m in [Message::Heartbeat, done(1), done(2)] {
            burst.extend(crate::frame_vec(&m.encode().unwrap()));
        }
        far.write_all(&burst).unwrap();
        assert_eq!(conn.recv_msg().unwrap().unwrap(), Message::Heartbeat);
        assert_eq!(conn.recv_msg().unwrap().unwrap(), done(1));
        assert_eq!(conn.recv_msg().unwrap().unwrap(), done(2));
        drop(far);
        assert!(
            conn.recv_msg().unwrap().is_none(),
            "clean EOF after the burst"
        );
    }

    #[test]
    fn a_frame_dribbling_in_bytewise_is_reassembled() {
        let (mut far, mut conn) = pair();
        let bytes = crate::frame_vec(&done(7).encode().unwrap());
        let writer = std::thread::spawn(move || {
            for b in bytes {
                far.write_all(&[b]).unwrap();
                std::thread::yield_now();
            }
            far
        });
        assert_eq!(conn.recv_msg().unwrap().unwrap(), done(7));
        let far = writer.join().unwrap();
        // EOF in the middle of the next frame is an error, not a clean close.
        let mut far = far;
        far.write_all(&crate::frame_vec(b"abcdef")[..5]).unwrap();
        drop(far);
        assert!(conn.recv_msg().is_err());
    }

    #[test]
    fn a_frame_larger_than_the_buffer_round_trips() {
        let (far, mut conn) = pair();
        let big = Message::Done {
            seq: 1,
            job: 0,
            payload: Unit::text("x".repeat(10 * RECV_BUF)),
        };
        let mut far = Conn::Unix(far);
        let sent = big.clone();
        let writer = std::thread::spawn(move || {
            far.send_msg(&sent).unwrap();
            far.send_msg(&Message::Heartbeat).unwrap();
        });
        assert_eq!(conn.recv_msg().unwrap().unwrap(), big);
        assert_eq!(conn.recv_msg().unwrap().unwrap(), Message::Heartbeat);
        writer.join().unwrap();
    }

    #[test]
    fn a_corrupt_frame_is_rejected_through_the_buffer() {
        let (mut far, mut conn) = pair();
        let mut burst = crate::frame_vec(&Message::Heartbeat.encode().unwrap());
        let mut bad = crate::frame_vec(&done(1).encode().unwrap());
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        burst.extend(bad);
        far.write_all(&burst).unwrap();
        // The good frame in front still decodes; the flipped bit behind it
        // is a checksum error, never a message.
        assert_eq!(conn.recv_msg().unwrap().unwrap(), Message::Heartbeat);
        let err = conn.recv_msg().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn a_cloned_handle_starts_with_an_empty_buffer() {
        let (mut far, mut conn) = pair();
        far.write_all(&crate::frame_vec(&done(1).encode().unwrap()))
            .unwrap();
        far.write_all(&crate::frame_vec(&done(2).encode().unwrap()))
            .unwrap();
        assert_eq!(conn.recv_msg().unwrap().unwrap(), done(1));
        // done(2) is already in `conn`'s buffer; the clone shares the
        // socket, not those bytes, and writes without ever allocating.
        let mut writer = conn.try_clone().unwrap();
        assert!(writer.rbuf.is_empty());
        writer.send_msg(&Message::Heartbeat).unwrap();
        assert!(writer.rbuf.is_empty());
        assert_eq!(conn.recv_msg().unwrap().unwrap(), done(2));
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(b.step(), Duration::from_millis(10));
        assert_eq!(b.step(), Duration::from_millis(20));
        assert_eq!(b.step(), Duration::from_millis(35));
        assert_eq!(b.step(), Duration::from_millis(35));
    }

    #[test]
    fn connect_with_backoff_reports_last_error() {
        // Port 1 on localhost: connection refused, quickly.
        let addr = Addr::Tcp("127.0.0.1:1".into());
        let err = connect_with_backoff(
            &addr,
            2,
            Duration::from_millis(1),
            Duration::from_millis(200),
        );
        assert!(err.is_err());
    }
}
