//! One coordinator↔child connection: TCP or Unix-domain socket, with
//! timeouts, duplication for concurrent read/write threads, and bounded
//! connect-with-backoff.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use crate::frame::{read_frame, write_frame};
use crate::msg::Message;

/// A connectable endpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// `host:port` TCP endpoint.
    Tcp(String),
    /// Filesystem path of a Unix-domain socket.
    Unix(PathBuf),
}

impl Addr {
    /// Parse the `tcp:HOST:PORT` / `unix:PATH` notation the launcher puts
    /// in the child's `MF_WORKER_ADDR` environment variable.
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

enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// An established connection, either flavour, speaking framed [`Message`]s.
///
/// Reads go through a small receive buffer, so a frame costs one `read`
/// instead of one per header and payload; a read at least as large as the
/// buffer bypasses it, so the body of a big frame lands straight in its
/// payload vector. Writes are unbuffered: [`write_frame`] hands header and
/// payload to the socket in one vectored write.
pub struct Conn {
    sock: Sock,
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
        Conn::over(Sock::Tcp(s))
    }

    /// Wrap a connected Unix-domain stream (same-host, lower latency).
    pub fn Unix(s: UnixStream) -> Conn {
        Conn::over(Sock::Unix(s))
    }
}

impl Conn {
    fn over(sock: Sock) -> Conn {
        Conn {
            sock,
            rbuf: Vec::new(),
            pos: 0,
            end: 0,
        }
    }

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
            Addr::Unix(p) => Ok(Conn::Unix(UnixStream::connect(p)?)),
        }
    }

    /// Read timeout for subsequent `recv_msg` calls (`None` blocks forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match &self.sock {
            Sock::Tcp(s) => s.set_read_timeout(t),
            Sock::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Write timeout for subsequent `send_msg` calls.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match &self.sock {
            Sock::Tcp(s) => s.set_write_timeout(t),
            Sock::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Duplicate the handle (shared socket), so one thread can write
    /// heartbeats while another blocks in `recv_msg`. The duplicate starts
    /// with an empty receive buffer of its own: bytes this handle has
    /// already buffered stay here, so only one of the two may be the
    /// reader.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match &self.sock {
            Sock::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Sock::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions, unblocking any thread inside a read.
    pub fn shutdown(&self) {
        match &self.sock {
            Sock::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Sock::Unix(s) => {
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

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
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

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match &mut self.sock {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match &mut self.sock {
            Sock::Tcp(s) => s.write_vectored(bufs),
            Sock::Unix(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.sock {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
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
