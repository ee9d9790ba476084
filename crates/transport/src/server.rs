//! Child-side serve loop: what a remote task instance runs.
//!
//! The child connects back to the coordinator (with bounded backoff — the
//! listener may not be up yet when the child execs), introduces itself
//! with `Hello`, then executes jobs one at a time until told to shut down
//! (`Shutdown`) or to leave (`Leave`, answered with its own `Leave`);
//! either way it then closes the connection and the session ends.
//! A background thread emits [`Message::Heartbeat`] at a fixed cadence for
//! the life of the session, so the coordinator can tell a slow job from a
//! dead child.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use manifold::Unit;
use parking_lot::Mutex;

use crate::conn::{connect_with_backoff, Addr};
use crate::frame::frame_vec;
use crate::msg::{Message, PROTOCOL_VERSION};

/// Transport-level fault injection for a serving session — the *mechanism*
/// half of a chaos schedule. Callers (the chaos layer above this crate)
/// decide *which* jobs get which fault; this struct only says how each is
/// realized on the wire. Job ordinals are 1-based and count the jobs this
/// session received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeFaults {
    /// Compute the n-th job normally, then ship the reply in a frame with
    /// one payload bit flipped — the coordinator's CRC check must reject
    /// the connection.
    pub corrupt_reply_on_job: Option<u64>,
    /// Sleep `(job, delay)` before computing that job; heartbeats continue,
    /// so the coordinator must not declare this instance dead.
    pub stall_on_job: Option<(u64, Duration)>,
    /// Close the connection upon *receiving* the n-th job, no reply.
    pub drop_conn_on_job: Option<u64>,
    /// Stretch the heartbeat cadence by this much.
    pub heartbeat_delay: Option<Duration>,
}

impl ServeFaults {
    /// True when no fault is configured.
    pub fn is_empty(&self) -> bool {
        *self == ServeFaults::default()
    }
}

/// Parameters of one serving session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where the coordinator is listening.
    pub addr: Addr,
    /// The task-instance slot this child fills.
    pub instance: u64,
    /// The machine's real hostname, reported in `Hello`.
    pub host: String,
    /// The task-instance uid for §6 trace labelling.
    pub task_uid: u64,
    /// Heartbeat cadence.
    pub heartbeat: Duration,
    /// Connection attempts before giving up on startup.
    pub connect_attempts: usize,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Injected transport faults (none by default).
    pub faults: ServeFaults,
}

impl ServeConfig {
    /// Sensible defaults for a localhost deployment.
    pub fn new(addr: Addr, instance: u64, host: String, task_uid: u64) -> Self {
        Self {
            addr,
            instance,
            host,
            task_uid,
            heartbeat: Duration::from_millis(250),
            connect_attempts: 20,
            connect_timeout: Duration::from_secs(5),
            faults: ServeFaults::default(),
        }
    }
}

/// What happened over the session, for the child's exit diagnostics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs answered with `Done`.
    pub jobs_done: u64,
    /// Jobs answered with `Fail`.
    pub jobs_failed: u64,
    /// Whether the coordinator sent an orderly `Shutdown` (vs. EOF).
    pub clean_shutdown: bool,
    /// Pool (shard) assigned by the coordinator in the handshake.
    pub pool: u64,
}

/// Run the serve loop until shutdown or connection loss.
///
/// `handler` executes one job payload; an `Err` string becomes a `Fail`
/// reply (the session continues). The session holds nothing between jobs
/// but its counts.
pub fn serve<H>(cfg: ServeConfig, mut handler: H) -> std::io::Result<ServeSummary>
where
    H: FnMut(Unit) -> Result<Unit, String>,
{
    let mut reader = connect_with_backoff(
        &cfg.addr,
        cfg.connect_attempts,
        Duration::from_millis(20),
        cfg.connect_timeout,
    )?;
    let writer = Arc::new(Mutex::new(reader.try_clone()?));
    // A full socket buffer must not wedge the heartbeat thread while it
    // holds the writer lock.
    writer
        .lock()
        .set_write_timeout(Some(Duration::from_secs(2)))?;

    writer.lock().send_msg(&Message::Hello {
        version: PROTOCOL_VERSION,
        instance: cfg.instance,
        host: cfg.host.clone(),
        task_uid: cfg.task_uid,
    })?;
    reader.set_read_timeout(Some(cfg.connect_timeout))?;
    let pool = match reader.recv_msg()? {
        Some(Message::HelloAck { instance, pool }) if instance == cfg.instance => pool,
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("handshake failed: expected HelloAck, got {other:?}"),
            ))
        }
    };
    // Jobs may be minutes apart; liveness flows the other way (our
    // heartbeats), so block indefinitely waiting for work.
    reader.set_read_timeout(None)?;

    let beating = Arc::new(AtomicBool::new(true));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let beating = Arc::clone(&beating);
        let period = cfg.heartbeat + cfg.faults.heartbeat_delay.unwrap_or(Duration::ZERO);
        std::thread::spawn(move || {
            while beating.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                if !beating.load(Ordering::Relaxed) {
                    break;
                }
                if writer.lock().send_msg(&Message::Heartbeat).is_err() {
                    break;
                }
            }
        })
    };

    let mut summary = ServeSummary {
        pool,
        ..ServeSummary::default()
    };
    let mut jobs_seen = 0u64;
    let outcome = loop {
        match reader.recv_msg() {
            Ok(Some(Message::Job { seq, job, payload })) => {
                jobs_seen += 1;
                if cfg.faults.drop_conn_on_job == Some(jobs_seen) {
                    // Fault injection: the session dies mid-protocol, the
                    // way a cable pull looks from the coordinator's side.
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "fault injection: connection dropped on job",
                    ));
                }
                if let Some((job, delay)) = cfg.faults.stall_on_job {
                    if job == jobs_seen {
                        // Heartbeats keep flowing from the background
                        // thread; only the reply is late.
                        std::thread::sleep(delay);
                    }
                }
                // The engine-job id is echoed verbatim: the child does not
                // interpret it, it only lets the coordinator attribute this
                // reply to the job that issued the request.
                let reply = match handler(payload) {
                    Ok(result) => {
                        summary.jobs_done += 1;
                        Message::Done {
                            seq,
                            job,
                            payload: result,
                        }
                    }
                    Err(error) => {
                        summary.jobs_failed += 1;
                        Message::Fail { seq, job, error }
                    }
                };
                if cfg.faults.corrupt_reply_on_job == Some(jobs_seen) {
                    // Fault injection: a well-formed frame whose last
                    // payload bit was flipped in transit. The CRC header
                    // still describes the *original* payload, so the
                    // coordinator must detect the corruption and poison
                    // the connection.
                    if let Err(e) = (|| {
                        let encoded = reply.encode().map_err(std::io::Error::from)?;
                        let mut bytes = frame_vec(&encoded);
                        let last = bytes.len() - 1;
                        bytes[last] ^= 0x01;
                        let mut w = writer.lock();
                        std::io::Write::write_all(&mut *w, &bytes)?;
                        std::io::Write::flush(&mut *w)
                    })() {
                        break Err(e);
                    }
                    continue;
                }
                if let Err(e) = writer.lock().send_msg(&reply) {
                    break Err(e);
                }
            }
            Ok(Some(Message::Shutdown)) => {
                summary.clean_shutdown = true;
                break Ok(());
            }
            Ok(Some(Message::Leave { instance, reason })) if instance == cfg.instance => {
                // Coordinator-initiated retirement: acknowledge with our
                // own Leave and exit as cleanly as a Shutdown — but
                // mid-run, with the fleet still serving.
                summary.clean_shutdown = true;
                let _ = writer.lock().send_msg(&Message::Leave {
                    instance: cfg.instance,
                    reason,
                });
                break Ok(());
            }
            Ok(Some(Message::Heartbeat)) => {} // tolerated, not expected
            Ok(Some(other)) => {
                break Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected message from coordinator: {other:?}"),
                ))
            }
            Ok(None) => break Ok(()), // coordinator went away
            Err(e) => break Err(e),
        }
    };

    beating.store(false, Ordering::Relaxed);
    reader.shutdown();
    let _ = heartbeat.join();
    outcome.map(|()| summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Conn;

    fn coordinator_side(listener: std::net::TcpListener) -> std::thread::JoinHandle<Vec<Message>> {
        std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(s);
            let mut seen = Vec::new();
            // Handshake.
            match conn.recv_msg().unwrap().unwrap() {
                Message::Hello {
                    version, instance, ..
                } => {
                    assert_eq!(version, PROTOCOL_VERSION);
                    conn.send_msg(&Message::HelloAck { instance, pool: 0 })
                        .unwrap();
                }
                other => panic!("expected Hello, got {other:?}"),
            }
            // One good job, one failing job.
            conn.send_msg(&Message::Job {
                seq: 1,
                job: 7,
                payload: Unit::real(21.0),
            })
            .unwrap();
            loop {
                match conn.recv_msg().unwrap().unwrap() {
                    Message::Heartbeat => continue,
                    m => {
                        seen.push(m);
                        break;
                    }
                }
            }
            conn.send_msg(&Message::Job {
                seq: 2,
                job: 7,
                payload: Unit::text("boom"),
            })
            .unwrap();
            loop {
                match conn.recv_msg().unwrap().unwrap() {
                    Message::Heartbeat => continue,
                    m => {
                        seen.push(m);
                        break;
                    }
                }
            }
            conn.send_msg(&Message::Shutdown).unwrap();
            loop {
                match conn.recv_msg().unwrap() {
                    Some(Message::Heartbeat) => continue,
                    Some(m) => {
                        seen.push(m);
                        break;
                    }
                    None => break,
                }
            }
            seen
        })
    }

    #[test]
    fn serve_session_with_heartbeats_and_failures() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let coord = coordinator_side(listener);

        let mut cfg = ServeConfig::new(addr, 4, "childhost".into(), 99);
        cfg.heartbeat = Duration::from_millis(10); // force heartbeats to appear
        let summary = serve(cfg, |payload| match payload.as_real() {
            Some(x) => Ok(Unit::real(2.0 * x)),
            None => Err("not a real".into()),
        })
        .unwrap();

        assert_eq!(summary.jobs_done, 1);
        assert_eq!(summary.jobs_failed, 1);
        assert!(summary.clean_shutdown);

        let seen = coord.join().unwrap();
        assert_eq!(
            seen[0],
            Message::Done {
                seq: 1,
                job: 7,
                payload: Unit::real(42.0)
            }
        );
        match &seen[1] {
            Message::Fail {
                seq: 2,
                job: 7,
                error,
            } => assert!(error.contains("not a real")),
            other => panic!("expected Fail, got {other:?}"),
        }
        // Shutdown is answered by closing the connection, nothing else.
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn serve_survives_coordinator_eof() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let coord = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(s);
            match conn.recv_msg().unwrap().unwrap() {
                Message::Hello { instance, .. } => conn
                    .send_msg(&Message::HelloAck { instance, pool: 0 })
                    .unwrap(),
                other => panic!("{other:?}"),
            }
            // Drop without Shutdown: abrupt coordinator death.
        });
        let summary = serve(ServeConfig::new(addr, 0, "h".into(), 1), Ok).unwrap();
        assert!(!summary.clean_shutdown);
        assert_eq!(summary.jobs_done, 0);
        coord.join().unwrap();
    }

    #[test]
    fn corrupt_reply_fault_poisons_the_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let coord = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(s);
            match conn.recv_msg().unwrap().unwrap() {
                Message::Hello { instance, .. } => conn
                    .send_msg(&Message::HelloAck { instance, pool: 0 })
                    .unwrap(),
                other => panic!("{other:?}"),
            }
            conn.send_msg(&Message::Job {
                seq: 1,
                job: 0,
                payload: Unit::real(1.0),
            })
            .unwrap();
            loop {
                match conn.recv_msg() {
                    Ok(Some(Message::Heartbeat)) => continue,
                    Ok(other) => panic!("corrupt frame decoded as {other:?}"),
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                        assert!(e.to_string().contains("checksum"), "got: {e}");
                        break;
                    }
                }
            }
        });
        let mut cfg = ServeConfig::new(addr, 0, "h".into(), 1);
        cfg.faults.corrupt_reply_on_job = Some(1);
        let summary = serve(cfg, Ok).unwrap();
        // The child computed the job; only the wire bytes were damaged.
        assert_eq!(summary.jobs_done, 1);
        coord.join().unwrap();
    }

    #[test]
    fn drop_conn_fault_ends_the_session_without_a_reply() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let coord = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(s);
            match conn.recv_msg().unwrap().unwrap() {
                Message::Hello { instance, .. } => conn
                    .send_msg(&Message::HelloAck { instance, pool: 0 })
                    .unwrap(),
                other => panic!("{other:?}"),
            }
            conn.send_msg(&Message::Job {
                seq: 1,
                job: 0,
                payload: Unit::real(1.0),
            })
            .unwrap();
            loop {
                match conn.recv_msg() {
                    Ok(Some(Message::Heartbeat)) => continue,
                    Ok(Some(other)) => panic!("unexpected reply {other:?}"),
                    Ok(None) | Err(_) => break, // EOF or reset: session died
                }
            }
        });
        let mut cfg = ServeConfig::new(addr, 0, "h".into(), 1);
        cfg.faults.drop_conn_on_job = Some(1);
        let err = serve(cfg, Ok).unwrap_err();
        assert!(err.to_string().contains("fault injection"), "got: {err}");
        coord.join().unwrap();
    }

    #[test]
    fn serve_fails_fast_when_nobody_listens() {
        let mut cfg = ServeConfig::new(Addr::Tcp("127.0.0.1:1".into()), 0, "h".into(), 1);
        cfg.connect_attempts = 2;
        let err = serve(cfg, Ok);
        assert!(err.is_err());
    }
}
