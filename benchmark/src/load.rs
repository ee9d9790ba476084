//! The load generators: a closed loop over the shipped `TenantClient`,
//! and an open loop that sends on a seeded schedule while separate
//! threads read the replies. Every reply is verified against the oracle
//! of its job class; anything but a bit-identical `Done` is a failure.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serve::{ServeMsg, TenantClient, SERVE_PROTOCOL_VERSION};
use transport::frame::{read_frame, write_frame};
use transport::{Addr, Conn};

use crate::gen::{latency_from_due_ms, open_schedule, pace, ClassStream, WallClock};
use crate::trace::Tracer;
use crate::workload::{Oracle, Served, Workload};

/// Give up on a reply after this long; the run then fails instead of
/// hanging into the driver's timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One resolved job as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Seconds from the loop's start at which the reply was verified.
    pub done_s: f64,
    pub latency_ms: f64,
    pub tenant: usize,
    /// Index into the workload's mix.
    pub class: usize,
    pub ok: bool,
}

/// What one generator run produced.
#[derive(Default)]
pub struct LoadLog {
    pub samples: Vec<Sample>,
    /// How late the generator was, per send, ms: behind the due time (open
    /// loop), or from a reply's arrival to its replacement submit having
    /// been written (closed loop).
    pub late_ms: Vec<f64>,
}

impl LoadLog {
    fn merge(&mut self, other: LoadLog) {
        self.samples.extend(other.samples);
        self.late_ms.extend(other.late_ms);
    }
}

/// Peak memory, read once: at the moment the `at`-th job of a load is
/// verified, so that the reading does not follow the number of jobs the
/// run gets through.
pub struct MemoryProbe<'a> {
    at: u64,
    done: AtomicU64,
    read_mb: Box<dyn Fn() -> Option<f64> + Sync + 'a>,
    at_mark: OnceLock<f64>,
}

impl<'a> MemoryProbe<'a> {
    pub fn new(at: u64, read_mb: impl Fn() -> Option<f64> + Sync + 'a) -> MemoryProbe<'a> {
        MemoryProbe {
            at,
            // Relaxed: a tally that publishes nothing; the reading itself
            // travels through the OnceLock.
            done: AtomicU64::new(0),
            read_mb: Box::new(read_mb),
            at_mark: OnceLock::new(),
        }
    }

    pub fn job_done(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            if let Some(mb) = (self.read_mb)() {
                let _ = self.at_mark.set(mb);
            }
        }
    }

    /// The reading and the job count it was taken at: the mark, or — when
    /// the load ended short of it — now.
    pub fn reading(&self) -> Option<(f64, u64)> {
        match self.at_mark.get() {
            Some(mb) => Some((*mb, self.at)),
            None => Some(((self.read_mb)()?, self.done.load(Ordering::Relaxed))),
        }
    }
}

/// One stretch of load against a daemon.
pub struct Stretch<'a> {
    pub addr: &'a Addr,
    pub w: &'a Workload,
    pub served: &'a Served,
    pub oracles: &'a [Oracle],
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    /// Keeps the tenants of successive stretches apart: a journaled daemon
    /// refuses a second fresh session under a name it already knows.
    pub label: &'a str,
    pub memory: Option<&'a MemoryProbe<'a>>,
}

impl Stretch<'_> {
    fn tenant_name(&self, t: usize) -> String {
        format!("{}-{t}", self.label)
    }

    fn job_done(&self) {
        if let Some(m) = self.memory {
            m.job_done();
        }
    }
}

/// Classify a reply: the class of job `seq` and whether the reply is the
/// oracle's answer. `None` for messages that resolve no job.
fn verify(
    msg: &ServeMsg,
    oracles: &[Oracle],
    class_of: impl Fn(u64) -> Option<usize>,
) -> Option<(u64, usize, bool)> {
    match msg {
        ServeMsg::Done {
            seq,
            l2_error,
            combined,
            ..
        } => {
            let class = class_of(*seq)?;
            Some((*seq, class, oracles[class].accepts(*l2_error, combined)))
        }
        ServeMsg::Fail { seq, .. } | ServeMsg::Reject { seq, .. } => {
            Some((*seq, class_of(*seq)?, false))
        }
        _ => None,
    }
}

/// One tenant's closed loop: keep `window` submits open, every reply
/// funds the next; after the deadline, collect what is open.
fn closed_tenant(st: &Stretch, t: usize, window: usize, t0: Instant) -> io::Result<LoadLog> {
    let w = st.w;
    let mut c = TenantClient::connect(st.addr, &st.tenant_name(t), st.served.weights[t])?;
    c.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut classes = ClassStream::new(
        st.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9),
        &w.shares(),
    );
    let mut open: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut log = LoadLog::default();
    let mut next_seq = 0u64;
    let mut freed_at: Option<Instant> = None;
    loop {
        let live = t0.elapsed().as_secs_f64() < st.seconds;
        while live && open.len() < window {
            next_seq += 1;
            let class = classes.next().expect("endless");
            let job = w.mix[class].0;
            let sent = Instant::now();
            c.submit(next_seq, job.root, job.level, job.tol)?;
            open.insert(next_seq, (sent, class));
            if let Some(f) = freed_at.take() {
                log.late_ms.push(f.elapsed().as_secs_f64() * 1e3);
            }
        }
        if open.is_empty() {
            break;
        }
        let msg = c.recv()?;
        let now = Instant::now();
        let class_of = |s: u64| open.get(&s).map(|o| o.1);
        let Some((seq, class, ok)) = verify(&msg, st.oracles, class_of) else {
            continue;
        };
        let (sent, _) = open.remove(&seq).expect("verify found it open");
        freed_at = Some(now);
        st.tracer.span("client.job", sent, now, None, seq);
        log.samples.push(Sample {
            done_s: now.duration_since(t0).as_secs_f64(),
            latency_ms: now.duration_since(sent).as_secs_f64() * 1e3,
            tenant: t,
            class,
            ok,
        });
        st.job_done();
    }
    c.bye()?;
    Ok(log)
}

/// Both tenants' closed loops, one thread each.
pub fn closed_loop(st: &Stretch, window: usize) -> Result<LoadLog, String> {
    let t0 = Instant::now();
    let mut log = LoadLog::default();
    std::thread::scope(|s| {
        let tenants: Vec<_> = (0..st.served.weights.len())
            .map(|t| s.spawn(move || closed_tenant(st, t, window, t0)))
            .collect();
        for (t, h) in tenants.into_iter().enumerate() {
            let part = h
                .join()
                .map_err(|_| format!("tenant {t} panicked"))?
                .map_err(|e| format!("tenant {t}: {e}"))?;
            log.merge(part);
        }
        Ok(log)
    })
}

/// A journal-less session as a writing and a reading handle on one
/// socket, so the open loop can send on schedule while replies are still
/// in flight (`TenantClient` is one blocking handle).
fn open_session(addr: &Addr, tenant: &str, weight: u32) -> io::Result<(Conn, Conn)> {
    let mut tx = Conn::connect(addr, Duration::from_secs(5))?;
    let hello = ServeMsg::Hello {
        version: SERVE_PROTOCOL_VERSION,
        tenant: tenant.to_string(),
        weight,
        token: 0,
        last_reply: 0,
    };
    write_frame(&mut tx, &hello.encode()?)?;
    tx.set_read_timeout(Some(REPLY_TIMEOUT))?;
    match recv(&mut tx)? {
        ServeMsg::Welcome { .. } => {}
        other => return Err(io::Error::other(format!("expected Welcome, got {other:?}"))),
    }
    let rx = tx.try_clone()?;
    Ok((tx, rx))
}

fn recv(conn: &mut Conn) -> io::Result<ServeMsg> {
    let payload = read_frame(conn)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the session"))?;
    ServeMsg::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Drive the seeded schedule against the daemon: one sender paces both tenants'
/// submits at their due times, one reader per tenant verifies replies
/// and times each from its due time. Job `i` of the schedule travels as
/// `seq = i + 1`, so readers need no shared state to find its due time.
pub fn open_loop(st: &Stretch, rate_per_s: f64) -> Result<LoadLog, String> {
    let (w, oracles, tracer) = (st.w, st.oracles, st.tracer);
    let weights = st.served.weights;
    let schedule = &open_schedule(st.seed, rate_per_s, st.seconds, &w.shares())[..];
    let sessions: Vec<(Conn, Conn)> = (0..weights.len())
        .map(|t| open_session(st.addr, &st.tenant_name(t), weights[t]))
        .collect::<io::Result<_>>()
        .map_err(|e| format!("open-loop connect: {e}"))?;
    let (mut txs, rxs): (Vec<Conn>, Vec<Conn>) = sessions.into_iter().unzip();
    let t0 = Instant::now();
    let mut log = LoadLog::default();
    std::thread::scope(|s| {
        let readers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(t, mut rx)| {
                s.spawn(move || -> io::Result<Vec<Sample>> {
                    let expected = schedule.iter().filter(|a| a.tenant == t).count();
                    let mut samples = Vec::with_capacity(expected);
                    while samples.len() < expected {
                        let msg = recv(&mut rx)?;
                        let now = Instant::now();
                        let class_of = |seq: u64| {
                            schedule
                                .get((seq as usize).wrapping_sub(1))
                                .filter(|a| a.tenant == t)
                                .map(|a| a.class)
                        };
                        let Some((seq, class, ok)) = verify(&msg, oracles, class_of) else {
                            continue;
                        };
                        let done_s = now.duration_since(t0).as_secs_f64();
                        let due_s = schedule[seq as usize - 1].due_s;
                        tracer.span(
                            "client.job",
                            t0 + Duration::from_secs_f64(due_s),
                            now,
                            None,
                            seq,
                        );
                        samples.push(Sample {
                            done_s,
                            latency_ms: latency_from_due_ms(due_s, done_s),
                            tenant: t,
                            class,
                            ok,
                        });
                        st.job_done();
                    }
                    Ok(samples)
                })
            })
            .collect();

        let dues: Vec<f64> = schedule.iter().map(|a| a.due_s).collect();
        let mut send_error = None;
        let late = pace(&mut WallClock(t0), &dues, |i, _| {
            let a = &schedule[i];
            let job = w.mix[a.class].0;
            let submit = ServeMsg::Submit {
                seq: i as u64 + 1,
                root: job.root,
                level: job.level,
                tol: job.tol,
            };
            let sent = submit
                .encode()
                .map_err(io::Error::from)
                .and_then(|p| write_frame(&mut txs[a.tenant], &p));
            if let Err(e) = sent {
                send_error.get_or_insert(e);
            }
        });
        log.late_ms = late.into_iter().map(|l| l * 1e3).collect();
        if let Some(e) = send_error {
            // Unblock the readers: their replies will never all come.
            txs.iter().for_each(Conn::shutdown);
            readers.into_iter().for_each(|r| drop(r.join()));
            return Err(format!("open-loop send: {e}"));
        }
        for (t, r) in readers.into_iter().enumerate() {
            let samples = r
                .join()
                .map_err(|_| format!("reader {t} panicked"))?
                .map_err(|e| format!("reader {t}: {e}"))?;
            log.samples.extend(samples);
        }
        for tx in &mut txs {
            let bye = ServeMsg::Bye.encode().map_err(|e| e.to_string())?;
            write_frame(tx, &bye).map_err(|e| format!("bye: {e}"))?;
        }
        Ok(log)
    })
}

/// One unloaded request: a single submit on a fresh session, timed to its
/// verified `Done`. Used for the warm-up to the first verified reply and
/// for the ladder's root rung.
pub fn single_request(
    client: &mut TenantClient,
    seq: u64,
    oracle: &Oracle,
) -> Result<(Instant, Instant), String> {
    let start = Instant::now();
    client
        .submit(seq, oracle.class.root, oracle.class.level, oracle.class.tol)
        .map_err(|e| format!("submit: {e}"))?;
    loop {
        match client.recv().map_err(|e| format!("recv: {e}"))? {
            ServeMsg::Done {
                seq: s,
                l2_error,
                combined,
                ..
            } if s == seq => {
                let end = Instant::now();
                if !oracle.accepts(l2_error, &combined) {
                    return Err(format!("reply {seq} differs from the sequential oracle"));
                }
                return Ok((start, end));
            }
            ServeMsg::Fail { error, .. } => return Err(format!("job {seq} failed: {error}")),
            ServeMsg::Reject { reason, .. } => return Err(format!("job {seq} rejected: {reason}")),
            _ => {}
        }
    }
}
