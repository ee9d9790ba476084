//! Coordinator-side fleet of remote task instances.
//!
//! [`RemoteWorkerPool::launch`] binds a listener (TCP loopback or a Unix
//! socket), spawns one child process per task instance through a
//! [`Spawner`] using the CONFIG host list for placement, and completes the
//! `Hello`/`HelloAck` handshake with each. From then on it takes jobs
//! without making anyone wait ([`RemoteWorkerPool::submit`]):
//!
//! * a job submitted while some live connection is idle is written to
//!   that connection at once, by the submitting thread;
//! * otherwise it waits in the fleet's one FIFO;
//! * every connection has a reader thread of its own (`mf-conn-N`, N the
//!   instance index) that blocks in `recv_msg` for the fleet's whole
//!   life. It consumes heartbeats as they arrive, matches each `Done` /
//!   `Fail` to the job on its wire by `(seq, job tag)`, writes the next
//!   queued job to its connection *before* it runs the finished job's
//!   completion — so the child is computing again while the coordinator
//!   side is still digesting the previous answer — and owns everything
//!   that can happen to the connection: its death, its respawn, its
//!   orderly departure.
//!
//! One job is on a connection's wire at a time.
//!
//! Failure handling: EOF, an I/O or CRC error, a reply that does not echo
//! the wire job's `(seq, job tag)`, or silence beyond the job timeout
//! while a job is on the wire marks the instance dead: its child is
//! killed and exactly the job on that wire fails. Queued jobs are not
//! affected — the connections still alive keep pulling them. A dead
//! instance with respawn budget left is brought up again by its own
//! reader thread (after an exponentially growing pause) as soon as a job
//! has to wait for a worker; once no instance is alive or revivable,
//! every waiting job fails, and so does every later submit.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use manifold::config::HostName;
use manifold::remote::{Completion, Lost, RemoteIdentity, Started};
use manifold::{MfError, MfResult, Unit};
use parking_lot::{Condvar, Mutex};

use crate::conn::{Addr, Backoff, Conn};
use crate::msg::{Message, PROTOCOL_VERSION};
use crate::spawn::{ChildHandle, SpawnSpec, Spawner};

/// How the pool listens for its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindMode {
    /// TCP on `127.0.0.1`, ephemeral port. Works for any child that can
    /// reach loopback; the shape a real cross-host deployment uses.
    Tcp,
    /// Unix-domain socket in the temp directory (same-host only, lower
    /// latency).
    Unix,
}

/// Pool parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of task instances (child processes).
    pub instances: usize,
    /// Listener flavour.
    pub bind: BindMode,
    /// Worker executable for children.
    pub program: PathBuf,
    /// Extra command-line arguments for children.
    pub args: Vec<String>,
    /// CONFIG host labels, cycled over instances (`hosts[i % len]`).
    /// Empty means every instance is placed on `localhost`.
    pub hosts: Vec<HostName>,
    /// Environment variables added to every child.
    pub base_env: Vec<(String, String)>,
    /// Additional per-instance environment (indexed by slot; missing
    /// entries mean "nothing extra").
    pub per_instance_env: Vec<Vec<(String, String)>>,
    /// Time allowed for a child to connect and complete the handshake.
    pub handshake_timeout: Duration,
    /// Maximum silence (no `Done`/`Fail`/`Heartbeat`) during a job before
    /// the instance is declared dead.
    pub job_timeout: Duration,
    /// Respawns allowed per slot over the pool's lifetime.
    pub respawn_budget: usize,
    /// Number of shard pools the fleet is partitioned into. Each slot is
    /// assigned pool `index % shards` in its `HelloAck`; a job can prefer
    /// a pool through the hint of [`RemoteWorkerPool::submit`]. 1 (the
    /// default) is the flat fleet.
    pub shards: usize,
}

impl PoolConfig {
    /// Defaults for a localhost deployment of `program`.
    pub fn new(program: PathBuf) -> Self {
        Self {
            instances: 2,
            bind: BindMode::Tcp,
            program,
            args: Vec::new(),
            hosts: Vec::new(),
            base_env: Vec::new(),
            per_instance_env: Vec::new(),
            handshake_timeout: Duration::from_secs(20),
            job_timeout: Duration::from_secs(10),
            respawn_budget: 3,
            shards: 1,
        }
    }

    fn host_for(&self, slot: usize) -> HostName {
        if self.hosts.is_empty() {
            HostName::new("localhost")
        } else {
            self.hosts[slot % self.hosts.len()].clone()
        }
    }
}

enum Listener {
    Tcp(std::net::TcpListener),
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

static UNIX_SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

impl Listener {
    fn bind(mode: BindMode) -> std::io::Result<(Listener, Addr)> {
        match mode {
            BindMode::Tcp => {
                let l = std::net::TcpListener::bind("127.0.0.1:0")?;
                let addr = Addr::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), addr))
            }
            BindMode::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "mf-pool-{}-{}.sock",
                    std::process::id(),
                    UNIX_SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                let l = std::os::unix::net::UnixListener::bind(&path)?;
                let addr = Addr::Unix(path.clone());
                Ok((Listener::Unix(l, path), addr))
            }
        }
    }

    /// Accept one connection within `timeout` (polling, so a child that
    /// never connects cannot hang the pool). The pause between polls
    /// starts at 50 µs and doubles up to 5 ms: a child that connects a
    /// millisecond after it was spawned is accepted a millisecond after,
    /// and one that never does costs two hundred polls a second.
    fn accept_within(&self, timeout: Duration) -> std::io::Result<Conn> {
        let deadline = Instant::now() + timeout;
        let mut pause = Backoff::new(Duration::from_micros(50), Duration::from_millis(5));
        loop {
            let conn = match self {
                Listener::Tcp(l) => {
                    l.set_nonblocking(true)?;
                    match l.accept() {
                        Ok((s, _)) => {
                            s.set_nonblocking(false)?;
                            s.set_nodelay(true)?;
                            Some(Conn::Tcp(s))
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                        Err(e) => return Err(e),
                    }
                }
                Listener::Unix(l, _) => {
                    l.set_nonblocking(true)?;
                    match l.accept() {
                        Ok((s, _)) => {
                            s.set_nonblocking(false)?;
                            Some(Conn::Unix(s))
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                        Err(e) => return Err(e),
                    }
                }
            };
            if let Some(c) = conn {
                return Ok(c);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no child connected within handshake timeout",
                ));
            }
            std::thread::sleep(pause.step());
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path.as_path());
        }
    }
}

/// What a job that found no instance alive or revivable fails with.
const NO_INSTANCES: &str = "no live remote instances (respawn budget exhausted)";

/// How long a departing child gets to acknowledge and ship its trace.
const DEPARTURE_GRACE: Duration = Duration::from_secs(5);

/// A job waiting for a connection.
struct Queued {
    tag: u64,
    unit: Unit,
    started: Started,
    done: Completion,
}

/// The job on a connection's wire.
struct Wire {
    seq: u64,
    tag: u64,
    done: Completion,
    /// When the frame was handed to the socket: silence is measured from
    /// here, not from whatever the connection last carried.
    since: Instant,
}

struct Slot {
    index: u64,
    /// Shard pool this slot serves (assigned in its `HelloAck`).
    pool: u64,
    identity: RemoteIdentity,
    /// The live connection's write half; `None` while the instance is
    /// dead. The read half belongs to the slot's reader thread.
    writer: Option<Arc<Mutex<Conn>>>,
    child: Option<ChildHandle>,
    wire: Option<Wire>,
    next_seq: u64,
    respawns_left: usize,
    backoff: Backoff,
    /// The reader is bringing a new child up right now.
    reviving: bool,
    /// Leaving the fleet: takes no new job, is sent `Leave` once its wire
    /// is empty.
    retiring: bool,
    /// Departed cleanly (`Leave` exchanged). A departed slot is out of the
    /// rotation for good: it is never handed a job and never respawned —
    /// that is what distinguishes an orderly retirement from a crash.
    departed: bool,
    /// The trace block the child shipped as it left.
    trace: Option<String>,
    reader: Option<JoinHandle<()>>,
}

impl Slot {
    /// Could take a job right now.
    fn idle(&self) -> bool {
        self.writer.is_some() && self.wire.is_none() && !self.retiring
    }

    /// Runs jobs, or can be made to.
    fn usable(&self) -> bool {
        !self.retiring && (self.writer.is_some() || self.reviving || self.respawns_left > 0)
    }

    /// The job goes onto this slot's (empty) wire under the next sequence
    /// number, which is returned.
    fn put_on_wire(&mut self, tag: u64, done: Completion) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wire = Some(Wire {
            seq,
            tag,
            done,
            since: Instant::now(),
        });
        seq
    }
}

struct State {
    // Membership is elastic: joins append, retired slots stay in place
    // (marked departed) so reports cover the fleet's whole history.
    slots: Vec<Slot>,
    /// Jobs no connection was idle for, oldest first. Non-empty only while
    /// every live connection has a job on its wire.
    queue: VecDeque<Queued>,
    queue_peak: usize,
    /// Round-robin cursor over `slots`.
    cursor: usize,
    /// `shutdown` has begun: nothing new is taken or started.
    closing: bool,
}

impl State {
    fn slot(&mut self, index: u64) -> &mut Slot {
        self.slots
            .iter_mut()
            .find(|s| s.index == index)
            .expect("a reader's slot is never removed")
    }

    /// An idle connection for a job hinted at `pool`: one of that pool if
    /// there is one, any otherwise, walking from the round-robin cursor.
    fn pick_idle(&mut self, pool: Option<u64>) -> Option<&mut Slot> {
        let n = self.slots.len();
        let start = self.cursor % n.max(1);
        self.cursor = self.cursor.wrapping_add(1);
        let walk = |want: Option<u64>| {
            (0..n).map(|i| (start + i) % n).find(|&i| {
                let s = &self.slots[i];
                s.idle() && want.is_none_or(|p| s.pool == p)
            })
        };
        let at = pool.and_then(|p| walk(Some(p))).or_else(|| walk(None))?;
        Some(&mut self.slots[at])
    }

    /// Put the oldest waiting job on slot `index`'s (empty) wire: the frame
    /// to write and the callback to run once it is written.
    fn next_for(&mut self, index: u64) -> Option<(Message, Started)> {
        if self.closing || !self.slot(index).idle() {
            return None;
        }
        let q = self.queue.pop_front()?;
        let seq = self.slot(index).put_on_wire(q.tag, q.done);
        let frame = Message::Job {
            seq,
            job: q.tag,
            payload: q.unit,
        };
        Some((frame, q.started))
    }

    /// With no instance alive or revivable, the waiting jobs: they can
    /// only fail.
    fn stranded(&mut self) -> Vec<Queued> {
        if self.slots.iter().any(Slot::usable) {
            Vec::new()
        } else {
            self.queue.drain(..).collect()
        }
    }
}

struct PoolInner {
    cfg: PoolConfig,
    addr: Addr,
    // Spawn+accept+handshake is serialized through this lock so racing
    // bring-ups cannot cross-wire two children's connections.
    listener: Mutex<Listener>,
    spawner: Arc<dyn Spawner>,
    state: Mutex<State>,
    /// For the readers of dead slots: a job is waiting, a retirement or
    /// the shutdown has begun.
    revive: Condvar,
    /// For `retire_instance`: a slot has departed.
    departed: Condvar,
    // Monotonic instance-index source; never reused, so a joined worker
    // can never be confused with a departed one.
    next_index: AtomicU64,
}

/// A fleet of remote task instances that takes jobs without blocking.
pub struct RemoteWorkerPool {
    inner: Arc<PoolInner>,
}

fn app_err(msg: impl std::fmt::Display) -> MfError {
    MfError::App(msg.to_string())
}

fn fail(queued: Vec<Queued>, reason: &str) {
    for q in queued {
        (q.done)(Err(Lost {
            instance: None,
            reason: reason.into(),
        }));
    }
}

/// A child that connected and shook hands.
struct Up {
    reader: Conn,
    writer: Conn,
    identity: RemoteIdentity,
    child: ChildHandle,
}

impl RemoteWorkerPool {
    /// Bind, spawn `cfg.instances` children through `spawner`, and
    /// complete every handshake. Fails (killing whatever was spawned) if
    /// any instance cannot be brought up.
    pub fn launch(cfg: PoolConfig, spawner: Arc<dyn Spawner>) -> MfResult<RemoteWorkerPool> {
        if cfg.instances == 0 {
            return Err(app_err("pool needs at least one instance"));
        }
        let (listener, addr) = Listener::bind(cfg.bind).map_err(app_err)?;
        let instances = cfg.instances as u64;
        let shards = cfg.shards.max(1) as u64;
        let inner = Arc::new(PoolInner {
            addr,
            listener: Mutex::new(listener),
            spawner,
            state: Mutex::new(State {
                slots: Vec::new(),
                queue: VecDeque::new(),
                queue_peak: 0,
                cursor: 0,
                closing: false,
            }),
            revive: Condvar::new(),
            departed: Condvar::new(),
            next_index: AtomicU64::new(instances),
            cfg,
        });
        // Readers start only once every child is up: a failed launch
        // leaves no thread behind, and dropping `ups` kills the children.
        let ups: Vec<Up> = (0..instances)
            .map(|index| bring_up(&inner, index, index % shards))
            .collect::<MfResult<_>>()?;
        for (index, up) in (0..instances).zip(ups) {
            inner.install(index, index % shards, up);
        }
        Ok(RemoteWorkerPool { inner })
    }

    /// The address children connect back to (`tcp:…` / `unix:…`).
    pub fn addr(&self) -> Addr {
        self.inner.addr.clone()
    }

    /// Number of slots with a live connection right now.
    pub fn live_count(&self) -> usize {
        let st = self.inner.state.lock();
        st.slots.iter().filter(|s| s.writer.is_some()).count()
    }

    /// Trace identities of all slots (index, identity).
    pub fn identities(&self) -> Vec<(u64, RemoteIdentity)> {
        let st = self.inner.state.lock();
        st.slots
            .iter()
            .map(|s| (s.index, s.identity.clone()))
            .collect()
    }

    /// Instance indices still in the membership (not departed), ascending.
    pub fn member_indices(&self) -> Vec<u64> {
        let st = self.inner.state.lock();
        st.slots
            .iter()
            .filter(|s| !s.retiring)
            .map(|s| s.index)
            .collect()
    }

    /// Reader threads the fleet is running: one per instance that has not
    /// departed, whether its connection is up or waiting to be revived.
    pub fn reader_threads(&self) -> usize {
        let st = self.inner.state.lock();
        st.slots.iter().filter(|s| !s.departed).count()
    }

    /// The most jobs that ever waited in the fleet's queue at once.
    pub fn queue_peak(&self) -> usize {
        self.inner.state.lock().queue_peak
    }

    /// Hand one job to the fleet and return at once.
    ///
    /// With a live connection idle the `Job` frame is written here, by the
    /// calling thread — to a connection of shard pool `pool` if one is
    /// idle, to any idle one otherwise (worker-level work stealing) — and
    /// `started` runs just before, with the instance's index and identity
    /// (and with the fleet's lock held: it must not call back into the
    /// fleet). Otherwise the job waits in the fleet's FIFO until a
    /// connection's reader thread, done with its previous job, takes it;
    /// `started` then runs on that thread. `done` runs exactly once, after
    /// `started`, on the thread that learned the outcome — for a job
    /// nothing can run any more, inside this call. A job that fails with
    /// `instance: None` never reached a wire and was never started.
    ///
    /// Every `Job` frame carries `tag` and the reply must echo it: the
    /// fleet (children, connections, respawn budgets) outlives jobs and
    /// serves several engine jobs at once, and the tag is what keeps a
    /// frame belonging to another — an earlier one or a concurrent one —
    /// from being taken for this one's. One-shot callers pass 0.
    pub fn submit(
        &self,
        tag: u64,
        pool: Option<u64>,
        unit: Unit,
        started: Started,
        done: Completion,
    ) {
        let mut st = self.inner.state.lock();
        if st.closing || !st.slots.iter().any(Slot::usable) {
            drop(st);
            return done(Err(Lost {
                instance: None,
                reason: NO_INSTANCES.into(),
            }));
        }
        let Some(slot) = st.pick_idle(pool) else {
            st.queue.push_back(Queued {
                tag,
                unit,
                started,
                done,
            });
            st.queue_peak = st.queue_peak.max(st.queue.len());
            let dormant = st.slots.iter().any(|s| s.writer.is_none() && s.usable());
            drop(st);
            if dormant {
                self.inner.revive.notify_all();
            }
            return;
        };
        let seq = slot.put_on_wire(tag, done);
        let writer = Arc::clone(slot.writer.as_ref().expect("an idle slot is live"));
        // Under the lock: the connection's reader cannot fail the job
        // before it was started.
        started(slot.index, slot.identity.clone());
        drop(st);
        send_job(
            &writer,
            &Message::Job {
                seq,
                job: tag,
                payload: unit,
            },
        );
    }

    /// Dynamic membership: admit one more worker into the fleet mid-run.
    /// The new slot gets a fresh (never reused) instance index, a pool
    /// assignment, and the full spawn + `Hello`/`HelloAck` handshake
    /// before this returns; on success it is in the rotation at once and
    /// has taken the oldest waiting job, if one was waiting. `pool` of
    /// `None` balances by `index % shards`.
    pub fn add_instance(&self, pool: Option<u64>) -> MfResult<u64> {
        let index = self.inner.next_index.fetch_add(1, Ordering::Relaxed);
        let shards = self.inner.cfg.shards.max(1) as u64;
        let pool = pool.unwrap_or(index % shards).min(shards - 1);
        let up = bring_up(&self.inner, index, pool)?;
        self.inner.install(index, pool, up);
        self.inner.feed(index);
        Ok(index)
    }

    /// Dynamic membership: retire the worker in slot `index` with the
    /// bidirectional `Leave` exchange. From this call on the slot takes no
    /// new job; `Leave` goes out once its wire is empty — at once, or when
    /// the job it is running has been answered — so retirement loses
    /// nothing. Returns, once the child has left, the trace block it
    /// shipped, if it sent one. The departed slot never respawns.
    pub fn retire_instance(&self, index: u64) -> MfResult<Option<String>> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        let slot = st
            .slots
            .iter_mut()
            .find(|s| s.index == index)
            .ok_or_else(|| app_err(format!("no slot with instance index {index}")))?;
        if slot.retiring {
            return Err(app_err(format!("instance {index} already departed")));
        }
        slot.retiring = true;
        let leave_now = slot.wire.is_none();
        let writer = slot.writer.clone();
        // Jobs that were counting on this slot's respawn budget.
        let stranded = st.stranded();
        drop(st);
        fail(stranded, NO_INSTANCES);
        match writer {
            Some(writer) if leave_now => send_leave(&writer, index),
            Some(_) => {}
            // A dead slot's reader is parked; it marks the departure.
            None => {
                inner.revive.notify_all();
            }
        }
        let mut st = inner.state.lock();
        while !st.slot(index).departed {
            inner.departed.wait(&mut st);
        }
        Ok(st.slot(index).trace.take())
    }

    /// Orderly shutdown: fail whatever still waits, ask every live child
    /// to finish, collect the trace block each sends back, join the reader
    /// threads and reap the processes. Returns `(slot, identity, trace)`
    /// per instance the fleet ever had; empty on a second call.
    pub fn shutdown(&self) -> Vec<(u64, RemoteIdentity, Option<String>)> {
        let inner = &self.inner;
        let (writers, waiting) = {
            let mut st = inner.state.lock();
            if st.closing {
                return Vec::new();
            }
            st.closing = true;
            let writers: Vec<_> = st.slots.iter().filter_map(|s| s.writer.clone()).collect();
            (writers, st.queue.drain(..).collect())
        };
        inner.revive.notify_all();
        fail(waiting, "worker pool shut down");
        for writer in writers {
            let mut w = writer.lock();
            let _ = w.set_read_timeout(Some(DEPARTURE_GRACE));
            if w.send_msg(&Message::Shutdown).is_err() {
                w.shutdown();
            }
        }
        let readers: Vec<JoinHandle<()>> = {
            let mut st = inner.state.lock();
            st.slots
                .iter_mut()
                .filter_map(|s| s.reader.take())
                .collect()
        };
        for r in readers {
            let _ = r.join();
        }
        let mut st = inner.state.lock();
        st.slots
            .iter_mut()
            .map(|s| {
                // A clean child has already exited; kill() just reaps it.
                if let Some(mut child) = s.child.take() {
                    child.kill();
                }
                (s.index, s.identity.clone(), s.trace.take())
            })
            .collect()
    }
}

impl Drop for RemoteWorkerPool {
    fn drop(&mut self) {
        // The readers hold the fleet's state: without this they (and the
        // children) would outlive a pool nobody shut down.
        self.shutdown();
    }
}

/// A job's frame to the wire. A write that fails closes the socket: the
/// connection's reader sees that and owns what follows.
fn send_job(writer: &Mutex<Conn>, frame: &Message) {
    let mut w = writer.lock();
    if w.send_msg(frame).is_err() {
        w.shutdown();
    }
}

fn send_leave(writer: &Mutex<Conn>, index: u64) {
    let mut w = writer.lock();
    let _ = w.set_read_timeout(Some(DEPARTURE_GRACE));
    let leave = Message::Leave {
        instance: index,
        reason: "retired".into(),
    };
    if w.send_msg(&leave).is_err() {
        w.shutdown();
    }
}

/// Spawn a child for slot `index`, accept its connection and handshake.
/// The listener lock is held throughout, serializing concurrent
/// bring-ups; the fleet's state lock is not.
fn bring_up(inner: &PoolInner, index: u64, pool: u64) -> MfResult<Up> {
    let cfg = &inner.cfg;
    let host = cfg.host_for(index as usize);
    let mut env = cfg.base_env.clone();
    env.push(("MF_WORKER_ADDR".into(), inner.addr.to_string()));
    env.push(("MF_WORKER_INSTANCE".into(), index.to_string()));
    if let Some(extra) = cfg.per_instance_env.get(index as usize) {
        env.extend(extra.iter().cloned());
    }
    let spec = SpawnSpec {
        program: cfg.program.clone(),
        args: cfg.args.clone(),
        env,
        host,
    };

    let listener = inner.listener.lock();
    let child = inner
        .spawner
        .spawn(&spec)
        .map_err(|e| app_err(format!("spawn instance {index}: {e}")))?;

    let deadline = Instant::now() + cfg.handshake_timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(app_err(format!("instance {index}: handshake timed out")));
        }
        let mut conn = listener
            .accept_within(remaining)
            .map_err(|e| app_err(format!("instance {index}: {e}")))?;
        conn.set_read_timeout(Some(cfg.handshake_timeout))
            .map_err(app_err)?;
        match conn.recv_msg() {
            Ok(Some(Message::Hello {
                version,
                instance,
                host,
                task_uid,
            })) => {
                if version != PROTOCOL_VERSION {
                    return Err(app_err(format!(
                        "instance {index}: protocol version {version} != {PROTOCOL_VERSION}"
                    )));
                }
                if instance != index {
                    // A late straggler from an earlier attempt; drop it
                    // and keep waiting for the child we just spawned.
                    continue;
                }
                conn.send_msg(&Message::HelloAck { instance, pool })
                    .map_err(app_err)?;
                // From here on the connection only carries jobs: the
                // liveness window is set once, not per job.
                conn.set_read_timeout(Some(cfg.job_timeout))
                    .map_err(app_err)?;
                return Ok(Up {
                    writer: conn.try_clone().map_err(app_err)?,
                    reader: conn,
                    identity: RemoteIdentity {
                        host: HostName::new(host),
                        task_uid,
                    },
                    child,
                });
            }
            other => {
                return Err(app_err(format!(
                    "instance {index}: bad handshake: {other:?}"
                )))
            }
        }
    }
}

/// What a connection's reader does next.
enum Flow {
    /// Keep reading.
    Read,
    /// The connection is gone; the slot may be revived.
    Dead,
    /// The slot has left the fleet, or the fleet is closing: the thread
    /// ends.
    Exit,
}

/// A reader's end of its connection.
struct Link {
    conn: Conn,
    /// The read timeout is shorter than the job timeout right now (see
    /// `PoolInner::silent`).
    shortened: bool,
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl PoolInner {
    /// Add the slot for a child that is up and start its reader thread.
    fn install(self: &Arc<Self>, index: u64, pool: u64, up: Up) {
        let inner = Arc::clone(self);
        let conn = up.reader;
        let mut st = self.state.lock();
        // Spawned under the lock: the reader's first look at the state
        // finds its slot.
        let reader = std::thread::Builder::new()
            .name(format!("mf-conn-{index}"))
            .spawn(move || inner.read_loop(index, conn))
            .expect("thread spawn");
        st.slots.push(Slot {
            index,
            pool,
            identity: up.identity,
            writer: Some(Arc::new(Mutex::new(up.writer))),
            child: Some(up.child),
            wire: None,
            next_seq: 1,
            respawns_left: self.cfg.respawn_budget,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(2)),
            reviving: false,
            retiring: false,
            departed: false,
            trace: None,
            reader: Some(reader),
        });
    }

    /// Give slot `index`, just (re)connected, the oldest waiting job.
    fn feed(&self, index: u64) {
        let mut st = self.state.lock();
        let Some((frame, started)) = st.next_for(index) else {
            return;
        };
        let slot = st.slot(index);
        let writer = Arc::clone(slot.writer.as_ref().expect("an idle slot is live"));
        started(index, slot.identity.clone());
        drop(st);
        send_job(&writer, &frame);
    }

    /// The life of slot `index`'s reader thread.
    fn read_loop(&self, index: u64, conn: Conn) {
        let mut link = Some(Link {
            conn,
            shortened: false,
        });
        loop {
            let flow = match link.as_mut() {
                Some(link) => self.read_one(index, link),
                None => self.await_revival(index, &mut link),
            };
            match flow {
                Flow::Read => {}
                Flow::Dead => link = None,
                Flow::Exit => return,
            }
        }
    }

    /// Block for one frame and act on it.
    fn read_one(&self, index: u64, link: &mut Link) -> Flow {
        let got = link.conn.recv_msg();
        if link.shortened && !matches!(&got, Err(e) if timed_out(e)) {
            let _ = link.conn.set_read_timeout(Some(self.cfg.job_timeout));
            link.shortened = false;
        }
        match got {
            // Every frame resets the liveness window: each `recv_msg`
            // gets the full job timeout of silence.
            Ok(Some(Message::Heartbeat)) => Flow::Read,
            Ok(Some(Message::Done { seq, job, payload })) => {
                self.answered(index, seq, job, Ok(payload))
            }
            // The far side survived; only the job failed.
            Ok(Some(Message::Fail { seq, job, error })) => {
                self.answered(index, seq, job, Err(error))
            }
            // A departing child acknowledges with its own Leave, then
            // ships its trace and exits.
            Ok(Some(Message::Leave { .. })) if self.leaving(index) => Flow::Read,
            Ok(Some(Message::Trace { text })) if self.leaving(index) => {
                self.left(index, Some(text))
            }
            Ok(Some(other)) => self.lost(
                index,
                format!("instance {index} lost (protocol confusion: {other:?})"),
            ),
            Ok(None) => self.lost(index, format!("instance {index} lost (connection closed)")),
            Err(e) if timed_out(&e) => self.silent(index, link),
            Err(e) => self.lost(index, format!("instance {index} lost: {e}")),
        }
    }

    /// Is slot `index` being retired, or the whole fleet shut down?
    fn leaving(&self, index: u64) -> bool {
        let mut st = self.state.lock();
        st.closing || st.slot(index).retiring
    }

    /// A `Done` or `Fail` arrived. It counts only when it echoes both the
    /// sequence number and the job tag of the job on this wire; anything
    /// else on a long-lived connection is a frame of some other job —
    /// earlier or concurrent — and poisons the connection.
    fn answered(&self, index: u64, seq: u64, tag: u64, reply: Result<Unit, String>) -> Flow {
        let mut st = self.state.lock();
        let slot = st.slot(index);
        if !slot
            .wire
            .as_ref()
            .is_some_and(|w| w.seq == seq && w.tag == tag)
        {
            drop(st);
            return self.lost(
                index,
                format!(
                    "instance {index} lost (protocol confusion: a reply to seq {seq} of job {tag})"
                ),
            );
        }
        let finished = slot.wire.take().expect("checked above");
        let next = st.next_for(index);
        let slot = st.slot(index);
        let leave = slot.retiring && next.is_none();
        let writer = Arc::clone(slot.writer.as_ref().expect("this reader's connection"));
        let identity = slot.identity.clone();
        drop(st);

        // The child first: it computes the next job while this thread
        // delivers the previous answer.
        let sent = next.map(|(frame, started)| (writer.lock().send_msg(&frame), started));
        (finished.done)(reply.map_err(|reason| Lost {
            instance: Some(index),
            reason,
        }));
        // Started after the previous completion, so the two jobs never
        // count as running together: one connection, one job.
        match sent {
            Some((written, started)) => {
                started(index, identity);
                if let Err(e) = written {
                    return self.lost(index, format!("instance {index} lost on send: {e}"));
                }
            }
            None if leave => send_leave(&writer, index),
            None => {}
        }
        Flow::Read
    }

    /// The read timed out: nothing arrived for a whole read timeout.
    fn silent(&self, index: u64, link: &mut Link) -> Flow {
        let window = self.cfg.job_timeout;
        let mut st = self.state.lock();
        let closing = st.closing;
        let slot = st.slot(index);
        let waited = slot.wire.as_ref().map(|w| w.since.elapsed());
        let leaving = closing || slot.retiring;
        drop(st);
        match waited {
            Some(waited) if waited >= window => self.lost(
                index,
                format!("instance {index} lost (silent for {window:?} with a job on its wire)"),
            ),
            // The job went out onto a connection that was already quiet:
            // it gets what is left of its own window.
            Some(waited) => {
                let _ = link.conn.set_read_timeout(Some(window - waited));
                link.shortened = true;
                Flow::Read
            }
            // No answer to `Leave` / `Shutdown` within the grace.
            None if leaving => self.left(index, None),
            // An idle child owes nothing but heartbeats, and a missing
            // heartbeat costs no job: wait on.
            None => Flow::Read,
        }
    }

    /// Slot `index`'s connection is gone: fail exactly the job on its
    /// wire, reap the child, and — when that was the last instance alive
    /// or revivable — fail the jobs still waiting.
    fn lost(&self, index: u64, reason: String) -> Flow {
        let mut st = self.state.lock();
        let closing = st.closing;
        let slot = st.slot(index);
        slot.writer = None;
        let child = slot.child.take();
        let wire = slot.wire.take();
        let leaving = closing || slot.retiring;
        let stranded = st.stranded();
        drop(st);
        // Outside the lock: reaping waits for the process.
        drop(child);
        if let Some(wire) = wire {
            (wire.done)(Err(Lost {
                instance: Some(index),
                reason,
            }));
        }
        fail(stranded, NO_INSTANCES);
        if leaving {
            self.left(index, None)
        } else {
            Flow::Dead
        }
    }

    /// Slot `index` is out of the fleet for good — retired, or the fleet
    /// is closing: keep what the child shipped and end the reader.
    fn left(&self, index: u64, trace: Option<String>) -> Flow {
        let mut st = self.state.lock();
        let slot = st.slot(index);
        slot.trace = trace;
        slot.writer = None;
        slot.departed = true;
        let child = slot.child.take();
        drop(st);
        // A clean child has already exited; this just reaps it.
        drop(child);
        self.departed.notify_all();
        Flow::Exit
    }

    /// The reader of a dead slot: wait until a job has to wait for a
    /// worker, then — budget permitting — bring a new child up.
    fn await_revival(&self, index: u64, link: &mut Option<Link>) -> Flow {
        let mut st = self.state.lock();
        let pause = loop {
            if st.closing || st.slot(index).retiring {
                drop(st);
                return self.left(index, None);
            }
            // One revival per waiting job: a single job in the queue must
            // not spend every dead slot's budget.
            let unclaimed = st.queue.len() > st.slots.iter().filter(|s| s.reviving).count();
            let slot = st.slot(index);
            if unclaimed && slot.respawns_left > 0 {
                slot.respawns_left -= 1;
                slot.reviving = true;
                break slot.backoff.step();
            }
            self.revive.wait(&mut st);
        };
        let pool = st.slot(index).pool;
        drop(st);
        std::thread::sleep(pause);
        let up = bring_up(self, index, pool);

        let mut st = self.state.lock();
        let closing = st.closing;
        let slot = st.slot(index);
        slot.reviving = false;
        match up {
            // Nobody would ever tell this child to leave: let it go now.
            Ok(up) if closing || slot.retiring => {
                drop(st);
                drop(up);
                self.left(index, None)
            }
            Ok(up) => {
                slot.writer = Some(Arc::new(Mutex::new(up.writer)));
                slot.identity = up.identity;
                slot.child = Some(up.child);
                drop(st);
                *link = Some(Link {
                    conn: up.reader,
                    shortened: false,
                });
                self.feed(index);
                Flow::Read
            }
            Err(_) => {
                let stranded = st.stranded();
                drop(st);
                fail(stranded, NO_INSTANCES);
                // Again from the top: once more if budget and jobs remain.
                Flow::Dead
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Receiver, Sender};

    const WAIT: Duration = Duration::from_secs(10);

    fn env_of(spec: &SpawnSpec, key: &str) -> String {
        spec.env
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    /// Connect as the child `spec` describes and shake hands by hand.
    fn hand_shake(spec: &SpawnSpec, host: &str) -> (u64, Conn) {
        let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
        let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        conn.send_msg(&Message::Hello {
            version: PROTOCOL_VERSION,
            instance,
            host: host.into(),
            task_uid: 1000 + instance,
        })
        .unwrap();
        let _ = conn.recv_msg().unwrap();
        (instance, conn)
    }

    /// Test double: "children" are threads running the real serve loop
    /// over real sockets, answering `(instance, job)`.
    #[derive(Default)]
    struct ThreadSpawner {
        spawned: AtomicUsize,
    }

    impl Spawner for ThreadSpawner {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            std::thread::spawn(move || {
                let cfg = ServeConfig::new(
                    addr,
                    instance,
                    format!("thread-host-{instance}"),
                    1000 + instance,
                );
                let _ = serve(
                    cfg,
                    |u| Ok(Unit::tuple(vec![Unit::int(instance as i64), u])),
                    || Some(format!("trace-of-{instance}")),
                );
            });
            Ok(ChildHandle::detached())
        }
    }

    /// What a [`Gated`] child does with the job it is holding.
    enum Reply {
        /// Answer it: `Done` echoing the payload.
        Done,
        /// Crash: the connection drops mid-job.
        Drop,
        /// Answer under the *next* engine job's tag, the way a frame
        /// delivered to the wrong job would look.
        WrongTag,
        /// Answer with a heartbeat and the reply in one write, the last
        /// payload bit flipped.
        Corrupt,
    }

    /// Test double: hand-written children that report every job they
    /// receive on `arrivals` and hold it until the test says, per
    /// instance, what to do with it.
    struct Gated {
        arrivals: Mutex<Sender<(u64, Unit)>>,
        gates: HashMap<u64, Arc<Mutex<Receiver<Reply>>>>,
        spawned: AtomicUsize,
    }

    /// The test's end of a [`Gated`] fleet.
    struct Gates {
        arrivals: Receiver<(u64, Unit)>,
        tell: HashMap<u64, Sender<Reply>>,
    }

    impl Gates {
        /// The next job to reach a child: `(instance, payload)`.
        fn arrival(&self) -> (u64, i64) {
            let (instance, unit) = self.arrivals.recv_timeout(WAIT).expect("a job on a wire");
            (instance, unit.as_int().unwrap())
        }

        fn tell(&self, instance: u64, reply: Reply) {
            self.tell[&instance].send(reply).unwrap();
        }
    }

    fn gated(instances: u64) -> (Arc<Gated>, Gates) {
        let (arrive_tx, arrivals) = channel();
        let mut gates = HashMap::new();
        let mut tell = HashMap::new();
        for i in 0..instances {
            let (tx, rx) = channel();
            gates.insert(i, Arc::new(Mutex::new(rx)));
            tell.insert(i, tx);
        }
        let spawner = Gated {
            arrivals: Mutex::new(arrive_tx),
            gates,
            spawned: AtomicUsize::new(0),
        };
        (Arc::new(spawner), Gates { arrivals, tell })
    }

    impl Spawner for Gated {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            let arrivals = self.arrivals.lock().clone();
            let spec = spec.clone();
            let instance: u64 = env_of(&spec, "MF_WORKER_INSTANCE").parse().unwrap();
            let gate = Arc::clone(&self.gates[&instance]);
            std::thread::spawn(move || {
                let (instance, mut conn) = hand_shake(&spec, "gated-host");
                loop {
                    match conn.recv_msg() {
                        Ok(Some(Message::Job { seq, job, payload })) => {
                            arrivals.send((instance, payload.clone())).unwrap();
                            let reply = |job| Message::Done { seq, job, payload };
                            match gate.lock().recv() {
                                Ok(Reply::Done) => conn.send_msg(&reply(job)).unwrap(),
                                Ok(Reply::WrongTag) => {
                                    conn.send_msg(&reply(job.wrapping_add(1))).unwrap()
                                }
                                Ok(Reply::Corrupt) => {
                                    let mut burst =
                                        crate::frame_vec(&Message::Heartbeat.encode().unwrap());
                                    burst.extend(crate::frame_vec(&reply(job).encode().unwrap()));
                                    let last = burst.len() - 1;
                                    burst[last] ^= 0x01;
                                    std::io::Write::write_all(&mut conn, &burst).unwrap();
                                }
                                Ok(Reply::Drop) | Err(_) => return,
                            }
                        }
                        Ok(Some(Message::Leave { instance, reason })) => {
                            conn.send_msg(&Message::Leave { instance, reason }).unwrap();
                            let text = format!("trace-of-{instance}");
                            conn.send_msg(&Message::Trace { text }).unwrap();
                            return;
                        }
                        _ => return,
                    }
                }
            });
            Ok(ChildHandle::detached())
        }
    }

    fn quick_cfg(instances: usize, bind: BindMode) -> PoolConfig {
        let mut cfg = PoolConfig::new(PathBuf::from("unused-by-thread-spawners"));
        cfg.instances = instances;
        cfg.bind = bind;
        cfg.handshake_timeout = Duration::from_secs(10);
        cfg.job_timeout = Duration::from_secs(5);
        cfg.hosts = vec![HostName::new("cfg-host-a"), HostName::new("cfg-host-b")];
        cfg
    }

    /// A job in the fleet's hands, as the submitter sees it.
    struct InFlight {
        started: Receiver<(u64, RemoteIdentity)>,
        done: Receiver<Result<Unit, Lost>>,
    }

    impl InFlight {
        fn outcome(&self) -> Result<Unit, Lost> {
            self.done.recv_timeout(WAIT).expect("the job's completion")
        }

        /// The instance the job was put on, once it has been.
        fn instance(&self) -> u64 {
            self.started.recv_timeout(WAIT).expect("started").0
        }
    }

    fn submit(pool: &RemoteWorkerPool, tag: u64, hint: Option<u64>, unit: Unit) -> InFlight {
        let (started_tx, started) = channel();
        let (done_tx, done) = channel();
        pool.submit(
            tag,
            hint,
            unit,
            Box::new(move |index, identity| started_tx.send((index, identity)).unwrap()),
            Box::new(move |result| done_tx.send(result).unwrap()),
        );
        InFlight { started, done }
    }

    /// What a blocking call used to be: submit, then wait for the
    /// completion.
    fn run(pool: &RemoteWorkerPool, tag: u64, unit: Unit) -> Result<Unit, Lost> {
        submit(pool, tag, None, unit).outcome()
    }

    #[test]
    fn pool_round_robins_live_instances_and_collects_traces() {
        let spawner = Arc::new(ThreadSpawner::default());
        let pool = RemoteWorkerPool::launch(quick_cfg(2, BindMode::Tcp), spawner.clone()).unwrap();
        assert_eq!(pool.live_count(), 2);
        assert_eq!(pool.reader_threads(), 2);

        let a = submit(&pool, 0, None, Unit::real(2.5));
        let (a_instance, a_identity) = a.started.recv_timeout(WAIT).unwrap();
        assert_eq!(
            a.outcome().unwrap(),
            Unit::tuple(vec![Unit::int(a_instance as i64), Unit::real(2.5)])
        );
        // Identity comes from the child's Hello, not the CONFIG label.
        assert!(a_identity.host.as_str().starts_with("thread-host-"));
        assert_eq!(a_identity.task_uid, 1000 + a_instance);
        // Both idle again: the cursor moves on to the other one.
        let b = submit(&pool, 0, None, Unit::real(1.0));
        assert_ne!(b.instance(), a_instance);
        b.outcome().unwrap();
        assert_eq!(pool.queue_peak(), 0, "an idle connection took each job");

        let traces = pool.shutdown();
        assert_eq!(traces.len(), 2);
        for (slot, _id, trace) in traces {
            assert_eq!(trace.as_deref(), Some(format!("trace-of-{slot}").as_str()));
        }
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 2);
        assert!(pool.shutdown().is_empty(), "nothing left to shut down");
    }

    #[test]
    fn pool_works_over_unix_sockets() {
        let spawner = Arc::new(ThreadSpawner::default());
        let pool = RemoteWorkerPool::launch(quick_cfg(1, BindMode::Unix), spawner).unwrap();
        assert!(matches!(pool.addr(), Addr::Unix(_)));
        let out = run(&pool, 0, Unit::text("via unix")).unwrap();
        assert_eq!(out, Unit::tuple(vec![Unit::int(0), Unit::text("via unix")]));
        pool.shutdown();
    }

    #[test]
    fn more_jobs_than_connections_reach_the_wire_in_submission_order() {
        let (spawner, gates) = gated(2);
        let pool = RemoteWorkerPool::launch(quick_cfg(2, BindMode::Tcp), spawner).unwrap();
        let jobs: Vec<InFlight> = (0..6)
            .map(|k| submit(&pool, 7, None, Unit::int(k)))
            .collect();
        assert_eq!(pool.queue_peak(), 4, "two on the wires, four waiting");
        // The first two went out at once, one per connection (which child
        // reports first is their race).
        let mut busy = [gates.arrival(), gates.arrival()];
        busy.sort_by_key(|&(_, k)| k);
        assert_eq!(busy.map(|(_, k)| k), [0, 1]);
        let busy = busy.map(|(instance, _)| instance);
        assert_ne!(busy[0], busy[1]);
        // Whichever connection answers takes the oldest waiting job.
        for (answers, want) in [(1usize, 2), (1, 3), (0, 4), (1, 5)] {
            gates.tell(busy[answers], Reply::Done);
            let (instance, k) = gates.arrival();
            assert_eq!((instance, k), (busy[answers], want), "the queue is FIFO");
        }
        gates.tell(busy[0], Reply::Done);
        gates.tell(busy[1], Reply::Done);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.outcome().unwrap(), Unit::int(k as i64));
        }
        pool.shutdown();
    }

    #[test]
    fn the_next_job_is_on_the_wire_before_the_previous_completion_returns() {
        let (spawner, gates) = gated(1);
        let pool = RemoteWorkerPool::launch(quick_cfg(1, BindMode::Tcp), spawner).unwrap();
        // The first job's completion lingers until the test lets it go.
        let (entered_tx, entered) = channel();
        let (leave_tx, leave) = channel::<()>();
        pool.submit(
            0,
            None,
            Unit::int(1),
            Box::new(|_, _| {}),
            Box::new(move |result| {
                entered_tx.send(result).unwrap();
                leave.recv().unwrap();
            }),
        );
        let second = submit(&pool, 0, None, Unit::int(2));
        assert_eq!(gates.arrival(), (0, 1));
        gates.tell(0, Reply::Done);
        assert_eq!(entered.recv_timeout(WAIT).unwrap().unwrap(), Unit::int(1));
        // The reader thread is inside that completion right now — and the
        // child already has the second job and answers it.
        assert_eq!(gates.arrival(), (0, 2));
        gates.tell(0, Reply::Done);
        assert!(second.done.try_recv().is_err(), "its reader is still busy");
        leave_tx.send(()).unwrap();
        assert_eq!(second.instance(), 0);
        assert_eq!(second.outcome().unwrap(), Unit::int(2));
        pool.shutdown();
    }

    #[test]
    fn a_lost_connection_fails_only_the_job_on_its_wire() {
        for (fault, needle) in [
            (Reply::Drop, "connection closed"),
            (Reply::Corrupt, "checksum"),
            (Reply::WrongTag, "protocol confusion"),
        ] {
            let (spawner, gates) = gated(2);
            let mut cfg = quick_cfg(2, BindMode::Tcp);
            cfg.respawn_budget = 0;
            let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();
            let jobs: Vec<InFlight> = (0..4)
                .map(|k| submit(&pool, 9, None, Unit::int(k)))
                .collect();
            let (victim, lost_job) = gates.arrival();
            let (survivor, _) = gates.arrival();
            gates.tell(victim, fault);
            let lost = jobs[lost_job as usize].outcome().unwrap_err();
            assert_eq!(lost.instance, Some(victim));
            assert!(lost.reason.contains(needle), "got: {}", lost.reason);
            assert_eq!(pool.live_count(), 1, "the connection is poisoned");
            // The waiting jobs were nobody's but the queue's: the live
            // connection takes them one by one.
            for _ in 0..3 {
                gates.tell(survivor, Reply::Done);
            }
            for (k, job) in jobs.iter().enumerate() {
                if k as i64 != lost_job {
                    assert_eq!(job.instance(), survivor);
                    assert_eq!(job.outcome().unwrap(), Unit::int(k as i64));
                }
            }
            pool.shutdown();
        }
    }

    #[test]
    fn a_dead_instance_is_respawned_when_a_job_has_to_wait_until_the_budget_is_gone() {
        let (spawner, gates) = gated(1);
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.respawn_budget = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner.clone()).unwrap();
        for incarnation in 1..=3 {
            // No live connection (after the first round): the job waits,
            // which is what brings the next child up.
            let job = submit(&pool, 0, None, Unit::int(incarnation));
            assert_eq!(gates.arrival(), (0, incarnation));
            assert_eq!(pool.live_count(), 1);
            assert_eq!(
                spawner.spawned.load(Ordering::Relaxed),
                incarnation as usize
            );
            gates.tell(0, Reply::Drop);
            let lost = job.outcome().unwrap_err();
            assert_eq!(lost.instance, Some(0));
            assert!(lost.reason.contains("lost"), "got: {}", lost.reason);
            assert_eq!(pool.live_count(), 0);
        }
        // Nothing alive, nothing revivable: refused inside `submit`.
        let lost = run(&pool, 0, Unit::int(4)).unwrap_err();
        assert_eq!(lost.instance, None);
        assert!(
            lost.reason.contains("respawn budget"),
            "got: {}",
            lost.reason
        );
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 3);
        assert_eq!(pool.reader_threads(), 1, "still the one reader it had");
    }

    #[test]
    fn with_the_budget_gone_every_waiting_job_fails_with_the_old_message() {
        let (spawner, gates) = gated(1);
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.respawn_budget = 0;
        let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();
        let jobs: Vec<InFlight> = (0..3)
            .map(|k| submit(&pool, 0, None, Unit::int(k)))
            .collect();
        assert_eq!(gates.arrival(), (0, 0));
        gates.tell(0, Reply::Drop);
        assert_eq!(jobs[0].outcome().unwrap_err().instance, Some(0));
        for waiting in &jobs[1..] {
            let lost = waiting.outcome().unwrap_err();
            assert_eq!(lost.instance, None, "it never reached a wire");
            assert_eq!(lost.reason, NO_INSTANCES);
            assert!(waiting.started.try_recv().is_err());
        }
    }

    #[test]
    fn job_tags_are_echoed_and_two_engine_jobs_share_a_connection() {
        let spawner = Arc::new(ThreadSpawner::default());
        let pool = RemoteWorkerPool::launch(quick_cfg(1, BindMode::Tcp), spawner).unwrap();
        // The serve loop echoes whatever tag the Job carried, so a healthy
        // child round-trips under any tag — and under two tags in turn.
        for tag in [5, 6, 5] {
            let out = run(&pool, tag, Unit::real(3.0)).unwrap();
            assert_eq!(out, Unit::tuple(vec![Unit::int(0), Unit::real(3.0)]));
        }
        pool.shutdown();
    }

    #[test]
    fn membership_join_and_retire_mid_run() {
        let spawner = Arc::new(ThreadSpawner::default());
        let mut cfg = quick_cfg(2, BindMode::Tcp);
        cfg.shards = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner.clone()).unwrap();
        assert_eq!(pool.live_count(), 2);

        // Join: a third worker handshakes and serves immediately.
        let idx = pool.add_instance(None).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(pool.live_count(), 3);
        assert_eq!(pool.reader_threads(), 3);

        // Retire instance 0: Leave exchange, trace shipped, out of the
        // rotation for good.
        let trace = pool.retire_instance(0).unwrap();
        assert_eq!(trace.as_deref(), Some("trace-of-0"));
        assert_eq!(pool.live_count(), 2);
        assert_eq!(pool.member_indices(), [1, 2]);
        assert_eq!(pool.reader_threads(), 2);

        // Jobs keep flowing and never land on the departed slot — and a
        // departed slot is never respawned (zero lost jobs, zero zombie
        // spawns).
        for k in 0..6 {
            let job = submit(&pool, 0, None, Unit::int(k));
            let instance = job.instance();
            assert_ne!(instance, 0, "departed slot handed a job");
            assert_eq!(
                job.outcome().unwrap(),
                Unit::tuple(vec![Unit::int(instance as i64), Unit::int(k)])
            );
        }
        assert!(pool.retire_instance(0).is_err(), "double retirement");
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 3);
        assert_eq!(
            pool.shutdown().len(),
            3,
            "the departed slot is reported too"
        );
    }

    #[test]
    fn retiring_an_instance_with_a_job_on_its_wire_loses_nothing() {
        let (spawner, gates) = gated(2);
        let pool =
            Arc::new(RemoteWorkerPool::launch(quick_cfg(2, BindMode::Tcp), spawner).unwrap());
        let held = submit(&pool, 0, None, Unit::int(1));
        let (victim, _) = gates.arrival();
        let retiring = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.retire_instance(victim))
        };
        while pool.member_indices().contains(&victim) {
            std::thread::yield_now();
        }
        // Out of the rotation from that moment, its job still running.
        let other = submit(&pool, 0, None, Unit::int(2));
        let (survivor, _) = gates.arrival();
        assert_ne!(survivor, victim);
        assert!(!retiring.is_finished(), "Leave waits for the wire job");
        gates.tell(victim, Reply::Done);
        assert_eq!(held.outcome().unwrap(), Unit::int(1));
        let trace = retiring.join().unwrap().unwrap();
        assert_eq!(trace, Some(format!("trace-of-{victim}")));
        gates.tell(survivor, Reply::Done);
        assert_eq!(other.outcome().unwrap(), Unit::int(2));
        assert_eq!(pool.live_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn a_hinted_job_takes_its_pool_while_it_has_an_idle_worker_and_any_other_after() {
        let (spawner, gates) = gated(4);
        let mut cfg = quick_cfg(4, BindMode::Tcp);
        cfg.shards = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();
        // Pool assignment is index % shards: slots 1 and 3 serve pool 1.
        let mut taken = Vec::new();
        for k in 0..2 {
            let job = submit(&pool, 0, Some(1), Unit::int(k));
            assert_eq!(job.instance() % 2, 1, "hint not honoured");
            taken.push((job, gates.arrival().0));
        }
        // Pool 1 is busy: the hint falls back to any idle worker
        // (worker-level stealing) instead of waiting.
        let stolen = submit(&pool, 0, Some(1), Unit::int(2));
        let thief = stolen.instance();
        assert_eq!(thief % 2, 0);
        assert_eq!(gates.arrival(), (thief, 2));
        assert_eq!(pool.queue_peak(), 0);
        // Retire pool 1 entirely: the same, for good.
        for (job, instance) in taken {
            gates.tell(instance, Reply::Done);
            job.outcome().unwrap();
        }
        gates.tell(thief, Reply::Done);
        stolen.outcome().unwrap();
        pool.retire_instance(1).unwrap();
        pool.retire_instance(3).unwrap();
        let job = submit(&pool, 0, Some(1), Unit::int(7));
        let instance = job.instance();
        assert_eq!(instance % 2, 0);
        gates.arrival();
        gates.tell(instance, Reply::Done);
        assert_eq!(job.outcome().unwrap(), Unit::int(7));
        pool.shutdown();
    }

    #[test]
    fn a_heartbeat_and_a_reply_in_one_read_are_both_consumed() {
        /// "Children" that answer every job with a heartbeat and the reply
        /// in one write.
        struct BurstSpawner;
        impl Spawner for BurstSpawner {
            fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
                let spec = spec.clone();
                std::thread::spawn(move || {
                    let (_, mut conn) = hand_shake(&spec, "burst-host");
                    while let Ok(Some(Message::Job { seq, job, payload })) = conn.recv_msg() {
                        let mut burst = crate::frame_vec(&Message::Heartbeat.encode().unwrap());
                        let reply = Message::Done { seq, job, payload };
                        burst.extend(crate::frame_vec(&reply.encode().unwrap()));
                        std::io::Write::write_all(&mut conn, &burst).unwrap();
                    }
                });
                Ok(ChildHandle::detached())
            }
        }
        let pool =
            RemoteWorkerPool::launch(quick_cfg(1, BindMode::Tcp), Arc::new(BurstSpawner)).unwrap();
        for k in 0..3 {
            assert_eq!(run(&pool, 0, Unit::int(k)).unwrap(), Unit::int(k));
        }
        assert_eq!(pool.live_count(), 1);
    }

    #[test]
    fn silence_with_a_job_on_the_wire_is_death_and_idle_silence_is_not() {
        // Gated children never send a heartbeat.
        let (spawner, gates) = gated(1);
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.job_timeout = Duration::from_millis(150);
        cfg.respawn_budget = 0;
        let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();
        // Several windows of idle silence cost nothing.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(pool.live_count(), 1);
        let t0 = Instant::now();
        let job = submit(&pool, 0, None, Unit::int(1));
        gates.arrival();
        let lost = job.outcome().unwrap_err();
        let waited = t0.elapsed();
        assert_eq!(lost.instance, Some(0));
        assert!(lost.reason.contains("silent"), "got: {}", lost.reason);
        // One window from the moment the job went out — not from the
        // last read timeout before it, and not two windows.
        assert!(
            waited >= Duration::from_millis(150),
            "gave up after {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(290),
            "gave up after {waited:?}"
        );
        assert_eq!(pool.live_count(), 0);
    }
}
