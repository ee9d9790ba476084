//! Coordinator-side fleet of remote task instances.
//!
//! [`RemoteWorkerPool::launch`] binds a Unix-domain [`Listener`] under a
//! name in Linux's abstract namespace (every child is spawned on this
//! host; the name dies with the fleet's process, however it ends, so no
//! socket file is ever left behind), spawns one child process per task
//! instance through a [`Spawner`] — all of them before any handshake, so
//! the fleet comes up in one child start, not one per instance — and
//! completes the `Hello`/`HelloAck` handshake with each in whatever order
//! they connect (a child at another protocol version, or one that exits
//! first, fails the launch); the host and task uid a child names in its
//! `Hello` are the identity its worker's trace records carry. The launch,
//! a revival and a join all go through that one bring-up. From then on
//! it takes jobs without making anyone wait ([`RemoteWorkerPool::submit`]):
//!
//! * a connection carries up to two jobs (`WIRE_DEPTH`): its *head*, which
//!   the child is computing, and one more waiting in the child's socket
//!   buffer, so a child that has just answered finds its next job without
//!   sleeping in `recv`. Only a job whose frame fits in the socket's send
//!   buffer at once (`BEHIND_MAX_BYTES`) waits behind a head; a larger one
//!   goes only on an empty wire;
//! * a job submitted while no job waits and some live connection has room
//!   for it is written to that connection at once, by the submitting
//!   thread — to an empty wire before a half-full one;
//! * otherwise it waits in the fleet's one FIFO;
//! * every connection has a reader thread of its own (`mf-conn-N`, N the
//!   instance index) that blocks in `recv_msg` for the fleet's whole
//!   life. It consumes heartbeats as they arrive, matches each `Done` /
//!   `Fail` to the head of its wire by `(seq, job tag)`, writes the next
//!   queued job to its connection *before* it runs the finished job's
//!   completion, and owns everything that can happen to the connection:
//!   its death, its respawn, its orderly departure.
//!
//! A job counts as started when it becomes the head of its wire: at once
//! on an empty wire, otherwise right after the completion of the job
//! ahead of it. So one connection has one job computing, and a job's
//! silence timeout counts from the moment it became the head.
//!
//! Frames reach a connection in `seq` order: whoever puts a job on a wire
//! takes that connection's writer before it lets go of the fleet's lock
//! (lock order: fleet state, then writer).
//!
//! Failure handling: EOF, an I/O or CRC error, a reply that does not echo
//! the head's `(seq, job tag)`, or silence beyond the job timeout while a
//! job is on the wire marks the instance dead: its child is killed and
//! the head job fails. The job behind the head never started: it goes
//! back to the front of the fleet's FIFO, then to a live connection with
//! room or, through a revival, to a new one — one worker death is one
//! lost job. A dead instance with respawn budget left is brought up again
//! by its own reader thread (after an exponentially growing pause) as
//! soon as a job has to wait for a worker; once no instance is alive or
//! revivable, every waiting job fails, and so does every later submit.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use manifold::config::HostName;
use manifold::remote::{Completion, Lost, RemoteIdentity, Started};
use manifold::{MfError, MfResult, Unit};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::conn::{Addr, Backoff, Conn, Listener};
use crate::msg::{Message, PROTOCOL_VERSION};
use crate::poll::{poll_fds, PollFd, POLLIN};
use crate::spawn::{ChildHandle, SpawnSpec, Spawner};
use crate::stage::{self, Stage};

/// Pool parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of task instances (child processes).
    pub instances: usize,
    /// Worker executable for children.
    pub program: PathBuf,
    /// Environment variables added to every child.
    pub base_env: Vec<(String, String)>,
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
            program,
            base_env: Vec::new(),
            job_timeout: Duration::from_secs(10),
            respawn_budget: 3,
            shards: 1,
        }
    }
}

static UNIX_SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where a pool listens: a fresh name in the abstract namespace.
fn socket_addr() -> Addr {
    Addr::Unix(PathBuf::from(format!(
        "@mf-pool-{}-{}",
        std::process::id(),
        UNIX_SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    )))
}

/// What a job that found no instance alive or revivable fails with.
const NO_INSTANCES: &str = "no live remote instances (respawn budget exhausted)";

/// Time allowed for a child to connect and complete the handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(20);

/// Longest wait, in milliseconds, for a connection before a bring-up
/// looks again for an exited child and at its deadline.
const ACCEPT_POLL_MS: i32 = 5;

/// How long a departing child gets to acknowledge and close.
const DEPARTURE_GRACE: Duration = Duration::from_secs(5);

/// What a job still waiting when the fleet shut down fails with.
const SHUT_DOWN: &str = "worker pool shut down";

/// Jobs one connection carries at once: the head, which its child is
/// computing, and one waiting in the child's socket buffer. A constant:
/// more would only lengthen the queue a dead child strands behind its
/// head, fewer puts the child back to sleep between jobs.
const WIRE_DEPTH: usize = 2;

/// The largest payload ([`Unit::wire_size`]) that waits behind a head. Its
/// frame must fit in the connection's send buffer at once: the child reads
/// it only after it has answered the head, and the thread that writes it
/// may be the reader that has to take that answer — a write that blocks
/// there waits for a child that waits for it. A quarter of Linux's default
/// Unix-socket send buffer (`net.core.wmem_default`, 208 KiB) leaves room
/// for the head's frame and the kernel's accounting. A larger job goes
/// only on an empty wire, whose child is idle and reading.
const BEHIND_MAX_BYTES: usize = 64 * 1024;

/// How many jobs a wire may hold for `unit` to join it: `WIRE_DEPTH`, or
/// 1 — only an empty wire — for a payload above `BEHIND_MAX_BYTES`.
fn depth_for(unit: &Unit) -> usize {
    if unit.wire_size() <= BEHIND_MAX_BYTES {
        WIRE_DEPTH
    } else {
        1
    }
}

/// A job waiting for a connection.
struct Queued {
    tag: u64,
    unit: Unit,
    started: Started,
    done: Completion,
}

/// A job on a connection's wire.
struct Wire {
    seq: u64,
    tag: u64,
    done: Completion,
    /// `Some` while the job waits behind the head: its payload, to requeue
    /// it if the connection dies first, and the callback that runs once it
    /// becomes the head.
    behind: Option<(Unit, Started)>,
}

impl Wire {
    /// A job that never became its wire's head, back in the queue's form.
    fn requeue(self) -> Queued {
        let (unit, started) = self.behind.expect("only a job behind the head is requeued");
        Queued {
            tag: self.tag,
            unit,
            started,
            done: self.done,
        }
    }
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
    /// The jobs on the connection, head first, at most `WIRE_DEPTH`.
    wire: VecDeque<Wire>,
    /// When the wire's head became the head: its silence is measured from
    /// here, not from whatever the connection last carried.
    head_since: Instant,
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
    reader: Option<JoinHandle<()>>,
}

impl Slot {
    /// Could take a job that may join a wire holding fewer than `depth`.
    fn has_room(&self, depth: usize) -> bool {
        self.writer.is_some() && !self.retiring && self.wire.len() < depth
    }

    /// Runs jobs, or can be made to.
    fn usable(&self) -> bool {
        !self.retiring && (self.writer.is_some() || self.reviving || self.respawns_left > 0)
    }

    /// Put `q` on this slot's wire under the next sequence number: the
    /// frame to write and, when the wire was empty and `q` is its head,
    /// the `started` to run now. A job behind the head keeps its `started`
    /// until it gets there.
    fn put_on_wire(&mut self, q: Queued) -> (Message, Option<Started>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (behind, started) = if self.wire.is_empty() {
            self.head_since = Instant::now();
            (None, Some(q.started))
        } else {
            (Some((q.unit.clone(), q.started)), None)
        };
        self.wire.push_back(Wire {
            seq,
            tag: q.tag,
            done: q.done,
            behind,
        });
        let frame = Message::Job {
            seq,
            job: q.tag,
            payload: q.unit,
        };
        (frame, started)
    }

    /// The head was answered: take it off the wire. The job behind it, if
    /// any, is the head from now on; its `started` is returned, to run
    /// once the finished job's completion has.
    fn pop_head(&mut self) -> (Wire, Option<Started>) {
        let finished = self.wire.pop_front().expect("an answered wire has a head");
        let started = self.wire.front_mut().map(|head| {
            self.head_since = Instant::now();
            head.behind.take().expect("a job behind the head").1
        });
        (finished, started)
    }
}

struct State {
    // Membership is elastic: joins append, retired slots stay in place
    // (marked departed) so reports cover the fleet's whole history.
    slots: Vec<Slot>,
    /// Jobs no connection had room for, oldest first. Non-empty only while
    /// every live connection's wire is full.
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

    /// The position of a connection with room for a job hinted at `pool`
    /// that may join a wire holding fewer than `depth` (see `depth_for`):
    /// an empty wire before a half-full one, and at each depth one of that
    /// pool before any, walking from the round-robin cursor.
    fn pick_idle(&mut self, pool: Option<u64>, depth: usize) -> Option<usize> {
        let n = self.slots.len();
        let start = self.cursor % n.max(1);
        self.cursor = self.cursor.wrapping_add(1);
        let walk = |depth: usize, want: Option<u64>| {
            (0..n).map(|i| (start + i) % n).find(|&i| {
                let s = &self.slots[i];
                s.has_room(WIRE_DEPTH) && s.wire.len() == depth && want.is_none_or(|p| s.pool == p)
            })
        };
        (0..depth).find_map(|depth| {
            pool.and_then(|p| walk(depth, Some(p)))
                .or_else(|| walk(depth, None))
        })
    }

    /// Put the oldest waiting job on slot `index`'s wire, if it has room
    /// for that job: the frame to write and, if the job is the head, its
    /// `started`.
    fn next_for(&mut self, index: u64) -> Option<(Message, Option<Started>)> {
        let depth = depth_for(&self.queue.front()?.unit);
        if self.closing || !self.slot(index).has_room(depth) {
            return None;
        }
        let q = self.queue.pop_front().expect("checked above");
        Some(self.slot(index).put_on_wire(q))
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

/// A child that connected and shook hands, for slot `index` of shard
/// pool `pool`.
struct Up {
    index: u64,
    pool: u64,
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
        let (listener, addr) = Listener::bind(&socket_addr()).map_err(app_err)?;
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
        let wanted: Vec<(u64, u64)> = (0..instances).map(|i| (i, i % shards)).collect();
        let ups = bring_up_all(&inner, &wanted)?;
        let pool = RemoteWorkerPool { inner };
        for up in ups {
            // On failure, dropping `pool` shuts down the slots installed so
            // far and dropping the rest of `ups` kills their children.
            pool.inner.install(up)?;
        }
        Ok(pool)
    }

    /// The address children connect back to (`unix:@…`).
    pub fn addr(&self) -> Addr {
        self.inner.addr.clone()
    }

    /// Number of slots with a live connection right now.
    #[cfg(test)]
    fn live_count(&self) -> usize {
        let st = self.inner.state.lock();
        st.slots.iter().filter(|s| s.writer.is_some()).count()
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
    /// With no job waiting and a live connection that has room the `Job`
    /// frame is written here, by the calling thread — to a connection of
    /// shard pool `pool` if one has room, to any other otherwise
    /// (worker-level work stealing), an empty wire before a half-full one,
    /// and only an empty one for a payload too large to wait behind a head
    /// (see `BEHIND_MAX_BYTES`). On an empty wire
    /// the job is the head and `started` runs just before, with the
    /// instance's index and identity (and with the fleet's lock held: it
    /// must not call back into the fleet); behind a head, `started` runs on
    /// the connection's reader thread once the head's completion has.
    /// Otherwise the job waits in the fleet's FIFO until a connection's
    /// reader thread, done with a job, takes it. `done` runs exactly once,
    /// after `started`, on the thread that learned the outcome — for a job
    /// nothing can run any more, inside this call. A job that fails with
    /// `instance: None` never became the head of a wire and was never
    /// started.
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
        let depth = depth_for(&unit);
        let mut st = self.inner.state.lock();
        if st.closing || !st.slots.iter().any(Slot::usable) {
            drop(st);
            return done(Err(Lost {
                instance: None,
                reason: NO_INSTANCES.into(),
            }));
        }
        let job = Queued {
            tag,
            unit,
            started,
            done,
        };
        // A waiting job goes first: one that only an empty wire can take
        // must not be passed by every smaller job that fits behind a head.
        let at = if st.queue.is_empty() {
            st.pick_idle(pool, depth)
        } else {
            None
        };
        let Some(at) = at else {
            st.queue.push_back(job);
            st.queue_peak = st.queue_peak.max(st.queue.len());
            let dormant = st.slots.iter().any(|s| s.writer.is_none() && s.usable());
            drop(st);
            if dormant {
                self.inner.revive.notify_all();
            }
            return;
        };
        place(st, at, job);
    }

    /// Dynamic membership: admit one more worker into the fleet mid-run.
    /// The new slot gets a fresh (never reused) instance index, a pool
    /// assignment, and the full spawn + `Hello`/`HelloAck` handshake
    /// before this returns; on success it is in the rotation at once and
    /// has taken the oldest waiting jobs, if any were waiting. `pool` of
    /// `None` balances by `index % shards`.
    pub fn add_instance(&self, pool: Option<u64>) -> MfResult<u64> {
        let index = self.inner.next_index.fetch_add(1, Ordering::Relaxed);
        let shards = self.inner.cfg.shards.max(1) as u64;
        let pool = pool.unwrap_or(index % shards).min(shards - 1);
        for up in bring_up_all(&self.inner, &[(index, pool)])? {
            self.inner.install(up)?;
        }
        self.inner.dispatch();
        Ok(index)
    }

    /// Dynamic membership: retire the worker in slot `index` with the
    /// bidirectional `Leave` exchange. From this call on the slot takes no
    /// new job; `Leave` goes out once its wire is empty — at once, or when
    /// the jobs on it have been answered — so retirement loses
    /// nothing. Returns once the child has left. The departed slot never
    /// respawns.
    pub fn retire_instance(&self, index: u64) -> MfResult<()> {
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
        let leave_now = slot.wire.is_empty();
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
        Ok(())
    }

    /// Orderly shutdown: fail whatever still waits, ask every live child
    /// to finish, join the reader threads once each child has closed its
    /// connection, and reap the processes. A second call does nothing.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        let (writers, waiting) = {
            let mut st = inner.state.lock();
            if st.closing {
                return;
            }
            st.closing = true;
            let writers: Vec<_> = st.slots.iter().filter_map(|s| s.writer.clone()).collect();
            (writers, st.queue.drain(..).collect())
        };
        inner.revive.notify_all();
        fail(waiting, SHUT_DOWN);
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
        for s in &mut st.slots {
            // A clean child has already exited; kill() just reaps it.
            if let Some(mut child) = s.child.take() {
                child.kill();
            }
        }
    }
}

impl Drop for RemoteWorkerPool {
    fn drop(&mut self) {
        // The readers hold the fleet's state: without this they (and the
        // children) would outlive a pool nobody shut down.
        self.shutdown();
    }
}

/// Put `q` on the wire of the slot at `at`, which has room, and write its
/// frame. A head is started here, under the fleet's lock: the
/// connection's reader cannot fail it before. The writer is taken before
/// the lock is let go, so a frame put on this connection later cannot
/// reach the socket first. A write that fails closes the socket: the
/// connection's reader sees that and owns what follows.
fn place(mut st: MutexGuard<'_, State>, at: usize, q: Queued) {
    let slot = &mut st.slots[at];
    let (frame, started) = slot.put_on_wire(q);
    if let Some(started) = started {
        started(slot.index, slot.identity.clone());
    }
    let writer = Arc::clone(slot.writer.as_ref().expect("a slot with room is live"));
    let mut w = writer.lock();
    drop(st);
    if w.send_msg(&frame).is_err() {
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

/// Bring up one child for each `(index, pool)` in `wanted`. Every child
/// is spawned first, so they start side by side; then their connections
/// are accepted and handshaken in whatever order they arrive, each matched
/// to its slot by the instance its `Hello` names. A `Hello` naming no
/// instance still waiting is a straggler from an earlier attempt and is
/// dropped. The `Up`s come back in `wanted`'s order.
///
/// The listener lock is held throughout, serializing concurrent
/// bring-ups; the fleet's state lock is not. On failure every child
/// spawned here is killed and reaped, and the error names its instance —
/// or, for a connection that never said which it is, every instance still
/// waiting.
fn bring_up_all(inner: &PoolInner, wanted: &[(u64, u64)]) -> MfResult<Vec<Up>> {
    let cfg = &inner.cfg;
    let listener = inner.listener.lock();
    let mut children = Vec::with_capacity(wanted.len());
    for &(index, _) in wanted {
        let mut env = cfg.base_env.clone();
        env.push(("MF_WORKER_ADDR".into(), inner.addr.to_string()));
        env.push(("MF_WORKER_INSTANCE".into(), index.to_string()));
        let spec = SpawnSpec {
            program: cfg.program.clone(),
            args: Vec::new(),
            env,
        };
        let child = inner
            .spawner
            .spawn(&spec)
            .map_err(|e| app_err(format!("spawn instance {index}: {e}")))?;
        children.push(Some(child));
    }

    let mut ups: Vec<Option<Up>> = wanted.iter().map(|_| None).collect();
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    while ups.iter().any(Option::is_none) {
        let mut conn = match listener.accept() {
            Ok(stream) => {
                stream.set_nonblocking(false).map_err(app_err)?;
                Conn::from(stream)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // A child that has exited will never connect.
                for (&(index, _), child) in wanted.iter().zip(&mut children) {
                    if let Some(status) = child.as_mut().and_then(ChildHandle::exited) {
                        return Err(app_err(format!(
                            "instance {index}: exited before its handshake ({status})"
                        )));
                    }
                }
                if Instant::now() >= deadline {
                    let who = still_waiting(wanted, &ups);
                    return Err(app_err(format!("{who}: handshake timed out")));
                }
                // A connection ends the wait at once; the timeout only
                // bounds how late an exit or the deadline is noticed.
                let mut ready = [PollFd::new(listener.fd(), POLLIN)];
                poll_fds(&mut ready, ACCEPT_POLL_MS).map_err(app_err)?;
                continue;
            }
            Err(e) => return Err(app_err(format!("{}: {e}", still_waiting(wanted, &ups)))),
        };
        conn.set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(app_err)?;
        let (version, instance, host, task_uid) = match conn.recv_msg() {
            Ok(Some(Message::Hello {
                version,
                instance,
                host,
                task_uid,
            })) => (version, instance, host, task_uid),
            other => {
                let who = still_waiting(wanted, &ups);
                return Err(app_err(format!("{who}: bad handshake: {other:?}")));
            }
        };
        let Some(at) = (0..wanted.len()).find(|&at| wanted[at].0 == instance && ups[at].is_none())
        else {
            // A straggler: drop its connection and wait on.
            continue;
        };
        if version != PROTOCOL_VERSION {
            return Err(app_err(format!(
                "instance {instance}: protocol version {version} != {PROTOCOL_VERSION}"
            )));
        }
        let pool = wanted[at].1;
        let mut ack = || {
            conn.send_msg(&Message::HelloAck { instance, pool })?;
            // From here on the connection only carries jobs: the liveness
            // window is set once, not per job.
            conn.set_read_timeout(Some(cfg.job_timeout))?;
            conn.try_clone()
        };
        let writer = ack().map_err(|e| app_err(format!("instance {instance}: {e}")))?;
        stage::reached(Stage::FirstHelloAck);
        ups[at] = Some(Up {
            index: instance,
            pool,
            reader: conn,
            writer,
            identity: RemoteIdentity {
                host: HostName::new(host),
                task_uid,
            },
            child: children[at]
                .take()
                .expect("a child for every instance not up"),
        });
    }
    Ok(ups.into_iter().flatten().collect())
}

/// The instances of `wanted` not up yet, as an error's subject:
/// `instance 1`, or `instances 0, 2`.
fn still_waiting(wanted: &[(u64, u64)], ups: &[Option<Up>]) -> String {
    let left: Vec<String> = wanted
        .iter()
        .zip(ups)
        .filter(|(_, up)| up.is_none())
        .map(|((index, _), _)| index.to_string())
        .collect();
    match left.as_slice() {
        [one] => format!("instance {one}"),
        _ => format!("instances {}", left.join(", ")),
    }
}

#[cfg(test)]
thread_local! {
    /// Makes this thread's next reader spawn for that instance fail.
    static FAIL_READER_SPAWN: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Start the `mf-conn-{index}` thread.
fn spawn_reader(index: u64, f: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    #[cfg(test)]
    if FAIL_READER_SPAWN.with(|fail| fail.get() == Some(index) && fail.take().is_some()) {
        return Err(std::io::Error::other("injected spawn failure"));
    }
    std::thread::Builder::new()
        .name(format!("mf-conn-{index}"))
        .spawn(f)
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
    /// Without a reader thread there is no slot: the child is killed.
    fn install(self: &Arc<Self>, up: Up) -> MfResult<()> {
        let inner = Arc::clone(self);
        let Up {
            index,
            pool,
            reader: conn,
            writer,
            identity,
            mut child,
        } = up;
        let mut st = self.state.lock();
        // Spawned under the lock: the reader's first look at the state
        // finds its slot.
        let reader = match spawn_reader(index, move || inner.read_loop(index, conn)) {
            Ok(reader) => reader,
            Err(e) => {
                drop(st);
                child.kill();
                return Err(app_err(format!("instance {index}: reader thread: {e}")));
            }
        };
        st.slots.push(Slot {
            index,
            pool,
            identity,
            writer: Some(Arc::new(Mutex::new(writer))),
            child: Some(child),
            wire: VecDeque::with_capacity(WIRE_DEPTH),
            head_since: Instant::now(),
            next_seq: 1,
            respawns_left: self.cfg.respawn_budget,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(2)),
            reviving: false,
            retiring: false,
            departed: false,
            reader: Some(reader),
        });
        Ok(())
    }

    /// Hand waiting jobs, oldest first, to live connections with room —
    /// one just (re)connected, or the survivors of a lost one — each frame
    /// under its connection's writer taken before the fleet's lock is let
    /// go.
    fn dispatch(&self) {
        loop {
            let mut st = self.state.lock();
            let Some(depth) = st.queue.front().map(|q| depth_for(&q.unit)) else {
                return;
            };
            if st.closing {
                return;
            }
            let Some(at) = st.pick_idle(None, depth) else {
                return;
            };
            let q = st.queue.pop_front().expect("checked above");
            place(st, at, q);
        }
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
            // A departing child acknowledges with its own Leave and exits.
            Ok(Some(Message::Leave { .. })) if self.leaving(index) => self.left(index),
            Ok(Some(other)) => self.lost(
                index,
                format!("instance {index} lost (protocol confusion: {other:?})"),
            ),
            // A child that dies with the job behind its head unread
            // resets its socket instead of closing it: the same death.
            Ok(None) => self.lost(index, format!("instance {index} lost (connection closed)")),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                self.lost(index, format!("instance {index} lost (connection closed)"))
            }
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
    /// sequence number and the job tag of the head of this wire; anything
    /// else on a long-lived connection is a frame of some other job —
    /// earlier or concurrent — and poisons the connection.
    fn answered(&self, index: u64, seq: u64, tag: u64, reply: Result<Unit, String>) -> Flow {
        let mut st = self.state.lock();
        let slot = st.slot(index);
        if !slot
            .wire
            .front()
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
        let (finished, promoted) = slot.pop_head();
        // Fill the wire back up: one job behind the promoted head, or, on
        // a wire this answer emptied, a new head and the job behind it
        // (after a job too large to have had one).
        let mut refills: [_; WIRE_DEPTH] = std::array::from_fn(|_| st.next_for(index));
        let slot = st.slot(index);
        let leave = slot.retiring && slot.wire.is_empty();
        let writer = Arc::clone(slot.writer.as_ref().expect("this reader's connection"));
        let identity = slot.identity.clone();
        let head = promoted.or_else(|| refills.iter_mut().flatten().find_map(|(_, s)| s.take()));

        // The child first: the refills are written before the finished
        // job's completion runs. The writer is taken before the fleet's
        // lock is let go, so a submit's later frame cannot overtake them.
        let written = if refills[0].is_some() {
            let mut w = writer.lock();
            drop(st);
            refills
                .iter()
                .flatten()
                .try_for_each(|(frame, _)| w.send_msg(frame))
        } else {
            drop(st);
            Ok(())
        };
        (finished.done)(reply.map_err(|reason| Lost {
            instance: Some(index),
            reason,
        }));
        // The new head starts after the previous completion, so the two
        // jobs never count as running together: one connection, one job
        // computing.
        if let Some(started) = head {
            started(index, identity);
        }
        if let Err(e) = written {
            return self.lost(index, format!("instance {index} lost on send: {e}"));
        }
        if leave {
            send_leave(&writer, index);
        }
        Flow::Read
    }

    /// The read timed out: nothing arrived for a whole read timeout.
    fn silent(&self, index: u64, link: &mut Link) -> Flow {
        let window = self.cfg.job_timeout;
        let mut st = self.state.lock();
        let closing = st.closing;
        let slot = st.slot(index);
        let waited = (!slot.wire.is_empty()).then(|| slot.head_since.elapsed());
        let leaving = closing || slot.retiring;
        drop(st);
        match waited {
            Some(waited) if waited >= window => self.lost(
                index,
                format!("instance {index} lost (silent for {window:?} with a job on its wire)"),
            ),
            // The head became the head on a connection that was already
            // quiet: it gets what is left of its own window.
            Some(waited) => {
                let _ = link.conn.set_read_timeout(Some(window - waited));
                link.shortened = true;
                Flow::Read
            }
            // No answer to `Leave` / `Shutdown` within the grace.
            None if leaving => self.left(index),
            // An idle child owes nothing but heartbeats, and a missing
            // heartbeat costs no job: wait on.
            None => Flow::Read,
        }
    }

    /// Slot `index`'s connection is gone: fail its head job, put the job
    /// behind it back at the front of the queue (it never started), reap
    /// the child, and — when that was the last instance alive or revivable
    /// — fail the jobs still waiting.
    fn lost(&self, index: u64, reason: String) -> Flow {
        let mut st = self.state.lock();
        let closing = st.closing;
        let slot = st.slot(index);
        slot.writer = None;
        let child = slot.child.take();
        let mut wire = std::mem::take(&mut slot.wire);
        let head = wire.pop_front();
        let leaving = closing || slot.retiring;
        let requeued = !wire.is_empty();
        for behind in wire.into_iter().rev() {
            st.queue.push_front(behind.requeue());
        }
        let (stranded, why) = if closing {
            // `shutdown` has failed everything that waited before.
            (st.queue.drain(..).collect(), SHUT_DOWN)
        } else {
            (st.stranded(), NO_INSTANCES)
        };
        drop(st);
        if requeued {
            self.dispatch();
            self.revive.notify_all();
        }
        // Outside the lock: reaping waits for the process.
        drop(child);
        if let Some(head) = head {
            (head.done)(Err(Lost {
                instance: Some(index),
                reason,
            }));
        }
        fail(stranded, why);
        if leaving {
            self.left(index)
        } else {
            Flow::Dead
        }
    }

    /// Slot `index` is out of the fleet for good — retired, or the fleet
    /// is closing: end the reader.
    fn left(&self, index: u64) -> Flow {
        let mut st = self.state.lock();
        let slot = st.slot(index);
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
                return self.left(index);
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
        let up = bring_up_all(self, &[(index, pool)]).map(|mut ups| ups.remove(0));

        let mut st = self.state.lock();
        let closing = st.closing;
        let slot = st.slot(index);
        slot.reviving = false;
        match up {
            // Nobody would ever tell this child to leave: let it go now.
            Ok(up) if closing || slot.retiring => {
                drop(st);
                drop(up);
                self.left(index)
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
                self.dispatch();
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
                let _ = serve(cfg, |u| {
                    Ok(Unit::tuple(vec![Unit::int(instance as i64), u]))
                });
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
                            return;
                        }
                        _ => return,
                    }
                }
            });
            Ok(ChildHandle::detached())
        }
    }

    fn quick_cfg(instances: usize) -> PoolConfig {
        let mut cfg = PoolConfig::new(PathBuf::from("unused-by-thread-spawners"));
        cfg.instances = instances;
        cfg.job_timeout = Duration::from_secs(5);
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
    fn pool_round_robins_live_instances() {
        let spawner = Arc::new(ThreadSpawner::default());
        let pool = RemoteWorkerPool::launch(quick_cfg(2), spawner.clone()).unwrap();
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

        pool.shutdown();
        assert_eq!(pool.reader_threads(), 0);
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 2);
        pool.shutdown(); // nothing left to shut down
    }

    #[test]
    fn pool_works_over_unix_sockets() {
        let spawner = Arc::new(ThreadSpawner::default());
        let pool = RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap();
        // A name in the abstract namespace: no socket file to leave behind.
        assert!(matches!(pool.addr(), Addr::Unix(_)));
        assert!(pool.addr().to_string().starts_with("unix:@mf-pool-"));
        let out = run(&pool, 0, Unit::text("via unix")).unwrap();
        assert_eq!(out, Unit::tuple(vec![Unit::int(0), Unit::text("via unix")]));
        pool.shutdown();
    }

    #[test]
    fn more_jobs_than_connections_reach_the_wire_in_submission_order() {
        let (spawner, gates) = gated(2);
        let pool = RemoteWorkerPool::launch(quick_cfg(2), spawner).unwrap();
        let jobs: Vec<InFlight> = (0..6)
            .map(|k| submit(&pool, 7, None, Unit::int(k)))
            .collect();
        assert_eq!(pool.queue_peak(), 2, "four on the wires, two waiting");
        // The first two went out at once, one per connection, as heads
        // (which child reports first is their race); 2 and 3 wait behind
        // them in the children's socket buffers.
        let mut busy = [gates.arrival(), gates.arrival()];
        busy.sort_by_key(|&(_, k)| k);
        assert_eq!(busy.map(|(_, k)| k), [0, 1]);
        let busy = busy.map(|(instance, _)| instance);
        assert_ne!(busy[0], busy[1]);
        for (k, job) in jobs.iter().enumerate().take(2) {
            assert_eq!(job.instance(), busy[k]);
        }
        for job in &jobs[2..] {
            assert!(job.started.try_recv().is_err(), "started before its head");
        }
        // A child that answers finds the job behind its head; the
        // connection that answered takes the oldest waiting job. A child
        // reads its next job as soon as it has written a `Done`, before
        // the launcher has handled that `Done`, so two readers could race
        // for the fleet lock and either order would be FIFO. The launcher
        // writes a connection's refill before it runs the answered job's
        // completion: waiting for that completion fixes which connection
        // took which waiting job.
        for (answers, answered, want) in [(1usize, 1usize, 3), (1, 3, 4), (0, 0, 2), (1, 4, 5)] {
            gates.tell(busy[answers], Reply::Done);
            let (instance, k) = gates.arrival();
            assert_eq!((instance, k), (busy[answers], want), "the queue is FIFO");
            assert_eq!(
                jobs[answered].outcome().unwrap(),
                Unit::int(answered as i64)
            );
        }
        gates.tell(busy[0], Reply::Done);
        gates.tell(busy[1], Reply::Done);
        for k in [2, 5] {
            assert_eq!(jobs[k].outcome().unwrap(), Unit::int(k as i64));
        }
        pool.shutdown();
    }

    #[test]
    fn the_next_job_is_on_the_wire_before_the_previous_completion_returns() {
        let (spawner, gates) = gated(1);
        let pool = RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap();
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
        // The second waits behind the first on the wire, the third in the
        // fleet's queue.
        let second = submit(&pool, 0, None, Unit::int(2));
        let third = submit(&pool, 0, None, Unit::int(3));
        assert_eq!(pool.queue_peak(), 1);
        assert_eq!(gates.arrival(), (0, 1));
        gates.tell(0, Reply::Done);
        assert_eq!(entered.recv_timeout(WAIT).unwrap().unwrap(), Unit::int(1));
        // The reader thread is inside that completion right now — and the
        // child has the second job and answers it, and has the third,
        // which the reader wrote before it ran the completion.
        assert_eq!(gates.arrival(), (0, 2));
        gates.tell(0, Reply::Done);
        assert_eq!(gates.arrival(), (0, 3));
        assert!(
            second.started.try_recv().is_err(),
            "started before its head's completion"
        );
        assert!(second.done.try_recv().is_err(), "its reader is still busy");
        leave_tx.send(()).unwrap();
        assert_eq!(second.instance(), 0);
        assert_eq!(second.outcome().unwrap(), Unit::int(2));
        gates.tell(0, Reply::Done);
        assert_eq!(third.instance(), 0);
        assert_eq!(third.outcome().unwrap(), Unit::int(3));
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
            let mut cfg = quick_cfg(2);
            cfg.respawn_budget = 0;
            let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();
            // Two on each wire: instance 0 holds jobs 0 and 2, instance 1
            // holds 1 and 3, the first of each its head.
            let jobs: Vec<InFlight> = (0..4)
                .map(|k| submit(&pool, 9, None, Unit::int(k)))
                .collect();
            let (victim, lost_job) = gates.arrival();
            let (survivor, _) = gates.arrival();
            assert_eq!(lost_job, victim as i64, "a head");
            let behind = lost_job + 2;
            gates.tell(victim, fault);
            let lost = jobs[lost_job as usize].outcome().unwrap_err();
            assert_eq!(lost.instance, Some(victim));
            assert!(lost.reason.contains(needle), "got: {}", lost.reason);
            assert_eq!(pool.live_count(), 1, "the connection is poisoned");
            // The job behind the head never started: it goes back to the
            // queue, and the live connection takes it with its own two.
            for _ in 0..3 {
                gates.tell(survivor, Reply::Done);
            }
            for (k, job) in jobs.iter().enumerate() {
                if k as i64 != lost_job {
                    assert_eq!(job.instance(), survivor, "job {k}");
                    assert_eq!(job.outcome().unwrap(), Unit::int(k as i64));
                }
            }
            pool.shutdown();
            // `started` and `done` ran once each for the requeued job.
            let requeued = &jobs[behind as usize];
            assert!(requeued.started.try_recv().is_err(), "started twice");
            assert!(requeued.done.try_recv().is_err(), "done twice");
        }
    }

    #[test]
    fn a_dead_instance_is_respawned_when_a_job_has_to_wait_until_the_budget_is_gone() {
        let (spawner, gates) = gated(1);
        let mut cfg = quick_cfg(1);
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
        let mut cfg = quick_cfg(1);
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
        let pool = RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap();
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
        let mut cfg = quick_cfg(2);
        cfg.shards = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner.clone()).unwrap();
        assert_eq!(pool.live_count(), 2);

        // Join: a third worker handshakes and serves immediately.
        let idx = pool.add_instance(None).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(pool.live_count(), 3);
        assert_eq!(pool.reader_threads(), 3);

        // Retire instance 0: Leave exchange, out of the rotation for good.
        pool.retire_instance(0).unwrap();
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
        pool.shutdown();
    }

    #[test]
    fn retiring_an_instance_with_a_job_on_its_wire_loses_nothing() {
        let (spawner, gates) = gated(2);
        let pool = Arc::new(RemoteWorkerPool::launch(quick_cfg(2), spawner).unwrap());
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
        retiring.join().unwrap().unwrap();
        gates.tell(survivor, Reply::Done);
        assert_eq!(other.outcome().unwrap(), Unit::int(2));
        assert_eq!(pool.live_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn retiring_an_instance_with_two_jobs_on_its_wire_loses_neither() {
        let (spawner, gates) = gated(1);
        let pool = Arc::new(RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap());
        let first = submit(&pool, 0, None, Unit::int(1));
        let second = submit(&pool, 0, None, Unit::int(2));
        assert_eq!(pool.queue_peak(), 0, "both on the wire");
        assert_eq!(gates.arrival(), (0, 1));
        let retiring = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.retire_instance(0))
        };
        while pool.member_indices().contains(&0) {
            std::thread::yield_now();
        }
        gates.tell(0, Reply::Done);
        assert_eq!(first.outcome().unwrap(), Unit::int(1));
        assert_eq!(gates.arrival(), (0, 2));
        assert!(!retiring.is_finished(), "Leave waits for the whole wire");
        gates.tell(0, Reply::Done);
        assert_eq!(second.instance(), 0);
        assert_eq!(second.outcome().unwrap(), Unit::int(2));
        retiring.join().unwrap().unwrap();
        assert_eq!(pool.live_count(), 0);
        pool.shutdown();
    }

    #[test]
    fn a_hinted_job_takes_its_pool_while_it_has_an_idle_worker_and_any_other_after() {
        let (spawner, gates) = gated(4);
        let mut cfg = quick_cfg(4);
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
        let pool = RemoteWorkerPool::launch(quick_cfg(1), Arc::new(BurstSpawner)).unwrap();
        for k in 0..3 {
            assert_eq!(run(&pool, 0, Unit::int(k)).unwrap(), Unit::int(k));
        }
        assert_eq!(pool.live_count(), 1);
    }

    #[test]
    fn silence_with_a_job_on_the_wire_is_death_and_idle_silence_is_not() {
        // Gated children never send a heartbeat.
        let (spawner, gates) = gated(1);
        let mut cfg = quick_cfg(1);
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

    /// Test double: [`ThreadSpawner`]'s children, each reporting its
    /// instance on `exits` when its serve loop ends.
    struct ExitReporting {
        exits: Mutex<Sender<u64>>,
    }

    impl Spawner for ExitReporting {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            let exits = self.exits.lock().clone();
            std::thread::spawn(move || {
                let cfg = ServeConfig::new(addr, instance, format!("host-{instance}"), instance);
                let _ = serve(cfg, Ok);
                let _ = exits.send(instance);
            });
            Ok(ChildHandle::detached())
        }
    }

    fn exit_reporting() -> (Arc<ExitReporting>, Receiver<u64>) {
        let (tx, rx) = channel();
        let spawner = ExitReporting {
            exits: Mutex::new(tx),
        };
        (Arc::new(spawner), rx)
    }

    #[test]
    fn a_launch_whose_reader_spawn_fails_is_an_error_and_leaves_no_child() {
        let (spawner, exits) = exit_reporting();
        FAIL_READER_SPAWN.with(|fail| fail.set(Some(1)));
        let err = match RemoteWorkerPool::launch(quick_cfg(2), spawner) {
            Err(err) => err,
            Ok(_) => panic!("launch succeeded without a reader for instance 1"),
        };
        assert!(
            matches!(&err, MfError::App(m) if m == "instance 1: reader thread: injected spawn failure"),
            "got {err:?}"
        );
        // Instance 0 was installed and is shut down; instance 1 lost its
        // connection with its slot.
        let mut gone = [
            exits.recv_timeout(WAIT).unwrap(),
            exits.recv_timeout(WAIT).unwrap(),
        ];
        gone.sort();
        assert_eq!(gone, [0, 1]);
    }

    /// Test double: in-thread children that say `Hello` at the protocol
    /// version before this one, then report on `exits` once the
    /// coordinator has closed their connection.
    struct OldVersion {
        exits: Mutex<Sender<u64>>,
    }

    impl Spawner for OldVersion {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            let exits = self.exits.lock().clone();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
                conn.send_msg(&Message::Hello {
                    version: PROTOCOL_VERSION - 1,
                    instance,
                    host: "old-host".into(),
                    task_uid: 1000 + instance,
                })
                .unwrap();
                // No `HelloAck` comes: the next read sees the close.
                assert!(!matches!(conn.recv_msg(), Ok(Some(_))));
                let _ = exits.send(instance);
            });
            Ok(ChildHandle::detached())
        }
    }

    #[test]
    fn a_child_at_the_previous_protocol_version_fails_the_launch() {
        let (tx, exits) = channel();
        let spawner = Arc::new(OldVersion {
            exits: Mutex::new(tx),
        });
        // Tripwire: a reader started for instance 0 would fail the launch
        // with this injected error instead, and take the setting.
        FAIL_READER_SPAWN.with(|fail| fail.set(Some(0)));
        let began = Instant::now();
        let err = match RemoteWorkerPool::launch(quick_cfg(1), spawner) {
            Err(err) => err,
            Ok(_) => panic!("launch accepted a child at the previous protocol version"),
        };
        let waited = began.elapsed();
        let want = format!(
            "instance 0: protocol version {} != {PROTOCOL_VERSION}",
            PROTOCOL_VERSION - 1
        );
        assert!(matches!(&err, MfError::App(m) if *m == want), "got {err:?}");
        assert!(waited < HANDSHAKE_TIMEOUT, "refused after {waited:?}");
        assert_eq!(
            FAIL_READER_SPAWN.with(|fail| fail.take()),
            Some(0),
            "no reader thread was started"
        );
        assert_eq!(exits.recv_timeout(WAIT).unwrap(), 0, "the child is gone");
    }

    /// Test double: [`ThreadSpawner`]-like children that cannot connect
    /// until every one of them has been spawned.
    struct Barriered {
        barrier: Arc<std::sync::Barrier>,
    }

    impl Spawner for Barriered {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            let barrier = Arc::clone(&self.barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let cfg = ServeConfig::new(addr, instance, format!("host-{instance}"), instance);
                let _ = serve(cfg, Ok);
            });
            Ok(ChildHandle::detached())
        }
    }

    #[test]
    fn the_fleet_comes_up_only_if_every_child_is_spawned_before_any_handshake() {
        let spawner = Arc::new(Barriered {
            barrier: Arc::new(std::sync::Barrier::new(3)),
        });
        let pool = RemoteWorkerPool::launch(quick_cfg(3), spawner).unwrap();
        assert_eq!(pool.member_indices(), vec![0, 1, 2]);
        for i in 0..3 {
            assert_eq!(run(&pool, 0, Unit::int(i)).unwrap(), Unit::int(i));
        }
        pool.shutdown();
    }

    /// What a [`Mixed`] child does.
    #[derive(Clone, Copy)]
    enum Role {
        /// Connect (once: a fleet that is gone is not retried), shake
        /// hands, report the `HelloAck`, and hold the connection until the
        /// fleet closes it.
        Good,
        /// Once every [`Role::Good`] child has its `HelloAck`, connect and
        /// say `Heartbeat` instead of `Hello`.
        BadHello,
        /// A real process that exits at once, status 3, without connecting.
        Exits,
    }

    /// Test double: one [`Role`] per instance. Every in-thread child
    /// reports its instance on `exits` once its connection is gone (or was
    /// never made); the pid of an [`Role::Exits`] process goes on `pids`.
    struct Mixed {
        roles: Vec<Role>,
        acked: Mutex<(Sender<()>, Option<Receiver<()>>)>,
        exits: Mutex<Sender<u64>>,
        pids: Mutex<Vec<u32>>,
    }

    fn mixed(roles: Vec<Role>) -> (Arc<Mixed>, Receiver<u64>) {
        let (acked_tx, acked_rx) = channel();
        let (exits_tx, exits) = channel();
        let spawner = Mixed {
            roles,
            acked: Mutex::new((acked_tx, Some(acked_rx))),
            exits: Mutex::new(exits_tx),
            pids: Mutex::new(Vec::new()),
        };
        (Arc::new(spawner), exits)
    }

    impl Spawner for Mixed {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            let exits = self.exits.lock().clone();
            let hold = |mut conn: Conn| while let Ok(Some(_)) = conn.recv_msg() {};
            match self.roles[instance as usize] {
                Role::Good => {
                    let acked = self.acked.lock().0.clone();
                    std::thread::spawn(move || {
                        if let Ok(mut conn) = Conn::connect(&addr, Duration::from_secs(5)) {
                            let hello = Message::Hello {
                                version: PROTOCOL_VERSION,
                                instance,
                                host: "good-host".into(),
                                task_uid: instance,
                            };
                            if conn.send_msg(&hello).is_ok()
                                && matches!(conn.recv_msg(), Ok(Some(Message::HelloAck { .. })))
                            {
                                let _ = acked.send(());
                                hold(conn);
                            }
                        }
                        let _ = exits.send(instance);
                    });
                }
                Role::BadHello => {
                    let acked = self.acked.lock().1.take().expect("one BadHello child");
                    let good = self
                        .roles
                        .iter()
                        .filter(|r| matches!(r, Role::Good))
                        .count();
                    std::thread::spawn(move || {
                        for _ in 0..good {
                            acked.recv().unwrap();
                        }
                        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
                        conn.send_msg(&Message::Heartbeat).unwrap();
                        hold(conn);
                        let _ = exits.send(instance);
                    });
                }
                Role::Exits => {
                    let child = std::process::Command::new("/bin/sh")
                        .args(["-c", "exit 3"])
                        .spawn()?;
                    self.pids.lock().push(child.id());
                    return Ok(ChildHandle::new(child));
                }
            }
            Ok(ChildHandle::detached())
        }
    }

    /// `n` instances from `exits`, sorted.
    fn gone(exits: &Receiver<u64>, n: usize) -> Vec<u64> {
        let mut gone: Vec<u64> = (0..n).map(|_| exits.recv_timeout(WAIT).unwrap()).collect();
        gone.sort();
        gone
    }

    #[test]
    fn a_bad_handshake_fails_the_bring_up_naming_its_instance_and_leaves_no_child() {
        let (spawner, exits) = mixed(vec![Role::Good, Role::BadHello, Role::Good]);
        let err = match RemoteWorkerPool::launch(quick_cfg(3), spawner) {
            Err(err) => err,
            Ok(_) => panic!("launch accepted a child that said Heartbeat for Hello"),
        };
        assert!(
            matches!(&err, MfError::App(m) if m.starts_with("instance 1: bad handshake:")),
            "got {err:?}"
        );
        assert_eq!(gone(&exits, 3), [0, 1, 2]);
    }

    #[test]
    fn a_child_that_exits_before_its_handshake_fails_the_bring_up_at_once() {
        let (spawner, exits) = mixed(vec![Role::Good, Role::Exits, Role::Good]);
        let began = Instant::now();
        let err = match RemoteWorkerPool::launch(quick_cfg(3), Arc::clone(&spawner) as _) {
            Err(err) => err,
            Ok(_) => panic!("launch succeeded without instance 1"),
        };
        let waited = began.elapsed();
        assert!(
            matches!(&err, MfError::App(m) if m == "instance 1: exited before its handshake (exit status: 3)"),
            "got {err:?}"
        );
        assert!(waited < HANDSHAKE_TIMEOUT, "refused after {waited:?}");
        assert_eq!(gone(&exits, 2), [0, 2]);
        // Reaped, not a zombie: the pid is gone from the process table.
        let pid = spawner.pids.lock()[0];
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists());
    }

    #[test]
    fn an_instance_whose_reader_spawn_fails_is_an_error_and_the_fleet_serves_on() {
        let (spawner, exits) = exit_reporting();
        let pool = RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap();
        FAIL_READER_SPAWN.with(|fail| fail.set(Some(1)));
        let err = pool.add_instance(None).unwrap_err();
        assert!(
            matches!(&err, MfError::App(m) if m.starts_with("instance 1: reader thread:")),
            "got {err:?}"
        );
        assert_eq!(exits.recv_timeout(WAIT).unwrap(), 1, "the child is gone");
        assert_eq!(pool.live_count(), 1);
        assert_eq!(pool.member_indices(), vec![0]);
        assert_eq!(run(&pool, 0, Unit::int(7)).unwrap(), Unit::int(7));
        // The next instance gets a fresh index and a reader.
        assert_eq!(pool.add_instance(None).unwrap(), 2);
        assert_eq!(pool.reader_threads(), 2);
        pool.shutdown();
    }

    /// Test double: children that answer every job at once and flag any
    /// `Job` whose `seq` is not above the one before it on their wire.
    #[derive(Default)]
    struct SeqChecking {
        out_of_order: Arc<AtomicUsize>,
    }

    impl Spawner for SeqChecking {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let spec = spec.clone();
            let out_of_order = Arc::clone(&self.out_of_order);
            std::thread::spawn(move || {
                let (_, mut conn) = hand_shake(&spec, "seq-host");
                let mut last = 0;
                while let Ok(Some(Message::Job { seq, job, payload })) = conn.recv_msg() {
                    if seq <= last {
                        out_of_order.fetch_add(1, Ordering::Relaxed);
                    }
                    last = seq;
                    let reply = Message::Done { seq, job, payload };
                    if conn.send_msg(&reply).is_err() {
                        return;
                    }
                }
            });
            Ok(ChildHandle::detached())
        }
    }

    #[test]
    fn frames_reach_each_wire_in_seq_order_while_submits_race_refills() {
        let spawner = Arc::new(SeqChecking::default());
        let pool = Arc::new(RemoteWorkerPool::launch(quick_cfg(2), spawner.clone()).unwrap());
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    // Two in flight per thread, eight over two two-deep
                    // wires: submits race each other and the readers'
                    // refills for the same connection.
                    let mut window = VecDeque::new();
                    for k in 0..2000 {
                        window.push_back(submit(&pool, t, None, Unit::int(k)));
                        if window.len() == 2 {
                            let done = window.pop_front().unwrap();
                            assert!(done.outcome().is_ok(), "a job was lost");
                        }
                    }
                    for done in window {
                        assert!(done.outcome().is_ok(), "a job was lost");
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        assert_eq!(spawner.out_of_order.load(Ordering::Relaxed), 0);
        assert_eq!(pool.live_count(), 2);
        pool.shutdown();
    }

    #[test]
    fn a_refill_takes_the_writer_before_the_reader_lets_go_of_the_fleet_lock() {
        let (spawner, gates) = gated(1);
        let pool = RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap();
        // Two on the wire, the third waiting.
        let jobs: Vec<InFlight> = (0..3)
            .map(|k| submit(&pool, 0, None, Unit::int(k)))
            .collect();
        assert_eq!(gates.arrival(), (0, 0));
        let writer = Arc::clone(pool.inner.state.lock().slots[0].writer.as_ref().unwrap());
        let held = writer.lock();
        // The answer makes the reader refill the wire with job 2. Until it
        // has the writer it must keep the fleet's lock, or a frame put on
        // this wire meanwhile could reach the socket before job 2's.
        gates.tell(0, Reply::Done);
        let deadline = Instant::now() + WAIT;
        let mut locked_since = None;
        loop {
            match pool.inner.state.try_lock() {
                Some(st) => {
                    assert_eq!(
                        st.queue.len(),
                        1,
                        "the reader let go of the fleet's lock before it took the writer"
                    );
                    locked_since = None;
                }
                None => {
                    let since = *locked_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= Duration::from_millis(50) {
                        break;
                    }
                }
            }
            assert!(
                Instant::now() < deadline,
                "the reader never took the fleet's lock"
            );
            std::thread::yield_now();
        }
        drop(held);
        assert_eq!(gates.arrival(), (0, 1));
        gates.tell(0, Reply::Done);
        assert_eq!(gates.arrival(), (0, 2));
        gates.tell(0, Reply::Done);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.outcome().unwrap(), Unit::int(k as i64));
        }
        pool.shutdown();
    }

    #[test]
    fn a_job_too_large_to_wait_behind_a_head_waits_for_an_empty_wire_and_is_not_passed() {
        let (spawner, gates) = gated(1);
        let pool = RemoteWorkerPool::launch(quick_cfg(1), spawner).unwrap();
        let big = |k: i64| Unit::tuple(vec![Unit::int(k), Unit::reals(vec![0.5; 80_000])]);
        let jobs = [
            submit(&pool, 0, None, big(0)),
            submit(&pool, 0, None, big(1)),
            submit(&pool, 0, None, Unit::int(2)),
        ];
        assert_eq!(
            pool.queue_peak(),
            2,
            "the second large job waits for an empty wire, the small one behind it"
        );
        let arrival = || gates.arrivals.recv_timeout(WAIT).expect("a job on a wire");
        assert!(arrival() == (0, big(0)));
        gates.tell(0, Reply::Done);
        // That answer empties the wire: the reader writes the large job
        // and the small one behind it.
        assert!(arrival() == (0, big(1)));
        assert!(pool.inner.state.lock().queue.is_empty(), "the wire is full");
        gates.tell(0, Reply::Done);
        assert_eq!(arrival(), (0, Unit::int(2)));
        gates.tell(0, Reply::Done);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.instance(), 0);
            let want = if k < 2 { big(k as i64) } else { Unit::int(2) };
            assert!(job.outcome().unwrap() == want, "job {k} came back changed");
        }
        pool.shutdown();
    }

    #[test]
    fn large_frames_refilled_under_load_never_wedge_the_reader() {
        /// "Children" running the real serve loop (its writes time out
        /// after 2 s), echoing each payload after a subsolve's pause.
        struct Slow;
        impl Spawner for Slow {
            fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
                let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
                let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
                std::thread::spawn(move || {
                    let cfg = ServeConfig::new(addr, instance, "slow-host".into(), instance);
                    let _ = serve(cfg, |u| {
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(u)
                    });
                });
                Ok(ChildHandle::detached())
            }
        }
        // 640 kB each way: far more than a socket buffer holds.
        let big = |k: i64| Unit::tuple(vec![Unit::int(k), Unit::reals(vec![k as f64; 80_000])]);
        let mut cfg = quick_cfg(1);
        cfg.respawn_budget = 0;
        let pool = Arc::new(RemoteWorkerPool::launch(cfg, Arc::new(Slow)).unwrap());

        // Two submitters keep the queue full, so the reader refills the
        // wire after every answer: a large frame written behind a head
        // would wait for a child stuck writing its answer to that reader.
        let submitters: Vec<_> = (0..2)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let jobs: Vec<(i64, InFlight)> = (0..4)
                        .map(|k| (10 * t + k, submit(&pool, 0, None, big(10 * t + k))))
                        .collect();
                    for (k, job) in jobs {
                        let echo = job
                            .outcome()
                            .unwrap_or_else(|lost| panic!("{}", lost.reason));
                        assert!(echo == big(k), "job {k} came back changed");
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        assert_eq!(pool.live_count(), 1);
        pool.shutdown();
    }
}
