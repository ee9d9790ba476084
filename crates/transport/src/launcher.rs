//! Coordinator-side pool of remote task instances.
//!
//! [`RemoteWorkerPool::launch`] binds a listener (TCP loopback or a Unix
//! socket), spawns one child process per task instance through a
//! [`Spawner`] using the CONFIG host list for placement, and completes the
//! `Hello`/`HelloAck` handshake with each. It then implements
//! [`ConduitSource`]: proxy processes check out conduits round-robin and
//! drive jobs through them.
//!
//! Failure handling: any I/O error, EOF, or heartbeat silence beyond the
//! job timeout marks the instance dead (its child is killed, the conduit
//! errors out). The next checkout of a dead slot respawns it, under a
//! bounded per-slot budget with exponential backoff, so a crashing child
//! cannot put the pool into a spawn loop.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use manifold::config::HostName;
use manifold::remote::{ConduitSource, RemoteConduit, RemoteIdentity};
use manifold::{MfError, MfResult, Unit};
use parking_lot::{Mutex, RwLock};

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
    /// assigned pool `index % shards` in its `HelloAck`; checkouts can
    /// prefer a pool with [`RemoteWorkerPool::checkout_for`]. 1 (the
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
    /// never connects cannot hang the pool).
    fn accept_within(&self, timeout: Duration) -> std::io::Result<Conn> {
        let deadline = Instant::now() + timeout;
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
            std::thread::sleep(Duration::from_millis(5));
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

struct SlotState {
    conn: Option<Conn>,
    identity: RemoteIdentity,
    child: Option<ChildHandle>,
    respawns_left: usize,
    backoff: Backoff,
    /// Departed cleanly (`Leave` exchanged). A departed slot is out of the
    /// rotation for good: it is never handed out and never respawned —
    /// that is what distinguishes an orderly retirement from a crash.
    departed: bool,
}

impl SlotState {
    fn mark_dead(&mut self) {
        self.conn = None;
        if let Some(child) = self.child.as_mut() {
            child.kill();
        }
        self.child = None;
    }
}

struct Slot {
    index: u64,
    /// Shard pool this slot serves (assigned in its `HelloAck`).
    pool: u64,
    state: Mutex<SlotState>,
    seq: AtomicU64,
}

struct PoolInner {
    cfg: PoolConfig,
    addr: Addr,
    // Spawn+accept+handshake is serialized through this lock so racing
    // respawns cannot cross-wire two children's connections.
    listener: Mutex<Listener>,
    spawner: Arc<dyn Spawner>,
    // Membership is elastic: joins append, so the vector is behind a
    // read-write lock. Retired slots stay in place (marked departed)
    // so indices remain stable.
    slots: RwLock<Vec<Arc<Slot>>>,
    next: AtomicUsize,
    // Monotonic instance-index source; never reused, so a joined worker
    // can never be confused with a departed one.
    next_index: AtomicU64,
}

/// A pool of remote task instances implementing [`ConduitSource`].
pub struct RemoteWorkerPool {
    inner: Arc<PoolInner>,
}

fn app_err(msg: impl std::fmt::Display) -> MfError {
    MfError::App(msg.to_string())
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
            slots: RwLock::new(
                (0..instances)
                    .map(|index| new_slot(&cfg, index, index % shards))
                    .collect(),
            ),
            next: AtomicUsize::new(0),
            next_index: AtomicU64::new(instances),
            cfg,
        });
        let slots: Vec<Arc<Slot>> = inner.slots.read().clone();
        for slot in &slots {
            let mut st = slot.state.lock();
            bring_up(&inner, slot.index, slot.pool, &mut st)?;
        }
        Ok(RemoteWorkerPool { inner })
    }

    /// The address children connect back to (`tcp:…` / `unix:…`).
    pub fn addr(&self) -> Addr {
        self.inner.addr.clone()
    }

    /// Number of slots with a live connection right now.
    pub fn live_count(&self) -> usize {
        self.inner
            .slots
            .read()
            .iter()
            .filter(|s| s.state.lock().conn.is_some())
            .count()
    }

    /// Trace identities of all slots (index, identity).
    pub fn identities(&self) -> Vec<(u64, RemoteIdentity)> {
        self.inner
            .slots
            .read()
            .iter()
            .map(|s| (s.index, s.state.lock().identity.clone()))
            .collect()
    }

    /// Instance indices still in the membership (not departed), ascending.
    pub fn member_indices(&self) -> Vec<u64> {
        self.inner
            .slots
            .read()
            .iter()
            .filter(|s| !s.state.lock().departed)
            .map(|s| s.index)
            .collect()
    }

    /// Dynamic membership: admit one more worker into the fleet mid-run.
    /// The new slot gets a fresh (never reused) instance index, a pool
    /// assignment, and the full spawn + `Hello`/`HelloAck` handshake
    /// before this returns; on success it is immediately in the checkout
    /// rotation. `pool` of `None` balances by `index % shards`.
    pub fn add_instance(&self, pool: Option<u64>) -> MfResult<u64> {
        let index = self.inner.next_index.fetch_add(1, Ordering::Relaxed);
        let shards = self.inner.cfg.shards.max(1) as u64;
        let pool = pool.unwrap_or(index % shards).min(shards - 1);
        let slot = new_slot(&self.inner.cfg, index, pool);
        {
            let mut st = slot.state.lock();
            bring_up(&self.inner, index, pool, &mut st)?;
        }
        self.inner.slots.write().push(slot);
        Ok(index)
    }

    /// Dynamic membership: retire the worker in slot `index` with the
    /// bidirectional `Leave` exchange. Holding the slot's state lock for
    /// the whole exchange means no job can be in flight on the connection,
    /// so retirement is deterministic and loses nothing: the worker either
    /// finished its previous job (reply already collected) or never saw
    /// one. Returns the child's final trace block, if it sent one. The
    /// departed slot never respawns and is skipped by checkouts.
    pub fn retire_instance(&self, index: u64) -> MfResult<Option<String>> {
        let slot = self
            .inner
            .slots
            .read()
            .iter()
            .find(|s| s.index == index)
            .cloned()
            .ok_or_else(|| app_err(format!("no slot with instance index {index}")))?;
        let mut st = slot.state.lock();
        if st.departed {
            return Err(app_err(format!("instance {index} already departed")));
        }
        let mut trace = None;
        if let Some(mut conn) = st.conn.take() {
            let leave = Message::Leave {
                instance: index,
                reason: "retired".into(),
            };
            if conn.send_msg(&leave).is_ok() {
                let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                // The child acknowledges with its own Leave, then ships its
                // trace and exits; tolerate heartbeats racing in between.
                loop {
                    match conn.recv_msg() {
                        Ok(Some(Message::Heartbeat)) => continue,
                        Ok(Some(Message::Leave { .. })) => continue,
                        Ok(Some(Message::Trace { text })) => {
                            trace = Some(text);
                            break;
                        }
                        Ok(Some(_)) | Ok(None) | Err(_) => break,
                    }
                }
            }
        }
        if let Some(child) = st.child.as_mut() {
            // A clean child has already exited; kill() just reaps it.
            child.kill();
        }
        st.child = None;
        st.departed = true;
        Ok(trace)
    }

    /// Orderly shutdown: ask every live child to finish, collect the
    /// trace block each sends back, and reap the processes. Returns
    /// `(slot, identity, trace)` per instance.
    pub fn shutdown(&self) -> Vec<(u64, RemoteIdentity, Option<String>)> {
        let mut out = Vec::new();
        let slots: Vec<Arc<Slot>> = self.inner.slots.read().clone();
        for slot in &slots {
            let mut st = slot.state.lock();
            let identity = st.identity.clone();
            let mut trace = None;
            if let Some(mut conn) = st.conn.take() {
                if conn.send_msg(&Message::Shutdown).is_ok() {
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                    loop {
                        match conn.recv_msg() {
                            Ok(Some(Message::Heartbeat)) => continue,
                            Ok(Some(Message::Trace { text })) => {
                                trace = Some(text);
                                break;
                            }
                            Ok(Some(_)) | Ok(None) | Err(_) => break,
                        }
                    }
                }
            }
            if let Some(child) = st.child.as_mut() {
                // A clean child has already exited; kill() just reaps it.
                child.kill();
            }
            st.child = None;
            out.push((slot.index, identity, trace));
        }
        out
    }
}

/// Build a cold slot with the standard respawn budget and backoff.
fn new_slot(cfg: &PoolConfig, index: u64, pool: u64) -> Arc<Slot> {
    Arc::new(Slot {
        index,
        pool,
        state: Mutex::new(SlotState {
            conn: None,
            identity: RemoteIdentity {
                host: cfg.host_for(index as usize),
                task_uid: 0,
            },
            child: None,
            respawns_left: cfg.respawn_budget,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(2)),
            departed: false,
        }),
        seq: AtomicU64::new(1),
    })
}

/// Spawn a child for `slot`, accept its connection and handshake.
/// The caller holds the slot's state lock; the listener lock is taken
/// here, serializing concurrent bring-ups.
fn bring_up(inner: &PoolInner, slot_index: u64, pool: u64, st: &mut SlotState) -> MfResult<()> {
    let cfg = &inner.cfg;
    let host = cfg.host_for(slot_index as usize);
    let mut env = cfg.base_env.clone();
    env.push(("MF_WORKER_ADDR".into(), inner.addr.to_string()));
    env.push(("MF_WORKER_INSTANCE".into(), slot_index.to_string()));
    if let Some(extra) = cfg.per_instance_env.get(slot_index as usize) {
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
        .map_err(|e| app_err(format!("spawn instance {slot_index}: {e}")))?;

    let deadline = Instant::now() + cfg.handshake_timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(app_err(format!(
                "instance {slot_index}: handshake timed out"
            )));
        }
        let mut conn = listener
            .accept_within(remaining)
            .map_err(|e| app_err(format!("instance {slot_index}: {e}")))?;
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
                        "instance {slot_index}: protocol version {version} != {PROTOCOL_VERSION}"
                    )));
                }
                if instance != slot_index {
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
                st.conn = Some(conn);
                st.identity = RemoteIdentity {
                    host: HostName::new(host),
                    task_uid,
                };
                st.child = Some(child);
                return Ok(());
            }
            other => {
                return Err(app_err(format!(
                    "instance {slot_index}: bad handshake: {other:?}"
                )))
            }
        }
    }
}

impl RemoteWorkerPool {
    /// Check out a conduit for engine job `job`, preferring workers
    /// assigned to `pool`. Every `Job` frame the conduit sends carries
    /// `job` and every reply must echo it: the pool (children,
    /// connections, respawn budgets) outlives jobs and serves several at
    /// once, and the tag is what keeps a frame belonging to another job —
    /// an earlier one or a concurrent one — from being taken for this
    /// one's. One-shot callers pass 0.
    ///
    /// `pool` is the sharded fleet's locality hint: a shard master asks
    /// for its own pool first and falls back to any live worker —
    /// worker-level work stealing — when its pool is dead or departed.
    /// `None` is the flat round-robin. Either way a worker that is not
    /// executing right now is taken before one that is, so jobs sharing
    /// the fleet spread over it instead of queueing behind each other on
    /// the round-robin cursor.
    pub fn checkout_for(&self, job: u64, pool: Option<u64>) -> MfResult<Arc<dyn RemoteConduit>> {
        let slots: Vec<Arc<Slot>> = self.inner.slots.read().clone();
        let n = slots.len();
        if n == 0 {
            return Err(app_err("pool has no slots"));
        }
        let start = self.inner.next.fetch_add(1, Ordering::Relaxed) % n;
        // Walk from the round-robin cursor; first pass prefers the hinted
        // pool, the second takes any live worker.
        let passes: &[Option<u64>] = match pool {
            Some(p) => &[Some(p), None],
            None => &[None],
        };
        for &want in passes {
            // Two sweeps: first the workers not executing right now (a job
            // in flight holds its slot's state lock for the whole round
            // trip), then whichever comes free.
            for wait in [false, true] {
                for slot in (0..n).map(|i| &slots[(start + i) % n]) {
                    if want.is_some_and(|p| slot.pool != p) {
                        continue;
                    }
                    let mut st = if wait {
                        slot.state.lock()
                    } else {
                        match slot.state.try_lock() {
                            Some(st) => st,
                            None => continue,
                        }
                    };
                    if st.departed {
                        continue;
                    }
                    if st.conn.is_none() && st.respawns_left > 0 {
                        st.respawns_left -= 1;
                        let delay = st.backoff.step();
                        std::thread::sleep(delay);
                        if bring_up(&self.inner, slot.index, slot.pool, &mut st).is_err() {
                            // Keep scanning for another live slot.
                            st.mark_dead();
                        }
                    }
                    if st.conn.is_some() {
                        return Ok(Arc::new(SlotConduit {
                            slot: Arc::clone(slot),
                            job,
                        }));
                    }
                }
            }
        }
        Err(app_err(
            "no live remote instances (respawn budget exhausted)",
        ))
    }
}

impl ConduitSource for RemoteWorkerPool {
    fn checkout(&self) -> MfResult<Arc<dyn RemoteConduit>> {
        self.checkout_for(0, None)
    }
}

struct SlotConduit {
    slot: Arc<Slot>,
    /// Engine-job tag this conduit stamps and expects back.
    job: u64,
}

impl RemoteConduit for SlotConduit {
    fn execute(&self, job: Unit) -> MfResult<Unit> {
        let seq = self.slot.seq.fetch_add(1, Ordering::Relaxed);
        let engine_job = self.job;
        let mut st = self.slot.state.lock();
        let index = self.slot.index;
        let conn = st
            .conn
            .as_mut()
            .ok_or_else(|| app_err(format!("instance {index} is dead")))?;
        if let Err(e) = conn.send_msg(&Message::Job {
            seq,
            job: engine_job,
            payload: job,
        }) {
            st.mark_dead();
            return Err(app_err(format!("instance {index} lost on send: {e}")));
        }
        loop {
            match conn.recv_msg() {
                // Heartbeats reset the liveness window: each `recv_msg`
                // gets the full job timeout of silence.
                Ok(Some(Message::Heartbeat)) => continue,
                // A reply counts only when it echoes both the sequence
                // number and the engine-job tag; anything else on a
                // long-lived connection is a frame of some other job —
                // earlier or concurrent — and poisons the slot below.
                Ok(Some(Message::Done {
                    seq: s,
                    job: j,
                    payload,
                })) if s == seq && j == engine_job => return Ok(payload),
                Ok(Some(Message::Fail {
                    seq: s,
                    job: j,
                    error,
                })) if s == seq && j == engine_job => {
                    // The far side survived; only the job failed.
                    return Err(MfError::App(error));
                }
                Ok(Some(other)) => {
                    st.mark_dead();
                    return Err(app_err(format!(
                        "instance {index} lost (protocol confusion: {other:?})"
                    )));
                }
                Ok(None) => {
                    st.mark_dead();
                    return Err(app_err(format!(
                        "instance {index} lost (connection closed)"
                    )));
                }
                Err(e) => {
                    st.mark_dead();
                    return Err(app_err(format!("instance {index} lost: {e}")));
                }
            }
        }
    }

    fn identity(&self) -> RemoteIdentity {
        self.slot.state.lock().identity.clone()
    }

    fn instance_id(&self) -> u64 {
        self.slot.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};

    /// Test double: "children" are threads speaking the real protocol
    /// over real sockets. `die_after` makes each child drop its
    /// connection upon receiving its nth job, mid-flight.
    struct ThreadSpawner {
        die_on_job: Option<u64>,
        spawned: AtomicUsize,
    }

    impl ThreadSpawner {
        fn new(die_on_job: Option<u64>) -> Self {
            Self {
                die_on_job,
                spawned: AtomicUsize::new(0),
            }
        }
    }

    fn env_of(spec: &SpawnSpec, key: &str) -> String {
        spec.env
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    impl Spawner for ThreadSpawner {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            let die_on_job = self.die_on_job;
            std::thread::spawn(move || match die_on_job {
                None => {
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
                }
                Some(nth) => {
                    // Handshake by hand, then die mid-job n.
                    let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
                    conn.send_msg(&Message::Hello {
                        version: PROTOCOL_VERSION,
                        instance,
                        host: "dying-host".into(),
                        task_uid: 1000 + instance,
                    })
                    .unwrap();
                    let _ = conn.recv_msg().unwrap();
                    let mut jobs = 0u64;
                    loop {
                        match conn.recv_msg() {
                            Ok(Some(Message::Job { seq, job, payload })) => {
                                jobs += 1;
                                if jobs >= nth {
                                    return; // crash: connection drops mid-job
                                }
                                conn.send_msg(&Message::Done { seq, job, payload }).unwrap();
                            }
                            _ => return,
                        }
                    }
                }
            });
            Ok(ChildHandle::detached())
        }
    }

    fn quick_cfg(instances: usize, bind: BindMode) -> PoolConfig {
        let mut cfg = PoolConfig::new(PathBuf::from("unused-by-thread-spawner"));
        cfg.instances = instances;
        cfg.bind = bind;
        cfg.handshake_timeout = Duration::from_secs(10);
        cfg.job_timeout = Duration::from_secs(5);
        cfg.hosts = vec![HostName::new("cfg-host-a"), HostName::new("cfg-host-b")];
        cfg
    }

    #[test]
    fn pool_round_robins_live_instances_and_collects_traces() {
        let spawner = Arc::new(ThreadSpawner::new(None));
        let pool = RemoteWorkerPool::launch(quick_cfg(2, BindMode::Tcp), spawner.clone()).unwrap();
        assert_eq!(pool.live_count(), 2);

        let a = pool.checkout().unwrap();
        let b = pool.checkout().unwrap();
        assert_ne!(a.instance_id(), b.instance_id());
        // Identity comes from the child's Hello, not the CONFIG label.
        assert!(a.identity().host.as_str().starts_with("thread-host-"));
        assert_eq!(a.identity().task_uid, 1000 + a.instance_id());

        let out = a.execute(Unit::real(2.5)).unwrap();
        assert_eq!(
            out,
            Unit::tuple(vec![Unit::int(a.instance_id() as i64), Unit::real(2.5)])
        );

        let traces = pool.shutdown();
        assert_eq!(traces.len(), 2);
        for (slot, _id, trace) in traces {
            assert_eq!(trace.as_deref(), Some(format!("trace-of-{slot}").as_str()));
        }
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_works_over_unix_sockets() {
        let spawner = Arc::new(ThreadSpawner::new(None));
        let pool = RemoteWorkerPool::launch(quick_cfg(1, BindMode::Unix), spawner).unwrap();
        assert!(matches!(pool.addr(), Addr::Unix(_)));
        let c = pool.checkout().unwrap();
        let out = c.execute(Unit::text("via unix")).unwrap();
        assert_eq!(out, Unit::tuple(vec![Unit::int(0), Unit::text("via unix")]));
        pool.shutdown();
    }

    #[test]
    fn dead_instance_is_respawned_on_next_checkout() {
        // Every child dies when it receives its first job.
        let spawner = Arc::new(ThreadSpawner::new(Some(1)));
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.respawn_budget = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner.clone()).unwrap();

        let c = pool.checkout().unwrap();
        let err = c.execute(Unit::int(1)).unwrap_err();
        assert!(err.to_string().contains("lost"), "got: {err}");
        assert_eq!(pool.live_count(), 0);

        // Next checkout burns one respawn and hands out a live conduit.
        let c2 = pool.checkout().unwrap();
        assert_eq!(pool.live_count(), 1);
        assert!(c2.execute(Unit::int(2)).is_err()); // dies again
        let _c3 = pool.checkout().unwrap(); // second (last) respawn
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 3);
        pool.shutdown();
    }

    /// "Children" that answer every job with the *next* engine-job's tag,
    /// the way a frame delivered to the wrong job would look.
    struct StaleTagSpawner;

    impl Spawner for StaleTagSpawner {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
                conn.send_msg(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    instance,
                    host: "stale-host".into(),
                    task_uid: 1,
                })
                .unwrap();
                let _ = conn.recv_msg().unwrap();
                while let Ok(Some(Message::Job { seq, job, payload })) = conn.recv_msg() {
                    conn.send_msg(&Message::Done {
                        seq,
                        job: job.wrapping_add(1),
                        payload,
                    })
                    .unwrap();
                }
            });
            Ok(ChildHandle::detached())
        }
    }

    #[test]
    fn job_tag_is_stamped_and_stale_replies_poison_the_slot() {
        let spawner = Arc::new(ThreadSpawner::new(None));
        let pool = RemoteWorkerPool::launch(quick_cfg(1, BindMode::Tcp), spawner).unwrap();
        // The serve loop echoes whatever tag the Job carried, so a healthy
        // child round-trips under any tag — and under two tags at once:
        // conduits of different jobs share the one connection.
        let a = pool.checkout_for(5, None).unwrap();
        let b = pool.checkout_for(6, None).unwrap();
        for c in [&a, &b, &a] {
            let out = c.execute(Unit::real(3.0)).unwrap();
            assert_eq!(out, Unit::tuple(vec![Unit::int(0), Unit::real(3.0)]));
        }
        pool.shutdown();

        // A child that echoes the wrong tag — here the tag of the job
        // holding the other conduit, live at the same moment — is
        // indistinguishable from a frame gone astray: the conduit must not
        // hand its payload to either job.
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.respawn_budget = 0;
        let pool = RemoteWorkerPool::launch(cfg, Arc::new(StaleTagSpawner)).unwrap();
        let c9 = pool.checkout_for(9, None).unwrap();
        let c10 = pool.checkout_for(10, None).unwrap();
        let err = c9.execute(Unit::int(1)).unwrap_err();
        assert!(err.to_string().contains("protocol confusion"), "got: {err}");
        assert_eq!(pool.live_count(), 0, "a foreign tag must poison the slot");
        assert!(
            c10.execute(Unit::int(1)).is_err(),
            "the slot is dead for both"
        );
    }

    /// "Children" that answer every job with a heartbeat and the reply in
    /// one write — and flip a payload bit of the second job's reply.
    struct BurstSpawner;

    impl Spawner for BurstSpawner {
        fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
            let addr = Addr::parse(&env_of(spec, "MF_WORKER_ADDR")).unwrap();
            let instance: u64 = env_of(spec, "MF_WORKER_INSTANCE").parse().unwrap();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
                conn.send_msg(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    instance,
                    host: "burst-host".into(),
                    task_uid: 1,
                })
                .unwrap();
                let _ = conn.recv_msg().unwrap();
                let mut jobs = 0;
                while let Ok(Some(Message::Job { seq, job, payload })) = conn.recv_msg() {
                    jobs += 1;
                    let mut burst = crate::frame_vec(&Message::Heartbeat.encode().unwrap());
                    let reply = Message::Done { seq, job, payload };
                    burst.extend(crate::frame_vec(&reply.encode().unwrap()));
                    if jobs == 2 {
                        let last = burst.len() - 1;
                        burst[last] ^= 0x01;
                    }
                    std::io::Write::write_all(&mut conn, &burst).unwrap();
                }
            });
            Ok(ChildHandle::detached())
        }
    }

    #[test]
    fn heartbeat_and_reply_in_one_read_then_a_corrupt_frame_poisons_the_slot() {
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.respawn_budget = 0;
        let pool = RemoteWorkerPool::launch(cfg, Arc::new(BurstSpawner)).unwrap();
        let c = pool.checkout().unwrap();
        assert_eq!(c.execute(Unit::int(1)).unwrap(), Unit::int(1));
        let err = c.execute(Unit::int(2)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        assert_eq!(pool.live_count(), 0, "a bad CRC must poison the slot");
    }

    #[test]
    fn membership_join_and_retire_mid_run() {
        let spawner = Arc::new(ThreadSpawner::new(None));
        let mut cfg = quick_cfg(2, BindMode::Tcp);
        cfg.shards = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner.clone()).unwrap();
        assert_eq!(pool.live_count(), 2);

        // Join: a third worker handshakes and serves immediately.
        let idx = pool.add_instance(None).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(pool.live_count(), 3);

        // Retire instance 0: Leave exchange, trace shipped, out of the
        // rotation for good.
        let trace = pool.retire_instance(0).unwrap();
        assert_eq!(trace.as_deref(), Some("trace-of-0"));
        assert_eq!(pool.live_count(), 2);

        // Checkouts keep working and never hand out the departed slot —
        // and a departed slot is never respawned (zero lost jobs, zero
        // zombie spawns).
        for k in 0..6 {
            let c = pool.checkout().unwrap();
            assert_ne!(c.instance_id(), 0, "departed slot handed out");
            let out = c.execute(Unit::int(k)).unwrap();
            assert_eq!(
                out,
                Unit::tuple(vec![Unit::int(c.instance_id() as i64), Unit::int(k)])
            );
        }
        assert!(pool.retire_instance(0).is_err(), "double retirement");
        assert_eq!(spawner.spawned.load(Ordering::Relaxed), 3);
        pool.shutdown();
    }

    #[test]
    fn checkout_prefers_the_hinted_shard_and_steals_on_famine() {
        let spawner = Arc::new(ThreadSpawner::new(None));
        let mut cfg = quick_cfg(4, BindMode::Tcp);
        cfg.shards = 2;
        let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();
        // Pool assignment is index % shards: slots 1 and 3 serve pool 1.
        for _ in 0..4 {
            let c = pool.checkout_for(0, Some(1)).unwrap();
            assert_eq!(c.instance_id() % 2, 1, "hint not honoured");
        }
        // Retire pool 1 entirely: the hint falls back to any live worker
        // (worker-level stealing) instead of failing.
        pool.retire_instance(1).unwrap();
        pool.retire_instance(3).unwrap();
        let c = pool.checkout_for(0, Some(1)).unwrap();
        assert_eq!(c.instance_id() % 2, 0);
        assert!(c.execute(Unit::int(7)).is_ok());
        pool.shutdown();
    }

    #[test]
    fn respawn_budget_exhaustion_surfaces_as_error() {
        let spawner = Arc::new(ThreadSpawner::new(Some(1)));
        let mut cfg = quick_cfg(1, BindMode::Tcp);
        cfg.respawn_budget = 1;
        let pool = RemoteWorkerPool::launch(cfg, spawner).unwrap();

        let c = pool.checkout().unwrap();
        assert!(c.execute(Unit::int(1)).is_err());
        let c2 = pool.checkout().unwrap(); // uses the only respawn
        assert!(c2.execute(Unit::int(2)).is_err());
        match pool.checkout() {
            Err(err) => assert!(err.to_string().contains("respawn budget"), "got: {err}"),
            Ok(_) => panic!("checkout should fail once the budget is gone"),
        }
    }
}
