//! The *process* backend: `subsolve` workers as separate OS processes.
//!
//! [`Engine::threads`](crate::Engine::threads) executes every process
//! instance as a thread. This module provides the deployment the paper
//! actually ran on its workstation cluster: each worker task instance is a
//! separate operating-system process (the committed `subsolve_worker`
//! binary), connected to the coordinator's process over a Unix-domain
//! socket (the children are all spawned on its host; up to two jobs wait
//! on each connection, see [`transport::launcher`]); each child reports its
//! own host in its handshake, and the §6 trace prints that host. The
//! master, the protocol, and the dispatch policies are *unchanged* —
//! proxies from [`protocol::remote_worker_factory`] stand in for local
//! workers, and the backend is chosen purely by configuration
//! ([`ProcsConfig`] vs [`RunMode`](crate::RunMode), handed to
//! [`Engine::procs`](crate::Engine::procs) or
//! [`Engine::threads`](crate::Engine::threads); the run's options are the
//! same [`EngineOpts`](crate::EngineOpts) either way).
//!
//! Both halves live here so they cannot drift apart:
//!
//! * the coordinator side — [`ProcsConfig`], the pool's shape, and each
//!   job's view of the shared worker pool. The proxy standing in for a
//!   remote worker is that worker's one identity: it prints the worker's
//!   `Welcome` and `Bye` under the host and task uid the child named in
//!   its `Hello`;
//! * [`run_worker_child`] — the child side, called by the
//!   `subsolve_worker` binary: a plain job server that runs each job
//!   through the same decode → `subsolve` → encode step as the threads
//!   backend's Worker, and holds nothing from one job to the next.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use manifold::ident::TaskInstanceId;
use manifold::prelude::*;
use manifold::remote::{Completion, JobFleet, Lost, Started};
use manifold::trace::TraceRecord;
use transport::{serve, Addr, RemoteWorkerPool, ServeConfig, ServeSummary};

use crate::worker::{subsolve_unit, WorkerGauge};

/// How often a worker child reports that it is alive.
const WORKER_HEARTBEAT: Duration = Duration::from_millis(100);

/// The shape of a worker-process pool. How a run on it behaves — faults,
/// checkpoints, retries, shards, churn — is [`EngineOpts`](crate::EngineOpts).
#[derive(Debug, Clone)]
pub struct ProcsConfig {
    /// Worker processes to launch.
    pub instances: usize,
    /// Path of the `subsolve_worker` binary. `None` resolves via the
    /// `MF_SUBSOLVE_WORKER` environment variable, then by looking next to
    /// the current executable.
    pub worker_exe: Option<PathBuf>,
    /// Max silence during a remote job before the instance is declared
    /// dead (heartbeats, every 100 ms, reset the window).
    pub job_timeout: Duration,
}

impl ProcsConfig {
    /// Localhost defaults for `instances` worker processes.
    pub fn new(instances: usize) -> Self {
        ProcsConfig {
            instances,
            worker_exe: None,
            job_timeout: Duration::from_secs(60),
        }
    }
}

/// Locate the worker binary: explicit override, `MF_SUBSOLVE_WORKER`, or
/// a `subsolve_worker` next to the current executable (cargo places test
/// and bench binaries in the same target directory).
pub(crate) fn resolve_worker_exe(cfg: &ProcsConfig) -> MfResult<PathBuf> {
    if let Some(p) = &cfg.worker_exe {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("MF_SUBSOLVE_WORKER") {
        return Ok(PathBuf::from(p));
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut dirs: Vec<PathBuf> = Vec::new();
        if let Some(d) = exe.parent() {
            dirs.push(d.to_path_buf());
            if let Some(dd) = d.parent() {
                dirs.push(dd.to_path_buf());
            }
        }
        for d in dirs {
            let cand = d.join("subsolve_worker");
            if cand.is_file() {
                return Ok(cand);
            }
        }
    }
    Err(MfError::App(
        "cannot locate the subsolve_worker binary: set ProcsConfig.worker_exe \
         or the MF_SUBSOLVE_WORKER environment variable"
            .into(),
    ))
}

/// One job's view of the fleet's worker pool. Every subsolve submitted
/// here carries the job's id as its wire tag, and every one is counted by
/// the same [`WorkerGauge`] the threads backend uses, from the moment it
/// is the head of a worker's wire until its answer is back — a subsolve
/// waiting in the fleet's queue, or behind another on a wire, is not
/// running — so `peak_concurrent_workers` means the same thing for both
/// backends.
///
/// It is also the master's one seam to the fleet's membership, which the
/// launcher's slots own: a sharded master leaves a one-shot pool-affinity
/// hint here before each dispatch (its own — another job's master has
/// another `JobSource`), which the proxy created for that dispatch takes
/// with it, and churn joins and retires worker processes through it.
pub(crate) struct JobSource {
    pool: Arc<RemoteWorkerPool>,
    gauge: Arc<WorkerGauge>,
    job: u64,
    /// One-shot affinity hint for the next dispatch (`u64::MAX` = none).
    hint: AtomicU64,
}

impl JobSource {
    pub(crate) fn new(pool: Arc<RemoteWorkerPool>, gauge: Arc<WorkerGauge>, job: u64) -> Self {
        JobSource {
            pool,
            gauge,
            job,
            hint: AtomicU64::new(u64::MAX),
        }
    }
}

impl JobFleet for JobSource {
    fn take_hint(&self) -> Option<u64> {
        let hint = self.hint.swap(u64::MAX, Ordering::Relaxed);
        (hint != u64::MAX).then_some(hint)
    }

    fn submit(&self, hint: Option<u64>, job: Unit, started: Started, done: Completion) {
        let gauge = Arc::clone(&self.gauge);
        let started: Started = Box::new(move |instance, identity| {
            gauge.enter();
            started(instance, identity);
        });
        let gauge = Arc::clone(&self.gauge);
        let done: Completion = Box::new(move |result| {
            // A job lost without an instance never reached a wire, so it
            // never entered; any other leaves before its answer is seen.
            if !matches!(&result, Err(Lost { instance: None, .. })) {
                gauge.exit();
            }
            done(result);
        });
        self.pool.submit(self.job, hint, job, started, done);
    }
}

impl JobSource {
    /// Admit one worker process, optionally into a specific pool (shard).
    /// Returns the new instance index.
    pub(crate) fn join(&self, pool: Option<u64>) -> MfResult<u64> {
        self.pool.add_instance(pool)
    }

    /// Retire the newest member (the reverse of join, so churn plans
    /// compose predictably) — but never the last worker, which would
    /// starve the run. Returns the retired instance index, or `None` when
    /// nothing is retirable.
    pub(crate) fn leave(&self) -> MfResult<Option<u64>> {
        let members = self.pool.member_indices();
        if members.len() <= 1 {
            return Ok(None);
        }
        let victim = *members.last().expect("non-empty membership");
        self.pool.retire_instance(victim)?;
        Ok(Some(victim))
    }

    /// Affinity hint: the next worker requested should run on this pool
    /// (shard) if it can. Advisory and one-shot — it goes with the worker
    /// created for the very next `request_worker`.
    pub(crate) fn hint_pool(&self, pool: u64) {
        self.hint.store(pool, Ordering::Relaxed);
    }
}

/// The trace task-instance uid of worker process `instance` (slot 0 of
/// the pool is task instance 1; task instance 0 is the master's).
pub fn child_task_uid(instance: u64) -> u64 {
    TraceRecord::task_uid_for(TaskInstanceId(instance + 1))
}

/// The child side: everything `subsolve_worker` does after parsing its
/// environment. Connects to `addr`, says `Hello` with this machine's real
/// hostname and this instance's task uid, and answers each job with the
/// threads Worker's own decode → [`solver::subsolve()`] → encode step. A
/// payload that does not decode, a `subsolve` error or a panic in the
/// computation answers `Fail`, and the child serves on.
pub fn run_worker_child(
    addr: Addr,
    instance: u64,
    faults: chaos::WorkerFaults,
) -> std::io::Result<ServeSummary> {
    let mut cfg = ServeConfig::new(
        addr,
        instance,
        transport::real_hostname(),
        child_task_uid(instance),
    );
    cfg.heartbeat = WORKER_HEARTBEAT;
    // Wire-level faults run inside the serve loop (it owns the socket);
    // the crash stays here in the job handler, because an abrupt
    // process exit is an *application*-level death, not a transport one.
    cfg.faults = transport::ServeFaults {
        corrupt_reply_on_job: faults.corrupt_on_job,
        drop_conn_on_job: faults.drop_on_job,
        stall_on_job: faults
            .stall_on_job
            .map(|(job, ms)| (job, Duration::from_millis(ms))),
        heartbeat_delay: faults.heartbeat_delay_ms.map(Duration::from_millis),
    };
    let crash_on_job = faults.crash_on_job;
    let mut jobs_seen = 0u64;
    serve(cfg, |job| {
        jobs_seen += 1;
        if crash_on_job == Some(jobs_seen) {
            // Fault injection: die the way a crashed workstation
            // does — no reply, no cleanup, connection just drops.
            std::process::exit(42);
        }
        child_reply(&job)
    })
}

/// The answer a worker child gives one job: the encoded result, or the
/// text of its `Fail` — the error as a Worker process would record it,
/// under the application-error prefix.
fn child_reply(job: &Unit) -> Result<Unit, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| subsolve_unit(job)))
        .unwrap_or_else(|_| Err(MfError::App("process body panicked".into())))
        .map_err(|e| MfError::App(e.to_string()).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppConfig, Engine, EngineOpts};
    use protocol::PaperFaithful;
    use solver::sequential::SequentialApp;

    #[test]
    fn child_task_uids_are_distinct_from_the_masters() {
        let master_uid = TraceRecord::task_uid_for(TaskInstanceId(0));
        assert_ne!(child_task_uid(0), master_uid);
        assert_ne!(child_task_uid(0), child_task_uid(1));
    }

    #[test]
    fn missing_worker_binary_is_a_clear_error() {
        let mut cfg = ProcsConfig::new(1);
        cfg.worker_exe = Some(PathBuf::from("/nonexistent/subsolve_worker"));
        let app = SequentialApp::new(1, 1, 1e-3);
        let err = Engine::procs(cfg, Arc::new(PaperFaithful), EngineOpts::default())
            .and_then(|engine| engine.run_one(AppConfig::new(app)))
            .unwrap_err();
        // The pool fails to spawn and reports which instance.
        assert!(err.to_string().contains("instance 0"), "got: {err}");
    }

    /// A real child on a loopback socket: a payload that does not decode
    /// gets `Fail` with the Worker's error text, and the child serves on —
    /// the next, valid job gets `Done` with the bits `subsolve` computes.
    #[test]
    fn a_child_fails_a_garbage_job_and_serves_the_next() {
        use crate::codec::{request_to_unit, result_from_unit};
        use solver::problem::Problem;
        use solver::subsolve::SubsolveRequest;
        use transport::{Conn, Message};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let child =
            std::thread::spawn(move || run_worker_child(addr, 0, chaos::WorkerFaults::default()));
        let (sock, _) = listener.accept().unwrap();
        let mut conn = Conn::Tcp(sock);
        match conn.recv_msg().unwrap().unwrap() {
            Message::Hello {
                instance, task_uid, ..
            } => {
                assert_eq!(task_uid, child_task_uid(0));
                conn.send_msg(&Message::HelloAck { instance, pool: 0 })
                    .unwrap()
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        let reply = |conn: &mut Conn| loop {
            match conn.recv_msg().unwrap().unwrap() {
                Message::Heartbeat => continue,
                m => return m,
            }
        };

        conn.send_msg(&Message::Job {
            seq: 1,
            job: 3,
            payload: Unit::text("not a job"),
        })
        .unwrap();
        assert_eq!(
            reply(&mut conn),
            Message::Fail {
                seq: 1,
                job: 3,
                error: "application error: unit type mismatch: expected Tuple".into(),
            }
        );

        let req = SubsolveRequest::for_grid(2, 1, 1, 1e-3, Problem::manufactured_benchmark());
        conn.send_msg(&Message::Job {
            seq: 2,
            job: 3,
            payload: request_to_unit(&req),
        })
        .unwrap();
        let Message::Done {
            seq: 2,
            job: 3,
            payload,
        } = reply(&mut conn)
        else {
            panic!("expected Done for seq 2");
        };
        let direct = solver::subsolve(&req).unwrap();
        let got = result_from_unit(&payload).unwrap();
        assert_eq!(
            got.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );

        // Shutdown is answered by closing: nothing else is on the wire.
        conn.send_msg(&Message::Shutdown).unwrap();
        loop {
            match conn.recv_msg().unwrap() {
                Some(Message::Heartbeat) => continue,
                other => break assert_eq!(other, None),
            }
        }
        let summary = child.join().unwrap().unwrap();
        assert_eq!((summary.jobs_done, summary.jobs_failed), (1, 1));
        assert!(summary.clean_shutdown);
    }
}
