//! The *process* backend: `subsolve` workers as separate OS processes.
//!
//! [`Engine::threads`](crate::Engine::threads) executes every process
//! instance as a thread. This module provides the deployment the paper
//! actually ran on its workstation cluster: each worker task instance is a
//! separate operating-system process (the committed `subsolve_worker`
//! binary), connected over TCP or a Unix socket; each child reports its
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
//! * the coordinator side — [`ProcsConfig`], the pool's shape; each job's
//!   view of the shared worker pool; and the merge of the children's §6
//!   traces into a run's chronological record, which
//!   [`Engine::run_one`](crate::Engine::run_one) applies at shutdown;
//! * [`run_worker_child`] — the child side, called by the
//!   `subsolve_worker` binary: serves jobs by running the *real*
//!   [`worker_factory`] manifold inside its own MANIFOLD environment,
//!   then ships its trace back at shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use manifold::config::ConfigSpec;
use manifold::ident::TaskInstanceId;
use manifold::prelude::*;
use manifold::remote::{Completion, JobFleet, Lost, RemoteIdentity, Started};
use manifold::trace::{format_trace, merge_traces, parse_trace, TraceRecord};
use protocol::DEATH_WORKER;
use transport::{serve, Addr, BindMode, RemoteWorkerPool, ServeConfig, ServeSummary};

use crate::worker::{worker_factory, WorkerGauge};

/// How often a worker child reports that it is alive.
pub(crate) const WORKER_HEARTBEAT: Duration = Duration::from_millis(100);

/// The shape of a worker-process pool. How a run on it behaves — faults,
/// checkpoints, retries, shards, churn — is [`EngineOpts`](crate::EngineOpts).
#[derive(Debug, Clone)]
pub struct ProcsConfig {
    /// Worker processes to launch.
    pub instances: usize,
    /// TCP loopback or Unix-domain sockets.
    pub bind: BindMode,
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
            bind: BindMode::Tcp,
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
/// the same [`WorkerGauge`] the threads backend uses, from the moment its
/// frame is on a worker's wire until its answer is back — a subsolve
/// waiting in the fleet's queue is not running — so
/// `peak_concurrent_workers` means the same thing for both backends.
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

/// Interleave the worker children's shipped trace files into a run's
/// coordinator-side records, chronologically — exactly as the paper's
/// single chronological listing shows them.
pub(crate) fn merge_child_traces(
    records: Vec<TraceRecord>,
    children: &[(u64, RemoteIdentity, Option<String>)],
) -> MfResult<Vec<TraceRecord>> {
    let mut sequences = vec![records];
    for (slot, _identity, trace) in children {
        if let Some(text) = trace {
            let records = parse_trace(text)
                .map_err(|e| MfError::App(format!("instance {slot} sent a bad trace: {e}")))?;
            sequences.push(records);
        }
    }
    Ok(merge_traces(sequences))
}

/// Trace records a worker child keeps once it has served enough jobs to
/// have more: it trims back to this many whenever it holds twice as many.
/// A one-shot run never gets there (a level-15 job gives one child some
/// thirty subsolves, two records each), so its shipped trace is complete;
/// a child serving a daemon for days stays this size.
const CHILD_TRACE_KEEP: usize = 1024;

/// The child's trace as shipped at shutdown: the retained records with
/// task uids rewritten to this instance's slot, behind one line saying how
/// many earlier ones were dropped, if any were.
fn child_trace_dump(mut records: Vec<TraceRecord>, task_uid: u64, dropped: u64) -> String {
    if let (Some(first), true) = (records.first().cloned(), dropped > 0) {
        records.insert(
            0,
            TraceRecord {
                message: format!("{dropped} earlier records dropped"),
                ..first
            },
        );
    }
    for r in &mut records {
        r.task_uid = task_uid;
    }
    format_trace(&records)
}

/// The child side: everything `subsolve_worker` does after parsing its
/// environment. Serves jobs from `addr` by running the real Worker
/// manifold in a private MANIFOLD environment whose startup machine is
/// this machine's real hostname, and ships the accumulated trace (task
/// uids rewritten to this instance's slot) back at shutdown.
pub fn run_worker_child(
    addr: Addr,
    instance: u64,
    heartbeat: Duration,
    faults: chaos::WorkerFaults,
) -> std::io::Result<ServeSummary> {
    let host = transport::real_hostname();
    let task_uid = child_task_uid(instance);
    let link = LinkSpec::default()
        .task("mainprog")
        .perpetual(true)
        .load(64)
        .weight("Worker", 1);
    let env = Environment::with_specs(link, ConfigSpec::with_startup(host.as_str()));

    let mut cfg = ServeConfig::new(addr, instance, host, task_uid);
    cfg.heartbeat = heartbeat;
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
    let dropped = std::cell::Cell::new(0u64);
    let summary = serve(
        cfg,
        |job| {
            jobs_seen += 1;
            if crash_on_job == Some(jobs_seen) {
                // Fault injection: die the way a crashed workstation
                // does — no reply, no cleanup, connection just drops.
                std::process::exit(42);
            }
            let solved = solve_one(&env, job).map_err(|e| e.to_string());
            if env.trace().len() >= 2 * CHILD_TRACE_KEEP {
                let gone = env.trace().keep_last(CHILD_TRACE_KEEP);
                dropped.set(dropped.get() + gone as u64);
            }
            solved
        },
        || {
            Some(child_trace_dump(
                env.trace().snapshot(),
                task_uid,
                dropped.get(),
            ))
        },
    )?;
    env.shutdown();
    Ok(summary)
}

/// Run one job through the real Worker manifold: create the worker
/// process instance, feed it the job, collect its submission, observe its
/// death — the same four steps the thread backend's pool performs. The
/// worker's only input is in hand and its body only computes, so once it
/// is wired it runs to completion on this thread.
fn solve_one(env: &Environment, job: Unit) -> MfResult<Unit> {
    let solved = env.run_coordinator("ChildMain", |coord| {
        let death = Name::new(DEATH_WORKER);
        let worker = worker_factory(coord, &death);
        let mut st = coord.state();
        st.send(job.clone(), &worker, "input")?;
        st.connect_to_self(&worker, "output", "input", StreamType::KK)?;
        coord.run_to_completion(&worker)?;
        match st.until_terminated(&worker, &[DEATH_WORKER.into()])? {
            StateExit::Event(_) => coord.read("input"),
            StateExit::Terminated(_) => {
                let detail = worker
                    .core()
                    .failure()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "worker terminated without a result".into());
                Err(MfError::App(detail))
            }
        }
    });
    // Already reported through `solved`; a child serving jobs for days
    // must not keep one entry per failed job.
    env.take_failures();
    solved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppConfig, Engine, EngineOpts};
    use manifold::config::HostName;
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

    #[test]
    fn solve_one_runs_the_real_worker() {
        use crate::codec::{request_to_unit, result_from_unit};
        use solver::problem::Problem;
        use solver::subsolve::SubsolveRequest;

        let env = Environment::new();
        let req = SubsolveRequest::for_grid(2, 1, 1, 1e-3, Problem::manufactured_benchmark());
        let out = solve_one(&env, request_to_unit(&req)).unwrap();
        let res = result_from_unit(&out).unwrap();
        let direct = solver::subsolve(&req).unwrap();
        assert_eq!(res.values, direct.values);
        env.shutdown();
    }

    #[test]
    fn solve_one_runs_the_worker_on_the_calling_thread() {
        use crate::codec::request_to_unit;
        use solver::problem::Problem;
        use solver::subsolve::SubsolveRequest;

        let env = Environment::new();
        let req = SubsolveRequest::for_grid(2, 1, 1, 1e-3, Problem::manufactured_benchmark());
        for _ in 0..3 {
            solve_one(&env, request_to_unit(&req)).unwrap();
        }
        assert_eq!(env.threads_spawned(), 0);
        assert_eq!(env.live_processes(), 0);
        let msgs: Vec<String> = env.trace().take().into_iter().map(|r| r.message).collect();
        assert_eq!(msgs, ["Welcome", "Bye", "Welcome", "Bye", "Welcome", "Bye"]);
        env.shutdown();
    }

    /// One child, 20,000 jobs, a real socket: what the child holds (and
    /// ships at shutdown) stops growing, and the shipped trace says how
    /// much is missing.
    #[test]
    fn a_perpetual_child_retains_a_bounded_trace() {
        use crate::codec::request_to_unit;
        use solver::problem::Problem;
        use solver::subsolve::SubsolveRequest;
        use transport::{Conn, Message};

        const JOBS: u64 = 20_000;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = Addr::Tcp(listener.local_addr().unwrap().to_string());
        let child = std::thread::spawn(move || {
            run_worker_child(
                addr,
                0,
                Duration::from_millis(100),
                chaos::WorkerFaults::default(),
            )
        });
        let (sock, _) = listener.accept().unwrap();
        sock.set_nodelay(true).unwrap();
        let mut conn = Conn::Tcp(sock);
        match conn.recv_msg().unwrap().unwrap() {
            Message::Hello { instance, .. } => conn
                .send_msg(&Message::HelloAck { instance, pool: 0 })
                .unwrap(),
            other => panic!("expected Hello, got {other:?}"),
        }
        let reply = |conn: &mut Conn| loop {
            match conn.recv_msg().unwrap().unwrap() {
                Message::Heartbeat => continue,
                m => return m,
            }
        };
        let req = SubsolveRequest::for_grid(1, 0, 0, 1e-2, Problem::manufactured_benchmark());
        let payload = request_to_unit(&req);
        for seq in 1..=JOBS {
            conn.send_msg(&Message::Job {
                seq,
                job: 0,
                payload: payload.clone(),
            })
            .unwrap();
            assert!(matches!(reply(&mut conn), Message::Done { seq: s, .. } if s == seq));
        }
        conn.send_msg(&Message::Shutdown).unwrap();
        let Message::Trace { text } = reply(&mut conn) else {
            panic!("expected the child's trace");
        };
        let summary = child.join().unwrap().unwrap();
        assert_eq!(summary.jobs_done, JOBS);

        let records = parse_trace(&text).unwrap();
        assert!(
            records.len() <= 2 * CHILD_TRACE_KEEP + 1,
            "{} records retained after {JOBS} jobs",
            records.len()
        );
        let dropped: u64 = records[0]
            .message
            .strip_suffix(" earlier records dropped")
            .expect("first line accounts for the dropped records")
            .parse()
            .unwrap();
        // Welcome and Bye per job: nothing unaccounted for.
        assert_eq!(dropped + records.len() as u64 - 1, 2 * JOBS);
        assert!(records[1..]
            .chunks(2)
            .all(|pair| pair[0].message == "Welcome" && pair[1].message == "Bye"));
        assert!(records.iter().all(|r| r.task_uid == child_task_uid(0)));
    }

    #[test]
    fn a_short_lived_childs_trace_is_shipped_whole() {
        let rec = |msg: &str| TraceRecord {
            host: HostName::new("h"),
            task_uid: 1,
            proc_uid: 7,
            secs: 1,
            usecs: 2,
            task_name: Name::new("mainprog"),
            manifold_name: Name::new("Worker(event)"),
            source_file: "worker.rs".into(),
            line: 1,
            message: msg.into(),
        };
        let text = child_trace_dump(vec![rec("Welcome"), rec("Bye")], 9, 0);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.iter().all(|r| r.task_uid == 9));
    }

    #[test]
    fn solve_one_surfaces_worker_failures() {
        let env = Environment::new();
        let err = solve_one(&env, Unit::text("not a job")).unwrap_err();
        assert!(!err.to_string().is_empty());
        env.shutdown();
    }
}
