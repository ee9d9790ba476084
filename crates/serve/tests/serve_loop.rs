//! The daemon is one serving thread: `serve-loop` owns the sockets, the
//! session table and the engine. These tests pin what that must not cost:
//! the thread census of a real `mf-served`, sockets served while dispatch
//! is held, and a round trip that never waits for a lost engine wake-up.
//! And the loop starts its fleet before the daemon binds: a bind that then
//! fails must take the fleet down with it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chaos::FaultPlan;
use protocol::PaperFaithful;
use renovation::{Engine, EngineOpts, ProcsConfig, RunMode};
use serve::admission::AdmissionConfig;
use serve::daemon::{Daemon, DaemonConfig};
use serve::proto::{RejectReason, ServeMsg};
use serve::TenantClient;
use transport::Addr;

fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve-loop-{}-{name}.sock", std::process::id()))
}

fn start_daemon(name: &str, admission: AdmissionConfig, faults: Option<FaultPlan>) -> Daemon {
    let capacity_level = admission.capacity_level;
    Daemon::start(
        DaemonConfig {
            addr: Addr::Unix(sock_path(name)),
            admission,
            tenant_faults: faults,
            ..DaemonConfig::default()
        },
        Box::new(move || {
            Engine::threads(
                RunMode::Parallel,
                Arc::new(PaperFaithful),
                EngineOpts {
                    capacity_level,
                    ..EngineOpts::default()
                },
            )
        }),
    )
    .expect("daemon start")
}

fn recv_done(c: &mut TenantClient, want_seq: u64) {
    match c.recv().expect("recv") {
        ServeMsg::Done { seq, .. } => assert_eq!(seq, want_seq),
        other => panic!("expected Done for seq {want_seq}, got {other:?}"),
    }
}

/// A serving `mf-served` runs exactly one `serve-*` thread.
#[test]
fn mf_served_serves_from_one_thread() {
    let sock = sock_path("census");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mf-served"))
        .args(["--listen", &format!("unix:{}", sock.display())])
        .args(["--backend", "threads", "--capacity-level", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mf-served");
    // Held until exit: the drain report goes to the same pipe.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("listening on"), "mf-served printed {line:?}");

    let mut c = TenantClient::connect(&Addr::Unix(sock), "census", 1).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c.submit(1, 1, 1, 1e-3).unwrap();
    recv_done(&mut c, 1);

    let mut names = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{}/task", child.id())).unwrap() {
        let comm = task.unwrap().path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            names.push(name.trim().to_string());
        }
    }
    // The one `serve-` thread is the loop: no reactor pool beside it, no
    // dispatcher.
    let serving: Vec<&String> = names.iter().filter(|n| n.starts_with("serve-")).collect();
    assert_eq!(serving, ["serve-loop"], "threads {names:?}");

    c.send(&ServeMsg::Drain).unwrap();
    while !matches!(c.recv().expect("recv"), ServeMsg::Drained { .. }) {}
    let report: Vec<String> = stdout.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success(), "unclean drain: {report:?}");
}

/// Tenant 0's first job is stalled 400 ms before dispatch. While it is
/// held, another tenant's `Hello` is welcomed and a submit past its queue
/// cap is rejected at once: a held dispatch holds no socket.
#[test]
fn a_held_dispatch_still_serves_sockets() {
    let daemon = start_daemon(
        "held",
        AdmissionConfig {
            queue_cap: 1,
            capacity_level: 2,
            ..AdmissionConfig::default()
        },
        Some(FaultPlan::parse("stall:0@1:400").unwrap()),
    );
    let addr = daemon.local_addr().clone();

    let mut slow = TenantClient::connect(&addr, "slow", 1).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let submitted = Instant::now();
    slow.submit(1, 1, 1, 1e-3).unwrap();
    // The loop has popped the job (it is in flight) and holds dispatch.
    while daemon.stats().inflight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut quick = TenantClient::connect(&addr, "quick", 1).expect("connect");
    quick
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let welcomed = submitted.elapsed();
    quick.submit(1, 1, 1, 1e-3).unwrap();
    quick.submit(2, 1, 1, 1e-3).unwrap();
    match quick.recv().expect("recv") {
        ServeMsg::Reject { seq: 2, reason, .. } => assert_eq!(reason, RejectReason::QueueFull),
        other => panic!("expected the queue-full Reject, got {other:?}"),
    }
    let rejected = submitted.elapsed();
    assert!(
        welcomed < Duration::from_millis(250) && rejected < Duration::from_millis(250),
        "welcome after {welcomed:?}, reject after {rejected:?}: the held dispatch held sockets"
    );

    recv_done(&mut slow, 1);
    let answered = submitted.elapsed();
    assert!(
        answered >= Duration::from_millis(400),
        "the stalled job answered after {answered:?}, inside its 400 ms stall"
    );
    recv_done(&mut quick, 1);

    slow.bye().unwrap();
    quick.bye().unwrap();
    daemon.drain_trigger().drain();
    let report = daemon.wait();
    assert_eq!((report.served, report.rejected, report.orphaned), (2, 1, 0));
    assert!(report.clean);
}

/// Fifty sequential level-0 jobs on an idle daemon: each reply is rung in
/// by the engine's completion wake, so the median round trip is a job's
/// work, not a poll timeout.
#[test]
fn idle_round_trips_wait_for_no_timeout() {
    let daemon = start_daemon(
        "rtt",
        AdmissionConfig {
            capacity_level: 2,
            ..AdmissionConfig::default()
        },
        None,
    );
    let mut c = TenantClient::connect(daemon.local_addr(), "rtt", 1).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut rtts: Vec<Duration> = (1..=50)
        .map(|seq| {
            let t0 = Instant::now();
            c.submit(seq, 1, 0, 1e-3).unwrap();
            recv_done(&mut c, seq);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(25),
        "median round trip {median:?} on an idle daemon"
    );
    c.bye().unwrap();
    daemon.drain_trigger().drain();
    assert!(daemon.wait().clean);
}

/// This process's children named `name` (a zombie counts: it was never
/// reaped).
fn children_named(name: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
        };
        if field("Name:") == Some(name) && field("PPid:") == Some(me.as_str()) {
            found.push(pid);
        }
    }
    found
}

/// The fleet is started before the bind: when the bind then fails,
/// `Daemon::start` returns the error, and the worker processes the
/// engine had already brought up are shut down and reaped.
#[test]
fn a_bind_that_fails_after_the_fleet_started_leaves_no_child() {
    let worker = Path::new(env!("CARGO_BIN_EXE_mf-served")).with_file_name("subsolve_worker");
    assert!(
        worker.is_file(),
        "{} is missing — build the renovation crate's binaries first",
        worker.display()
    );
    let (built_tx, built) = std::sync::mpsc::channel();
    let started = Daemon::start(
        DaemonConfig {
            addr: Addr::Unix(PathBuf::from("/nonexistent-serve-loop-dir/daemon.sock")),
            ..DaemonConfig::default()
        },
        Box::new(move || {
            let mut pc = ProcsConfig::new(2);
            pc.worker_exe = Some(worker);
            let engine = Engine::procs(pc, Arc::new(PaperFaithful), EngineOpts::default());
            built_tx.send(engine.is_ok()).unwrap();
            engine
        }),
    );
    assert!(started.is_err(), "bound a socket in a missing directory");
    assert_eq!(
        built.try_recv(),
        Ok(true),
        "the fleet was not started first"
    );
    assert_eq!(children_named("subsolve_worker"), Vec::<u32>::new());
}
