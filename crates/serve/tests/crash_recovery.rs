//! Crash-durable serving, end to end: a real `mf-served` process is
//! SIGKILLed at seeded points (via the `daemonkill@N` chaos token, which
//! fires *after* an outcome is journaled but *before* it is sent — the
//! nastiest window), a supervisor restarts it on the same journal, and
//! resumable clients reconnect with their tokens. Every submitted job
//! must resolve exactly once, bit-identical to the sequential oracle —
//! zero lost replies, zero application-level duplicates, however many
//! times the daemon dies.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serve::proto::ServeMsg;
use serve::{Backoff, TenantClient};
use solver::sequential::SequentialApp;
use transport::Addr;

const TOL: f64 = 1e-3;

fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("serve-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    (base.join("sock"), base.join("journal"))
}

/// Which fleet the daemon under test serves from, and hence how many
/// jobs it keeps in flight.
#[derive(Clone, Copy)]
enum Fleet {
    /// One virtual timeline: one job at a time.
    Sim,
    /// Two worker processes: four jobs at a time.
    Procs,
}

/// Every incarnation's standard output, appended: the drain reports.
fn stdout_log(journal: &Path) -> PathBuf {
    journal.with_file_name("stdout")
}

fn spawn_daemon(sock: &Path, journal: &Path, fleet: Fleet, faults: Option<&str>) -> Child {
    let served = Path::new(env!("CARGO_BIN_EXE_mf-served"));
    let stdout = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(stdout_log(journal))
        .expect("daemon stdout log");
    let mut cmd = Command::new(served);
    cmd.arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .arg("--journal")
        .arg(journal)
        .arg("--capacity-level")
        .arg("4")
        .arg("--queue-cap")
        .arg("256")
        .stdout(stdout)
        .stderr(Stdio::null());
    match fleet {
        Fleet::Sim => cmd.args(["--backend", "sim"]),
        Fleet::Procs => {
            // Built by the same cargo invocation into the same directory
            // (`cargo test` builds every workspace member's binaries; on
            // its own, `cargo build -p renovation` does).
            let worker = served.with_file_name("subsolve_worker");
            assert!(
                worker.is_file(),
                "{} is missing — build the renovation crate's binaries first",
                worker.display()
            );
            cmd.args(["--backend", "procs", "--instances", "2", "--worker-exe"])
                .arg(worker)
        }
    };
    if let Some(f) = faults {
        cmd.arg("--faults").arg(f);
    }
    cmd.spawn().expect("spawn mf-served")
}

/// Restart the daemon every time it dies, walking a per-incarnation fault
/// schedule (`None` = run clean). Returns the observed kill count once
/// `done` is set and the daemon exits on its own.
fn supervise(
    sock: PathBuf,
    journal: PathBuf,
    fleet: Fleet,
    mut child: Child,
    fault_schedule: Vec<Option<String>>,
    done: Arc<AtomicBool>,
) -> std::thread::JoinHandle<(u32, bool)> {
    std::thread::spawn(move || {
        let mut incarnation = 0usize;
        let mut kills = 0u32;
        loop {
            let status = child.wait().expect("wait mf-served");
            if done.load(Ordering::Acquire) {
                return (kills, status.success());
            }
            assert!(
                !status.success(),
                "daemon exited cleanly before the drain was requested"
            );
            kills += 1;
            incarnation += 1;
            let faults = fault_schedule
                .get(incarnation)
                .and_then(|f| f.as_deref())
                .map(str::to_string);
            child = spawn_daemon(&sock, &journal, fleet, faults.as_deref());
        }
    })
}

/// Submit `jobs`, collect every reply exactly once, resume through any
/// number of disconnects. Panics on a duplicate, a drift from the oracle,
/// or a failed resume.
fn run_tenant(
    addr: &Addr,
    name: &str,
    jobs: &[(u64, u32, u32)],
    oracle: &HashMap<(u32, u32), (Vec<f64>, f64, u64)>,
    seed: u64,
    suppressed: &AtomicU64,
) {
    let mut backoff = Backoff::with(Duration::from_millis(5), Duration::from_millis(250), seed);
    let mut c = loop {
        match TenantClient::connect(addr, name, 1) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(backoff.next(None)),
        }
    };
    backoff.reset();
    // Short relative to the 60s control-drain timeout: a reply that never
    // arrives (lost to a kill window) should trip the resume path fast,
    // not stall the suite. Resume is idempotent, so a spurious timeout
    // under load only costs a reconnect.
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let mut submitted = 0usize;
    let mut seen: HashSet<u64> = HashSet::new();
    while seen.len() < jobs.len() {
        let step: io::Result<()> = (|| {
            while submitted < jobs.len() {
                let (seq, root, level) = jobs[submitted];
                c.submit(seq, root, level, TOL)?;
                submitted += 1;
            }
            match c.recv()? {
                ServeMsg::Done {
                    seq,
                    grids,
                    l2_error,
                    combined,
                    ..
                } => {
                    assert!(
                        seen.insert(seq),
                        "tenant {name}: application-level duplicate reply for seq {seq}"
                    );
                    let (_, root, level) = jobs
                        .iter()
                        .copied()
                        .find(|(s, _, _)| *s == seq)
                        .expect("reply for a seq never submitted");
                    let (exp_combined, exp_l2, exp_grids) = &oracle[&(root, level)];
                    assert_eq!(
                        &combined, exp_combined,
                        "tenant {name} seq {seq}: served field drifted from the \
                         sequential oracle across the crash"
                    );
                    assert_eq!(l2_error, *exp_l2);
                    assert_eq!(grids, *exp_grids);
                }
                ServeMsg::Drained { .. } => {}
                other => panic!("tenant {name}: unexpected reply {other:?}"),
            }
            Ok(())
        })();
        if let Err(e) = step {
            assert!(
                c.resumable(),
                "tenant {name}: journaled daemon handed out no resume token"
            );
            c.resume_with_backoff(&mut backoff, 2_000)
                .unwrap_or_else(|re| panic!("tenant {name}: resume failed after {e}: {re}"));
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            backoff.reset();
        }
    }
    suppressed.fetch_add(c.duplicates_suppressed(), Ordering::Relaxed);
    let _ = c.ack();
    let _ = c.bye();
}

/// The full scenario on the one-job-at-a-time fleet.
fn crash_scenario(
    tag: &str,
    tenants: usize,
    jobs_per_tenant: u64,
    schedule: Vec<Option<String>>,
) -> (u32, u64) {
    let (kills, suppressed, _) =
        crash_scenario_on(Fleet::Sim, tag, tenants, jobs_per_tenant, schedule);
    (kills, suppressed)
}

/// The full scenario: spawn, load, kill per `fault_schedule`, drain,
/// assert exactly-once + bit-identity throughout. Returns (kills,
/// replayed-duplicates-suppressed, what the incarnations printed).
fn crash_scenario_on(
    fleet: Fleet,
    tag: &str,
    tenants: usize,
    jobs_per_tenant: u64,
    schedule: Vec<Option<String>>,
) -> (u32, u64, String) {
    let (sock, journal) = scratch(tag);
    let addr = Addr::Unix(sock.clone());

    // Job mix: small sim solves, varied shapes.
    let shapes: [(u32, u32); 3] = [(1, 1), (2, 1), (1, 2)];
    let mut oracle: HashMap<(u32, u32), (Vec<f64>, f64, u64)> = HashMap::new();
    for &(root, level) in &shapes {
        let r = SequentialApp::new(root, level, TOL).run().unwrap();
        oracle.insert(
            (root, level),
            (r.combined, r.l2_error, r.per_grid.len() as u64),
        );
    }
    let oracle = Arc::new(oracle);

    let done = Arc::new(AtomicBool::new(false));
    let child = spawn_daemon(
        &sock,
        &journal,
        fleet,
        schedule.first().and_then(|f| f.as_deref()),
    );
    let sup = supervise(
        sock.clone(),
        journal.clone(),
        fleet,
        child,
        schedule,
        Arc::clone(&done),
    );

    let suppressed = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for t in 0..tenants {
        let addr = addr.clone();
        let oracle = Arc::clone(&oracle);
        let suppressed = Arc::clone(&suppressed);
        joins.push(std::thread::spawn(move || {
            let jobs: Vec<(u64, u32, u32)> = (1..=jobs_per_tenant)
                .map(|seq| {
                    let (root, level) = shapes[((t as u64 + seq) % 3) as usize];
                    (seq, root, level)
                })
                .collect();
            run_tenant(
                &addr,
                &format!("tenant-{t:02}"),
                &jobs,
                &oracle,
                0xC0FFEE ^ (t as u64),
                &suppressed,
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Every reply is home. Drain the (possibly restarted) daemon and let
    // the supervisor observe a clean, voluntary exit.
    done.store(true, Ordering::Release);
    let mut backoff = Backoff::with(Duration::from_millis(5), Duration::from_millis(250), 7);
    let mut control = loop {
        match TenantClient::connect(&addr, "control", 1) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(backoff.next(None)),
        }
    };
    control
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    control.send(&ServeMsg::Drain).unwrap();
    loop {
        match control.recv().expect("drain reply") {
            ServeMsg::Drained { .. } => break,
            _ => continue,
        }
    }
    let (kills, clean_exit) = sup.join().unwrap();
    assert!(clean_exit, "final incarnation must drain and exit 0");

    let printed = std::fs::read_to_string(stdout_log(&journal)).unwrap_or_default();
    let _ = std::fs::remove_dir_all(sock.parent().unwrap());
    (kills, suppressed.load(Ordering::Relaxed), printed)
}

/// Control: journal on, no kills — the durable path serves like the
/// volatile one.
#[test]
fn journaled_daemon_serves_cleanly_without_faults() {
    let (kills, _) = crash_scenario("clean", 4, 3, vec![None]);
    assert_eq!(kills, 0);
}

/// SIGKILL at each seeded outcome point during a 16-tenant run: recovery
/// + resume deliver all 32 replies bit-identically, exactly once.
#[test]
fn kill_at_every_seeded_point_loses_and_duplicates_nothing() {
    for k in [1u64, 2, 3, 5, 8, 13] {
        let (kills, _) = crash_scenario(
            &format!("kill{k}"),
            16,
            2,
            vec![Some(format!("daemonkill@{k}"))],
        );
        assert_eq!(kills, 1, "kill point {k}: exactly one induced crash");
    }
}

/// Back-to-back crashes: the journal recovered by incarnation 2 was
/// itself written partly by incarnation 1's recovery — compaction and
/// replay must compose.
#[test]
fn repeated_kills_compose_across_incarnations() {
    let (kills, _) = crash_scenario(
        "repeat",
        8,
        4,
        vec![
            Some("daemonkill@3".into()),
            Some("daemonkill@5".into()),
            None,
        ],
    );
    assert_eq!(kills, 2, "both induced crashes must fire");
}

/// The same kill with four jobs in flight. Whichever outcome the daemon
/// dies on, the jobs beside it in the engine (and whatever had already
/// refilled the freed slot) are Pending in the journal with no outcome:
/// the next incarnation re-runs each of them once, replays the journaled
/// reply, and no tenant sees a duplicate — `run_tenant` panics on one.
#[test]
fn a_kill_with_four_jobs_in_flight_reruns_each_pending_job_once() {
    for k in [1u64, 2, 5] {
        let (kills, _, printed) = crash_scenario_on(
            Fleet::Procs,
            &format!("overlap{k}"),
            4,
            4,
            vec![Some(format!("daemonkill@{k}"))],
        );
        assert_eq!(kills, 1, "kill point {k}: exactly one induced crash");
        // Only the surviving incarnation printed a drain report: all 16
        // jobs answered, four at a time.
        assert!(
            printed.contains("peak 4 in flight"),
            "kill point {k}: the daemon never overlapped four jobs:\n{printed}"
        );
    }
}
