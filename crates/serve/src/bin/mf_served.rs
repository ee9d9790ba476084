//! `mf-served` — the multi-tenant solve daemon.
//!
//! ```text
//! mf-served [--listen tcp:HOST:PORT|unix:PATH]
//!           [--backend threads|procs|sim] [--instances N] [--worker-exe PATH]
//!           [--capacity-level N] [--queue-cap N] [--faults SPEC]
//!           [--journal DIR] [--journal-fsync] [--journal-segment-bytes N]
//! ```
//!
//! The other admission and drain settings are those of
//! [`AdmissionConfig::default`](serve::AdmissionConfig) and
//! [`DaemonConfig::default`](serve::daemon::DaemonConfig). A flag this
//! list does not name is ignored, with a note on stderr.
//!
//! Stderr also carries one line per set-up [`Stage`] —
//! `mf-served: stage NAME at SECONDS`, stamped with `CLOCK_MONOTONIC` —
//! for `main` entered, `listening`, the first worker's `first-hello-ack`,
//! `engine-built` and the `first-done` reply written. The fleet comes up
//! while the daemon binds, so `listening` and the fleet's two stages may
//! come in either order. Stdout's first line is the `listening on` line.
//!
//! Listens until something drains it — SIGTERM/SIGINT, or a tenant's
//! `Drain` message — then finishes every accepted job, tells each session
//! `Drained{served}`, flushes, and exits 0 on a clean drain. `--faults`
//! takes the chaos DSL (`crash:T@N,stall:T@N:MS,…`) with `instance`
//! reinterpreted as the tenant registration ordinal, plus `daemonkill@N`
//! (SIGKILL the daemon after its N-th journaled outcome).
//!
//! `--journal DIR` turns on crash durability: every admission and every
//! outcome is journaled before it is acknowledged, sessions get resume
//! tokens, and a restarted daemon pointed at the same DIR rebuilds its
//! tenants, requeues unfinished jobs, and replays unacknowledged replies
//! to reconnecting clients. `--journal-fsync` extends the guarantee from
//! process crashes to power loss, at a per-record fsync cost.

use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use chaos::FaultPlan;
use protocol::PaperFaithful;
use renovation::{Engine, EngineOpts, ProcsConfig, RunMode};
use serve::daemon::{Daemon, DaemonConfig, EngineBuilder};
use serve::{AdmissionConfig, JournalConfig};
use transport::stage::{self, Stage};
use transport::Addr;

const USAGE: &str = "usage: mf-served [--listen tcp:HOST:PORT|unix:PATH] \
     [--backend threads|procs|sim] [--instances N] [--worker-exe PATH] \
     [--capacity-level N] [--queue-cap N] [--faults SPEC] \
     [--journal DIR] [--journal-fsync] [--journal-segment-bytes N]";

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: c_int) {
    TERM.store(true, Ordering::Release);
}

/// Install `on_term` for SIGTERM (15) and SIGINT (2). `signal(2)` is in
/// every libc the standard library links; no crate needed.
fn hook_signals() {
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_term as *const () as usize);
        signal(2, on_term as *const () as usize);
    }
}

/// Where a stage line's time comes from: `clock_gettime(2)` on
/// `CLOCK_MONOTONIC`, the clock every process on the host shares, so the
/// lines can be set beside a client's or a worker's own stamps.
fn monotonic() -> (c_long, c_long) {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_MONOTONIC: c_int = 1;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    unsafe {
        clock_gettime(CLOCK_MONOTONIC, &mut ts);
    }
    (ts.tv_sec, ts.tv_nsec)
}

fn print_stage(stage: Stage) {
    let (secs, nanos) = monotonic();
    eprintln!("mf-served: stage {} at {secs}.{nanos:09}", stage.name());
}

/// The flags this daemon reads that take a value.
const VALUED: [&str; 9] = [
    "--listen",
    "--backend",
    "--instances",
    "--worker-exe",
    "--capacity-level",
    "--queue-cap",
    "--faults",
    "--journal",
    "--journal-segment-bytes",
];

/// The flags this daemon reads that take none.
const SWITCHES: [&str; 3] = ["--journal-fsync", "--help", "-h"];

/// Minimal `--flag value` scanner (the bench crate's richer CLI lives a
/// dependency layer above this daemon).
struct Args(Vec<String>);

impl Args {
    /// The arguments this daemon does not read. A word after an unknown
    /// flag that is not a flag itself is taken for that flag's value.
    fn unknown(&self) -> Vec<&str> {
        let mut unknown = Vec::new();
        let mut words = self.0.iter().map(String::as_str).peekable();
        while let Some(word) = words.next() {
            if VALUED.contains(&word) {
                words.next();
            } else if !SWITCHES.contains(&word) {
                unknown.push(word);
                words.next_if(|value| !value.starts_with("--"));
            }
        }
        unknown
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("mf-served: bad value {v:?} for {flag}\n{USAGE}");
                std::process::exit(2);
            }),
        }
    }
}

fn main() {
    stage::observe(print_stage);
    stage::reached(Stage::Main);
    let args = Args(std::env::args().skip(1).collect());
    if args.0.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    for flag in args.unknown() {
        eprintln!("mf-served: ignoring unknown flag {flag}");
    }

    let addr = match Addr::parse(args.value("--listen").unwrap_or("tcp:127.0.0.1:0")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mf-served: --listen: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let capacity_level: u32 = args.parsed("--capacity-level", 8);
    let admission = AdmissionConfig {
        queue_cap: args.parsed("--queue-cap", 128),
        capacity_level,
        ..AdmissionConfig::default()
    };
    let tenant_faults = match args.value("--faults") {
        None => None,
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("mf-served: --faults: {e}\n{USAGE}");
                std::process::exit(2);
            }
        },
    };
    let journal = args.value("--journal").map(|dir| {
        let mut jc = JournalConfig::new(std::path::PathBuf::from(dir));
        jc.fsync = args.0.iter().any(|a| a == "--journal-fsync");
        jc.segment_bytes = args.parsed("--journal-segment-bytes", jc.segment_bytes);
        jc
    });
    let cfg = DaemonConfig {
        addr,
        admission,
        tenant_faults,
        journal,
        ..DaemonConfig::default()
    };

    let backend = args.value("--backend").unwrap_or("threads").to_string();
    let instances: usize = args.parsed("--instances", 2);
    let worker_exe = args.value("--worker-exe").map(std::path::PathBuf::from);
    let opts = EngineOpts {
        capacity_level,
        ..EngineOpts::default()
    };
    let build: EngineBuilder = match backend.as_str() {
        "threads" => Box::new(move || {
            Engine::threads(RunMode::Parallel, std::sync::Arc::new(PaperFaithful), opts)
        }),
        "sim" => Box::new(move || Engine::sim(None, std::sync::Arc::new(PaperFaithful), opts)),
        "procs" => Box::new(move || {
            let mut pc = ProcsConfig::new(instances);
            pc.worker_exe = worker_exe;
            Engine::procs(pc, std::sync::Arc::new(PaperFaithful), opts)
        }),
        other => {
            eprintln!("mf-served: unknown backend {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };

    hook_signals();
    let daemon = match Daemon::start(cfg, build) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mf-served: bind/start failed: {e}");
            std::process::exit(1);
        }
    };
    stage::reached(Stage::Listening);
    println!(
        "mf-served: listening on {} ({backend} backend, capacity level {capacity_level})",
        daemon.local_addr()
    );

    // SIGTERM watcher: the handler only flips a flag; this thread turns
    // the flag into a drain. It also retires itself when a tenant-side
    // Drain beat it to the trigger.
    let trigger = daemon.drain_trigger();
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::Acquire) {
            trigger.drain();
            return;
        }
        if trigger.draining() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let report = daemon.wait();
    println!(
        "mf-served: drained — {} served, {} rejected, {} orphaned, peak {} in system, \
         clean={}",
        report.served, report.rejected, report.orphaned, report.peak_in_system, report.clean
    );
    for t in &report.stats.tenants {
        println!(
            "mf-served:   tenant {:<16} weight {:>2}  accepted {:>6}  served {:>6}  \
             rejected {:>6}  failed {:>4}",
            t.tenant, t.weight, t.accepted, t.served, t.rejected, t.failed
        );
    }
    // The fleet's own accounting: a thread count or a registry peak that
    // tracks the job count means the daemon degrades with uptime; a wire
    // queue that never fills means the workers waited for the daemon.
    if let Some(e) = &report.engine {
        println!(
            "mf-served:   engine: {} jobs, {} workers created, {} threads spawned, \
             peak {} live processes, peak {} in flight, {} reader threads, \
             wire queue peak {}",
            e.jobs_served,
            e.fleet_workers_created,
            e.threads_spawned,
            e.peak_live_processes,
            report.peak_in_flight,
            e.reader_threads,
            e.wire_queue_peak
        );
    }
    if let Some(err) = &report.engine_error {
        eprintln!("mf-served: engine error: {err}");
    }
    std::process::exit(if report.clean { 0 } else { 1 });
}
