//! `mf-served` — the multi-tenant solve daemon.
//!
//! ```text
//! mf-served [--listen tcp:HOST:PORT|unix:PATH] [--threads N]
//!           [--backend threads|procs|sim] [--instances N] [--worker-exe PATH]
//!           [--capacity-level N] [--queue-cap N] [--max-weight N]
//!           [--fault-budget N] [--retry-budget N] [--retry-after-ms N]
//!           [--faults SPEC] [--drain-grace-ms N]
//!           [--journal DIR] [--journal-fsync] [--journal-segment-bytes N]
//! ```
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use chaos::FaultPlan;
use protocol::PaperFaithful;
use renovation::{Engine, EngineOpts, ProcsConfig, RunMode};
use serve::daemon::{Daemon, DaemonConfig, EngineBuilder};
use serve::{AdmissionConfig, JournalConfig};
use transport::Addr;

const USAGE: &str = "usage: mf-served [--listen tcp:HOST:PORT|unix:PATH] [--threads N] \
     [--backend threads|procs|sim] [--instances N] [--worker-exe PATH] \
     [--capacity-level N] [--queue-cap N] [--max-weight N] [--fault-budget N] \
     [--retry-budget N] [--retry-after-ms N] [--faults SPEC] [--drain-grace-ms N] \
     [--journal DIR] [--journal-fsync] [--journal-segment-bytes N]";

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: std::os::raw::c_int) {
    TERM.store(true, Ordering::Release);
}

/// Install `on_term` for SIGTERM (15) and SIGINT (2). `signal(2)` is in
/// every libc the standard library links; no crate needed.
fn hook_signals() {
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_term as *const () as usize);
        signal(2, on_term as *const () as usize);
    }
}

/// Minimal `--flag value` scanner (the bench crate's richer CLI lives a
/// dependency layer above this daemon).
struct Args(Vec<String>);

impl Args {
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
    let args = Args(std::env::args().skip(1).collect());
    if args.0.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
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
        max_weight: args.parsed("--max-weight", 16),
        fault_budget: args.parsed("--fault-budget", 8),
        retry_budget: args.parsed("--retry-budget", 4),
        retry_after: Duration::from_millis(args.parsed("--retry-after-ms", 25)),
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
        reactor_threads: args.parsed("--threads", 0),
        admission,
        tenant_faults,
        drain_grace: Duration::from_millis(args.parsed("--drain-grace-ms", 5_000)),
        journal,
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
