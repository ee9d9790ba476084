//! The worker-side task-instance executable.
//!
//! Launched by the coordinator's worker pool (or by hand for debugging),
//! parameterized entirely through the environment:
//!
//! * `MF_WORKER_ADDR` — `tcp:host:port` / `unix:path` to connect back to
//!   (required);
//! * `MF_WORKER_INSTANCE` — this child's pool slot (required);
//! * `MF_CHAOS_PLAN` — fault injection: a [`chaos::FaultPlan`] in its
//!   textual form; this child applies only the faults naming its own
//!   instance (crash, connection drop, frame corruption, stall,
//!   heartbeat delay).
//!
//! Exit status: 0 after an orderly `Shutdown`, 1 on a configuration or
//! transport error, 42 on injected crash.

use std::process::exit;

use renovation::run_worker_child;
use transport::Addr;

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

fn main() {
    let addr = match std::env::var("MF_WORKER_ADDR")
        .map_err(|_| "missing".to_string())
        .and_then(|v| Addr::parse(&v))
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("subsolve_worker: MF_WORKER_ADDR: {e}");
            exit(1);
        }
    };
    let instance = match env_u64("MF_WORKER_INSTANCE") {
        Some(i) => i,
        None => {
            eprintln!("subsolve_worker: MF_WORKER_INSTANCE missing or unparsable");
            exit(1);
        }
    };
    let faults = match std::env::var("MF_CHAOS_PLAN") {
        Ok(text) => match chaos::FaultPlan::parse(&text) {
            Ok(plan) => plan.worker_faults(instance),
            Err(e) => {
                eprintln!("subsolve_worker: MF_CHAOS_PLAN: {e}");
                exit(1);
            }
        },
        Err(_) => chaos::WorkerFaults::default(),
    };

    match run_worker_child(addr, instance, faults) {
        Ok(summary) => {
            if !summary.clean_shutdown {
                eprintln!(
                    "subsolve_worker[{instance}]: coordinator vanished after {} job(s)",
                    summary.jobs_done + summary.jobs_failed
                );
            }
        }
        Err(e) => {
            eprintln!("subsolve_worker[{instance}]: {e}");
            exit(1);
        }
    }
}
