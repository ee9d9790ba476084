//! Cross-backend equivalence: the *threads* backend (every process a
//! thread of one program) and the *procs* backend (worker task instances
//! as separate OS processes over the transport) must be observably the
//! same program — bit-identical combined solution and, per dispatch
//! policy, an identical trace-visible dispatch order.

use std::path::PathBuf;
use std::sync::Arc;

use protocol::{BoundedReuse, CostAware, PaperFaithful, PolicyRef};
use renovation::{AppConfig, Engine, EngineOpts, JobReport, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker"))
}

fn opts(app: &SequentialApp) -> EngineOpts {
    EngineOpts {
        capacity_level: app.level,
        ..EngineOpts::default()
    }
}

fn threads_run(app: SequentialApp, policy: PolicyRef) -> JobReport {
    Engine::threads(RunMode::Parallel, policy, opts(&app))
        .and_then(|engine| engine.run_one(AppConfig::new(app)))
        .unwrap()
}

fn procs_run(app: SequentialApp, policy: PolicyRef) -> JobReport {
    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(worker_exe());
    Engine::procs(cfg, policy, opts(&app))
        .and_then(|engine| engine.run_one(AppConfig::new(app)))
        .unwrap()
}

/// The dispatch-order signature: the master's `dispatch subsolve(l, m)`
/// trace lines, in chronological order.
fn dispatch_sequence(records: &[manifold::trace::TraceRecord]) -> Vec<String> {
    records
        .iter()
        .filter(|r| r.message.starts_with("dispatch subsolve("))
        .map(|r| r.message.clone())
        .collect()
}

fn assert_backends_match(policy: PolicyRef) {
    let app = SequentialApp::new(2, 2, 1e-3);
    let threads = threads_run(app, policy.clone());
    let procs = procs_run(app, policy);

    // Bit-identical numbers, not approximately equal.
    assert_eq!(threads.result.combined, procs.result.combined);
    assert_eq!(threads.result.l2_error, procs.result.l2_error);
    assert_eq!(threads.result.per_grid.len(), procs.result.per_grid.len());

    // Identical dispatch order, line for line.
    let a = dispatch_sequence(&threads.records);
    let b = dispatch_sequence(&procs.records);
    assert_eq!(a.len(), 5, "level 2 dispatches 5 subsolves");
    assert_eq!(a, b, "dispatch order differs between backends");

    // Same protocol bookkeeping.
    assert_eq!(
        threads.outcome.pools()[0].workers_created,
        procs.outcome.pools()[0].workers_created
    );
}

#[test]
fn paper_faithful_matches_over_unix_sockets() {
    assert_backends_match(Arc::new(PaperFaithful));
}

#[test]
fn bounded_reuse_matches_over_unix_sockets() {
    assert_backends_match(Arc::new(BoundedReuse::new(2)));
}

#[test]
fn cost_aware_matches_over_unix_sockets() {
    assert_backends_match(Arc::new(CostAware));
}

#[test]
fn remote_traces_carry_real_host_and_child_task_uids() {
    let app = SequentialApp::new(2, 2, 1e-3);
    let procs = procs_run(app, Arc::new(PaperFaithful));
    let threads = threads_run(app, Arc::new(PaperFaithful));

    // One `Welcome` and one `Bye` per worker created, as on threads: the
    // proxy is the worker's one identity, and the child prints nothing.
    let worker_lines = |report: &JobReport, message: &str| {
        report
            .records
            .iter()
            .filter(|r| r.manifold_name.as_str() == "Worker(event)" && r.message == message)
            .count()
    };
    let workers = procs.outcome.workers_created();
    assert!(workers > 0);
    assert_eq!(threads.outcome.workers_created(), workers);
    for message in ["Welcome", "Bye"] {
        assert_eq!(worker_lines(&procs, message), workers, "procs {message}s");
        assert_eq!(
            worker_lines(&threads, message),
            workers,
            "threads {message}s"
        );
    }

    // Every worker line carries the children's reported identity: the
    // machine's *real* hostname, not the CONFIG label, and a child's
    // task-instance uid.
    let real_host = transport::real_hostname();
    let child_uids: Vec<u64> = (0..2).map(renovation::procs::child_task_uid).collect();
    for r in procs
        .records
        .iter()
        .filter(|r| r.manifold_name.as_str() == "Worker(event)")
    {
        assert_eq!(r.host.as_str(), real_host, "{r}");
        assert!(child_uids.contains(&r.task_uid), "{r}");
    }
    let mut last = (0, 0);
    for r in &procs.records {
        assert!((r.secs, r.usecs) >= last, "trace not chronological");
        last = (r.secs, r.usecs);
    }
}
