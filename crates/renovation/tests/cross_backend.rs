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
use transport::BindMode;

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

fn procs_run(app: SequentialApp, bind: BindMode, policy: PolicyRef) -> JobReport {
    let mut cfg = ProcsConfig::new(2);
    cfg.bind = bind;
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

fn assert_backends_match(policy: PolicyRef, bind: BindMode) {
    let app = SequentialApp::new(2, 2, 1e-3);
    let threads = threads_run(app, policy.clone());
    let procs = procs_run(app, bind, policy);

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
fn paper_faithful_matches_over_tcp() {
    assert_backends_match(Arc::new(PaperFaithful), BindMode::Tcp);
}

#[test]
fn bounded_reuse_matches_over_tcp() {
    assert_backends_match(Arc::new(BoundedReuse::new(2)), BindMode::Tcp);
}

#[test]
fn cost_aware_matches_over_tcp() {
    assert_backends_match(Arc::new(CostAware), BindMode::Tcp);
}

#[test]
fn paper_faithful_matches_over_unix_sockets() {
    assert_backends_match(Arc::new(PaperFaithful), BindMode::Unix);
}

#[test]
fn remote_traces_carry_real_host_and_child_task_uids() {
    let app = SequentialApp::new(2, 1, 1e-3);
    let procs = procs_run(app, BindMode::Tcp, Arc::new(PaperFaithful));

    let real_host = transport::real_hostname();
    // The proxy workers adopt the children's reported identity: the
    // machine's *real* hostname, not the CONFIG label.
    assert!(
        procs
            .records
            .iter()
            .any(|r| r.manifold_name.as_str() == "Worker(event)" && r.host.as_str() == real_host),
        "no worker trace line carries the real hostname {real_host:?}"
    );
    // The children's own trace files were merged in, rewritten to their
    // pool slots' task-instance uids.
    for slot in 0..2u64 {
        let uid = renovation::procs::child_task_uid(slot);
        assert!(
            procs.records.iter().any(|r| r.task_uid == uid),
            "no merged trace record from child instance {slot} (uid {uid})"
        );
    }
    // Each worker announced itself in its own process: 3 remote Welcomes
    // (per job) + the proxies' and master's lines all interleave into one
    // chronology.
    let mut last = (0, 0);
    for r in &procs.records {
        assert!((r.secs, r.usecs) >= last, "merged trace not chronological");
        last = (r.secs, r.usecs);
    }
}
