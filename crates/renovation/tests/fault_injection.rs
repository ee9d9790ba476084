//! Fault injection: a worker process killed mid-job must cost the run one
//! re-dispatch, not its correctness. Instance 0 is scheduled (via a
//! `chaos::FaultPlan`, carried to the child in `MF_CHAOS_PLAN`) to exit
//! abruptly — no reply, no cleanup — upon receiving its second job; the
//! master must observe the loss through the normal event mechanism,
//! re-dispatch the recovered job, and still produce the bit-identical
//! result within the retry budget.

use std::path::PathBuf;
use std::sync::Arc;

use chaos::{FaultKind, FaultPlan};
use manifold::prelude::MfResult;
use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, JobReport, ProcsConfig};
use solver::sequential::SequentialApp;

/// A run whose every incarnation of `instance` 0 dies on its `on_job`-th
/// job, on a fleet of `instances` worker processes.
fn crash_run(
    app: SequentialApp,
    mut cfg: ProcsConfig,
    on_job: u64,
    retry_budget: usize,
) -> MfResult<JobReport> {
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker")));
    let opts = EngineOpts {
        faults: Some(FaultPlan::new(0).push(FaultKind::WorkerCrash {
            instance: 0,
            on_job,
        })),
        retry_budget,
        ..EngineOpts::default()
    };
    Engine::procs(cfg, Arc::new(PaperFaithful), opts)?.run_one(AppConfig::new(app))
}

#[test]
fn killed_worker_is_redispatched_and_run_completes() {
    let app = SequentialApp::new(2, 2, 1e-3);
    let seq = app.run().unwrap();

    // Every incarnation of instance 0 dies on its second job, so the slot
    // keeps making progress (one job per incarnation) while exercising
    // crash → lost-marker → re-dispatch → respawn repeatedly.
    let procs = crash_run(app, ProcsConfig::new(2), 2, 6).unwrap();

    // Correct despite the losses — and not approximately: bit-identical.
    assert_eq!(procs.result.combined, seq.combined);
    assert_eq!(procs.result.l2_error, seq.l2_error);
    assert_eq!(procs.result.per_grid.len(), seq.per_grid.len());

    // The recovery path really fired: the master logged the loss and the
    // re-dispatch, and extra workers were created for the re-sent jobs.
    let losses = procs
        .records
        .iter()
        .filter(|r| r.message.contains("worker lost"))
        .count();
    assert!(losses >= 1, "no worker-lost trace line; fault never fired");
    assert!(
        procs.outcome.pools()[0].workers_created > 5,
        "re-dispatch should create extra workers (got {})",
        procs.outcome.pools()[0].workers_created
    );
}

#[test]
fn exhausted_retry_budget_fails_the_run_cleanly() {
    let app = SequentialApp::new(2, 2, 1e-3);

    let mut cfg = ProcsConfig::new(1);
    cfg.job_timeout = std::time::Duration::from_secs(20);
    // The only instance dies on its *first* job, every incarnation: no
    // progress is possible, so the budget must run out with a clear error
    // instead of a hang.
    let err = crash_run(app, cfg, 1, 2).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("retry budget") || msg.contains("respawn budget") || msg.contains("lost"),
        "unexpected failure shape: {msg}"
    );
}
