//! Multi-job engine isolation: one persistent fleet, many interleaved
//! jobs, every answer bit-identical to a solo run.
//!
//! The solo oracle is the sequential program itself — the tier-1 suite
//! already proves every one-shot backend reproduces it bit for bit, so a
//! multi-job engine whose per-job results equal the sequential results is
//! transitively identical to the solo concurrent runs too. Jobs are
//! deliberately interleaved across problem sizes, roots, data paths, and
//! dispatch policies so state leaking from one job into the next (stale
//! results, policy carry-over, trace bleed) cannot cancel out.

use std::path::PathBuf;
use std::sync::Arc;

use protocol::{BoundedReuse, CostAware, PaperFaithful, PolicyRef};
use renovation::{AppConfig, Engine, EngineOpts, ProcsConfig, RunMode, SubmitError};
use solver::sequential::SequentialApp;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker"))
}

/// (root, level, data_through_master, per-job policy) — a mix that changes
/// every knob between consecutive jobs.
fn job_mix() -> Vec<(u32, u32, bool, Option<PolicyRef>)> {
    vec![
        (2, 2, true, None),
        (1, 4, true, Some(Arc::new(BoundedReuse::new(2)))),
        (2, 1, false, Some(Arc::new(CostAware))),
        (2, 3, true, None),
        (1, 2, true, Some(Arc::new(CostAware))),
        (2, 0, true, None),
        (1, 3, false, Some(Arc::new(BoundedReuse::new(3)))),
        (2, 2, true, Some(Arc::new(PaperFaithful))),
    ]
}

fn submit_mix_and_check(engine: &mut Engine) {
    for (i, (root, level, through_master, policy)) in job_mix().into_iter().enumerate() {
        let app = SequentialApp::new(root, level, 1e-3);
        let oracle = app.run().unwrap();
        let cfg = AppConfig {
            data_through_master: through_master,
            policy,
            ..AppConfig::new(app)
        };
        let handle = engine.submit(cfg).expect("engine admission");
        assert_eq!(handle.id(), (i + 1) as u64);
        let report = handle.wait().unwrap();
        assert_eq!(
            report.result.combined,
            oracle.combined,
            "job {} (root {root}, level {level}) drifted from the solo oracle",
            i + 1
        );
        assert_eq!(report.result.l2_error, oracle.l2_error);
        assert_eq!(report.result.per_grid.len(), oracle.per_grid.len());
    }
}

#[test]
fn threads_fleet_serves_eight_interleaved_jobs_bit_identically() {
    let opts = EngineOpts {
        capacity_level: 4,
        ..EngineOpts::default()
    };
    let mut engine = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts).unwrap();
    submit_mix_and_check(&mut engine);
    assert_eq!(engine.jobs_served(), 8);
    // Every job created its own workers; the pool statistics span jobs.
    assert!(engine.fleet_workers_created() >= 8);
    let summary = engine.shutdown();
    assert_eq!(summary.jobs_served, 8);
}

#[test]
fn distributed_fleet_parks_perpetual_instances_between_jobs() {
    // In the distributed deployment each worker has its own task
    // instance; `{perpetual}` parks them between jobs instead of dying
    // (in the parallel deployment everything bundles into the start-up
    // instance, so there is nothing separate to park).
    let opts = EngineOpts {
        capacity_level: 2,
        ..EngineOpts::default()
    };
    let mode = RunMode::Distributed {
        hosts: RunMode::paper_hosts(),
    };
    let mut engine = Engine::threads(mode, Arc::new(PaperFaithful), opts).unwrap();
    for _ in 0..2 {
        let app = SequentialApp::new(2, 1, 1e-3);
        let oracle = app.run().unwrap();
        let report = engine.submit(AppConfig::new(app)).unwrap().wait().unwrap();
        assert_eq!(report.result.combined, oracle.combined);
        assert!(
            engine.parked_workers() >= 1,
            "no parked instances: {}",
            engine.parked_workers()
        );
    }
    engine.shutdown();
}

#[test]
fn procs_fleet_serves_eight_interleaved_jobs_bit_identically() {
    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(worker_exe());
    let opts = EngineOpts {
        capacity_level: 4,
        ..EngineOpts::default()
    };
    let mut engine = Engine::procs(cfg, Arc::new(PaperFaithful), opts).unwrap();
    submit_mix_and_check(&mut engine);
    assert_eq!(engine.jobs_served(), 8);
    let summary = engine.shutdown();
    assert_eq!(summary.jobs_served, 8);
    // The same two worker processes, one reader thread each, served all
    // eight jobs.
    assert_eq!(summary.reader_threads, 2);
}

#[test]
fn sim_fleet_serves_eight_jobs_and_warm_jobs_are_faster() {
    let mut engine = Engine::sim(None, Arc::new(PaperFaithful), EngineOpts::default()).unwrap();
    let mut latencies = Vec::new();
    for (root, level, through_master, policy) in job_mix() {
        let app = SequentialApp::new(root, level, 1e-3);
        let oracle = app.run().unwrap();
        let cfg = AppConfig {
            data_through_master: through_master,
            policy,
            ..AppConfig::new(app)
        };
        let report = engine.submit(cfg).unwrap().wait().unwrap();
        assert_eq!(report.result.combined, oracle.combined);
        assert_eq!(report.result.l2_error, oracle.l2_error);
        latencies.push(report.latency_s);
    }
    assert_eq!(engine.jobs_served(), 8);
    assert!(engine.parked_workers() >= 1);
    // Job 1 paid the application startup on the virtual timeline; every
    // warm job must beat it.
    for (i, warm) in latencies.iter().enumerate().skip(1) {
        assert!(
            *warm < latencies[0],
            "job {} ({warm}s) not below cold job 1 ({}s)",
            i + 1,
            latencies[0]
        );
    }
}

#[test]
fn submit_over_capacity_is_a_typed_rejection_not_a_panic() {
    // The fleet was provisioned for level 2; a level-5 job must bounce
    // with a typed error, and the fleet keeps serving jobs it can hold.
    let opts = EngineOpts {
        capacity_level: 2,
        ..EngineOpts::default()
    };
    let mut engine = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts).unwrap();
    match engine.submit(AppConfig::new(SequentialApp::new(2, 5, 1e-3))) {
        Err(err) => assert_eq!(
            err,
            SubmitError::OverCapacity {
                level: 5,
                capacity: 2
            }
        ),
        Ok(_) => panic!("over-capacity submit was admitted"),
    }
    let app = SequentialApp::new(2, 2, 1e-3);
    let oracle = app.run().unwrap();
    let report = engine.submit(AppConfig::new(app)).unwrap().wait().unwrap();
    assert_eq!(report.result.combined, oracle.combined);
    assert_eq!(engine.jobs_served(), 1);
    engine.shutdown();
}

#[test]
fn identical_jobs_on_one_engine_are_bit_identical_to_each_other() {
    // Same configuration served three times over one warm threads fleet:
    // job N's answer (and dispatch bookkeeping) must not depend on N.
    let opts = EngineOpts {
        capacity_level: 3,
        ..EngineOpts::default()
    };
    let mut engine = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts).unwrap();
    let app = SequentialApp::new(2, 3, 1e-3);
    let mut results = Vec::new();
    for _ in 0..3 {
        let report = engine.submit(AppConfig::new(app)).unwrap().wait().unwrap();
        results.push((
            report.result.combined,
            report.result.l2_error,
            report.outcome.pools()[0].workers_created,
        ));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    engine.shutdown();
}
