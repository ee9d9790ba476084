//! End-to-end integration: the renovated application against the
//! sequential original, across deployment modes — the §6 guarantee that
//! "the computational results … are exactly the same as in the sequential
//! version".

use std::sync::Arc;

use protocol::PolicyRef;
use renovation::{AppConfig, Engine, EngineOpts, JobReport, RunMode};
use solver::problem::Problem;
use solver::SequentialApp;

/// One job on a fresh threads fleet deployed as `mode` and sized to it.
fn run_policy(
    app: &SequentialApp,
    mode: &RunMode,
    data_through_master: bool,
    policy: PolicyRef,
) -> JobReport {
    let opts = EngineOpts {
        capacity_level: app.level,
        ..EngineOpts::default()
    };
    let job = AppConfig {
        data_through_master,
        ..AppConfig::new(*app)
    };
    Engine::threads(mode.clone(), policy, opts)
        .and_then(|engine| engine.run_one(job))
        .unwrap()
}

fn run(app: &SequentialApp, mode: &RunMode, data_through_master: bool) -> JobReport {
    run_policy(
        app,
        mode,
        data_through_master,
        Arc::new(protocol::PaperFaithful),
    )
}

#[test]
fn all_modes_agree_bit_for_bit_level2() {
    let app = SequentialApp::new(2, 2, 1.0e-3);
    let seq = app.run().unwrap();

    let parallel = run(&app, &RunMode::Parallel, true);
    assert_eq!(parallel.result.combined, seq.combined);

    let distributed = run(
        &app,
        &RunMode::Distributed {
            hosts: RunMode::paper_hosts(),
        },
        true,
    );
    assert_eq!(distributed.result.combined, seq.combined);

    let io_workers = run(&app, &RunMode::Parallel, false);
    assert_eq!(io_workers.result.combined, seq.combined);
}

#[test]
fn agreement_holds_across_levels_and_tolerances() {
    for (level, tol) in [(0u32, 1.0e-3), (1, 1.0e-4), (3, 1.0e-3)] {
        let app = SequentialApp::new(2, level, tol);
        let seq = app.run().unwrap();
        let conc = run(&app, &RunMode::Parallel, true);
        assert_eq!(
            conc.result.combined, seq.combined,
            "divergence at level {level}, tol {tol:e}"
        );
        assert_eq!(
            conc.outcome.pools()[0].workers_created as u32,
            2 * level + 1,
            "worker count formula w = 2l+1"
        );
    }
}

#[test]
fn agreement_on_manufactured_problem() {
    let app = SequentialApp::new(2, 2, 1.0e-4).with_problem(Problem::manufactured_benchmark());
    let seq = app.run().unwrap();
    let conc = run(&app, &RunMode::Parallel, true);
    assert_eq!(conc.result.combined, seq.combined);
    assert!(conc.result.l2_error < 1e-2);
}

#[test]
fn distributed_trace_reproduces_section6_structure() {
    let app = SequentialApp::new(2, 2, 1.0e-3);
    let conc = run(
        &app,
        &RunMode::Distributed {
            hosts: RunMode::paper_hosts(),
        },
        true,
    );
    let recs: Vec<_> = conc
        .records
        .iter()
        .filter(|r| r.message == "Welcome" || r.message == "Bye")
        .collect();
    // Master Welcome first; master Bye last; 5 workers in between.
    assert_eq!(
        recs.first().unwrap().manifold_name.as_str(),
        "Master(port in)"
    );
    assert_eq!(recs.first().unwrap().message, "Welcome");
    assert_eq!(
        recs.last().unwrap().manifold_name.as_str(),
        "Master(port in)"
    );
    assert_eq!(recs.last().unwrap().message, "Bye");
    let worker_welcomes = recs
        .iter()
        .filter(|r| r.manifold_name.as_str() == "Worker(event)" && r.message == "Welcome")
        .count();
    assert_eq!(worker_welcomes, 5);
    // The master runs on the start-up machine; workers never do (their
    // task instances fork on the locus machines).
    assert!(recs
        .iter()
        .filter(|r| r.manifold_name.as_str() == "Worker(event)")
        .all(|r| r.host.as_str() != "bumpa.sen.cwi.nl"));
    // Every record carries the full paper label (task uid, timestamps).
    for r in &conc.records {
        assert!(r.task_uid > 0);
        assert!(r.secs > 0);
    }
}

#[test]
fn five_host_cluster_reuses_machines_for_seven_workers() {
    // Level 3 → 7 workers on 5 locus machines: perpetual task reuse must
    // make it fit ("we need less than six machines to run an application
    // with five workers").
    let app = SequentialApp::new(2, 3, 1.0e-3);
    let conc = run(
        &app,
        &RunMode::Distributed {
            hosts: RunMode::paper_hosts(),
        },
        true,
    );
    assert_eq!(conc.outcome.pools()[0].workers_created, 7);
    assert!(conc.machines_used <= 6, "used {}", conc.machines_used);
    let seq = app.run().unwrap();
    assert_eq!(conc.result.combined, seq.combined);
}

#[test]
fn repeated_runs_are_deterministic() {
    let app = SequentialApp::new(2, 1, 1.0e-3);
    let a = run(&app, &RunMode::Parallel, true);
    let b = run(&app, &RunMode::Parallel, true);
    assert_eq!(a.result.combined, b.result.combined);
}

#[test]
fn every_policy_matches_sequential_in_every_mode() {
    // The scheduler acceptance matrix: all three dispatch policies, in
    // both deployment modes, must be bit-identical to the sequential
    // program — policies change only job order and worker concurrency.
    let app = SequentialApp::new(2, 2, 1.0e-3);
    let seq = app.run().unwrap();
    let policies: [protocol::PolicyRef; 3] = [
        Arc::new(protocol::PaperFaithful),
        Arc::new(protocol::BoundedReuse::new(2)),
        Arc::new(protocol::CostAware),
    ];
    let modes = [
        RunMode::Parallel,
        RunMode::Distributed {
            hosts: RunMode::paper_hosts(),
        },
    ];
    for policy in &policies {
        for mode in &modes {
            let conc = run_policy(&app, mode, true, policy.clone());
            assert_eq!(
                conc.result.combined,
                seq.combined,
                "policy {} diverged in {mode:?}",
                policy.name()
            );
            assert_eq!(conc.result.l2_error, seq.l2_error);
            assert_eq!(conc.outcome.pools()[0].workers_created, 5);
        }
    }
}
