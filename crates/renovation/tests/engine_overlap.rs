//! Jobs in flight together on one fleet: submitted without waiting in
//! between, each still gets its own answer, its own trace, its own
//! failures.
//!
//! `engine_jobs.rs` submits its 8-job mix one job at a time; here the same
//! mix goes in back to back, so on the procs fleet (two worker processes,
//! width 4) four jobs' coordinators, masters and proxies really are alive
//! at once over one environment, one pool and one gauge — twice as many
//! jobs as there are workers to compute for them, the rest waiting in the
//! pool's queue. The threads fleet is one job wide: the same calls, the
//! same code, one slot.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use chaos::{FaultKind, FaultPlan};
use protocol::{BoundedReuse, CostAware, DispatchPolicy, PaperFaithful, PolicyRef};
use renovation::{AppConfig, Engine, EngineOpts, JobHandle, JobReport, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker"))
}

fn threads_fleet(opts: EngineOpts) -> Engine {
    Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts).unwrap()
}

fn procs_fleet(opts: EngineOpts) -> Engine {
    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(worker_exe());
    Engine::procs(cfg, Arc::new(PaperFaithful), opts).unwrap()
}

fn level4() -> EngineOpts {
    EngineOpts {
        capacity_level: 4,
        ..EngineOpts::default()
    }
}

/// `engine_jobs.rs`'s mix: every knob changes between consecutive jobs.
fn job_mix() -> Vec<AppConfig> {
    let mix: Vec<(u32, u32, bool, Option<PolicyRef>)> = vec![
        (2, 2, true, None),
        (1, 4, true, Some(Arc::new(BoundedReuse::new(2)))),
        (2, 1, false, Some(Arc::new(CostAware))),
        (2, 3, true, None),
        (1, 2, true, Some(Arc::new(CostAware))),
        (2, 0, true, None),
        (1, 3, false, Some(Arc::new(BoundedReuse::new(3)))),
        (2, 2, true, Some(Arc::new(PaperFaithful))),
    ];
    mix.into_iter()
        .map(|(root, level, through_master, policy)| {
            let cfg = AppConfig::new(SequentialApp::new(root, level, 1e-3))
                .with_data_through_master(through_master);
            match policy {
                Some(p) => cfg.with_policy(p),
                None => cfg,
            }
        })
        .collect()
}

/// What a job's trace says, with everything that legitimately varies from
/// run to run (time, process numbering, which worker took which subsolve)
/// left out: who printed what, sorted.
fn lines(report: &JobReport) -> Vec<(String, String)> {
    let mut lines: Vec<(String, String)> = report
        .records
        .iter()
        .map(|r| (r.manifold_name.to_string(), r.message.clone()))
        .collect();
    lines.sort();
    lines
}

fn process_ids(report: &JobReport) -> BTreeSet<u64> {
    report.records.iter().map(|r| r.proc_uid).collect()
}

/// Submit the whole mix without waiting, then check every report against
/// the sequential oracle and against the same job run alone on `solo`.
fn overlapped_mix_matches_solo_runs(mut fleet: Engine, mut solo: Engine, workers: usize) {
    let handles: Vec<JobHandle> = job_mix()
        .into_iter()
        .map(|cfg| fleet.submit(cfg).expect("engine admission"))
        .collect();
    assert!(fleet.in_flight() <= fleet.width());
    let reports: Vec<JobReport> = handles
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            assert_eq!(h.id(), (i + 1) as u64);
            h.wait().unwrap()
        })
        .collect();

    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for (report, cfg) in reports.iter().zip(job_mix()) {
        let job = report.job;
        let oracle = cfg.app.run().unwrap();
        assert_eq!(report.result.combined, oracle.combined, "job {job} drifted");
        assert_eq!(report.result.l2_error, oracle.l2_error, "job {job} drifted");

        // Exactly its own lines: the same job alone on a fleet of its own
        // prints the same ones — none of a neighbour's, none missing.
        let alone = solo.submit(cfg).unwrap().wait().unwrap();
        assert_eq!(lines(report), lines(&alone), "job {job}'s trace");
        assert_eq!(report.outcome, alone.outcome, "job {job}'s pools");
        let welcomes = report
            .records
            .iter()
            .filter(|r| r.manifold_name.as_str() == "Worker(event)" && r.message == "Welcome")
            .count();
        assert_eq!(welcomes, report.outcome.workers_created());
        // A subsolve counts while it is on a worker's wire, not while it
        // waits for one: however many jobs share the fleet, no more run
        // than there are workers.
        assert!(
            report.peak_concurrent_workers <= workers,
            "job {job}: {} subsolves at once on {workers} workers",
            report.peak_concurrent_workers
        );

        // And its own processes: no process printed into two reports.
        let ids = process_ids(report);
        assert!(
            ids.is_disjoint(&seen),
            "job {job} reports a process another job reported"
        );
        seen.extend(ids);
    }

    assert_eq!(fleet.jobs_served(), 8);
    assert_eq!(
        fleet.fleet_workers_created(),
        reports
            .iter()
            .map(|r| r.outcome.workers_created())
            .sum::<usize>()
    );
    let idle = fleet.footprint();
    assert_eq!(idle.live_processes, 0);
    assert_eq!(idle.trace_records, 0);
    assert_eq!(fleet.shutdown().jobs_served, 8);
    solo.shutdown();
}

#[test]
fn procs_fleet_overlaps_the_mix_and_keeps_every_job_apart() {
    let fleet = procs_fleet(level4());
    assert_eq!(fleet.width(), 4, "two jobs per worker process");
    overlapped_mix_matches_solo_runs(fleet, procs_fleet(level4()), 2);
}

#[test]
fn threads_fleet_takes_the_same_calls_one_job_wide() {
    let fleet = threads_fleet(level4());
    assert_eq!(fleet.width(), 1);
    // Level 4 dispatches nine subsolves, each a computing thread.
    overlapped_mix_matches_solo_runs(fleet, threads_fleet(level4()), 9);
}

#[test]
fn a_checkpointing_fleet_is_one_job_wide() {
    let dir = std::env::temp_dir().join(format!("engine-overlap-ck-{}", std::process::id()));
    let opts = EngineOpts {
        checkpoint_dir: Some(dir.clone()),
        ..level4()
    };
    let fleet = procs_fleet(opts);
    assert_eq!(fleet.width(), 1, "jobs would share the one snapshot file");
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn next_finished_hands_out_every_job_once() {
    let mut fleet = procs_fleet(level4());
    let app = SequentialApp::new(1, 2, 1e-3);
    let oracle = app.run().unwrap();
    let mut handles: Vec<JobHandle> = Vec::new();
    let mut finished: Vec<u64> = Vec::new();
    for _ in 0..10 {
        // Keep the fleet full: a slot frees exactly when a job is reaped.
        if fleet.in_flight() == fleet.width() {
            finished.extend(fleet.next_finished());
        }
        handles.push(fleet.submit(AppConfig::new(app)).unwrap());
    }
    while let Some(id) = fleet.next_finished() {
        finished.push(id);
    }
    assert_eq!(fleet.in_flight(), 0);
    finished.sort_unstable();
    assert_eq!(finished, (1..=10).collect::<Vec<u64>>());
    for h in handles {
        assert!(h.is_finished());
        assert_eq!(h.wait().unwrap().result.combined, oracle.combined);
    }
    fleet.shutdown();
}

/// A dispatch policy that brings its job's master down.
struct Panicking;

impl DispatchPolicy for Panicking {
    fn name(&self) -> &'static str {
        "panicking"
    }
    fn order(&self, _costs: &[f64]) -> Vec<usize> {
        panic!("policy bug");
    }
}

fn one_jobs_crash_fails_that_job_only(mut fleet: Engine) {
    let app = SequentialApp::new(2, 3, 1e-3);
    let oracle = app.run().unwrap();
    let configs = [
        AppConfig::new(app),
        AppConfig::new(app).with_policy(Arc::new(Panicking)),
        AppConfig::new(app),
        AppConfig::new(app),
    ];
    let handles: Vec<JobHandle> = configs
        .into_iter()
        .map(|cfg| fleet.submit(cfg).unwrap())
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        match (i, h.wait()) {
            (1, Err(e)) => assert!(e.to_string().contains("panicked"), "got: {e}"),
            (1, Ok(_)) => panic!("the crashed job reported success"),
            (_, Ok(report)) => assert_eq!(report.result.combined, oracle.combined),
            (_, Err(e)) => panic!("job {} failed beside the crashed one: {e}", i + 1),
        }
    }
    // The fleet is whole: nothing of the dead job is left in it.
    assert_eq!(fleet.footprint().live_processes, 0);
    let report = fleet.submit(AppConfig::new(app)).unwrap().wait().unwrap();
    assert_eq!(report.result.combined, oracle.combined);
    fleet.shutdown();
}

#[test]
fn a_crashed_master_fails_its_own_job_only_on_procs() {
    one_jobs_crash_fails_that_job_only(procs_fleet(level4()));
}

#[test]
fn a_crashed_master_fails_its_own_job_only_on_threads() {
    one_jobs_crash_fails_that_job_only(threads_fleet(level4()));
}

/// Worker process 0 dies on its third subsolve and nothing may be retried
/// or respawned: the one job whose subsolve was on its wire fails with the
/// budget's message — the subsolves waiting for a worker were nobody's yet
/// and go to the other one — every other job is bit-identical, and the
/// fleet serves on with the worker it has left.
#[test]
fn an_exhausted_retry_budget_fails_the_jobs_it_hit_and_the_fleet_serves_on() {
    let plan = FaultPlan::new(0).push(FaultKind::WorkerCrash {
        instance: 0,
        on_job: 3,
    });
    let mut fleet = procs_fleet(EngineOpts {
        faults: Some(plan),
        retry_budget: Some(0),
        ..level4()
    });
    let app = SequentialApp::new(2, 2, 1e-3);
    let oracle = app.run().unwrap();
    let handles: Vec<JobHandle> = (0..6)
        .map(|_| fleet.submit(AppConfig::new(app)).unwrap())
        .collect();
    let mut failed = 0;
    for h in handles {
        match h.wait() {
            Ok(report) => assert_eq!(report.result.combined, oracle.combined),
            Err(e) => {
                assert!(e.to_string().contains("retry budget"), "got: {e}");
                failed += 1;
            }
        }
    }
    assert_eq!(failed, 1, "{failed} jobs failed for one lost worker");
    for _ in 0..3 {
        let report = fleet.submit(AppConfig::new(app)).unwrap().wait().unwrap();
        assert_eq!(report.result.combined, oracle.combined);
    }
    fleet.shutdown();
}
