//! A perpetual fleet costs the same on its three-hundredth job as on its
//! twentieth.
//!
//! The one test lives in a binary of its own so the process's OS thread
//! count is the fleet's (plus the harness), not some neighbouring test's.
//! It fails if a job leaves behind a thread (the `variable` counters of
//! `Create_Worker_Pool` once did, two per job), a registry entry, or a
//! trace record.

use std::sync::Arc;

use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, FleetFootprint, RunMode};
use solver::sequential::SequentialApp;

/// OS threads of this process, where the OS can be asked.
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|tasks| tasks.count())
}

#[test]
fn three_hundred_jobs_leave_nothing_behind() {
    let app = SequentialApp::new(1, 2, 1e-3);
    let oracle = app.run().unwrap();
    let opts = EngineOpts {
        capacity_level: 2,
        ..EngineOpts::default()
    };
    let threads_before = os_threads();
    let mut engine = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts).unwrap();

    let mut warm: Option<FleetFootprint> = None;
    // A job's master and workers: the most threads it can occupy at once.
    let mut width = 0;
    for job in 1..=300 {
        let report = engine
            .submit(AppConfig::new(app))
            .expect("engine admission")
            .wait()
            .expect("engine job");
        assert_eq!(report.result.combined, oracle.combined, "job {job} drifted");
        assert_eq!(report.result.l2_error, oracle.l2_error, "job {job} drifted");
        width = width.max(1 + report.outcome.workers_created());
        if job == 20 {
            warm = Some(engine.footprint());
        }
    }
    let warm = warm.unwrap();
    let end = engine.footprint();
    assert_eq!(warm.live_processes, 0, "a job's processes outlived it");
    assert_eq!(warm.trace_records, 0, "a job's trace records outlived it");
    // coordinator + `now` + `t` + the job's width, every job alike.
    assert_eq!(warm.peak_live_processes, width + 3);
    assert_eq!(
        FleetFootprint {
            threads_spawned: warm.threads_spawned,
            ..end
        },
        warm,
        "the fleet grew with jobs served"
    );
    // How many of a job's processes happen to be alive at once is the
    // scheduler's business, so the thread count may creep up to the job's
    // width — and not one thread further, however many jobs are served.
    assert!(
        end.threads_spawned as usize <= width,
        "{} threads for jobs {width} processes wide",
        end.threads_spawned
    );
    if let (Some(before), Some(now)) = (threads_before, os_threads()) {
        assert!(
            now <= before + width,
            "{now} OS threads, {before} before the fleet"
        );
    }

    let summary = engine.shutdown();
    assert_eq!(summary.jobs_served, 300);
    assert_eq!(summary.threads_spawned, end.threads_spawned);
    assert_eq!(summary.peak_live_processes, end.peak_live_processes);
}
