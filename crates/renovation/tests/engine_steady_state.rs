//! A perpetual fleet costs the same on its three-hundredth job as on its
//! twentieth.
//!
//! The one test lives in a binary of its own so the process's OS thread
//! count is the fleet's (plus the harness), not some neighbouring test's.
//! It fails if a job leaves behind a thread (the `variable` counters of
//! `Create_Worker_Pool` once did, two per job), a registry entry, or a
//! trace record — on a threads fleet serving one job at a time, and then
//! on a procs fleet kept four jobs full, whose coordinators and proxy
//! workers are stepped processes: a job in flight there is one thread, its
//! master's, and the fleet adds one reader per worker connection.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, FleetFootprint, JobHandle, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

/// OS threads of this process, where the OS can be asked.
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|tasks| tasks.count())
}

#[test]
fn three_hundred_jobs_leave_nothing_behind() {
    let opts = || EngineOpts {
        capacity_level: 2,
        ..EngineOpts::default()
    };
    // One after the other, in one test: the OS thread count is the fleet's.
    let threads = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts()).unwrap();
    assert_eq!(threads.width(), 1);
    serve_three_hundred(threads, None);

    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker")));
    let procs = Engine::procs(cfg, Arc::new(PaperFaithful), opts()).unwrap();
    assert_eq!(procs.width(), 4);
    serve_three_hundred(procs, Some(1));
}

/// Keep `engine` full — `width` jobs submitted at all times — for 300
/// jobs and hold it to what `width` jobs need, no more: `threads_per_job`
/// threads each, or one per threaded process of the widest job — its
/// master and its workers — when `None`.
fn serve_three_hundred(mut engine: Engine, threads_per_job: Option<usize>) {
    let app = SequentialApp::new(1, 2, 1e-3);
    let oracle = app.run().unwrap();
    let threads_before = os_threads();
    let width = engine.width();

    let mut warm: Option<FleetFootprint> = None;
    // A job's coordinator, master and workers: the most processes it can
    // have alive at once, `now` and `t` apart.
    let mut job_width = 0;
    let mut pending = VecDeque::new();
    for job in 1..300 + width {
        // `width` jobs submitted at all times; the last `width - 1` turns of
        // the loop only collect.
        if job <= 300 {
            pending.push_back(
                engine
                    .submit(AppConfig::new(app))
                    .expect("engine admission"),
            );
        }
        if job < width {
            continue;
        }
        let handle: JobHandle = pending.pop_front().expect("one job per turn");
        let id = handle.id();
        let report = handle.wait().expect("engine job");
        assert_eq!(report.result.combined, oracle.combined, "job {id} drifted");
        assert_eq!(report.result.l2_error, oracle.l2_error, "job {id} drifted");
        job_width = job_width.max(2 + report.outcome.workers_created());
        if id == 20 {
            warm = Some(engine.footprint());
        }
    }
    assert!(pending.is_empty());
    assert_eq!(engine.in_flight(), 0);
    let warm = warm.unwrap();
    let end = engine.footprint();
    if width == 1 {
        assert_eq!(warm.live_processes, 0, "a job's processes outlived it");
        assert_eq!(warm.trace_records, 0, "a job's trace records outlived it");
    }
    assert_eq!(end.live_processes, 0, "a job's processes outlived it");
    assert_eq!(end.trace_records, 0, "a job's trace records outlived it");
    // `now` + `t` + the job's width, for every job that can be in flight.
    assert!(warm.peak_live_processes <= width * (job_width + 2));
    assert!(end.peak_live_processes <= width * (job_width + 2));
    if width == 1 {
        assert_eq!(warm.peak_live_processes, job_width + 2, "every job alike");
        assert_eq!(end.peak_live_processes, warm.peak_live_processes);
    }
    // How many of a job's processes happen to be alive at once is the
    // scheduler's business, so the thread count may creep up to what
    // `width` jobs can occupy — and not one thread further, however many
    // jobs are served.
    // The coordinator is a stepped process: it never occupies a thread.
    let threads_per_job = threads_per_job.unwrap_or(job_width - 1);
    assert!(
        end.threads_spawned as usize <= width * threads_per_job,
        "{} threads for {width} jobs of {threads_per_job} threads each",
        end.threads_spawned
    );
    if let (Some(before), Some(now)) = (threads_before, os_threads()) {
        assert!(
            now <= before + width * threads_per_job,
            "{now} OS threads, {before} before the fleet"
        );
    }

    let summary = engine.shutdown();
    assert_eq!(summary.jobs_served, 300);
    assert_eq!(summary.threads_spawned, end.threads_spawned);
    assert_eq!(summary.peak_live_processes, end.peak_live_processes);
}
