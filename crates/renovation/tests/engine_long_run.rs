//! A perpetual fleet serves its last jobs as fast as its early ones, with
//! no more threads than the jobs it runs side by side can occupy.
//!
//! Three long runs, in sequence: 400 level-2 jobs on a threads fleet (the
//! distributed deployment, so warm jobs reuse parked instances), 400 on a
//! procs fleet of two worker processes, and a 20,000-job soak on that
//! procs fleet — long enough for a lost wake-up (one job in some
//! thousands hanging, and with it a lane) to show as a hang. Each run
//! keeps the fleet full ([`Engine::width`] jobs submitted at all times),
//! checks every answer bit for bit against the sequential oracle, and
//! fails if
//! * the median latency of the last tenth of its jobs exceeds 1.15× that
//!   of the second tenth;
//! * the fleet spawned more threads than `width` jobs can occupy: the
//!   master and one per worker each on threads, the master alone on
//!   procs, whose proxy workers and coordinator are stepped processes;
//! * the mean warm job (2 on) is not faster than cold job 1, whose
//!   latency includes building the fleet;
//! * the run took longer than its deadline: 300 s for each 400-job run,
//!   120 s for the soak.
//!
//! It measures wall time, so it is `#[ignore]`d; run it in release:
//!
//! ```text
//! cargo test --release -p renovation --test engine_long_run -- --ignored
//! ```
//!
//! The test lives in a binary of its own so no neighbouring test's
//! threads or load share its process.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

/// How much slower the last tenth of a run may be than its second tenth.
const FLAT_TOLERANCE: f64 = 1.15;

const LEVEL: u32 = 2;

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * 0.5).round() as usize]
}

/// Serve `jobs` identical solves through the engine `build` makes, keeping
/// it full, and assert the run stays flat, warm and thread-bounded and
/// finishes inside `deadline`.
fn long_run(backend: &str, jobs: usize, deadline: Duration, build: impl FnOnce() -> Engine) {
    let app = SequentialApp::new(2, LEVEL, 1e-3);
    let oracle = app.run().expect("sequential oracle");

    let t0 = Instant::now();
    let mut engine = build();
    let width = engine.width();
    let mut latencies_ms = vec![0.0; jobs];
    // Most threads one job can occupy: its master, and one per worker
    // where workers compute in this process.
    let mut job_threads = 0;
    let mut submitted = VecDeque::new();
    // The last `width - 1` turns only collect.
    for turn in 1..jobs + width {
        if turn <= jobs {
            let handle = engine
                .submit(AppConfig::new(app))
                .expect("engine admission");
            submitted.push_back((turn, Instant::now(), handle));
        }
        if turn < width {
            continue;
        }
        let (job, t_job, handle) = submitted.pop_front().expect("a job per turn");
        let report = handle.wait().expect("engine job");
        // Job 1 is cold: its latency includes the fleet's bring-up.
        let since = if job == 1 { t0 } else { t_job };
        latencies_ms[job - 1] = since.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            report.result.combined, oracle.combined,
            "{backend} job {job} drifted from the sequential oracle"
        );
        assert_eq!(report.result.l2_error, oracle.l2_error);
        let worker_threads = match backend {
            "procs" => 0,
            _ => report.outcome.workers_created(),
        };
        job_threads = job_threads.max(1 + worker_threads);
    }
    let summary = engine.shutdown();
    let took = t0.elapsed();
    assert_eq!(summary.jobs_served, jobs);

    let tenth = jobs.div_ceil(10);
    let early = median(&latencies_ms[tenth..2 * tenth]);
    let late = median(&latencies_ms[jobs - tenth..]);
    let cold = latencies_ms[0];
    let warm = latencies_ms[1..].iter().sum::<f64>() / (jobs - 1) as f64;
    eprintln!(
        "{backend}, {jobs} jobs {width} at a time: cold {cold:.3} ms, warm mean {warm:.3} ms, \
         second-tenth median {early:.3} ms, last-tenth median {late:.3} ms, \
         {} threads spawned ({job_threads} per job)",
        summary.threads_spawned
    );
    assert!(
        late <= FLAT_TOLERANCE * early,
        "{backend} slows as it serves: last tenth {late:.3} ms vs second tenth \
         {early:.3} ms (limit {FLAT_TOLERANCE}x)"
    );
    assert!(
        summary.threads_spawned as usize <= width * job_threads,
        "{backend} spawned {} threads for {width} jobs at a time, {job_threads} threads \
         each: threads are leaking",
        summary.threads_spawned
    );
    assert!(
        warm < cold,
        "{backend} warm mean {warm:.3} ms not below cold job 1 {cold:.3} ms: \
         fleet setup was not amortized"
    );
    assert!(
        took <= deadline,
        "{backend}: {jobs} jobs took {took:?}, over the {deadline:?} deadline"
    );
}

fn opts() -> EngineOpts {
    EngineOpts {
        capacity_level: LEVEL,
        ..EngineOpts::default()
    }
}

fn procs_engine() -> Engine {
    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker")));
    Engine::procs(cfg, Arc::new(PaperFaithful), opts()).expect("procs engine")
}

#[test]
#[ignore = "measures wall time over 20,800 jobs; run in release with --ignored"]
fn long_runs_stay_flat_warm_and_thread_bounded() {
    let long = Duration::from_secs(300);
    long_run("threads", 400, long, || {
        let mode = RunMode::Distributed {
            hosts: RunMode::paper_hosts(),
        };
        Engine::threads(mode, Arc::new(PaperFaithful), opts()).expect("threads engine")
    });
    long_run("procs", 400, long, procs_engine);
    long_run("procs", 20_000, Duration::from_secs(120), procs_engine);
}
