//! Kill-and-resume bit-identity: a run killed at an arbitrary point and
//! resumed from its checkpoint must produce exactly the bits of an
//! uninterrupted run — across several fault seeds, on both live backends.
//!
//! The work-counter oracle is an *uninterrupted concurrent* run (the
//! master counts per-grid data-staging ops the sequential program does not
//! perform); the solution fields are compared against the sequential run,
//! which every backend must reproduce bit for bit.

use std::path::PathBuf;
use std::sync::Arc;

use chaos::{FaultKind, FaultPlan};
use manifold::prelude::MfResult;
use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, JobReport, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mf-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn threads_run(app: SequentialApp, opts: EngineOpts) -> MfResult<JobReport> {
    Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts)?.run_one(AppConfig::new(app))
}

fn procs_run(app: SequentialApp, opts: EngineOpts) -> MfResult<JobReport> {
    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker")));
    Engine::procs(cfg, Arc::new(PaperFaithful), opts)?.run_one(AppConfig::new(app))
}

#[test]
fn threads_kill_at_every_point_resumes_bit_identically() {
    let app = SequentialApp::new(2, 2, 1e-3);
    let seq = app.run().unwrap();
    let uninterrupted = threads_run(app, EngineOpts::default()).unwrap();
    let jobs = 2 * app.level as u64 + 1;

    // Kill after every possible number of collected results — including
    // the last one, where the resumed master dispatches nothing and the
    // pool must still rendezvous.
    for kill_at in 1..=jobs {
        let dir = tmp_dir(&format!("threads-{kill_at}"));
        let opts = EngineOpts {
            faults: Some(
                FaultPlan::new(kill_at).push(FaultKind::MasterKill { at_result: kill_at }),
            ),
            checkpoint_dir: Some(dir.clone()),
            ..EngineOpts::default()
        };
        let err = threads_run(app, opts).unwrap_err().to_string();
        assert!(err.contains("master killed"), "kill_at {kill_at}: {err}");

        let resumed = EngineOpts {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..EngineOpts::default()
        };
        let run = threads_run(app, resumed).unwrap();
        assert_eq!(run.result.combined, seq.combined, "kill_at {kill_at}");
        assert_eq!(run.result.l2_error, seq.l2_error, "kill_at {kill_at}");
        assert_eq!(
            run.result.work, uninterrupted.result.work,
            "kill_at {kill_at}: resumed work accounting diverged"
        );
        // The restored results were logged, and a finished run cleared its
        // snapshot.
        assert!(run
            .records
            .iter()
            .any(|r| r.message.contains("restored from checkpoint")));
        assert!(!dir.join("run.ckpt").exists(), "stale snapshot left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn procs_kill_and_resume_is_bit_identical_across_seeds() {
    let app = SequentialApp::new(2, 2, 1e-3);
    let seq = app.run().unwrap();
    let jobs = 2 * app.level as u64 + 1;

    for seed in 1..=3u64 {
        let dog = chaos::Watchdog::arm(
            &format!("procs kill-resume seed {seed}"),
            std::time::Duration::from_secs(120),
        );
        let dir = tmp_dir(&format!("procs-{seed}"));
        // A seeded schedule of worker faults *plus* a master kill: the
        // resumed run must survive both kinds of failure in one go.
        let plan = FaultPlan::from_seed_with_master_kill(seed, 2, jobs);

        let opts = EngineOpts {
            retry_budget: 16,
            faults: Some(plan),
            checkpoint_dir: Some(dir.clone()),
            ..EngineOpts::default()
        };
        let err = procs_run(app, opts).unwrap_err().to_string();
        assert!(err.contains("master killed"), "seed {seed}: {err}");

        // Resume without the master kill (its job is done); worker faults
        // restart per incarnation and must still be harmless.
        let opts = EngineOpts {
            retry_budget: 16,
            faults: Some(FaultPlan::from_seed(seed, 2, jobs)),
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..EngineOpts::default()
        };
        let run = procs_run(app, opts).unwrap();

        assert_eq!(run.result.combined, seq.combined, "seed {seed}");
        assert_eq!(run.result.l2_error, seq.l2_error, "seed {seed}");
        assert!(!dir.join("run.ckpt").exists(), "stale snapshot left behind");
        let _ = std::fs::remove_dir_all(&dir);
        dog.disarm();
    }
}
