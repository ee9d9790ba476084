//! Repeated-kill soak: a full level-5 run on the procs backend where a
//! worker process is killed on the second job of *every* incarnation, on
//! *both* instances. Each incarnation completes exactly one job before it
//! dies, so the run advances one job per respawn per slot — brutal but
//! survivable within the retry budget. The solution must still come out
//! bit-identical to the sequential program, and the whole ordeal must end
//! inside the watchdog window rather than hang.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use chaos::{FaultKind, FaultPlan, Watchdog};
use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, ProcsConfig};
use solver::sequential::SequentialApp;

#[test]
fn procs_survives_a_worker_kill_on_every_incarnation() {
    let dog = Watchdog::arm("repeated-kill soak", Duration::from_secs(300));

    let app = SequentialApp::new(1, 5, 1e-3); // 11 jobs
    let seq = app.run().unwrap();

    // Job ordinals restart on respawn, so `crash@2` re-arms in every
    // incarnation: each worker does one job, takes a second, dies mid-way.
    let plan = FaultPlan::new(0)
        .push(FaultKind::WorkerCrash {
            instance: 0,
            on_job: 2,
        })
        .push(FaultKind::WorkerCrash {
            instance: 1,
            on_job: 2,
        });

    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker")));
    let opts = EngineOpts {
        faults: Some(plan),
        retry_budget: 24,
        ..EngineOpts::default()
    };

    let run = Engine::procs(cfg, Arc::new(PaperFaithful), opts)
        .and_then(|engine| engine.run_one(AppConfig::new(app)))
        .unwrap();

    assert_eq!(run.result.combined, seq.combined);
    assert_eq!(run.result.l2_error, seq.l2_error);

    // With 11 jobs across 2 slots that each lose every second job, the run
    // cannot finish without a sustained series of losses and respawns.
    let losses = run
        .records
        .iter()
        .filter(|r| r.message.contains("worker lost"))
        .count();
    assert!(
        losses >= 3,
        "expected a sustained kill schedule, saw {losses} losses"
    );

    dog.disarm();
}
