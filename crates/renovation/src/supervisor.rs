//! The supervisor: master-death detection + relaunch.
//!
//! The paper's protocol makes *worker* death an ordinary, observable event
//! (`death_worker`), but a dying **master** takes the whole run with it.
//! This module closes that gap with a small state machine around the
//! master: it runs the application, and when the run died rather than
//! finished it launches a fresh incarnation that resumes from the last
//! checkpoint (see [`crate::checkpoint`]). Because the master checkpoints
//! every collected result before it can die, and a resumed run restores
//! those results instead of re-collecting them, each distinct failure
//! costs at most one relaunch. Nothing else observes a master's death, so
//! the supervisor is a loop on the caller's thread, not a MANIFOLD
//! process.
//!
//! The relaunch budget bounds the other half of the chaos-harness
//! invariant: a run whose faults exceed its budgets must end in a
//! *diagnosed* error in bounded time, not a retry loop.
//!
//! An incarnation is whatever the caller's closure runs — typically one
//! [`Engine::run_one`](crate::Engine::run_one) with
//! [`EngineOpts::resume`](crate::EngineOpts::resume) set from the flag the
//! supervisor passes in.

use manifold::prelude::*;

use crate::engine::JobReport;

/// Outcome of a supervised run.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The surviving incarnation's report.
    pub result: JobReport,
    /// How many times the supervisor relaunched a dead run.
    pub relaunches: usize,
    /// Why each dead incarnation died, in order (one per relaunch).
    pub causes: Vec<MfError>,
}

/// Run `launch` under a supervisor with the given relaunch budget.
///
/// `launch(resume)` runs one incarnation of the application: `false` on
/// the first attempt, `true` on every relaunch — the callee wires that
/// flag to its checkpoint store ([`EngineOpts::resume`](crate::EngineOpts::resume)).
/// The first incarnation may also
/// resume, if its caller already holds a checkpoint from an earlier
/// process; the supervisor only *escalates* the flag, never clears it.
pub fn supervise<F>(relaunch_budget: usize, mut launch: F) -> MfResult<SupervisedRun>
where
    F: FnMut(bool) -> MfResult<JobReport>,
{
    let mut causes = Vec::new();
    loop {
        match launch(!causes.is_empty()) {
            Ok(result) => {
                return Ok(SupervisedRun {
                    result,
                    relaunches: causes.len(),
                    causes,
                })
            }
            Err(err) if causes.len() < relaunch_budget => causes.push(err),
            Err(err) => {
                return Err(MfError::App(format!(
                    "supervisor: relaunch budget ({relaunch_budget}) exhausted: {err}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::{AppConfig, Engine, EngineOpts, RunMode};
    use chaos::{FaultKind, FaultPlan};
    use protocol::PaperFaithful;
    use solver::sequential::SequentialApp;

    fn run(app: SequentialApp, opts: EngineOpts) -> MfResult<JobReport> {
        Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts)?
            .run_one(AppConfig::new(app))
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mf-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn supervisor_relaunches_a_killed_master_bit_identically() {
        let app = SequentialApp::new(2, 2, 1e-3);
        let seq = app.run().unwrap();
        // The work-counter oracle is an *uninterrupted concurrent* run: the
        // master counts its per-grid data-staging ops, which the sequential
        // program does not perform.
        let uninterrupted = run(app, EngineOpts::default()).unwrap();
        let dir = tmp_dir("relaunch");
        let plan = FaultPlan::new(7).push(FaultKind::MasterKill { at_result: 2 });
        let opts = EngineOpts {
            faults: Some(plan),
            checkpoint_dir: Some(dir.clone()),
            ..EngineOpts::default()
        };
        let sup = supervise(2, move |resume| {
            run(
                app,
                EngineOpts {
                    resume,
                    ..opts.clone()
                },
            )
        })
        .unwrap();
        assert_eq!(sup.relaunches, 1, "one kill, one relaunch");
        assert_eq!(sup.result.result.combined, seq.combined);
        assert_eq!(sup.result.result.l2_error, seq.l2_error);
        assert_eq!(sup.result.result.work, uninterrupted.result.work);
        assert_eq!(sup.causes.len(), 1);
        assert!(
            sup.causes[0].to_string().contains("master killed"),
            "{}",
            sup.causes[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_relaunch_budget_is_a_diagnosed_error() {
        let app = SequentialApp::new(2, 1, 1e-3);
        let err = supervise(1, move |_resume| -> MfResult<JobReport> {
            let _ = app;
            Err(MfError::App("synthetic: master exploded".into()))
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("relaunch budget"), "{err}");
        assert!(err.contains("master exploded"), "{err}");
    }
}
