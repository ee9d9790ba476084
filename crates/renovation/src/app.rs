//! `mainprog.m` — wiring Master and Worker into `ProtocolMW`.
//!
//! ```text
//! manifold Main(process argv)
//! {
//!     begin: ProtocolMW(Master(argv), Worker).
//! }
//! ```
//!
//! One source program, two deployments (§6): change only the MLINK `load`
//! and the CONFIG host list to go from a *parallel* run (every process a
//! thread in one task instance) to a *distributed* run (each worker in its
//! own task instance on its own machine). [`RunMode`] captures exactly that
//! choice.

use std::path::PathBuf;
use std::sync::Arc;

use chaos::FaultPlan;
use manifold::config::{ConfigSpec, HostName};
use manifold::link::LinkSpec;
use manifold::prelude::*;
use manifold::trace::TraceRecord;
use protocol::{PaperFaithful, PolicyRef, ProtocolOutcome};
use solver::sequential::{SequentialApp, SequentialResult};

use crate::engine::{AppConfig, Engine, EngineOpts, JobHandle};

/// Deployment flavour — the paper's link/configure stage choice.
#[derive(Clone, Debug)]
pub enum RunMode {
    /// All processes bundled into one task instance (the paper's
    /// "change the load on line 5 of mainprog.mlink to 6"): a shared-memory
    /// parallel run.
    Parallel,
    /// One worker per task instance, task instances mapped onto the given
    /// machines (`{host …} {locus …}`): the distributed deployment. The
    /// processes still execute as local threads here — the *placement
    /// bookkeeping* and trace output follow the distributed semantics;
    /// virtual-time performance of a real cluster is the `cluster` crate's
    /// job.
    Distributed {
        /// Machines after the start-up machine.
        hosts: Vec<HostName>,
    },
}

impl RunMode {
    pub(crate) fn link_spec(&self, level: u32) -> LinkSpec {
        match self {
            // Load big enough for master + all workers in one instance.
            RunMode::Parallel => LinkSpec::default()
                .task("mainprog")
                .perpetual(true)
                .load(2 * level + 2)
                .weight("Master", 1)
                .weight("Worker", 1),
            RunMode::Distributed { .. } => LinkSpec::default()
                .task("mainprog")
                .perpetual(true)
                .load(1)
                .weight("Master", 1)
                .weight("Worker", 1),
        }
    }

    pub(crate) fn config_spec(&self) -> ConfigSpec {
        match self {
            RunMode::Parallel => ConfigSpec::with_startup("bumpa.sen.cwi.nl"),
            RunMode::Distributed { hosts } => {
                let mut spec = ConfigSpec::with_startup("bumpa.sen.cwi.nl");
                let mut vars = Vec::new();
                for (i, h) in hosts.iter().enumerate() {
                    let var = format!("host{}", i + 1);
                    spec = spec.host(var.as_str(), h.clone());
                    vars.push(var);
                }
                let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                spec.locus("mainprog", &refs)
            }
        }
    }

    /// The paper's five extra machines (§6).
    pub fn paper_hosts() -> Vec<HostName> {
        [
            "diplice.sen.cwi.nl",
            "alboka.sen.cwi.nl",
            "altfluit.sen.cwi.nl",
            "arghul.sen.cwi.nl",
            "basfluit.sen.cwi.nl",
        ]
        .iter()
        .map(HostName::new)
        .collect()
    }
}

/// Output of a live concurrent run.
#[derive(Debug)]
pub struct ConcurrentResult {
    /// The application result — bit-identical to the sequential program's.
    pub result: SequentialResult,
    /// Protocol bookkeeping (pools, workers created, deaths counted).
    pub outcome: ProtocolOutcome,
    /// The chronological §6-format trace of the run.
    pub records: Vec<TraceRecord>,
    /// Distinct machines that hosted a task instance during the run.
    pub machines_used: usize,
    /// Highest number of workers simultaneously inside their compute
    /// section. Bounded by the dispatch policy's in-flight window.
    pub peak_concurrent_workers: usize,
}

/// Run the renovated application concurrently. `data_through_master`
/// selects the paper's design (true) or the §4.1 I/O-worker alternative
/// (false); both produce identical numerical results. Dispatch uses the
/// paper's verified feed order ([`PaperFaithful`]).
pub fn run_concurrent(
    app: &SequentialApp,
    mode: &RunMode,
    data_through_master: bool,
) -> MfResult<ConcurrentResult> {
    run_concurrent_with_policy(app, mode, data_through_master, Arc::new(PaperFaithful))
}

/// [`run_concurrent`] with an explicit dispatch policy. All policies
/// produce bit-identical numerical results; they differ only in job order,
/// worker concurrency, and hence wall-clock/trace shape.
pub fn run_concurrent_with_policy(
    app: &SequentialApp,
    mode: &RunMode,
    data_through_master: bool,
    policy: PolicyRef,
) -> MfResult<ConcurrentResult> {
    run_concurrent_opts(app, mode, data_through_master, policy, &RunOpts::default())
}

/// Robustness options for a threads-backend run — the knobs the
/// `--checkpoint-dir` / `--resume` / `--faults` flags feed.
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Fault schedule to inject. Thread workers are anonymous (no fixed
    /// pool slots), so worker faults apply by *pool-wide* job ordinal
    /// regardless of the instance a token names; wire-level faults
    /// (drop/corrupt/hbdelay) have no transport here and are inert.
    pub faults: Option<FaultPlan>,
    /// Persist a checkpoint after every collected result.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint in `checkpoint_dir` (no-op when none
    /// exists yet).
    pub resume: bool,
    /// Override the master's lost-worker retry budget.
    pub retry_budget: Option<usize>,
    /// Sharded dispatch (`--shards N`, `--steal on|off`): shard masters
    /// over the same pool, flat when 1. Numerics are bit-identical for
    /// any shard count.
    pub shards: protocol::ShardSpec,
    /// Membership churn plan (`--churn join@N,leave@M`). Threads workers
    /// are anonymous, so churn is inert here; the procs backend applies
    /// it as real process joins/retirements.
    pub churn: protocol::ChurnPlan,
}

/// [`run_concurrent_with_policy`] plus chaos and checkpoint/resume
/// options.
///
/// Since the [`Engine`] refactor this is a thin wrapper: bring a threads
/// fleet up, serve exactly one job, tear it down. Multi-job callers hold
/// an `Engine` and keep the fleet.
pub fn run_concurrent_opts(
    app: &SequentialApp,
    mode: &RunMode,
    data_through_master: bool,
    policy: PolicyRef,
    opts: &RunOpts,
) -> MfResult<ConcurrentResult> {
    let engine_opts = EngineOpts {
        capacity_level: app.level,
        faults: opts.faults.clone(),
        checkpoint_dir: opts.checkpoint_dir.clone(),
        resume: opts.resume,
        retry_budget: opts.retry_budget,
        shards: opts.shards,
        churn: opts.churn.clone(),
    };
    let mut engine = Engine::threads(mode.clone(), policy, engine_opts)?;
    let handle = engine.submit(AppConfig::new(*app).with_data_through_master(data_through_master));
    let report = handle.map_err(MfError::from).and_then(JobHandle::wait);
    engine.shutdown();
    Ok(report?.into_concurrent())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identical(a: &SequentialResult, b: &SequentialResult) {
        assert_eq!(
            a.combined, b.combined,
            "combined fields must be bit-identical"
        );
        assert_eq!(a.l2_error, b.l2_error);
        assert_eq!(a.per_grid.len(), b.per_grid.len());
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let app = SequentialApp::new(2, 2, 1e-3);
        let seq = app.run().unwrap();
        let conc = run_concurrent(&app, &RunMode::Parallel, true).unwrap();
        check_identical(&conc.result, &seq);
        assert_eq!(conc.outcome.pools().len(), 1);
        assert_eq!(conc.outcome.pools()[0].workers_created, 5);
        // Parallel mode: everything in one task instance on one machine.
        assert_eq!(conc.machines_used, 1);
    }

    #[test]
    fn distributed_run_matches_sequential_bit_for_bit() {
        let app = SequentialApp::new(2, 1, 1e-3);
        let seq = app.run().unwrap();
        let conc = run_concurrent(
            &app,
            &RunMode::Distributed {
                hosts: RunMode::paper_hosts(),
            },
            true,
        )
        .unwrap();
        check_identical(&conc.result, &seq);
        // Master on the start-up machine + workers elsewhere.
        assert!(conc.machines_used >= 2);
    }

    #[test]
    fn io_worker_variant_matches_too() {
        let app = SequentialApp::new(2, 1, 1e-3);
        let seq = app.run().unwrap();
        let conc = run_concurrent(&app, &RunMode::Parallel, false).unwrap();
        check_identical(&conc.result, &seq);
    }

    #[test]
    fn level_zero_single_worker() {
        let app = SequentialApp::new(2, 0, 1e-3);
        let conc = run_concurrent(&app, &RunMode::Parallel, true).unwrap();
        assert_eq!(conc.outcome.pools()[0].workers_created, 1);
        assert_eq!(conc.result.per_grid.len(), 1);
    }

    #[test]
    fn bounded_reuse_caps_concurrent_workers() {
        // Level 6 over a coarse root: 13 grids, cheap subsolves. With a
        // pool of 3 the windowed dispatch must never let more than 3
        // workers compute at once — and the answer stays bit-identical.
        let app = SequentialApp::new(1, 6, 1e-3);
        let seq = app.run().unwrap();
        let conc = run_concurrent_with_policy(
            &app,
            &RunMode::Parallel,
            true,
            Arc::new(protocol::BoundedReuse::new(3)),
        )
        .unwrap();
        check_identical(&conc.result, &seq);
        assert_eq!(conc.outcome.pools()[0].workers_created, 13);
        assert!(
            conc.peak_concurrent_workers <= 3,
            "pool of 3 exceeded: peak {}",
            conc.peak_concurrent_workers
        );
        assert!(conc.peak_concurrent_workers >= 1);
    }

    #[test]
    fn cost_aware_policy_matches_sequential_bit_for_bit() {
        let app = SequentialApp::new(2, 2, 1e-3);
        let seq = app.run().unwrap();
        let conc = run_concurrent_with_policy(
            &app,
            &RunMode::Parallel,
            true,
            Arc::new(protocol::CostAware),
        )
        .unwrap();
        check_identical(&conc.result, &seq);
    }

    #[test]
    fn trace_shows_welcomes_and_byes() {
        let app = SequentialApp::new(2, 1, 1e-3);
        let conc = run_concurrent(
            &app,
            &RunMode::Distributed {
                hosts: RunMode::paper_hosts(),
            },
            true,
        )
        .unwrap();
        let welcomes = conc
            .records
            .iter()
            .filter(|r| r.message == "Welcome")
            .count();
        let byes = conc.records.iter().filter(|r| r.message == "Bye").count();
        // Master + 3 workers.
        assert_eq!(welcomes, 4);
        assert_eq!(byes, 4);
        // Workers ran in mainprog task instances on locus machines.
        assert!(conc
            .records
            .iter()
            .any(|r| r.manifold_name.as_str() == "Worker(event)"
                && r.host.as_str() != "bumpa.sen.cwi.nl"));
    }
}
