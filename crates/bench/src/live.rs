//! Live-backend selection for the experiment drivers.
//!
//! The simulated cluster regenerates the paper's numbers; the *live*
//! backends actually execute the renovated application — either with every
//! process a thread of the driver (`threads`) or with worker task
//! instances as separate OS processes over the transport (`procs`). The
//! point of exposing both behind one flag is the paper's modernization
//! claim: the application is identical, only the deployment changes, and
//! the numbers must not. Both run through the one entry point every live
//! job uses, `Engine::{threads,procs}(…)?.run_one(job)`, under the same
//! [`EngineOpts`].

use std::time::Instant;

use manifold::prelude::MfResult;
use protocol::PolicyRef;
use renovation::{AppConfig, Engine, EngineOpts, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

/// Which engine executes a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The virtual-time cluster simulator (regenerates the paper's tables).
    Sim,
    /// Live run, all processes as threads of this program.
    Threads,
    /// Live run, worker task instances as separate OS processes connected
    /// over the transport (localhost placement).
    Procs,
}

impl Backend {
    /// Parse a `--backend` argument.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "threads" => Some(Backend::Threads),
            "procs" => Some(Backend::Procs),
            _ => None,
        }
    }
}

/// One live run's observables. Everything except `wall_s` must be
/// identical between the `threads` and `procs` backends.
#[derive(Clone, Debug)]
pub struct LiveRun {
    /// Refinement level of the run.
    pub level: u32,
    /// `subsolve` jobs dispatched (2·level + 1).
    pub jobs: usize,
    /// L2 error of the combined solution against the exact solution.
    pub l2_error: f64,
    /// FNV-1a hash over the raw bits of the combined field — a compact
    /// witness of bit-identity across backends.
    pub checksum: u64,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Peak simultaneously-computing workers.
    pub peak: usize,
    /// Workers created by the protocol (incl. re-dispatches after loss).
    pub workers_created: usize,
    /// `worker lost` events the master observed (0 without injected
    /// faults or real losses).
    pub losses: usize,
    /// Work-steal events between shard queues (0 when flat).
    pub steals: usize,
    /// Workers that joined mid-run under the churn plan.
    pub joins: usize,
    /// Workers retired mid-run under the churn plan.
    pub leaves: usize,
}

/// FNV-1a over the bit patterns of a float field (one shared definition —
/// the serving layer's, so client- and bench-side witnesses agree).
pub use serve::proto::field_checksum;

/// Execute one live run of `app` on the chosen backend, with the fleet
/// sized to `app.level` and every other option — faults, checkpointing,
/// retries, shards, churn — taken from `opts`. A run whose faults exceed
/// its budgets returns the master's diagnosed error instead of a result.
///
/// `instances` is the number of worker processes for [`Backend::Procs`]
/// (ignored by [`Backend::Threads`], where concurrency is the dispatch
/// policy's business). Panics on [`Backend::Sim`] — the simulator has its
/// own drivers.
pub fn run_live(
    backend: Backend,
    app: &SequentialApp,
    policy: PolicyRef,
    instances: usize,
    opts: &EngineOpts,
) -> MfResult<LiveRun> {
    let t0 = Instant::now();
    let opts = EngineOpts {
        capacity_level: app.level,
        ..opts.clone()
    };
    let engine = match backend {
        Backend::Sim => panic!("run_live is for the live backends; sim has its own drivers"),
        Backend::Threads => Engine::threads(RunMode::Parallel, policy, opts)?,
        Backend::Procs => Engine::procs(ProcsConfig::new(instances.max(1)), policy, opts)?,
    };
    let conc = engine.run_one(AppConfig::new(*app))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let losses = conc
        .records
        .iter()
        .filter(|r| r.message.contains("worker lost"))
        .count();
    let count = |prefix: &str| {
        conc.records
            .iter()
            .filter(|r| r.message.starts_with(prefix))
            .count()
    };
    let (steals, joins, leaves) = (
        count("steal: shard"),
        count("join: instance"),
        count("leave: instance"),
    );
    Ok(LiveRun {
        level: app.level,
        jobs: conc.result.per_grid.len(),
        l2_error: conc.result.l2_error,
        checksum: field_checksum(&conc.result.combined),
        wall_s,
        peak: conc.peak_concurrent_workers,
        workers_created: conc.outcome.pools()[0].workers_created,
        losses,
        steals,
        joins,
        leaves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Sim));
        assert_eq!(Backend::parse("threads"), Some(Backend::Threads));
        assert_eq!(Backend::parse("procs"), Some(Backend::Procs));
        assert_eq!(Backend::parse("cloud"), None);
    }

    #[test]
    fn checksum_is_bit_sensitive() {
        let a = field_checksum(&[1.0, 2.0, 3.0]);
        let b = field_checksum(&[1.0, 2.0, 3.0000000000000004]);
        assert_ne!(a, b);
        assert_ne!(field_checksum(&[0.0]), field_checksum(&[-0.0]));
        assert_eq!(a, field_checksum(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn threads_live_run_reports_consistent_observables() {
        let app = SequentialApp::new(2, 1, 1e-3);
        let run = run_live(
            Backend::Threads,
            &app,
            std::sync::Arc::new(protocol::PaperFaithful),
            1,
            &EngineOpts::default(),
        )
        .unwrap();
        assert_eq!(run.jobs, 3);
        assert_eq!(run.workers_created, 3);
        let seq = app.run().unwrap();
        assert_eq!(run.checksum, field_checksum(&seq.combined));
        assert_eq!(run.l2_error, seq.l2_error);
    }
}
