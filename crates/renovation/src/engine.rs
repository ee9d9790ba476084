//! The multi-job [`Engine`]: one persistent worker fleet, many jobs.
//!
//! The one-shot entry points ([`run_concurrent`](crate::run_concurrent),
//! [`run_concurrent_procs`](crate::run_concurrent_procs), the simulated
//! runs) bring a whole deployment up — MANIFOLD environment, worker
//! processes, sockets — solve one problem, and tear everything down. That
//! is the paper's batch shape, but a renovated application serving a
//! *stream* of problems should pay the bring-up once. `Engine` is that
//! refactor: construct it once with a backend, then [`Engine::submit`] any
//! number of [`AppConfig`]s against the same fleet.
//!
//! Lifecycle:
//!
//! ```text
//! Engine::new ──► fleet up (env / worker processes / simulated cluster)
//!    submit(cfg₁) ─► job-scoped master #1 ─► JobReport (bit-identical)
//!    submit(cfg₂) ─► job-scoped master #2 ─► JobReport (warm: no bring-up)
//!    ...
//! engine.shutdown() ──► fleet down, EngineSummary
//! ```
//!
//! Every job runs a *fresh, job-scoped* master over the *shared* fleet:
//! the [`protocol::PerpetualPool`] serves each master in turn (threads and
//! procs), worker processes survive across jobs with every wire unit
//! tagged by job id (procs), and the discrete-event simulation keeps one
//! virtual timeline with parked perpetual task instances
//! ([`cluster::SimFleet`]). Per-job numerical results are bit-identical to
//! a solo one-shot run of the same configuration on every backend; the
//! one-shot entry points are now thin wrappers over a single-job engine.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chaos::{FaultKind, FaultPlan};
use cluster::{Perturbation, SimFleet};
use manifold::prelude::*;
use manifold::remote::{ConduitSource, RemoteIdentity};
use manifold::trace::TraceRecord;
use parking_lot::Mutex;
use protocol::{MasterHandle, PaperFaithful, PerpetualPool, PolicyRef, PoolStats, ProtocolOutcome};
use solver::sequential::{SequentialApp, SequentialResult};
use transport::{PoolConfig, RemoteWorkerPool};

use crate::app::{ConcurrentResult, RunMode};
use crate::checkpoint::CheckpointStore;
use crate::cost::CostModel;
use crate::master::{master_body, FleetMembership, MasterConfig};
use crate::procs::{GaugedSource, ProcsConfig};
use crate::virtualrun::paper_sim;
use crate::worker::{worker_factory_chaos, worker_factory_with_gauge, WorkerGauge};

/// Which fleet an [`Engine`] runs on.
pub enum EngineBackend {
    /// Worker process instances as threads in one OS process (the paper's
    /// parallel/distributed deployments, chosen by [`RunMode`]).
    Threads {
        /// Link/configure stage choice for the fleet's environment.
        mode: RunMode,
    },
    /// Worker task instances as separate OS processes over TCP or Unix
    /// sockets; the processes survive across jobs.
    Procs {
        /// Pool shape (instances, bind mode, worker binary, timeouts).
        cfg: ProcsConfig,
    },
    /// The discrete-event simulation of the paper's workstation cluster,
    /// on one continuous virtual timeline.
    Sim {
        /// `None` runs noise-free; `Some(seed)` applies the seeded
        /// overnight multi-user noise model.
        noise_seed: Option<u64>,
    },
}

/// Fleet-construction options — the engine-lifetime analogue of
/// [`RunOpts`](crate::RunOpts).
#[derive(Clone, Debug)]
pub struct EngineOpts {
    /// Largest `app.level` the fleet must accommodate: sizes the MANIFOLD
    /// link load (threads/procs). Submitting a job above this capacity
    /// exhausts the instance load and fails the job, not the fleet.
    pub capacity_level: u32,
    /// Fault schedule. Job ordinals count across the fleet's whole life,
    /// so a plan can target any job the engine will ever serve — fault
    /// plans extend across job boundaries.
    pub faults: Option<FaultPlan>,
    /// Persist a checkpoint after every collected result (per job).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume the *first* submitted job from the checkpoint in
    /// `checkpoint_dir` (no-op when none exists yet).
    pub resume: bool,
    /// Override the lost-worker retry budget (default: backend's own).
    pub retry_budget: Option<usize>,
    /// Sharded dispatch: partition each job's dispatch sequence across
    /// this many shard masters (with optional work stealing). The default
    /// single shard is the flat master, byte for byte. On the procs
    /// backend the worker processes are also partitioned into matching
    /// pools and checkouts prefer the dispatching shard's pool.
    pub shards: protocol::ShardSpec,
    /// Membership churn plan: worker joins/leaves fired at 1-based
    /// dispatch ordinals (per job). Real on the procs backend (processes
    /// are added/retired mid-run); inert on threads and sim, whose
    /// workers are anonymous.
    pub churn: protocol::ChurnPlan,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            capacity_level: 15,
            faults: None,
            checkpoint_dir: None,
            resume: false,
            retry_budget: None,
            shards: protocol::ShardSpec::default(),
            churn: protocol::ChurnPlan::default(),
        }
    }
}

/// One job's configuration: the problem plus its per-job knobs.
#[derive(Clone)]
pub struct AppConfig {
    /// The problem to solve (root grid, level, tolerance).
    pub app: SequentialApp,
    /// The paper's design (true) or the §4.1 I/O-worker variant (false).
    pub data_through_master: bool,
    /// Dispatch policy for this job; `None` uses the engine's default.
    pub policy: Option<PolicyRef>,
    /// Jobs per worker dispatch (see [`MasterConfig::batch_width`]); the
    /// default 1 is the paper's one-job-per-worker protocol.
    pub batch_width: usize,
}

impl AppConfig {
    /// A job with the paper's defaults (data through the master).
    pub fn new(app: SequentialApp) -> Self {
        AppConfig {
            app,
            data_through_master: true,
            policy: None,
            batch_width: 1,
        }
    }

    /// Bundle up to `width` subsolves per worker dispatch; the worker runs
    /// each bundle through the batched multi-RHS solver path.
    pub fn with_batch_width(mut self, width: usize) -> Self {
        self.batch_width = width.max(1);
        self
    }

    /// Select the §4.1 I/O-worker data path.
    pub fn with_data_through_master(mut self, through_master: bool) -> Self {
        self.data_through_master = through_master;
        self
    }

    /// Dispatch this job under `policy` instead of the engine's default.
    pub fn with_policy(mut self, policy: PolicyRef) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// What one served job produced.
#[derive(Debug)]
pub struct JobReport {
    /// Engine-assigned job id (1-based, fleet-lifetime).
    pub job: u64,
    /// The numerical result — bit-identical to a solo run.
    pub result: SequentialResult,
    /// Protocol bookkeeping for *this job's* pools.
    pub outcome: ProtocolOutcome,
    /// This job's slice of the chronological §6 trace. On the procs
    /// backend the children's records arrive only at fleet shutdown, so
    /// this holds the coordinator-side records.
    pub records: Vec<TraceRecord>,
    /// Machines hosting task instances (procs: coordinator side only).
    pub machines_used: usize,
    /// Peak workers simultaneously in their compute section during this
    /// job (sim: peak busy machines).
    pub peak_concurrent_workers: usize,
    /// Submit-to-completion latency: wall-clock seconds on the live
    /// backends, virtual seconds on the simulator.
    pub latency_s: f64,
}

impl JobReport {
    /// Lower to the one-shot result shape.
    pub fn into_concurrent(self) -> ConcurrentResult {
        ConcurrentResult {
            result: self.result,
            outcome: self.outcome,
            records: self.records,
            machines_used: self.machines_used,
            peak_concurrent_workers: self.peak_concurrent_workers,
        }
    }
}

/// Why [`Engine::submit`] refused a job *before* running it.
///
/// These are admission-shaped errors: a serving layer in front of the
/// engine (see `crates/serve`) converts them into backpressure replies
/// instead of failing a whole connection, and nothing in this path
/// panics. A job that was *accepted* and then failed reports through
/// [`JobHandle::wait`] as usual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job's `app.level` exceeds the fleet's provisioned
    /// [`EngineOpts::capacity_level`]. Running it would exhaust the
    /// MANIFOLD instance load mid-job; refusing it up front keeps the
    /// fleet serviceable and gives the caller a typed retry-with-smaller
    /// signal.
    OverCapacity {
        /// The requested refinement level.
        level: u32,
        /// What the fleet was provisioned for.
        capacity: u32,
    },
    /// An earlier job's failure took the fleet itself down (environment
    /// killed, worker pool gone). Every subsequent submit is refused with
    /// the original diagnosis; the engine must be rebuilt.
    FleetDown {
        /// Root-cause diagnosis recorded when the fleet died.
        reason: String,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::OverCapacity { level, capacity } => write!(
                f,
                "job level {level} exceeds the fleet's provisioned capacity level {capacity}"
            ),
            SubmitError::FleetDown { reason } => {
                write!(f, "fleet is down: {reason}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for MfError {
    fn from(e: SubmitError) -> MfError {
        MfError::App(e.to_string())
    }
}

/// Handle to one submitted job.
///
/// Submission currently runs the job to completion before returning, so
/// the handle is already resolved; the API keeps the submit/wait split so
/// callers are written against the streaming shape.
pub struct JobHandle {
    id: u64,
    report: MfResult<JobReport>,
}

impl JobHandle {
    /// Engine-assigned job id (1-based).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's outcome.
    pub fn wait(self) -> MfResult<JobReport> {
        self.report
    }
}

/// The resources a live fleet's environment is holding between jobs. None
/// of these may depend on how many jobs the fleet has served: a value that
/// climbs with uptime is a leak, visible here without `/proc`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetFootprint {
    /// OS threads ever spawned; flat once the fleet is warm.
    pub threads_spawned: u64,
    /// Processes registered right now; zero between jobs.
    pub live_processes: usize,
    /// High-water mark of `live_processes`: the largest job's size.
    pub peak_live_processes: usize,
    /// Trace records held by the environment's sink; zero between jobs.
    pub trace_records: usize,
}

/// What the fleet did over its whole life.
#[derive(Debug)]
pub struct EngineSummary {
    /// Jobs served to completion (successful masters).
    pub jobs_served: usize,
    /// Workers created across every job.
    pub fleet_workers_created: usize,
    /// OS threads the fleet's environment spawned over its whole life (0
    /// on the sim backend). A healthy fleet stops spawning once warm; a
    /// count that tracks `jobs_served` is a per-job thread leak.
    pub threads_spawned: u64,
    /// High-water mark of processes registered in the fleet's environment
    /// (0 on the sim backend): the size of the largest job, not of the
    /// fleet's history.
    pub peak_live_processes: usize,
    /// Procs backend only: per-child (slot, identity, trace text) reports
    /// collected at shutdown.
    pub child_reports: Vec<(u64, RemoteIdentity, Option<String>)>,
}

type WorkerFactory = Box<dyn FnMut(&Coord, &Name) -> ProcessRef>;

// One value per Engine; the variant size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
enum BackendState {
    ThreadsFleet {
        env: Environment,
        gauge: Arc<WorkerGauge>,
        factory: WorkerFactory,
    },
    ProcsFleet {
        env: Environment,
        pool: Arc<RemoteWorkerPool>,
        gauge: Arc<WorkerGauge>,
        // Concrete so it can serve as both the ConduitSource and the
        // master's FleetMembership backend.
        source: Arc<GaugedSource>,
        instances: usize,
    },
    SimFleetState {
        fleet: SimFleet,
        noise: Perturbation,
        model: CostModel,
        workers_created: usize,
    },
}

/// A persistent worker fleet serving a stream of jobs. See the module
/// docs for the lifecycle.
pub struct Engine {
    state: BackendState,
    policy: PolicyRef,
    opts: EngineOpts,
    store: Option<Arc<CheckpointStore>>,
    resume_pending: bool,
    protocol_pool: PerpetualPool,
    next_job: u64,
    /// `Some(diagnosis)` once a failure killed the fleet itself; every
    /// later submit is refused with [`SubmitError::FleetDown`].
    down: Option<String>,
}

impl Engine {
    /// Bring a fleet up on `backend`. For procs this launches the worker
    /// processes — a missing worker binary fails here, not at submit.
    pub fn new(backend: EngineBackend, policy: PolicyRef, opts: EngineOpts) -> MfResult<Engine> {
        let store = match &opts.checkpoint_dir {
            Some(dir) => Some(Arc::new(CheckpointStore::new(dir)?)),
            None => None,
        };
        let state = match backend {
            EngineBackend::Threads { mode } => {
                let env = Environment::with_specs(
                    mode.link_spec(opts.capacity_level),
                    mode.config_spec(),
                );
                let gauge = WorkerGauge::new();
                // One factory for the fleet's whole life: a chaos factory's
                // pool-wide job counter then spans job boundaries, exactly
                // like a remote child's per-incarnation counter.
                let factory: WorkerFactory = match worker_faults(&opts.faults) {
                    Some(faults) if !faults.is_empty() => {
                        Box::new(worker_factory_chaos(gauge.clone(), faults))
                    }
                    _ => Box::new(worker_factory_with_gauge(gauge.clone())),
                };
                BackendState::ThreadsFleet {
                    env,
                    gauge,
                    factory,
                }
            }
            EngineBackend::Procs { cfg } => {
                let retry = opts.retry_budget.unwrap_or(cfg.retry_budget);
                let program = crate::procs::resolve_worker_exe(&cfg)?;
                let mut pool_cfg = PoolConfig::new(program);
                pool_cfg.instances = cfg.instances;
                pool_cfg.bind = cfg.bind;
                pool_cfg.hosts = cfg.hosts.clone();
                pool_cfg.job_timeout = cfg.job_timeout;
                pool_cfg.respawn_budget = retry;
                pool_cfg.shards = opts.shards.shards.max(1);
                pool_cfg.base_env = vec![(
                    "MF_WORKER_HEARTBEAT_MS".into(),
                    cfg.heartbeat.as_millis().to_string(),
                )];
                if let Some(plan) = opts.faults.as_ref().or(cfg.faults.as_ref()) {
                    pool_cfg
                        .base_env
                        .push(("MF_CHAOS_PLAN".into(), plan.to_string()));
                }
                let pool = Arc::new(RemoteWorkerPool::launch(
                    pool_cfg,
                    Arc::new(transport::LocalSpawner),
                )?);
                let link = LinkSpec::default()
                    .task("mainprog")
                    .perpetual(true)
                    .load(2 * opts.capacity_level + 8 + retry as u32)
                    .weight("Master", 1)
                    .weight("Worker", 1);
                let env = Environment::with_specs(
                    link,
                    manifold::config::ConfigSpec::with_startup("bumpa.sen.cwi.nl"),
                );
                let gauge = WorkerGauge::new();
                let source = Arc::new(GaugedSource::new(Arc::clone(&pool), Arc::clone(&gauge)));
                BackendState::ProcsFleet {
                    env,
                    pool,
                    gauge,
                    source,
                    instances: cfg.instances,
                }
            }
            EngineBackend::Sim { noise_seed } => {
                let model = CostModel::paper_calibrated();
                let sim = paper_sim(&model);
                let plan = opts.faults.clone().unwrap_or_default();
                let fleet = SimFleet::new(sim, &plan, opts.retry_budget.unwrap_or(3));
                let noise = match noise_seed {
                    Some(seed) => Perturbation::overnight(seed),
                    None => Perturbation::none(),
                };
                BackendState::SimFleetState {
                    fleet,
                    noise,
                    model,
                    workers_created: 0,
                }
            }
        };
        let resume_pending = opts.resume && store.is_some();
        Ok(Engine {
            state,
            policy,
            opts,
            store,
            resume_pending,
            protocol_pool: PerpetualPool::new(),
            next_job: 1,
            down: None,
        })
    }

    /// A threads-backend fleet.
    pub fn threads(mode: RunMode, policy: PolicyRef, opts: EngineOpts) -> MfResult<Engine> {
        Engine::new(EngineBackend::Threads { mode }, policy, opts)
    }

    /// A procs-backend fleet (launches the worker processes).
    pub fn procs(cfg: ProcsConfig, policy: PolicyRef, opts: EngineOpts) -> MfResult<Engine> {
        Engine::new(EngineBackend::Procs { cfg }, policy, opts)
    }

    /// A simulated fleet with the paper's defaults.
    pub fn sim(noise_seed: Option<u64>, policy: PolicyRef, opts: EngineOpts) -> MfResult<Engine> {
        Engine::new(EngineBackend::Sim { noise_seed }, policy, opts)
    }

    /// Fleet serving the paper's dispatch order with default options.
    pub fn paper_default(backend: EngineBackend) -> MfResult<Engine> {
        Engine::new(backend, Arc::new(PaperFaithful), EngineOpts::default())
    }

    /// Jobs this fleet has served to completion.
    pub fn jobs_served(&self) -> usize {
        match &self.state {
            BackendState::SimFleetState { fleet, .. } => fleet.jobs_served(),
            _ => self.protocol_pool.jobs_served(),
        }
    }

    /// Workers created across the fleet's whole life.
    pub fn fleet_workers_created(&self) -> usize {
        match &self.state {
            BackendState::SimFleetState {
                workers_created, ..
            } => *workers_created,
            _ => self.protocol_pool.fleet_workers_created(),
        }
    }

    /// Idle persistent capacity: parked perpetual task instances (threads,
    /// sim) or standing worker processes (procs).
    pub fn parked_workers(&self) -> usize {
        match &self.state {
            BackendState::ThreadsFleet { env, .. } => env.with_bundler(|b| b.parked_instances()),
            BackendState::ProcsFleet { instances, .. } => *instances,
            BackendState::SimFleetState { fleet, .. } => fleet.parked_workers(),
        }
    }

    /// Serve one job on the fleet. Runs to completion; the handle carries
    /// the report. A failed job leaves the fleet serviceable (its master
    /// and workers die with the job's coordinator) unless the failure
    /// killed the fleet itself.
    ///
    /// Admission-shaped refusals — the job never started — come back as a
    /// typed [`SubmitError`] instead of a panic or an opaque `MfError`:
    /// a saturated fleet (job level above the provisioned capacity) and a
    /// dead fleet are both conditions a serving layer converts into
    /// backpressure replies.
    pub fn submit(&mut self, cfg: AppConfig) -> Result<JobHandle, SubmitError> {
        if let Some(reason) = &self.down {
            return Err(SubmitError::FleetDown {
                reason: reason.clone(),
            });
        }
        if cfg.app.level > self.opts.capacity_level {
            return Err(SubmitError::OverCapacity {
                level: cfg.app.level,
                capacity: self.opts.capacity_level,
            });
        }
        let id = self.next_job;
        self.next_job += 1;
        let report = self.run_job(id, cfg);
        if let Err(MfError::Killed) = &report {
            // The environment died under the job: the fleet is gone, not
            // just this job.
            self.down = Some("environment killed mid-job".into());
        }
        Ok(JobHandle { id, report })
    }

    /// What the fleet's environment holds right now (all zero on sim).
    pub fn footprint(&self) -> FleetFootprint {
        match &self.state {
            BackendState::ThreadsFleet { env, .. } | BackendState::ProcsFleet { env, .. } => {
                FleetFootprint {
                    threads_spawned: env.threads_spawned(),
                    live_processes: env.live_processes(),
                    peak_live_processes: env.peak_live_processes(),
                    trace_records: env.trace().len(),
                }
            }
            BackendState::SimFleetState { .. } => FleetFootprint::default(),
        }
    }

    /// Tear the fleet down and account for its life.
    pub fn shutdown(self) -> EngineSummary {
        let jobs_served = self.jobs_served();
        let fleet_workers_created = self.fleet_workers_created();
        let footprint = self.footprint();
        let child_reports = match self.state {
            BackendState::ThreadsFleet { env, .. } => {
                env.shutdown();
                Vec::new()
            }
            BackendState::ProcsFleet { env, pool, .. } => {
                env.shutdown();
                pool.shutdown()
            }
            BackendState::SimFleetState { .. } => Vec::new(),
        };
        EngineSummary {
            jobs_served,
            fleet_workers_created,
            threads_spawned: footprint.threads_spawned,
            peak_live_processes: footprint.peak_live_processes,
            child_reports,
        }
    }

    fn master_config(&mut self, id: u64, cfg: &AppConfig) -> MfResult<(MasterConfig, PolicyRef)> {
        let policy = cfg.policy.clone().unwrap_or_else(|| self.policy.clone());
        let mut mc = MasterConfig::new(cfg.app, cfg.data_through_master)
            .with_policy(policy.clone())
            .with_batch_width(cfg.batch_width)
            .with_shards(self.opts.shards)
            .with_churn(self.opts.churn.clone());
        if let Some(budget) = self.opts.retry_budget {
            mc = mc.with_retry_budget(budget);
        }
        if let Some(store) = &self.store {
            if self.resume_pending {
                self.resume_pending = false;
                if let Some(ck) = store.load()? {
                    mc = mc.with_resume(ck);
                }
            }
            mc = mc.with_checkpoints(Arc::clone(store));
        }
        if let Some(plan) = &self.opts.faults {
            if let Some(k) = plan.master_kill() {
                // Collected-result ordinals restart with each job's
                // master, so the kill can fire once per job.
                mc = mc.with_master_kill_at(k);
            }
        }
        let _ = id;
        Ok((mc, policy))
    }

    fn run_job(&mut self, id: u64, cfg: AppConfig) -> MfResult<JobReport> {
        let (master_cfg, _policy) = self.master_config(id, &cfg)?;
        match &mut self.state {
            BackendState::ThreadsFleet {
                env,
                gauge,
                factory,
            } => run_live_job(
                id,
                master_cfg,
                env,
                gauge,
                &mut self.protocol_pool,
                LiveWorkers::Threads(factory),
            ),
            BackendState::ProcsFleet {
                env,
                pool,
                gauge,
                source,
                ..
            } => {
                pool.set_current_job(id);
                // The pool is the only backend with real membership:
                // sharded masters hint checkouts through it and churn
                // joins/retires worker processes.
                let master_cfg =
                    master_cfg.with_membership(Arc::clone(source) as Arc<dyn FleetMembership>);
                let dyn_source: Arc<dyn ConduitSource> = Arc::clone(source) as _;
                run_live_job(
                    id,
                    master_cfg,
                    env,
                    gauge,
                    &mut self.protocol_pool,
                    LiveWorkers::Remote(&dyn_source),
                )
            }
            BackendState::SimFleetState {
                fleet,
                noise,
                model,
                workers_created,
            } => {
                // The simulator replays the legacy computation for the
                // answer (bit-identical by construction) and runs the
                // fleet DES for the virtual-time performance report.
                let result = cfg
                    .app
                    .run()
                    .map_err(|e| MfError::App(format!("sequential core failed: {e}")))?;
                let policy = cfg.policy.unwrap_or_else(|| self.policy.clone());
                let wl = model.workload(
                    cfg.app.root,
                    cfg.app.level,
                    cfg.app.le_tol,
                    cfg.data_through_master,
                );
                let report = fleet
                    .submit(&wl, noise, policy.as_ref())
                    .map_err(MfError::App)?;
                let workers = report
                    .records
                    .iter()
                    .filter(|r| {
                        r.manifold_name.as_str() == "Worker(event)" && r.message == "Welcome"
                    })
                    .count();
                *workers_created += workers;
                let machines_used = report
                    .records
                    .iter()
                    .map(|r| r.host.as_str().to_string())
                    .collect::<BTreeSet<_>>()
                    .len();
                Ok(JobReport {
                    job: id,
                    result,
                    // One synthesized pool totalling the job: the DES has
                    // no per-pool protocol bookkeeping to report.
                    outcome: ProtocolOutcome::Finished {
                        pools: vec![PoolStats {
                            workers_created: workers,
                            deaths_counted: workers,
                        }],
                    },
                    machines_used,
                    peak_concurrent_workers: report.peak_machines.max(0) as usize,
                    latency_s: report.elapsed,
                    records: report.records,
                })
            }
        }
    }
}

enum LiveWorkers<'a> {
    Threads(&'a mut WorkerFactory),
    Remote(&'a Arc<dyn ConduitSource>),
}

/// One job on a live (threads or procs) fleet: a fresh job-scoped master
/// served by the shared [`PerpetualPool`] over the shared environment.
fn run_live_job(
    id: u64,
    master_cfg: MasterConfig,
    env: &Environment,
    gauge: &Arc<WorkerGauge>,
    protocol_pool: &mut PerpetualPool,
    workers: LiveWorkers<'_>,
) -> MfResult<JobReport> {
    let started = Instant::now();
    gauge.reset_peak();
    let cell: Arc<Mutex<Option<SequentialResult>>> = Arc::new(Mutex::new(None));

    let run = env.run_coordinator("Main", |coord| {
        let coord_ref = coord.self_ref();
        let env2 = coord.env().clone();
        let cell2 = cell.clone();
        let master_cfg = master_cfg.clone();
        let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
            let h = MasterHandle::new(ctx, coord_ref, env2);
            let result = master_body(&h, &master_cfg)?;
            *cell2.lock() = Some(result);
            Ok(())
        });
        coord.activate(&master)?;
        let outcome = match workers {
            LiveWorkers::Threads(factory) => protocol_pool.serve(coord, &master, &mut **factory)?,
            LiveWorkers::Remote(source) => {
                let mut factory = protocol::remote_worker_factory(Arc::clone(source));
                protocol_pool.serve(coord, &master, &mut factory)?
            }
        };
        master.core().wait_terminated(Duration::from_secs(600))?;
        Ok(outcome)
    });

    // The coordinator was the job's scope: its master and workers are
    // dead and unregistered, so the sink holds exactly this job's records
    // and the environment's failure list exactly this job's failures.
    // Both are taken, not copied — a warm fleet pays O(job) per submit and
    // keeps nothing — and a failed job leaves the fleet serving.
    let records = env.trace().take();
    let failures = env.take_failures();
    if let Some((pid, err)) = failures.first() {
        // The first recorded failure is the root cause the one-shot paths
        // surface; the rest are its consequences.
        let more = match failures.len() - 1 {
            0 => String::new(),
            n => format!(" (and {n} more process failure(s) suppressed)"),
        };
        return Err(MfError::App(format!("process {pid:?} failed: {err}{more}")));
    }
    let outcome = run?;
    let machines_used = env.with_bundler(|b| b.machines_in_use());
    let result = cell
        .lock()
        .take()
        .ok_or_else(|| MfError::App("master produced no result".into()))?;
    Ok(JobReport {
        job: id,
        result,
        outcome,
        machines_used: machines_used.max(
            records
                .iter()
                .map(|r| r.host.as_str().to_string())
                .collect::<BTreeSet<_>>()
                .len(),
        ),
        peak_concurrent_workers: gauge.peak(),
        latency_s: started.elapsed().as_secs_f64(),
        records,
    })
}

fn worker_faults(plan: &Option<FaultPlan>) -> Option<chaos::WorkerFaults> {
    let plan = plan.as_ref()?;
    let mut w = chaos::WorkerFaults::default();
    for f in &plan.faults {
        match *f {
            FaultKind::WorkerCrash { on_job, .. } => {
                w.crash_on_job.get_or_insert(on_job);
            }
            FaultKind::ConnStall { on_job, millis, .. } => {
                w.stall_on_job.get_or_insert((on_job, millis));
            }
            _ => {}
        }
    }
    Some(w)
}
