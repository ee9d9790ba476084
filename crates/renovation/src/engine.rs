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
//!    submit(cfg₁) ─► JobHandle #1 ┐ pending; up to `width` jobs in flight,
//!    submit(cfg₂) ─► JobHandle #2 ┘ each a job scope of its own
//!    next_finished() / handle.wait() ─► JobReport (bit-identical)
//!    ...
//! engine.shutdown() ──► fleet down, EngineSummary
//! ```
//!
//! Every job runs a *fresh, job-scoped* coordinator and master over the
//! *shared* fleet. [`Engine::submit`] starts the job and returns at once;
//! [`JobHandle::wait`] blocks for that job, [`Engine::next_finished`] for
//! whichever finishes first. [`Engine::width`] jobs can be in flight
//! together — two per worker process on the procs backend, one on the
//! other backends — and a submit beyond that waits for a slot.
//!
//! What a job owns and what the fleet owns:
//!
//! | job-scoped                                   | fleet-scoped                         |
//! |----------------------------------------------|--------------------------------------|
//! | coordinator, master, worker (proxy) processes | environment, thread pool, bundler    |
//! | trace records and failures ([`ScopeLog`])    | worker processes and connections     |
//! | wire job tag, shard-affinity hint            | the [`WorkerGauge`] (one per fleet)  |
//! | its window on the gauge, its pool statistics | [`PerpetualPool`] running totals     |
//!
//! Every worker is open to every job: two jobs in flight compete for the
//! same workers, and a job running alone spreads over all of them. The
//! [`protocol::PerpetualPool`] serves each master (threads and procs),
//! worker processes survive across jobs with every wire unit tagged by job
//! id (procs), and the discrete-event simulation keeps one virtual
//! timeline with parked perpetual task instances ([`cluster::SimFleet`]).
//! Per-job numerical results are bit-identical to a solo one-shot run of
//! the same configuration on every backend; the one-shot entry points are
//! thin wrappers over a single-job engine.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

use chaos::{FaultKind, FaultPlan};
use cluster::{Perturbation, SimFleet};
use manifold::env::ScopeLog;
use manifold::prelude::*;
use manifold::remote::{JobFleet, RemoteIdentity};
use manifold::trace::TraceRecord;
use parking_lot::{Condvar, Mutex};
use protocol::{
    MasterHandle, PaperFaithful, PerpetualPool, PolicyRef, PoolStats, ProtocolMw, ProtocolOutcome,
};
use solver::sequential::{SequentialApp, SequentialResult};
use transport::{PoolConfig, RemoteWorkerPool};

use crate::app::{ConcurrentResult, RunMode};
use crate::checkpoint::CheckpointStore;
use crate::cost::CostModel;
use crate::master::{master_body, FleetMembership, MasterConfig};
use crate::procs::{JobSource, ProcsConfig};
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
    /// pools and each dispatch prefers the dispatching shard's pool.
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
    /// Peak workers simultaneously in their compute section anywhere in
    /// the fleet while this job ran — its own and, when jobs overlap,
    /// those of the jobs it shared the fleet with (sim: peak busy
    /// machines).
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

/// Why [`Engine::submit`] refused a job *before* starting it.
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

/// Where finished jobs are announced: one lock and one condition for the
/// whole fleet, so a single thread can wait on every job in flight.
#[derive(Default)]
struct Board {
    state: Mutex<BoardState>,
    finished: Condvar,
}

#[derive(Default)]
struct BoardState {
    /// `Some(diagnosis)` once a failure killed the fleet itself; every
    /// later submit is refused with [`SubmitError::FleetDown`].
    down: Option<String>,
    /// Called after each job's report is in place (see
    /// [`Engine::on_job_finished`]).
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// One job's result cell, shared by its handle, the engine, and whoever
/// finishes the job.
struct JobSlot {
    /// Set under the board lock, after `report` is in place.
    finished: AtomicBool,
    report: Mutex<Option<MfResult<JobReport>>>,
    /// The job's handle was waited on or dropped: nobody is left to be
    /// told about it.
    handle_gone: AtomicBool,
}

impl JobSlot {
    fn finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }
}

impl Board {
    fn publish(&self, slot: &JobSlot, report: MfResult<JobReport>) {
        *slot.report.lock() = Some(report);
        let wake = {
            let state = self.state.lock();
            slot.finished.store(true, Ordering::Release);
            self.finished.notify_all();
            state.wake.clone()
        };
        if let Some(wake) = wake {
            wake();
        }
    }
}

/// Handle to one submitted job. The job is running (or already done) when
/// [`Engine::submit`] hands this out; the handle is how its report is
/// collected.
pub struct JobHandle {
    id: u64,
    slot: Arc<JobSlot>,
    board: Arc<Board>,
}

impl JobHandle {
    /// Engine-assigned job id (1-based).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Has the job finished (so that [`JobHandle::wait`] returns at once)?
    pub fn is_finished(&self) -> bool {
        self.slot.finished()
    }

    /// Block until the job has finished; its outcome.
    pub fn wait(self) -> MfResult<JobReport> {
        let mut state = self.board.state.lock();
        while !self.is_finished() {
            self.board.finished.wait(&mut state);
        }
        drop(state);
        let report = self.slot.report.lock().take();
        report.expect("a finished job has a report")
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.slot.handle_gone.store(true, Ordering::Release);
    }
}

/// The resources a live fleet's environment is holding. None of these may
/// depend on how many jobs the fleet has served: a value that climbs with
/// uptime is a leak, visible here without `/proc`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetFootprint {
    /// OS threads ever spawned; flat once the fleet is warm.
    pub threads_spawned: u64,
    /// Processes registered right now; zero with no job in flight.
    pub live_processes: usize,
    /// High-water mark of `live_processes`: the size of the largest set
    /// of jobs that were in flight together.
    pub peak_live_processes: usize,
    /// Trace records the fleet is holding — those of jobs still running (a
    /// finished job's records leave with its report); zero with no job in
    /// flight.
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
    /// (0 on the sim backend): the size of the largest set of jobs in
    /// flight together, not of the fleet's history.
    pub peak_live_processes: usize,
    /// Procs backend only: per-child (slot, identity, trace text) reports
    /// collected at shutdown.
    pub child_reports: Vec<(u64, RemoteIdentity, Option<String>)>,
    /// Procs backend only: connection reader threads the fleet was running
    /// when it shut down — one per worker process, whatever the job count.
    pub reader_threads: usize,
    /// Procs backend only: the most subsolves that ever waited for a
    /// worker connection at once.
    pub wire_queue_peak: usize,
}

type WorkerFactory = Arc<dyn Fn(&Coord, &Name) -> ProcessRef + Send + Sync>;

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
        instances: usize,
    },
    SimFleetState {
        fleet: SimFleet,
        noise: Perturbation,
        model: CostModel,
        workers_created: usize,
    },
}

/// A job the engine started and still has to account for: it is running,
/// or it has finished and neither [`Engine::next_finished`] nor its handle
/// has taken note.
struct InFlight {
    id: u64,
    /// Which of the fleet's `width` lanes the job occupies — its window on
    /// the gauge.
    lane: usize,
    slot: Arc<JobSlot>,
    log: Arc<ScopeLog>,
}

/// A persistent worker fleet serving a stream of jobs. See the module
/// docs for the lifecycle.
pub struct Engine {
    state: BackendState,
    policy: PolicyRef,
    opts: EngineOpts,
    store: Option<Arc<CheckpointStore>>,
    resume_pending: bool,
    protocol_pool: Arc<PerpetualPool>,
    next_job: u64,
    width: usize,
    /// Submission order; at most `width` of them still running.
    in_flight: Vec<InFlight>,
    board: Arc<Board>,
}

impl Engine {
    /// Bring a fleet up on `backend`. For procs this launches the worker
    /// processes — a missing worker binary fails here, not at submit.
    pub fn new(backend: EngineBackend, policy: PolicyRef, opts: EngineOpts) -> MfResult<Engine> {
        let store = match &opts.checkpoint_dir {
            Some(dir) => Some(Arc::new(CheckpointStore::new(dir)?)),
            None => None,
        };
        // How many jobs the fleet runs side by side. Never configured: two
        // per remote worker instance on the procs backend — while one job
        // has a subsolve computing on a worker, another is between
        // protocol steps on this side, and the fleet's queue absorbs the
        // difference (measured: two per worker gains a quarter over one,
        // three gains nothing more); one where a job's subsolves already
        // run on this process's own cores (threads), where there is one
        // virtual timeline (sim), and where jobs would share one snapshot
        // file (a checkpoint store).
        let width = match &backend {
            EngineBackend::Procs { cfg } if store.is_none() => 2 * cfg.instances.max(1),
            _ => 1,
        };
        let state = match backend {
            EngineBackend::Threads { mode } => {
                let env = Environment::with_specs(
                    mode.link_spec(opts.capacity_level),
                    mode.config_spec(),
                );
                let gauge = WorkerGauge::with_windows(width);
                // One factory for the fleet's whole life: a chaos factory's
                // pool-wide job counter then spans job boundaries, exactly
                // like a remote child's per-incarnation counter.
                let factory: WorkerFactory = match worker_faults(&opts.faults) {
                    Some(faults) if !faults.is_empty() => {
                        Arc::new(worker_factory_chaos(gauge.clone(), faults))
                    }
                    _ => Arc::new(worker_factory_with_gauge(gauge.clone())),
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
                // Room for `width` jobs' coordinators, masters and proxies
                // in the one task instance.
                let link = LinkSpec::default()
                    .task("mainprog")
                    .perpetual(true)
                    .load(width as u32 * (2 * opts.capacity_level + 8 + retry as u32))
                    .weight("Master", 1)
                    .weight("Worker", 1);
                let env = Environment::with_specs(
                    link,
                    manifold::config::ConfigSpec::with_startup("bumpa.sen.cwi.nl"),
                );
                BackendState::ProcsFleet {
                    env,
                    pool,
                    gauge: WorkerGauge::with_windows(width),
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
            protocol_pool: Arc::new(PerpetualPool::new()),
            next_job: 1,
            width,
            in_flight: Vec::new(),
            board: Arc::new(Board::default()),
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

    /// How many jobs this fleet runs side by side: twice the number of
    /// remote worker instances on the procs backend, 1 on threads and sim
    /// and whenever a checkpoint store is attached. A property of the
    /// fleet, not a setting.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Jobs started and not yet finished; never more than
    /// [`Engine::width`].
    pub fn in_flight(&self) -> usize {
        self.in_flight.iter().filter(|j| !j.slot.finished()).count()
    }

    /// Forget the finished jobs nobody can ask about any more.
    fn prune(&mut self) {
        self.in_flight
            .retain(|j| !(j.slot.finished() && j.slot.handle_gone.load(Ordering::Acquire)));
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

    /// Call `wake` every time a job finishes, from the thread that
    /// finished it, after the job's report is in place. This is how a
    /// caller that also waits on something else — a serving loop blocked
    /// on its admission queue — folds job completion into its one wake-up
    /// source instead of polling; a caller with nothing else to wait on
    /// uses [`Engine::next_finished`].
    pub fn on_job_finished(&mut self, wake: impl Fn() + Send + Sync + 'static) {
        self.board.state.lock().wake = Some(Arc::new(wake));
    }

    /// Start one job on the fleet and return its handle at once. With
    /// [`Engine::width`] jobs already in flight this first waits for one
    /// of them to finish — the only time it blocks. A failed job leaves
    /// the fleet serviceable (its master and workers die with the job's
    /// coordinator) unless the failure killed the fleet itself.
    ///
    /// Admission-shaped refusals — the job never started — come back as a
    /// typed [`SubmitError`] instead of a panic or an opaque `MfError`:
    /// a saturated fleet (job level above the provisioned capacity) and a
    /// dead fleet are both conditions a serving layer converts into
    /// backpressure replies.
    pub fn submit(&mut self, cfg: AppConfig) -> Result<JobHandle, SubmitError> {
        if cfg.app.level > self.opts.capacity_level {
            return Err(SubmitError::OverCapacity {
                level: cfg.app.level,
                capacity: self.opts.capacity_level,
            });
        }
        {
            let mut state = self.board.state.lock();
            while self.in_flight() == self.width {
                self.board.finished.wait(&mut state);
            }
            if let Some(reason) = &state.down {
                return Err(SubmitError::FleetDown {
                    reason: reason.clone(),
                });
            }
        }
        self.prune();
        let id = self.next_job;
        self.next_job += 1;
        let lane = (0..self.width)
            .find(|l| {
                self.in_flight
                    .iter()
                    .all(|j| j.lane != *l || j.slot.finished())
            })
            .expect("fewer jobs running than lanes");
        let job = InFlight {
            id,
            lane,
            slot: Arc::new(JobSlot {
                finished: AtomicBool::new(false),
                report: Mutex::new(None),
                handle_gone: AtomicBool::new(false),
            }),
            log: ScopeLog::new(),
        };
        let handle = JobHandle {
            id,
            slot: Arc::clone(&job.slot),
            board: Arc::clone(&self.board),
        };
        if let Err(e) = self.start_job(&job, cfg) {
            self.board.publish(&job.slot, Err(e));
        }
        self.in_flight.push(job);
        Ok(handle)
    }

    /// Block until a job has finished that this call has not reported
    /// before and whose handle is still waiting to be asked, and return
    /// its id — earliest submitted first when there are several — or
    /// `None` when no such job is left, running or finished. The job's
    /// [`JobHandle::wait`] then returns at once. One thread can keep the
    /// fleet full this way: submit until [`Engine::in_flight`] reaches
    /// [`Engine::width`], then alternate `next_finished` and `submit`.
    pub fn next_finished(&mut self) -> Option<u64> {
        let board = Arc::clone(&self.board);
        let mut state = board.state.lock();
        loop {
            self.prune();
            let done = self.in_flight.iter().position(|j| j.slot.finished());
            if let Some(i) = done {
                return Some(self.in_flight.remove(i).id);
            }
            if self.in_flight.is_empty() {
                return None;
            }
            self.board.finished.wait(&mut state);
        }
    }

    /// What the fleet's environment holds right now (all zero on sim).
    pub fn footprint(&self) -> FleetFootprint {
        match &self.state {
            BackendState::ThreadsFleet { env, .. } | BackendState::ProcsFleet { env, .. } => {
                FleetFootprint {
                    threads_spawned: env.threads_spawned(),
                    live_processes: env.live_processes(),
                    peak_live_processes: env.peak_live_processes(),
                    trace_records: env.trace().len()
                        + self
                            .in_flight
                            .iter()
                            .map(|j| j.log.trace().len())
                            .sum::<usize>(),
                }
            }
            BackendState::SimFleetState { .. } => FleetFootprint::default(),
        }
    }

    /// Wait for the jobs still in flight, then tear the fleet down and
    /// account for its life.
    pub fn shutdown(mut self) -> EngineSummary {
        while self.next_finished().is_some() {}
        let jobs_served = self.jobs_served();
        let fleet_workers_created = self.fleet_workers_created();
        let footprint = self.footprint();
        let mut summary = EngineSummary {
            jobs_served,
            fleet_workers_created,
            threads_spawned: footprint.threads_spawned,
            peak_live_processes: footprint.peak_live_processes,
            child_reports: Vec::new(),
            reader_threads: 0,
            wire_queue_peak: 0,
        };
        match self.state {
            BackendState::ThreadsFleet { env, .. } => env.shutdown(),
            BackendState::ProcsFleet { env, pool, .. } => {
                env.shutdown();
                summary.reader_threads = pool.reader_threads();
                summary.wire_queue_peak = pool.queue_peak();
                summary.child_reports = pool.shutdown();
            }
            BackendState::SimFleetState { .. } => {}
        }
        summary
    }

    fn master_config(&mut self, cfg: &AppConfig) -> MfResult<MasterConfig> {
        let policy = cfg.policy.clone().unwrap_or_else(|| self.policy.clone());
        let mut mc = MasterConfig::new(cfg.app, cfg.data_through_master)
            .with_policy(policy)
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
        Ok(mc)
    }

    /// Start `job`. An `Err` means it never started; a started job
    /// publishes its own report when it ends.
    fn start_job(&mut self, job: &InFlight, cfg: AppConfig) -> MfResult<()> {
        let master_cfg = self.master_config(&cfg)?;
        let scope = JobScope {
            id: job.id,
            lane: job.lane,
            slot: Arc::clone(&job.slot),
            log: Arc::clone(&job.log),
            board: Arc::clone(&self.board),
            protocol_pool: Arc::clone(&self.protocol_pool),
        };
        match &mut self.state {
            BackendState::ThreadsFleet {
                env,
                gauge,
                factory,
            } => {
                let factory = Arc::clone(factory);
                scope.spawn(env, gauge, master_cfg, move |coord, name| {
                    factory(coord, name)
                });
            }
            BackendState::ProcsFleet {
                env, pool, gauge, ..
            } => {
                // The job's own view of the shared pool: its wire tag, its
                // shard hints. The pool is the only backend with real
                // membership: sharded masters hint dispatches through it
                // and churn joins/retires worker processes.
                let source = Arc::new(JobSource::new(Arc::clone(pool), Arc::clone(gauge), job.id));
                let master_cfg =
                    master_cfg.with_membership(Arc::clone(&source) as Arc<dyn FleetMembership>);
                let factory = protocol::remote_worker_factory(source as Arc<dyn JobFleet>);
                scope.spawn(env, gauge, master_cfg, factory);
            }
            BackendState::SimFleetState {
                fleet,
                noise,
                model,
                workers_created,
            } => {
                // The simulator has no thread to run a job on and no need
                // of one: a job is a function of the virtual timeline,
                // evaluated here, and reported like any other.
                let policy = cfg.policy.clone().unwrap_or_else(|| self.policy.clone());
                let report = run_sim_job(job.id, &cfg, policy, fleet, noise, model);
                if let Ok(r) = &report {
                    *workers_created += r.outcome.workers_created();
                }
                self.board.publish(&job.slot, report);
            }
        }
        Ok(())
    }
}

/// One job on the simulated fleet: the legacy computation replayed for
/// the answer (bit-identical by construction), the fleet DES run for the
/// virtual-time performance report.
fn run_sim_job(
    id: u64,
    cfg: &AppConfig,
    policy: PolicyRef,
    fleet: &mut SimFleet,
    noise: &mut Perturbation,
    model: &CostModel,
) -> MfResult<JobReport> {
    let result = cfg
        .app
        .run()
        .map_err(|e| MfError::App(format!("sequential core failed: {e}")))?;
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
        .filter(|r| r.manifold_name.as_str() == "Worker(event)" && r.message == "Welcome")
        .count();
    Ok(JobReport {
        job: id,
        result,
        // One synthesized pool totalling the job: the DES has no per-pool
        // protocol bookkeeping to report.
        outcome: ProtocolOutcome::Finished {
            pools: vec![PoolStats {
                workers_created: workers,
                deaths_counted: workers,
            }],
        },
        machines_used: distinct_hosts(&report.records),
        peak_concurrent_workers: report.peak_machines.max(0) as usize,
        latency_s: report.elapsed,
        records: report.records,
    })
}

fn distinct_hosts(records: &[TraceRecord]) -> usize {
    records
        .iter()
        .map(|r| r.host.as_str())
        .collect::<BTreeSet<_>>()
        .len()
}

/// What one job on a live (threads or procs) fleet carries with it: its
/// identity, where its output accumulates, and where its report goes.
struct JobScope {
    id: u64,
    lane: usize,
    slot: Arc<JobSlot>,
    log: Arc<ScopeLog>,
    board: Arc<Board>,
    protocol_pool: Arc<PerpetualPool>,
}

/// What a job's coordinator leaves for its report, beside the log.
type Ran = (MfResult<ProtocolOutcome>, Option<SequentialResult>);

impl JobScope {
    /// Run the job as a stepped coordinator of its own: a fresh job-scoped
    /// master served by the shared [`PerpetualPool`] over the shared
    /// environment. The coordinator has no thread — its first step, here
    /// on the submitting thread, creates and activates the master, and
    /// every later one runs on the thread that raises into it (the
    /// master's, a worker's, a connection reader's) — so a job in flight
    /// is one thread, its master's. Returns as soon as the master is
    /// started; the report is published when the coordinator has
    /// terminated.
    fn spawn(
        self,
        env: &Environment,
        gauge: &Arc<WorkerGauge>,
        master_cfg: MasterConfig,
        workers: impl FnMut(&Coord, &Name) -> ProcessRef + Send + 'static,
    ) {
        let started = Instant::now();
        gauge.open_window(self.lane);
        let ran: Arc<Mutex<Option<Ran>>> = Arc::new(Mutex::new(None));

        let ran2 = Arc::clone(&ran);
        let protocol_pool = Arc::clone(&self.protocol_pool);
        let cell: Arc<Mutex<Option<SequentialResult>>> = Arc::new(Mutex::new(None));
        let mut begin = Some((master_cfg, workers));
        let mut serving = None;
        let coordinator =
            env.create_stepped_coordinator("Main", Arc::clone(&self.log), move |coord| {
                let polled = (|| {
                    if let Some((master_cfg, workers)) = begin.take() {
                        let coord_ref = coord.self_ref();
                        let env2 = coord.env().clone();
                        let cell2 = cell.clone();
                        let master =
                            coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                                let h = MasterHandle::new(ctx, coord_ref, env2);
                                let result = master_body(&h, &master_cfg)?;
                                *cell2.lock() = Some(result);
                                Ok(())
                            });
                        coord.activate(&master)?;
                        serving = Some(ProtocolMw::new(master, workers));
                    }
                    let serving = serving.as_mut().expect("the first step started the master");
                    protocol_pool.step(serving, coord)
                })();
                let outcome = match polled {
                    Ok(Poll::Pending) => return Ok(Step::Pending),
                    Ok(Poll::Ready(outcome)) => Ok(outcome),
                    Err(e) => Err(e),
                };
                // The job's own outcome travels beside the log rather than
                // through it: the log is for what the scope's processes
                // did. The protocol ends after the master has, so its
                // result is in the cell.
                *ran2.lock() = Some((outcome, cell.lock().take()));
                Ok(Step::Done)
            });

        // The coordinator is the job's scope: once it has terminated its
        // master and workers are dead and unregistered and the log holds
        // exactly this job's records and failures — whatever other jobs
        // did meanwhile. The hook runs on the thread that took the job's
        // last step.
        let hook_env = env.clone();
        let gauge = Arc::clone(gauge);
        coordinator.core().on_terminate(move || {
            let ran = ran.lock().take();
            let report = self.report(started, ran, &hook_env, &gauge);
            if let Err(MfError::Killed) = &report {
                // The environment died under the job: the fleet is gone,
                // not just this job.
                self.board.state.lock().down = Some("environment killed mid-job".into());
            }
            self.board.publish(&self.slot, report);
        });
        env.activate(&coordinator)
            .expect("a coordinator just created is not active yet");
    }

    fn report(
        &self,
        started: Instant,
        ran: Option<Ran>,
        env: &Environment,
        gauge: &WorkerGauge,
    ) -> MfResult<JobReport> {
        // Both are taken, not copied — a warm fleet pays O(job) per submit
        // and keeps nothing — and a failed job leaves the fleet serving.
        let records = self.log.trace().take();
        let failures = self.log.take_failures();
        if let Some((pid, err)) = failures.first() {
            // The first recorded failure is the root cause the one-shot
            // paths surface; the rest are its consequences.
            let more = match failures.len() - 1 {
                0 => String::new(),
                n => format!(" (and {n} more process failure(s) suppressed)"),
            };
            return Err(MfError::App(format!("process {pid:?} failed: {err}{more}")));
        }
        let (outcome, result) =
            ran.ok_or_else(|| MfError::App("job coordinator died without a result".into()))?;
        let outcome = outcome?;
        let result = result.ok_or_else(|| MfError::App("master produced no result".into()))?;
        Ok(JobReport {
            job: self.id,
            result,
            outcome,
            machines_used: env
                .with_bundler(|b| b.machines_in_use())
                .max(distinct_hosts(&records)),
            peak_concurrent_workers: gauge.window_peak(self.lane),
            latency_s: started.elapsed().as_secs_f64(),
            records,
        })
    }
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
