//! The discrete-event simulator.
//!
//! Replays the master/worker protocol of `protocolMW.m` on the simulated
//! cluster in virtual time, event for event:
//!
//! 1. the master performs its initialization on the start-up machine;
//! 2. for every job it raises `create_worker`, waits for the reference,
//!    activates the worker (forking a task instance on a fresh machine when
//!    no perpetual idle instance is available — the same
//!    [`manifold::link::Bundler`] logic as the live runtime),
//!    and feeds it its input data through the network — all strictly
//!    serially, because the master is a single process writing to its own
//!    output port;
//! 3. workers compute concurrently, each at its host's speed (perturbed by
//!    the multi-user noise model), push their results back over the
//!    network, raise `death_worker`, and die — freeing their machine for
//!    reuse;
//! 4. the master collects every result, requests the rendezvous, and after
//!    the acknowledgement proceeds to the prolongation phase.
//!
//! The fleet has [`DistributedSim::shards`] masters, each over its own
//! slice of the hosts ([`crate::shard`]). One shard is the paper's flat
//! master on the start-up machine; more run the same per-dispatch
//! sequence, each on its own clock, and the master whose clock is earliest
//! acts next. A master whose locus holds a live worker on every machine
//! (MLINK `load 1`) waits for the earliest worker death before it creates
//! the next one.
//!
//! Everything the paper measures falls out: the elapsed wall-clock time
//! (`ct`), the number of machines in use as a function of time (Figure 1),
//! its time-weighted average (`m`), and the §6-format chronological
//! `Welcome`/`Bye` trace with virtual timestamps.

use std::collections::{BTreeMap, HashMap};

use chaos::{FaultKind, FaultPlan};
use manifold::config::HostName;
use manifold::link::Placement;
use manifold::trace::TraceRecord;
use manifold::Name;
use protocol::{ChurnPlan, DispatchPolicy, ShardPlan, ShardSpec, StealQueues};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hosts::ClusterSpec;
use crate::network::FabricModel;
use crate::noise::Perturbation;
use crate::shard::{self, Shard};
use crate::timeline::StepTrace;
use crate::workload::{Job, Workload};

/// Epoch base for virtual trace timestamps — the very timestamp family the
/// paper's §6 output shows.
pub(crate) const TRACE_EPOCH_SECS: u64 = 1_048_087_412;

/// Virtual seconds between a worker dying silently and the master declaring
/// the job lost (the heartbeat-silence window of the live transport). A
/// corrupt reply is detected the instant it arrives — the CRC rejects it —
/// so only crashes and connection drops pay this.
pub(crate) const LOSS_DETECTION_SECS: f64 = 2.0;

/// Costs of the coordination layer, in seconds. Defaults are calibrated to
/// 2003-era workstation clusters (rsh-based task forking, PVM-like message
/// handling); see EXPERIMENTS.md for the calibration against Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoordCosts {
    /// One-time application start-up (loading the MANIFOLD runtime,
    /// MLINK/CONFIG processing, first task-instance handshake). Charged to
    /// the concurrent run only — the sequential binary has none of it.
    pub startup: f64,
    /// Raising + dispatching one event between processes.
    pub event_latency: f64,
    /// Coordinator-side creation of a worker process instance.
    pub worker_create: f64,
    /// Forking a brand-new task instance on a (remote) machine.
    pub task_fork: f64,
    /// Extra cost of the very first fork of a run (cold NFS binary load).
    pub first_fork_extra: f64,
    /// Activating a process inside an existing task instance.
    pub activation: f64,
    /// Entering `Create_Worker_Pool` (spawning the `now`/`t` variables,
    /// state setup).
    pub pool_setup: f64,
}

impl CoordCosts {
    /// Calibrated 2003-era defaults (rsh-based task forking, NFS-loaded
    /// binaries); see EXPERIMENTS.md for the calibration against Table 1.
    pub(crate) fn paper_era() -> CoordCosts {
        CoordCosts {
            startup: 2.5,
            event_latency: 1.0e-3,
            worker_create: 0.15,
            task_fork: 0.5,
            first_fork_extra: 3.5,
            activation: 0.15,
            pool_setup: 0.3,
        }
    }
}

/// The full simulator configuration.
#[derive(Clone, Debug)]
pub struct DistributedSim {
    /// The machines (the first is the start-up machine).
    pub cluster: ClusterSpec,
    /// The interconnect: `intra` links a master to its own workers (the
    /// paper's switched Ethernet), `inter` crosses between shards.
    pub fabric: FabricModel,
    /// Coordination-layer costs.
    pub costs: CoordCosts,
    /// Shard masters (clamped to the fleet) and work stealing; the default
    /// is the paper's single master.
    pub shards: ShardSpec,
    /// Hosts joining or leaving, keyed by fleet-lifetime dispatch ordinal.
    pub churn: ChurnPlan,
    /// Worker hosts per shard, overriding the even contiguous split (for
    /// asymmetric topologies). Must sum to at most the non-master hosts.
    pub pool_hosts: Option<Vec<usize>>,
}

/// Everything a simulated distributed run produces.
#[derive(Clone, Debug)]
pub struct DistributedReport {
    /// Elapsed virtual wall-clock seconds (the paper's `ct` for one run).
    pub elapsed: f64,
    /// Busy machines (≥ 1 loaded task instance) over time — Figure 1.
    pub busy: StepTrace,
    /// Time-weighted average of busy machines — the `m` column.
    pub weighted_avg_machines: f64,
    /// Peak machines in simultaneous use.
    pub peak_machines: i64,
    /// Task instances forked over the run.
    pub task_forks: usize,
    /// Chronological trace: `Welcome`/`Bye` with virtual timestamps, plus
    /// steal, join, leave, poolkill and re-home events.
    pub records: Vec<TraceRecord>,
    /// The start-up machine (where the master, or the sharded root, ran).
    pub master_host: HostName,
    /// Jobs re-dispatched after an injected worker loss or because a
    /// killed shard master held them (always 0 without a fault plan).
    pub redispatches: usize,
    /// Pop-two-merge steals that fired.
    pub steals: usize,
    /// Hosts that joined mid-job.
    pub joins: usize,
    /// Hosts that left mid-job.
    pub leaves: usize,
    /// Re-home events (a `poolkill` triggers exactly one).
    pub rehomes: usize,
    /// Dispatches per shard (a stolen job counts for the thief); the
    /// length is the effective shard count.
    pub per_shard_jobs: Vec<usize>,
    /// Virtual time each shard master last went idle (or died).
    pub shard_finish: Vec<f64>,
}

impl DistributedReport {
    /// Spread between the first and last shard to finish — the starvation
    /// metric work stealing is meant to bound.
    pub fn finish_spread(&self) -> f64 {
        let finite = self.shard_finish.iter().copied().filter(|t| t.is_finite());
        let (lo, hi) = finite.fold((f64::MAX, f64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
        if hi < lo {
            0.0
        } else {
            hi - lo
        }
    }
}

impl DistributedSim {
    /// The paper's setup: the given cluster behind one flat master, its
    /// 100 Mbps switched Ethernet (two-level when sharded), and paper-era
    /// coordination costs.
    pub fn new(cluster: ClusterSpec) -> DistributedSim {
        DistributedSim {
            cluster,
            fabric: FabricModel::two_level_2004(),
            costs: CoordCosts::paper_era(),
            shards: ShardSpec::default(),
            churn: ChurnPlan::default(),
            pool_hosts: None,
        }
    }

    /// Virtual time of the *sequential* program for this workload on the
    /// start-up machine (the paper's `st` for one run). Noise is applied
    /// per job, as each grid's solve is an independent stretch of compute.
    pub fn sequential_time(&self, wl: &Workload, noise: &mut Perturbation) -> f64 {
        let host = &self.cluster.startup().name;
        let mut t = self.cluster.compute_time(host, wl.init_flops);
        for job in wl.pools.iter().flatten() {
            t += noise.perturb(self.cluster.compute_time(host, job.flops));
        }
        t += noise.perturb(self.cluster.compute_time(host, wl.prolong_flops));
        t
    }

    /// Simulate one distributed run under a [`DispatchPolicy`] — a fresh
    /// one-job [`SimFleet`] with no fault plan.
    ///
    /// The policy orders each pool's jobs (seeing their flop counts as
    /// costs) and bounds each master's in-flight window: once `window` jobs
    /// are outstanding the master collects the earliest-arriving result
    /// before feeding the next worker — the same backpressure the live
    /// runtime applies. [`protocol::PaperFaithful`] is the paper's verified
    /// dispatch behavior (natural job order, unbounded window). A faulted
    /// run is `SimFleet::new(sim, &plan, retry_budget).submit(…)`.
    pub fn run(
        &self,
        wl: &Workload,
        noise: &mut Perturbation,
        policy: &dyn DispatchPolicy,
    ) -> DistributedReport {
        SimFleet::new(self.clone(), &FaultPlan::default(), 0)
            .submit(wl, noise, policy)
            .expect("an empty fault plan cannot exhaust a retry budget")
    }

    /// Run `runs` seeded repetitions (the paper ran five) under `policy`
    /// and average the elapsed time and machine usage. Returns
    /// `(avg sequential, avg concurrent, avg machines, reports)`.
    pub fn run_averaged(
        &self,
        wl: &Workload,
        runs: usize,
        base_seed: u64,
        policy: &dyn DispatchPolicy,
    ) -> (f64, f64, f64, Vec<DistributedReport>) {
        assert!(runs > 0);
        let mut st_sum = 0.0;
        let mut ct_sum = 0.0;
        let mut m_sum = 0.0;
        let mut reports = Vec::with_capacity(runs);
        for k in 0..runs {
            let mut seq_noise = Perturbation::overnight(base_seed + 1000 * k as u64);
            st_sum += self.sequential_time(wl, &mut seq_noise);
            let mut run_noise = Perturbation::overnight(base_seed + 1000 * k as u64 + 1);
            let report = self.run(wl, &mut run_noise, policy);
            ct_sum += report.elapsed;
            m_sum += report.weighted_avg_machines;
            reports.push(report);
        }
        let n = runs as f64;
        (st_sum / n, ct_sum / n, m_sum / n, reports)
    }
}

/// One trace line.
fn record(
    placement: &Placement,
    uid: u64,
    manifold: &str,
    line: u32,
    t: f64,
    msg: &str,
) -> TraceRecord {
    let micros = (t * 1e6).round() as u64;
    TraceRecord {
        host: placement.host.clone(),
        task_uid: TraceRecord::task_uid_for(placement.task),
        proc_uid: uid,
        secs: TRACE_EPOCH_SECS + micros / 1_000_000,
        usecs: (micros % 1_000_000) as u32,
        task_name: placement.task_name.clone(),
        manifold_name: Name::new(manifold),
        source_file: "ResSourceCode.c".into(),
        line,
        message: msg.into(),
    }
}

/// What one job accumulates for its report.
#[derive(Default)]
struct JobLog {
    records: Vec<TraceRecord>,
    busy: HashMap<HostName, Vec<(f64, f64)>>,
    orphans: usize,
    steals: usize,
    joins: usize,
    leaves: usize,
    rehomes: usize,
    per_shard_jobs: Vec<usize>,
}

impl JobLog {
    /// A steal/churn/poolkill line, attributed to `shard`'s master.
    fn event(&mut self, shard: &Shard, t: f64, msg: String) {
        let Some((master, uid)) = &shard.job_master else {
            return;
        };
        let line = record(master, *uid, "Master(event)", 0, t.max(0.0), &msg);
        self.records.push(line);
    }
}

/// The multi-job discrete-event simulation: one persistent simulated
/// worker fleet serving a *stream* of workloads over a single virtual
/// timeline.
///
/// [`DistributedSim::run`] is a one-job fleet without a fault plan. Jobs
/// after the first run warm — they skip the application
/// [`CoordCosts::startup`], and their workers re-activate the perpetual
/// task instances the previous job left parked in the bundlers, paying
/// neither `task_fork` nor `first_fork_extra`. The per-job virtual latency
/// of a warm fleet is therefore strictly below the cold first job's.
///
/// Each job gets fresh job-scoped masters (their own `Welcome`/`Bye` pair
/// and process uid); the bundlers, the machine CPU timelines, and the
/// pending-death queues belong to the fleet. A fault plan's `on_job`
/// ordinals index the fleet-lifetime dispatch sequence, so an injected
/// fault can fire in any job — fault plans extend across job boundaries —
/// and the retry budget is likewise fleet-lifetime. A submit that ends in
/// `Err` releases its masters and advances the clock to the failure, so
/// the fleet keeps serving.
pub struct SimFleet {
    sim: DistributedSim,
    shards: Vec<Shard>,
    master_name: Name,
    worker_name: Name,
    /// The fleet's virtual clock: end of the last job (or its failure).
    t: f64,
    started: bool,
    task_forks: usize,
    next_proc: u64,
    // Single-processor machines: a worker computes only when its host's
    // CPU is free (earlier workers bundled onto the same machine run
    // first — FIFO, which has the same makespan as time slicing).
    cpu_free: HashMap<HostName, f64>,
    // The fault plan indexed by fleet-lifetime dispatch ordinal. Earlier
    // faults win a collision, matching `FaultPlan::worker_faults`.
    lost: BTreeMap<u64, FaultKind>,
    stall_ms: BTreeMap<u64, u64>,
    // The shard a `poolkill` token sentences, until it fires.
    pool_kill: Option<usize>,
    // Drawn from only when a loss actually fires, so an empty plan leaves
    // the per-job `noise` sequences untouched.
    chaos_rng: StdRng,
    dispatch_no: u64,
    joins_applied: usize,
    leaves_applied: usize,
    redispatches: usize,
    retry_budget: usize,
    jobs_served: usize,
}

impl SimFleet {
    /// A cold fleet: nothing forked, virtual clock at zero, the given
    /// fault plan armed against the fleet-lifetime dispatch sequence.
    ///
    /// The simulator has no fixed pool slots, so a worker fault's `on_job`
    /// ordinal indexes the *dispatch sequence* (1-based, re-dispatches
    /// included). Crash, connection drop, and corrupt reply are all a lost
    /// job to the master: the worker burns part (crash), almost none
    /// (drop), or all (corrupt) of its compute, the loss is detected after
    /// `LOSS_DETECTION_SECS` of virtual time — immediately, for a CRC-rejected reply —
    /// and the job is re-dispatched, counted in
    /// [`DistributedReport::redispatches`]. A stall sleeps the worker before
    /// its compute; a heartbeat delay is absorbed by the live transport's
    /// margin and costs nothing in virtual time; a master or daemon kill is
    /// a live supervisor concern and is inert here. `poolkill@N` kills
    /// shard master `N` (clamped) once it has dispatched half its share of
    /// a pool; it needs two or more shards. An empty plan leaves the noise
    /// draws untouched. When the injected losses outnumber `retry_budget`,
    /// [`SimFleet::submit`] ends in a diagnosed `Err` — never a hang.
    pub fn new(sim: DistributedSim, plan: &FaultPlan, retry_budget: usize) -> SimFleet {
        let mut lost: BTreeMap<u64, FaultKind> = BTreeMap::new();
        let mut stall_ms: BTreeMap<u64, u64> = BTreeMap::new();
        for fault in &plan.faults {
            match *fault {
                FaultKind::WorkerCrash { on_job, .. }
                | FaultKind::ConnDrop { on_job, .. }
                | FaultKind::FrameCorrupt { on_job, .. } => {
                    lost.entry(on_job).or_insert(*fault);
                }
                FaultKind::ConnStall { on_job, millis, .. } => {
                    stall_ms.entry(on_job).or_insert(millis);
                }
                FaultKind::HeartbeatDelay { .. }
                | FaultKind::MasterKill { .. }
                | FaultKind::DaemonKill { .. }
                | FaultKind::PoolKill { .. } => {}
            }
        }
        let shards = shard::partition(&sim);
        let pool_kill = plan
            .pool_kill()
            .filter(|_| shards.len() > 1)
            .map(|p| (p as usize).min(shards.len() - 1));
        SimFleet {
            sim,
            shards,
            master_name: Name::new("Master"),
            worker_name: Name::new("Worker"),
            t: 0.0,
            started: false,
            task_forks: 0,
            next_proc: 1,
            cpu_free: HashMap::new(),
            lost,
            stall_ms,
            pool_kill,
            chaos_rng: StdRng::seed_from_u64(plan.seed ^ 0x00c5_a05c_0de0_f003),
            dispatch_no: 0,
            joins_applied: 0,
            leaves_applied: 0,
            redispatches: 0,
            retry_budget,
            jobs_served: 0,
        }
    }

    /// Jobs this fleet has served to completion.
    pub fn jobs_served(&self) -> usize {
        self.jobs_served
    }

    /// Task instances forked over the fleet's whole life.
    pub fn task_forks(&self) -> usize {
        self.task_forks
    }

    /// Idle perpetual worker instances currently parked in the bundlers,
    /// ready to be re-activated fork-free by the next job.
    pub fn parked_workers(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.bundler.parked_instances())
            .sum()
    }

    /// Serve one job: fresh job-scoped masters run `wl` on the fleet.
    ///
    /// The report's `elapsed` is the *per-job* virtual latency (submit to
    /// completion); its records, busy trace, machine averages and shard
    /// counters cover only this job. `task_forks` is the fleet-lifetime
    /// count (so the first job of a fresh fleet reports exactly what a
    /// one-job fleet reports); `redispatches` counts only this job's.
    pub fn submit(
        &mut self,
        wl: &Workload,
        noise: &mut Perturbation,
        policy: &dyn DispatchPolicy,
    ) -> Result<DistributedReport, String> {
        let job_start = self.t;
        let redispatches_before = self.redispatches;
        for shard in self.shards.iter_mut().filter(|s| s.alive) {
            let placement = shard.bundler.place(&self.master_name);
            shard.job_master = Some((placement, self.next_proc));
            self.next_proc += 1;
        }
        let root = self.sim.cluster.startup().name.clone();
        let mut log = JobLog {
            per_shard_jobs: vec![0; self.shards.len()],
            ..JobLog::default()
        };

        // Application start-up (the fleet's first job only — it stays up
        // between jobs), then the initialization on the start-up machine.
        if !self.started {
            self.started = true;
            self.t += self.sim.costs.startup;
        }
        self.t += noise.perturb(self.sim.cluster.compute_time(&root, wl.init_flops));
        let mut t = self.t;
        for shard in self.shards.iter().filter(|s| s.alive) {
            let (placement, uid) = shard.job_master.as_ref().expect("placed above");
            let welcome = record(placement, *uid, "Master(port in)", 136, t, "Welcome");
            log.records.push(welcome);
        }

        for pool in &wl.pools {
            match self.run_pool(t, pool, wl, noise, policy, &mut log) {
                Ok(end) => t = end,
                Err((failed_at, e)) => {
                    self.release_masters();
                    self.t = failed_at;
                    return Err(e);
                }
            }
        }

        // Prolongation on the start-up machine, then this job is done.
        t += noise.perturb(self.sim.cluster.compute_time(&root, wl.prolong_flops));
        let job_end = t;
        log.busy
            .entry(root.clone())
            .or_default()
            .push((job_start, job_end));
        for shard in self.shards.iter().filter(|s| s.alive) {
            let (placement, uid) = shard.job_master.as_ref().expect("placed above");
            log.records.push(record(
                placement,
                *uid,
                "Master(port in)",
                337,
                job_end,
                "Bye",
            ));
            // A master's machine is busy for this whole job.
            log.busy
                .entry(placement.host.clone())
                .or_default()
                .push((job_start, job_end));
        }

        // Busy-machine step function: union of intervals per host, then one
        // +1/−1 pair per maximal busy stretch.
        let mut busy = StepTrace::new();
        for intervals in log.busy.values_mut() {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut current: Option<(f64, f64)> = None;
            for &(s, e) in intervals.iter() {
                match current {
                    Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        busy.interval(cs, ce);
                        current = Some((s, e));
                    }
                    None => current = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = current {
                busy.interval(cs, ce);
            }
        }

        log.records.sort_by_key(|a| (a.secs, a.usecs));
        let weighted_avg_machines = busy.weighted_average(job_start, job_end);
        let peak_machines = busy.peak();

        // The job-scoped masters die; their (perpetual) instances park for
        // the next job's masters.
        self.release_masters();
        self.t = job_end;
        self.jobs_served += 1;
        Ok(DistributedReport {
            elapsed: job_end - job_start,
            busy,
            weighted_avg_machines,
            peak_machines,
            task_forks: self.task_forks,
            records: log.records,
            master_host: root,
            redispatches: self.redispatches - redispatches_before + log.orphans,
            steals: log.steals,
            joins: log.joins,
            leaves: log.leaves,
            rehomes: log.rehomes,
            per_shard_jobs: log.per_shard_jobs,
            shard_finish: self.shards.iter().map(|s| s.finish).collect(),
        })
    }

    fn release_masters(&mut self) {
        for shard in &mut self.shards {
            if let Some((placement, _)) = shard.job_master.take() {
                shard.bundler.release(&placement);
            }
        }
    }

    /// Seconds from the root to shard `s`'s master for a `bytes` message:
    /// nothing when the master *is* the root (the flat topology).
    fn root_hop(&self, s: usize, bytes: usize) -> f64 {
        if self.shards[s].master == self.sim.cluster.startup().name {
            0.0
        } else {
            self.sim.costs.event_latency + self.sim.fabric.inter.remote_transfer(bytes)
        }
    }

    /// One pool, from `create_pool` at `t` to the rendezvous
    /// acknowledgement (returned). `Err` carries the failure time.
    fn run_pool(
        &mut self,
        t: f64,
        pool: &[Job],
        wl: &Workload,
        noise: &mut Perturbation,
        policy: &dyn DispatchPolicy,
        log: &mut JobLog,
    ) -> Result<f64, (f64, String)> {
        // create_pool + Create_Worker_Pool entry.
        let t_pool = t + (self.sim.costs.event_latency + self.sim.costs.pool_setup);
        // The policy sees each job's cost and answers with a dispatch order
        // and an in-flight window; the root splits the order over the live
        // shards and hands each its queue.
        let costs: Vec<f64> = pool.iter().map(|j| j.flops).collect();
        let order = policy.order(&costs);
        debug_assert_eq!(order.len(), pool.len());
        let seq_costs: Vec<f64> = order.iter().map(|&j| costs[j]).collect();
        let plan = ShardPlan::partition(&seq_costs, self.shards.len());
        let mut queues = StealQueues::new(&plan);
        for s in 0..self.shards.len() {
            if !self.shards[s].alive {
                queues.rehome(s);
            }
        }
        for s in 0..self.shards.len() {
            let start = t_pool + self.root_hop(s, 64 * queues.pending(s));
            let shard = &mut self.shards[s];
            shard.t = start;
            shard.last_death_event = start;
            shard.window = policy.window(queues.pending(s)).max(1);
            shard.arrivals.clear();
            shard.dispatched = 0;
        }
        let kill_at = self
            .pool_kill
            .map(|s| (s, queues.pending(s).div_ceil(2).max(1)));
        // A re-dispatched job waits until its loss is detected.
        let mut not_before = vec![0.0f64; pool.len()];

        while let Some(s) = self.next_shard(&queues) {
            if queues.pending(s) == 0 {
                // Pop-two-merge steal: the idle master asks the root, which
                // brokers two jobs off the most loaded queue — one
                // inter-pool round trip, charged to the thief.
                let ev = queues.steal_into(s).expect("next_shard saw a victim");
                let shard = &mut self.shards[s];
                shard.t += 2.0 * self.sim.fabric.inter.latency + self.sim.costs.event_latency;
                log.steals += 1;
                let msg = format!(
                    "steal: shard {s} <- shard {} ({} jobs)",
                    ev.victim,
                    ev.jobs.len()
                );
                log.event(shard, shard.t, msg);
            }
            let k = queues.pop_own(s).expect("shard selected with work");
            let job = &pool[order[k]];
            let stolen = plan.assignment[k] != s;
            if let Some(detect_at) =
                self.dispatch(s, k, job, stolen, not_before[k], wl, noise, log)?
            {
                not_before[k] = detect_at;
                queues.requeue(s, k);
            }
            if kill_at.is_some_and(|(kp, at)| kp == s && self.shards[s].dispatched >= at) {
                self.kill_shard(s, &mut queues, log);
            }
        }

        // Collect phase: each master drains its remaining in-flight
        // results serially, in arrival order, and reports to the root.
        let mut t = f64::NEG_INFINITY;
        for s in 0..self.shards.len() {
            let shard = &mut self.shards[s];
            if !shard.alive {
                continue;
            }
            shard.arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(arrival, bytes, _) in &shard.arrivals {
                let handle = wl.collect_flops_per_byte * bytes as f64 / shard.master_speed;
                shard.t = shard.t.max(arrival) + noise.perturb(handle);
            }
            shard.arrivals.clear();
            shard.finish = shard.t;
            let done = shard.t;
            t = t.max(done + self.root_hop(s, 64));
        }

        // Rendezvous: the coordinator has to count every death_worker.
        let last_death = self.shards.iter().map(|s| s.last_death_event);
        let last_death = last_death.fold(f64::NEG_INFINITY, f64::max);
        t += self.sim.costs.event_latency;
        t = t.max(last_death) + self.sim.costs.event_latency;
        for shard in &mut self.shards {
            for (_, placement) in shard.deaths.pop_until(t) {
                shard.bundler.release(&placement);
            }
        }
        Ok(t)
    }

    /// The live master to act next: the earliest clock (ties to the lowest
    /// index) among those with queued work, or — stealing on — with a
    /// victim holding more than one job (the steal rule never takes a
    /// last job, which keeps the loop terminating).
    fn next_shard(&self, queues: &StealQueues) -> Option<usize> {
        let loaded = (0..self.shards.len())
            .filter(|&i| queues.pending(i) > 1)
            .count();
        let mut next: Option<usize> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            let victim = self.sim.shards.steal && loaded > usize::from(queues.pending(s) > 1);
            if !shard.alive || (queues.pending(s) == 0 && !victim) {
                continue;
            }
            match next {
                Some(b) if self.shards[b].t <= shard.t => {}
                _ => next = Some(s),
            }
        }
        next
    }

    /// Apply the churn plan's joins and leaves up to the current dispatch
    /// ordinal.
    fn apply_churn(&mut self, log: &mut JobLog) {
        let plan = &self.sim.churn;
        while plan
            .joins
            .get(self.joins_applied)
            .is_some_and(|&at| at <= self.dispatch_no)
        {
            self.joins_applied += 1;
            // A fresh host reports in; the root assigns it the
            // least-populated pool. Unknown hosts run at reference speed.
            let host = HostName::new(format!("join{:05}.fleet", self.joins_applied));
            let s = shard::join(&mut self.shards, &self.worker_name, host.clone());
            log.joins += 1;
            let shard = &self.shards[s];
            log.event(
                shard,
                shard.t,
                format!("join: worker {host} -> pool {s} (Welcome)"),
            );
        }
        while plan
            .leaves
            .get(self.leaves_applied)
            .is_some_and(|&at| at <= self.dispatch_no)
        {
            self.leaves_applied += 1;
            if let Some((s, host)) = shard::leave(&mut self.shards) {
                log.leaves += 1;
                let shard = &self.shards[s];
                log.event(
                    shard,
                    shard.t,
                    format!("leave: worker {host} <- pool {s} (Bye)"),
                );
            }
        }
    }

    /// `poolkill`: shard `s`'s master dies. The root re-homes its queued
    /// jobs, re-dispatches the results it never collected, and hands its
    /// hosts to the survivors — one re-home event.
    fn kill_shard(&mut self, s: usize, queues: &mut StealQueues, log: &mut JobLog) {
        self.pool_kill = None;
        let t = self.shards[s].t;
        log.event(
            &self.shards[s],
            t,
            format!("poolkill: shard {s} master lost"),
        );
        let moved_jobs = queues.rehome(s);
        let orphans: Vec<usize> = self.shards[s].arrivals.drain(..).map(|a| a.2).collect();
        let survivors: Vec<usize> = (0..self.shards.len())
            .filter(|&i| i != s && self.shards[i].alive)
            .collect();
        for (i, &k) in orphans.iter().enumerate() {
            queues.requeue(survivors[i % survivors.len()], k);
        }
        log.orphans += orphans.len();
        let moved_hosts = shard::rehome_hosts(&mut self.shards, s, &self.worker_name);
        log.rehomes += 1;
        let msg = format!(
            "re-home: {moved_hosts} workers, {} jobs -> surviving shards",
            moved_jobs + orphans.len()
        );
        log.event(&self.shards[s], t, msg);
        let shard = &mut self.shards[s];
        shard.alive = false;
        shard.finish = t;
        // Its instances are lost with it; the job's Bye is not its to say.
        shard.job_master = None;
    }

    /// Shard `s` dispatches job `k`: the master's serial create/activate/
    /// feed sequence, then the worker's compute on its host. Returns the
    /// loss-detection time when an injected fault loses the job.
    #[allow(clippy::too_many_arguments)] // the pool's context, passed down
    fn dispatch(
        &mut self,
        s: usize,
        k: usize,
        job: &Job,
        stolen: bool,
        not_before: f64,
        wl: &Workload,
        noise: &mut Perturbation,
        log: &mut JobLog,
    ) -> Result<Option<f64>, (f64, String)> {
        let costs = self.sim.costs;
        let net = self.sim.fabric.intra;
        // Backpressure: with the window full, the master collects the
        // earliest pending result before feeding more work.
        let shard = &mut self.shards[s];
        let mut t = shard.t;
        while shard.arrivals.len() >= shard.window {
            let i = (0..shard.arrivals.len())
                .min_by(|&a, &b| shard.arrivals[a].0.total_cmp(&shard.arrivals[b].0))
                .expect("window is full");
            let (arrival, bytes, _) = shard.arrivals.remove(i);
            let handle = wl.collect_flops_per_byte * bytes as f64 / shard.master_speed;
            t = t.max(arrival) + noise.perturb(handle);
        }
        t = t.max(not_before);
        shard.t = t;
        self.dispatch_no += 1;
        let this_dispatch = self.dispatch_no;
        self.apply_churn(log);
        let shard = &mut self.shards[s];
        shard.dispatched += 1;
        log.per_shard_jobs[s] += 1;
        // Master raises create_worker; the coordinator reacts.
        t += costs.event_latency;
        // Any worker whose task already expired frees its machine before
        // this placement (perpetual reuse — including the previous job's
        // workers, which is what makes a warm fleet fork-free)...
        for (_, placement) in shard.deaths.pop_until(t) {
            shard.bundler.release(&placement);
        }
        // ...and with a live worker on every machine of the locus (placed,
        // not yet released), the master waits for the earliest to die
        // (`load 1`).
        while shard.deaths.len() >= shard.locus.len() {
            let Some((died, placement)) = shard.deaths.pop() else {
                break;
            };
            t = t.max(died);
            shard.bundler.release(&placement);
        }
        // Coordinator creates the worker process...
        t += costs.worker_create;
        let placement = shard.bundler.place(&self.worker_name);
        if placement.forked {
            self.task_forks += 1;
        }
        let busy_start = t;
        // ...and sends its reference to the master.
        t += costs.event_latency;
        // Master activates the worker (forking its task instance if the
        // bundler had to start a fresh one; the first fork of the fleet's
        // life pays the cold binary load).
        t += costs.activation;
        if placement.forked {
            t += costs.task_fork;
            if self.task_forks == 1 {
                t += costs.first_fork_extra;
            }
        }
        // Master feeds the worker: serialize + transfer. A stolen job's
        // input lives in the victim's region and crosses the inter-pool
        // link.
        let same_host = placement.host == shard.master;
        let feed = wl.feed_flops_per_byte * job.input_bytes as f64 / shard.master_speed
            + self
                .sim
                .fabric
                .transfer(job.input_bytes, same_host, !stolen);
        t += noise.perturb(feed);
        shard.t = t;

        // The worker computes concurrently from here on — but its
        // single-processor host may still be running earlier workers.
        let cpu = self.cpu_free.entry(placement.host.clone()).or_insert(0.0);
        let worker_start = t.max(*cpu);
        let mut compute = noise.perturb(self.sim.cluster.compute_time(&placement.host, job.flops));
        if let Some(ms) = self.stall_ms.get(&this_dispatch) {
            // ConnStall: the worker sleeps before computing, but its
            // heartbeats keep flowing — nothing is declared dead.
            compute += *ms as f64 / 1000.0;
        }
        let uid = self.next_proc;
        self.next_proc += 1;
        let trace = |line, t, msg: &str| record(&placement, uid, "Worker(event)", line, t, msg);
        log.records.push(trace(351, worker_start, "Welcome"));
        // How much of the job ran: an injected loss burns part (crash),
        // almost none (drop) or all (corrupt reply) of the compute.
        let lost = self.lost.get(&this_dispatch).copied();
        let fraction = match lost {
            None | Some(FaultKind::FrameCorrupt { .. }) => 1.0,
            Some(FaultKind::ConnDrop { .. }) => 0.05 * self.chaos_rng.gen::<f64>(),
            Some(_) => 0.25 + 0.5 * self.chaos_rng.gen::<f64>(),
        };
        let worker_end = worker_start + fraction * compute;
        *cpu = worker_end;
        // The task instance can expire once the result has left its
        // buffers (a lost worker's at once); the death_worker event
        // reaches the coordinator a hair after the worker's last action.
        let flush = net.transfer(job.output_bytes, same_host);
        let (release, msg) = match lost {
            None => (worker_end + flush, "Bye".to_string()),
            Some(kind) => (
                worker_end,
                format!("worker lost ({kind}, dispatch {this_dispatch})"),
            ),
        };
        log.records.push(trace(370, worker_end, &msg));
        let busy = log.busy.entry(placement.host.clone()).or_default();
        busy.push((busy_start, release));
        shard.last_death_event = shard.last_death_event.max(worker_end + costs.event_latency);
        shard.deaths.schedule(release, placement);
        let Some(kind) = lost else {
            shard.arrivals.push((release, job.output_bytes, k));
            return Ok(None);
        };
        // A corrupt reply is rejected on arrival; a silent death is
        // declared only after the loss-detection window.
        let detect_at = match kind {
            FaultKind::FrameCorrupt { .. } => worker_end + flush,
            _ => worker_end + LOSS_DETECTION_SECS,
        };
        if self.redispatches >= self.retry_budget {
            let budget = self.retry_budget;
            return Err((
                detect_at,
                format!("{msg}; retry budget ({budget}) exhausted"),
            ));
        }
        self.redispatches += 1;
        Ok(Some(detect_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::paper_cluster;
    use crate::workload::Job;
    use protocol::PaperFaithful;

    fn sim() -> DistributedSim {
        DistributedSim::new(paper_cluster(1e8))
    }

    fn simple_workload(jobs: usize, flops: f64) -> Workload {
        Workload {
            name: "test".into(),
            init_flops: 1e6,
            prolong_flops: 1e6,
            pools: vec![(0..jobs)
                .map(|k| Job::new(format!("job{k}"), flops, 80_000, 80_000))
                .collect()],
            feed_flops_per_byte: 1.0,
            collect_flops_per_byte: 1.0,
        }
    }

    #[test]
    fn elapsed_is_positive_and_bounded_below() {
        let sim = sim();
        let wl = simple_workload(4, 1e9);
        let mut noise = Perturbation::none();
        let report = sim.run(&wl, &mut noise, &PaperFaithful);
        // Concurrent elapsed can never beat the largest single job.
        let min = sim.cluster.compute_time(&sim.cluster.startup().name, 1e9) / (1466.0 / 1200.0);
        assert!(report.elapsed > min * 0.99, "{}", report.elapsed);
        assert!(report.elapsed.is_finite());
    }

    #[test]
    fn big_jobs_yield_speedup_small_jobs_do_not() {
        let sim = sim();
        let mut noise = Perturbation::none();
        // Tiny jobs: overheads dominate, speedup < 1 (paper levels < 10).
        let small = simple_workload(7, 1e6);
        let st_small = sim.sequential_time(&small, &mut Perturbation::none());
        let ct_small = sim.run(&small, &mut noise, &PaperFaithful).elapsed;
        assert!(st_small / ct_small < 1.0, "su {} ", st_small / ct_small);
        // Huge jobs: real speedup (paper levels ≥ 10).
        let big = simple_workload(7, 2e11);
        let st_big = sim.sequential_time(&big, &mut Perturbation::none());
        let ct_big = sim
            .run(&big, &mut Perturbation::none(), &PaperFaithful)
            .elapsed;
        assert!(
            st_big / ct_big > 2.0,
            "expected speedup, got {}",
            st_big / ct_big
        );
    }

    #[test]
    fn machines_grow_with_job_size() {
        let sim = sim();
        let small = sim
            .run(
                &simple_workload(9, 1e7),
                &mut Perturbation::none(),
                &PaperFaithful,
            )
            .weighted_avg_machines;
        let big = sim
            .run(
                &simple_workload(9, 1e11),
                &mut Perturbation::none(),
                &PaperFaithful,
            )
            .weighted_avg_machines;
        assert!(big > small, "big {big} small {small}");
        assert!(small >= 1.0, "master machine always busy: {small}");
    }

    #[test]
    fn peak_machines_bounded_by_cluster_and_jobs() {
        let sim = sim();
        let wl = simple_workload(9, 1e11);
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert!(report.peak_machines as usize <= sim.cluster.len());
        assert!(report.peak_machines as usize <= 9 + 1);
        assert!(report.peak_machines >= 2);
    }

    #[test]
    fn perpetual_reuse_limits_forks_for_quick_jobs() {
        let sim = sim();
        // Jobs so quick every worker dies before the next is placed.
        let wl = simple_workload(12, 1e5);
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert!(
            report.task_forks < 12,
            "expected task reuse, got {} forks",
            report.task_forks
        );
    }

    #[test]
    fn long_jobs_fork_one_task_each() {
        let sim = sim();
        let wl = simple_workload(5, 1e11);
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert_eq!(report.task_forks, 5);
    }

    #[test]
    fn trace_records_are_chronological_welcome_bye() {
        let sim = sim();
        let wl = simple_workload(3, 1e9);
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        // Master welcome + bye, 3 workers x (welcome + bye).
        assert_eq!(report.records.len(), 2 + 6);
        let times: Vec<u64> = report
            .records
            .iter()
            .map(|r| r.secs * 1_000_000 + r.usecs as u64)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.records[0].message, "Welcome");
        assert_eq!(report.records.last().unwrap().message, "Bye");
        assert_eq!(report.records[0].manifold_name.as_str(), "Master(port in)");
    }

    #[test]
    fn master_host_is_startup_machine() {
        let sim = sim();
        let wl = simple_workload(2, 1e8);
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert_eq!(report.master_host, sim.cluster.startup().name);
    }

    #[test]
    fn deterministic_without_noise() {
        let sim = sim();
        let wl = simple_workload(6, 1e9);
        let a = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let b = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.task_forks, b.task_forks);
    }

    #[test]
    fn averaging_runs_are_stable() {
        let sim = sim();
        let wl = simple_workload(4, 1e9);
        let (st, ct, m, reports) = sim.run_averaged(&wl, 5, 42, &PaperFaithful);
        assert_eq!(reports.len(), 5);
        assert!(st > 0.0 && ct > 0.0 && m >= 1.0);
        // Noise is bounded; the five runs agree within ~40%.
        let min = reports.iter().map(|r| r.elapsed).fold(f64::MAX, f64::min);
        let max = reports.iter().map(|r| r.elapsed).fold(0.0, f64::max);
        assert!(max / min < 1.4, "runs too noisy: {min} .. {max}");
    }

    #[test]
    fn bounded_policy_caps_peak_machines() {
        let sim = sim();
        let wl = simple_workload(9, 1e11);
        let unbounded = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let bounded = sim.run(
            &wl,
            &mut Perturbation::none(),
            &protocol::BoundedReuse::new(2),
        );
        // At most 2 workers in flight + the master's machine.
        assert!(
            bounded.peak_machines <= 3,
            "window 2 exceeded: {} machines",
            bounded.peak_machines
        );
        assert!(bounded.peak_machines < unbounded.peak_machines);
        // Throttling dispatch can only lengthen the run.
        assert!(bounded.elapsed >= unbounded.elapsed);
    }

    #[test]
    fn cost_aware_fronts_the_long_job() {
        let sim = sim();
        // One huge job hidden at the end of an otherwise light pool: the
        // paper order feeds it last, LPT feeds it first and wins.
        let mut wl = simple_workload(8, 1e9);
        wl.pools[0].push(Job::new("huge", 2e11, 80_000, 80_000));
        let paper = sim
            .run(&wl, &mut Perturbation::none(), &PaperFaithful)
            .elapsed;
        let lpt = sim
            .run(&wl, &mut Perturbation::none(), &protocol::CostAware)
            .elapsed;
        assert!(lpt < paper, "LPT {lpt} should beat paper order {paper}");
    }

    #[test]
    fn empty_fault_plan_reproduces_run_exactly() {
        let sim = sim();
        let wl = simple_workload(6, 1e9);
        let mut n1 = Perturbation::overnight(11);
        let mut n2 = Perturbation::overnight(11);
        let a = sim.run(&wl, &mut n1, &PaperFaithful);
        let b = SimFleet::new(sim.clone(), &FaultPlan::default(), 0)
            .submit(&wl, &mut n2, &PaperFaithful)
            .unwrap();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.weighted_avg_machines, b.weighted_avg_machines);
        assert_eq!(a.task_forks, b.task_forks);
        assert_eq!(b.redispatches, 0);
    }

    #[test]
    fn injected_loss_costs_a_redispatch_not_the_run() {
        let sim = sim();
        let wl = simple_workload(6, 1e9);
        let clean = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let plan = FaultPlan::new(5)
            .push(FaultKind::WorkerCrash {
                instance: 0,
                on_job: 2,
            })
            .push(FaultKind::FrameCorrupt {
                instance: 1,
                on_job: 4,
            });
        let faulted = SimFleet::new(sim.clone(), &plan, 4)
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        assert_eq!(faulted.redispatches, 2);
        // Every job still completed (6 worker Byes + master Welcome/Bye +
        // 2 loss lines).
        let losses = faulted
            .records
            .iter()
            .filter(|r| r.message.contains("worker lost"))
            .count();
        assert_eq!(losses, 2);
        let byes = faulted
            .records
            .iter()
            .filter(|r| r.message == "Bye")
            .count();
        assert_eq!(byes, 6 + 1);
        // Burned compute plus detection latency can only lengthen the run.
        assert!(faulted.elapsed > clean.elapsed);
    }

    #[test]
    fn faulted_run_is_deterministic_per_seed() {
        let sim = sim();
        let wl = simple_workload(6, 1e9);
        let plan = FaultPlan::from_seed(42, 4, 6);
        let budget = 8;
        let run = || {
            SimFleet::new(sim.clone(), &plan, budget).submit(
                &wl,
                &mut Perturbation::overnight(3),
                &PaperFaithful,
            )
        };
        let (a, b) = (run(), run());
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.elapsed, b.elapsed);
                assert_eq!(a.redispatches, b.redispatches);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("nondeterministic outcome: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn exhausted_retry_budget_is_a_clean_error() {
        let sim = sim();
        let wl = simple_workload(4, 1e9);
        let plan = FaultPlan::new(1)
            .push(FaultKind::WorkerCrash {
                instance: 0,
                on_job: 2,
            })
            .push(FaultKind::ConnDrop {
                instance: 1,
                on_job: 3,
            });
        let err = SimFleet::new(sim.clone(), &plan, 1)
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap_err();
        assert!(err.contains("retry budget"), "{err}");
    }

    #[test]
    fn stall_fault_lengthens_the_run_without_a_loss() {
        let sim = sim();
        let wl = simple_workload(4, 1e9);
        let clean = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let plan = FaultPlan::new(9).push(FaultKind::ConnStall {
            instance: 0,
            on_job: 4,
            millis: 30_000,
        });
        let stalled = SimFleet::new(sim.clone(), &plan, 0)
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        assert_eq!(stalled.redispatches, 0);
        assert!(stalled.elapsed > clean.elapsed + 25.0);
    }

    #[test]
    fn multiple_pools_are_serialized() {
        let sim = sim();
        let one_pool = simple_workload(6, 1e9);
        let mut two_pools = simple_workload(6, 1e9);
        let jobs = two_pools.pools.pop().unwrap();
        let (a, b) = jobs.split_at(3);
        two_pools.pools = vec![a.to_vec(), b.to_vec()];
        let ct1 = sim
            .run(&one_pool, &mut Perturbation::none(), &PaperFaithful)
            .elapsed;
        let ct2 = sim
            .run(&two_pools, &mut Perturbation::none(), &PaperFaithful)
            .elapsed;
        // The pool barrier (rendezvous between pools) can only slow it down.
        assert!(ct2 >= ct1, "two pools {ct2} vs one pool {ct1}");
    }

    #[test]
    fn fleet_job1_matches_solo_run_exactly() {
        let sim = sim();
        let wl = simple_workload(6, 1e9);
        let solo = sim.run(&wl, &mut Perturbation::overnight(7), &PaperFaithful);
        let mut fleet = SimFleet::new(sim, &FaultPlan::default(), 0);
        let first = fleet
            .submit(&wl, &mut Perturbation::overnight(7), &PaperFaithful)
            .unwrap();
        // The first job of a fresh fleet *is* the one-shot run: same virtual
        // times, same machine trace, same records, bit for bit.
        assert_eq!(first.elapsed, solo.elapsed);
        assert_eq!(first.weighted_avg_machines, solo.weighted_avg_machines);
        assert_eq!(first.peak_machines, solo.peak_machines);
        assert_eq!(first.task_forks, solo.task_forks);
        assert_eq!(first.records, solo.records);
        assert_eq!(fleet.jobs_served(), 1);
    }

    #[test]
    fn warm_fleet_jobs_are_strictly_faster_and_fork_free() {
        let wl = simple_workload(6, 1e9);
        let mut fleet = SimFleet::new(sim(), &FaultPlan::default(), 0);
        let cold = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        // The first job parked its perpetual worker instances in the bundler.
        assert!(fleet.parked_workers() > 0, "{}", fleet.parked_workers());
        let forks_after_cold = fleet.task_forks();
        let warm = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        // Warm jobs skip application startup and re-activate parked
        // instances instead of forking fresh ones.
        assert!(
            warm.elapsed < cold.elapsed,
            "warm {} vs cold {}",
            warm.elapsed,
            cold.elapsed
        );
        assert_eq!(fleet.task_forks(), forks_after_cold, "no new forks");
        // And every warm job after that costs the same again (up to float
        // rounding: later jobs run at a larger absolute virtual time).
        let warm2 = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        assert!(
            (warm2.elapsed - warm.elapsed).abs() < 1e-9 * warm.elapsed,
            "{} vs {}",
            warm2.elapsed,
            warm.elapsed
        );
        assert_eq!(fleet.jobs_served(), 3);
    }

    #[test]
    fn a_full_locus_makes_the_master_wait_for_a_death() {
        // Two worker machines, six long jobs: with `load 1` the master
        // waits and reuses the two perpetual instances instead of forking
        // more onto busy machines.
        let mut cluster = paper_cluster(1e8);
        cluster.hosts.truncate(3);
        let report = DistributedSim::new(cluster).run(
            &simple_workload(6, 1e10),
            &mut Perturbation::none(),
            &PaperFaithful,
        );
        assert_eq!(report.task_forks, 2);
        assert_eq!(report.peak_machines, 3);
    }

    #[test]
    fn a_failed_submit_leaves_the_fleet_serving() {
        let wl = simple_workload(5, 1e9);
        let plan = FaultPlan::parse("crash:0@1").unwrap();
        let mut fleet = SimFleet::new(DistributedSim::new(paper_cluster(1e9)), &plan, 0);
        let err = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap_err();
        assert!(err.contains("retry budget"), "{err}");
        assert_eq!(fleet.jobs_served(), 0);
        let next = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        // The failed job's master was released, so the next one runs on
        // the start-up machine again...
        let master = next
            .records
            .iter()
            .find(|r| r.manifold_name.as_str() == "Master(port in)")
            .unwrap();
        assert_eq!(master.host, paper_cluster(1e9).startup().name);
        // ...and the fleet counts as started: no second start-up charge
        // (a fork or two more than a warm job, at most).
        let sim = DistributedSim::new(paper_cluster(1e9));
        let mut clean = SimFleet::new(sim.clone(), &FaultPlan::default(), 0);
        for _ in 0..2 {
            clean
                .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
                .unwrap();
        }
        let warm = clean
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        assert!(
            next.elapsed < warm.elapsed + sim.costs.startup,
            "{} vs warm {}",
            next.elapsed,
            warm.elapsed
        );
    }

    #[test]
    fn fault_plan_spans_job_boundaries() {
        let wl = simple_workload(4, 1e9);
        // Dispatches 1..=4 belong to job 1; on_job 6 lands inside job 2.
        let plan = FaultPlan::new(3).push(FaultKind::WorkerCrash {
            instance: 0,
            on_job: 6,
        });
        let mut fleet = SimFleet::new(sim(), &plan, 2);
        let first = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        assert_eq!(first.redispatches, 0, "fault must not fire in job 1");
        let second = fleet
            .submit(&wl, &mut Perturbation::none(), &PaperFaithful)
            .unwrap();
        assert_eq!(second.redispatches, 1, "fault fires in job 2");
        let losses = second
            .records
            .iter()
            .filter(|r| r.message.contains("worker lost"))
            .count();
        assert_eq!(losses, 1);
    }
}
