//! The serving daemon: one thread, `serve-loop`, owns the sockets, the
//! session table and the engine, and runs one `poll(2)` loop over them.
//!
//! ```text
//!  listener, tenant sockets ──┐     ┌── Engine::on_job_finished
//!                             v     v     DrainTrigger::drain
//!               ┌───── poll(2) ◄── Waker
//!  serve-loop,  │ 1 accept
//!  each turn:   │ 2 read, decode, handle ──offer──> Admission
//!               │ 3 finished jobs: journal, queue replies
//!               │ 4 Admission::next(0) into free slots ──> Engine::submit
//!               └ 5 flush each outbox once
//! ```
//!
//! The loop builds the [`Engine`] on itself before its first turn (the
//! engine is not `Send`; the builder closure is), so fleet bring-up is
//! part of the daemon's start, not job 1's latency, and then keeps
//! [`Engine::width`] jobs in flight on the one persistent worker fleet.
//! [`Daemon::start`] starts the loop, and so the fleet, first: the
//! journal's recovery and the bind run on the starting thread while the
//! workers come up, and the loop takes its first turn once it has both
//! its engine and its reactor.
//! A finished job and a drain reach it through the reactor's one
//! [`Waker`]; everything else it waits for is a socket. Nothing on the
//! loop blocks but `poll(2)`: a `Submit` is offered and either queued or
//! answered with a `Reject` in the same turn. Two things hold dispatch —
//! an injected tenant `stall` and the pause after a failed journal write
//! — and each is a "no pops before this instant" deadline: the poll
//! timeout is that deadline, so sockets keep being served while dispatch
//! waits. The one exception is the sim backend, whose `Engine::submit`
//! runs the whole simulated job inline: a sim job delays that turn's
//! socket I/O.
//!
//! **Drain** is the only shutdown: trigger it with a tenant `Drain`
//! message, [`DrainTrigger::drain`] (the daemon binary wires SIGTERM to
//! it), or a test calling the trigger directly. From that point offers
//! are rejected with [`RejectReason::Draining`], the loop finishes the
//! accepted backlog, every session hears `Drained{served}`, and each
//! outbox is flushed (within [`DaemonConfig::drain_grace`]) before the
//! sockets close — an accepted job is either served or charged, never
//! silently dropped.
//!
//! Chaos reinterprets the cluster fault vocabulary per *tenant*: a
//! [`FaultPlan`]'s `instance` selects the tenant's registration ordinal,
//! and `on_job` counts that tenant's dispatched jobs, so
//! `--faults crash:0@3` means "tenant 0's third job fails in the engine"
//! — exercising the retry-then-quarantine budget path end to end.
//!
//! [`RejectReason::Draining`]: crate::proto::RejectReason::Draining

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chaos::FaultPlan;
use manifold::prelude::MfResult;
use renovation::{AppConfig, Engine, EngineSummary, JobHandle, JobReport};
use solver::sequential::SequentialApp;
use transport::poll::Waker;
use transport::stage::{self, Stage};
use transport::Addr;

use crate::admission::{Admission, AdmissionConfig, AdmissionStats, Next, Offer, QueuedJob};
use crate::journal::{Admit, Journal, JournalConfig, OutcomeBody};
use crate::proto::{ServeMsg, SERVE_PROTOCOL_VERSION};
use crate::reactor::Reactor;
use crate::registry::SessionId;

/// Builds the engine *on* the serve loop's thread (the engine itself is
/// not `Send`; the closure is).
pub type EngineBuilder = Box<dyn FnOnce() -> MfResult<Engine> + Send + 'static>;

/// Everything a daemon needs to start.
pub struct DaemonConfig {
    /// Listen address (`tcp:host:port` or `unix:path`).
    pub addr: Addr,
    /// Admission tuning (queue caps, weights, budgets).
    pub admission: AdmissionConfig,
    /// Per-tenant fault schedule (`instance` = tenant ordinal). A
    /// `daemonkill@N` token makes the daemon SIGKILL itself after
    /// journaling its `N`-th outcome — the crash-recovery test hook.
    pub tenant_faults: Option<FaultPlan>,
    /// How long the final outbox flush may take before the loop abandons
    /// unflushed (dead) peers.
    pub drain_grace: Duration,
    /// Crash durability: journal every admission and outcome here, and
    /// recover (rebuild tenants + requeue unfinished jobs) on start.
    /// `None` keeps the original volatile semantics.
    pub journal: Option<JournalConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: Addr::Tcp("127.0.0.1:0".into()),
            admission: AdmissionConfig::default(),
            tenant_faults: None,
            drain_grace: Duration::from_secs(5),
            journal: None,
        }
    }
}

/// Final accounting, returned by [`Daemon::wait`].
#[derive(Debug)]
pub struct DaemonReport {
    /// Jobs served with a `Done` reply over the daemon's life.
    pub served: u64,
    /// Offers rejected (backpressure, drain, quarantine, capacity).
    pub rejected: u64,
    /// Accepted jobs whose session vanished before their reply.
    pub orphaned: u64,
    /// High-water mark of queued + in-flight jobs.
    pub peak_in_system: usize,
    /// Full admission-layer snapshot (per-tenant rows included).
    pub stats: AdmissionStats,
    /// Most jobs the loop had running in the engine at once — at most
    /// the engine's width.
    pub peak_in_flight: usize,
    /// The engine's own shutdown summary (`None` when the engine failed
    /// to construct or the serve loop panicked).
    pub engine: Option<EngineSummary>,
    /// Why the engine was unavailable, when it was.
    pub engine_error: Option<String>,
    /// True when the engine ran and every outbox flushed within the
    /// drain grace.
    pub clean: bool,
}

impl DaemonReport {
    fn new(
        stats: AdmissionStats,
        peak_in_flight: usize,
        engine: Result<EngineSummary, String>,
        flushed: bool,
    ) -> DaemonReport {
        let (engine, engine_error) = match engine {
            Ok(summary) => (Some(summary), None),
            Err(e) => (None, Some(e)),
        };
        DaemonReport {
            served: stats.served,
            rejected: stats.rejected,
            orphaned: stats.orphaned,
            peak_in_system: stats.peak_in_system,
            stats,
            peak_in_flight,
            clean: flushed && engine_error.is_none(),
            engine,
            engine_error,
        }
    }
}

/// A handle that can start (and observe) the drain from any thread —
/// the daemon binary hands one to its SIGTERM watcher.
#[derive(Clone)]
pub struct DrainTrigger {
    admission: Arc<Admission>,
    waker: Arc<Waker>,
}

impl DrainTrigger {
    /// Stop admitting, finish the backlog, shut down.
    pub fn drain(&self) {
        self.admission.drain();
        self.waker.wake();
    }

    /// Has a drain been triggered (by anyone)?
    pub fn draining(&self) -> bool {
        self.admission.draining()
    }
}

/// The running daemon.
pub struct Daemon {
    trigger: DrainTrigger,
    local: Addr,
    /// `None` only for a loop that never got its reactor.
    serve_loop: std::thread::JoinHandle<Option<DaemonReport>>,
}

impl Daemon {
    /// Start the serve loop, recover the journal and bind. The loop
    /// builds the engine with `build_engine` first, on its own thread, so
    /// the worker fleet comes up while this thread recovers and binds; it
    /// takes its first turn once both are done. A recovery or bind error
    /// shuts the fleet down again and is returned.
    pub fn start(cfg: DaemonConfig, build_engine: EngineBuilder) -> std::io::Result<Daemon> {
        let admission = Arc::new(Admission::new(cfg.admission));
        let (ready_tx, ready) = std::sync::mpsc::sync_channel::<(Reactor, Option<Journal>)>(1);
        let (faults, drain_grace) = (cfg.tenant_faults, cfg.drain_grace);
        let loop_admission = Arc::clone(&admission);
        let serve_loop = std::thread::Builder::new()
            .name("serve-loop".into())
            .spawn(move || {
                let mut engine =
                    build_engine().map_err(|e| format!("engine construction failed: {e}"));
                if engine.is_ok() {
                    stage::reached(Stage::EngineBuilt);
                }
                let Ok((reactor, journal)) = ready.recv() else {
                    // Recovery or the bind failed: nothing to serve.
                    engine.map(Engine::shutdown).ok();
                    return None;
                };
                if let Ok(e) = &mut engine {
                    let waker = reactor.waker();
                    e.on_job_finished(move || waker.wake());
                }
                Some(
                    ServeLoop {
                        width: engine.as_ref().map_or(1, Engine::width),
                        engine,
                        reactor,
                        admission: loop_admission,
                        journal,
                        running: Vec::new(),
                        peak_in_flight: 0,
                        hold: None,
                        stalled: None,
                        daemon_kill: faults.as_ref().and_then(FaultPlan::daemon_kill),
                        faults,
                        tenant_jobs: HashMap::new(),
                        outcomes: 0,
                        replied: false,
                        buf: vec![0; READ_CHUNK],
                    }
                    .run(drain_grace),
                )
            })?;
        match recover_and_bind(&admission, cfg.journal, &cfg.addr) {
            Ok((reactor, journal)) => {
                let local = reactor.local_addr().clone();
                let trigger = DrainTrigger {
                    admission,
                    waker: reactor.waker(),
                };
                ready_tx
                    .send((reactor, journal))
                    .expect("the serve loop waits for its reactor");
                Ok(Daemon {
                    trigger,
                    local,
                    serve_loop,
                })
            }
            Err(e) => {
                // Told there is nothing to serve, the loop shuts its
                // engine down: every worker child is reaped.
                drop(ready_tx);
                let _ = serve_loop.join();
                Err(e)
            }
        }
    }

    /// The bound listen address (kernel-assigned port resolved).
    pub fn local_addr(&self) -> &Addr {
        &self.local
    }

    /// A clonable handle that can trigger the drain from another thread.
    pub fn drain_trigger(&self) -> DrainTrigger {
        self.trigger.clone()
    }

    /// Live admission counters (monitoring).
    pub fn stats(&self) -> AdmissionStats {
        self.trigger.admission.stats()
    }

    /// Block until the drain completes (someone must trigger it) and the
    /// loop has torn everything down, then report. An accepted job is
    /// either in `served`, in a tenant's `failed` row, or in `orphaned` —
    /// drains lose nothing.
    pub fn wait(self) -> DaemonReport {
        match self.serve_loop.join() {
            Ok(Some(report)) => report,
            _ => {
                let stats = self.trigger.admission.stats();
                DaemonReport::new(stats, 0, Err("serve loop panicked".into()), false)
            }
        }
    }
}

/// Rebuild the admission state from the journal, if there is one, then
/// bind `addr`. Recovery comes *before* the bind: by the time a tenant
/// can reconnect, its identity, budgets, and unfinished jobs are already
/// back in the admission queue.
fn recover_and_bind(
    admission: &Admission,
    journal: Option<JournalConfig>,
    addr: &Addr,
) -> std::io::Result<(Reactor, Option<Journal>)> {
    let journal = match journal {
        None => None,
        Some(jc) => {
            let (j, rec) = Journal::open(jc)?;
            for (name, weight, failed) in &rec.tenants {
                admission.restore_tenant(name, *weight, *failed);
            }
            for p in &rec.pending {
                // Session 0 is never a live connection: the job is
                // detached until its tenant rebinds, and the reply
                // routes by tenant name anyway.
                admission.restore(QueuedJob {
                    tenant: Arc::from(p.tenant.as_str()),
                    session: 0,
                    seq: p.seq,
                    root: p.root,
                    level: p.level,
                    tol: p.tol,
                    attempts: 0,
                    enqueued: Instant::now(),
                });
            }
            if !rec.tenants.is_empty() {
                eprintln!(
                    "journal: recovered {} tenants; resubmitting {} unfinished jobs, \
                     {} unacknowledged replies await reconnect",
                    rec.tenants.len(),
                    rec.pending.len(),
                    rec.unacked_outcomes
                );
            }
            Some(j)
        }
    };
    Ok((Reactor::bind(addr)?, journal))
}

/// SIGKILL ourselves: the crash-recovery hook. No destructors, no flushes
/// — the closest a test can get to a power cut without root.
fn sigkill_self() -> ! {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn getpid() -> i32;
    }
    unsafe {
        kill(getpid(), 9);
    }
    // SIGKILL is not deliverable to a stopped clock, but the compiler
    // doesn't know that.
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Pause after a failed journal outcome write before the requeued job
/// can run again: a dead disk must not turn the loop into a hot
/// re-execute loop.
const JOURNAL_RETRY_PAUSE: Duration = Duration::from_millis(100);

/// Bytes asked of one `read(2)`.
const READ_CHUNK: usize = 64 * 1024;

/// Everything the serve loop owns.
struct ServeLoop {
    reactor: Reactor,
    admission: Arc<Admission>,
    journal: Option<Journal>,
    /// The engine, or why there is none.
    engine: Result<Engine, String>,
    width: usize,
    /// Jobs running in the engine, oldest first; never more than `width`.
    running: Vec<(QueuedJob, JobHandle)>,
    peak_in_flight: usize,
    /// No pops before this instant: an injected stall, or the pause after
    /// a failed journal write.
    hold: Option<Instant>,
    /// The popped job an injected stall is holding, with its injected
    /// error.
    stalled: Option<(QueuedJob, Option<String>)>,
    faults: Option<FaultPlan>,
    /// Per-tenant dispatched-job ordinals, the `on_job` coordinate of the
    /// per-tenant fault vocabulary.
    tenant_jobs: HashMap<Arc<str>, u64>,
    /// daemonkill@N: die *after* journaling outcome N but *before* sending
    /// it — the nastiest window, where only recovery + replay can save the
    /// reply.
    daemon_kill: Option<u64>,
    outcomes: u64,
    /// A `Done` was queued this turn: the flush writes it.
    replied: bool,
    buf: Vec<u8>,
}

impl ServeLoop {
    /// Turn until the drain has emptied the queues and the engine, then
    /// announce it, flush, and shut down.
    fn run(mut self, drain_grace: Duration) -> DaemonReport {
        loop {
            let timeout = self
                .hold
                .map(|t| t.saturating_duration_since(Instant::now()));
            for id in self.reactor.wait(timeout) {
                self.read(id);
            }
            self.collect_finished();
            if self.dispatch() {
                break;
            }
            self.flush();
            if std::mem::take(&mut self.replied) {
                stage::reached(Stage::FirstDone);
            }
        }

        let drained = ServeMsg::Drained {
            served: self.admission.served_total(),
        };
        for s in self.reactor.sessions.iter_mut() {
            s.send(&drained);
        }
        self.reactor.stop_accepting();
        let deadline = Instant::now() + drain_grace;
        let flushed = loop {
            self.flush();
            if self.reactor.sessions.iter_mut().all(|s| !s.has_output()) {
                break true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break false;
            }
            for id in self.reactor.wait(Some(left)) {
                self.read(id);
            }
        };
        drop(self.reactor);
        let engine = self.engine.map(Engine::shutdown);
        DaemonReport::new(self.admission.stats(), self.peak_in_flight, engine, flushed)
    }

    /// Read and handle what session `id` has sent, until its socket is
    /// drained for now, it is closing, or its peer turns out to be gone.
    fn read(&mut self, id: SessionId) {
        let mut more = true;
        loop {
            let Some(s) = self.reactor.sessions.get_mut(id) else {
                return;
            };
            if s.closing {
                return;
            }
            match s.next_msg() {
                Ok(Some(msg)) => {
                    self.on_message(id, msg);
                    continue;
                }
                Ok(None) if !more => return,
                Ok(None) => {}
                Err(()) => return self.disconnect(id),
            }
            match s.fill(&mut self.buf) {
                Ok(full) => more = full,
                Err(_) => return self.disconnect(id),
            }
        }
    }

    /// Write each outbox once; forget the sessions that closed.
    fn flush(&mut self) {
        for id in self.reactor.flush() {
            self.forget(id);
        }
    }

    /// `id`'s peer is gone (EOF, an error, or a corrupt frame).
    fn disconnect(&mut self, id: SessionId) {
        self.reactor.sessions.remove(id);
        self.forget(id);
    }

    /// Queued jobs from a departed session would be solved for nobody —
    /// except under a journal, where they survive the disconnect exactly
    /// like they survive a daemon crash, and their replies wait for the
    /// tenant to resume.
    fn forget(&self, id: SessionId) {
        if self.journal.is_none() {
            self.admission.forget_session(id);
        }
    }

    /// Decode-level protocol handling for one message from session `id`.
    fn on_message(&mut self, id: SessionId, msg: ServeMsg) {
        let Some(s) = self.reactor.sessions.get_mut(id) else {
            return;
        };
        match msg {
            ServeMsg::Hello {
                version,
                tenant,
                weight,
                token,
                last_reply,
            } => self.hello(id, version, &tenant, weight, token, last_reply),
            ServeMsg::Submit {
                seq,
                root,
                level,
                tol,
            } => self.submit(id, seq, root, level, tol),
            ServeMsg::Ack { upto } => {
                if let (Some(j), Some(tenant)) = (&self.journal, &s.tenant) {
                    if let Err(e) = j.ack(tenant, upto) {
                        eprintln!("journal: ack write failed: {e}");
                    }
                }
            }
            // Any tenant (or the operator over a socket) may start the
            // drain; the Drained broadcast answers everyone at the end.
            ServeMsg::Drain => self.admission.drain(),
            ServeMsg::Bye => {
                s.closing = true;
                if let Some(t) = s.tenant.clone() {
                    self.reactor.sessions.unbind_tenant(&t, id);
                }
                self.forget(id);
            }
            // Daemon-to-tenant messages arriving *at* the daemon are a
            // protocol violation.
            ServeMsg::Welcome { .. }
            | ServeMsg::Done { .. }
            | ServeMsg::Fail { .. }
            | ServeMsg::Reject { .. }
            | ServeMsg::Drained { .. } => s.closing = true,
        }
    }

    fn hello(
        &mut self,
        id: SessionId,
        version: i64,
        tenant: &str,
        weight: u32,
        token: u64,
        last_reply: u64,
    ) {
        let Some(s) = self.reactor.sessions.get_mut(id) else {
            return;
        };
        if version != SERVE_PROTOCOL_VERSION {
            return s.refuse(
                0,
                format!(
                    "protocol version {version} unsupported (daemon speaks \
                     {SERVE_PROTOCOL_VERSION})"
                ),
            );
        }
        // Journal first: the Welcome must not be sent for a tenant whose
        // registration could vanish in a crash.
        let (token, replay) = match &self.journal {
            Some(j) => match j.register(tenant, weight, token, last_reply) {
                Ok(resume) => (resume.token, resume.replay),
                Err(e) => return s.refuse(0, e),
            },
            None if token != 0 => {
                return s.refuse(
                    0,
                    "resume token presented, but this daemon runs without a journal — \
                     resume refused"
                        .into(),
                )
            }
            None => (0, Vec::new()),
        };
        self.admission.register(tenant, weight);
        let tenant: Arc<str> = Arc::from(tenant);
        s.tenant = Some(Arc::clone(&tenant));
        s.send(&ServeMsg::Welcome { session: id, token });
        // Replay unacknowledged replies *before* anything the client
        // pipelines after its Hello — same socket, so ordering is free.
        for frame in replay {
            s.push_frame(frame);
        }
        // Last Hello wins: with a journal, one session speaks for a tenant
        // at a time, and replies route by tenant, not by the submitting
        // socket.
        if self.journal.is_some() {
            self.reactor.sessions.bind_tenant(tenant, id);
        }
    }

    fn submit(&mut self, id: SessionId, seq: u64, root: u32, level: u32, tol: f64) {
        let Some(s) = self.reactor.sessions.get_mut(id) else {
            return;
        };
        let Some(tenant) = s.tenant.clone() else {
            return s.refuse(seq, "submit before hello".into());
        };
        if let Some(j) = &self.journal {
            // Write-ahead: the admission is durable before the admission
            // layer (or the client) learns of it.
            match j.admit(&tenant, seq, root, level, tol) {
                Ok(Admit::New) => {}
                // Already in flight from a previous connection — its reply
                // will arrive (or replay) on its own.
                Ok(Admit::DuplicatePending) => return,
                // Finished in a previous life: resend the recorded
                // outcome, never re-execute.
                Ok(Admit::Replay(frame)) => {
                    s.push_frame(frame);
                    return;
                }
                Err(e) => {
                    s.send(&ServeMsg::Fail {
                        seq,
                        rseq: 0,
                        error: format!("journal admit: {e}"),
                    });
                    return;
                }
            }
        }
        let job = || QueuedJob {
            tenant: Arc::clone(&tenant),
            session: id,
            seq,
            root,
            level,
            tol,
            attempts: 0,
            enqueued: Instant::now(),
        };
        let Offer::Rejected {
            reason,
            retry_after,
        } = self.admission.offer(job())
        else {
            return;
        };
        let retry_after_ms = retry_after.as_millis() as u64;
        let Some(j) = &self.journal else {
            s.send(&ServeMsg::Reject {
                seq,
                rseq: 0,
                retry_after_ms,
                reason,
            });
            return;
        };
        // Rejections are replies too: journaled (with a reply sequence)
        // before they are sent, so a crash between reject and delivery
        // still replays the backpressure signal instead of losing the seq.
        let body = OutcomeBody::Reject {
            retry_after_ms,
            reason,
        };
        match j.record_reply(&tenant, seq, body) {
            Ok((_, frame)) => s.push_frame(frame),
            Err(e) => {
                // The admit is journaled (Pending) but the reject cannot
                // be. Sending an unjournaled Reject would wedge the seq:
                // the backoff resubmit dedups against the Pending entry
                // and vanishes. Absorb the job instead — restore()
                // bypasses the admission gates, honoring the journal's
                // promise that an admitted seq produces an outcome.
                eprintln!(
                    "journal: reject outcome write failed: {e}; \
                     absorbing seq {seq} of tenant {tenant} despite rejection"
                );
                self.admission.restore(job());
            }
        }
    }

    /// Journal and answer every job the engine has finished.
    fn collect_finished(&mut self) {
        while let Some(i) = self.running.iter().position(|(_, h)| h.is_finished()) {
            let (job, handle) = self.running.remove(i);
            self.finish(job, handle.wait().map_err(|e| e.to_string()));
        }
    }

    /// Fill the engine's free slots from the fair-share queue, unless
    /// dispatch is held. True once the drain has emptied the queues and
    /// nothing is in flight.
    fn dispatch(&mut self) -> bool {
        if self.hold.is_some_and(|t| Instant::now() < t) {
            return false;
        }
        self.hold = None;
        if let Some((job, fault)) = self.stalled.take() {
            self.start(job, fault);
        }
        while self.running.len() < self.width && self.hold.is_none() {
            match self.admission.next(Duration::ZERO) {
                Next::Job(job) => {
                    let fault = self.injected_fault(&job);
                    if self.hold.is_some() {
                        self.stalled = Some((job, fault));
                    } else {
                        self.start(job, fault);
                    }
                }
                Next::Drained => return true,
                Next::Idle => break,
            }
        }
        false
    }

    /// Count `job` against its tenant's fault schedule: hold dispatch for
    /// an injected stall, return the error of an injected failure.
    fn injected_fault(&mut self, job: &QueuedJob) -> Option<String> {
        let plan = self.faults.as_ref()?;
        let n = self.tenant_jobs.entry(Arc::clone(&job.tenant)).or_insert(0);
        *n += 1;
        let n = *n;
        let wf = plan.worker_faults(self.admission.ordinal(&job.tenant)?);
        if let Some((_, millis)) = wf.stall_on_job.filter(|&(on_job, _)| on_job == n) {
            self.hold = Some(Instant::now() + Duration::from_millis(millis));
        }
        (wf.crash_on_job == Some(n) || wf.drop_on_job == Some(n) || wf.corrupt_on_job == Some(n))
            .then(|| format!("chaos: injected tenant fault on dispatched job {n}"))
    }

    /// Hand one popped job to the engine. A job that cannot be started —
    /// an injected fault, no engine, a refused submit — is finished on the
    /// spot with that error.
    fn start(&mut self, job: QueuedJob, fault: Option<String>) {
        let started = match (fault, &mut self.engine) {
            (Some(error), _) => Err(error),
            (None, Err(error)) => Err(error.clone()),
            (None, Ok(e)) => e
                .submit(AppConfig::new(SequentialApp::new(
                    job.root, job.level, job.tol,
                )))
                .map_err(|e| e.to_string()),
        };
        match started {
            Ok(handle) => {
                self.running.push((job, handle));
                self.peak_in_flight = self.peak_in_flight.max(self.running.len());
            }
            Err(error) => self.finish(job, Err(error)),
        }
    }

    /// One more outcome is durable; `daemonkill@N` fires on the N-th.
    fn outcome_journaled(&mut self) {
        self.outcomes += 1;
        if Some(self.outcomes) == self.daemon_kill {
            sigkill_self();
        }
    }

    /// Account, journal and answer one popped job's outcome.
    fn finish(&mut self, job: QueuedJob, outcome: Result<JobReport, String>) {
        let served = outcome.is_ok();
        let body = match outcome {
            Ok(report) => OutcomeBody::Done {
                grids: report.result.per_grid.len() as u64,
                l2_error: report.result.l2_error,
                combined: report.result.combined,
            },
            // Retry first (re-queued at the tenant's head); only a spent
            // retry budget surfaces the failure to the tenant.
            Err(error) => match self.admission.charge_failure(job.clone()) {
                Some(_) => return,
                None => OutcomeBody::Fail { error },
            },
        };
        let Some(j) = &self.journal else {
            let delivered = match self.reactor.sessions.get_mut(job.session) {
                Some(s) => s.send(&body.into_msg(job.seq, 0)),
                None => false,
            };
            if served {
                self.admission.complete(&job, delivered);
                self.replied |= delivered;
            }
            return;
        };
        // Journal the outcome before sending it: a crash in between
        // replays the reply; a crash before re-executes the
        // (deterministic) job.
        match j.record_reply(&job.tenant, job.seq, body) {
            Ok((_, frame)) => {
                self.outcome_journaled();
                if let Some(s) = self.reactor.sessions.tenant_session(&job.tenant) {
                    s.push_frame(frame);
                    self.replied |= served;
                }
                // An undelivered reply is not an orphan: it waits,
                // durably, for the tenant to resume.
                if served {
                    self.admission.complete(&job, true);
                }
            }
            Err(e) => {
                // Ending the job without a journaled outcome would wedge
                // the seq: the entry stays Pending, so resubmits dedup into
                // nothing until a restart replays it. Requeue instead —
                // re-execute (deterministic) and retry the write, after a
                // pause so a dead disk does not become a hot loop.
                eprintln!(
                    "journal: outcome write failed: {e}; requeueing seq {} of tenant {}",
                    job.seq, job.tenant
                );
                if served {
                    self.admission.requeue_after_journal_failure(job);
                } else {
                    // charge_failure already released the in-flight slot,
                    // so restore() re-arms the job; the re-run charges the
                    // budget again — accounting drift under a failing
                    // disk, traded for never wedging the seq.
                    self.admission.restore(job);
                }
                self.hold = Some(Instant::now() + JOURNAL_RETRY_PAUSE);
            }
        }
    }
}
