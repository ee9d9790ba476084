//! The serving daemon: reactor + admission + one engine, glued.
//!
//! Three kinds of thread cooperate around two shared structures:
//!
//! ```text
//!  tenant sockets ──> reactor threads ──offer──> Admission ──next_when──┐
//!        ^                 │  ^                      ^                  │
//!        │                 │  └── Session outbox <───│── dispatcher thread
//!        └── poll/flush ───┘                       poke          │
//!                                                    └── job ◄── Engine::submit
//! ```
//!
//! The reactor threads ([`crate::reactor`]) never block on the engine:
//! they decode a `Submit`, call [`Admission::offer`], and either return to
//! `poll(2)` or queue a `Reject` — admission is a mutex push, so a slow
//! solve never stalls the event loop. The single dispatcher thread owns
//! the [`Engine`] (the daemon builds it *on* the dispatcher thread via a
//! `Send` builder closure) and keeps [`Engine::width`] jobs in flight on
//! the one persistent worker fleet: whenever a slot is free it pulls the
//! next job in weighted-fair order and submits it, and as each job
//! finishes it journals the outcome and replies. It waits in one place —
//! [`Admission::next_when`], which an offer, a drain and a finished job
//! (the engine pokes the gate) all wake — so nothing is polled.
//!
//! **Drain** is the only shutdown: trigger it with a tenant `Drain`
//! message, [`DrainTrigger::drain`] (the daemon binary wires SIGTERM to
//! it), or a test calling the trigger directly. From that point offers
//! are rejected with [`RejectReason::Draining`], the dispatcher finishes
//! the accepted backlog, every session hears `Drained{served}`, and the
//! reactor flushes each outbox before closing — an accepted job is either
//! served or charged, never silently dropped.
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
use transport::Addr;

use crate::admission::{Admission, AdmissionConfig, AdmissionStats, Next, Offer, QueuedJob};
use crate::journal::{Admit, Journal, JournalConfig, OutcomeBody};
use crate::proto::{ServeMsg, SERVE_PROTOCOL_VERSION};
use crate::reactor::{Action, Reactor, Service};
use crate::registry::{Registry, Session};

/// Builds the dispatcher's engine *on* the dispatcher thread (the engine
/// itself is not `Send`; the closure is).
pub type EngineBuilder = Box<dyn FnOnce() -> MfResult<Engine> + Send + 'static>;

/// Everything a daemon needs to start.
pub struct DaemonConfig {
    /// Listen address (`tcp:host:port` or `unix:path`).
    pub addr: Addr,
    /// Reactor event threads; 0 means one per core.
    pub reactor_threads: usize,
    /// Admission tuning (queue caps, weights, budgets).
    pub admission: AdmissionConfig,
    /// Per-tenant fault schedule (`instance` = tenant ordinal). A
    /// `daemonkill@N` token makes the daemon SIGKILL itself after
    /// journaling its `N`-th outcome — the crash-recovery test hook.
    pub tenant_faults: Option<FaultPlan>,
    /// How long the final outbox flush may take before the reactor
    /// abandons unflushed (dead) peers.
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
            reactor_threads: 0,
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
    /// Most jobs the dispatcher had running in the engine at once — at
    /// most the engine's width.
    pub peak_in_flight: usize,
    /// The engine's own shutdown summary (`None` when the engine failed
    /// to construct or the dispatcher panicked).
    pub engine: Option<EngineSummary>,
    /// Why the engine was unavailable, when it was.
    pub engine_error: Option<String>,
    /// True when every event thread exited within the grace with every
    /// outbox flushed and every session deregistered.
    pub clean: bool,
}

/// A handle that can start (and observe) the drain from any thread —
/// the daemon binary hands one to its SIGTERM watcher.
#[derive(Clone)]
pub struct DrainTrigger {
    admission: Arc<Admission>,
}

impl DrainTrigger {
    /// Stop admitting, finish the backlog, shut down.
    pub fn drain(&self) {
        self.admission.drain();
    }

    /// Has a drain been triggered (by anyone)?
    pub fn draining(&self) -> bool {
        self.admission.draining()
    }
}

/// What the dispatcher thread hands back when the drain completes.
struct DispatchOutcome {
    peak_in_flight: usize,
    engine: Option<EngineSummary>,
    engine_error: Option<String>,
}

/// The running daemon.
pub struct Daemon {
    admission: Arc<Admission>,
    reactor: Option<Reactor>,
    dispatcher: Option<std::thread::JoinHandle<DispatchOutcome>>,
    drain_grace: Duration,
}

impl Daemon {
    /// Bind, spin up the reactor and the dispatcher, and start serving.
    /// `build_engine` runs on the dispatcher thread before the first job
    /// (fleet bring-up is part of the daemon's start, not job 1's
    /// latency).
    pub fn start(cfg: DaemonConfig, build_engine: EngineBuilder) -> std::io::Result<Daemon> {
        let admission = Arc::new(Admission::new(cfg.admission));
        let registry = Arc::new(Registry::new());

        // Recovery happens *before* the listener binds: by the time a
        // tenant can reconnect, its identity, budgets, and unfinished
        // jobs are already back in the admission queue.
        let journal = match &cfg.journal {
            None => None,
            Some(jc) => {
                let (j, rec) = Journal::open(jc.clone())?;
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
                Some(Arc::new(j))
            }
        };

        let service = Arc::new(ServeService {
            admission: Arc::clone(&admission),
            registry: Arc::clone(&registry),
            journal: journal.clone(),
        });
        let reactor = Reactor::start(
            &cfg.addr,
            cfg.reactor_threads,
            service,
            Arc::clone(&registry),
        )?;
        let dispatcher = {
            let admission = Arc::clone(&admission);
            let registry = Arc::clone(&registry);
            let faults = cfg.tenant_faults.clone();
            std::thread::Builder::new()
                .name("serve-dispatch".into())
                .spawn(move || dispatch_loop(build_engine, admission, registry, faults, journal))?
        };
        Ok(Daemon {
            admission,
            reactor: Some(reactor),
            dispatcher: Some(dispatcher),
            drain_grace: cfg.drain_grace,
        })
    }

    /// The bound listen address (kernel-assigned port resolved).
    pub fn local_addr(&self) -> &Addr {
        self.reactor.as_ref().expect("reactor running").local_addr()
    }

    /// A clonable handle that can trigger the drain from another thread.
    pub fn drain_trigger(&self) -> DrainTrigger {
        DrainTrigger {
            admission: Arc::clone(&self.admission),
        }
    }

    /// Live admission counters (monitoring).
    pub fn stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Block until the drain completes (someone must trigger it), then
    /// tear everything down and report. An accepted job is either in
    /// `served`, in a tenant's `failed` row, or in `orphaned` — drains
    /// lose nothing.
    pub fn wait(mut self) -> DaemonReport {
        let outcome = match self.dispatcher.take().expect("dispatcher running").join() {
            Ok(o) => o,
            Err(_) => DispatchOutcome {
                peak_in_flight: 0,
                engine: None,
                engine_error: Some("dispatcher panicked".into()),
            },
        };
        let reactor = self.reactor.take().expect("reactor running");
        reactor.stop_accepting();
        let clean = reactor.stop(self.drain_grace) && outcome.engine_error.is_none();
        let stats = self.admission.stats();
        DaemonReport {
            served: stats.served,
            rejected: stats.rejected,
            orphaned: stats.orphaned,
            peak_in_system: stats.peak_in_system,
            stats,
            peak_in_flight: outcome.peak_in_flight,
            engine: outcome.engine,
            engine_error: outcome.engine_error,
            clean,
        }
    }
}

/// The reactor-facing half: decode-level protocol handling, nothing that
/// blocks.
struct ServeService {
    admission: Arc<Admission>,
    registry: Arc<Registry>,
    journal: Option<Arc<Journal>>,
}

impl Service for ServeService {
    fn on_message(&self, session: &Arc<Session>, msg: ServeMsg) -> Action {
        match msg {
            ServeMsg::Hello {
                version,
                tenant,
                weight,
                token,
                last_reply,
            } => {
                if version != SERVE_PROTOCOL_VERSION {
                    session.send(&ServeMsg::Fail {
                        seq: 0,
                        rseq: 0,
                        error: format!(
                            "protocol version {version} unsupported (daemon speaks \
                             {SERVE_PROTOCOL_VERSION})"
                        ),
                    });
                    return Action::Close;
                }
                match &self.journal {
                    Some(j) => {
                        // Journal first: the Welcome must not be sent for
                        // a tenant whose registration could vanish in a
                        // crash.
                        let resume = match j.register(&tenant, weight, token, last_reply) {
                            Ok(r) => r,
                            Err(e) => {
                                session.send(&ServeMsg::Fail {
                                    seq: 0,
                                    rseq: 0,
                                    error: e,
                                });
                                return Action::Close;
                            }
                        };
                        self.admission.register(&tenant, weight);
                        let t: Arc<str> = Arc::from(tenant.as_str());
                        session.set_tenant(Arc::clone(&t));
                        // Last Hello wins: with a journal, one session
                        // speaks for a tenant at a time, and replies route
                        // by tenant, not by the submitting socket.
                        self.registry.bind_tenant(t, session.id);
                        session.send(&ServeMsg::Welcome {
                            session: session.id,
                            token: resume.token,
                        });
                        // Replay unacknowledged replies *before* anything
                        // the client pipelines after its Hello — same
                        // socket, so ordering is free.
                        for m in &resume.replay {
                            session.send(m);
                        }
                    }
                    None => {
                        if token != 0 {
                            session.send(&ServeMsg::Fail {
                                seq: 0,
                                rseq: 0,
                                error: "resume token presented, but this daemon runs \
                                        without a journal — resume refused"
                                    .into(),
                            });
                            return Action::Close;
                        }
                        self.admission.register(&tenant, weight);
                        session.set_tenant(Arc::from(tenant.as_str()));
                        session.send(&ServeMsg::Welcome {
                            session: session.id,
                            token: 0,
                        });
                    }
                }
                Action::Continue
            }
            ServeMsg::Submit {
                seq,
                root,
                level,
                tol,
            } => {
                let Some(tenant) = session.tenant() else {
                    session.send(&ServeMsg::Fail {
                        seq,
                        rseq: 0,
                        error: "submit before hello".into(),
                    });
                    return Action::Close;
                };
                if let Some(j) = &self.journal {
                    // Write-ahead: the admission is durable before the
                    // admission layer (or the client) learns of it.
                    match j.admit(&tenant, seq, root, level, tol) {
                        Ok(Admit::New) => {}
                        // Already in flight from a previous connection —
                        // its reply will arrive (or replay) on its own.
                        Ok(Admit::DuplicatePending) => return Action::Continue,
                        // Finished in a previous life: resend the recorded
                        // outcome, never re-execute.
                        Ok(Admit::Replay(msg)) => {
                            session.send(&msg);
                            return Action::Continue;
                        }
                        Err(e) => {
                            session.send(&ServeMsg::Fail {
                                seq,
                                rseq: 0,
                                error: format!("journal admit: {e}"),
                            });
                            return Action::Continue;
                        }
                    }
                }
                let offer = self.admission.offer(QueuedJob {
                    tenant: Arc::clone(&tenant),
                    session: session.id,
                    seq,
                    root,
                    level,
                    tol,
                    attempts: 0,
                    enqueued: Instant::now(),
                });
                if let Offer::Rejected {
                    reason,
                    retry_after,
                } = offer
                {
                    let retry_after_ms = retry_after.as_millis() as u64;
                    // Rejections are replies too: journaled (with a reply
                    // sequence) before they are sent, so a crash between
                    // reject and delivery still replays the backpressure
                    // signal instead of losing the seq.
                    let rseq = match &self.journal {
                        Some(j) => match j.record_outcome(
                            &tenant,
                            seq,
                            &OutcomeBody::Reject {
                                retry_after_ms,
                                reason,
                            },
                        ) {
                            Ok(rseq) => rseq,
                            Err(e) => {
                                // The admit is journaled (Pending) but
                                // the reject cannot be. Sending an
                                // unjournaled Reject would wedge the
                                // seq: the backoff resubmit dedups
                                // against the Pending entry and vanishes.
                                // Absorb the job instead — restore()
                                // bypasses the admission gates, honoring
                                // the journal's promise that an admitted
                                // seq produces an outcome.
                                eprintln!(
                                    "journal: reject outcome write failed: {e}; \
                                     absorbing seq {seq} of tenant {tenant} despite rejection"
                                );
                                self.admission.restore(QueuedJob {
                                    tenant: Arc::clone(&tenant),
                                    session: session.id,
                                    seq,
                                    root,
                                    level,
                                    tol,
                                    attempts: 0,
                                    enqueued: Instant::now(),
                                });
                                return Action::Continue;
                            }
                        },
                        None => 0,
                    };
                    session.send(&ServeMsg::Reject {
                        seq,
                        rseq,
                        retry_after_ms,
                        reason,
                    });
                }
                Action::Continue
            }
            ServeMsg::Ack { upto } => {
                if let (Some(j), Some(tenant)) = (&self.journal, session.tenant()) {
                    if let Err(e) = j.ack(&tenant, upto) {
                        eprintln!("journal: ack write failed: {e}");
                    }
                }
                Action::Continue
            }
            ServeMsg::Drain => {
                // Any tenant (or the operator over a socket) may start the
                // drain; the Drained broadcast answers everyone at the end.
                self.admission.drain();
                Action::Continue
            }
            ServeMsg::Bye => {
                if let Some(t) = session.tenant() {
                    self.registry.unbind_tenant(&t, session.id);
                }
                // Without a journal a departing session's queued jobs are
                // solved for nobody — drop them. With one, accepted work
                // is durable: it finishes and its outcome waits in the
                // journal for a future session of the same tenant.
                if self.journal.is_none() {
                    self.admission.forget_session(session.id);
                }
                Action::Close
            }
            // Daemon-to-tenant messages arriving *at* the daemon are a
            // protocol violation.
            ServeMsg::Welcome { .. }
            | ServeMsg::Done { .. }
            | ServeMsg::Fail { .. }
            | ServeMsg::Reject { .. }
            | ServeMsg::Drained { .. } => Action::Close,
        }
    }

    fn on_disconnect(&self, session: &Arc<Session>) {
        if let Some(t) = session.tenant() {
            self.registry.unbind_tenant(&t, session.id);
        }
        // Queued jobs from a dead session would be solved for nobody (the
        // reactor already pulled the session out of the registry) — except
        // under a journal, where they survive the disconnect exactly like
        // they survive a daemon crash, and their replies wait for the
        // tenant to resume.
        if self.journal.is_none() {
            self.admission.forget_session(session.id);
        }
    }
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
/// can run again: a dead disk must not turn the dispatcher into a hot
/// re-execute loop.
const JOURNAL_RETRY_PAUSE: Duration = Duration::from_millis(100);

/// What the dispatcher thread works with besides the engine.
struct Dispatcher {
    admission: Arc<Admission>,
    registry: Arc<Registry>,
    faults: Option<FaultPlan>,
    journal: Option<Arc<Journal>>,
    /// Per-tenant dispatched-job ordinals, the `on_job` coordinate of the
    /// per-tenant fault vocabulary.
    tenant_jobs: HashMap<Arc<str>, u64>,
    /// daemonkill@N: die *after* journaling outcome N but *before* sending
    /// it — the nastiest window, where only recovery + replay can save the
    /// reply.
    daemon_kill: Option<u64>,
    outcomes: u64,
}

/// The dispatcher: owns the engine, keeps it full from the fair-share
/// queue until the drain empties both.
fn dispatch_loop(
    build_engine: EngineBuilder,
    admission: Arc<Admission>,
    registry: Arc<Registry>,
    faults: Option<FaultPlan>,
    journal: Option<Arc<Journal>>,
) -> DispatchOutcome {
    let mut engine_error: Option<String> = None;
    let mut engine = match build_engine() {
        Ok(mut e) => {
            let gate = Arc::clone(&admission);
            e.on_job_finished(move || gate.poke());
            Some(e)
        }
        Err(e) => {
            engine_error = Some(format!("engine construction failed: {e}"));
            None
        }
    };
    let width = engine.as_ref().map_or(1, Engine::width);
    let mut d = Dispatcher {
        daemon_kill: faults.as_ref().and_then(|p| p.daemon_kill()),
        admission,
        registry,
        faults,
        journal,
        tenant_jobs: HashMap::new(),
        outcomes: 0,
    };
    // Jobs running in the engine, oldest first; never more than `width`.
    let mut running: Vec<(QueuedJob, JobHandle)> = Vec::new();
    let mut peak_in_flight = 0;

    loop {
        while let Some(i) = running.iter().position(|(_, h)| h.is_finished()) {
            let (job, handle) = running.remove(i);
            d.finish(job, handle.wait().map_err(|e| e.to_string()));
        }
        match d.admission.next_when(running.len() < width) {
            Next::Idle => {}
            Next::Drained => break,
            Next::Job(job) => {
                d.start(job, engine.as_mut(), &engine_error, &mut running);
                peak_in_flight = peak_in_flight.max(running.len());
            }
        }
    }

    // The backlog is empty and nothing is in flight: tell every session
    // the drain completed *now*, from the thread that knows — waiting for
    // the main thread to join us would deadlock any client blocking on
    // this very message.
    d.registry.broadcast(&ServeMsg::Drained {
        served: d.admission.served_total(),
    });
    DispatchOutcome {
        peak_in_flight,
        engine: engine.take().map(Engine::shutdown),
        engine_error,
    }
}

impl Dispatcher {
    /// Count `job` against its tenant's fault schedule: sleep out an
    /// injected stall here, return the error of an injected failure.
    fn injected_fault(&mut self, job: &QueuedJob) -> Option<String> {
        let n = {
            let c = self.tenant_jobs.entry(Arc::clone(&job.tenant)).or_insert(0);
            *c += 1;
            *c
        };
        let plan = self.faults.as_ref()?;
        let wf = plan.worker_faults(self.admission.ordinal(&job.tenant)?);
        if let Some((on_job, millis)) = wf.stall_on_job {
            if on_job == n {
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
        (wf.crash_on_job == Some(n) || wf.drop_on_job == Some(n) || wf.corrupt_on_job == Some(n))
            .then(|| format!("chaos: injected tenant fault on dispatched job {n}"))
    }

    /// Hand one popped job to the engine. A job that cannot be started —
    /// an injected fault, no engine, a refused submit — is finished on the
    /// spot with that error.
    fn start(
        &mut self,
        job: QueuedJob,
        engine: Option<&mut Engine>,
        engine_error: &Option<String>,
        running: &mut Vec<(QueuedJob, JobHandle)>,
    ) {
        let started = match self.injected_fault(&job) {
            Some(err) => Err(err),
            None => match engine {
                None => Err(engine_error
                    .clone()
                    .unwrap_or_else(|| "engine unavailable".into())),
                Some(e) => e
                    .submit(AppConfig::new(SequentialApp::new(
                        job.root, job.level, job.tol,
                    )))
                    .map_err(|e| e.to_string()),
            },
        };
        match started {
            Ok(handle) => running.push((job, handle)),
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
    fn finish(&mut self, job: QueuedJob, served: Result<JobReport, String>) {
        let (admission, registry) = (Arc::clone(&self.admission), Arc::clone(&self.registry));
        match served {
            Ok(report) => match self.journal.clone() {
                Some(j) => {
                    // Journal the outcome before sending it: a crash
                    // in between replays the reply; a crash before
                    // re-executes the (deterministic) job.
                    let body = OutcomeBody::Done {
                        grids: report.result.per_grid.len() as u64,
                        l2_error: report.result.l2_error,
                        combined: report.result.combined,
                    };
                    match j.record_outcome(&job.tenant, job.seq, &body) {
                        Ok(rseq) => {
                            self.outcome_journaled();
                            if let Some(s) = registry.tenant_session(&job.tenant) {
                                s.send(&body.to_msg(job.seq, rseq));
                            }
                            // An undelivered reply is not an orphan: it
                            // waits, durably, for the tenant to resume.
                            admission.complete(&job, true);
                        }
                        Err(e) => {
                            // Completing without a journaled outcome
                            // would wedge the seq: the entry stays
                            // Pending, so resubmits dedup into nothing
                            // until a restart replays it. Requeue
                            // instead — re-execute (deterministic) and
                            // retry the write, paced so a dead disk
                            // does not become a hot loop.
                            eprintln!(
                                "journal: done outcome write failed: {e}; \
                                 requeueing seq {} of tenant {}",
                                job.seq, job.tenant
                            );
                            admission.requeue_after_journal_failure(job);
                            std::thread::sleep(JOURNAL_RETRY_PAUSE);
                        }
                    }
                }
                None => {
                    let delivered = registry.get(job.session).is_some_and(|s| {
                        s.send(&ServeMsg::Done {
                            seq: job.seq,
                            rseq: 0,
                            grids: report.result.per_grid.len() as u64,
                            l2_error: report.result.l2_error,
                            combined: report.result.combined,
                        })
                    });
                    admission.complete(&job, delivered);
                }
            },
            Err(error) => {
                let final_copy = job.clone();
                // Retry first (re-queued at the tenant's head); only a
                // spent retry budget surfaces the failure to the tenant.
                if admission.charge_failure(job).is_none() {
                    let (tenant, seq) = (final_copy.tenant.clone(), final_copy.seq);
                    match self.journal.clone() {
                        Some(j) => {
                            let body = OutcomeBody::Fail {
                                error: error.clone(),
                            };
                            match j.record_outcome(&tenant, seq, &body) {
                                Ok(rseq) => {
                                    self.outcome_journaled();
                                    if let Some(s) = registry.tenant_session(&tenant) {
                                        s.send(&body.to_msg(seq, rseq));
                                    }
                                }
                                Err(e) => {
                                    // Same wedge as the Done path: the
                                    // seq must not end without a
                                    // journaled outcome. charge_failure
                                    // already released the in-flight
                                    // slot, so restore() (no accounting
                                    // beyond the queue) re-arms the job;
                                    // the re-run charges the budget
                                    // again — accounting drift under a
                                    // failing disk, traded for never
                                    // wedging the seq.
                                    eprintln!(
                                        "journal: fail outcome write failed: {e}; \
                                         requeueing seq {seq} of tenant {tenant}"
                                    );
                                    admission.restore(final_copy);
                                    std::thread::sleep(JOURNAL_RETRY_PAUSE);
                                }
                            }
                        }
                        None => {
                            if let Some(s) = registry.get(final_copy.session) {
                                s.send(&ServeMsg::Fail {
                                    seq,
                                    rseq: 0,
                                    error,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}
