//! Admission control: bounded per-tenant queues, weighted fair share,
//! explicit backpressure, and per-tenant retry/fault budgets.
//!
//! This is the gate between "a socket delivered a request" and
//! "`Engine::submit` runs it". Three properties, each load-bearing:
//!
//! * **Bounded queues.** Every tenant owns a queue capped at
//!   [`AdmissionConfig::queue_cap`]. A full queue rejects with an explicit
//!   retry-after hint instead of buffering without limit — the reply is
//!   cheap, the unbounded queue is how a daemon dies.
//! * **Weighted fair share.** The dispatcher pops jobs in *virtual-time*
//!   order (start-time fair queuing): each tenant carries a virtual clock
//!   advanced by `1/weight` per served job, and [`Admission::next`] always
//!   picks the non-empty tenant with the smallest clock. A tenant that
//!   floods its queue cannot push another tenant's jobs back by more than
//!   its own fair share — a greedy tenant interleaves with a light one
//!   instead of starving it (the fairness tests pin this). An idle
//!   tenant's clock is forwarded to "now" when it wakes, so saved-up idle
//!   time is not a burst entitlement.
//! * **Budgets.** Engine-side failures charge the tenant that submitted
//!   them: first against a retry budget (the job is re-queued at the front,
//!   once), then against a fault budget. A tenant that spends its fault
//!   budget is quarantined — subsequent submissions are rejected — so one
//!   tenant's pathological workload cannot consume the fleet's recovery
//!   machinery indefinitely.
//!
//! The struct is deliberately socket-free: the reactor calls [`offer`],
//! the dispatcher thread calls [`next`]/[`complete`], and the fairness
//! tests drive it directly with no I/O at all.
//!
//! [`offer`]: Admission::offer
//! [`next`]: Admission::next
//! [`complete`]: Admission::complete

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::proto::RejectReason;

/// Admission-layer tuning.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Per-tenant queue bound; an offer beyond it is rejected.
    pub queue_cap: usize,
    /// Weight assigned when a tenant asks for 0 (i.e. "default").
    pub default_weight: u32,
    /// Largest honoured weight request.
    pub max_weight: u32,
    /// Retry-after hint attached to backpressure rejections.
    pub retry_after: Duration,
    /// Engine-side failures a tenant may accrue before quarantine.
    pub fault_budget: u32,
    /// Failed jobs re-queued (once each) before they fail to the tenant.
    pub retry_budget: u32,
    /// Largest job level admitted (the fleet's provisioned capacity).
    pub capacity_level: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_cap: 128,
            default_weight: 1,
            max_weight: 16,
            retry_after: Duration::from_millis(25),
            fault_budget: 8,
            retry_budget: 4,
            capacity_level: 15,
        }
    }
}

/// One admitted-but-not-yet-served job.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// Fair-share identity this job is charged to.
    pub tenant: Arc<str>,
    /// Session that submitted it (reply routing).
    pub session: u64,
    /// Tenant-chosen sequence number (reply routing).
    pub seq: u64,
    /// Problem: root refinement level.
    pub root: u32,
    /// Problem: additional refinement.
    pub level: u32,
    /// Problem: integrator tolerance.
    pub tol: f64,
    /// Times this job has been handed to the engine (retry accounting).
    pub attempts: u32,
    /// When admission accepted it (queue-latency accounting).
    pub enqueued: Instant,
}

/// Outcome of one [`Admission::offer`].
#[derive(Debug)]
pub enum Offer {
    /// Accepted; `depth` is the tenant queue depth after the push.
    Enqueued {
        /// Tenant queue depth including this job.
        depth: usize,
    },
    /// Refused — convert into a `Reject` reply.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Suggested back-off.
        retry_after: Duration,
    },
}

/// Outcome of one [`Admission::next`].
#[derive(Debug)]
pub enum Next {
    /// Serve this job.
    Job(QueuedJob),
    /// Draining and every queue is empty and nothing is in flight: stop.
    Drained,
    /// No job this time — the wait timed out, or ([`Admission::next_when`])
    /// someone poked the dispatcher. Look around and ask again.
    Idle,
}

struct TenantState {
    name: Arc<str>,
    weight: u32,
    queue: VecDeque<QueuedJob>,
    /// Virtual finish tag: advanced `1/weight` per pop.
    vtime: f64,
    faults_left: u32,
    retries_left: u32,
    accepted: u64,
    rejected: u64,
    served: u64,
    failed: u64,
}

struct Shared {
    /// Registration order — the deterministic tie-break for equal vtimes.
    tenants: Vec<TenantState>,
    by_name: HashMap<Arc<str>, usize>,
    /// Global virtual clock: the vtime of the last popped job.
    clock: f64,
    draining: bool,
    queued_total: usize,
    /// Jobs popped by the dispatcher but not yet completed.
    inflight: usize,
    /// Peak of queued + inflight over the daemon's life — the
    /// "concurrent jobs in the system" high-water mark.
    peak_in_system: usize,
    served_total: u64,
    rejected_total: u64,
    /// Accepted jobs whose session vanished before service (these are
    /// *not* drain losses: nobody is waiting for them).
    orphaned: u64,
    /// Set by [`Admission::poke`], cleared by the [`Admission::next_when`]
    /// it wakes.
    poked: bool,
}

/// Per-tenant statistics snapshot.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Clamped fair-share weight.
    pub weight: u32,
    /// Offers accepted.
    pub accepted: u64,
    /// Offers rejected (backpressure + quarantine).
    pub rejected: u64,
    /// Jobs served with a result.
    pub served: u64,
    /// Jobs that failed after retries.
    pub failed: u64,
    /// Fault budget remaining.
    pub faults_left: u32,
}

/// Whole-layer statistics snapshot.
#[derive(Clone, Debug)]
pub struct AdmissionStats {
    /// Jobs currently queued across all tenants.
    pub queued: usize,
    /// Jobs popped but not completed.
    pub inflight: usize,
    /// Peak queued + inflight observed.
    pub peak_in_system: usize,
    /// Jobs served over the layer's life.
    pub served: u64,
    /// Offers rejected over the layer's life.
    pub rejected: u64,
    /// Accepted jobs dropped because their session disconnected.
    pub orphaned: u64,
    /// Per-tenant breakdown, registration order.
    pub tenants: Vec<TenantStats>,
}

/// The admission gate. Shared between the reactor threads (offering) and
/// the dispatcher thread (consuming).
pub struct Admission {
    cfg: AdmissionConfig,
    m: Mutex<Shared>,
    cv: Condvar,
}

impl Admission {
    /// A fresh gate.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            m: Mutex::new(Shared {
                tenants: Vec::new(),
                by_name: HashMap::new(),
                clock: 0.0,
                draining: false,
                queued_total: 0,
                inflight: 0,
                peak_in_system: 0,
                served_total: 0,
                rejected_total: 0,
                orphaned: 0,
                poked: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The configuration this gate enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Register (or re-greet) a tenant, clamping its requested weight.
    /// Returns the tenant's registration ordinal (stable across sessions —
    /// per-tenant fault plans key on it).
    pub fn register(&self, name: &str, requested_weight: u32) -> u64 {
        let mut s = self.m.lock();
        if let Some(&i) = s.by_name.get(name) {
            return i as u64;
        }
        let weight = if requested_weight == 0 {
            self.cfg.default_weight
        } else {
            requested_weight.min(self.cfg.max_weight)
        }
        .max(1);
        let name: Arc<str> = Arc::from(name);
        // A tenant born mid-run starts at the current virtual clock: no
        // credit for time it was not registered.
        let vtime = s.clock;
        let idx = s.tenants.len();
        s.tenants.push(TenantState {
            name: Arc::clone(&name),
            weight,
            queue: VecDeque::new(),
            vtime,
            faults_left: self.cfg.fault_budget,
            retries_left: self.cfg.retry_budget,
            accepted: 0,
            rejected: 0,
            served: 0,
            failed: 0,
        });
        s.by_name.insert(name, idx);
        idx as u64
    }

    /// Recovery side: re-create `name` exactly as the journal recorded
    /// it — in original registration order (ordinals key per-tenant fault
    /// plans), with the fault budget already debited by the journal's
    /// replayed `Fail` count. Restored tenants start at the current
    /// virtual clock like everyone else: a restart levels vtimes, it
    /// never banks credit.
    pub fn restore_tenant(&self, name: &str, weight: u32, failed: u64) -> u64 {
        let idx = self.register(name, weight);
        let mut s = self.m.lock();
        let t = &mut s.tenants[idx as usize];
        t.failed = failed;
        t.faults_left = (self.cfg.fault_budget as u64).saturating_sub(failed) as u32;
        idx
    }

    /// Recovery side: requeue a journaled-but-unfinished job. Bypasses
    /// the drain/capacity/budget/queue-cap gates — this job was already
    /// admitted in a previous incarnation and journal-before-ack means
    /// the client was (or will be, via replay) told so. Unknown tenants
    /// are ignored; restore tenants first.
    pub fn restore(&self, job: QueuedJob) {
        let mut s = self.m.lock();
        let Some(&idx) = s.by_name.get(job.tenant.as_ref()) else {
            return;
        };
        let clock = s.clock;
        let t = &mut s.tenants[idx];
        if t.queue.is_empty() {
            t.vtime = t.vtime.max(clock);
        }
        t.queue.push_back(job);
        t.accepted += 1;
        s.queued_total += 1;
        let in_system = s.queued_total + s.inflight;
        s.peak_in_system = s.peak_in_system.max(in_system);
        self.cv.notify_all();
    }

    /// Offer one job. Never blocks: the answer is either "queued" or a
    /// typed rejection the caller turns into a backpressure reply.
    pub fn offer(&self, job: QueuedJob) -> Offer {
        let mut s = self.m.lock();
        let Some(&idx) = s.by_name.get(job.tenant.as_ref()) else {
            // Offer before Hello — treat like quarantine, the session is
            // broken anyway.
            s.rejected_total += 1;
            return self.rejected(RejectReason::FaultBudgetExhausted);
        };
        if s.draining {
            s.tenants[idx].rejected += 1;
            s.rejected_total += 1;
            return self.rejected(RejectReason::Draining);
        }
        if job.level > self.cfg.capacity_level {
            s.tenants[idx].rejected += 1;
            s.rejected_total += 1;
            return self.rejected(RejectReason::OverCapacity);
        }
        let clock = s.clock;
        let t = &mut s.tenants[idx];
        if t.faults_left == 0 {
            t.rejected += 1;
            s.rejected_total += 1;
            return self.rejected(RejectReason::FaultBudgetExhausted);
        }
        if t.queue.len() >= self.cfg.queue_cap {
            t.rejected += 1;
            s.rejected_total += 1;
            return self.rejected(RejectReason::QueueFull);
        }
        // Waking from idle: forward the clock so the quiet period is not
        // banked as a burst entitlement.
        if t.queue.is_empty() {
            t.vtime = t.vtime.max(clock);
        }
        t.queue.push_back(job);
        t.accepted += 1;
        let depth = t.queue.len();
        s.queued_total += 1;
        let in_system = s.queued_total + s.inflight;
        s.peak_in_system = s.peak_in_system.max(in_system);
        self.cv.notify_all();
        Offer::Enqueued { depth }
    }

    fn rejected(&self, reason: RejectReason) -> Offer {
        Offer::Rejected {
            reason,
            retry_after: self.cfg.retry_after,
        }
    }

    /// Dispatcher side: the next job in weighted-fair order. Blocks up to
    /// `timeout` when idle; returns [`Next::Drained`] once draining with
    /// nothing queued or in flight.
    pub fn next(&self, timeout: Duration) -> Next {
        let deadline = Instant::now() + timeout;
        let mut s = self.m.lock();
        loop {
            if let Some(job) = pop_min_vtime(&mut s) {
                return Next::Job(job);
            }
            if s.draining && s.queued_total == 0 && s.inflight == 0 {
                return Next::Drained;
            }
            if self.cv.wait_until(&mut s, deadline).timed_out() {
                return Next::Idle;
            }
        }
    }

    /// [`Admission::next`] for a dispatcher that keeps several jobs in
    /// flight, and so has two things to wait for — a job to start, when it
    /// has a slot free, and one of its running jobs to finish — and one
    /// place to wait: here. Blocks until a job can be popped (only with
    /// `slot_free`), the gate has drained, or someone calls
    /// [`Admission::poke`]; a poke returns [`Next::Idle`], and one that
    /// arrives while nobody waits is remembered for the next call.
    pub fn next_when(&self, slot_free: bool) -> Next {
        let mut s = self.m.lock();
        loop {
            if std::mem::take(&mut s.poked) {
                return Next::Idle;
            }
            if slot_free {
                if let Some(job) = pop_min_vtime(&mut s) {
                    return Next::Job(job);
                }
            }
            if s.draining && s.queued_total == 0 && s.inflight == 0 {
                return Next::Drained;
            }
            self.cv.wait(&mut s);
        }
    }

    /// Wake the dispatcher out of [`Admission::next_when`]: something it
    /// should look at happened elsewhere (a job it started has finished).
    pub fn poke(&self) {
        self.m.lock().poked = true;
        self.cv.notify_all();
    }

    /// Dispatcher side: account the completion of a popped job.
    /// `served` is false for jobs discarded without a result (orphaned).
    pub fn complete(&self, job: &QueuedJob, served: bool) {
        let mut s = self.m.lock();
        s.inflight -= 1;
        if served {
            s.served_total += 1;
            if let Some(&idx) = s.by_name.get(job.tenant.as_ref()) {
                s.tenants[idx].served += 1;
            }
        } else {
            s.orphaned += 1;
        }
        // Drained-state watchers (and parked dispatchers) may be waiting
        // on inflight hitting zero.
        self.cv.notify_all();
    }

    /// Dispatcher side: put a popped job back at the end of its tenant's
    /// queue because its outcome could not be journaled. A WAL write
    /// failure is not ignorable — the journal's promise is "an admitted
    /// seq produces a journaled outcome", and completing the job without
    /// one would wedge the seq (resubmits dedup against the Pending
    /// entry) until a restart. The job is deterministic, so it is
    /// re-executed and the outcome write retried; no retry or fault
    /// budget is charged, a failing disk is not the tenant's doing.
    pub fn requeue_after_journal_failure(&self, job: QueuedJob) {
        let mut s = self.m.lock();
        s.inflight -= 1;
        let Some(&idx) = s.by_name.get(job.tenant.as_ref()) else {
            // Jobs only pop for registered tenants; if the tenant is
            // somehow gone, at least keep the in-system accounting sane.
            s.orphaned += 1;
            return;
        };
        s.tenants[idx].queue.push_back(job);
        s.queued_total += 1;
        self.cv.notify_all();
    }

    /// Dispatcher side: a popped job failed in the engine. Returns the
    /// job re-armed for retry when the tenant still has retry budget;
    /// `None` means the failure is final — reply `Fail` and charge the
    /// tenant's fault budget.
    pub fn charge_failure(&self, mut job: QueuedJob) -> Option<QueuedJob> {
        let mut s = self.m.lock();
        s.inflight -= 1;
        let &idx = s.by_name.get(job.tenant.as_ref())?;
        let t = &mut s.tenants[idx];
        if t.retries_left > 0 {
            t.retries_left -= 1;
            job.attempts += 1;
            // Head of the queue: a retry does not go to the back of the
            // tenant's own line.
            t.queue.push_front(job.clone());
            s.queued_total += 1;
            self.cv.notify_all();
            return Some(job);
        }
        t.failed += 1;
        t.faults_left = t.faults_left.saturating_sub(1);
        self.cv.notify_all();
        None
    }

    /// Drop every queued job belonging to `session` (its connection died).
    /// Returns the dropped jobs for accounting.
    pub fn forget_session(&self, session: u64) -> usize {
        let mut s = self.m.lock();
        let mut dropped = 0;
        for t in &mut s.tenants {
            let before = t.queue.len();
            t.queue.retain(|j| j.session != session);
            dropped += before - t.queue.len();
        }
        s.queued_total -= dropped;
        s.orphaned += dropped as u64;
        if dropped > 0 {
            self.cv.notify_all();
        }
        dropped
    }

    /// Enter drain mode: every future offer is rejected, and [`next`]
    /// returns [`Next::Drained`] once the backlog and in-flight work hit
    /// zero.
    ///
    /// [`next`]: Admission::next
    pub fn drain(&self) {
        let mut s = self.m.lock();
        s.draining = true;
        self.cv.notify_all();
    }

    /// Is the gate draining?
    pub fn draining(&self) -> bool {
        self.m.lock().draining
    }

    /// Registration ordinal of `name` — the `instance` key a per-tenant
    /// [`chaos::FaultPlan`](chaos::FaultPlan) addresses.
    pub fn ordinal(&self, name: &str) -> Option<u64> {
        self.m.lock().by_name.get(name).map(|&i| i as u64)
    }

    /// Jobs served over the layer's life.
    pub fn served_total(&self) -> u64 {
        self.m.lock().served_total
    }

    /// A consistent snapshot of the layer's counters.
    pub fn stats(&self) -> AdmissionStats {
        let s = self.m.lock();
        AdmissionStats {
            queued: s.queued_total,
            inflight: s.inflight,
            peak_in_system: s.peak_in_system,
            served: s.served_total,
            rejected: s.rejected_total,
            orphaned: s.orphaned,
            tenants: s
                .tenants
                .iter()
                .map(|t| TenantStats {
                    tenant: t.name.to_string(),
                    weight: t.weight,
                    accepted: t.accepted,
                    rejected: t.rejected,
                    served: t.served,
                    failed: t.failed,
                    faults_left: t.faults_left,
                })
                .collect(),
        }
    }
}

/// Pop the head of the non-empty tenant queue with the smallest virtual
/// time, accounting it as in flight.
fn pop_min_vtime(s: &mut Shared) -> Option<QueuedJob> {
    let idx = pick_min_vtime(s)?;
    let job = s.tenants[idx].queue.pop_front().expect("picked non-empty");
    let t = &mut s.tenants[idx];
    // Start-time fair queuing: charge 1/weight of virtual time and move
    // the global clock to this job's start tag.
    let start = t.vtime;
    t.vtime += 1.0 / t.weight as f64;
    s.clock = s.clock.max(start);
    s.queued_total -= 1;
    s.inflight += 1;
    Some(job)
}

/// Index of the non-empty tenant with the smallest virtual time
/// (registration order breaks ties, deterministically).
fn pick_min_vtime(s: &Shared) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, t) in s.tenants.iter().enumerate() {
        if t.queue.is_empty() {
            continue;
        }
        match best {
            Some((bv, _)) if bv <= t.vtime => {}
            _ => best = Some((t.vtime, i)),
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: &Arc<str>, seq: u64) -> QueuedJob {
        QueuedJob {
            tenant: Arc::clone(tenant),
            session: 1,
            seq,
            root: 1,
            level: 2,
            tol: 1e-3,
            attempts: 0,
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn queue_cap_rejects_with_retry_after() {
        let adm = Admission::new(AdmissionConfig {
            queue_cap: 2,
            ..AdmissionConfig::default()
        });
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        assert!(matches!(
            adm.offer(job(&t, 1)),
            Offer::Enqueued { depth: 1 }
        ));
        assert!(matches!(
            adm.offer(job(&t, 2)),
            Offer::Enqueued { depth: 2 }
        ));
        match adm.offer(job(&t, 3)) {
            Offer::Rejected {
                reason,
                retry_after,
            } => {
                assert_eq!(reason, RejectReason::QueueFull);
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(adm.stats().rejected, 1);
    }

    #[test]
    fn over_capacity_jobs_are_rejected_at_the_gate() {
        let adm = Admission::new(AdmissionConfig {
            capacity_level: 3,
            ..AdmissionConfig::default()
        });
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        let mut j = job(&t, 1);
        j.level = 9;
        match adm.offer(j) {
            Offer::Rejected { reason, .. } => assert_eq!(reason, RejectReason::OverCapacity),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn weighted_pop_order_tracks_weights() {
        let adm = Admission::new(AdmissionConfig::default());
        adm.register("heavy", 3);
        adm.register("light", 1);
        let heavy: Arc<str> = Arc::from("heavy");
        let light: Arc<str> = Arc::from("light");
        for i in 0..12 {
            adm.offer(job(&heavy, i));
        }
        for i in 0..12 {
            adm.offer(job(&light, 100 + i));
        }
        let mut heavy_first8 = 0;
        for _ in 0..8 {
            match adm.next(Duration::from_secs(1)) {
                Next::Job(j) => {
                    if j.tenant.as_ref() == "heavy" {
                        heavy_first8 += 1;
                    }
                    adm.complete(&j, true);
                }
                other => panic!("expected job, got {other:?}"),
            }
        }
        // Weight 3 vs 1: the first 8 pops split 6/2.
        assert_eq!(heavy_first8, 6, "3:1 weights must serve 6 of 8 to heavy");
    }

    #[test]
    fn fault_budget_quarantines_after_retries() {
        let adm = Admission::new(AdmissionConfig {
            fault_budget: 1,
            retry_budget: 1,
            ..AdmissionConfig::default()
        });
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        adm.offer(job(&t, 1));
        let j = match adm.next(Duration::from_secs(1)) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        // First failure: retried (the job reappears at the head).
        let retried = adm.charge_failure(j).expect("retry budget spends first");
        assert_eq!(retried.attempts, 1);
        let j2 = match adm.next(Duration::from_secs(1)) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        // Second failure: final, fault budget spent.
        assert!(adm.charge_failure(j2).is_none());
        match adm.offer(job(&t, 2)) {
            Offer::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::FaultBudgetExhausted)
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn drain_rejects_new_and_reports_drained_when_empty() {
        let adm = Admission::new(AdmissionConfig::default());
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        adm.offer(job(&t, 1));
        adm.drain();
        match adm.offer(job(&t, 2)) {
            Offer::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Draining),
            other => panic!("expected rejection, got {other:?}"),
        }
        // The accepted job still comes out before Drained.
        let j = match adm.next(Duration::from_secs(1)) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        adm.complete(&j, true);
        assert!(matches!(adm.next(Duration::from_millis(50)), Next::Drained));
        assert_eq!(adm.served_total(), 1);
    }

    #[test]
    fn forget_session_drops_only_that_sessions_jobs() {
        let adm = Admission::new(AdmissionConfig::default());
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        let mut a = job(&t, 1);
        a.session = 7;
        let mut b = job(&t, 2);
        b.session = 8;
        adm.offer(a);
        adm.offer(b);
        assert_eq!(adm.forget_session(7), 1);
        match adm.next(Duration::from_secs(1)) {
            Next::Job(j) => assert_eq!(j.session, 8),
            other => panic!("{other:?}"),
        }
    }

    /// A journal-failure requeue releases in-flight accounting, returns
    /// the job to its tenant's queue, and charges no budget — the job
    /// must come back out of `next` and still complete as served.
    #[test]
    fn journal_failure_requeue_keeps_the_job_alive_without_charges() {
        let adm = Admission::new(AdmissionConfig::default());
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        adm.offer(job(&t, 1));
        let j = match adm.next(Duration::from_secs(1)) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        assert_eq!(adm.stats().inflight, 1);
        adm.requeue_after_journal_failure(j);
        let s = adm.stats();
        assert_eq!((s.inflight, s.queued), (0, 1));
        assert_eq!(
            s.tenants[0].faults_left,
            AdmissionConfig::default().fault_budget
        );
        let j2 = match adm.next(Duration::from_secs(1)) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        assert_eq!(j2.seq, 1);
        adm.complete(&j2, true);
        let s = adm.stats();
        assert_eq!((s.inflight, s.queued, s.served, s.orphaned), (0, 0, 1, 0));
        // Drain still terminates: nothing is stuck in flight.
        adm.drain();
        assert!(matches!(adm.next(Duration::from_millis(50)), Next::Drained));
    }

    #[test]
    fn next_when_pops_only_into_a_free_slot_and_remembers_pokes() {
        let adm = Arc::new(Admission::new(AdmissionConfig::default()));
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        adm.offer(job(&t, 1));
        adm.offer(job(&t, 2));
        // A poke with nobody waiting is not lost, and comes out first.
        adm.poke();
        assert!(matches!(adm.next_when(true), Next::Idle));
        let first = match adm.next_when(true) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        // No slot: the queued job stays queued; only a poke ends the wait.
        let poker = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                adm.poke();
            })
        };
        assert!(matches!(adm.next_when(false), Next::Idle));
        poker.join().unwrap();
        assert_eq!(adm.stats().queued, 1);
        // Draining with a job still running is not yet drained.
        adm.drain();
        let second = match adm.next_when(true) {
            Next::Job(j) => j,
            other => panic!("{other:?}"),
        };
        assert_eq!((first.seq, second.seq), (1, 2));
        adm.complete(&first, true);
        adm.poke();
        assert!(matches!(adm.next_when(true), Next::Idle));
        adm.complete(&second, true);
        assert!(matches!(adm.next_when(true), Next::Drained));
    }

    #[test]
    fn peak_in_system_tracks_high_water_mark() {
        let adm = Admission::new(AdmissionConfig {
            queue_cap: 1000,
            ..AdmissionConfig::default()
        });
        adm.register("t", 1);
        let t: Arc<str> = Arc::from("t");
        for i in 0..40 {
            adm.offer(job(&t, i));
        }
        assert_eq!(adm.stats().peak_in_system, 40);
        for _ in 0..40 {
            match adm.next(Duration::from_secs(1)) {
                Next::Job(j) => adm.complete(&j, true),
                other => panic!("{other:?}"),
            }
        }
        // Draining everything does not shrink the recorded peak.
        assert_eq!(adm.stats().peak_in_system, 40);
        assert_eq!(adm.stats().queued, 0);
    }
}
