//! Carrier threads: the runtime half of perpetual task instances, at most
//! one runnable per core.
//!
//! The bundler keeps `{perpetual}` task instances alive between jobs; this
//! pool keeps their OS threads alive too, for the life of the process. A
//! carrier thread whose process body has returned parks on its own channel
//! instead of exiting, and a later
//! [`activate`](crate::env::Environment::activate) — in the same
//! [`Environment`](crate::env::Environment) or any other — hands it the new
//! body rather than paying `thread::spawn` again, so a fresh environment on
//! a warm process creates zero threads.
//!
//! Carriers are bounded by the core count, not by the bodies activated. A
//! carrier holds a *slot* while it runs a body, and there are
//! `available_parallelism()` slots, with no knob. An activation that finds
//! every slot taken appends its body to a process-wide FIFO run queue:
//!
//! - A carrier whose body returns takes the queue's head with its slot
//!   instead of parking.
//! - A carrier entering a runtime wait — a port read or write, an event
//!   wait, a join, `shutdown` — hands its slot on for the wait's duration
//!   ([`blocking`]), starting queued bodies, and takes it back when the
//!   wait returns without waiting for one, so the bound may be exceeded
//!   for a moment.
//!
//! So the process holds about one carrier per core plus one per body
//! blocked in a runtime wait, however many bodies are activated at once.
//!
//! A body blocked anywhere else — a std channel, a sleep, a socket — keeps
//! its slot, and liveness must not depend on bodies blocking only in
//! runtime waits: a watcher thread, spawned with the first queued body,
//! starts any body that has queued for longer than [`GRACE`] on a carrier
//! of its own, past the bound. It cannot tell a blocked body from one
//! computing for longer than the grace: behind either, queued bodies start
//! late, never not at all.
//!
//! A carrier gives its slot back and parks, or takes the next body, *before*
//! it marks its process terminated, so whoever has seen a process terminate
//! (a scope joining its members, a coordinator waiting on `terminated(p)`)
//! can count on that carrier being reusable: a fleet in steady state spawns
//! nothing, deterministically.
//!
//! Environments own no threads. Each [`ThreadPool`] is one environment's
//! view of the carriers: it counts that environment's bodies from hand-off
//! (queued ones included) until after their process has terminated, and
//! [`ThreadPool::wait_idle`] — what `shutdown` and `join_all` do — waits for
//! the count to reach zero.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::MfError;
use crate::process::ProcessCore;

type Body = Box<dyn FnOnce() + Send + 'static>;

/// How long a body may wait in the run queue before the watcher starts it
/// on a carrier of its own, past the bound.
pub(crate) const GRACE: Duration = Duration::from_millis(20);

/// The process's carriers.
static CARRIERS: Carriers = Carriers::new();

thread_local! {
    /// On a carrier, the running count of the body it is carrying.
    static CARRYING: Cell<*const Bodies> = const { Cell::new(std::ptr::null()) };
    /// On a carrier holding a slot, the carriers the slot belongs to.
    static SLOT: Cell<Option<&'static Carriers>> = const { Cell::new(None) };
}

/// One activation: the process body, the process to mark terminated once
/// the body has returned and the carrier is reusable again, and the body's
/// place in its environment's running count.
struct Job {
    body: Body,
    process: Arc<ProcessCore>,
    counted: Counted,
}

/// A pool of carrier threads and its run queue. The process has one,
/// [`CARRIERS`].
struct Carriers {
    /// How many carriers may be runnable at once: the core count.
    slots: OnceLock<usize>,
    sched: Mutex<Sched>,
    /// Wakes the watcher from its untimed wait on an empty queue.
    queued: Condvar,
    /// Carriers spawned: the `N` of the `mf-pool-N` names.
    spawned: AtomicU64,
    /// Bodies the watcher started past the bound.
    overdue: AtomicU64,
    /// Makes the next thread spawn fail.
    #[cfg(test)]
    fail_next_spawn: std::sync::atomic::AtomicBool,
}

struct Sched {
    /// Carriers holding a slot: running a body and not inside a runtime
    /// wait.
    runnable: usize,
    /// Bodies waiting for a slot, oldest first, with when they queued.
    queue: VecDeque<(Job, Instant)>,
    /// Every parked carrier, whichever environment it last served.
    idle: Vec<Sender<Job>>,
    /// Carriers spawned successfully. A carrier never exits.
    carriers: usize,
    /// The watcher thread is running.
    watching: bool,
    /// The watcher is waiting for the queue to become non-empty.
    watcher_idle: bool,
}

/// One environment's bodies on carriers.
#[derive(Default)]
struct Bodies {
    tally: Mutex<Tally>,
    changed: Condvar,
    /// Carriers spawned to run this environment's bodies.
    spawned: AtomicU64,
}

#[derive(Default)]
struct Tally {
    /// Bodies handed to the pool and not yet through their process's
    /// termination.
    running: usize,
    /// Of those, the ones waiting in [`ThreadPool::wait_idle`] from
    /// inside themselves.
    waiting_inside: usize,
}

/// A body's place in its environment's running count. Dropped last: after
/// the body, after its process has terminated.
struct Counted(Arc<Bodies>);

impl Counted {
    fn new(bodies: &Arc<Bodies>) -> Counted {
        bodies.tally.lock().running += 1;
        Counted(bodies.clone())
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.tally.lock().running -= 1;
        self.0.changed.notify_all();
    }
}

/// Run `wait`, a runtime wait, with the calling carrier's slot handed on:
/// queued bodies may start meanwhile, and the slot is taken back when
/// `wait` returns, without waiting for one. Off a carrier — the reactor, a
/// connection reader, `main` — it is just `wait()`, and the scheduler's
/// lock is never taken. The caller may hold the lock of the object it
/// waits on: that lock comes before the scheduler's.
pub(crate) fn blocking<R>(wait: impl FnOnce() -> R) -> R {
    let Some(carriers) = SLOT.get() else {
        return wait();
    };
    let mut sched = carriers.sched.lock();
    sched.runnable -= 1;
    carriers.drain(sched);
    let waited = wait();
    carriers.sched.lock().runnable += 1;
    waited
}

impl Carriers {
    const fn new() -> Carriers {
        Carriers {
            slots: OnceLock::new(),
            sched: Mutex::new(Sched {
                runnable: 0,
                queue: VecDeque::new(),
                idle: Vec::new(),
                carriers: 0,
                watching: false,
                watcher_idle: false,
            }),
            queued: Condvar::new(),
            spawned: AtomicU64::new(0),
            overdue: AtomicU64::new(0),
            #[cfg(test)]
            fail_next_spawn: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn slots(&self) -> usize {
        *self
            .slots
            .get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Queue `job` behind every body already waiting, and start what a free
    /// slot allows.
    fn run(&'static self, job: Job) {
        let mut sched = self.sched.lock();
        sched.queue.push_back((job, Instant::now()));
        self.drain(sched);
    }

    /// Start queued bodies, oldest first, while a slot is free; make sure
    /// the watcher times whatever stays queued.
    fn drain(&'static self, mut sched: MutexGuard<'_, Sched>) {
        while sched.runnable < self.slots() {
            let Some((job, _)) = sched.queue.pop_front() else {
                return;
            };
            sched.runnable += 1;
            drop(sched);
            if !self.start(job) {
                return;
            }
            sched = self.sched.lock();
        }
        if !sched.queue.is_empty() {
            self.watch(&mut sched);
        }
    }

    /// Hand `job`, which holds a slot, to a parked carrier, or to a new one
    /// when none is parked. `false` when no thread could be spawned and the
    /// job went back to the queue.
    fn start(&'static self, mut job: Job) -> bool {
        loop {
            let parked = self.sched.lock().idle.pop();
            let Some(carrier) = parked else {
                return self.spawn(job);
            };
            match carrier.send(job) {
                Ok(()) => return true,
                // The carrier is gone; take the job back and try the next.
                Err(e) => job = e.0,
            }
        }
    }

    fn spawn(&'static self, job: Job) -> bool {
        let (tx, rx) = channel();
        let own = tx.clone();
        let n = self.spawned.fetch_add(1, Ordering::Relaxed);
        match self.spawn_thread(format!("mf-pool-{n}"), move || self.carry(own, rx)) {
            Ok(()) => {
                self.sched.lock().carriers += 1;
                job.counted.0.spawned.fetch_add(1, Ordering::Relaxed);
                tx.send(job)
                    .expect("a carrier never exits, so its receiver is alive");
                true
            }
            Err(e) => self.unstartable(job, e),
        }
    }

    /// No thread could be spawned for `job`: its slot is returned. While
    /// some carrier lives, the job waits at the queue's head for that
    /// carrier, or the watcher, to try again; with none, its process
    /// terminates with the failure recorded. Only a thread that is not a
    /// carrier gets there (a carrier is alive), so the process terminates
    /// with no runtime lock held.
    fn unstartable(&'static self, job: Job, e: std::io::Error) -> bool {
        let mut sched = self.sched.lock();
        sched.runnable -= 1;
        if sched.carriers > 0 {
            sched.queue.push_front((job, Instant::now()));
            self.watch(&mut sched);
            return false;
        }
        drop(sched);
        let Job {
            body,
            process,
            counted,
        } = job;
        drop(body);
        process.record_failure(MfError::App(format!(
            "no thread to carry the process body: {e}"
        )));
        process.terminate();
        drop(counted);
        true
    }

    fn spawn_thread(&self, name: String, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        #[cfg(test)]
        if self.fail_next_spawn.swap(false, Ordering::SeqCst) {
            return Err(std::io::Error::other("injected spawn failure"));
        }
        std::thread::Builder::new().name(name).spawn(f).map(drop)
    }

    /// A carrier's life: run a body, then the next queued one or park
    /// until handed one.
    fn carry(&'static self, own: Sender<Job>, rx: Receiver<Job>) {
        let mut next = None;
        loop {
            let job = match next.take() {
                Some(job) => job,
                None => match rx.recv() {
                    Ok(job) => job,
                    Err(_) => return,
                },
            };
            let Job {
                body,
                process,
                counted,
            } = job;
            CARRYING.set(Arc::as_ptr(&counted.0));
            SLOT.set(Some(self));
            // A panicking body costs its process, not the carrier or its
            // slot.
            if catch_unwind(AssertUnwindSafe(body)).is_err() {
                process.record_failure(MfError::App("process body panicked".into()));
            }
            next = self.next_or_park(&own);
            if next.is_none() {
                SLOT.set(None);
            }
            // Only now may observers learn the process is gone: the next
            // activation they trigger finds this carrier idle, or queues
            // behind the body it has taken. A panicking termination hook is
            // reported by the panic hook and does not take the carrier down.
            let _ = catch_unwind(AssertUnwindSafe(|| process.terminate()));
            drop(counted);
            CARRYING.set(std::ptr::null());
        }
    }

    /// The queue's head, keeping the carrier's slot — unless the bound is
    /// exceeded, or nothing is queued: then the slot goes back and the
    /// carrier parks.
    fn next_or_park(&self, own: &Sender<Job>) -> Option<Job> {
        let mut sched = self.sched.lock();
        if sched.runnable <= self.slots() {
            if let Some((job, _)) = sched.queue.pop_front() {
                return Some(job);
            }
        }
        sched.runnable -= 1;
        sched.idle.push(own.clone());
        None
    }

    /// Make sure the watcher is running, and awake if it is waiting for a
    /// queue that is no longer empty. A watcher that cannot be spawned is
    /// tried again at the next queued body; meanwhile the queue drains
    /// through finishing and waiting carriers only.
    fn watch(&'static self, sched: &mut Sched) {
        if !sched.watching {
            sched.watching = self
                .spawn_thread("mf-pool-watch".into(), move || self.watcher())
                .is_ok();
        } else if sched.watcher_idle {
            self.queued.notify_one();
        }
    }

    /// Start every body that has queued for longer than [`GRACE`].
    fn watcher(&'static self) {
        let mut sched = self.sched.lock();
        loop {
            let Some(&(_, since)) = sched.queue.front() else {
                sched.watcher_idle = true;
                self.queued.wait(&mut sched);
                sched.watcher_idle = false;
                continue;
            };
            let due = since + GRACE;
            if Instant::now() < due {
                self.queued.wait_until(&mut sched, due);
                continue;
            }
            let Some((job, _)) = sched.queue.pop_front() else {
                continue;
            };
            sched.runnable += 1;
            self.overdue.fetch_add(1, Ordering::Relaxed);
            drop(sched);
            self.start(job);
            sched = self.sched.lock();
        }
    }
}

/// One environment's handle on the process's carriers.
pub(crate) struct ThreadPool {
    bodies: Arc<Bodies>,
    carriers: &'static Carriers,
}

impl Default for ThreadPool {
    fn default() -> ThreadPool {
        ThreadPool {
            bodies: Arc::default(),
            carriers: &CARRIERS,
        }
    }
}

impl ThreadPool {
    /// Run `body` on a carrier: at once on a parked or fresh one while a
    /// slot is free, else when the run queue reaches it. Either way
    /// `process` is terminated after the body, once the carrier is
    /// reusable, and only then does the body stop counting as running.
    pub(crate) fn run(&self, process: Arc<ProcessCore>, body: Body) {
        self.carriers.run(Job {
            body,
            process,
            counted: Counted::new(&self.bodies),
        });
    }

    /// Block until every body handed to this pool has returned and its
    /// process has terminated. Called from inside one of those bodies, it
    /// waits for all the others, and returns once every body still running
    /// is waiting here from inside itself.
    pub(crate) fn wait_idle(&self) {
        let inside = CARRYING.get() == Arc::as_ptr(&self.bodies);
        let mut tally = self.bodies.tally.lock();
        if inside {
            tally.waiting_inside += 1;
            while tally.running > tally.waiting_inside {
                blocking(|| self.bodies.changed.wait(&mut tally));
            }
            tally.waiting_inside -= 1;
        } else {
            while tally.running > 0 {
                blocking(|| self.bodies.changed.wait(&mut tally));
            }
        }
    }

    /// Carriers currently parked and reusable, in the whole process.
    pub(crate) fn parked() -> usize {
        CARRIERS.sched.lock().idle.len()
    }

    /// Bodies started past the bound because they had queued for longer
    /// than [`GRACE`], in the whole process.
    pub(crate) fn overdue() -> u64 {
        CARRIERS.overdue.load(Ordering::Relaxed)
    }

    /// Carriers spawned to run this pool's bodies. Flat on a warm fleet.
    pub(crate) fn spawned(&self) -> u64 {
        self.bodies.spawned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::ProcessId;
    use crate::process::LifeState;
    use crate::trace::{Clock, TraceSink};

    /// A pool of its own, so that what the process's other tests do with
    /// theirs cannot reach it.
    fn private_pool(slots: usize) -> ThreadPool {
        let carriers: &'static Carriers = Box::leak(Box::new(Carriers::new()));
        carriers.slots.set(slots).unwrap();
        ThreadPool {
            bodies: Arc::default(),
            carriers,
        }
    }

    fn process(id: u64) -> Arc<ProcessCore> {
        let p = ProcessCore::new(
            ProcessId(id),
            "P",
            Arc::new(TraceSink::new()),
            Clock::System,
        );
        p.set_life(LifeState::Active);
        p
    }

    /// Run a body on `pool` that returns when the sender is used or dropped.
    fn held(pool: &ThreadPool, p: &Arc<ProcessCore>) -> std::sync::mpsc::Sender<()> {
        let (release, held) = channel::<()>();
        pool.run(
            p.clone(),
            Box::new(move || {
                let _ = held.recv();
            }),
        );
        release
    }

    #[test]
    fn with_no_carrier_alive_a_failed_spawn_fails_the_process_and_returns_its_slot() {
        let pool = private_pool(1);
        pool.carriers.fail_next_spawn.store(true, Ordering::SeqCst);
        let p = process(1);
        pool.run(p.clone(), Box::new(|| unreachable!("no thread ran it")));
        assert_eq!(p.life_state(), LifeState::Terminated);
        assert!(
            matches!(p.failure(), Some(MfError::App(m)) if m.contains("injected spawn failure"))
        );
        assert_eq!(pool.carriers.sched.lock().runnable, 0, "slot returned");
        pool.wait_idle();
        // The pool still serves.
        let q = process(2);
        pool.run(q.clone(), Box::new(|| {}));
        pool.wait_idle();
        assert_eq!((q.life_state(), q.failure()), (LifeState::Terminated, None));
    }

    #[test]
    fn with_a_carrier_alive_a_failed_spawn_leaves_the_body_queued() {
        let pool = private_pool(2);
        let release = held(&pool, &process(1));
        pool.carriers.fail_next_spawn.store(true, Ordering::SeqCst);
        let (ran, seen) = channel();
        let p = process(2);
        pool.run(p.clone(), Box::new(move || ran.send(()).unwrap()));
        assert_eq!(p.failure(), None, "the body waits instead of failing");
        release.send(()).unwrap();
        seen.recv_timeout(Duration::from_secs(10))
            .expect("the queued body ran");
        pool.wait_idle();
        assert_eq!((p.life_state(), p.failure()), (LifeState::Terminated, None));
        assert_eq!(pool.carriers.sched.lock().runnable, 0);
    }

    #[test]
    fn without_a_watcher_the_queue_still_drains_through_a_finishing_carrier() {
        let pool = private_pool(1);
        let release = held(&pool, &process(1));
        // The slot is taken: the next body queues, and the watcher it would
        // start cannot be spawned.
        pool.carriers.fail_next_spawn.store(true, Ordering::SeqCst);
        let p = process(2);
        pool.run(p.clone(), Box::new(|| {}));
        assert!(!pool.carriers.sched.lock().watching);
        assert_eq!(p.life_state(), LifeState::Active, "queued");
        release.send(()).unwrap();
        pool.wait_idle();
        assert_eq!((p.life_state(), p.failure()), (LifeState::Terminated, None));
        assert_eq!(pool.spawned(), 1, "the finishing carrier took it");
    }
}
