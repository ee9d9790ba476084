//! Parked carrier threads: the runtime half of perpetual task instances.
//!
//! The bundler keeps `{perpetual}` task instances alive between jobs; this
//! pool keeps their OS threads alive too, for the life of the process. A
//! carrier thread whose process body has returned parks on its own channel
//! instead of exiting, and the next
//! [`activate`](crate::env::Environment::activate) — in the same
//! [`Environment`](crate::env::Environment) or any other — hands it the new
//! body rather than paying `thread::spawn` again. A carrier is spawned only
//! when none is parked, so the process never holds more carriers than its
//! peak of concurrently running threaded bodies, and a fresh environment
//! on a warm process creates zero threads.
//!
//! A carrier puts itself back on the idle list *before* it marks its
//! process terminated, so whoever has seen a process terminate (a scope
//! joining its members, a coordinator waiting on `terminated(p)`) can
//! count on that carrier being reusable: a fleet in steady state spawns
//! nothing, deterministically.
//!
//! Environments own no threads. Each [`ThreadPool`] is one environment's
//! view of the carriers: it counts that environment's bodies from hand-off
//! until after their process has terminated, and
//! [`ThreadPool::wait_idle`] — what `shutdown` and `join_all` do — waits for
//! the count to reach zero.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::MfError;
use crate::process::ProcessCore;

type Body = Box<dyn FnOnce() + Send + 'static>;

/// Every parked carrier in the process, whichever environment it last
/// served.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Carriers spawned in the process: the `N` of the `mf-pool-N` names.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// On a carrier, the running count of the body it is carrying.
    static CARRYING: Cell<*const Bodies> = const { Cell::new(std::ptr::null()) };
}

/// One activation: the process body, the process to mark terminated once
/// the body has returned and the carrier is reusable again, and the body's
/// place in its environment's running count.
struct Job {
    body: Body,
    process: Arc<ProcessCore>,
    counted: Counted,
}

/// Terminates its process when dropped: after the carrier has parked on
/// the normal path, during unwinding if the body panicked — so a scope
/// joining its members never waits on a process that can no longer end.
struct Ending(Arc<ProcessCore>);

impl Drop for Ending {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .record_failure(MfError::App("process body panicked".into()));
        }
        self.0.terminate();
    }
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
    /// Bodies handed to a carrier and not yet through their `Ending`.
    running: usize,
    /// Of those, the ones waiting in [`ThreadPool::wait_idle`] from
    /// inside themselves.
    waiting_inside: usize,
}

/// A body's place in its environment's running count. Dropped last: after
/// the body, after its `Ending`, on the normal path and while unwinding.
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

/// One environment's handle on the process's carriers.
#[derive(Default)]
pub(crate) struct ThreadPool {
    bodies: Arc<Bodies>,
}

impl ThreadPool {
    /// Run `body` on a parked carrier when one is available, else on a
    /// fresh carrier that parks itself when the body returns; either way
    /// `process` is terminated after the body, once the carrier is
    /// reusable, and only then does the body stop counting as running.
    pub(crate) fn run(&self, process: Arc<ProcessCore>, body: Body) {
        let mut job = Job {
            body,
            process,
            counted: Counted::new(&self.bodies),
        };
        loop {
            let parked = IDLE.lock().pop();
            match parked {
                Some(tx) => match tx.send(job) {
                    Ok(()) => return,
                    // The carrier is gone; take the job back and try the
                    // next parked one.
                    Err(e) => job = e.0,
                },
                None => return self.spawn(job),
            }
        }
    }

    fn spawn(&self, first: Job) {
        self.bodies.spawned.fetch_add(1, Ordering::Relaxed);
        let n = SPAWNED.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("mf-pool-{n}"))
            .spawn(move || {
                let mut job = first;
                // One channel for the carrier's whole life; each park puts
                // a clone of its sender on the idle list.
                let (tx, rx) = channel();
                loop {
                    let Job {
                        body,
                        process,
                        counted,
                    } = job;
                    CARRYING.with(|c| c.set(Arc::as_ptr(&counted.0)));
                    let ending = Ending(process);
                    body();
                    IDLE.lock().push(tx.clone());
                    // Only now may observers learn the process is gone: the
                    // next activation they trigger finds this carrier idle.
                    drop(ending);
                    drop(counted);
                    CARRYING.with(|c| c.set(std::ptr::null()));
                    match rx.recv() {
                        Ok(next) => job = next,
                        Err(_) => return,
                    }
                }
            })
            .expect("thread spawn");
    }

    /// Block until every body this pool has handed to a carrier has
    /// returned and its process has terminated. Called from inside one of
    /// those bodies, it waits for all the others, and returns once every
    /// body still running is waiting here from inside itself.
    pub(crate) fn wait_idle(&self) {
        let inside = CARRYING.with(|c| c.get() == Arc::as_ptr(&self.bodies));
        let mut tally = self.bodies.tally.lock();
        if inside {
            tally.waiting_inside += 1;
            while tally.running > tally.waiting_inside {
                self.bodies.changed.wait(&mut tally);
            }
            tally.waiting_inside -= 1;
        } else {
            while tally.running > 0 {
                self.bodies.changed.wait(&mut tally);
            }
        }
    }

    /// Carriers currently parked and reusable, in the whole process.
    pub(crate) fn parked() -> usize {
        IDLE.lock().len()
    }

    /// Carriers spawned to run this pool's bodies. Flat on a warm fleet.
    pub(crate) fn spawned(&self) -> u64 {
        self.bodies.spawned.load(Ordering::Relaxed)
    }
}
