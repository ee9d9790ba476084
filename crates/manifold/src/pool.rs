//! Parked worker threads: the runtime half of perpetual task instances.
//!
//! The bundler keeps `{perpetual}` task instances alive between jobs; this
//! pool keeps their OS threads alive too. A thread whose process body has
//! returned parks on its own channel instead of exiting, and the next
//! [`activate`](crate::env::Environment::activate) hands it the new body
//! rather than paying `thread::spawn` again — on a warm fleet a job can
//! create zero threads.
//!
//! A thread puts itself back on the idle list *before* it marks its
//! process terminated, so whoever has seen a process terminate (a scope
//! joining its members, a coordinator waiting on `terminated(p)`) can
//! count on that thread being reusable: a fleet in steady state spawns
//! nothing, deterministically.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::error::MfError;
use crate::process::ProcessCore;

type Body = Box<dyn FnOnce() + Send + 'static>;

/// One activation: the process body, and the process to mark terminated
/// once the body has returned and the thread is reusable again.
struct Job {
    body: Body,
    process: Arc<ProcessCore>,
}

enum Msg {
    Run(Job),
    Exit,
}

/// Terminates its process when dropped: after the thread has parked on
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

#[derive(Default)]
pub(crate) struct ThreadPool {
    shared: Arc<Shared>,
}

#[derive(Default)]
struct Shared {
    idle: Mutex<Vec<Sender<Msg>>>,
    draining: AtomicBool,
    spawned: AtomicU64,
}

impl ThreadPool {
    /// Run `body` on a parked thread when one is available, else on a
    /// fresh thread that parks itself when the body returns; either way
    /// `process` is terminated after the body, once the thread is
    /// reusable. Returns the new thread's handle, or `None` when a parked
    /// thread was reused (its handle is already tracked by the caller).
    pub(crate) fn run(&self, process: Arc<ProcessCore>, body: Body) -> Option<JoinHandle<()>> {
        let mut job = Job { body, process };
        loop {
            let parked = self.shared.idle.lock().pop();
            match parked {
                Some(tx) => match tx.send(Msg::Run(job)) {
                    Ok(()) => return None,
                    // The thread is gone; take the job back and try the
                    // next parked one.
                    Err(e) => {
                        job = match e.0 {
                            Msg::Run(j) => j,
                            Msg::Exit => unreachable!("pool only sends Run here"),
                        }
                    }
                },
                None => return Some(self.spawn(job)),
            }
        }
    }

    fn spawn(&self, first: Job) -> JoinHandle<()> {
        let shared = self.shared.clone();
        let n = self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("mf-pool-{n}"))
            .spawn(move || {
                let mut job = first;
                // One channel for the thread's whole life; each park puts a
                // clone of its sender on the idle list.
                let (tx, rx) = channel();
                loop {
                    let Job { body, process } = job;
                    let ending = Ending(process);
                    body();
                    let parked = {
                        // The flag is checked under the idle lock and set
                        // under the same lock in `drain`, so a thread can
                        // never park after the drain swept the list.
                        let mut idle = shared.idle.lock();
                        let parked = !shared.draining.load(Ordering::Acquire);
                        if parked {
                            idle.push(tx.clone());
                        }
                        parked
                    };
                    // Only now may observers learn the process is gone: the
                    // next activation they trigger finds this thread idle.
                    drop(ending);
                    if !parked {
                        return;
                    }
                    match rx.recv() {
                        Ok(Msg::Run(next)) => job = next,
                        Ok(Msg::Exit) | Err(_) => return,
                    }
                }
            })
            .expect("thread spawn")
    }

    /// Tell every parked thread to exit and stop future parking; busy
    /// threads exit when their current job returns. Must run before the
    /// environment joins its thread handles — a parked thread would block
    /// that join forever.
    pub(crate) fn drain(&self) {
        let parked = {
            let mut idle = self.shared.idle.lock();
            self.shared.draining.store(true, Ordering::Release);
            std::mem::take(&mut *idle)
        };
        for tx in parked {
            let _ = tx.send(Msg::Exit);
        }
    }

    /// Number of threads currently parked and reusable.
    pub(crate) fn parked(&self) -> usize {
        self.shared.idle.lock().len()
    }

    /// OS threads this pool has ever spawned. Flat on a warm fleet.
    pub(crate) fn spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::Relaxed)
    }
}
