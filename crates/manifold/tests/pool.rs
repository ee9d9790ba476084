//! The carrier pool's contract: carrier threads are shared by every
//! `Environment` in the process, at most one per core is runnable and the
//! rest of the activations wait in a FIFO run queue, and
//! `shutdown`/`join_all` wait for an environment's bodies, not for threads.
//!
//! The pool is process-wide, so these tests live in a binary of their own
//! and take turns: every count they read is theirs alone.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use manifold::env::QUEUE_GRACE;
use manifold::prelude::*;
use manifold::process::LifeState;
use parking_lot::Mutex;

static TURN: Mutex<()> = Mutex::new(());

const PATIENCE: Duration = Duration::from_secs(10);

/// Runnable carriers the pool allows: one per core this process may use.
fn slots() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Spin, yielding the core, until `done` holds: a wait the runtime cannot
/// see, so the spinning body keeps its slot.
fn spin_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "spun past the test's patience");
        std::thread::yield_now();
    }
}

/// Run a body that reports its carrier thread, and wait until its process
/// has terminated.
fn carrier_of_one_body(env: &Environment) -> ThreadId {
    let (tx, rx) = channel();
    let p = env.create_process("P", move |_ctx: ProcessCtx| {
        tx.send(std::thread::current().id()).unwrap();
        Ok(())
    });
    env.activate(&p).unwrap();
    p.core().wait_terminated(PATIENCE).unwrap();
    rx.recv().unwrap()
}

/// Sets its flag when dropped: captured by a body, it shows the body's
/// state is gone.
struct Dropped(Arc<AtomicBool>);

impl Drop for Dropped {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_warm_process_hands_every_body_the_same_carrier() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let warm = env.parked_threads();
    let first = carrier_of_one_body(&env);
    for _ in 0..2 {
        // A carrier parks before its process is seen terminated, so the
        // next activation reuses it rather than spawn.
        assert_eq!(env.parked_threads(), warm.max(1));
        assert_eq!(carrier_of_one_body(&env), first);
    }
    assert_eq!(env.threads_spawned(), u64::from(warm == 0));
    // Parked already while its process terminates: a termination hook,
    // which runs on the carrier, sees it on the idle list.
    let p = env.create_process("P", |_ctx: ProcessCtx| Ok(()));
    let (tx, parked) = channel();
    let inner = env.clone();
    p.core()
        .on_terminate(move || tx.send(inner.parked_threads()).unwrap());
    env.activate(&p).unwrap();
    assert_eq!(reported(&parked), warm.max(1));
    env.shutdown();
    assert_eq!(
        env.parked_threads(),
        warm.max(1),
        "shutdown leaves the carrier parked"
    );
}

#[test]
fn a_second_environment_reuses_the_first_ones_parked_carrier() {
    let _turn = TURN.lock();
    let a = Environment::new();
    let carrier = carrier_of_one_body(&a);
    a.shutdown();
    drop(a);
    let b = Environment::new();
    assert_eq!(carrier_of_one_body(&b), carrier);
    assert_eq!(b.threads_spawned(), 0, "a fresh environment spawns nothing");
    b.shutdown();
}

#[test]
fn a_panicking_body_still_lets_shutdown_return() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let dropped = Arc::new(AtomicBool::new(false));
    let state = Dropped(dropped.clone());
    let p = env.create_process("P", move |_ctx: ProcessCtx| {
        let _state = &state;
        std::thread::sleep(Duration::from_millis(20));
        panic!("body bug")
    });
    env.activate(&p).unwrap();
    env.shutdown();
    assert!(dropped.load(Ordering::SeqCst), "the body's state is gone");
    assert_eq!(p.life_state(), LifeState::Terminated);
    assert_eq!(
        env.failures(),
        vec![(p.id(), MfError::App("process body panicked".into()))]
    );
    // The pool still serves: the next body finds a carrier.
    carrier_of_one_body(&env);
    env.shutdown();
}

#[test]
fn join_all_waits_for_every_body_and_its_state() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let flags: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let hooked = Arc::new(AtomicUsize::new(0));
    let procs: Vec<ProcessRef> = flags
        .iter()
        .map(|flag| {
            let state = Dropped(flag.clone());
            let p = env.create_process("P", move |_ctx: ProcessCtx| {
                let _state = state;
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            });
            // Termination takes a while: the count must wait for all of it.
            let hooked = hooked.clone();
            p.core().on_terminate(move || {
                std::thread::sleep(Duration::from_millis(10));
                hooked.fetch_add(1, Ordering::SeqCst);
            });
            env.activate(&p).unwrap();
            p
        })
        .collect();
    // Nothing is killed or terminated for it: a body counts as running
    // until its process has terminated.
    env.join_all();
    assert!(flags.iter().all(|f| f.load(Ordering::SeqCst)));
    assert!(procs
        .iter()
        .all(|p| p.life_state() == LifeState::Terminated));
    assert_eq!(hooked.load(Ordering::SeqCst), 3, "termination finished");
}

/// A body of `env` that holds its carrier until `release` says so.
fn held_body(env: &Environment) -> (std::sync::mpsc::Sender<()>, ProcessRef) {
    let (release, held) = channel::<()>();
    let p = env.create_process("Held", move |_ctx: ProcessCtx| {
        let _ = held.recv();
        Ok(())
    });
    env.activate(&p).unwrap();
    (release, p)
}

#[test]
fn shutdown_of_one_environment_does_not_wait_for_another() {
    let _turn = TURN.lock();
    let a = Environment::new();
    let b = Environment::new();
    let (release, held) = held_body(&b);
    carrier_of_one_body(&a);
    a.shutdown();
    assert_eq!(held.life_state(), LifeState::Active, "b's body still runs");
    release.send(()).unwrap();
    b.shutdown();
    assert_eq!(held.life_state(), LifeState::Terminated);
}

/// Whether `rx` reports within the test's patience: a hang fails the test
/// instead of stalling the suite.
fn reported<T>(rx: &Receiver<T>) -> T {
    rx.recv_timeout(PATIENCE)
        .expect("a body never reported: it hung or never started")
}

#[test]
fn shutdown_from_inside_its_own_body_waits_for_the_others_only() {
    let _turn = TURN.lock();
    let env = Environment::new();
    // A body that only ends when killed.
    let stuck = env.create_process("Stuck", |ctx: ProcessCtx| {
        ctx.read("input")?;
        Ok(())
    });
    env.activate(&stuck).unwrap();
    let (tx, rx) = channel();
    let inner = env.clone();
    let closer = env.create_process("Closer", move |_ctx: ProcessCtx| {
        inner.shutdown();
        tx.send(stuck.life_state()).unwrap();
        Ok(())
    });
    env.activate(&closer).unwrap();
    assert_eq!(
        reported(&rx),
        LifeState::Terminated,
        "the other body is done"
    );
    env.shutdown();
    assert_eq!(closer.life_state(), LifeState::Terminated);
}

#[test]
fn a_wait_from_outside_also_waits_for_a_body_waiting_inside() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let (release, _held) = held_body(&env);
    let (entered, inside) = channel();
    let done = Arc::new(AtomicBool::new(false));
    let (inner, flag) = (env.clone(), done.clone());
    let waiter = env.create_process("Waiter", move |_ctx: ProcessCtx| {
        entered.send(()).unwrap();
        inner.join_all();
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        Ok(())
    });
    env.activate(&waiter).unwrap();
    reported(&inside);
    // Let the waiter reach its own `join_all` before the held body ends.
    std::thread::sleep(Duration::from_millis(20));
    release.send(()).unwrap();
    env.join_all();
    assert!(
        done.load(Ordering::SeqCst),
        "returned before the waiter did"
    );
}

#[test]
fn two_bodies_shutting_down_their_environment_at_once_both_return() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let (tx, rx) = channel();
    let (go, gate) = channel::<()>();
    let gate = Arc::new(std::sync::Mutex::new(gate));
    for _ in 0..2 {
        let (inner, tx, gate) = (env.clone(), tx.clone(), gate.clone());
        let p = env.create_process("Closer", move |_ctx: ProcessCtx| {
            gate.lock().unwrap().recv().unwrap();
            inner.join_all();
            inner.shutdown();
            tx.send(()).unwrap();
            Ok(())
        });
        env.activate(&p).unwrap();
    }
    go.send(()).unwrap();
    go.send(()).unwrap();
    reported(&rx);
    reported(&rx);
    env.shutdown();
}

/// Counts the bodies inside their critical section and the most there ever
/// were at once.
#[derive(Default)]
struct Occupancy {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl Occupancy {
    fn enter(&self) {
        let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn leave(&self) {
        self.now.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn bodies_that_never_wait_in_the_runtime_run_at_most_one_per_slot() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let n = slots();
    let late = env.grace_starts();
    let occupancy = Arc::new(Occupancy::default());
    let finished = Arc::new(AtomicUsize::new(0));
    for _ in 0..n + 3 {
        let (occupancy, finished) = (occupancy.clone(), finished.clone());
        let p = env.create_process("Spin", move |_ctx: ProcessCtx| {
            occupancy.enter();
            let until = Instant::now() + Duration::from_millis(2);
            spin_until(|| Instant::now() >= until);
            occupancy.leave();
            finished.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        env.activate(&p).unwrap();
    }
    env.join_all();
    assert_eq!(finished.load(Ordering::SeqCst), n + 3, "every body ran");
    // A body the watcher started past the bound would be one more: none
    // should have queued that long, and none may run beyond it otherwise.
    let overdue = (env.grace_starts() - late) as usize;
    let peak = occupancy.peak.load(Ordering::SeqCst);
    assert!(
        peak <= n + overdue,
        "{peak} bodies ran at once on {n} slots ({overdue} started late)"
    );
    env.shutdown();
}

/// Activate `n` bodies that each take a slot and keep it — spinning, not
/// waiting in the runtime — until `release` is set, and return once all of
/// them are running. The first runs `first` instead, once all are running.
fn take_every_slot(
    env: &Environment,
    release: &Arc<AtomicBool>,
    first: impl FnOnce(&ProcessCtx) -> MfResult<()> + Send + 'static,
) {
    let n = slots();
    let running = Arc::new(AtomicUsize::new(0));
    let mut first = Some(first);
    for _ in 0..n {
        let (running, release, first) = (running.clone(), release.clone(), first.take());
        let p = env.create_process("Holder", move |ctx: ProcessCtx| {
            running.fetch_add(1, Ordering::SeqCst);
            spin_until(|| running.load(Ordering::SeqCst) == n);
            match first {
                Some(first) => first(&ctx),
                None => {
                    spin_until(|| release.load(Ordering::SeqCst));
                    Ok(())
                }
            }
        });
        env.activate(&p).unwrap();
    }
    spin_until(|| running.load(Ordering::SeqCst) == n);
}

#[test]
fn a_queued_body_starts_as_soon_as_a_slot_holder_waits_in_the_runtime() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let late = env.grace_starts();
    let release = Arc::new(AtomicBool::new(false));
    let (started, report) = channel();
    let inner = env.clone();
    // Every slot is taken when the first holder activates the body: it
    // queues. The holder then blocks reading a port nobody feeds, which
    // must hand its slot to the queued body there and then.
    take_every_slot(&env, &release, move |ctx| {
        let queued = inner.create_process("Queued", move |_ctx: ProcessCtx| {
            started.send(()).unwrap();
            Ok(())
        });
        inner.activate(&queued)?;
        ctx.read("input")?;
        Ok(())
    });
    reported(&report);
    assert_eq!(
        env.grace_starts(),
        late,
        "started by the port read, not by the grace"
    );
    release.store(true, Ordering::SeqCst);
    env.shutdown();
}

#[test]
fn queued_bodies_start_in_activation_order() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let late = env.grace_starts();
    let release = Arc::new(AtomicBool::new(false));
    let order = Arc::new(Mutex::new(Vec::new()));
    let (activate, activated) = channel();
    let (queue, inner) = (order.clone(), env.clone());
    // The first holder queues five bodies behind every slot and returns,
    // freeing one slot: its carrier runs the queue, head first.
    take_every_slot(&env, &release, move |_ctx| {
        for k in 0..5 {
            let order = queue.clone();
            let p = inner.create_process("Queued", move |_ctx: ProcessCtx| {
                order.lock().push(k);
                Ok(())
            });
            inner.activate(&p)?;
        }
        activate.send(()).unwrap();
        Ok(())
    });
    reported(&activated);
    spin_until(|| order.lock().len() == 5);
    assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    assert_eq!(env.grace_starts(), late, "the queue drained in time");
    release.store(true, Ordering::SeqCst);
    env.shutdown();
}

#[test]
fn panicking_bodies_give_their_slots_back() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let n = slots();
    let panicked: Vec<ProcessRef> = (0..n)
        .map(|_| {
            let p = env.create_process("Bug", |_ctx: ProcessCtx| panic!("body bug"));
            env.activate(&p).unwrap();
            p
        })
        .collect();
    env.join_all();
    assert!(panicked.iter().all(|p| p.core().failure().is_some()));
    // A leaked slot would leave these to the watcher, a grace later.
    let late = env.grace_starts();
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..n + 1 {
        let ran = ran.clone();
        let p = env.create_process("P", move |_ctx: ProcessCtx| {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        env.activate(&p).unwrap();
    }
    env.join_all();
    assert_eq!(ran.load(Ordering::SeqCst), n + 1);
    assert_eq!(env.grace_starts(), late, "every slot was free");
    env.shutdown();
}

#[test]
fn a_body_blocked_outside_the_runtime_delays_a_later_one_by_at_most_the_grace() {
    let _turn = TURN.lock();
    let env = Environment::new();
    let late = env.grace_starts();
    // Every slot held by a body blocked on a std channel, which the
    // runtime cannot see.
    let holders: Vec<_> = (0..slots()).map(|_| held_body(&env)).collect();
    let (started, report) = channel();
    let p = env.create_process("Later", move |_ctx: ProcessCtx| {
        started.send(Instant::now()).unwrap();
        Ok(())
    });
    let activated = Instant::now();
    env.activate(&p).unwrap();
    let waited = reported(&report) - activated;
    // It queued (the bound held), and the watcher started it once the
    // grace was up; the slack is the watcher's own wake-up and hand-off.
    const SLACK: Duration = Duration::from_millis(250);
    assert!(
        waited >= QUEUE_GRACE,
        "started after {waited:?}: it never queued"
    );
    assert!(
        waited <= QUEUE_GRACE + SLACK,
        "started after {waited:?}, the grace is {QUEUE_GRACE:?}"
    );
    assert_eq!(env.grace_starts(), late + 1);
    for (release, _) in holders {
        release.send(()).unwrap();
    }
    env.shutdown();
}
