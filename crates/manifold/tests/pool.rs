//! The carrier pool's contract: carrier threads are shared by every
//! `Environment` in the process, and `shutdown`/`join_all` wait for an
//! environment's bodies, not for threads.
//!
//! The pool is process-wide, so these tests live in a binary of their own
//! and take turns: every count they read is theirs alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use manifold::prelude::*;
use manifold::process::LifeState;
use parking_lot::Mutex;

static TURN: Mutex<()> = Mutex::new(());

const PATIENCE: Duration = Duration::from_secs(10);

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
    let procs: Vec<ProcessRef> = flags
        .iter()
        .map(|flag| {
            let state = Dropped(flag.clone());
            let p = env.create_process("P", move |_ctx: ProcessCtx| {
                let _state = state;
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
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
        .expect("shutdown from inside a body hung")
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
