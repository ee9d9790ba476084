//! Stepped processes: atomic processes without a thread, stepped on
//! whichever thread makes them runnable.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use manifold::prelude::*;
use manifold::process::LifeState;
use parking_lot::Mutex;

/// A stepped echo: one unit from `input` to `output`, then done. It keeps
/// the unit across steps while `output` has no stream yet.
fn echo(steps: Arc<AtomicUsize>) -> impl FnMut(&ProcessCtx) -> MfResult<Step> + Send + 'static {
    let mut held: Option<Unit> = None;
    move |ctx| {
        steps.fetch_add(1, Ordering::SeqCst);
        if held.is_none() {
            held = ctx.try_read("input");
        }
        let Some(unit) = held.clone() else {
            return Ok(Step::Pending);
        };
        if !ctx.try_write("output", unit)? {
            return Ok(Step::Pending);
        }
        ctx.raise("echoed");
        Ok(Step::Done)
    }
}

#[test]
fn a_unit_that_arrived_before_activation_is_served_by_the_activation() {
    let env = Environment::new();
    env.run_coordinator("Main", |coord| {
        let steps = Arc::new(AtomicUsize::new(0));
        let p = coord.create_stepped("Echo", echo(steps.clone()));
        let mut st = coord.state();
        st.send(Unit::int(4), &p, "input")?;
        st.connect_to_self(&p, "output", "input", StreamType::KK)?;
        assert_eq!(steps.load(Ordering::SeqCst), 0, "not active: not stepped");
        assert_eq!(p.life_state(), LifeState::Created);
        coord.activate(&p)?;
        // The activating thread took the one step there was to take.
        assert_eq!(steps.load(Ordering::SeqCst), 1);
        assert_eq!(p.life_state(), LifeState::Terminated);
        assert_eq!(coord.read("input")?.as_int(), Some(4));
        assert!(matches!(
            st.until_terminated(&p, &["echoed".into()])?,
            StateExit::Event(_)
        ));
        Ok(())
    })
    .unwrap();
    assert_eq!(env.threads_spawned(), 0);
    env.shutdown();
}

#[test]
fn a_unit_that_arrives_after_activation_steps_the_process_on_the_sending_thread() {
    let env = Environment::new();
    env.run_coordinator("Main", |coord| {
        let steps = Arc::new(AtomicUsize::new(0));
        let p = coord.create_stepped("Echo", echo(steps.clone()));
        coord.activate(&p)?;
        assert_eq!(steps.load(Ordering::SeqCst), 1, "activation steps once");
        assert_eq!(p.life_state(), LifeState::Active);
        assert!(matches!(coord.activate(&p), Err(MfError::AlreadyActive(_))));
        let mut st = coord.state();
        st.connect_to_self(&p, "output", "input", StreamType::KK)?;
        st.send(Unit::int(5), &p, "input")?;
        assert_eq!(p.life_state(), LifeState::Terminated);
        assert_eq!(coord.read("input")?.as_int(), Some(5));
        Ok(())
    })
    .unwrap();
    assert_eq!(env.threads_spawned(), 0);
    assert_eq!(env.live_processes(), 0);
    env.shutdown();
}

#[test]
fn output_not_yet_attached_is_pending_and_delivered_on_attach() {
    let env = Environment::new();
    env.run_coordinator("Main", |coord| {
        let steps = Arc::new(AtomicUsize::new(0));
        let p = coord.create_stepped("Echo", echo(steps.clone()));
        coord.activate(&p)?;
        let mut st = coord.state();
        st.send(Unit::int(6), &p, "input")?;
        // The unit is in hand and there is nowhere to put it: a threaded
        // body would block in `write` here; a step stays pending.
        assert_eq!(p.life_state(), LifeState::Active);
        let before = steps.load(Ordering::SeqCst);
        st.connect_to_self(&p, "output", "input", StreamType::KK)?;
        assert_eq!(
            steps.load(Ordering::SeqCst),
            before + 1,
            "the attach woke it"
        );
        assert_eq!(p.life_state(), LifeState::Terminated);
        assert_eq!(coord.read("input")?.as_int(), Some(6));
        Ok(())
    })
    .unwrap();
    env.shutdown();
}

#[test]
fn a_wake_during_a_running_step_runs_the_step_again() {
    let env = Environment::new();
    let steps = Arc::new(AtomicUsize::new(0));
    let (inside_tx, inside_rx) = channel::<()>();
    let (leave_tx, leave_rx) = channel::<()>();
    let leave_rx = Mutex::new(leave_rx);
    let steps2 = steps.clone();
    let p = env.create_stepped("Slow", move |_ctx| {
        // Only the first step lingers — so that the test can place a wake
        // inside it, which no sleep could guarantee.
        if steps2.fetch_add(1, Ordering::SeqCst) == 0 {
            inside_tx.send(()).unwrap();
            leave_rx.lock().recv().unwrap();
        }
        Ok(Step::Pending)
    });
    let waker = p.core().waker();
    let env2 = env.clone();
    let p2 = p.clone();
    let activator = std::thread::spawn(move || env2.activate(&p2).unwrap());
    inside_rx.recv().unwrap();
    // The step is running on the activator's thread: this wake must not
    // run a second one beside it, must not wait for it, and must not be
    // forgotten.
    waker.wake();
    assert_eq!(steps.load(Ordering::SeqCst), 1);
    leave_tx.send(()).unwrap();
    activator.join().unwrap();
    assert_eq!(steps.load(Ordering::SeqCst), 2, "the wake re-ran the step");
    // With nobody inside, a wake steps on the waking thread.
    waker.wake();
    assert_eq!(steps.load(Ordering::SeqCst), 3);
    env.shutdown();
    assert_eq!(p.life_state(), LifeState::Terminated);
    assert_eq!(env.threads_spawned(), 0);
}

#[test]
fn racing_wakes_lose_none_not_even_across_the_activation() {
    const WAKES: u64 = 10_000;
    const THREADS: usize = 4;
    let env = Environment::new();
    let posted = Arc::new(AtomicU64::new(0));
    let observed = Arc::new(AtomicU64::new(0));
    let (posted2, observed2) = (posted.clone(), observed.clone());
    let p = env.create_stepped("Counter", move |_ctx| {
        observed2.store(posted2.load(Ordering::SeqCst), Ordering::SeqCst);
        Ok(Step::Pending)
    });
    // The wakers start before the process is active, so some wakes land
    // inside the "not active yet" check while the activation goes by.
    let start = Arc::new(Barrier::new(THREADS + 1));
    let wakers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (posted, waker, start) = (posted.clone(), p.core().waker(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..WAKES {
                    posted.fetch_add(1, Ordering::SeqCst);
                    waker.wake();
                }
            })
        })
        .collect();
    start.wait();
    env.activate(&p).unwrap();
    for w in wakers {
        w.join().unwrap();
    }
    // Every wake was preceded by a post; had any wake been lost with no
    // step after it, the last step would have seen fewer.
    assert_eq!(
        observed.load(Ordering::SeqCst),
        WAKES * THREADS as u64,
        "a wake was lost"
    );
    env.shutdown();
}

#[test]
fn kill_while_pending_terminates_at_once_whatever_is_outstanding() {
    let env = Environment::new();
    let handed_out = Arc::new(Mutex::new(None));
    let handed_out2 = handed_out.clone();
    let p = env.create_stepped("Waiting", move |ctx| {
        // Hands its waker to a completion that never comes.
        *handed_out2.lock() = Some(ctx.waker());
        Ok(Step::Pending)
    });
    let hooked = Arc::new(AtomicUsize::new(0));
    let hooked2 = hooked.clone();
    p.core().on_terminate(move || {
        hooked2.fetch_add(1, Ordering::SeqCst);
    });
    env.activate(&p).unwrap();
    assert_eq!(p.life_state(), LifeState::Active);
    p.core().kill();
    assert_eq!(p.life_state(), LifeState::Terminated, "no waiting, no join");
    assert_eq!(hooked.load(Ordering::SeqCst), 1);
    assert!(p.core().failure().is_none(), "a kill is not a failure");
    // The completion arriving afterwards finds nobody.
    handed_out.lock().take().expect("the step ran").wake();
    assert_eq!(hooked.load(Ordering::SeqCst), 1);
    env.shutdown();
}

#[test]
fn a_scope_retires_stepped_members_activated_or_not() {
    let env = Environment::new();
    env.run_coordinator("Main", |coord| {
        let (never, pending) = coord.scope(|coord| {
            let never = coord.create_stepped("Never", |_ctx| Ok(Step::Pending));
            let pending = coord.create_stepped("Pending", |_ctx| Ok(Step::Pending));
            coord.activate(&pending)?;
            Ok((never, pending))
        })?;
        assert_eq!(never.life_state(), LifeState::Terminated);
        assert_eq!(pending.life_state(), LifeState::Terminated);
        assert!(matches!(
            coord.activate(&never),
            Err(MfError::AlreadyActive(_))
        ));
        assert_eq!(coord.env().live_processes(), 1, "only the coordinator");
        Ok(())
    })
    .unwrap();
    assert!(env.failures().is_empty());
    assert_eq!(env.threads_spawned(), 0);
    env.shutdown();
}

#[test]
fn an_error_or_a_panic_in_a_step_is_a_recorded_failure_and_the_process_is_gone() {
    let link = LinkSpec::default().load(1).weight("Bad", 1).task("t");
    let env = Environment::with_specs(link, ConfigSpec::with_startup("start"));
    env.run_coordinator("Main", |coord| {
        let bad = coord.create_stepped("Bad", |_ctx| Err(MfError::App("no".into())));
        coord.activate(&bad)?;
        assert_eq!(bad.life_state(), LifeState::Terminated);
        assert_eq!(bad.core().failure(), Some(MfError::App("no".into())));
        // Placed like any process, and the placement was given back: the
        // load-1 instance it filled takes the next one.
        let placed = bad.core().placement().expect("placed");
        let worse = coord.create_stepped("Bad", |_ctx| panic!("step bug"));
        coord.activate(&worse)?;
        assert_eq!(worse.life_state(), LifeState::Terminated);
        assert_eq!(
            worse.core().failure(),
            Some(MfError::App("process body panicked".into()))
        );
        assert_eq!(worse.core().placement().unwrap().task, placed.task);
        // The coordinator is told like it is of any process.
        let st = coord.state();
        assert!(matches!(
            st.until_terminated(&bad, &[])?,
            StateExit::Terminated(_)
        ));
        Ok(())
    })
    .unwrap();
    assert_eq!(env.take_failures().len(), 2);
    env.shutdown();
}

#[test]
fn a_stepped_process_prints_under_its_own_name_to_its_coordinators_log() {
    let env = Environment::new();
    env.run_coordinator("Main", |coord| {
        let p = coord.create_stepped("Greeter", |ctx| {
            manifold::mes!(ctx, "Welcome");
            Ok(Step::Done)
        });
        coord.activate(&p)?;
        p.core().wait_terminated(Duration::ZERO)
    })
    .unwrap();
    let recs = env.trace().snapshot();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].manifold_name.as_str(), "Greeter");
    assert_eq!(recs[0].message, "Welcome");
    env.shutdown();
}
