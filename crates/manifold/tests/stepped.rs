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

// ---- events wake stepped processes; stepped coordinators -----------------

/// A stepped process that drains its event memory at every step and notes
/// which thread each step ran on and what it found.
type Sightings = Arc<Mutex<Vec<(std::thread::ThreadId, String)>>>;

fn sighting_watcher(seen: Sightings) -> impl FnMut(&ProcessCtx) -> MfResult<Step> + Send + 'static {
    move |ctx| {
        while let Some((_, occ)) = ctx.core().events().try_select(&[EventPattern::Any]) {
            let what = match occ.name() {
                Some(name) => name.to_string(),
                None => "terminated".to_string(),
            };
            seen.lock().push((std::thread::current().id(), what));
        }
        Ok(Step::Pending)
    }
}

#[test]
fn an_occurrence_wakes_a_stepped_watcher_on_the_delivering_thread_and_never_a_threaded_one() {
    let env = Environment::new();
    let seen: Sightings = Arc::new(Mutex::new(Vec::new()));
    let stepped = env.create_stepped("Stepped", sighting_watcher(seen.clone()));
    env.activate(&stepped).unwrap();
    // A threaded watcher has a body that runs once, on its own thread, and
    // nothing an occurrence could run.
    let entered = Arc::new(AtomicUsize::new(0));
    let entered2 = entered.clone();
    let threaded = env.create_process("Threaded", move |ctx: ProcessCtx| {
        entered2.fetch_add(1, Ordering::SeqCst);
        ctx.read("never")?;
        Ok(())
    });
    env.activate(&threaded).unwrap();

    let (tid_tx, tid_rx) = channel();
    let raiser = env.create_process("Raiser", move |ctx: ProcessCtx| {
        tid_tx.send(std::thread::current().id()).unwrap();
        ctx.raise("hello");
        Ok(())
    });
    raiser.core().add_watcher(stepped.core());
    raiser.core().add_watcher(threaded.core());
    env.activate(&raiser).unwrap();
    raiser
        .core()
        .wait_terminated(Duration::from_secs(5))
        .unwrap();
    let raisers_thread = tid_rx.recv().unwrap();
    // `terminate` broadcasts after `life` says terminated; give the notice
    // the few instructions it may still need.
    while seen.lock().len() < 2 {
        std::thread::yield_now();
    }
    // A post is delivered, and stepped, by the posting thread: this one.
    stepped.core().post("note");
    let here = std::thread::current().id();
    assert_eq!(
        *seen.lock(),
        vec![
            (raisers_thread, "hello".to_string()),
            (raisers_thread, "terminated".to_string()),
            (here, "note".to_string()),
        ]
    );
    // The threaded watcher was told the same and ran nothing for it.
    assert_eq!(threaded.core().events().len(), 2);
    assert_eq!(entered.load(Ordering::SeqCst), 1);
    env.shutdown();
}

#[test]
fn an_occurrence_delivered_before_activation_is_found_by_the_first_step() {
    let env = Environment::new();
    let seen: Sightings = Arc::new(Mutex::new(Vec::new()));
    let p = env.create_stepped("Late", sighting_watcher(seen.clone()));
    p.core().post("early");
    // Also the late-watcher notice of a process that is already gone.
    let gone = env.create_process("Gone", |_ctx: ProcessCtx| Ok(()));
    env.activate(&gone).unwrap();
    gone.core().wait_terminated(Duration::from_secs(5)).unwrap();
    gone.core().add_watcher(p.core());
    assert!(seen.lock().is_empty(), "not active: not stepped");
    env.activate(&p).unwrap();
    let found: Vec<String> = seen.lock().iter().map(|(_, what)| what.clone()).collect();
    assert_eq!(found, ["early", "terminated"]);
    env.shutdown();
}

#[test]
fn racing_raises_lose_none() {
    // 10,000 in all: an event memory is a set kept as a list, so a backlog
    // of n distinct occurrences costs n² to build and drain.
    const RAISES: usize = 2_500;
    const THREADS: usize = 4;
    let env = Environment::new();
    let consumed = Arc::new(AtomicUsize::new(0));
    let consumed2 = consumed.clone();
    let watcher = env.create_stepped("Counter", move |ctx| {
        while ctx
            .core()
            .events()
            .try_select(&[EventPattern::Any])
            .is_some()
        {
            consumed2.fetch_add(1, Ordering::SeqCst);
        }
        Ok(Step::Pending)
    });
    // Each raiser is a process of its own raising distinct events, so no
    // two occurrences collapse under the memory's set semantics: every
    // one must be consumed by a step that some raise caused.
    let start = Arc::new(Barrier::new(THREADS + 1));
    let raisers: Vec<_> = (0..THREADS)
        .map(|_| {
            let raiser = env.create_process("Raiser", |_ctx: ProcessCtx| Ok(()));
            raiser.core().add_watcher(watcher.core());
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for i in 0..RAISES {
                    raiser.core().raise(format!("e{i}"));
                }
            })
        })
        .collect();
    // Some raises land before the activation, some race it, most follow.
    start.wait();
    env.activate(&watcher).unwrap();
    for r in raisers {
        r.join().unwrap();
    }
    assert_eq!(
        consumed.load(Ordering::SeqCst),
        RAISES * THREADS,
        "a raise woke nobody"
    );
    assert!(watcher.core().events().is_empty());
    env.shutdown();
}

/// The longest any one call into the runtime may take in the scope-exit
/// tests below: nothing in a stepped coordinator's exit waits for anything.
const NO_BLOCKING: Duration = Duration::from_millis(100);

/// A threaded member that parks until it is killed.
fn parked(coord: &Coord) -> MfResult<ProcessRef> {
    let p = coord.create_atomic("Parked", |ctx: ProcessCtx| {
        ctx.read("never")?;
        Ok(())
    });
    coord.activate(&p)?;
    Ok(p)
}

/// Run a stepped coordinator whose first step builds its block with
/// `build` and which is done as soon as `done` says so; check that its
/// exit blocked nobody and left nothing behind.
fn stepped_scope_exits_cleanly(
    build: impl FnOnce(&Coord) -> MfResult<Vec<ProcessRef>> + Send + 'static,
    done: impl Fn(&Coord, &[ProcessRef]) -> bool + Send + 'static,
) {
    let env = Environment::new();
    let before = env.live_processes();
    let members = Arc::new(Mutex::new(Vec::new()));
    let members2 = members.clone();
    let mut build = Some(build);
    let c = env.create_stepped_coordinator("Main", env.log().clone(), move |coord| {
        if let Some(build) = build.take() {
            *members2.lock() = build(coord)?;
        }
        Ok(if done(coord, &members2.lock()) {
            Step::Done
        } else {
            Step::Pending
        })
    });
    let (closed_tx, closed_rx) = channel();
    let (env2, members3) = (env.clone(), members.clone());
    c.core().on_terminate(move || {
        // "Scope closed" is what the coordinator's termination means.
        let open: Vec<String> = members3
            .lock()
            .iter()
            .filter(|m| m.life_state() != LifeState::Terminated || env2.process(m.id()).is_some())
            .map(|m| format!("{m:?}"))
            .collect();
        closed_tx.send(open).unwrap();
    });
    let began = std::time::Instant::now();
    env.activate(&c).unwrap();
    assert!(began.elapsed() < NO_BLOCKING, "the first step blocked");
    let open = closed_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(
        open.is_empty(),
        "alive or registered at termination: {open:?}"
    );
    assert!(!members.lock().is_empty());
    assert_eq!(env.live_processes(), before);
    assert!(env.failures().is_empty(), "{:?}", env.failures());
    env.shutdown();
}

#[test]
fn a_stepped_scope_whose_members_are_all_dead_closes_in_the_step_that_ends_it() {
    stepped_scope_exits_cleanly(
        |coord| {
            let quick = || coord.create_atomic("Quick", |_ctx: ProcessCtx| Ok(()));
            let members = vec![quick(), quick()];
            for m in &members {
                coord.activate(m)?;
            }
            Ok(members)
        },
        // Their termination notices step the coordinator again.
        |_coord, members| {
            members
                .iter()
                .all(|m| m.life_state() == LifeState::Terminated)
        },
    );
}

#[test]
fn a_stepped_scope_with_a_running_threaded_member_stays_pending_until_it_has_unwound() {
    stepped_scope_exits_cleanly(|coord| Ok(vec![parked(coord)?]), |_, _| true);
}

#[test]
fn a_stepped_scope_ends_a_member_that_was_never_activated() {
    stepped_scope_exits_cleanly(
        |coord| {
            let never = coord.create_atomic("Never", |_ctx: ProcessCtx| {
                panic!("a member of a closed block was started")
            });
            let stepped_never = coord.create_stepped("NeverStepped", |_ctx| Ok(Step::Pending));
            Ok(vec![never, stepped_never])
        },
        |_, _| true,
    );
}

#[test]
fn a_stepped_scope_closing_on_its_own_members_thread_waits_for_nobody() {
    // The member raises the event that ends the coordinator, so the closing
    // step runs inside the member's own `raise`, on the member's thread,
    // with the member still active: a join there would wait for itself.
    let (took_tx, took_rx) = channel();
    stepped_scope_exits_cleanly(
        move |coord| {
            let ender = coord.create_atomic("Ender", move |ctx: ProcessCtx| {
                let began = std::time::Instant::now();
                ctx.raise("the_end");
                took_tx.send(began.elapsed()).unwrap();
                Ok(())
            });
            coord.activate(&ender)?;
            Ok(vec![ender, parked(coord)?])
        },
        |coord, _| {
            coord
                .ctx()
                .core()
                .events()
                .try_select(&["the_end".into()])
                .is_some()
        },
    );
    let took = took_rx.recv().unwrap();
    assert!(took < NO_BLOCKING, "the raise blocked for {took:?}");
}

#[test]
fn killing_a_pending_stepped_coordinator_ends_its_members() {
    let env = Environment::new();
    let members = Arc::new(Mutex::new(Vec::new()));
    let members2 = members.clone();
    let c = env.create_stepped_coordinator("Main", env.log().clone(), move |coord| {
        if members2.lock().is_empty() {
            let waiting = coord.create_stepped("Waiting", |_ctx| Ok(Step::Pending));
            coord.activate(&waiting)?;
            *members2.lock() = vec![parked(coord)?, waiting];
        }
        Ok(Step::Pending)
    });
    env.activate(&c).unwrap();
    assert_eq!(c.life_state(), LifeState::Active);
    assert_eq!(env.live_processes(), 3);
    let began = std::time::Instant::now();
    c.core().kill();
    assert!(began.elapsed() < NO_BLOCKING, "the kill blocked");
    c.core().wait_terminated(Duration::from_secs(5)).unwrap();
    for m in members.lock().iter() {
        assert_eq!(m.life_state(), LifeState::Terminated, "{m:?}");
    }
    assert_eq!(env.live_processes(), 0);
    assert!(env.failures().is_empty(), "a kill is not a failure");
    env.shutdown();
}

#[test]
fn a_failing_or_panicking_coordinator_step_still_closes_its_scope() {
    for panics in [false, true] {
        let env = Environment::new();
        let log = manifold::env::ScopeLog::new();
        let member = Arc::new(Mutex::new(None));
        let member2 = member.clone();
        let c = env.create_stepped_coordinator("Main", log.clone(), move |coord| {
            *member2.lock() = Some(parked(coord)?);
            if panics {
                panic!("step bug");
            }
            Err(MfError::App("no".into()))
        });
        env.activate(&c).unwrap();
        c.core().wait_terminated(Duration::from_secs(5)).unwrap();
        let member = member.lock().take().unwrap();
        assert_eq!(member.life_state(), LifeState::Terminated);
        assert_eq!(env.live_processes(), 0);
        let want = if panics {
            "process body panicked"
        } else {
            "no"
        };
        let failures = log.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0], (c.id(), MfError::App(want.into())));
        env.shutdown();
    }
}
