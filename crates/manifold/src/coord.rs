//! Coordinators: the manager side of IWIM, as an embedded DSL.
//!
//! A coordinator never computes; it creates and activates processes, wires
//! their ports together with streams, and reacts to events by *preempting*
//! its current state (dismantling that state's streams according to their
//! types) and transitioning to another.
//!
//! The embedding maps MANIFOLD constructs onto Rust as follows:
//!
//! | MANIFOLD                         | here                                   |
//! |----------------------------------|----------------------------------------|
//! | `manner F(…) { … }`              | `fn f(coord: &mut Coord, …) -> MfResult<…>` |
//! | a state with stream connections  | [`Coord::state`] + [`StateScope`] methods |
//! | `IDLE` / wait in a state         | [`StateScope::idle`]                    |
//! | `terminated(p)` in a state body  | [`StateScope::until_terminated`]        |
//! | `priority a > b`                 | pattern order in the wait list          |
//! | state preemption                 | [`StateScope`] drop (dismantles streams)|
//! | `post(e)`                        | [`Coord::post`]                         |
//! | `raise(e)`                       | [`Coord::raise`]                        |
//! | `ignore e` (block declaration)   | [`EventMemory::purge_named`](crate::event::EventMemory::purge_named) at block exit |
//! | a block's `auto process` locals  | [`Coord::scope`] (they die with the block) |
//! | the same, from a step function   | [`Coord::open_scope`] + [`Coord::close_pending`] |
//! | `process p is M(...)` + `activate` | [`Coord::create_atomic`] + [`Coord::activate`] |
//! | `&p -> q` (send a reference)     | [`StateScope::send`] with a [`Unit::ProcessRef`] |
//!
//! Counters such as the paper's `now` and `t` variables can be ordinary Rust
//! locals inside the coordinator, or — for fidelity — instances of the
//! predefined [`variable`](crate::builtin::Variable) process.
//!
//! ## Process lifetimes
//!
//! A coordinator owns the processes it creates, block by block. The
//! coordinator body is the outermost block; [`Coord::scope`] opens a
//! nested one. When a block exits — normal return, `?`, or the
//! coordinator being killed out of a wait — every process created inside
//! it is killed, joined and removed from the environment's registry, in
//! that order, before control leaves the block. Nothing a block started
//! outlives it, so a coordinator that runs the same block a million times
//! costs the same the millionth time as the first.
//!
//! A coordinator is itself run in one of two ways. A *closure*
//! coordinator ([`Environment::run_coordinator`],
//! [`Environment::spawn_coordinator`]) owns a thread and blocks in its
//! waits; its blocks close by joining their members ([`Coord::scope`]). A
//! *stepped* coordinator
//! ([`Environment::create_stepped_coordinator`]) has no thread: its step
//! function runs on whichever thread raises an event into it, selects
//! with `try_select`, holds a state's streams across steps with
//! [`StateScope::hold`], and closes its blocks with
//! [`Coord::close_pending`], which never waits — a closing block stays
//! pending until its members' termination notices have arrived, because
//! the thread running the step may be the very member it would wait for.
//! The compiled MANIFOLD VM ([`crate::lang::vm`]) runs every manner as a
//! stepped coordinator, and the tree-walking interpreter as a closure one.
//!
//! Activation normally gives a process a thread ([`Coord::activate`]). A
//! process that is already wired — its input waiting on its port, its
//! output connected — and whose body only computes can instead be run to
//! completion on the calling thread
//! ([`Environment::run_to_completion`], which `run_manner` uses for a
//! manner's first process): same placement, same trace lines, same
//! failure recording, no hand-off in either direction.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::env::{Environment, ScopeLog};
use crate::error::MfResult;
use crate::event::{EventOccurrence, EventPattern};
use crate::ident::{Name, ProcessId};
use crate::process::{AtomicProcess, Body, LifeState, ProcessCore, ProcessCtx, ProcessRef, Step};
use crate::stream::{Stream, StreamType};
use crate::unit::Unit;

/// How a state was exited when it was waiting on both events and a process
/// termination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateExit {
    /// The watched process terminated.
    Terminated(ProcessId),
    /// An event occurrence matched one of the wait patterns.
    Event(EventOccurrence),
}

impl StateExit {
    /// The occurrence, if this exit was an event.
    pub fn event(&self) -> Option<&EventOccurrence> {
        match self {
            StateExit::Event(e) => Some(e),
            StateExit::Terminated(_) => None,
        }
    }
}

/// Where a block opened with [`Coord::open_scope`] begins, and whether its
/// closing has started.
#[derive(Debug)]
pub struct ScopeMark {
    start: usize,
    ending: bool,
}

impl ScopeMark {
    /// The coordinator's outermost block: everything it still owns.
    pub(crate) fn outermost() -> ScopeMark {
        ScopeMark {
            start: 0,
            ending: false,
        }
    }
}

/// The streams of a state a step function is waiting in (see
/// [`StateScope::hold`]). Dropping it preempts the state.
#[derive(Default)]
pub struct HeldState(Vec<Arc<Stream>>);

impl HeldState {
    /// Add a stream the state has connected by hand.
    pub(crate) fn push(&mut self, s: Arc<Stream>) {
        self.0.push(s);
    }
}

impl Drop for HeldState {
    fn drop(&mut self) {
        for s in &self.0 {
            s.dismantle();
        }
    }
}

/// The coordinator context: a [`ProcessCtx`] plus the monopoly on creating
/// processes and connecting streams.
pub struct Coord {
    ctx: ProcessCtx,
    env: Environment,
    /// Where this coordinator's processes print and where their failures
    /// go when they are retired.
    log: Arc<ScopeLog>,
    /// Processes created by this coordinator whose block is still open,
    /// in creation order. A scope is a suffix of this list.
    owned: Mutex<Vec<Arc<ProcessCore>>>,
}

impl Coord {
    /// Wrap a process context (normally done by
    /// [`Environment::run_coordinator`]). Dropping the coordinator closes
    /// its outermost scope.
    pub fn new(ctx: ProcessCtx, env: Environment, log: Arc<ScopeLog>) -> Self {
        Coord {
            ctx,
            env,
            log,
            owned: Mutex::new(Vec::new()),
        }
    }

    /// The coordinator's own process context.
    pub fn ctx(&self) -> &ProcessCtx {
        &self.ctx
    }

    /// The environment this coordinator lives in.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// A reference to the coordinator process itself.
    pub fn self_ref(&self) -> ProcessRef {
        self.ctx.self_ref()
    }

    /// Create an atomic process instance (not yet activated) and start
    /// observing its events — mirroring `process p is M(…)`, after which the
    /// creating coordinator is tuned to `p`'s events.
    pub fn create_atomic(&self, manifold: impl Into<Name>, body: impl AtomicProcess) -> ProcessRef {
        self.create(manifold.into(), Body::Threaded(Box::new(body)))
    }

    fn create(&self, manifold: Name, body: Body) -> ProcessRef {
        let p = self.env.create_in(&self.log, manifold, body);
        self.ctx.watch(&p);
        self.owned.lock().push(p.core().clone());
        p
    }

    /// [`Coord::create_atomic`] for a *stepped* process (see
    /// [`Environment::create_stepped`]): no thread, `step` run on whichever
    /// thread makes the process runnable, and it must never block.
    pub fn create_stepped(
        &self,
        manifold: impl Into<Name>,
        step: impl FnMut(&ProcessCtx) -> MfResult<Step> + Send + 'static,
    ) -> ProcessRef {
        self.create(manifold.into(), Body::stepped(step))
    }

    /// Run `body` as a block that owns the processes created inside it:
    /// when the block exits, however it exits, they are killed, joined and
    /// unregistered (innermost block first when scopes nest). Failures
    /// they recorded move to the coordinator's [`ScopeLog`] (the
    /// environment's own, read by [`Environment::failures`], unless the
    /// coordinator was started with one).
    pub fn scope<R>(&self, body: impl FnOnce(&Coord) -> MfResult<R>) -> MfResult<R> {
        let mark = self.owned.lock().len();
        let result = body(self);
        self.close_from(mark);
        result
    }

    fn close_from(&self, mark: usize) {
        let members = self.owned.lock().split_off(mark);
        self.env.retire(&members, self.ctx.core(), &self.log);
    }

    /// Open a block from a step function: the processes created from now
    /// on belong to it until [`Coord::close_pending`] has closed it.
    /// Blocks nest; close the innermost first.
    pub fn open_scope(&self) -> ScopeMark {
        ScopeMark {
            start: self.owned.lock().len(),
            ending: false,
        }
    }

    /// Close the block opened at `mark` as far as that goes without
    /// waiting: on the first call its members are killed and those never
    /// activated end unstarted; once every member has terminated they
    /// leave the registry, their failures move to the coordinator's log,
    /// and the block is closed — `None`. Until then the answer is a member
    /// still on its way out; its termination notice wakes a stepped
    /// coordinator (a blocking caller waits for it with
    /// [`EventMemory::wait_present`](crate::event::EventMemory::wait_present)),
    /// which then asks again. No process may be created in a closing
    /// block.
    pub fn close_pending(&self, mark: &mut ScopeMark) -> Option<ProcessId> {
        let members: Vec<Arc<ProcessCore>> = {
            let owned = self.owned.lock();
            owned[mark.start.min(owned.len())..].to_vec()
        };
        if !mark.ending {
            mark.ending = true;
            self.env.end(&members);
        }
        if let Some(alive) = members
            .iter()
            .find(|p| p.life_state() != LifeState::Terminated)
        {
            return Some(alive.id());
        }
        self.owned.lock().truncate(mark.start);
        for p in &members {
            self.env.unregister(p, &self.log);
        }
        None
    }

    /// Activate a created process (`activate p`).
    pub fn activate(&self, p: &ProcessRef) -> MfResult<()> {
        self.env.activate(p)
    }

    /// Begin observing an existing process (e.g. one received as a manner
    /// parameter, like `master` in `ProtocolMW`).
    pub fn watch(&self, p: &ProcessRef) {
        self.ctx.watch(p);
    }

    /// Raise an event, delivered to whoever observes this coordinator.
    pub fn raise(&self, event: impl Into<Name>) {
        self.ctx.raise(event);
    }

    /// Post an event into the coordinator's own memory (`post(begin)`).
    pub fn post(&self, event: impl Into<Name>) {
        self.ctx.post(event);
    }

    /// Read from one of the coordinator's own ports.
    pub fn read(&self, port: impl Into<Name>) -> MfResult<Unit> {
        self.ctx.read(port)
    }

    /// Read with a deadline.
    pub fn read_timeout(&self, port: impl Into<Name>, t: Duration) -> MfResult<Unit> {
        self.ctx.read_timeout(port, t)
    }

    /// Write to one of the coordinator's own ports.
    pub fn write(&self, port: impl Into<Name>, unit: Unit) -> MfResult<()> {
        self.ctx.write(port, unit)
    }

    /// Wait for an event matching one of `patterns` (no streams involved).
    /// Pattern order is priority order.
    pub fn wait_events(&self, patterns: &[EventPattern]) -> MfResult<EventOccurrence> {
        self.ctx.wait_event(patterns)
    }

    /// Enter a new state: stream connections made through the returned
    /// [`StateScope`] are dismantled (per their [`StreamType`]) when the
    /// scope ends — i.e. when the state is preempted.
    pub fn state(&self) -> StateScope<'_> {
        StateScope {
            coord: self,
            streams: Vec::new(),
        }
    }
}

impl Drop for Coord {
    fn drop(&mut self) {
        self.close_from(0);
    }
}

impl std::fmt::Debug for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Coord({:?})", self.ctx.id())
    }
}

/// One coordinator state: a set of stream connections plus a wait.
///
/// Dropping the scope — or consuming it via [`StateScope::idle`] /
/// [`StateScope::until_terminated`] — *preempts* the state: every stream
/// created in it is dismantled according to its type (`BK` streams are
/// broken at their source, `KK` streams survive, …).
pub struct StateScope<'c> {
    coord: &'c Coord,
    streams: Vec<Arc<Stream>>,
}

impl<'c> StateScope<'c> {
    fn track(&mut self, s: Arc<Stream>) -> Arc<Stream> {
        self.streams.push(s.clone());
        s
    }

    /// Connect `src.src_port -> dst.dst_port` with a stream of type `ty`.
    pub fn connect(
        &mut self,
        src: &ProcessRef,
        src_port: impl Into<Name>,
        dst: &ProcessRef,
        dst_port: impl Into<Name>,
        ty: StreamType,
    ) -> MfResult<Arc<Stream>> {
        let s = Stream::new(ty);
        src.port(src_port).attach_outgoing(&s);
        dst.port(dst_port).attach_incoming(&s);
        Ok(self.track(s))
    }

    /// Connect a process's output into one of the *coordinator's own* ports
    /// (`p.output -> self.port`).
    pub fn connect_to_self(
        &mut self,
        src: &ProcessRef,
        src_port: impl Into<Name>,
        own_port: impl Into<Name>,
        ty: StreamType,
    ) -> MfResult<Arc<Stream>> {
        let me = self.coord.self_ref();
        self.connect(src, src_port, &me, own_port, ty)
    }

    /// Send a constant unit into a process port — the MANIFOLD idiom
    /// `&worker -> master` (the unit's producer is the coordinator itself,
    /// via a one-shot preloaded stream).
    pub fn send(
        &mut self,
        unit: Unit,
        dst: &ProcessRef,
        dst_port: impl Into<Name>,
    ) -> MfResult<Arc<Stream>> {
        let s = Stream::preloaded(StreamType::BK, [unit]);
        dst.port(dst_port).attach_incoming(&s);
        Ok(self.track(s))
    }

    /// Send a process reference (`&p -> dst.port`).
    pub fn send_ref(
        &mut self,
        p: &ProcessRef,
        dst: &ProcessRef,
        dst_port: impl Into<Name>,
    ) -> MfResult<Arc<Stream>> {
        self.send(Unit::ProcessRef(p.clone()), dst, dst_port)
    }

    /// `IDLE`: stay in this state until an event matching one of `patterns`
    /// arrives (pattern order = priority), then preempt the state
    /// (dismantling its streams) and return the occurrence.
    pub fn idle(self, patterns: &[EventPattern]) -> MfResult<EventOccurrence> {
        let occ = self.coord.ctx.wait_event(patterns);
        // `self` drops here, dismantling the state's streams.
        occ
    }

    /// `terminated(p)` with event sensitivity: wait until either `p`
    /// terminates or an event matching `patterns` arrives. Events take
    /// precedence when both are pending (they *preempt* the state).
    pub fn until_terminated(
        self,
        p: &ProcessRef,
        patterns: &[EventPattern],
    ) -> MfResult<StateExit> {
        let mut pats: Vec<EventPattern> = patterns.to_vec();
        pats.push(EventPattern::Terminated(p.id()));
        let (idx, occ) = self.coord.ctx.core().events().wait_select(&pats)?;
        Ok(if idx == pats.len() - 1 && occ.is_termination_of(p.id()) {
            StateExit::Terminated(p.id())
        } else {
            StateExit::Event(occ)
        })
    }

    /// Stay in this state across the steps of a step function: the
    /// state's streams, to be kept until the event that preempts the state
    /// has been selected and dropped then.
    pub fn hold(mut self) -> HeldState {
        HeldState(std::mem::take(&mut self.streams))
    }
}

impl Drop for StateScope<'_> {
    fn drop(&mut self) {
        for s in &self.streams {
            s.dismantle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::error::MfError;

    /// A worker that reads one number, doubles it, writes it back, raises
    /// `done`, and dies.
    fn doubler(ctx: ProcessCtx) -> MfResult<()> {
        let x = ctx.read("input")?.expect_real()?;
        ctx.write("output", Unit::real(2.0 * x))?;
        ctx.raise("done");
        Ok(())
    }

    #[test]
    fn state_scope_dismantles_bk_on_drop() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let w = coord.create_atomic("W", |ctx: ProcessCtx| {
                // Reads two units; the second must come through a *new*
                // stream after the first state is preempted.
                let a = ctx.read("input")?.expect_int()?;
                let b = ctx.read("input")?.expect_int()?;
                ctx.post(if (a, b) == (1, 2) { "ok" } else { "bad" });
                ctx.read("never")?; // park until shutdown
                Ok(())
            });
            coord.activate(&w)?;
            let me = coord.self_ref();
            {
                let mut st = coord.state();
                let s = st.send(Unit::int(1), &w, "input")?;
                // Stream carrying 1 is preempted (BK): already-queued unit
                // still readable by w.
                drop(st);
                assert!(!s.source_open());
            }
            {
                let mut st = coord.state();
                st.send(Unit::int(2), &w, "input")?;
                drop(st);
            }
            // Give the worker a moment to process.
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(w.core().events().len(), 1);
            let _ = me;
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn coordinator_receives_worker_event() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let w = coord.create_atomic("W", doubler);
            coord.activate(&w)?;
            let mut st = coord.state();
            st.send(Unit::real(4.0), &w, "input")?;
            st.connect_to_self(&w, "output", "input", StreamType::BK)?;
            let occ = st.idle(&["done".into()])?;
            assert_eq!(occ.source, w.id());
            let v = coord.read("input")?.expect_real()?;
            assert_eq!(v, 8.0);
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn until_terminated_returns_termination() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let w = coord.create_atomic("Quick", |_ctx: ProcessCtx| Ok(()));
            coord.activate(&w)?;
            let st = coord.state();
            match st.until_terminated(&w, &[])? {
                StateExit::Terminated(id) => assert_eq!(id, w.id()),
                other => panic!("expected termination, got {other:?}"),
            }
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn until_terminated_event_takes_precedence() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let w = coord.create_atomic("Raiser", |ctx: ProcessCtx| {
                ctx.raise("hello");
                // Stay alive long enough that the event is seen first.
                let _ = ctx.read_timeout("input", Duration::from_millis(200));
                Ok(())
            });
            coord.activate(&w)?;
            let st = coord.state();
            match st.until_terminated(&w, &["hello".into()])? {
                StateExit::Event(e) => assert_eq!(e.name().unwrap(), "hello"),
                other => panic!("expected event, got {other:?}"),
            }
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn process_reference_travels_through_stream() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let w = coord.create_atomic("Target", |_ctx: ProcessCtx| Ok(()));
            let reader = coord.create_atomic("Reader", |ctx: ProcessCtx| {
                let r = ctx.read("input")?.expect_process_ref()?;
                ctx.post(format!("got-{}", r.manifold_name()));
                Ok(())
            });
            coord.activate(&reader)?;
            let mut st = coord.state();
            st.send_ref(&w, &reader, "input")?;
            drop(st);
            reader
                .core()
                .wait_terminated(Duration::from_secs(5))
                .unwrap();
            assert!(reader
                .core()
                .events()
                .try_select(&["got-Target".into()])
                .is_some());
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    /// A process that parks until killed.
    fn parked(coord: &Coord) -> MfResult<ProcessRef> {
        let p = coord.create_atomic("Parked", |ctx: ProcessCtx| {
            ctx.read("never")?;
            Ok(())
        });
        coord.activate(&p)?;
        Ok(p)
    }

    #[test]
    fn scope_kills_its_processes_on_early_return() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let outer = parked(coord)?;
            let mut inner = None;
            let r: MfResult<()> = coord.scope(|coord| {
                inner = Some(parked(coord)?);
                // Nothing feeds this port: the `?` leaves the block early.
                coord.read_timeout("nothing", Duration::ZERO)?;
                Ok(())
            });
            assert_eq!(r, Err(MfError::Timeout));
            let inner = inner.unwrap();
            assert_eq!(inner.life_state(), LifeState::Terminated);
            assert!(coord.env().process(inner.id()).is_none());
            // The enclosing block's process is untouched.
            assert_eq!(outer.life_state(), LifeState::Active);
            assert!(coord.env().process(outer.id()).is_some());
            Ok(())
        })
        .unwrap();
        assert_eq!(env.live_processes(), 0);
        assert!(env.failures().is_empty(), "a kill is not a failure");
        env.shutdown();
    }

    #[test]
    fn scope_kills_its_processes_when_the_coordinator_is_killed() {
        let env = Environment::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let c = env.spawn_coordinator("Side", move |coord| {
            coord.scope(|coord| {
                tx.send(parked(coord)?).unwrap();
                // Blocks until the coordinator itself is killed.
                coord.wait_events(&["never".into()]).map(|_| ())
            })
        });
        let member = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(member.life_state(), LifeState::Active);
        c.core().kill();
        c.core().wait_terminated(Duration::from_secs(5)).unwrap();
        assert_eq!(member.life_state(), LifeState::Terminated);
        assert_eq!(env.live_processes(), 0);
        assert!(env.failures().is_empty());
        env.shutdown();
    }

    #[test]
    fn a_scope_closed_from_inside_its_own_member_is_diagnosed_not_joined() {
        // A coordinator handed to the process it created closes its block
        // on that process's own thread, from inside its body: joining the
        // member there would wait the whole grace for itself.
        let env = Environment::new();
        let owner = ProcessCore::new(
            ProcessId(1_000_000),
            "Main",
            env.trace().clone(),
            crate::trace::Clock::System,
        );
        let coord = Coord::new(
            ProcessCtx::new(owner.clone()),
            env.clone(),
            env.log().clone(),
        );
        let (hand_tx, hand_rx) = std::sync::mpsc::channel::<Coord>();
        let (took_tx, took_rx) = std::sync::mpsc::channel();
        let member = coord.create_atomic("Member", move |_ctx: ProcessCtx| {
            let coord = hand_rx.recv().expect("the coordinator is handed over");
            let began = std::time::Instant::now();
            drop(coord);
            took_tx.send(began.elapsed()).unwrap();
            Ok(())
        });
        let bystander = parked(&coord).unwrap();
        coord.activate(&member).unwrap();
        hand_tx.send(coord).unwrap();
        let took = took_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(took < Duration::from_secs(1), "the exit took {took:?}");
        assert_eq!(
            owner.failure(),
            Some(MfError::App(
                "scope closed from inside its member Member".into()
            ))
        );
        // The rest of the block was closed as usual.
        assert_eq!(bystander.life_state(), LifeState::Terminated);
        member
            .core()
            .wait_terminated(Duration::from_secs(5))
            .unwrap();
        assert_eq!(env.live_processes(), 0);
        env.shutdown();
    }

    #[test]
    fn scope_failures_are_reported_once() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            coord.scope(|coord| {
                let p = coord
                    .create_atomic("Boom", |_ctx: ProcessCtx| Err(MfError::App("boom".into())));
                coord.activate(&p)?;
                p.core().wait_terminated(Duration::from_secs(5))
            })?;
            // Out of the registry, but its failure is still on record.
            assert_eq!(coord.env().live_processes(), 1);
            assert_eq!(coord.env().failures().len(), 1);
            Ok(())
        })
        .unwrap();
        let taken = env.take_failures();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].1, MfError::App("boom".into()));
        assert!(env.take_failures().is_empty());
        assert!(env.failures().is_empty());
        env.shutdown();
    }

    #[test]
    fn priority_order_in_idle() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            coord.post("rendezvous");
            coord.post("create_worker");
            let st = coord.state();
            let occ = st.idle(&["create_worker".into(), "rendezvous".into()])?;
            assert_eq!(occ.name().unwrap(), "create_worker");
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }
}
