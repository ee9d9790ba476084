//! Processes: black boxes with ports, an event memory, and a life cycle.
//!
//! A MANIFOLD process is created, then *activated* (it starts running), and
//! eventually *terminates*. It communicates only by reading/writing its own
//! ports and by raising events, which the environment broadcasts to the
//! processes observing it. *Atomic* processes ([`AtomicProcess`]) are the
//! computation carriers — in the paper these are thin C wrappers around the
//! legacy `subsolve` and main routines; here they are Rust closures or
//! structs receiving a [`ProcessCtx`].
//!
//! An atomic process runs in one of two ways. A *threaded* process
//! ([`AtomicProcess`]) has a body that runs once, on a carrier thread of
//! the process-wide pool, and may block and compute as it likes — the pool
//! keeps at most one carrier per core runnable, so an activation beyond
//! that waits in its run queue until a carrier finishes or blocks in a
//! runtime wait (a port, an event memory, a join). A *stepped* process has no
//! thread: its body is a step function ([`Step`]) that never blocks, run on
//! whichever thread makes the process runnable — a unit or a stream
//! arriving at one of its ports, an occurrence arriving in its event
//! memory, a completion it handed out; see [`ProcessCore::wake`].
//! Everything else about the two is the same: placement, `on_terminate`
//! hooks, failure recording, trace lines, and dying with the coordinator
//! block that created them. Coordinators come in the same two kinds (see
//! [`Environment::create_stepped_coordinator`](crate::env::Environment::create_stepped_coordinator)).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::thread::ThreadId;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{MfError, MfResult};
use crate::event::{EventMemory, EventOccurrence, EventPattern};
use crate::ident::{Name, ProcessId};
use crate::link::Placement;
use crate::pool;
use crate::port::Port;
use crate::remote::RemoteIdentity;
use crate::trace::{Clock, TraceRecord, TraceSink};
use crate::unit::Unit;

/// Life-cycle states of a process instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifeState {
    /// Created but not yet activated (its body has not started).
    Created,
    /// Running.
    Active,
    /// Finished (normally or by kill).
    Terminated,
}

/// The behaviour of an atomic (computational) process.
///
/// Implemented for any `FnOnce(ProcessCtx) -> MfResult<()>`, which is the
/// idiomatic way to write workers:
///
/// ```
/// # use manifold::prelude::*;
/// let body = |ctx: ProcessCtx| -> MfResult<()> {
///     let x = ctx.read("input")?;
///     ctx.write("output", x)?;
///     Ok(())
/// };
/// # let _ = body; // used via Coord::create_atomic
/// ```
pub trait AtomicProcess: Send + 'static {
    /// Run the process body to completion.
    fn run(self: Box<Self>, ctx: ProcessCtx) -> MfResult<()>;
}

impl<F> AtomicProcess for F
where
    F: FnOnce(ProcessCtx) -> MfResult<()> + Send + 'static,
{
    fn run(self: Box<Self>, ctx: ProcessCtx) -> MfResult<()> {
        (*self)(ctx)
    }
}

/// What one step of a stepped process reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Nothing more to do until the process is woken again.
    Pending,
    /// The process has finished; it terminates now.
    Done,
}

/// The body of a stepped process: called again and again, each call doing
/// what can be done *without blocking* — `try_read`/`try_write` on its own
/// ports, `try_select` on its own event memory, handing work to something
/// that will call its [`Waker`] — until it returns [`Step::Done`] or an
/// error. A kill is a wake like any other: the body is called and finds
/// [`ProcessCore::is_killed`] set.
pub(crate) type StepBody = Box<dyn FnMut(&ProcessCtx) -> MfResult<Step> + Send>;

/// How a created process will run once it is activated. Holding it is also
/// the right to activate: whoever takes it out of the core either starts
/// the process or (a closing scope) ends it unstarted.
pub(crate) enum Body {
    Threaded(Box<dyn AtomicProcess>),
    Stepped(StepBody),
}

impl Body {
    /// The body of a stepped *atomic* process: `step`, until the process
    /// is killed — it has nothing to wind up, so a kill ends it at once.
    pub(crate) fn stepped(
        mut step: impl FnMut(&ProcessCtx) -> MfResult<Step> + Send + 'static,
    ) -> Body {
        Body::Stepped(Box::new(move |ctx: &ProcessCtx| {
            if ctx.core().is_killed() {
                return Err(MfError::Killed);
            }
            step(ctx)
        }))
    }
}

/// No thread is stepping the process.
const IDLE: u8 = 0;
/// A thread is stepping the process.
const RUNNING: u8 = 1;
/// A thread is stepping the process and a wake arrived meanwhile: it must
/// step once more before it leaves.
const RUN_AGAIN: u8 = 2;

/// The run-time half of a stepped process.
struct Stepper {
    /// The run / run-again flag serialising steps: [`IDLE`], [`RUNNING`] or
    /// [`RUN_AGAIN`].
    state: AtomicU8,
    /// The step function, from activation until the process terminates.
    /// Only the thread that holds the flag touches it.
    step: Mutex<Option<StepBody>>,
}

type TerminateHook = Box<dyn FnOnce() + Send>;

/// Shared state of one process instance.
pub struct ProcessCore {
    id: ProcessId,
    manifold_name: Name,
    life: Mutex<LifeState>,
    life_cv: Condvar,
    events: EventMemory,
    ports: Mutex<HashMap<Name, Arc<Port>>>,
    watchers: Mutex<Vec<Weak<ProcessCore>>>,
    placement: Mutex<Option<Placement>>,
    remote_identity: Mutex<Option<RemoteIdentity>>,
    pub(crate) body: Mutex<Option<Body>>,
    /// Present on a stepped process, from creation on.
    stepper: Option<Stepper>,
    /// This core, for the wakers its ports and completions hold.
    me: Weak<ProcessCore>,
    on_terminate: Mutex<Vec<TerminateHook>>,
    failure: Mutex<Option<MfError>>,
    killed: AtomicBool,
    /// The thread a threaded body is running on, from the body's start.
    carrier: Mutex<Option<ThreadId>>,
    trace: Arc<TraceSink>,
    clock: Clock,
}

impl ProcessCore {
    /// Create a core (normally done through the environment).
    pub fn new(
        id: ProcessId,
        manifold_name: impl Into<Name>,
        trace: Arc<TraceSink>,
        clock: Clock,
    ) -> Arc<ProcessCore> {
        Self::build(id, manifold_name.into(), trace, clock, None)
    }

    /// Create the core of a process that will run `body` once activated.
    /// A stepped body makes a stepped process: its ports wake it.
    pub(crate) fn with_body(
        id: ProcessId,
        manifold_name: impl Into<Name>,
        trace: Arc<TraceSink>,
        clock: Clock,
        body: Body,
    ) -> Arc<ProcessCore> {
        Self::build(id, manifold_name.into(), trace, clock, Some(body))
    }

    fn build(
        id: ProcessId,
        manifold_name: Name,
        trace: Arc<TraceSink>,
        clock: Clock,
        body: Option<Body>,
    ) -> Arc<ProcessCore> {
        let stepped = matches!(body, Some(Body::Stepped(_)));
        Arc::new_cyclic(|me| ProcessCore {
            id,
            manifold_name,
            life: Mutex::new(LifeState::Created),
            life_cv: Condvar::new(),
            events: EventMemory::new(),
            ports: Mutex::new(HashMap::new()),
            watchers: Mutex::new(Vec::new()),
            placement: Mutex::new(None),
            remote_identity: Mutex::new(None),
            body: Mutex::new(body),
            stepper: stepped.then(|| Stepper {
                state: AtomicU8::new(IDLE),
                step: Mutex::new(None),
            }),
            me: me.clone(),
            on_terminate: Mutex::new(Vec::new()),
            failure: Mutex::new(None),
            killed: AtomicBool::new(false),
            carrier: Mutex::new(None),
            trace,
            clock,
        })
    }

    /// The process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The manifold (definition) name, e.g. `Worker(event)`.
    pub fn manifold_name(&self) -> &Name {
        &self.manifold_name
    }

    /// Current life state.
    pub fn life_state(&self) -> LifeState {
        *self.life.lock()
    }

    /// The process's event memory.
    pub fn events(&self) -> &EventMemory {
        &self.events
    }

    /// Where this process was placed (set at activation).
    pub fn placement(&self) -> Option<Placement> {
        self.placement.lock().clone()
    }

    pub(crate) fn set_placement(&self, p: Placement) {
        *self.placement.lock() = Some(p);
    }

    /// Adopt a remote task-instance identity: trace records emitted by this
    /// process report the given machine and task-instance uid instead of the
    /// local placement's. Used by proxy processes that stand in for a
    /// process living in another OS process (possibly on another host).
    pub fn set_remote_identity(&self, identity: RemoteIdentity) {
        *self.remote_identity.lock() = Some(identity);
    }

    pub(crate) fn set_life(&self, s: LifeState) {
        *self.life.lock() = s;
        self.life_cv.notify_all();
    }

    /// Register a hook to run when the process terminates (used by the
    /// environment for task-instance load bookkeeping).
    pub fn on_terminate(&self, hook: impl FnOnce() + Send + 'static) {
        let mut hooks = self.on_terminate.lock();
        if *self.life.lock() == LifeState::Terminated {
            drop(hooks);
            hook();
        } else {
            hooks.push(Box::new(hook));
        }
    }

    /// Get (creating on demand) the named port. Any party may cause port
    /// creation: coordinators routinely connect to ports (`dataport`) the
    /// owner has not touched yet.
    pub fn port(&self, name: impl Into<Name>) -> Arc<Port> {
        let name = name.into();
        let mut ports = self.ports.lock();
        let port = ports
            .entry(name.clone())
            .or_insert_with(|| match &self.stepper {
                None => Port::new(self.id, name),
                // A unit or a stream arriving at a stepped process's port
                // is what makes it runnable.
                Some(_) => Port::with_waker(self.id, name, self.waker()),
            })
            .clone();
        drop(ports);
        // A port created after the process was killed must be born killed,
        // or a blocked read on it would never observe the kill.
        if self.killed.load(Ordering::SeqCst) {
            port.kill();
        }
        port
    }

    /// `watcher` starts observing this process: future raised events and the
    /// termination notice are delivered to its event memory. If the process
    /// has already terminated, the termination notice is delivered at once.
    pub fn add_watcher(&self, watcher: &Arc<ProcessCore>) {
        let mut ws = self.watchers.lock();
        let already_terminated = *self.life.lock() == LifeState::Terminated;
        if !ws
            .iter()
            .any(|w| w.upgrade().is_some_and(|w| w.id == watcher.id))
        {
            ws.push(Arc::downgrade(watcher));
        }
        drop(ws);
        if already_terminated {
            watcher.deliver(EventOccurrence::terminated(self.id));
        }
    }

    /// Put an occurrence into this process's event memory. To a stepped
    /// process that is a wake like a unit arriving at a port: its step
    /// runs on the delivering thread (a threaded one is notified by its
    /// memory when it is waiting for just this).
    fn deliver(&self, occ: EventOccurrence) {
        if self.events.deliver(occ) {
            self.wake();
        }
    }

    /// Raise a named event: deliver an occurrence to every watcher.
    pub fn raise(&self, event: impl Into<Name>) {
        let occ = EventOccurrence::named(event, self.id);
        self.broadcast(occ);
    }

    fn broadcast(&self, occ: EventOccurrence) {
        let watchers: Vec<Arc<ProcessCore>> = {
            let mut ws = self.watchers.lock();
            ws.retain(|w| w.strong_count() > 0);
            ws.iter().filter_map(Weak::upgrade).collect()
        };
        for w in watchers {
            w.deliver(occ.clone());
        }
    }

    /// Post an event occurrence into this process's own memory (`post(e)`).
    pub fn post(&self, event: impl Into<Name>) {
        self.deliver(EventOccurrence::named(event, self.id));
    }

    /// Mark terminated: notify life waiters, run termination hooks, and
    /// broadcast the termination notice — in that order, so that what the
    /// process held (its place in a task instance) is free again when a
    /// stepped watcher's step, run by the notice on this very thread,
    /// acts on it.
    pub fn terminate(&self) {
        {
            let mut life = self.life.lock();
            if *life == LifeState::Terminated {
                return;
            }
            *life = LifeState::Terminated;
            self.life_cv.notify_all();
        }
        let hooks: Vec<TerminateHook> = std::mem::take(&mut *self.on_terminate.lock());
        for h in hooks {
            h();
        }
        self.broadcast(EventOccurrence::terminated(self.id));
    }

    /// Forcefully interrupt the process: all blocking operations return
    /// [`MfError::Killed`], after which its thread unwinds and terminates.
    /// An active stepped atomic process terminates before this returns,
    /// unless another thread is inside its step right now — then as soon
    /// as that step returns. A stepped coordinator starts closing its
    /// scope and terminates when its members have.
    pub fn kill(&self) {
        // Order matters: set the flag first so any port created from now on
        // is born killed (see `port`), then wake everything already blocked.
        self.killed.store(true, Ordering::SeqCst);
        self.events.kill();
        let ports: Vec<Arc<Port>> = self.ports.lock().values().cloned().collect();
        for p in ports {
            p.kill();
        }
        self.wake();
    }

    /// Hand an activated stepped process its step function. Must precede
    /// `set_life(Active)`: an active stepped process always has one.
    pub(crate) fn install_step(&self, step: StepBody) {
        let stepper = self.stepper.as_ref().expect("a stepped process");
        *stepper.step.lock() = Some(step);
    }

    /// A handle that makes this process runnable from anywhere (see
    /// [`ProcessCore::wake`]). It does not keep the process alive.
    pub fn waker(&self) -> Waker {
        Waker(self.me.clone())
    }

    /// Make a stepped process runnable: step it on *this* thread, now,
    /// unless another thread is already stepping it — then that thread
    /// steps it once more before it leaves, so no wake is ever lost and no
    /// two steps of one process ever overlap. Called on activation, when a
    /// unit or a stream arrives at one of the process's ports, when an
    /// occurrence (a raised or posted event, a termination notice) arrives
    /// in its event memory, by whoever completes work the process handed
    /// out ([`Waker`]), and on kill. A process that is not active yet, or
    /// no longer, is not stepped; a threaded process never is.
    pub fn wake(&self) {
        let Some(stepper) = &self.stepper else {
            return;
        };
        // The flag is the whole protocol; `SeqCst` so that whatever the
        // waker wrote before calling (a unit in a stream, a result in a
        // cell, the life state) is seen by the step that the wake causes.
        let was = stepper
            .state
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                Some(if s == IDLE { RUNNING } else { RUN_AGAIN })
            })
            .expect("the update is total");
        if was != IDLE {
            return;
        }
        loop {
            self.step_once(stepper);
            if stepper
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
            stepper.state.store(RUNNING, Ordering::SeqCst);
        }
    }

    /// One turn of a stepped process, on the thread holding its flag.
    fn step_once(&self, stepper: &Stepper) {
        // Checked inside the flag: a wake that finds the process not yet
        // active leaves, and the activation that follows wakes again.
        if self.life_state() != LifeState::Active {
            return;
        }
        let Some(me) = self.me.upgrade() else {
            return;
        };
        let mut step = stepper.step.lock();
        let ctx = ProcessCtx::new(me);
        let body = step.as_mut().expect("an active stepped process has a step");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)))
            .unwrap_or_else(|_| Err(MfError::App("process body panicked".into())));
        match outcome {
            Ok(Step::Pending) => return,
            Ok(Step::Done) | Err(MfError::Killed) => {}
            Err(e) => self.record_failure(e),
        }
        // Whatever the step function holds (a fleet, a completion cell) is
        // released with the process, not with the last reference to it.
        *step = None;
        drop(step);
        self.terminate();
    }

    /// Has this process been killed?
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// The calling thread starts running this process's threaded body.
    pub(crate) fn set_carrier(&self) {
        *self.carrier.lock() = Some(std::thread::current().id());
    }

    /// Is the calling thread the one inside this process's threaded body?
    /// Waiting for the process to terminate from there waits for oneself.
    pub(crate) fn runs_on_this_thread(&self) -> bool {
        self.life_state() == LifeState::Active
            && *self.carrier.lock() == Some(std::thread::current().id())
    }

    /// Block until the process terminates (test/join helper; coordinators
    /// use the event-based `terminated(p)` primitive instead).
    pub fn wait_terminated(&self, timeout: Duration) -> MfResult<()> {
        let deadline = std::time::Instant::now() + timeout;
        let mut life = self.life.lock();
        while *life != LifeState::Terminated {
            if pool::blocking(|| self.life_cv.wait_until(&mut life, deadline)).timed_out() {
                return Err(MfError::Timeout);
            }
        }
        Ok(())
    }

    /// Block until the process terminates, however long that takes.
    pub(crate) fn wait_until_terminated(&self) {
        let mut life = self.life.lock();
        while *life != LifeState::Terminated {
            pool::blocking(|| self.life_cv.wait(&mut life));
        }
    }

    /// The error the body returned, if it failed with something other than
    /// a clean kill.
    pub fn failure(&self) -> Option<MfError> {
        self.failure.lock().clone()
    }

    pub(crate) fn record_failure(&self, e: MfError) {
        *self.failure.lock() = Some(e);
    }

    /// Emit a trace record in the paper's §6 format.
    pub(crate) fn trace_message(&self, source_file: &str, line: u32, message: String) {
        let placement = self.placement.lock().clone();
        let (mut host, mut task_uid, task_name) = match placement {
            Some(p) => (
                p.host.clone(),
                TraceRecord::task_uid_for(p.task),
                p.task_name.clone(),
            ),
            None => (crate::config::HostName::new("unplaced"), 0, Name::new("?")),
        };
        // A proxy for a remote task instance reports the *real* machine the
        // work runs on, not the local placement's CONFIG label.
        if let Some(remote) = self.remote_identity.lock().clone() {
            host = remote.host;
            task_uid = remote.task_uid;
        }
        let micros = self.clock.now_micros();
        self.trace.record(TraceRecord {
            host,
            task_uid,
            proc_uid: TraceRecord::proc_uid_for(self.id),
            secs: micros / 1_000_000,
            usecs: (micros % 1_000_000) as u32,
            task_name,
            manifold_name: self.manifold_name.clone(),
            source_file: source_file.to_string(),
            line,
            message,
        });
    }
}

impl std::fmt::Debug for ProcessCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessCore")
            .field("id", &self.id)
            .field("manifold", &self.manifold_name)
            .field("life", &self.life_state())
            .finish()
    }
}

/// A shareable reference to a process — what `&p` denotes in MANIFOLD.
///
/// Cloning is cheap; equality is by process identity. Process references
/// travel through streams as [`Unit::ProcessRef`] units, which is how the
/// master learns the identity of each worker the coordinator creates.
#[derive(Clone)]
pub struct ProcessRef(pub(crate) Arc<ProcessCore>);

impl ProcessRef {
    /// Wrap a core.
    pub fn new(core: Arc<ProcessCore>) -> Self {
        ProcessRef(core)
    }

    /// The underlying core.
    pub fn core(&self) -> &Arc<ProcessCore> {
        &self.0
    }

    /// The process id.
    pub fn id(&self) -> ProcessId {
        self.0.id()
    }

    /// The manifold name.
    pub fn manifold_name(&self) -> &Name {
        self.0.manifold_name()
    }

    /// Get (or create) a port on the referenced process.
    pub fn port(&self, name: impl Into<Name>) -> Arc<Port> {
        self.0.port(name)
    }

    /// Current life state.
    pub fn life_state(&self) -> LifeState {
        self.0.life_state()
    }
}

impl PartialEq for ProcessRef {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for ProcessRef {}

impl std::fmt::Debug for ProcessRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "&{}[{:?}]", self.manifold_name(), self.id())
    }
}

/// The execution context handed to an atomic process body: its window onto
/// its own ports and event memory.
///
/// Everything here is *self*-centric: a process can read/write only its own
/// ports and raise only its own events — it cannot connect streams or touch
/// other processes (that is the coordinators' monopoly).
#[derive(Clone)]
pub struct ProcessCtx {
    core: Arc<ProcessCore>,
}

impl ProcessCtx {
    /// Build a context for a core.
    pub fn new(core: Arc<ProcessCore>) -> Self {
        ProcessCtx { core }
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.core.id()
    }

    /// A reference to this process (`&self` in MANIFOLD terms).
    pub fn self_ref(&self) -> ProcessRef {
        ProcessRef(self.core.clone())
    }

    /// The underlying core.
    pub fn core(&self) -> &Arc<ProcessCore> {
        &self.core
    }

    /// Blocking read from one of our own input ports.
    pub fn read(&self, port: impl Into<Name>) -> MfResult<Unit> {
        self.core.port(port).read()
    }

    /// Blocking read with a deadline.
    pub fn read_timeout(&self, port: impl Into<Name>, t: Duration) -> MfResult<Unit> {
        self.core.port(port).read_timeout(t)
    }

    /// Non-blocking read.
    pub fn try_read(&self, port: impl Into<Name>) -> Option<Unit> {
        self.core.port(port).try_read()
    }

    /// Non-blocking write: `false` when no stream is attached yet (attaching
    /// one wakes a stepped process, which then tries again).
    pub fn try_write(&self, port: impl Into<Name>, unit: Unit) -> MfResult<bool> {
        self.core.port(port).try_write(unit)
    }

    /// A handle for whoever completes work this process handed out: calling
    /// it makes a stepped process runnable again.
    pub fn waker(&self) -> Waker {
        self.core.waker()
    }

    /// Blocking write to one of our own output ports.
    pub fn write(&self, port: impl Into<Name>, unit: Unit) -> MfResult<()> {
        self.core.port(port).write(unit)
    }

    /// Raise a named event (broadcast to our observers).
    pub fn raise(&self, event: impl Into<Name>) {
        self.core.raise(event);
    }

    /// Post an event to our own memory.
    pub fn post(&self, event: impl Into<Name>) {
        self.core.post(event);
    }

    /// Start observing another process so its events reach us.
    pub fn watch(&self, target: &ProcessRef) {
        target.core().add_watcher(&self.core);
    }

    /// Block until an event matching one of `patterns` is in our memory;
    /// remove and return it.
    pub fn wait_event(&self, patterns: &[EventPattern]) -> MfResult<EventOccurrence> {
        self.core.events().wait_select(patterns).map(|(_, occ)| occ)
    }

    /// Emit a §6-style trace message; prefer the [`mes!`](crate::mes)
    /// macro, which fills in file and line.
    pub fn trace(&self, source_file: &str, line: u32, message: String) {
        self.core.trace_message(source_file, line, message);
    }

    /// Adopt a remote task-instance identity for trace output (see
    /// [`ProcessCore::set_remote_identity`]).
    pub fn set_remote_identity(&self, identity: RemoteIdentity) {
        self.core.set_remote_identity(identity);
    }
}

/// Makes a stepped process runnable from outside it — the completion of
/// work it handed to something else calls this. Holding one does not keep
/// the process alive, and waking a process that has terminated does
/// nothing.
#[derive(Clone)]
pub struct Waker(Weak<ProcessCore>);

impl Waker {
    /// See [`ProcessCore::wake`].
    pub fn wake(&self) {
        if let Some(core) = self.0.upgrade() {
            core.wake();
        }
    }
}

impl std::fmt::Debug for ProcessCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcessCtx({:?})", self.core.id())
    }
}

/// Emit a `MES("…")` trace message with the caller's file and line, in the
/// chronological format of §6 of the paper.
///
/// ```ignore
/// mes!(ctx, "Welcome");
/// mes!(ctx, "processed grid ({l}, {m})");
/// ```
#[macro_export]
macro_rules! mes {
    ($ctx:expr, $($arg:tt)*) => {
        $ctx.trace(file!(), line!(), format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(id: u64, name: &str) -> Arc<ProcessCore> {
        ProcessCore::new(
            ProcessId(id),
            name,
            Arc::new(TraceSink::new()),
            Clock::System,
        )
    }

    #[test]
    fn life_cycle_transitions() {
        let c = core(1, "P");
        assert_eq!(c.life_state(), LifeState::Created);
        c.set_life(LifeState::Active);
        assert_eq!(c.life_state(), LifeState::Active);
        c.terminate();
        assert_eq!(c.life_state(), LifeState::Terminated);
    }

    #[test]
    fn watcher_receives_raised_events() {
        let raiser = core(1, "Master");
        let watcher = core(2, "Main");
        raiser.add_watcher(&watcher);
        raiser.raise("create_pool");
        let (_, occ) = watcher
            .events()
            .try_select(&["create_pool".into()])
            .unwrap();
        assert_eq!(occ.source, ProcessId(1));
    }

    #[test]
    fn non_watcher_receives_nothing() {
        let raiser = core(1, "Master");
        let bystander = core(2, "Other");
        raiser.raise("e");
        assert!(bystander.events().is_empty());
    }

    #[test]
    fn termination_notice_delivered_to_watchers() {
        let p = core(1, "W");
        let w = core(2, "C");
        p.add_watcher(&w);
        p.terminate();
        let (_, occ) = w
            .events()
            .try_select(&[EventPattern::Terminated(ProcessId(1))])
            .unwrap();
        assert!(occ.is_termination_of(ProcessId(1)));
    }

    #[test]
    fn late_watcher_of_terminated_process_is_notified() {
        let p = core(1, "W");
        p.terminate();
        let w = core(2, "C");
        p.add_watcher(&w);
        assert!(w
            .events()
            .try_select(&[EventPattern::Terminated(ProcessId(1))])
            .is_some());
    }

    #[test]
    fn terminate_is_idempotent_single_notice() {
        let p = core(1, "W");
        let w = core(2, "C");
        p.add_watcher(&w);
        p.terminate();
        p.terminate();
        assert_eq!(w.events().len(), 1);
    }

    #[test]
    fn on_terminate_hooks_run_once() {
        let p = core(1, "W");
        let counter = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let c2 = counter.clone();
        p.on_terminate(move || {
            c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        p.terminate();
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Hook registered after termination runs immediately.
        let c3 = counter.clone();
        p.on_terminate(move || {
            c3.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn ports_created_on_demand_and_shared() {
        let p = core(1, "W");
        let a = p.port("dataport");
        let b = p.port("dataport");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn kill_unblocks_event_wait() {
        let p = core(1, "W");
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.events().wait_select(&["never".into()]));
        std::thread::sleep(Duration::from_millis(10));
        p.kill();
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn process_ref_equality_by_id() {
        let a = ProcessRef::new(core(1, "X"));
        let b = a.clone();
        let c = ProcessRef::new(core(2, "X"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_message_records() {
        let sink = Arc::new(TraceSink::new());
        let p = ProcessCore::new(ProcessId(1), "Worker(event)", sink.clone(), Clock::System);
        p.set_placement(Placement {
            task: crate::ident::TaskInstanceId(3),
            task_name: Name::new("mainprog"),
            host: crate::config::HostName::new("basfluit"),
            weight: 1,
            forked: true,
        });
        p.trace_message("ResSourceCode.c", 351, "Welcome".into());
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].message, "Welcome");
        assert_eq!(recs[0].host.as_str(), "basfluit");
        assert_eq!(recs[0].manifold_name.as_str(), "Worker(event)");
    }

    #[test]
    fn wait_terminated_timeout_and_success() {
        let p = core(1, "W");
        assert_eq!(
            p.wait_terminated(Duration::from_millis(20)),
            Err(MfError::Timeout)
        );
        let p2 = p.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.terminate();
        });
        p.wait_terminated(Duration::from_secs(2)).unwrap();
    }
}
