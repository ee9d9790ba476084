//! The environment: process registry, activation, task-instance
//! bookkeeping, and teardown.
//!
//! An [`Environment`] is the in-process analogue of a running MANIFOLD
//! application: it assigns process ids, applies the MLINK/CONFIG placement
//! rules through a [`Bundler`], runs each activated process — a threaded
//! one on a pooled thread, a stepped one on whichever thread makes it
//! runnable — and tears everything down at shutdown.
//!
//! The registry holds *live* processes only. A process leaves it when the
//! coordinator block that created it exits (see [`Coord::scope`]): the
//! block's processes are killed, joined and unregistered, and any failure
//! they recorded moves to the [`ScopeLog`] of the coordinator that owned
//! them. An environment that serves jobs forever therefore stays the size
//! of the jobs it is serving.
//!
//! A [`ScopeLog`] is where a coordinator's observable output accumulates:
//! the §6 records its processes print and the failures of those it has
//! retired. Closure coordinators share the environment's own log; a
//! stepped coordinator ([`Environment::create_stepped_coordinator`]) is
//! given one of its own, which is how several jobs run side by side over
//! one environment and each still reports exactly its own records and
//! failures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::config::ConfigSpec;
use crate::coord::{Coord, ScopeMark};
use crate::error::{MfError, MfResult};
use crate::ident::{Name, ProcessId};
use crate::link::{Bundler, LinkSpec};
use crate::pool::ThreadPool;
use crate::process::{AtomicProcess, Body, LifeState, ProcessCore, ProcessCtx, ProcessRef, Step};
use crate::trace::{Clock, TraceSink};

/// How long a closing scope waits for one killed member to unwind. Every
/// blocking MANIFOLD operation observes a kill at once; the grace only
/// matters for a body that is busy computing.
const RETIRE_GRACE: Duration = Duration::from_secs(600);

/// What one coordinator scope has produced so far: the trace records its
/// processes printed, and the failures of the processes it has retired.
///
/// Every process writes to the log of the coordinator that created it, so
/// a log handed to one coordinator holds that coordinator's output and
/// nobody else's, whatever else the environment is running meanwhile.
#[derive(Default)]
pub struct ScopeLog {
    trace: Arc<TraceSink>,
    /// Failures of processes that have left the registry.
    failures: Mutex<Vec<(ProcessId, MfError)>>,
}

impl ScopeLog {
    /// A fresh, empty log.
    pub fn new() -> Arc<ScopeLog> {
        Arc::new(ScopeLog::default())
    }

    /// The sink the scope's processes print their `MES` lines to.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Remove and return the failures of processes retired so far, oldest
    /// first. Once the coordinator has returned that is all of them.
    pub fn take_failures(&self) -> Vec<(ProcessId, MfError)> {
        std::mem::take(&mut *self.failures.lock())
    }
}

/// A process body ready to run: on a pool thread, or in place.
type PoolBody = Box<dyn FnOnce() + Send>;

pub(crate) struct EnvShared {
    next_pid: AtomicU64,
    processes: Mutex<HashMap<ProcessId, Arc<ProcessCore>>>,
    peak_live: AtomicUsize,
    /// The log of every coordinator that was not given its own.
    log: Arc<ScopeLog>,
    bundler: Mutex<Bundler>,
    clock: Clock,
    threads: Mutex<Vec<JoinHandle<()>>>,
    pool: ThreadPool,
}

impl Drop for EnvShared {
    fn drop(&mut self) {
        // An environment dropped without `shutdown` must still wake its
        // parked threads so they exit instead of leaking until process end.
        self.pool.drain();
    }
}

/// A running MANIFOLD application instance.
///
/// Cheap to clone (all clones share the same state). Create processes with
/// [`Environment::create_process`], start them with
/// [`Environment::activate`], and drive the whole application from a root
/// coordinator via [`Environment::run_coordinator`].
#[derive(Clone)]
pub struct Environment {
    shared: Arc<EnvShared>,
}

impl Default for Environment {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment {
    /// Environment with default (single-task, localhost) link/config specs
    /// and the system clock.
    pub fn new() -> Self {
        Self::with_specs(LinkSpec::default(), ConfigSpec::local())
    }

    /// Environment with explicit MLINK and CONFIG specifications.
    pub fn with_specs(link: LinkSpec, config: ConfigSpec) -> Self {
        Self::with_specs_and_clock(link, config, Clock::System)
    }

    /// Full control: specs plus the trace clock (virtual clocks are used by
    /// the cluster simulator).
    pub fn with_specs_and_clock(link: LinkSpec, config: ConfigSpec, clock: Clock) -> Self {
        Environment {
            shared: Arc::new(EnvShared {
                next_pid: AtomicU64::new(1),
                processes: Mutex::new(HashMap::new()),
                peak_live: AtomicUsize::new(0),
                log: ScopeLog::new(),
                bundler: Mutex::new(Bundler::new(link, config)),
                clock,
                threads: Mutex::new(Vec::new()),
                pool: ThreadPool::default(),
            }),
        }
    }

    /// The environment's own trace sink (§6-format chronological output):
    /// what every coordinator without a [`ScopeLog`] of its own prints to.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.shared.log.trace
    }

    /// The environment's own log: where every closure coordinator prints
    /// and retires its processes, and what [`Environment::failures`] reads.
    pub fn log(&self) -> &Arc<ScopeLog> {
        &self.shared.log
    }

    /// Echo trace records to stderr as they are produced.
    pub fn echo_trace(&self, on: bool) {
        self.shared.log.trace.set_echo(on);
    }

    /// Inspect the bundler (machines in use, task instances, …).
    pub fn with_bundler<R>(&self, f: impl FnOnce(&Bundler) -> R) -> R {
        f(&self.shared.bundler.lock())
    }

    fn next_id(&self) -> ProcessId {
        ProcessId(self.shared.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    fn register(&self, core: &Arc<ProcessCore>) {
        let mut processes = self.shared.processes.lock();
        processes.insert(core.id(), core.clone());
        self.shared
            .peak_live
            .fetch_max(processes.len(), Ordering::Relaxed);
    }

    /// Drop a finished process from the registry, keeping its failure in
    /// its owner's log.
    pub(crate) fn unregister(&self, core: &ProcessCore, log: &ScopeLog) {
        self.shared.processes.lock().remove(&core.id());
        if let Some(e) = core.failure() {
            log.failures.lock().push((core.id(), e));
        }
    }

    /// The part of a block's exit that never waits: every member is
    /// killed — all of them first, so they unwind concurrently — and one
    /// that was never activated terminates without ever having run. An
    /// active stepped member terminates inside its `kill`, or when the
    /// step another thread is in returns; a threaded one when its body
    /// has unwound.
    pub(crate) fn end(&self, members: &[Arc<ProcessCore>]) {
        for p in members {
            p.kill();
        }
        for p in members {
            // Holding the body means nobody else can activate it any more.
            if p.body.lock().take().is_some() {
                p.terminate();
            }
        }
    }

    /// End the life of every process in `members` — the exit of a block of
    /// the closure coordinator `owner`: [`Environment::end`], then each is
    /// joined (its thread is back in the pool when this returns) and
    /// leaves the registry, its failure moving to `log`.
    pub(crate) fn retire(&self, members: &[Arc<ProcessCore>], owner: &ProcessCore, log: &ScopeLog) {
        self.end(members);
        for p in members {
            if p.runs_on_this_thread() {
                // The block is closing inside this member's own body (a
                // coordinator handed to the process it created): joining
                // would wait the whole grace for ourselves.
                owner.record_failure(MfError::App(format!(
                    "scope closed from inside its member {}",
                    p.manifold_name()
                )));
            } else {
                // A body still computing after the grace is abandoned: it
                // is dead to the registry and exits at its next blocking
                // operation.
                let _ = p.wait_terminated(RETIRE_GRACE);
            }
            self.unregister(p, log);
        }
    }

    /// Create (but do not activate) an atomic process instance of the named
    /// manifold, printing to the environment's own trace sink.
    pub fn create_process(
        &self,
        manifold_name: impl Into<Name>,
        body: impl AtomicProcess,
    ) -> ProcessRef {
        self.create_in(
            &self.shared.log,
            manifold_name,
            Body::Threaded(Box::new(body)),
        )
    }

    /// Create and register a process that prints to `log` and will run
    /// `body` once activated.
    pub(crate) fn create_in(
        &self,
        log: &ScopeLog,
        manifold_name: impl Into<Name>,
        body: Body,
    ) -> ProcessRef {
        let core = ProcessCore::with_body(
            self.next_id(),
            manifold_name,
            log.trace.clone(),
            self.shared.clock.clone(),
            body,
        );
        self.register(&core);
        ProcessRef::new(core)
    }

    /// Create (but do not activate) a *stepped* atomic process: `step` is
    /// called on whichever thread makes the process runnable — its
    /// activation, a unit or a stream arriving at one of its ports, a
    /// [`Waker`](crate::process::Waker) — one call at a time, until it
    /// returns [`Step::Done`] or an error. It costs no thread, so it must
    /// never block: `try_read`/`try_write`, and [`Step::Pending`] when
    /// there is nothing to do yet. Prints to the environment's own trace
    /// sink.
    pub fn create_stepped(
        &self,
        manifold_name: impl Into<Name>,
        step: impl FnMut(&ProcessCtx) -> MfResult<Step> + Send + 'static,
    ) -> ProcessRef {
        self.create_in(&self.shared.log, manifold_name, Body::stepped(step))
    }

    /// Look up a live process by id.
    pub fn process(&self, id: ProcessId) -> Option<ProcessRef> {
        self.shared
            .processes
            .lock()
            .get(&id)
            .cloned()
            .map(ProcessRef::new)
    }

    /// The part of activation that does not depend on how the body runs:
    /// claim the body and place the process in a task instance per the
    /// MLINK/CONFIG rules.
    fn claim(&self, p: &ProcessRef) -> MfResult<(Arc<ProcessCore>, Body)> {
        let core = p.core().clone();
        if core.life_state() != LifeState::Created {
            return Err(MfError::AlreadyActive(core.id()));
        }
        let body = core
            .body
            .lock()
            .take()
            .ok_or(MfError::AlreadyActive(core.id()))?;
        let placement = self.shared.bundler.lock().place(core.manifold_name());
        core.set_placement(placement.clone());
        // Task-instance load bookkeeping when the process goes away.
        let env = self.clone();
        core.on_terminate(move || {
            env.shared.bundler.lock().release(&placement);
        });
        Ok((core, body))
    }

    /// Mark a claimed threaded process active; its body, wrapped so that a
    /// failure it returns is recorded on the process.
    fn start_threaded(core: &Arc<ProcessCore>, body: Box<dyn AtomicProcess>) -> PoolBody {
        core.set_life(LifeState::Active);
        let ctx = ProcessCtx::new(core.clone());
        let core = core.clone();
        Box::new(move || {
            core.set_carrier();
            match body.run(ctx) {
                Ok(()) | Err(MfError::Killed) => {}
                Err(e) => core.record_failure(e),
            }
        })
    }

    /// Start a claimed stepped process: step it here and now, for the
    /// first time.
    fn start_stepped(core: &ProcessCore, step: crate::process::StepBody) {
        core.install_step(step);
        core.set_life(LifeState::Active);
        core.wake();
    }

    /// Activate a created process: place it in a task instance per the
    /// MLINK/CONFIG rules and start it. A threaded body starts on a thread
    /// — a parked one from an earlier job when the fleet is warm, a fresh
    /// one otherwise; a stepped process takes its first step on the
    /// calling thread.
    pub fn activate(&self, p: &ProcessRef) -> MfResult<()> {
        let (core, body) = self.claim(p)?;
        match body {
            Body::Threaded(body) => {
                let job = Self::start_threaded(&core, body);
                self.run_on_pool(core, job);
            }
            Body::Stepped(step) => Self::start_stepped(&core, step),
        }
        Ok(())
    }

    /// Activate a created process and run its body to completion on the
    /// *calling* thread; the process has terminated when this returns.
    ///
    /// For a process whose input is already on its port and whose body
    /// only computes, a thread of its own buys nothing but two hand-offs —
    /// one to start it, one to learn that it finished. Everything else is
    /// as under [`Environment::activate`]: the same placement, the same
    /// `on_terminate` hooks, the same trace lines, and a body that panics
    /// still leaves a terminated process with a recorded failure. The
    /// caller must have wired the process first: a body that waits for a
    /// unit or an event only this thread could supply never returns. (A
    /// stepped process has no body to run to completion: it is activated,
    /// which steps it on this thread as far as it can go.)
    pub fn run_to_completion(&self, p: &ProcessRef) -> MfResult<()> {
        let (core, body) = self.claim(p)?;
        match body {
            Body::Threaded(body) => {
                let job = Self::start_threaded(&core, body);
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    core.record_failure(MfError::App("process body panicked".into()));
                }
                core.terminate();
            }
            Body::Stepped(step) => Self::start_stepped(&core, step),
        }
        Ok(())
    }

    fn run_on_pool(&self, core: Arc<ProcessCore>, body: PoolBody) {
        if let Some(handle) = self.shared.pool.run(core, body) {
            self.shared.threads.lock().push(handle);
        }
    }

    fn make_coordinator_core(&self, name: &Name, log: &ScopeLog) -> Arc<ProcessCore> {
        let core = ProcessCore::new(
            self.next_id(),
            name.clone(),
            log.trace.clone(),
            self.shared.clock.clone(),
        );
        let placement = self.shared.bundler.lock().place(name);
        core.set_placement(placement.clone());
        let env = self.clone();
        core.on_terminate(move || {
            env.shared.bundler.lock().release(&placement);
        });
        core.set_life(LifeState::Active);
        self.register(&core);
        core
    }

    /// Run a coordinator on the *current* thread until it returns. This is
    /// how an application's `Main` manifold is entered. The coordinator is
    /// the outermost scope: every process it created is dead and out of
    /// the registry when this returns, and so is the coordinator itself.
    pub fn run_coordinator<R>(
        &self,
        name: impl Into<Name>,
        f: impl FnOnce(&mut Coord) -> MfResult<R>,
    ) -> MfResult<R> {
        let name = name.into();
        let log = self.shared.log.clone();
        let core = self.make_coordinator_core(&name, &log);
        let mut coord = Coord::new(ProcessCtx::new(core.clone()), self.clone(), log.clone());
        let result = f(&mut coord);
        drop(coord);
        core.terminate();
        self.unregister(&core, &log);
        result
    }

    /// Run a manner from a compiled [`Mc`] artifact as the root
    /// coordinator, under the selected executor. `make_args` builds the
    /// manner's arguments against the live coordinator (creating the
    /// master process, wrapping atomic factories, …); `source_name`
    /// labels MES trace records.
    ///
    /// This is the one seam every entry point (tests, benches, the
    /// `protocol` crate) threads its `--coord interp|compiled` selector
    /// through, so both executors share the surrounding plumbing verbatim.
    pub fn run_manner(
        &self,
        mc: &crate::lang::Mc,
        kind: crate::lang::CoordExec,
        source_name: &str,
        manner: &str,
        make_args: impl FnOnce(&mut Coord) -> MfResult<Vec<crate::lang::Value>>,
    ) -> MfResult<()> {
        use crate::lang::CoordExecutor;
        self.run_coordinator(Name::new(manner), |coord| {
            let args = make_args(coord)?;
            mc.executor(kind, source_name)
                .call_manner(coord, manner, args)
        })
    }

    /// Run a coordinator on a new thread; returns its process reference.
    /// When that process has terminated the coordinator's scope is closed.
    pub fn spawn_coordinator(
        &self,
        name: impl Into<Name>,
        f: impl FnOnce(&mut Coord) -> MfResult<()> + Send + 'static,
    ) -> ProcessRef {
        let name = name.into();
        let log = self.shared.log.clone();
        let core = self.make_coordinator_core(&name, &log);
        let env = self.clone();
        let core2 = core.clone();
        let job = move || {
            let mut coord = Coord::new(ProcessCtx::new(core2.clone()), env.clone(), log.clone());
            let result = f(&mut coord);
            drop(coord);
            if let Err(e) = result {
                if e != MfError::Killed {
                    core2.record_failure(e);
                }
            }
            // Out of the registry before `terminated` is observable, like
            // every scoped process.
            env.unregister(&core2, &log);
        };
        self.run_on_pool(core.clone(), Box::new(job));
        ProcessRef::new(core)
    }

    /// Create (but do not activate) a *stepped* coordinator: a coordinator
    /// without a thread. `step` is handed the coordinator's [`Coord`] and
    /// is called on whichever thread makes the coordinator runnable — its
    /// activation, an event raised by a process it watches, a `post` to
    /// itself, a termination notice, a kill — one call at a time, until it
    /// returns [`Step::Done`] or an error. It reacts and returns: it
    /// selects from its event memory with `try_select`, closes its blocks
    /// with [`Coord::close_pending`], and never blocks, because the thread
    /// it runs on belongs to whoever raised the event — the master inside
    /// `raise(create_worker)`, a worker inside `raise(death_worker)`.
    ///
    /// Everything the coordinator and its processes print or fail with
    /// goes to `log`. The coordinator's own exit does not block either:
    /// when `step` is done, has failed, or the coordinator was killed (a
    /// step that is still pending after the kill is not called again), what
    /// it still owns is killed, and the coordinator stays pending until the
    /// termination notices of those processes have arrived; then they
    /// leave the registry, then the coordinator does, and only then does
    /// it terminate. So `on_terminate` on the returned process still means
    /// "scope closed, `log` complete" — registered before
    /// [`Environment::activate`], it cannot miss.
    pub fn create_stepped_coordinator(
        &self,
        name: impl Into<Name>,
        log: Arc<ScopeLog>,
        mut step: impl FnMut(&Coord) -> MfResult<Step> + Send + 'static,
    ) -> ProcessRef {
        let env = self.clone();
        let scope_log = log.clone();
        // The coordinator's outermost block, from its first step on, and
        // the mark its exit closes it with once `step` is through.
        let mut coord: Option<Coord> = None;
        let mut exit: Option<ScopeMark> = None;
        let body = move |ctx: &ProcessCtx| -> MfResult<Step> {
            let coord = coord
                .get_or_insert_with(|| Coord::new(ctx.clone(), env.clone(), scope_log.clone()));
            if exit.is_none() {
                // A panic is caught here rather than left to the stepper,
                // so that the scope of a coordinator with a bug still
                // closes in order.
                let stepped =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step(coord)))
                        .unwrap_or_else(|_| Err(MfError::App("process body panicked".into())));
                match stepped {
                    Ok(Step::Pending) if !ctx.core().is_killed() => return Ok(Step::Pending),
                    Ok(_) | Err(MfError::Killed) => {}
                    Err(e) => ctx.core().record_failure(e),
                }
            }
            let exit = exit.get_or_insert_with(ScopeMark::outermost);
            if coord.close_pending(exit).is_some() {
                return Ok(Step::Pending);
            }
            // Out of the registry before `terminated` is observable.
            env.unregister(ctx.core(), &scope_log);
            Ok(Step::Done)
        };
        self.create_in(&log, name, Body::Stepped(Box::new(body)))
    }

    /// Block until the given process terminates.
    pub fn join_process(&self, p: &ProcessRef, timeout: Duration) -> MfResult<()> {
        p.core().wait_terminated(timeout)
    }

    /// Kill every process (their blocking operations return
    /// [`MfError::Killed`]) and join all threads, parked ones included.
    pub fn shutdown(&self) {
        let procs: Vec<Arc<ProcessCore>> = self.shared.processes.lock().values().cloned().collect();
        for p in &procs {
            p.kill();
        }
        self.shared.pool.drain();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.threads.lock());
        for h in handles {
            let _ = h.join();
        }
        for p in &procs {
            p.terminate();
        }
    }

    /// Join all spawned threads without killing (application ran to
    /// completion on its own). Parked threads are woken to exit first —
    /// they would otherwise block the join forever.
    pub fn join_all(&self) {
        self.shared.pool.drain();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// Threads parked in the reuse pool (their last process body returned;
    /// the next [`Environment::activate`] will hand one of them the new
    /// body instead of spawning). Fleet introspection for engines and
    /// benchmarks.
    pub fn parked_threads(&self) -> usize {
        self.shared.pool.parked()
    }

    /// OS threads this environment has ever spawned. A warm fleet reuses
    /// parked threads, so in steady state this does not move.
    pub fn threads_spawned(&self) -> u64 {
        self.shared.pool.spawned()
    }

    /// Processes currently registered: created in a scope that is still
    /// open (or outside any coordinator) and not yet torn down.
    pub fn live_processes(&self) -> usize {
        self.shared.processes.lock().len()
    }

    /// High-water mark of [`Environment::live_processes`].
    pub fn peak_live_processes(&self) -> usize {
        self.shared.peak_live.load(Ordering::Relaxed)
    }

    /// Errors recorded by failed process bodies (excluding clean kills):
    /// those of processes whose scope has closed, oldest first, then those
    /// of processes still registered.
    pub fn failures(&self) -> Vec<(ProcessId, MfError)> {
        let mut all = self.shared.log.failures.lock().clone();
        all.extend(
            self.shared
                .processes
                .lock()
                .values()
                .filter_map(|c| c.failure().map(|e| (c.id(), e))),
        );
        all
    }

    /// Remove and return the failures of processes whose scope has closed
    /// — those of coordinators sharing the environment's own log. A
    /// long-lived environment running one coordinator at a time calls
    /// this once per unit of work (after the coordinator that ran it has
    /// returned), so each failure is reported once and none accumulate;
    /// one running several at a time gives each its own [`ScopeLog`].
    pub fn take_failures(&self) -> Vec<(ProcessId, MfError)> {
        self.shared.log.take_failures()
    }
}

impl std::fmt::Debug for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Environment")
            .field("processes", &self.shared.processes.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::Unit;

    #[test]
    fn atomic_process_runs_and_terminates() {
        let env = Environment::new();
        let p = env.create_process("P", |ctx: ProcessCtx| {
            ctx.post("ran");
            Ok(())
        });
        assert_eq!(p.life_state(), LifeState::Created);
        env.activate(&p).unwrap();
        p.core().wait_terminated(Duration::from_secs(5)).unwrap();
        assert_eq!(p.life_state(), LifeState::Terminated);
        env.shutdown();
    }

    #[test]
    fn double_activation_rejected() {
        let env = Environment::new();
        let p = env.create_process("P", |_ctx: ProcessCtx| Ok(()));
        env.activate(&p).unwrap();
        assert!(matches!(env.activate(&p), Err(MfError::AlreadyActive(_))));
        env.shutdown();
    }

    #[test]
    fn failures_are_recorded() {
        let env = Environment::new();
        let p = env.create_process("P", |_ctx: ProcessCtx| Err(MfError::App("boom".into())));
        env.activate(&p).unwrap();
        p.core().wait_terminated(Duration::from_secs(5)).unwrap();
        let fails = env.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].1, MfError::App("boom".into()));
        env.shutdown();
    }

    #[test]
    fn a_panicking_body_still_terminates_its_process() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let p = coord.create_atomic("P", |_ctx: ProcessCtx| panic!("body bug"));
            coord.activate(&p)?;
            // Returning closes the scope, which joins `p`: that must not
            // wait for a thread that is gone.
            Ok(())
        })
        .unwrap();
        let fails = env.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].1, MfError::App("process body panicked".into()));
        env.shutdown();
    }

    #[test]
    fn shutdown_unblocks_stuck_process() {
        let env = Environment::new();
        let p = env.create_process("Stuck", |ctx: ProcessCtx| {
            // Blocks forever: no stream will ever feed this port.
            let _ = ctx.read("input")?;
            Ok(())
        });
        env.activate(&p).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        env.shutdown();
        assert_eq!(p.life_state(), LifeState::Terminated);
    }

    #[test]
    fn run_coordinator_round_trip() {
        let env = Environment::new();
        let out = env.run_coordinator("Main", |coord| {
            let echo = coord.create_atomic("Echo", |ctx: ProcessCtx| {
                let u = ctx.read("input")?;
                ctx.write("output", u)?;
                Ok(())
            });
            coord.activate(&echo)?;
            let mut st = coord.state();
            st.send(Unit::int(5), &echo, "input")?;
            st.connect_to_self(&echo, "output", "input", crate::stream::StreamType::BK)?;
            // Read while the state (and its BK stream) is still up.
            let u = coord.read("input");
            drop(st);
            u
        });
        assert_eq!(out.unwrap().as_int(), Some(5));
        env.shutdown();
    }

    #[test]
    fn placement_uses_bundler() {
        let link = LinkSpec::default().load(1).weight("Worker", 1).task("t");
        let config = ConfigSpec::with_startup("start")
            .host("a", "m1")
            .host("b", "m2")
            .locus("t", &["a", "b"]);
        let env = Environment::with_specs(link, config);
        // Workers park on a read so both are placed simultaneously.
        let w1 = env.create_process("Worker", |ctx: ProcessCtx| {
            let _ = ctx.read("input")?;
            Ok(())
        });
        let w2 = env.create_process("Worker", |ctx: ProcessCtx| {
            let _ = ctx.read("input")?;
            Ok(())
        });
        env.activate(&w1).unwrap();
        env.activate(&w2).unwrap();
        let p1 = w1.core().placement().unwrap();
        let p2 = w2.core().placement().unwrap();
        assert_ne!(p1.task, p2.task, "load-1 workers need distinct instances");
        // First worker filled the start-up instance; second forked out.
        assert_eq!(p1.host.as_str(), "start");
        assert!(p2.forked);
        env.shutdown();
    }

    #[test]
    fn threads_park_and_are_reused_across_jobs() {
        let env = Environment::new();
        for _ in 0..3 {
            let p = env.create_process("P", |_ctx: ProcessCtx| Ok(()));
            env.activate(&p).unwrap();
            p.core().wait_terminated(Duration::from_secs(5)).unwrap();
            // A thread parks before its process is seen terminated, so the
            // next activation must reuse it rather than spawn.
            assert_eq!(env.parked_threads(), 1);
        }
        assert_eq!(env.threads_spawned(), 1, "three jobs share one thread");
        env.shutdown();
        assert_eq!(env.parked_threads(), 0, "shutdown drains the pool");
    }

    #[test]
    fn run_to_completion_runs_the_body_on_the_calling_thread() {
        let link = LinkSpec::default().load(1).weight("Echo", 1).task("t");
        let env = Environment::with_specs(link, ConfigSpec::with_startup("start"));
        let here = std::thread::current().id();
        env.run_coordinator("Main", |coord| {
            let echo = coord.create_atomic("Echo", move |ctx: ProcessCtx| {
                assert_eq!(std::thread::current().id(), here);
                crate::mes!(ctx, "Welcome");
                let u = ctx.read("input")?;
                ctx.write("output", u)?;
                ctx.raise("done");
                Ok(())
            });
            let hooked = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let h2 = hooked.clone();
            echo.core()
                .on_terminate(move || h2.store(true, Ordering::SeqCst));
            // Wired first: input waiting, output connected.
            let mut st = coord.state();
            st.send(Unit::int(9), &echo, "input")?;
            st.connect_to_self(&echo, "output", "input", crate::stream::StreamType::KK)?;
            coord.run_to_completion(&echo)?;
            assert_eq!(echo.life_state(), LifeState::Terminated);
            assert!(hooked.load(Ordering::SeqCst), "on_terminate hooks ran");
            // Placed like any process: the load-1 instance it filled is
            // free again, so the next Echo lands on the same one.
            let placed = echo.core().placement().expect("placed");
            let next = coord.create_atomic("Echo", |_ctx: ProcessCtx| Ok(()));
            coord.run_to_completion(&next)?;
            assert_eq!(next.core().placement().unwrap().task, placed.task);
            // Its event and its unit are already here; nothing blocks.
            assert!(matches!(
                st.until_terminated(&echo, &["done".into()])?,
                crate::coord::StateExit::Event(_)
            ));
            assert_eq!(coord.read("input")?.as_int(), Some(9));
            assert!(matches!(
                coord.run_to_completion(&echo),
                Err(MfError::AlreadyActive(_))
            ));
            Ok(())
        })
        .unwrap();
        assert_eq!(env.threads_spawned(), 0, "nothing was handed to a thread");
        assert_eq!(env.trace().snapshot()[0].message, "Welcome");
        env.shutdown();
    }

    #[test]
    fn run_to_completion_records_failures_and_panics() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let bad = coord.create_atomic("Bad", |_ctx: ProcessCtx| Err(MfError::App("no".into())));
            coord.run_to_completion(&bad)?;
            assert_eq!(bad.core().failure(), Some(MfError::App("no".into())));
            let worse = coord.create_atomic("Worse", |_ctx: ProcessCtx| panic!("body bug"));
            coord.run_to_completion(&worse)?;
            assert_eq!(worse.life_state(), LifeState::Terminated);
            assert_eq!(
                worse.core().failure(),
                Some(MfError::App("process body panicked".into()))
            );
            Ok(())
        })
        .unwrap();
        assert_eq!(env.take_failures().len(), 2);
        env.shutdown();
    }

    #[test]
    fn concurrent_scopes_keep_their_records_and_failures_apart() {
        let env = Environment::new();
        let scopes: Vec<(Arc<ScopeLog>, ProcessRef)> = (0..2)
            .map(|k| {
                let log = ScopeLog::new();
                let mut begun = false;
                let c = env.create_stepped_coordinator("Main", log.clone(), move |coord| {
                    if !begun {
                        begun = true;
                        crate::mes!(coord.ctx(), "scope {k} begins");
                        let p = coord.create_atomic("P", move |ctx: ProcessCtx| {
                            crate::mes!(ctx, "hello from {k}");
                            Err(MfError::App(format!("boom {k}")))
                        });
                        coord.activate(&p)?;
                    }
                    // Both scopes are alive at once: neither is done
                    // before the test has seen them both running.
                    let go = coord.ctx().core().events().try_select(&["go".into()]);
                    Ok(if go.is_some() {
                        Step::Done
                    } else {
                        Step::Pending
                    })
                });
                env.activate(&c).unwrap();
                (log, c)
            })
            .collect();
        while scopes.iter().any(|(log, _)| log.trace().len() < 2) {
            std::thread::yield_now();
        }
        for (k, (log, c)) in scopes.iter().enumerate() {
            c.core().post("go");
            c.core().wait_terminated(Duration::from_secs(5)).unwrap();
            let msgs: Vec<String> = log.trace().take().into_iter().map(|r| r.message).collect();
            assert_eq!(
                msgs,
                vec![format!("scope {k} begins"), format!("hello from {k}")]
            );
            let failures = log.take_failures();
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].1, MfError::App(format!("boom {k}")));
        }
        assert!(env.trace().is_empty(), "nothing leaked into the shared log");
        assert!(env.take_failures().is_empty());
        assert_eq!(env.live_processes(), 0);
        assert!(
            env.threads_spawned() <= 2,
            "one thread per `P` at most: the scopes themselves ran on none"
        );
        env.shutdown();
    }

    #[test]
    fn spawn_coordinator_runs_concurrently() {
        let env = Environment::new();
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f2 = flag.clone();
        let c = env.spawn_coordinator("Side", move |_coord| {
            f2.store(true, Ordering::SeqCst);
            Ok(())
        });
        c.core().wait_terminated(Duration::from_secs(5)).unwrap();
        assert!(flag.load(Ordering::SeqCst));
        env.shutdown();
    }
}
