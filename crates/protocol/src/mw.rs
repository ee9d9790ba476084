//! The `ProtocolMW` and `Create_Worker_Pool` manners.
//!
//! A transliteration of `protocolMW.m` (§4.2) into the `manifold` crate's
//! embedded DSL. Comments quote the original line numbers so the two can be
//! read side by side.
//!
//! The coordinator never computes: it reacts to `create_pool`,
//! `create_worker`, `rendezvous` and `death_worker` and wires streams. So
//! it is written once, as an explicit state machine ([`ProtocolMw`]) whose
//! [`step`](ProtocolMw::step) does what can be done without waiting, and
//! it has two drivers. A *stepped* coordinator
//! ([`Environment::create_stepped_coordinator`]) steps it through
//! [`PerpetualPool::step`] on whichever thread raises an event into it —
//! the master's inside `request_worker`, a worker's inside `die` — and
//! occupies no thread; that is how `renovation`'s engine runs a job. A
//! closure coordinator calls [`protocol_mw`] / [`PerpetualPool::serve`],
//! which is the loop "step; while pending, wait on the coordinator's own
//! event memory for what the machine awaits".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::Poll;

use manifold::builtin::Variable;
use manifold::coord::{HeldState, ScopeMark};
use manifold::mes;
use manifold::prelude::*;
use manifold::process::LifeState;

use crate::{A_RENDEZVOUS, CREATE_POOL, CREATE_WORKER, DEATH_WORKER, FINISHED, RENDEZVOUS};

/// Why [`protocol_mw`] returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolOutcome {
    /// The master raised `finished` (line 63: `finished: halt.`).
    Finished {
        /// Pool statistics, one entry per pool that was run.
        pools: Vec<PoolStats>,
    },
    /// The master terminated without raising `finished` (the `begin` state's
    /// `terminated(master)` completed).
    MasterTerminated {
        /// Pool statistics, one entry per pool that was run.
        pools: Vec<PoolStats>,
    },
}

impl ProtocolOutcome {
    /// Statistics for every pool run by the protocol.
    pub fn pools(&self) -> &[PoolStats] {
        match self {
            ProtocolOutcome::Finished { pools } => pools,
            ProtocolOutcome::MasterTerminated { pools } => pools,
        }
    }

    /// Workers created across every pool the protocol ran.
    pub fn workers_created(&self) -> usize {
        self.pools().iter().map(|p| p.workers_created).sum()
    }
}

/// Statistics of one `Create_Worker_Pool` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers created in this pool (the final value of `now`).
    pub workers_created: usize,
    /// `death_worker` events counted at the rendezvous (the final `t`).
    pub deaths_counted: usize,
}

/// The fleet-lifetime side of `Create_Worker_Pool`: pool statistics that
/// outlive any single master.
///
/// The paper's manner binds the pool loop to one master for the whole
/// application; a perpetual fleet instead runs the same loop once *per
/// job*, each time with a fresh job-scoped master rendezvousing against
/// the shared pool machinery. `PerpetualPool` is that shared half: it
/// keeps running totals across every master served, while each served
/// master gets a per-job [`ProtocolOutcome`] carrying only that job's
/// pools (so single-job callers still see `pools().len() == 1` per
/// `create_pool`). Masters may be served one after another or side by side
/// — each on its own coordinator, sharing nothing with the others but
/// these totals.
#[derive(Debug, Default)]
pub struct PerpetualPool {
    workers_created: AtomicUsize,
    jobs_served: AtomicUsize,
}

impl PerpetualPool {
    /// A pool that has served no masters yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many masters this pool has served to completion.
    pub fn jobs_served(&self) -> usize {
        self.jobs_served.load(Ordering::Relaxed)
    }

    /// Total workers created across the fleet's whole life.
    pub fn fleet_workers_created(&self) -> usize {
        self.workers_created.load(Ordering::Relaxed)
    }

    /// One step of serving a master on `coord` (see [`ProtocolMw::step`]);
    /// the outcome that ends the service is added to the fleet-lifetime
    /// statistics. This is what a stepped coordinator's step function
    /// calls.
    pub fn step<W>(
        &self,
        task: &mut ProtocolMw<W>,
        coord: &Coord,
    ) -> MfResult<Poll<ProtocolOutcome>>
    where
        W: FnMut(&Coord, &Name) -> ProcessRef,
    {
        let polled = task.step(coord)?;
        if let Poll::Ready(outcome) = &polled {
            self.workers_created
                .fetch_add(outcome.workers_created(), Ordering::Relaxed);
            self.jobs_served.fetch_add(1, Ordering::Relaxed);
        }
        Ok(polled)
    }

    /// Serve one master to completion on the calling coordinator's own
    /// thread: step, and while the machine is pending wait on the
    /// coordinator's event memory for what it awaits. The returned outcome
    /// carries only the pools created by *this* master.
    pub fn serve(
        &self,
        coord: &Coord,
        master: &ProcessRef,
        worker_factory: &mut dyn FnMut(&Coord, &Name) -> ProcessRef,
    ) -> MfResult<ProtocolOutcome> {
        let mut task = ProtocolMw::new(master.clone(), worker_factory);
        loop {
            if let Poll::Ready(outcome) = self.step(&mut task, coord)? {
                return Ok(outcome);
            }
            coord.ctx().core().events().wait_present(task.awaits())?;
        }
    }
}

/// `export manner ProtocolMW(process master, manifold Worker(event))` —
/// lines 54–64.
///
/// `worker_factory` plays the role of the `Worker` manifold parameter: it
/// must *create* (not activate) a fresh worker instance; the death event it
/// receives is the one the worker must raise when done (line 30:
/// `process worker is Worker(death_worker)`).
///
/// One-shot, blocking form: serves a single master over a throwaway
/// [`PerpetualPool`], on the calling coordinator's thread.
pub fn protocol_mw(
    coord: &Coord,
    master: &ProcessRef,
    mut worker_factory: impl FnMut(&Coord, &Name) -> ProcessRef,
) -> MfResult<ProtocolOutcome> {
    PerpetualPool::new().serve(coord, master, &mut worker_factory)
}

/// `ProtocolMW` serving one master, as a state machine:
///
/// ```text
/// Begin ──create_pool──► Pool{now, t, state streams} ◄─create_worker─┐
///   ▲  │                   │  └───────────────────────────────────────┘
///   │  │                   └─rendezvous──► Rendezvous ─(t = now)─► ClosingPool
///   │  └─finished──► AwaitingMaster ──terminated(master)──► Finished      │
///   └──────────────────────── post(begin) ◄───────────────────────────────┘
/// ```
///
/// plus `terminated(master)`: in `Begin` it ends the protocol
/// ([`ProtocolOutcome::MasterTerminated`]); inside a pool it aborts the
/// pool.
pub struct ProtocolMw<W> {
    master: ProcessRef,
    /// The `Worker` manifold parameter.
    workers: W,
    death_event: Name,
    /// The wait list of each state, priority first; every one of them ends
    /// with the master's termination, which pending events precede.
    begin: [EventPattern; 3],
    pool: [EventPattern; 3],
    rendezvous: [EventPattern; 2],
    /// The pool member a closing pool block is still waiting for.
    closing: [EventPattern; 1],
    /// One entry per pool run so far.
    pools: Vec<PoolStats>,
    state: State,
}

enum State {
    /// Not stepped yet.
    Entering,
    /// `begin: terminated(master).` (line 59)
    Begin,
    /// Inside `Create_Worker_Pool`, idle in its `begin` or `create_worker`
    /// state.
    Pool(PoolBlock),
    /// Inside `Create_Worker_Pool`'s `rendezvous` block, counting deaths.
    Rendezvous(PoolBlock),
    /// The pool block is exiting: its locals are on their way out.
    ClosingPool {
        scope: ScopeMark,
        result: MfResult<PoolStats>,
    },
    /// `finished: halt.` — and the job is over when its master is.
    AwaitingMaster,
    /// Returned its outcome or its error.
    Halted,
}

/// What `Create_Worker_Pool`'s block declares (lines 15–23): `now` and `t`
/// are instances of the predefined `variable` manifold (lines 18–19) and,
/// being `auto`, die with the block — as does every worker it creates,
/// which is what the scope is for.
struct PoolBlock {
    scope: ScopeMark,
    now: Variable,
    t: Variable,
    /// The streams of the state the block idles in; the next transition
    /// preempts the state and dismantles them.
    wired: Option<HeldState>,
}

impl PoolBlock {
    /// Leave the pool with `error`: its block still closes first.
    fn abort(self, error: MfError) -> State {
        State::ClosingPool {
            scope: self.scope,
            result: Err(error),
        }
    }
}

/// Every wait inside the pool is also sensitive to the master's
/// termination: a master that *fails* mid-pool (e.g. its lost-worker retry
/// budget runs out) must abort the pool instead of leaving the coordinator
/// idling forever on events no one will raise. In the normal course the
/// master cannot terminate here — it is blocked on `a_rendezvous` until the
/// pool ends — so this changes nothing for a healthy run.
fn master_died() -> MfError {
    MfError::App("master terminated inside an active worker pool".into())
}

impl<W> ProtocolMw<W>
where
    W: FnMut(&Coord, &Name) -> ProcessRef,
{
    /// The protocol for `master`, with `workers` in the role of the
    /// `Worker` manifold parameter (see [`protocol_mw`]). Nothing happens
    /// until the first [`ProtocolMw::step`].
    pub fn new(master: ProcessRef, workers: W) -> Self {
        let gone = EventPattern::Terminated(master.id());
        ProtocolMw {
            workers,
            death_event: Name::new(DEATH_WORKER),
            begin: [CREATE_POOL.into(), FINISHED.into(), gone.clone()],
            // The priority declaration `create_worker > rendezvous`
            // (line 23) is pattern order.
            pool: [CREATE_WORKER.into(), RENDEZVOUS.into(), gone.clone()],
            rendezvous: [DEATH_WORKER.into(), gone.clone()],
            closing: [gone],
            pools: Vec::new(),
            state: State::Entering,
            master,
        }
    }

    /// What a pending machine is waiting for, in `coord`'s event memory.
    pub(crate) fn awaits(&self) -> &[EventPattern] {
        match self.state {
            State::Entering | State::Halted => &[],
            State::Begin => &self.begin,
            State::Pool(_) => &self.pool,
            State::Rendezvous(_) => &self.rendezvous,
            State::ClosingPool { .. } => &self.closing,
            State::AwaitingMaster => &self.begin[2..],
        }
    }

    /// React to whatever is in `coord`'s event memory, as far as that goes
    /// without waiting: `Ready` when the protocol is over, `Pending` when
    /// the next thing it reacts to (`ProtocolMw::awaits`) has not
    /// happened yet, an error when it failed or `coord` was killed. Always
    /// pass the same coordinator.
    pub fn step(&mut self, coord: &Coord) -> MfResult<Poll<ProtocolOutcome>> {
        let events = coord.ctx().core().events();
        // A kill is noticed where a blocking wait would notice it: when
        // there is nothing left to react to.
        let pending = || match events.is_killed() {
            true => Err(MfError::Killed),
            false => Ok(Poll::Pending),
        };
        loop {
            match std::mem::replace(&mut self.state, State::Halted) {
                State::Entering => {
                    // Entering the manner's block makes the coordinator
                    // sensitive to the master's events (the
                    // `terminated(master)` in the begin state body).
                    coord.watch(&self.master);
                    self.state = State::Begin;
                }
                // begin: terminated(master).           (line 59)
                State::Begin => match events.try_select(&self.begin) {
                    None => {
                        self.state = State::Begin;
                        return pending();
                    }
                    // create_pool: Create_Worker_Pool(master, Worker); post(begin).
                    Some((0, _)) => {
                        let scope = coord.open_scope();
                        let now = Variable::spawn(coord, "now", Unit::int(0))?;
                        let t = Variable::spawn(coord, "t", Unit::int(0))?;
                        // begin: (MES("begin"), preemptall, IDLE).  (line 25)
                        mes!(coord.ctx(), "begin");
                        self.state = State::Pool(PoolBlock {
                            scope,
                            now,
                            t,
                            wired: None,
                        });
                    }
                    // finished: halt.                   (line 63)
                    Some((1, _)) => self.state = State::AwaitingMaster,
                    Some(_) => {
                        return Ok(Poll::Ready(ProtocolOutcome::MasterTerminated {
                            pools: std::mem::take(&mut self.pools),
                        }))
                    }
                },
                State::Pool(mut pool) => {
                    let Some((which, _)) = events.try_select(&self.pool) else {
                        self.state = State::Pool(pool);
                        return pending();
                    };
                    // Preemption dismantles the state's BK streams; the KK
                    // result stream stays intact (it must survive to
                    // transport a remote worker's results to the master).
                    pool.wired = None;
                    self.state = match which {
                        // create_worker: (lines 27–37)
                        0 => match self.create_worker(coord, &pool) {
                            Ok(wired) => {
                                pool.wired = Some(wired);
                                State::Pool(pool)
                            }
                            Err(e) => pool.abort(e),
                        },
                        // rendezvous: (lines 39–48)
                        1 => State::Rendezvous(pool),
                        _ => pool.abort(master_died()),
                    };
                }
                // The guard runs *before* the first wait: a pool that
                // created no workers (e.g. a resumed run whose checkpoint
                // already held every result) must acknowledge at once
                // instead of idling on a death_worker no one will raise.
                State::Rendezvous(pool) if pool.t.get_int() < pool.now.get_int() => {
                    // begin: (preemptall, IDLE) — wait for death_worker.
                    let Some((which, _)) = events.try_select(&self.rendezvous) else {
                        self.state = State::Rendezvous(pool);
                        return pending();
                    };
                    self.state = match which {
                        // death_worker: t = t + 1; post(begin).
                        0 => {
                            pool.t.add(1);
                            State::Rendezvous(pool)
                        }
                        _ => pool.abort(master_died()),
                    };
                }
                State::Rendezvous(pool) => {
                    // end: (MES(...), raise(a_rendezvous)).    (line 50)
                    mes!(coord.ctx(), "rendezvous acknowledged");
                    coord.raise(A_RENDEZVOUS);
                    self.state = State::ClosingPool {
                        scope: pool.scope,
                        result: Ok(PoolStats {
                            workers_created: pool.now.get_int() as usize,
                            deaths_counted: pool.t.get_int() as usize,
                        }),
                    };
                }
                State::ClosingPool { mut scope, result } => {
                    // The block's exit never joins: the thread stepping us
                    // may be the last worker's, still inside its own
                    // `raise(death_worker)`.
                    if let Some(alive) = coord.close_pending(&mut scope) {
                        self.closing = [EventPattern::Terminated(alive)];
                        self.state = State::ClosingPool { scope, result };
                        return pending();
                    }
                    // `ignore death.` applies on the block's exit — after
                    // its scope has closed, so a worker unwinding on the
                    // error path cannot leave a `death_worker` behind the
                    // purge. (`save *.` is implicit in our event memory:
                    // unhandled events stay saved.)
                    events.purge_named(&self.death_event);
                    self.pools.push(result?);
                    // `post(begin)` — back to the begin wait.
                    self.state = State::Begin;
                }
                State::AwaitingMaster => {
                    if self.master.life_state() != LifeState::Terminated {
                        self.state = State::AwaitingMaster;
                        return pending();
                    }
                    return Ok(Poll::Ready(ProtocolOutcome::Finished {
                        pools: std::mem::take(&mut self.pools),
                    }));
                }
                State::Halted => {
                    return Err(MfError::App("ProtocolMW stepped after it halted".into()))
                }
            }
        }
    }

    /// The `create_worker` state (lines 27–37): a new worker, wired to the
    /// master; the state's streams, for the pool to idle in.
    fn create_worker(&mut self, coord: &Coord, pool: &PoolBlock) -> MfResult<HeldState> {
        // hold worker. / process worker is Worker(death_worker).
        let worker = (self.workers)(coord, &self.death_event);
        // stream KK worker -> master.dataport.    (line 32)
        // begin: now = now + 1;                    (line 34)
        pool.now.add(1);
        mes!(coord.ctx(), "create_worker: begin");
        // &worker -> master -> worker -> master.dataport, IDLE.
        let mut st = coord.state();
        st.send_ref(&worker, &self.master, "input")?;
        st.connect(&self.master, "output", &worker, "input", StreamType::BK)?;
        st.connect(&worker, "output", &self.master, "dataport", StreamType::KK)?;
        Ok(st.hold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handles::{MasterHandle, WorkerHandle};
    use manifold::ident::ProcessId;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    /// The two ways the one machine is driven.
    #[derive(Clone, Copy, Debug)]
    enum Driver {
        /// `protocol_mw` on a closure coordinator's own thread.
        Blocking,
        /// A stepped coordinator, on whichever thread raises into it.
        Task,
    }

    const DRIVERS: [Driver; 2] = [Driver::Blocking, Driver::Task];

    /// Run `master` under the protocol on a coordinator `Main` of `env`.
    /// `after` runs in the coordinator once the protocol has returned,
    /// while the coordinator's own block is still open.
    fn run_protocol(
        env: &Environment,
        driver: Driver,
        master: impl FnOnce(MasterHandle) -> MfResult<()> + Send + 'static,
        workers: impl FnMut(&Coord, &Name) -> ProcessRef + Send + 'static,
        after: impl FnOnce(&Coord) + Send + 'static,
    ) -> MfResult<ProtocolOutcome> {
        let create_master = |coord: &Coord| {
            let (coord_ref, env2) = (coord.self_ref(), coord.env().clone());
            let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                master(MasterHandle::new(ctx, coord_ref, env2))
            });
            coord.activate(&master).map(|()| master)
        };
        match driver {
            Driver::Blocking => env.run_coordinator("Main", |coord| {
                let master = create_master(coord)?;
                let result = protocol_mw(coord, &master, workers);
                after(coord);
                result
            }),
            Driver::Task => {
                let result = Arc::new(Mutex::new(None));
                let result2 = result.clone();
                let pool = PerpetualPool::new();
                let mut begin = Some((create_master, workers));
                let mut after = Some(after);
                let mut task = None;
                let coordinator =
                    env.create_stepped_coordinator("Main", env.log().clone(), move |coord| {
                        if let Some((create_master, workers)) = begin.take() {
                            task = Some(ProtocolMw::new(create_master(coord)?, workers));
                        }
                        let task = task.as_mut().expect("created by the first step");
                        let ended = match pool.step(task, coord) {
                            Ok(Poll::Pending) => return Ok(Step::Pending),
                            Ok(Poll::Ready(outcome)) => Ok(outcome),
                            Err(e) => Err(e),
                        };
                        (after.take().expect("the protocol ends once"))(coord);
                        *result2.lock() = Some(ended);
                        Ok(Step::Done)
                    });
                env.activate(&coordinator)?;
                coordinator
                    .core()
                    .wait_terminated(Duration::from_secs(10))?;
                let ended = result.lock().take();
                ended.expect("the coordinator left a result")
            }
        }
    }

    /// A toy worker: reads one number, squares it, submits, dies.
    fn squaring_worker(coord: &Coord, death: &Name) -> ProcessRef {
        let death = death.clone();
        coord.create_atomic("Worker(event)", move |ctx: ProcessCtx| {
            let w = WorkerHandle::new(ctx, death);
            let x = w.receive()?.expect_real()?;
            w.submit(Unit::real(x * x))?;
            w.die();
            Ok(())
        })
    }

    /// Drive a master through `jobs` squaring jobs in one pool and return
    /// the collected results.
    fn run_squares(env: &Environment, driver: Driver, jobs: Vec<f64>) -> Vec<f64> {
        let n = jobs.len();
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = out.clone();
        let result = run_protocol(
            env,
            driver,
            move |h| {
                h.create_pool();
                // §4.3 step 3(e): repeat request + send *per worker* — the
                // master's output stream is re-routed to the newest worker
                // at every create_worker, so work must be sent before the
                // next worker is requested.
                for x in &jobs {
                    let _w = h.request_worker()?;
                    h.send_work(Unit::real(*x))?;
                }
                for _ in 0..n {
                    out2.lock().push(h.collect()?.expect_real()?);
                }
                h.rendezvous()?;
                h.finished();
                Ok(())
            },
            squaring_worker,
            |_| {},
        );
        let outcome = result.unwrap();
        assert_eq!(outcome.pools().len(), 1);
        assert_eq!(outcome.pools()[0].workers_created, n);
        assert_eq!(outcome.pools()[0].deaths_counted, n);
        let mut v = out.lock().clone();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn single_pool_squares_numbers() {
        for driver in DRIVERS {
            let env = Environment::new();
            let got = run_squares(&env, driver, vec![2.0, 3.0, 4.0]);
            assert_eq!(got, vec![4.0, 9.0, 16.0], "{driver:?}");
            assert_eq!(env.live_processes(), 0, "{driver:?}");
            assert!(
                env.threads_spawned() <= 4,
                "{driver:?}: the master and three workers at most"
            );
            env.shutdown();
            assert!(env.failures().is_empty(), "{driver:?}");
        }
    }

    #[test]
    fn empty_jobs_pool_never_created() {
        // A master that immediately raises finished.
        for driver in DRIVERS {
            let env = Environment::new();
            let outcome = run_protocol(
                &env,
                driver,
                |h| {
                    h.finished();
                    Ok(())
                },
                squaring_worker,
                |_| {},
            )
            .unwrap();
            assert_eq!(outcome, ProtocolOutcome::Finished { pools: vec![] });
            env.shutdown();
        }
    }

    #[test]
    fn empty_pool_rendezvous_acknowledges_immediately() {
        // A pool with zero workers (a fully-resumed run dispatches
        // nothing) must not wait for death_worker events.
        for driver in DRIVERS {
            let env = Environment::new();
            let outcome = run_protocol(
                &env,
                driver,
                |h| {
                    h.create_pool();
                    h.rendezvous()?;
                    h.finished();
                    Ok(())
                },
                squaring_worker,
                |_| {},
            )
            .unwrap();
            assert_eq!(outcome.pools().len(), 1);
            assert_eq!(outcome.pools()[0].workers_created, 0);
            assert_eq!(outcome.pools()[0].deaths_counted, 0);
            env.shutdown();
            assert!(env.failures().is_empty());
        }
    }

    #[test]
    fn master_termination_ends_protocol() {
        // A master that dies without raising finished.
        for driver in DRIVERS {
            let env = Environment::new();
            let outcome = run_protocol(&env, driver, |_h| Ok(()), squaring_worker, |_| {}).unwrap();
            assert!(matches!(outcome, ProtocolOutcome::MasterTerminated { .. }));
            env.shutdown();
        }
    }

    #[test]
    fn demanding_master_runs_multiple_pools() {
        // The §4.2 note: a master may raise create_pool again instead of
        // finished, and the protocol must serve another pool.
        for driver in DRIVERS {
            let env = Environment::new();
            let outcome = run_protocol(
                &env,
                driver,
                |h| {
                    for round in 1..=3 {
                        h.create_pool();
                        for i in 0..round {
                            let _w = h.request_worker()?;
                            h.send_work(Unit::real(i as f64))?;
                        }
                        for _ in 0..round {
                            let _ = h.collect()?;
                        }
                        h.rendezvous()?;
                    }
                    h.finished();
                    Ok(())
                },
                squaring_worker,
                |_| {},
            )
            .unwrap();
            let pools = outcome.pools();
            assert_eq!(pools.len(), 3);
            assert_eq!(
                pools.iter().map(|p| p.workers_created).collect::<Vec<_>>(),
                vec![1, 2, 3]
            );
            assert_eq!(env.live_processes(), 0, "{driver:?}");
            env.shutdown();
            assert!(env.failures().is_empty());
        }
    }

    #[test]
    fn many_workers_single_pool() {
        for driver in DRIVERS {
            let env = Environment::new();
            let jobs: Vec<f64> = (1..=16).map(|i| i as f64).collect();
            let got = run_squares(&env, driver, jobs.clone());
            let want: Vec<f64> = jobs.iter().map(|x| x * x).collect();
            assert_eq!(got, want);
            env.shutdown();
        }
    }

    #[test]
    fn workers_all_die_before_acknowledgement() {
        // After rendezvous() returns, every worker must have terminated.
        for driver in DRIVERS {
            let env = Environment::new();
            run_protocol(
                &env,
                driver,
                |h| {
                    h.create_pool();
                    let w1 = h.request_worker()?;
                    h.send_work(Unit::real(1.0))?;
                    let w2 = h.request_worker()?;
                    h.send_work(Unit::real(2.0))?;
                    let _ = h.collect()?;
                    let _ = h.collect()?;
                    h.rendezvous()?;
                    // Workers raised death_worker before dying; the
                    // coordinator acknowledged only after counting all of
                    // them. The workers may still be a few instructions
                    // from actually exiting, so join with a timeout.
                    w1.core().wait_terminated(Duration::from_secs(5))?;
                    w2.core().wait_terminated(Duration::from_secs(5))?;
                    h.finished();
                    Ok(())
                },
                squaring_worker,
                |_| {},
            )
            .unwrap();
            env.shutdown();
            assert!(env.failures().is_empty());
        }
    }

    /// Run one pool whose master either completes it or terminates inside
    /// it, and check that what the pool's block declared — `now`, `t`, the
    /// worker — is terminated and out of the registry when the protocol
    /// has moved on, on an environment nobody shut down. The worker
    /// factory runs inside the block, so it can look the two counters up
    /// (created right before the first worker) for the test to examine
    /// afterwards.
    fn pool_block_locals(driver: Driver, master_completes: bool) -> MfResult<ProtocolOutcome> {
        let env = Environment::new();
        let locals = Arc::new(Mutex::new(Vec::new()));
        let seen = locals.clone();
        let result = run_protocol(
            &env,
            driver,
            move |h| {
                h.create_pool();
                let _w = h.request_worker()?;
                if master_completes {
                    h.send_work(Unit::real(3.0))?;
                    h.collect()?;
                    h.rendezvous()?;
                    h.finished();
                }
                // Else: gone mid-pool, its one worker still waiting for work.
                Ok(())
            },
            move |coord, death| {
                let worker = squaring_worker(coord, death);
                let env = coord.env();
                let mut seen = seen.lock();
                for back in [2, 1] {
                    let var = env.process(ProcessId(worker.id().0 - back)).unwrap();
                    assert!(var.manifold_name().as_str().starts_with("variable("));
                    seen.push(var);
                }
                seen.push(worker.clone());
                worker
            },
            move |coord| {
                // The pool's block is closed; the coordinator's is still open.
                let env = coord.env();
                assert_eq!(locals.lock().len(), 3);
                for p in locals.lock().iter() {
                    assert_eq!(p.life_state(), LifeState::Terminated, "{p:?}");
                    assert!(env.process(p.id()).is_none(), "{p:?} still registered");
                }
                assert_eq!(env.live_processes(), 2, "coordinator and master");
            },
        );
        assert_eq!(env.live_processes(), 0);
        assert!(
            env.threads_spawned() <= 2,
            "master and worker; neither a counter nor a stepped coordinator ran on one"
        );
        env.shutdown();
        result
    }

    #[test]
    fn pool_locals_die_with_the_pool() {
        for driver in DRIVERS {
            let outcome = pool_block_locals(driver, true).unwrap();
            assert_eq!(outcome.pools()[0].workers_created, 1);
        }
    }

    #[test]
    fn pool_locals_die_with_an_aborted_pool() {
        for driver in DRIVERS {
            let err = pool_block_locals(driver, false).unwrap_err();
            assert!(err.to_string().contains("master terminated inside"));
        }
    }

    #[test]
    fn trace_contains_protocol_messages() {
        for driver in DRIVERS {
            let env = Environment::new();
            run_squares(&env, driver, vec![5.0]);
            let msgs: Vec<String> = env
                .trace()
                .snapshot()
                .into_iter()
                .map(|r| r.message)
                .collect();
            assert!(msgs.iter().any(|m| m == "begin"));
            assert!(msgs.iter().any(|m| m == "create_worker: begin"));
            assert!(msgs.iter().any(|m| m == "rendezvous acknowledged"));
            env.shutdown();
        }
    }
}
