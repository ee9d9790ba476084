//! The `ProtocolMW` and `Create_Worker_Pool` manners.
//!
//! A transliteration of `protocolMW.m` (§4.2) into the `manifold` crate's
//! embedded DSL. Comments quote the original line numbers so the two can be
//! read side by side.

use std::sync::atomic::{AtomicUsize, Ordering};

use manifold::builtin::Variable;
use manifold::mes;
use manifold::prelude::*;

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
/// keeps running totals across every master served, while each
/// [`PerpetualPool::serve`] call returns a per-job [`ProtocolOutcome`]
/// carrying only that job's pools (so single-job callers still see
/// `pools().len() == 1` per `create_pool`). Masters may be served one
/// after another or side by side — each `serve` call runs on its own
/// coordinator and shares nothing with the others but these totals.
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

    /// Serve one master to completion: the `ProtocolMW` begin loop
    /// (lines 54–64), scoped to this job. The returned outcome carries
    /// only the pools created by *this* master; their totals are also
    /// added to the fleet-lifetime statistics.
    pub fn serve(
        &self,
        coord: &Coord,
        master: &ProcessRef,
        worker_factory: &mut dyn FnMut(&Coord, &Name) -> ProcessRef,
    ) -> MfResult<ProtocolOutcome> {
        // Entering the manner's block makes the coordinator sensitive to
        // the master's events (the `terminated(master)` in the begin
        // state body).
        coord.watch(master);
        let mut pools = Vec::new();
        let outcome = loop {
            // begin: terminated(master).           (line 59)
            let st = coord.state();
            match st.until_terminated(master, &[CREATE_POOL.into(), FINISHED.into()])? {
                // create_pool: Create_Worker_Pool(master, Worker); post(begin).
                StateExit::Event(e) if e.name().is_some_and(|n| n == CREATE_POOL) => {
                    let stats = create_worker_pool(coord, master, &mut &mut *worker_factory)?;
                    pools.push(stats);
                    // `post(begin)` — the loop continues back to the begin wait.
                }
                // finished: halt.                   (line 63)
                StateExit::Event(_) => break ProtocolOutcome::Finished { pools },
                StateExit::Terminated(_) => break ProtocolOutcome::MasterTerminated { pools },
            }
        };
        self.workers_created
            .fetch_add(outcome.workers_created(), Ordering::Relaxed);
        self.jobs_served.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
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
/// One-shot form: serves a single master over a throwaway
/// [`PerpetualPool`]. Multi-job callers hold a `PerpetualPool` themselves
/// and call [`PerpetualPool::serve`] once per master.
pub fn protocol_mw(
    coord: &Coord,
    master: &ProcessRef,
    mut worker_factory: impl FnMut(&Coord, &Name) -> ProcessRef,
) -> MfResult<ProtocolOutcome> {
    PerpetualPool::new().serve(coord, master, &mut worker_factory)
}

/// `manner Create_Worker_Pool(process master, manifold Worker(event))` —
/// lines 11–51.
pub fn create_worker_pool(
    coord: &Coord,
    master: &ProcessRef,
    worker_factory: &mut impl FnMut(&Coord, &Name) -> ProcessRef,
) -> MfResult<PoolStats> {
    let death_event = Name::new(DEATH_WORKER);
    // Block declarations (lines 15–23): `save *.` is implicit in our event
    // memory (unhandled events stay saved); `ignore death.` is applied on
    // exit by `with_ignore`; `now` and `t` are instances of the predefined
    // `variable` manifold (lines 18–19) and, being `auto`, die with the
    // block — as does every worker the block creates, which is what the
    // scope is for; the priority declaration `create_worker > rendezvous`
    // (line 23) becomes pattern order. The scope closes inside
    // `with_ignore`, so a worker unwinding on the error path cannot leave
    // a `death_worker` behind the purge.
    coord.with_ignore(&[DEATH_WORKER], |coord| {
        coord.scope(|coord| {
            let now = Variable::spawn(coord, "now", Unit::int(0))?;
            let t = Variable::spawn(coord, "t", Unit::int(0))?;

            // Every wait inside the pool is also sensitive to the master's
            // termination: a master that *fails* mid-pool (e.g. its lost-worker
            // retry budget runs out) must abort the pool instead of leaving the
            // coordinator idling forever on events no one will raise. In the
            // normal course the master cannot terminate here — it is blocked on
            // `a_rendezvous` until the pool ends — so this changes nothing for
            // a healthy run. Pending events still take precedence.
            fn master_died() -> MfError {
                MfError::App("master terminated inside an active worker pool".into())
            }

            // begin: (MES("begin"), preemptall, IDLE).          (line 25)
            mes!(coord.ctx(), "begin");
            let mut pending = {
                let st = coord.state();
                match st.until_terminated(master, &[CREATE_WORKER.into(), RENDEZVOUS.into()])? {
                    StateExit::Event(e) => e,
                    StateExit::Terminated(_) => return Err(master_died()),
                }
            };

            loop {
                match pending.name().map(Name::as_str) {
                    // create_worker: (lines 27–37)
                    Some(CREATE_WORKER) => {
                        // hold worker. / process worker is Worker(death_worker).
                        let worker = worker_factory(coord, &death_event);
                        // stream KK worker -> master.dataport.    (line 32)
                        // begin: now = now + 1;                    (line 34)
                        now.add(1);
                        mes!(coord.ctx(), "create_worker: begin");
                        // &worker -> master -> worker -> master.dataport, IDLE.
                        let mut st = coord.state();
                        st.send_ref(&worker, master, "input")?;
                        st.connect(master, "output", &worker, "input", StreamType::BK)?;
                        st.connect(&worker, "output", master, "dataport", StreamType::KK)?;
                        pending = match st
                            .until_terminated(master, &[CREATE_WORKER.into(), RENDEZVOUS.into()])?
                        {
                            StateExit::Event(e) => e,
                            StateExit::Terminated(_) => return Err(master_died()),
                        };
                        // Preemption dismantled the BK streams; the KK result
                        // stream stays intact (it must survive to transport a
                        // remote worker's results to the master).
                    }
                    // rendezvous: (lines 39–48)
                    Some(RENDEZVOUS) => {
                        // The guard runs *before* the first wait: a pool that
                        // created no workers (e.g. a resumed run whose
                        // checkpoint already held every result) must
                        // acknowledge at once instead of idling on a
                        // death_worker no one will raise.
                        while t.get_int() < now.get_int() {
                            // begin: (preemptall, IDLE) — wait for death_worker.
                            let st = coord.state();
                            let _death =
                                match st.until_terminated(master, &[DEATH_WORKER.into()])? {
                                    StateExit::Event(e) => e,
                                    StateExit::Terminated(_) => return Err(master_died()),
                                };
                            // death_worker: t = t + 1; post(begin).
                            t.add(1);
                        }
                        // end: (MES(...), raise(a_rendezvous)).    (line 50)
                        mes!(coord.ctx(), "rendezvous acknowledged");
                        coord.raise(A_RENDEZVOUS);
                        return Ok(PoolStats {
                            workers_created: now.get_int() as usize,
                            deaths_counted: t.get_int() as usize,
                        });
                    }
                    other => {
                        return Err(MfError::App(format!(
                            "Create_Worker_Pool: unexpected event {other:?}"
                        )))
                    }
                }
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handles::{MasterHandle, WorkerHandle};
    use manifold::ident::ProcessId;
    use manifold::process::LifeState;
    use std::time::Duration;

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
    fn run_squares(env: &Environment, jobs: Vec<f64>) -> Vec<f64> {
        let n = jobs.len();
        let out = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let out2 = out.clone();
        let result = env.run_coordinator("Main", |coord| {
            let env2 = coord.env().clone();
            let coord_ref = coord.self_ref();
            let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                let h = MasterHandle::new(ctx, coord_ref, env2);
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
            });
            coord.activate(&master)?;
            protocol_mw(coord, &master, squaring_worker)
        });
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
        let env = Environment::new();
        let got = run_squares(&env, vec![2.0, 3.0, 4.0]);
        assert_eq!(got, vec![4.0, 9.0, 16.0]);
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    #[test]
    fn empty_jobs_pool_never_created() {
        // A master that immediately raises finished.
        let env = Environment::new();
        let outcome = env
            .run_coordinator("Main", |coord| {
                let coord_ref = coord.self_ref();
                let env2 = coord.env().clone();
                let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                    let h = MasterHandle::new(ctx, coord_ref, env2);
                    h.finished();
                    Ok(())
                });
                coord.activate(&master)?;
                protocol_mw(coord, &master, squaring_worker)
            })
            .unwrap();
        assert_eq!(outcome, ProtocolOutcome::Finished { pools: vec![] });
        env.shutdown();
    }

    #[test]
    fn empty_pool_rendezvous_acknowledges_immediately() {
        // A pool with zero workers (a fully-resumed run dispatches
        // nothing) must not wait for death_worker events.
        let env = Environment::new();
        let outcome = env
            .run_coordinator("Main", |coord| {
                let coord_ref = coord.self_ref();
                let env2 = coord.env().clone();
                let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                    let h = MasterHandle::new(ctx, coord_ref, env2);
                    h.create_pool();
                    h.rendezvous()?;
                    h.finished();
                    Ok(())
                });
                coord.activate(&master)?;
                protocol_mw(coord, &master, squaring_worker)
            })
            .unwrap();
        assert_eq!(outcome.pools().len(), 1);
        assert_eq!(outcome.pools()[0].workers_created, 0);
        assert_eq!(outcome.pools()[0].deaths_counted, 0);
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    #[test]
    fn master_termination_ends_protocol() {
        // A master that dies without raising finished.
        let env = Environment::new();
        let outcome = env
            .run_coordinator("Main", |coord| {
                let master = coord.create_atomic("Master(port in)", move |_ctx: ProcessCtx| Ok(()));
                coord.activate(&master)?;
                protocol_mw(coord, &master, squaring_worker)
            })
            .unwrap();
        assert!(matches!(outcome, ProtocolOutcome::MasterTerminated { .. }));
        env.shutdown();
    }

    #[test]
    fn demanding_master_runs_multiple_pools() {
        // The §4.2 note: a master may raise create_pool again instead of
        // finished, and the protocol must serve another pool.
        let env = Environment::new();
        let outcome = env
            .run_coordinator("Main", |coord| {
                let coord_ref = coord.self_ref();
                let env2 = coord.env().clone();
                let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                    let h = MasterHandle::new(ctx, coord_ref, env2);
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
                });
                coord.activate(&master)?;
                protocol_mw(coord, &master, squaring_worker)
            })
            .unwrap();
        let pools = outcome.pools();
        assert_eq!(pools.len(), 3);
        assert_eq!(
            pools.iter().map(|p| p.workers_created).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    #[test]
    fn many_workers_single_pool() {
        let env = Environment::new();
        let jobs: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let got = run_squares(&env, jobs.clone());
        let want: Vec<f64> = jobs.iter().map(|x| x * x).collect();
        assert_eq!(got, want);
        env.shutdown();
    }

    #[test]
    fn workers_all_die_before_acknowledgement() {
        // After rendezvous() returns, every worker must have terminated.
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let coord_ref = coord.self_ref();
            let env2 = coord.env().clone();
            let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                let h = MasterHandle::new(ctx, coord_ref, env2);
                h.create_pool();
                let w1 = h.request_worker()?;
                h.send_work(Unit::real(1.0))?;
                let w2 = h.request_worker()?;
                h.send_work(Unit::real(2.0))?;
                let _ = h.collect()?;
                let _ = h.collect()?;
                h.rendezvous()?;
                // Workers raised death_worker before dying; the coordinator
                // acknowledged only after counting all of them. The workers
                // may still be a few instructions from actually exiting, so
                // join with a timeout.
                w1.core().wait_terminated(Duration::from_secs(5))?;
                w2.core().wait_terminated(Duration::from_secs(5))?;
                h.finished();
                Ok(())
            });
            coord.activate(&master)?;
            protocol_mw(coord, &master, squaring_worker)
        })
        .unwrap();
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    /// Run one pool whose master either completes it or terminates inside
    /// it, and check that what the pool's block declared — `now`, `t`, the
    /// worker — is terminated and out of the registry when
    /// `create_worker_pool` has returned, on an environment nobody shut
    /// down. The worker factory runs inside the block, so it can look the
    /// two counters up (created right before the first worker) for the
    /// test to examine afterwards.
    fn pool_block_locals(master_completes: bool) -> MfResult<ProtocolOutcome> {
        let env = Environment::new();
        let locals = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen = locals.clone();
        let result = env.run_coordinator("Main", |coord| {
            let coord_ref = coord.self_ref();
            let env2 = coord.env().clone();
            let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                let h = MasterHandle::new(ctx, coord_ref, env2);
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
            });
            coord.activate(&master)?;
            let result = protocol_mw(coord, &master, |coord, death| {
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
            });
            // The pool's block is closed; the coordinator's is still open.
            let env = coord.env();
            assert_eq!(locals.lock().len(), 3);
            for p in locals.lock().iter() {
                assert_eq!(p.life_state(), LifeState::Terminated, "{p:?}");
                assert!(env.process(p.id()).is_none(), "{p:?} still registered");
            }
            assert_eq!(env.live_processes(), 2, "coordinator and master");
            result
        });
        assert_eq!(env.live_processes(), 0);
        assert_eq!(
            env.threads_spawned(),
            2,
            "master and worker; no counter ran"
        );
        env.shutdown();
        result
    }

    #[test]
    fn pool_locals_die_with_the_pool() {
        let outcome = pool_block_locals(true).unwrap();
        assert_eq!(outcome.pools()[0].workers_created, 1);
    }

    #[test]
    fn pool_locals_die_with_an_aborted_pool() {
        let err = pool_block_locals(false).unwrap_err();
        assert!(err.to_string().contains("master terminated inside"));
    }

    #[test]
    fn trace_contains_protocol_messages() {
        let env = Environment::new();
        run_squares(&env, vec![5.0]);
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
