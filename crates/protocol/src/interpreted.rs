//! Running the paper's *source* protocol (`protocolMW.m`) over real master
//! and worker processes — through either coordinator executor.
//!
//! The hand-transliterated [`crate::protocol_mw`] is the native oracle;
//! this module is the other half of the fidelity story: the same §4.3
//! behavior interfaces ([`MasterHandle`], [`WorkerHandle`]) coordinated by
//! the `.m` source itself, executed by the tree-walking interpreter or the
//! compiled state-machine VM ([`CoordExec`]). Integration tests run all
//! three and demand identical results.
//!
//! Where the parties run differs. Under the interpreter the calling thread
//! is the coordinator's and the master runs on a carrier. The compiled
//! coordinator is stepped and needs no thread: it reacts on the thread
//! that raises into it — the master's inside `request_worker`, a worker's
//! inside `die` — and the calling thread runs the master.

use std::sync::Arc;

use manifold::lang::{expect_event_arg, AtomicFactory, CoordExec, Mc, Value};
use manifold::prelude::*;

use crate::{MasterHandle, WorkerHandle};

/// Run `ProtocolMW` from the paper's source under the selected executor.
///
/// `master_body` runs once as the master process (its handle pre-wired to
/// the coordinator); `worker_body` runs for every worker the protocol
/// creates. Workers are created by the interpreted/compiled `process
/// worker is Worker(death_worker).` declaration and — per §4.3 step 3(c) —
/// activated by the master, not here. The master is created but not
/// activated: [`Environment::run_manner`] starts it once the manner has
/// begun, on the calling thread under [`CoordExec::Compiled`].
pub fn run_protocol_source<M, W>(
    env: &Environment,
    kind: CoordExec,
    master_body: M,
    worker_body: W,
) -> MfResult<()>
where
    M: FnOnce(MasterHandle) -> MfResult<()> + Send + 'static,
    W: Fn(WorkerHandle) -> MfResult<()> + Send + Sync + 'static,
{
    let mc = Mc::from_source(manifold::lang::PROTOCOL_MW_SOURCE)?;
    run_protocol_mc(env, &mc, kind, master_body, worker_body)
}

/// As [`run_protocol_source`], but over an already-built [`Mc`] artifact
/// (callers that run many jobs compile once and reuse it).
pub fn run_protocol_mc<M, W>(
    env: &Environment,
    mc: &Mc,
    kind: CoordExec,
    master_body: M,
    worker_body: W,
) -> MfResult<()>
where
    M: FnOnce(MasterHandle) -> MfResult<()> + Send + 'static,
    W: Fn(WorkerHandle) -> MfResult<()> + Send + Sync + 'static,
{
    env.run_manner(mc, kind, "protocolMW.m", "ProtocolMW", |coord| {
        let coord_ref = coord.self_ref();
        let env2 = coord.env().clone();
        // Creating it tunes the coordinator in before it can raise anything.
        let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
            master_body(MasterHandle::new(ctx, coord_ref, env2))
        });

        let worker = Arc::new(worker_body);
        let factory: AtomicFactory = Arc::new(move |coord, args| {
            let death = expect_event_arg(args, 0)?;
            let w = worker.clone();
            Ok(
                coord.create_atomic("Worker(event)", move |ctx: ProcessCtx| {
                    w(WorkerHandle::new(ctx, death.clone()))
                }),
            )
        });

        Ok(vec![Value::Process(master), Value::Manifold(factory)])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn squaring_master(
        jobs: Vec<f64>,
        out: Arc<Mutex<Vec<f64>>>,
    ) -> impl FnOnce(MasterHandle) -> MfResult<()> {
        move |h: MasterHandle| {
            h.create_pool();
            for x in &jobs {
                let _w = h.request_worker()?;
                h.send_work(Unit::real(*x))?;
            }
            for _ in 0..jobs.len() {
                out.lock().push(h.collect()?.expect_real()?);
            }
            h.rendezvous()?;
            h.finished();
            Ok(())
        }
    }

    fn squaring_worker(h: WorkerHandle) -> MfResult<()> {
        let x = h.receive()?.expect_real()?;
        h.submit(Unit::real(x * x))?;
        h.die();
        Ok(())
    }

    fn squares(kind: CoordExec, jobs: Vec<f64>) -> Vec<f64> {
        let env = Environment::new();
        let out = Arc::new(Mutex::new(Vec::new()));
        run_protocol_source(
            &env,
            kind,
            squaring_master(jobs, out.clone()),
            squaring_worker,
        )
        .unwrap();
        env.shutdown();
        assert!(env.failures().is_empty());
        let mut v = out.lock().clone();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn source_protocol_squares_under_both_executors() {
        for kind in CoordExec::ALL {
            assert_eq!(
                squares(kind, vec![2.0, 3.0]),
                vec![4.0, 9.0],
                "executor {kind}"
            );
        }
    }

    #[test]
    fn the_compiled_coordinator_leaves_the_master_to_the_calling_thread() {
        let here = std::thread::current().id();
        for kind in CoordExec::ALL {
            let env = Environment::new();
            let out = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::new(Mutex::new(None));
            let seen2 = seen.clone();
            let master = squaring_master(vec![1.0, 2.0, 3.0], out.clone());
            run_protocol_source(
                &env,
                kind,
                move |h: MasterHandle| {
                    *seen2.lock() = Some(std::thread::current().id());
                    master(h)
                },
                squaring_worker,
            )
            .unwrap();
            let ran_on = seen.lock().expect("the master ran");
            match kind {
                // The stepped coordinator needs no thread: the caller's
                // carries the master.
                CoordExec::Compiled => assert_eq!(ran_on, here),
                // The tree-walker keeps the caller's; the master has a
                // carrier.
                CoordExec::Interp => assert_ne!(ran_on, here),
            }
            assert_eq!(out.lock().len(), 3, "{kind}");
            assert_eq!(env.live_processes(), 0, "{kind}");
            env.shutdown();
            assert!(env.failures().is_empty(), "{kind}");
        }
    }

    #[test]
    fn the_compiled_coordinator_calls_its_factory_on_the_raisers_thread() {
        // `Main` hands `ProtocolMW` its master. `run_manner` runs `first`,
        // the first unstarted argument, on the calling thread, where it
        // waits for the master to be done; the master is activated once the
        // coordinator's first step has returned, so it has a carrier, and
        // its `raise(create_worker)` steps the coordinator there — the step
        // that calls the `Worker` factory. With one worker, no other thread
        // is stepping the coordinator meanwhile.
        let src = format!(
            "{}\nmanner Main(process first, process master, manifold Worker(event)) {{\n    \
             begin: ProtocolMW(master, Worker).\n}}\n",
            manifold::lang::PROTOCOL_MW_SOURCE
        );
        let mc = Mc::from_source(&src).unwrap();
        let env = Environment::new();
        let here = std::thread::current().id();
        let master_thread = Arc::new(Mutex::new(None));
        let factory_threads: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let (mt, ft) = (master_thread.clone(), factory_threads.clone());
        let out = Arc::new(Mutex::new(Vec::new()));
        let master = squaring_master(vec![4.0], out.clone());
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        env.run_manner(&mc, CoordExec::Compiled, "protocolMW.m", "Main", |coord| {
            let first = coord.create_atomic("First", move |_ctx: ProcessCtx| {
                let _ = done_rx.recv();
                Ok(())
            });
            let (coord_ref, env2) = (coord.self_ref(), coord.env().clone());
            let m = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                *mt.lock() = Some(std::thread::current().id());
                let done = master(MasterHandle::new(ctx, coord_ref, env2));
                let _ = done_tx.send(());
                done
            });
            let factory: AtomicFactory = Arc::new(move |coord, args| {
                ft.lock().push(std::thread::current().id());
                let death = expect_event_arg(args, 0)?;
                Ok(
                    coord.create_atomic("Worker(event)", move |ctx: ProcessCtx| {
                        squaring_worker(WorkerHandle::new(ctx, death.clone()))
                    }),
                )
            });
            Ok(vec![
                Value::Process(first),
                Value::Process(m),
                Value::Manifold(factory),
            ])
        })
        .unwrap();
        let master_thread = master_thread.lock().expect("the master ran");
        assert_ne!(master_thread, here, "the master had a carrier");
        assert_eq!(*factory_threads.lock(), vec![master_thread]);
        assert_eq!(*out.lock(), vec![16.0]);
        assert_eq!(env.live_processes(), 0);
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    #[test]
    fn shutdown_ends_a_manner_idling_in_terminated_void_under_both_executors() {
        let mc = Mc::from_source("manner Idle() { begin: (MES(\"idle\"), terminated (void)). }")
            .unwrap();
        let ended: Vec<MfResult<()>> = CoordExec::ALL
            .into_iter()
            .map(|kind| {
                let env = Environment::new();
                let start = env.live_processes();
                let env2 = env.clone();
                let stopper = std::thread::spawn(move || {
                    // In the state body, and — a moment later — waiting.
                    while env2.trace().is_empty() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    env2.shutdown();
                });
                let r = env.run_manner(&mc, kind, "idle.m", "Idle", |_| Ok(Vec::new()));
                stopper.join().unwrap();
                assert_eq!(env.live_processes(), start, "{kind}");
                r
            })
            .collect();
        assert_eq!(ended[0], Err(MfError::Killed));
        assert_eq!(ended[0], ended[1], "both executors return the same");
    }
}
