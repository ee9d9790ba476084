//! Proxy workers: running the worker side of the protocol on a *remote*
//! task instance.
//!
//! [`remote_worker_factory`] produces workers that are, to
//! [`crate::protocol_mw`] and to the master, indistinguishable from local
//! ones — same ports, same death event, same protocol steps. A proxy only
//! forwards one unit each way, so it is a *stepped* process: it has no
//! thread, and each of its steps runs on the thread that made it possible.
//! The master's `send_work` puts the job on the proxy's input port and
//! thereby steps it, so the job is handed to the [`JobFleet`] — on an idle
//! connection, written to the socket — by the master's own thread; the
//! thread that learns the outcome steps it again, and that step submits
//! the answer and dies. The proxy also adopts the [`RemoteIdentity`] of
//! the instance its job lands on, so §6 trace lines it emits carry the
//! *real* host executing the work.
//!
//! ## Failure semantics
//!
//! If the fleet reports the job lost (connection drop, heartbeat silence,
//! an error on the far side, no instance left), the proxy
//!
//! 1. raises [`WORKER_LOST`] (an ordinary MANIFOLD event — observers of
//!    the pool coordinator see it through the normal event mechanism), and
//! 2. submits a *lost-job marker* — a tagged tuple wrapping the original
//!    job — to its output port, which the `KK` stream of
//!    `Create_Worker_Pool` delivers to the master's `dataport`.
//!
//! Then it raises the death event and terminates like any worker, keeping
//! the pool's rendezvous arithmetic intact. The master recognizes the
//! marker with [`as_lost_job`] and re-dispatches the wrapped job to a
//! fresh worker (bounded by its retry budget), so a killed worker process
//! costs one round-trip, not the run.
//!
//! [`RemoteIdentity`]: manifold::remote::RemoteIdentity

use std::sync::Arc;

use manifold::mes;
use manifold::prelude::*;
use manifold::remote::{JobFleet, Lost};
use parking_lot::Mutex;

/// Event a proxy raises when its remote instance is declared dead.
pub const WORKER_LOST: &str = "worker_lost";

/// First element of a lost-job marker tuple.
const LOST_TAG: &str = "__worker_lost";

/// Wrap an undelivered job in a marker the master can recognize on its
/// `dataport`. `instance` is the remote instance the job was lost on
/// (`u64::MAX` when it never reached one).
pub fn lost_job_marker(job: Unit, instance: u64, reason: &str) -> Unit {
    Unit::tuple(vec![
        Unit::text(LOST_TAG),
        Unit::int(instance as i64),
        Unit::text(reason),
        job,
    ])
}

/// If `unit` is a lost-job marker, return `(instance, reason, job)`.
pub fn as_lost_job(unit: &Unit) -> Option<(u64, &str, &Unit)> {
    let items = unit.as_tuple()?;
    match items {
        [tag, instance, reason, job] if tag.as_text() == Some(LOST_TAG) => {
            Some((instance.as_int()? as u64, reason.as_text()?, job))
        }
        _ => None,
    }
}

/// Where a proxy is in its one job.
enum Proxy {
    /// Step 1 not done yet: no job on the input port so far.
    AwaitingJob,
    /// The fleet has the job; its outcome lands in the shared cell.
    InFlight { job: Unit },
    /// Step 3 not done yet: `output` had no stream when we last tried.
    Submitting { unit: Unit, say_bye: bool },
}

/// Worker factory whose workers delegate their job to a remote task
/// instance of `fleet` — the `--backend procs` counterpart of a computing
/// worker factory. Plug into [`crate::protocol_mw`] unchanged.
///
/// The factory runs once per dispatch, between the master asking for a
/// worker and holding its reference, so this is where the dispatch's
/// placement hint ([`JobFleet::take_hint`]) is bound to its proxy.
pub fn remote_worker_factory(fleet: Arc<dyn JobFleet>) -> impl FnMut(&Coord, &Name) -> ProcessRef {
    move |coord, death_event| {
        let death = death_event.clone();
        let fleet = Arc::clone(&fleet);
        let hint = fleet.take_hint();
        let outcome: Arc<Mutex<Option<Result<Unit, Lost>>>> = Arc::new(Mutex::new(None));
        let mut state = Proxy::AwaitingJob;
        coord.create_stepped("Worker(event)", move |ctx: &ProcessCtx| loop {
            match &state {
                Proxy::AwaitingJob => {
                    // Step 1: the job, from our own input port.
                    let Some(job) = ctx.try_read("input") else {
                        return Ok(Step::Pending);
                    };
                    state = Proxy::InFlight { job: job.clone() };
                    let welcomed = ctx.clone();
                    let (cell, waker) = (Arc::clone(&outcome), ctx.waker());
                    fleet.submit(
                        hint,
                        job,
                        // Trace lines from here on carry the remote identity.
                        Box::new(move |_instance, identity| {
                            welcomed.set_remote_identity(identity);
                            mes!(welcomed, "Welcome");
                        }),
                        Box::new(move |result| {
                            *cell.lock() = Some(result);
                            waker.wake();
                        }),
                    );
                }
                Proxy::InFlight { job } => {
                    // Step 2 happens elsewhere; we are woken with its outcome.
                    let Some(result) = outcome.lock().take() else {
                        return Ok(Step::Pending);
                    };
                    state = match result {
                        Ok(unit) => Proxy::Submitting {
                            unit,
                            say_bye: true,
                        },
                        Err(lost) => {
                            match lost.instance {
                                Some(instance) => {
                                    mes!(ctx, "worker lost: instance {instance}: {}", lost.reason)
                                }
                                None => {
                                    mes!(ctx, "worker lost: no instance available: {}", lost.reason)
                                }
                            }
                            ctx.raise(WORKER_LOST);
                            Proxy::Submitting {
                                unit: lost_job_marker(
                                    job.clone(),
                                    lost.instance.unwrap_or(u64::MAX),
                                    &lost.reason,
                                ),
                                say_bye: lost.instance.is_some(),
                            }
                        }
                    };
                }
                Proxy::Submitting { unit, say_bye } => {
                    // Step 3: the answer (or the marker) to our own output
                    // port — when the coordinator has connected it.
                    if !ctx.try_write("output", unit.clone())? {
                        return Ok(Step::Pending);
                    }
                    if *say_bye {
                        mes!(ctx, "Bye");
                    }
                    // Step 4: die like any worker, keeping rendezvous
                    // counting intact.
                    ctx.raise(death.clone());
                    return Ok(Step::Done);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{protocol_mw, MasterHandle};
    use manifold::config::HostName;
    use manifold::remote::{Completion, RemoteIdentity, Started};

    #[test]
    fn lost_job_marker_round_trips() {
        let job = Unit::tuple(vec![Unit::int(3), Unit::real(0.5)]);
        let marker = lost_job_marker(job.clone(), 7, "connection closed");
        let (instance, reason, wrapped) = as_lost_job(&marker).unwrap();
        assert_eq!(instance, 7);
        assert_eq!(reason, "connection closed");
        assert_eq!(wrapped, &job);
        // Ordinary payloads are not markers.
        assert!(as_lost_job(&job).is_none());
        assert!(as_lost_job(&Unit::int(1)).is_none());
        assert!(as_lost_job(&Unit::tuple(vec![Unit::text("__worker_lost")])).is_none());
    }

    /// Fleet that squares reals on a thread of its own per job, failing on
    /// the unlucky 13.
    struct Squarer {
        calls: Arc<Mutex<Vec<f64>>>,
    }
    impl JobFleet for Squarer {
        fn submit(&self, _hint: Option<u64>, job: Unit, started: Started, done: Completion) {
            let calls = self.calls.clone();
            std::thread::spawn(move || {
                started(
                    4,
                    RemoteIdentity {
                        host: HostName::new("far-node"),
                        task_uid: 9,
                    },
                );
                let x = job.expect_real().unwrap();
                calls.lock().push(x);
                done(if x == 13.0 {
                    Err(Lost {
                        instance: Some(4),
                        reason: "instance crashed".into(),
                    })
                } else {
                    Ok(Unit::real(x * x))
                });
            });
        }
    }

    #[test]
    fn proxy_workers_run_the_protocol_end_to_end() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let fleet: Arc<dyn JobFleet> = Arc::new(Squarer {
            calls: calls.clone(),
        });
        let collected = Arc::new(Mutex::new(Vec::new()));
        let collected2 = collected.clone();
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let coord_ref = coord.self_ref();
            let env2 = coord.env().clone();
            let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                let h = MasterHandle::new(ctx, coord_ref, env2);
                h.create_pool();
                for x in [2.0, 3.0] {
                    let _w = h.request_worker()?;
                    h.send_work(Unit::real(x))?;
                }
                for _ in 0..2 {
                    collected2.lock().push(h.collect()?.expect_real()?);
                }
                h.rendezvous()?;
                h.finished();
                Ok(())
            });
            coord.activate(&master)?;
            protocol_mw(coord, &master, remote_worker_factory(fleet))
        })
        .unwrap();
        // The master and the coordinator: not one thread for a proxy.
        assert_eq!(env.threads_spawned(), 1);
        env.shutdown();
        assert!(env.failures().is_empty());

        let mut got = collected.lock().clone();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![4.0, 9.0]);
        assert_eq!(calls.lock().len(), 2);

        // The proxies' trace lines carry the remote identity.
        let remote_lines: Vec<_> = env
            .trace()
            .snapshot()
            .into_iter()
            .filter(|r| r.host.as_str() == "far-node")
            .collect();
        assert!(
            remote_lines.iter().any(|r| r.message == "Welcome"),
            "expected remote-labelled Welcome lines"
        );
        assert!(remote_lines.iter().all(|r| r.task_uid == 9));
    }

    #[test]
    fn lost_instance_surfaces_marker_and_event() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let fleet: Arc<dyn JobFleet> = Arc::new(Squarer {
            calls: calls.clone(),
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let coord_ref = coord.self_ref();
            let env2 = coord.env().clone();
            let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                let h = MasterHandle::new(ctx, coord_ref, env2);
                h.create_pool();
                let _w = h.request_worker()?;
                h.send_work(Unit::real(13.0))?;
                let unit = h.collect()?;
                let (instance, reason, job) = as_lost_job(&unit).expect("must be a marker");
                seen2
                    .lock()
                    .push((instance, reason.to_string(), job.clone()));
                // Re-dispatch the recovered job to a fresh worker.
                let _w = h.request_worker()?;
                h.send_work(Unit::real(job.expect_real()? + 1.0))?;
                let ok = h.collect()?.expect_real()?;
                assert_eq!(ok, 196.0);
                h.rendezvous()?;
                h.finished();
                Ok(())
            });
            coord.activate(&master)?;
            protocol_mw(coord, &master, remote_worker_factory(fleet))
        })
        .unwrap();
        env.shutdown();
        assert!(env.failures().is_empty());

        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 4);
        assert!(seen[0].1.contains("crashed"));
        assert_eq!(seen[0].2, Unit::real(13.0));

        // The worker_lost event travelled through the event mechanism and
        // was observed (it shows up in the trace via the proxy's message).
        let msgs: Vec<String> = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert!(msgs.iter().any(|m| m.starts_with("worker lost")));
    }
}
