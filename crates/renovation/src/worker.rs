//! The Worker wrapper: `subsolve` behind the §4.3 worker interface.
//!
//! "The master and worker manifolds are easy to write as C wrappers around
//! the original C subroutines of the sequential version" (§5). This is that
//! wrapper: the numerical core ([`solver::subsolve()`]) is reused untouched;
//! the wrapper only performs the four protocol steps — read, compute,
//! write, raise `death_worker` — plus the `Welcome`/`Bye` messages the
//! paper's chronological output shows.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use manifold::mes;
use manifold::prelude::*;
use protocol::{lost_job_marker, WorkerHandle, WORKER_LOST};

use crate::codec::{batch_results_to_unit, requests_from_unit, result_to_unit};

/// Concurrency gauge over worker compute sections.
///
/// A worker registers after it has read its job and deregisters *before*
/// writing its result, so by the time the master can collect a result the
/// gauge no longer counts that worker. Under windowed dispatch at most
/// `window` jobs are outstanding at once, making the observed peak a
/// deterministic upper-bounded measure of worker concurrency (and hence of
/// simultaneously computing OS threads in a parallel run).
///
/// One gauge spans a whole fleet. A job that wants the peak *while it
/// ran* opens one of the gauge's windows when it starts and reads it when
/// it ends; with several jobs sharing the fleet each holds a window of its
/// own, and what it reads is the fleet's peak over its lifetime — the
/// other jobs' workers included, because they were competing for the same
/// workers.
#[derive(Debug)]
pub struct WorkerGauge {
    alive: AtomicUsize,
    windows: Box<[AtomicUsize]>,
}

impl WorkerGauge {
    /// A gauge for a fleet running up to `windows` jobs at once.
    pub fn with_windows(windows: usize) -> Arc<Self> {
        Arc::new(WorkerGauge {
            alive: AtomicUsize::new(0),
            windows: (0..windows.max(1)).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    pub(crate) fn enter(&self) {
        let now = self.alive.fetch_add(1, Ordering::SeqCst) + 1;
        for w in self.windows.iter() {
            w.fetch_max(now, Ordering::SeqCst);
        }
    }

    pub(crate) fn exit(&self) {
        self.alive.fetch_sub(1, Ordering::SeqCst);
    }

    /// Start window `i` from the current occupancy.
    pub fn open_window(&self, i: usize) {
        self.windows[i].store(self.alive.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// The peak since window `i` was last opened.
    pub fn window_peak(&self, i: usize) -> usize {
        self.windows[i].load(Ordering::SeqCst)
    }
}

/// Fault-plan state shared by every worker of a threads run. Jobs are
/// counted pool-wide (each worker process computes exactly one job, so the
/// pool-wide count is the analogue of a remote instance's per-incarnation
/// count), and the faults a thread worker *can* express are injected at
/// the counted job:
///
/// * a crash becomes a lost-job marker + [`WORKER_LOST`] — exactly the
///   failure surface a died remote instance presents to the master;
/// * a stall becomes a sleep inside the compute section;
/// * wire-level faults (frame corruption, connection drop, heartbeat
///   delay) have no transport to act on here and are inert by design —
///   the procs backend exercises those.
#[derive(Debug)]
struct ThreadChaos {
    jobs_seen: AtomicU64,
    faults: chaos::WorkerFaults,
}

fn make_worker(
    coord: &Coord,
    death_event: &Name,
    gauge: Option<Arc<WorkerGauge>>,
    chaos: Option<Arc<ThreadChaos>>,
) -> ProcessRef {
    let death = death_event.clone();
    coord.create_atomic("Worker(event)", move |ctx: ProcessCtx| {
        let h = WorkerHandle::new(ctx, death);
        mes!(h.ctx(), "Welcome");
        // Step 1: read the job from our own input port.
        let job = h.receive()?;
        if let Some(ch) = &chaos {
            let n = ch.jobs_seen.fetch_add(1, Ordering::SeqCst) + 1;
            if ch.faults.crash_on_job == Some(n) {
                mes!(h.ctx(), "worker lost: chaos crash on job {n}");
                h.ctx().raise(WORKER_LOST);
                h.submit(lost_job_marker(job, n, "chaos: injected worker crash"))?;
                mes!(h.ctx(), "Bye");
                h.die();
                return Ok(());
            }
            if let Some((at, ms)) = ch.faults.stall_on_job {
                if at == n {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
        }
        let (reqs, batched) = requests_from_unit(&job)?;
        // Step 2: the computational job (the untouched legacy core). A
        // bundled job runs through the batched multi-RHS path, which is
        // bit-identical per request to the sequential core.
        if let Some(g) = &gauge {
            g.enter();
        }
        let computed: Result<Unit, String> = if batched {
            let mut bws = solver::BatchWorkspace::new();
            let results = solver::subsolve_batch(&reqs, &mut bws);
            let mut ok = Vec::with_capacity(results.len());
            let mut failure = None;
            for (req, r) in reqs.iter().zip(results) {
                match r {
                    Ok(res) => ok.push(res),
                    Err(e) => {
                        failure = Some(format!("subsolve({}, {}): {e}", req.l, req.m));
                        break;
                    }
                }
            }
            match failure {
                Some(f) => Err(f),
                None => Ok(batch_results_to_unit(&ok)),
            }
        } else {
            let req = &reqs[0];
            solver::subsolve(req)
                .map(|res| result_to_unit(&res))
                .map_err(|e| format!("subsolve({}, {}): {e}", req.l, req.m))
        };
        if let Some(g) = &gauge {
            g.exit();
        }
        // Step 3: write the results to our own output port.
        h.submit(computed.map_err(MfError::App)?)?;
        // Step 4: signal death and return.
        mes!(h.ctx(), "Bye");
        h.die();
        Ok(())
    })
}

/// Create (but do not activate) one Worker process instance — the factory
/// passed to [`protocol::protocol_mw`], standing in for the
/// `manifold Worker(event) atomic.` declaration of `mainprog.m`.
pub fn worker_factory(coord: &Coord, death_event: &Name) -> ProcessRef {
    make_worker(coord, death_event, None, None)
}

/// Like [`worker_factory`], but every created worker reports its compute
/// section to `gauge`, so a run can verify that a bounded dispatch policy
/// really caps worker concurrency.
pub fn worker_factory_with_gauge(
    gauge: Arc<WorkerGauge>,
) -> impl Fn(&Coord, &Name) -> ProcessRef + Send + Sync {
    move |coord, death_event| make_worker(coord, death_event, Some(gauge.clone()), None)
}

/// [`worker_factory_with_gauge`] plus an injected fault schedule: the
/// threads backend's half of the chaos engine (see [`ThreadChaos`] for
/// which faults apply). All workers of a run share one job counter, so a
/// `FaultPlan`'s `crash:i@n` fires exactly once pool-wide.
pub fn worker_factory_chaos(
    gauge: Arc<WorkerGauge>,
    faults: chaos::WorkerFaults,
) -> impl Fn(&Coord, &Name) -> ProcessRef + Send + Sync {
    let chaos = Arc::new(ThreadChaos {
        jobs_seen: AtomicU64::new(0),
        faults,
    });
    move |coord, death_event| {
        make_worker(coord, death_event, Some(gauge.clone()), Some(chaos.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{batch_request_to_unit, request_to_unit, result_from_unit};
    use solver::problem::Problem;
    use solver::subsolve::SubsolveRequest;
    use std::time::Duration;

    #[test]
    fn worker_computes_one_job_and_dies() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let death = Name::new("death_worker");
            let w = worker_factory(coord, &death);
            coord.activate(&w)?;
            let req = SubsolveRequest::for_grid(2, 1, 1, 1e-3, Problem::manufactured_benchmark());
            let mut st = coord.state();
            st.send(request_to_unit(&req), &w, "input")?;
            st.connect_to_self(&w, "output", "input", StreamType::KK)?;
            let occ = st.idle(&["death_worker".into()])?;
            assert_eq!(occ.source, w.id());
            let res = result_from_unit(&coord.read("input")?).unwrap();
            assert_eq!((res.l, res.m), (1, 1));
            // Identical to calling the core directly.
            let direct = solver::subsolve(&req).unwrap();
            assert_eq!(res.values, direct.values);
            w.core().wait_terminated(Duration::from_secs(10))?;
            Ok(())
        })
        .unwrap();
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    #[test]
    fn worker_computes_a_same_shape_bundle_bit_identically() {
        // Three jobs on the *same* grid with different tolerances: the
        // bundle rides the multi-RHS batched integrator inside the worker
        // and must come back bit-identical, per request, to the
        // sequential core.
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let death = Name::new("death_worker");
            let w = worker_factory(coord, &death);
            coord.activate(&w)?;
            let reqs: Vec<SubsolveRequest> = [1e-3, 2e-4, 5e-3]
                .iter()
                .map(|&tol| {
                    SubsolveRequest::for_grid(2, 2, 1, tol, Problem::manufactured_benchmark())
                })
                .collect();
            let mut st = coord.state();
            st.send(batch_request_to_unit(&reqs), &w, "input")?;
            st.connect_to_self(&w, "output", "input", StreamType::KK)?;
            let occ = st.idle(&["death_worker".into()])?;
            assert_eq!(occ.source, w.id());
            let results = crate::codec::results_from_unit(&coord.read("input")?).unwrap();
            assert_eq!(results.len(), reqs.len());
            for (req, res) in reqs.iter().zip(&results) {
                let direct = solver::subsolve(req).unwrap();
                assert_eq!((res.l, res.m), (req.l, req.m));
                assert_eq!(res.values, direct.values);
                assert_eq!(res.steps, direct.steps);
                assert_eq!(res.work.flops, direct.work.flops);
            }
            // The bundle really took the batched path: cohort widths were
            // recorded for the multi-RHS sweeps.
            assert!(results.iter().any(|r| r.work.batched_rhs > 0));
            w.core().wait_terminated(Duration::from_secs(10))?;
            Ok(())
        })
        .unwrap();
        env.shutdown();
        assert!(env.failures().is_empty());
    }

    #[test]
    fn worker_rejects_garbage_input() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let death = Name::new("death_worker");
            let w = worker_factory(coord, &death);
            coord.activate(&w)?;
            let mut st = coord.state();
            st.send(Unit::text("not a job"), &w, "input")?;
            drop(st);
            w.core().wait_terminated(Duration::from_secs(10))?;
            Ok(())
        })
        .unwrap();
        env.shutdown();
        let fails = env.failures();
        assert_eq!(fails.len(), 1, "worker should record a failure");
        env.shutdown();
    }
}
