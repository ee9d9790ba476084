//! `coord_protocol`: the paper's `protocolMW.m`, compiled, coordinating
//! masters and workers that do no computing — so the MANIFOLD-language
//! coordinator is all there is to measure.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use manifold::lang::{CoordExec, Mc};
use manifold::prelude::*;
use protocol::{protocol_mw, run_protocol_mc, MasterHandle, WorkerHandle};
use renovation::codec::{request_from_unit, request_to_unit, result_from_unit, result_to_unit};
use solver::{SubsolveRequest, SubsolveResult};

use crate::load::{LoadLog, MemoryProbe, Sample};
use crate::trace::Tracer;
use crate::workload::{JobClass, Oracle};

/// Worker jobs of the squaring master.
const SQUARING_JOBS: usize = 32;

/// Which coordinator runs the protocol.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Coordinator {
    /// The hand-transliterated `protocol::protocol_mw`.
    Native,
    /// `protocolMW.m` on the shipped compiled executor.
    Compiled,
}

/// Inputs of the sparse-grid master: the requests it sends and, for the
/// workers that stand in for `subsolve`, the results the real solver
/// gives — computed once, during set-up.
pub struct SparseJob {
    pub requests: Vec<SubsolveRequest>,
    pub results: Vec<SubsolveResult>,
}

impl SparseJob {
    pub fn from_oracle(class: JobClass, oracle: &Oracle) -> SparseJob {
        let app = class.app();
        SparseJob {
            requests: app
                .grids()
                .into_iter()
                .map(|g| app.request_for(g))
                .collect(),
            results: oracle.result.per_grid.clone(),
        }
    }
}

/// Parse, check and compile `protocolMW.m`.
pub fn compile() -> Result<Mc, String> {
    Mc::from_source(manifold::lang::PROTOCOL_MW_SOURCE).map_err(|e| format!("protocolMW.m: {e}"))
}

fn run_protocol<M, W>(
    how: Coordinator,
    mc: &Mc,
    master_body: M,
    worker_body: W,
) -> Result<(), String>
where
    M: FnOnce(MasterHandle) -> MfResult<()> + Send + 'static,
    W: Fn(WorkerHandle) -> MfResult<()> + Send + Sync + 'static,
{
    let env = Environment::new();
    let run = match how {
        Coordinator::Compiled => {
            run_protocol_mc(&env, mc, CoordExec::Compiled, master_body, worker_body)
        }
        Coordinator::Native => {
            let worker = Arc::new(worker_body);
            env.run_coordinator("ProtocolMW", |coord| {
                let coord_ref = coord.self_ref();
                let env2 = coord.env().clone();
                let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                    master_body(MasterHandle::new(ctx, coord_ref, env2))
                });
                coord.watch(&master);
                coord.activate(&master)?;
                protocol_mw(coord, &master, |coord, death| {
                    let w = worker.clone();
                    let death = death.clone();
                    coord.create_atomic("Worker(event)", move |ctx: ProcessCtx| {
                        w(WorkerHandle::new(ctx, death))
                    })
                })
                .map(|_| ())
            })
        }
    };
    env.shutdown();
    run.map_err(|e| format!("protocol run: {e}"))?;
    match env.failures().into_iter().next() {
        Some(f) => Err(format!("a protocol process failed: {f:?}")),
        None => Ok(()),
    }
}

/// One squaring run: the master hands out 0..32, no-op workers square,
/// the collected set must be exactly the squares.
pub fn squaring_run(how: Coordinator, mc: &Mc, jobs: usize) -> Result<bool, String> {
    let out = Arc::new(Mutex::new(Vec::with_capacity(jobs)));
    let out2 = Arc::clone(&out);
    run_protocol(
        how,
        mc,
        move |h: MasterHandle| {
            h.create_pool();
            for i in 0..jobs {
                let _w = h.request_worker()?;
                h.send_work(Unit::real(i as f64))?;
            }
            for _ in 0..jobs {
                let sq = h.collect()?.expect_real()?;
                out2.lock().expect("collector").push(sq);
            }
            h.rendezvous()?;
            h.finished();
            Ok(())
        },
        |h: WorkerHandle| {
            let x = h.receive()?.expect_real()?;
            h.submit(Unit::real(x * x))?;
            h.die();
            Ok(())
        },
    )?;
    let mut got = std::mem::take(&mut *out.lock().expect("collector"));
    got.sort_by(f64::total_cmp);
    Ok(got.len() == jobs && got.iter().enumerate().all(|(i, sq)| *sq == (i * i) as f64))
}

/// One sparse-grid run: the master sends the real request units, each
/// worker answers with the precomputed result of its grid (decode, look
/// up, encode — no solve), and every collected result must be the
/// solver's, bit for bit.
pub fn sparse_run(how: Coordinator, mc: &Mc, job: &Arc<SparseJob>) -> Result<bool, String> {
    let out = Arc::new(Mutex::new(Vec::with_capacity(job.requests.len())));
    let out2 = Arc::clone(&out);
    let (mjob, wjob) = (Arc::clone(job), Arc::clone(job));
    run_protocol(
        how,
        mc,
        move |h: MasterHandle| {
            h.create_pool();
            for req in &mjob.requests {
                let _w = h.request_worker()?;
                h.send_work(request_to_unit(req))?;
            }
            for _ in &mjob.requests {
                let res = result_from_unit(&h.collect()?)?;
                out2.lock().expect("collector").push(res);
            }
            h.rendezvous()?;
            h.finished();
            Ok(())
        },
        move |h: WorkerHandle| {
            let req = request_from_unit(&h.receive()?)?;
            let res = wjob
                .results
                .iter()
                .find(|r| (r.l, r.m) == (req.l, req.m))
                .ok_or_else(|| MfError::App(format!("no grid ({},{})", req.l, req.m)))?;
            h.submit(result_to_unit(res))?;
            h.die();
            Ok(())
        },
    )?;
    let got = std::mem::take(&mut *out.lock().expect("collector"));
    Ok(got.len() == job.results.len()
        && job.results.iter().all(|want| {
            got.iter()
                .any(|g| (g.l, g.m) == (want.l, want.m) && g.values == want.values)
        }))
}

/// One pass over the workload's two masters: a squaring run, then a
/// sparse-grid run. The pass is `coord_protocol`'s job — its two halves
/// differ fourfold in length, and a median over single runs would sit in
/// the gap between them.
pub fn pass(how: Coordinator, mc: &Mc, job: &Arc<SparseJob>) -> Result<bool, String> {
    Ok(squaring_run(how, mc, SQUARING_JOBS)? && sparse_run(how, mc, job)?)
}

/// The workload's measured loop: passes back to back on the compiled
/// executor for `seconds`.
pub fn protocol_loop(
    mc: &Mc,
    job: &Arc<SparseJob>,
    seconds: f64,
    tracer: &Tracer,
    memory: Option<&MemoryProbe>,
) -> Result<LoadLog, String> {
    let t0 = Instant::now();
    let mut log = LoadLog::default();
    let mut prev_end = t0;
    for i in 0u64.. {
        let start = Instant::now();
        if start.duration_since(t0).as_secs_f64() >= seconds {
            break;
        }
        log.late_ms
            .push(start.duration_since(prev_end).as_secs_f64() * 1e3);
        let ok = pass(Coordinator::Compiled, mc, job)?;
        let end = Instant::now();
        prev_end = end;
        tracer.span("coord.pass", start, end, None, i);
        log.samples.push(Sample {
            done_s: end.duration_since(t0).as_secs_f64(),
            latency_ms: end.duration_since(start).as_secs_f64() * 1e3,
            tenant: 0,
            class: 0,
            ok,
        });
        if let Some(m) = memory {
            m.job_done();
        }
    }
    Ok(log)
}
