//! Per-layer probes: `mfbench` timing calls into each crate's public
//! functions, or reading its public report structs, on the inputs the
//! workload's main job class actually generates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use manifold::builtin::Variable;
use manifold::event::{EventMemory, EventOccurrence, EventPattern};
use manifold::lang::{CoordExec, Mc};
use manifold::prelude::*;
use manifold::stream::Stream;
use protocol::{DispatchPolicy, PaperFaithful};
use renovation::codec::{request_from_unit, request_to_unit, result_from_unit, result_to_unit};
use serve::journal::OutcomeBody;
use serve::{Admission, AdmissionConfig, Journal, JournalConfig, Next, QueuedJob, ServeMsg};
use solver::assemble::assemble;
use solver::linsolve::{Ilu0, Preconditioner};
use solver::rosenbrock::{integrate_with, Ros2Options, Ros2Workspace};
use solver::sequential::prolongation_phase;
use solver::simd::dot_exact;
use solver::{subsolve_with, SubsolveRequest, WorkCounter};
use transport::{
    decode_unit, encode_unit_vec, frame_vec, Addr, Conn, FrameDecoder, Message, HEADER_LEN,
};

use crate::coord::{self, Coordinator, SparseJob};
use crate::os::{self, Scratch};
use crate::report::Metric;
use crate::stats::{lpt_makespan, median};
use crate::trace::Tracer;
use crate::workload::{Oracle, INSTANCES};

// ---------------------------------------------------------------------------
// The per-layer metrics, in BENCHMARK.json's order
// ---------------------------------------------------------------------------

/// Name and unit of every per-layer metric. A traced run prints all of
/// them (the driver's contract); one whose layer is not on the workload's
/// path reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("serve.proto.encode_ns", "ns"),
    ("serve.proto.decode_ns", "ns"),
    ("serve.proto.done_bytes", "B"),
    ("serve.reject_rtt_us", "us"),
    ("serve.admission.cycle_ns", "ns"),
    ("serve.journal.record_us", "us"),
    ("serve.journal.bytes_per_job", "B"),
    ("serve.unloaded_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.rate_last_over_first", "ratio"),
    ("serve.peak_in_system", "count"),
    ("serve.rejected", "count"),
    ("serve.orphaned", "count"),
    ("renovation.engine.job_ms", "ms"),
    ("renovation.engine.cold_job_ms", "ms"),
    ("renovation.engine.self_ms", "ms"),
    ("renovation.speedup_vs_seq", "ratio"),
    ("renovation.codec.roundtrip_ns", "ns"),
    ("renovation.codec.result_bytes", "B"),
    ("renovation.workers_created", "count"),
    ("renovation.peak_workers", "count"),
    ("renovation.losses", "count"),
    ("transport.self_ms", "ms"),
    ("transport.unit_rtt_us", "us"),
    ("transport.frame.encode_mb_s", "MB/s"),
    ("transport.frame.decode_mb_s", "MB/s"),
    ("transport.bytes_per_job", "B"),
    ("protocol.mw.job_us", "us"),
    ("protocol.scheduler.decision_ns", "ns"),
    ("manifold.vm.step_ns", "ns"),
    ("manifold.native.step_ns", "ns"),
    ("manifold.compiled_over_native", "ratio"),
    ("manifold.vm.allocs_per_step", "count"),
    ("manifold.stream.unit_ns", "ns"),
    ("manifold.event.raise_ns", "ns"),
    ("solver.job_seq_ms", "ms"),
    ("solver.subsolve_ms_sum", "ms"),
    ("solver.lpt_makespan_ms", "ms"),
    ("solver.combine_ms", "ms"),
    ("solver.steps", "count"),
    ("solver.lin_iters", "count"),
    ("solver.refactorizations", "count"),
    ("solver.flops", "count"),
    ("solver.assemble_us", "us"),
    ("solver.refactor_us", "us"),
    ("solver.sweep_ns", "ns"),
    ("solver.matvec_ns", "ns"),
    ("solver.dot_ns", "ns"),
    ("solver.matvec_bytes_computed", "B"),
    ("solver.flops_per_byte_computed", "flop/B"),
    ("solver.allocs_warm", "count"),
    ("solver.simd_backend", "is_avx2"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("runs_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("lat_small_p99_ms", "ms"),
];

/// `measured` completed to the whole table, in its order: 0 for every
/// metric the workload's path does not produce.
pub fn all_per_layer(measured: Vec<Metric>) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !PER_LAYER.contains(&(m.name, m.unit)))
    {
        return Err(format!(
            "{} [{}] is not in the per-layer table",
            m.name, m.unit
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit).note("not on this workload's path"))
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Counting allocator, local to mfbench: tallies this thread's allocations
// so "allocations per step" is a count, not a belief.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

// SAFETY: every method defers to the system allocator with the caller's
// own arguments; the only addition is a thread-local counter, reached
// through `try_with` so it is a no-op during thread-local teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

// ---------------------------------------------------------------------------
// Timing harness
// ---------------------------------------------------------------------------

/// Seconds per call of `f`: batches sized to about 2 ms each, the median
/// of up to nine batches within `budget`.
fn per_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((2e-3 / once) as usize).clamp(1, 1_000_000);
    let deadline = t0 + budget;
    let mut batches = Vec::new();
    while batches.len() < 9 && (batches.is_empty() || Instant::now() < deadline) {
        let b0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        batches.push(b0.elapsed().as_secs_f64() / iters as f64);
    }
    median(&batches)
}

const PROBE: Duration = Duration::from_millis(150);

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn done_msg(oracle: &Oracle) -> ServeMsg {
    ServeMsg::Done {
        seq: 1,
        rseq: 1,
        grids: oracle.result.per_grid.len() as u64,
        l2_error: oracle.result.l2_error,
        combined: oracle.result.combined.clone(),
    }
}

/// `serve::proto` codec on the workload's Submit and Done, one job's
/// worth on both ends, and `Admission` offer→next→complete.
pub fn serve_probes(oracle: &Oracle) -> Result<Vec<Metric>, String> {
    let submit = ServeMsg::Submit {
        seq: 1,
        root: oracle.class.root,
        level: oracle.class.level,
        tol: oracle.class.tol,
    };
    let done = done_msg(oracle);
    let wire = |e: transport::WireError| e.to_string();
    let done_bytes = done.to_frame().map_err(wire)?.len();
    let (submit_payload, done_payload) =
        (submit.encode().map_err(wire)?, done.encode().map_err(wire)?);
    let encode_s = per_call_s(PROBE, || {
        std::hint::black_box(submit.to_frame().expect("encodes"));
        std::hint::black_box(done.to_frame().expect("encodes"));
    });
    let decode_s = per_call_s(PROBE, || {
        std::hint::black_box(ServeMsg::decode(&submit_payload).expect("decodes"));
        std::hint::black_box(ServeMsg::decode(&done_payload).expect("decodes"));
    });

    let admission = Admission::new(AdmissionConfig::default());
    admission.register("probe", 1);
    let tenant: Arc<str> = Arc::from("probe");
    let cycle_s = per_call_s(PROBE, || {
        let job = QueuedJob {
            tenant: Arc::clone(&tenant),
            session: 1,
            seq: 1,
            root: oracle.class.root,
            level: oracle.class.level,
            tol: oracle.class.tol,
            attempts: 0,
            enqueued: Instant::now(),
        };
        std::hint::black_box(admission.offer(job));
        match admission.next(Duration::ZERO) {
            Next::Job(j) => admission.complete(&j, true),
            other => panic!("admission lost the probe job: {other:?}"),
        }
    });

    Ok(vec![
        Metric::new("serve.proto.encode_ns", encode_s * 1e9, "ns")
            .note("Submit.to_frame + Done.to_frame"),
        Metric::new("serve.proto.decode_ns", decode_s * 1e9, "ns")
            .note("decode(Submit) + decode(Done)"),
        Metric::new("serve.proto.done_bytes", done_bytes as f64, "B").note("framed Done"),
        Metric::new("serve.admission.cycle_ns", cycle_s * 1e9, "ns").note("offer+next+complete"),
    ])
}

/// `Journal` admit+outcome+ack at the workload's Done size, in a scratch
/// directory.
pub fn journal_probes(oracle: &Oracle) -> Result<Vec<Metric>, String> {
    let done_bytes = done_msg(oracle)
        .to_frame()
        .map_err(|e| e.to_string())?
        .len();
    let scratch = Scratch::new().map_err(|e| e.to_string())?;
    let mut cfg = JournalConfig::new(scratch.path().join("journal"));
    // One segment for the whole probe: rotation would compact acknowledged
    // records away and the byte count would stop being per job.
    cfg.segment_bytes = u64::MAX / 2;
    let (journal, _) = Journal::open(cfg.clone()).map_err(|e| format!("journal: {e}"))?;
    journal.register("probe", 1, 0, 0)?;
    let body = OutcomeBody::Done {
        grids: oracle.result.per_grid.len() as u64,
        l2_error: oracle.result.l2_error,
        combined: oracle.result.combined.clone(),
    };
    let before = os::dir_bytes(&cfg.dir).map_err(|e| e.to_string())?;
    let records = (64 * 1024 * 1024 / done_bytes).clamp(4, 400) as u64;
    let mut per_record = Vec::with_capacity(records as usize);
    for seq in 1..=records {
        let t0 = Instant::now();
        journal
            .admit(
                "probe",
                seq,
                oracle.class.root,
                oracle.class.level,
                oracle.class.tol,
            )
            .and_then(|_| journal.record_outcome("probe", seq, &body))
            .and_then(|rseq| journal.ack("probe", rseq))
            .map_err(|e| format!("journal probe: {e}"))?;
        per_record.push(t0.elapsed().as_secs_f64());
    }
    let journal_bytes = os::dir_bytes(&cfg.dir).map_err(|e| e.to_string())? - before;

    Ok(vec![
        Metric::new("serve.journal.record_us", median(&per_record) * 1e6, "us")
            .note(format!("admit+outcome+ack, median of {records}")),
        Metric::new(
            "serve.journal.bytes_per_job",
            (journal_bytes / records) as f64,
            "B",
        ),
    ])
}

// ---------------------------------------------------------------------------
// renovation codec + transport
// ---------------------------------------------------------------------------

/// Index of the job's largest grid (most unknowns) in visit order.
fn largest_grid(requests: &[SubsolveRequest]) -> usize {
    (0..requests.len())
        .max_by_key(|&i| requests[i].grid().interior_count())
        .expect("a job has grids")
}

/// `renovation::codec` round trips of the largest grid's request and
/// result units — what a master and a worker do on either backend.
pub fn codec_probes(job: &SparseJob) -> Result<Vec<Metric>, String> {
    let big = largest_grid(&job.requests);
    let (req, res) = (&job.requests[big], &job.results[big]);
    let codec_s = per_call_s(PROBE, || {
        let r = request_from_unit(&request_to_unit(std::hint::black_box(req))).expect("request");
        let s = result_from_unit(&result_to_unit(std::hint::black_box(res))).expect("result");
        std::hint::black_box((r, s));
    });
    let result_bytes = encode_unit_vec(&result_to_unit(res))
        .map_err(|e| e.to_string())?
        .len();
    Ok(vec![
        Metric::new("renovation.codec.roundtrip_ns", codec_s * 1e9, "ns")
            .note("request and result, to_unit+from_unit, largest grid"),
        Metric::new("renovation.codec.result_bytes", result_bytes as f64, "B"),
    ])
}

/// Loopback echo of the job's request/result units, frame codec
/// throughput, and the bytes one job puts on the wire.
pub fn wire_probes(job: &SparseJob) -> Result<Vec<Metric>, String> {
    let big = largest_grid(&job.requests);
    let (req, res) = (&job.requests[big], &job.results[big]);
    let wire = |e: transport::WireError| e.to_string();
    let (req_unit, res_unit) = (request_to_unit(req), result_to_unit(res));
    let res_payload = encode_unit_vec(&res_unit).map_err(wire)?;
    let res_frame = frame_vec(&res_payload);

    let encode_s = per_call_s(PROBE, || {
        std::hint::black_box(frame_vec(&encode_unit_vec(&res_unit).expect("encodes")));
    });
    let decode_s = per_call_s(PROBE, || {
        let mut dec = FrameDecoder::new();
        dec.push(&res_frame);
        let payload = dec.next_frame().expect("valid frame").expect("whole frame");
        std::hint::black_box(decode_unit(&payload).expect("decodes"));
    });

    let mut bytes_per_job = 0usize;
    for (rq, rs) in job.requests.iter().zip(&job.results) {
        let out = Message::Job {
            seq: 0,
            job: 0,
            payload: request_to_unit(rq),
        };
        let back = Message::Done {
            seq: 0,
            job: 0,
            payload: result_to_unit(rs),
        };
        bytes_per_job += out.encode().map_err(wire)?.len() + back.encode().map_err(wire)?.len();
        bytes_per_job += 2 * HEADER_LEN;
    }

    // Loopback echo over TCP, which is what the procs backend binds: the
    // request unit goes out, the result unit comes back.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let reply = res_unit.clone();
    let rtts = std::thread::scope(|s| -> Result<Vec<f64>, String> {
        let server = s.spawn(move || -> std::io::Result<()> {
            let (sock, _) = listener.accept()?;
            sock.set_nodelay(true)?;
            let mut conn = Conn::Tcp(sock);
            while let Some(Message::Job { seq, job, .. }) = conn.recv_msg()? {
                conn.send_msg(&Message::Done {
                    seq,
                    job,
                    payload: reply.clone(),
                })?;
            }
            Ok(())
        });
        let io = |e: std::io::Error| format!("echo: {e}");
        let addr = Addr::Tcp(format!("127.0.0.1:{port}"));
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).map_err(io)?;
        let trips = (4_000_000 / res_frame.len()).clamp(20, 500);
        let mut rtts = Vec::with_capacity(trips);
        for seq in 0..(trips + trips / 10) as u64 {
            let t0 = Instant::now();
            conn.send_msg(&Message::Job {
                seq,
                job: 0,
                payload: req_unit.clone(),
            })
            .map_err(io)?;
            conn.recv_msg().map_err(io)?.ok_or("echo closed")?;
            if seq as usize >= trips / 10 {
                rtts.push(t0.elapsed().as_secs_f64());
            }
        }
        conn.send_msg(&Message::Shutdown).map_err(io)?;
        server
            .join()
            .map_err(|_| "echo server panicked".to_string())?
            .map_err(io)?;
        Ok(rtts)
    })?;

    Ok(vec![
        Metric::new("transport.unit_rtt_us", median(&rtts) * 1e6, "us").note(format!(
            "request out, result back; median of {}",
            rtts.len()
        )),
        Metric::new(
            "transport.frame.encode_mb_s",
            res_frame.len() as f64 / encode_s / 1e6,
            "MB/s",
        ),
        Metric::new(
            "transport.frame.decode_mb_s",
            res_frame.len() as f64 / decode_s / 1e6,
            "MB/s",
        ),
        Metric::new("transport.bytes_per_job", bytes_per_job as f64, "B"),
    ])
}

// ---------------------------------------------------------------------------
// protocol + manifold
// ---------------------------------------------------------------------------

fn count_source(limit: u64) -> String {
    format!(
        "manner Count() {{\n\
         \x20   auto process n is variable(0).\n\
         \x20   begin: n = n + 1; if (n < {limit}) then (post (begin)) else (post (done)).\n\
         \x20   done: halt.\n\
         }}\n"
    )
}

/// Seconds and coordinator-thread allocations of one compiled `Count()`.
fn count_compiled(limit: u64) -> Result<(f64, u64), String> {
    let mc = Mc::from_source(&count_source(limit)).map_err(|e| e.to_string())?;
    let env = Environment::new();
    let t0 = Instant::now();
    let (run, allocs) = allocations_during(|| {
        env.run_manner(&mc, CoordExec::Compiled, "count.m", "Count", |_| {
            Ok(Vec::new())
        })
    });
    let secs = t0.elapsed().as_secs_f64();
    env.shutdown();
    run.map_err(|e| e.to_string())?;
    Ok((secs, allocs))
}

/// The same loop hand-written against the runtime.
fn count_native(limit: u64) -> Result<f64, String> {
    let env = Environment::new();
    let t0 = Instant::now();
    let run = env.run_coordinator("Count", |coord| {
        let n = Variable::spawn(coord, "n", Unit::int(0))?;
        let pats = [EventPattern::named("begin"), EventPattern::named("done")];
        coord.post("begin");
        while let Some((0, _)) = coord.ctx().core().events().try_select(&pats) {
            if (n.add(1) as u64) < limit {
                coord.post("begin");
            } else {
                coord.post("done");
            }
        }
        Ok(())
    });
    let secs = t0.elapsed().as_secs_f64();
    env.shutdown();
    run.map_err(|e| e.to_string())?;
    Ok(secs)
}

/// Native `protocol_mw` per worker job, the dispatch decision, one
/// coordinator step compiled and native, stream and event unit costs.
pub fn coordination_probes(job: &Arc<SparseJob>, mc: &Mc) -> Result<Vec<Metric>, String> {
    let mut runs = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        if !coord::sparse_run(Coordinator::Native, mc, job)? {
            return Err("native protocol run returned wrong results".into());
        }
        runs.push(t0.elapsed().as_secs_f64());
    }
    let mw_job_s = median(&runs) / job.requests.len() as f64;

    let costs: Vec<f64> = job
        .requests
        .iter()
        .map(|r| solver::work::estimate_subsolve_flops(r.root, r.l, r.m, r.tol))
        .collect();
    let decision_s = per_call_s(PROBE, || {
        let order = PaperFaithful.order(std::hint::black_box(&costs));
        std::hint::black_box((order, PaperFaithful.window(costs.len())));
    });

    // Two run sizes: the difference cancels start-up and tear-down.
    let (k1, k2) = (20_000u64, 120_000u64);
    count_compiled(64)?;
    count_native(64)?;
    let (c1, a1) = count_compiled(k1)?;
    let (c2, a2) = count_compiled(k2)?;
    let vm_step_s = ((c2 - c1) / (k2 - k1) as f64).max(0.0);
    let native_step_s = ((count_native(k2)? - count_native(k1)?) / (k2 - k1) as f64).max(0.0);

    let stream = Stream::new(StreamType::BK);
    let stream_s = per_call_s(PROBE, || {
        stream.push(std::hint::black_box(Unit::int(1)));
        std::hint::black_box(stream.try_pop());
    });
    let events = EventMemory::new();
    let pats = [EventPattern::named("e")];
    let event_s = per_call_s(PROBE, || {
        events.deliver(EventOccurrence::named("e", ProcessId(1)));
        std::hint::black_box(events.try_select(&pats));
    });

    Ok(vec![
        Metric::new("protocol.mw.job_us", mw_job_s * 1e6, "us")
            .note("native protocol_mw, no-op workers, per worker job"),
        Metric::new("protocol.scheduler.decision_ns", decision_s * 1e9, "ns")
            .note("PaperFaithful order+window"),
        Metric::new("manifold.vm.step_ns", vm_step_s * 1e9, "ns"),
        Metric::new("manifold.native.step_ns", native_step_s * 1e9, "ns"),
        Metric::new(
            "manifold.compiled_over_native",
            vm_step_s / native_step_s.max(1e-12),
            "ratio",
        ),
        Metric::new(
            "manifold.vm.allocs_per_step",
            a2.saturating_sub(a1) as f64 / (k2 - k1) as f64,
            "count",
        ),
        Metric::new("manifold.stream.unit_ns", stream_s * 1e9, "ns").note("push+pop"),
        Metric::new("manifold.event.raise_ns", event_s * 1e9, "ns").note("deliver+select"),
    ])
}

// ---------------------------------------------------------------------------
// solver
// ---------------------------------------------------------------------------

/// What the solver rung of the ladder measured for one job.
pub struct SolverRung {
    pub subsolve_s: Vec<f64>,
    pub combine_s: f64,
}

impl SolverRung {
    pub fn lpt_makespan_s(&self) -> f64 {
        lpt_makespan(&self.subsolve_s, INSTANCES)
    }
}

/// Every `subsolve_with` of the job on one warm workspace, then the
/// combination — each a span under `parent`.
pub fn solver_rung(
    job: &SparseJob,
    oracle: &Oracle,
    ws: &mut Ros2Workspace,
    tracer: &Tracer,
    parent: Option<usize>,
    id: u64,
) -> Result<SolverRung, String> {
    let mut subsolve_s = Vec::with_capacity(job.requests.len());
    for (req, want) in job.requests.iter().zip(&job.results) {
        let (res, secs, _) = tracer.time("solver.subsolve", parent, id, || subsolve_with(req, ws));
        let res = res.map_err(|e| format!("subsolve ({},{}): {e}", req.l, req.m))?;
        if res.values != want.values {
            return Err(format!("subsolve ({},{}) is not repeatable", req.l, req.m));
        }
        subsolve_s.push(secs);
    }
    let mut work = WorkCounter::new();
    let (combined, combine_s, _) = tracer.time("solver.combine", parent, id, || {
        prolongation_phase(
            oracle.class.root,
            oracle.class.level,
            &job.results,
            &mut work,
        )
    });
    if !oracle.accepts(oracle.result.l2_error, &combined) {
        return Err("combination differs from the oracle".into());
    }
    Ok(SolverRung {
        subsolve_s,
        combine_s,
    })
}

/// The sequential program, the work counters, and the kernels on the
/// job's largest grid.
pub fn solver_probes(
    job: &SparseJob,
    oracle: &Oracle,
    tracer: &Tracer,
) -> Result<Vec<Metric>, String> {
    let parent = None;
    let app = oracle.class.app();
    let seq_reps = 3;
    let mut seq = Vec::new();
    for _ in 0..seq_reps {
        let (run, secs, _) = tracer.time("solver.sequential", parent, 0, || app.run());
        run.map_err(|e| format!("sequential run: {e}"))?;
        seq.push(secs);
    }

    let big = &job.requests[largest_grid(&job.requests)];
    let problem = big.problem;
    let mut wk = WorkCounter::new();
    let grid = big.grid();
    let assemble_s = tracer
        .time("solver.kernel.assemble", parent, 0, || {
            per_call_s(PROBE, || {
                std::hint::black_box(assemble(&grid, &problem, &mut wk));
            })
        })
        .0;
    let disc = assemble(&grid, &problem, &mut wk);
    let (n, nnz) = (disc.a.n(), disc.a.nnz());
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let mut ilu = Ilu0::new(&disc.a, &mut wk);
    let refactor_s = tracer
        .time("solver.kernel.refactor", parent, 0, || {
            per_call_s(PROBE, || {
                ilu.refactor(std::hint::black_box(&disc.a), &mut wk)
            })
        })
        .0;
    let sweep_s = tracer
        .time("solver.kernel.sweep", parent, 0, || {
            per_call_s(PROBE, || {
                ilu.apply(std::hint::black_box(&x), &mut y, &mut wk)
            })
        })
        .0;
    let matvec_s = tracer
        .time("solver.kernel.matvec", parent, 0, || {
            per_call_s(PROBE, || {
                disc.a.matvec_into(std::hint::black_box(&x), &mut y)
            })
        })
        .0;
    let mut acc = 0.0;
    let dot_s = tracer
        .time("solver.kernel.dot", parent, 0, || {
            per_call_s(PROBE, || acc += dot_exact(std::hint::black_box(&x), &y))
        })
        .0;
    std::hint::black_box(acc);

    // One CSR matvec streams the values, their column indices and the row
    // pointers once, reads x and writes y: computed from the array sizes,
    // cache misses ignored.
    let idx = std::mem::size_of::<usize>();
    let matvec_bytes = nnz * (8 + idx) + (n + 1) * idx + 2 * n * 8;

    // Heap allocations of a whole integration on a warm workspace.
    let opts = Ros2Options::with_tol(oracle.class.tol);
    let mut ws = Ros2Workspace::new();
    let u0 = disc.exact_interior(problem.t0);
    let mut integrate = |u: Vec<f64>| {
        integrate_with(&disc, u, problem.t0, problem.t_end, &opts, &mut ws, &mut wk)
            .map_err(|e| format!("integrate: {e}"))
    };
    integrate(u0.clone())?;
    let (warm, allocs_warm) = allocations_during(|| integrate(u0));
    warm?;

    let work = &oracle.result.work;
    Ok(vec![
        Metric::new("solver.job_seq_ms", median(&seq) * 1e3, "ms")
            .note(format!("SequentialApp::run, median of {seq_reps}")),
        Metric::new("solver.steps", work.steps as f64, "count"),
        Metric::new("solver.lin_iters", work.lin_iters as f64, "count"),
        Metric::new(
            "solver.refactorizations",
            (work.factorizations + work.refactorizations) as f64,
            "count",
        ),
        Metric::new("solver.flops", work.flops as f64, "count"),
        Metric::new("solver.assemble_us", assemble_s * 1e6, "us")
            .note(format!("largest grid ({},{}), {n} unknowns", big.l, big.m)),
        Metric::new("solver.refactor_us", refactor_s * 1e6, "us"),
        Metric::new("solver.sweep_ns", sweep_s * 1e9, "ns"),
        Metric::new("solver.matvec_ns", matvec_s * 1e9, "ns"),
        Metric::new("solver.dot_ns", dot_s * 1e9, "ns"),
        Metric::new("solver.matvec_bytes_computed", matvec_bytes as f64, "B")
            .note("computed from array sizes"),
        Metric::new(
            "solver.flops_per_byte_computed",
            2.0 * nnz as f64 / matvec_bytes as f64,
            "flop/B",
        )
        .note("computed"),
        Metric::new("solver.allocs_warm", allocs_warm as f64, "count")
            .note("one integration on a warm workspace"),
        Metric::new(
            "solver.simd_backend",
            if solver::simd::backend().name() == "avx2" {
                1.0
            } else {
                0.0
            },
            "is_avx2",
        )
        .note(solver::simd::backend().name()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_table_is_benchmark_jsons() {
        let spec: String = include_str!("../../BENCHMARK.json")
            .split_whitespace()
            .collect();
        let per_layer = &spec[spec.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(
                per_layer.contains(&entry),
                "{name} [{unit}] not in BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn off_path_metrics_read_zero_and_strangers_are_refused() {
        let all = all_per_layer(vec![Metric::new("solver.dot_ns", 3.5, "ns")]).unwrap();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all
            .iter()
            .all(|m| m.value == if m.name == "solver.dot_ns" { 3.5 } else { 0.0 }));
        assert!(all_per_layer(vec![Metric::new("solver.dot_ns", 3.5, "us")]).is_err());
    }
}
