//! The two kinds of run: the untraced run that produces the end-to-end
//! metrics, and the traced run — the ladder — that produces the per-layer
//! ones.

use std::sync::Arc;
use std::time::Instant;

use manifold::lang::Mc;
use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, JobReport, ProcsConfig, RunMode};
use serve::{RejectReason, ServeMsg, TenantClient};
use solver::rosenbrock::Ros2Workspace;

use crate::coord::{self, Coordinator, SparseJob};
use crate::daemon::{Bins, Daemon, DrainReport};
use crate::gen::{sample_indices, ClassStream};
use crate::layers;
use crate::load::{self, LoadLog, MemoryProbe, Sample, Stretch};
use crate::os;
use crate::report::{Json, Metric, Ops};
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::workload::{Backend, JobClass, Load, Oracle, Served, Workload};

/// An untraced run sets up this many times and reports the median as
/// `setup_s`; the last set-up is the one the load then runs on.
const SETUPS: usize = 7;
/// Warm-up before a measured stretch, as a share of it.
const WARMUP_SHARE: f64 = 0.1;

pub struct RunOutput {
    pub ops: Ops,
    /// What the result line carries.
    pub metrics: Vec<Metric>,
    /// Listed and written to the side file only.
    pub informational: Vec<Metric>,
    /// Extra detail for the side file.
    pub detail: Json,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Everything a serving workload needs before load: oracles, a live
/// daemon with its workers, and one verified reply per job class.
struct Serving {
    daemon: Daemon,
    oracles: Vec<Oracle>,
}

fn bring_up_serving(bins: &Bins, w: &Workload, served: &Served) -> Result<Serving, String> {
    let daemon = Daemon::spawn(bins, served, w.max_level())?;
    let oracles = w
        .mix
        .iter()
        .map(|(class, _)| Oracle::compute(*class))
        .collect::<Result<Vec<_>, _>>()?;
    let mut warm = TenantClient::connect(&daemon.addr, "warmup", 0)
        .map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    for (i, oracle) in oracles.iter().enumerate() {
        load::single_request(&mut warm, i as u64 + 1, oracle)?;
    }
    warm.bye().map_err(|e| format!("warm-up bye: {e}"))?;
    Ok(Serving { daemon, oracles })
}

/// `coord_protocol`'s set-up: compile `protocolMW.m`, compute what the
/// workers must answer, and one verified pass over both masters.
struct Coordination {
    mc: Mc,
    job: Arc<SparseJob>,
}

fn bring_up_coordination(class: JobClass) -> Result<Coordination, String> {
    let mc = coord::compile()?;
    let oracle = Oracle::compute(class)?;
    let job = Arc::new(SparseJob::from_oracle(class, &oracle));
    if !coord::pass(Coordinator::Compiled, &mc, &job)? {
        return Err("wrong results on the first pass over the masters".into());
    }
    Ok(Coordination { mc, job })
}

/// Set up [`SETUPS`] times, tearing every set-up but the last down again.
/// Returns each set-up's seconds and the last one, left standing.
fn set_up_repeatedly<T>(
    mut bring_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    loop {
        let t0 = Instant::now();
        let up = bring_up()?;
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            return Ok((setups, up));
        }
        tear_down(up)?;
    }
}

// ---------------------------------------------------------------------------
// End-to-end metrics from a load log
// ---------------------------------------------------------------------------

/// Samples completed inside `[from, from + span)`, times rebased to its
/// start.
fn window(log: &LoadLog, from: f64, span: f64) -> Vec<Sample> {
    log.samples
        .iter()
        .filter(|s| s.done_s >= from && s.done_s < from + span)
        .map(|s| Sample {
            done_s: s.done_s - from,
            ..*s
        })
        .collect()
}

fn ops_of(log: &LoadLog) -> Ops {
    Ops {
        attempted: log.samples.len() as u64,
        failed: log.samples.iter().filter(|s| !s.ok).count() as u64,
    }
}

fn p50(samples: &[Sample]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no job completed inside a measured stretch".into());
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    Ok(median(&latencies))
}

fn tail_metric(name: &'static str, samples: &[Sample], wanted: f64) -> Metric {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let t = tail(&latencies, wanted);
    Metric::new(name, t.value, "ms").note(format!(
        "p{:.0} of {} samples",
        t.percentile * 100.0,
        t.samples
    ))
}

/// Verified jobs per second of a `span`-second stretch. In an open loop
/// the generator, not the daemon, sets how many jobs there are, so the
/// rate is the offered one times the share of jobs verified within the
/// workload's latency limit of their due time.
fn jobs_per_s(samples: &[Sample], span: f64, served: Option<&Served>) -> Metric {
    let verified = samples.iter().filter(|s| s.ok);
    match served.map(|s| s.load) {
        Some(Load::Open {
            rate_per_s,
            limit_ms,
        }) => {
            let in_time = verified.filter(|s| s.latency_ms <= limit_ms).count();
            let share = in_time as f64 / samples.len().max(1) as f64;
            Metric::new("jobs_per_s", rate_per_s * share, "1/s").note(format!(
                "{rate_per_s} offered x {in_time} of {} verified within {limit_ms} ms of their due time",
                samples.len()
            ))
        }
        _ => {
            let n = verified.count();
            Metric::new("jobs_per_s", n as f64 / span, "1/s")
                .note(format!("{n} verified in {span} s"))
        }
    }
}

/// The latencies, kept out of the end-to-end set (README, "Bounds, and
/// what was demoted"): measured and listed by every run, never gated on.
/// Class 0 is the workload's smallest job class.
fn latency_metrics(samples: &[Sample]) -> Result<Vec<Metric>, String> {
    let small: Vec<Sample> = samples.iter().filter(|s| s.class == 0).copied().collect();
    if small.is_empty() {
        return Err("no small job completed inside a measured stretch".into());
    }
    Ok(vec![
        Metric::new("lat_p50_ms", p50(samples)?, "ms").note(format!("{} samples", samples.len())),
        tail_metric("lat_p90_ms", samples, 0.90),
        tail_metric("lat_p99_ms", samples, 0.99),
        tail_metric("lat_small_p99_ms", &small, 0.99),
    ])
}

fn late_p99(late_ms: &[f64]) -> f64 {
    if late_ms.is_empty() {
        return 0.0;
    }
    percentile(&sorted(late_ms.to_vec()), 0.99)
}

/// Run the serving workload's generator for one stretch.
fn serving_load(st: &Stretch) -> Result<LoadLog, String> {
    match st.served.load {
        Load::Closed { window } => load::closed_loop(st, window),
        Load::Open { rate_per_s, .. } => load::open_loop(st, rate_per_s),
    }
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

/// What an untraced run measured, whichever kind of workload it was.
struct Measured {
    setups: Vec<f64>,
    /// Everything the generator resolved, warm-up and stragglers included.
    log: LoadLog,
    /// Peak memory, MB, and the number of verified jobs it was read at.
    rss: (f64, u64),
    rss_of: &'static str,
    drained: Option<DrainReport>,
}

fn measure_serving(
    w: &Workload,
    served: &Served,
    seed: u64,
    seconds: f64,
) -> Result<Measured, String> {
    let bins = Bins::locate()?;
    let (setups, Serving { daemon, oracles }) = set_up_repeatedly(
        || bring_up_serving(&bins, w, served),
        |up| up.daemon.drain().map(drop),
    )?;
    let pid = daemon.pid();
    let memory = MemoryProbe::new(w.rss_at_jobs, move || os::tree_hwm_mb(pid));
    let log = serving_load(&Stretch {
        addr: &daemon.addr,
        w,
        served,
        oracles: &oracles,
        seed,
        seconds,
        tracer: &Tracer::off(),
        label: "tenant",
        memory: Some(&memory),
    })?;
    let rss = memory.reading().ok_or("no VmHWM for mf-served")?;
    Ok(Measured {
        setups,
        log,
        rss,
        rss_of: "mf-served and its worker processes",
        drained: Some(daemon.drain()?),
    })
}

fn measure_coord(w: &Workload, seconds: f64) -> Result<Measured, String> {
    let (setups, c) = set_up_repeatedly(|| bring_up_coordination(w.main_class()), |_| Ok(()))?;
    let memory = MemoryProbe::new(w.rss_at_jobs, || os::tree_hwm_mb(std::process::id()));
    let log = coord::protocol_loop(&c.mc, &c.job, seconds, &Tracer::off(), Some(&memory))?;
    Ok(Measured {
        setups,
        log,
        rss: memory.reading().ok_or("no VmHWM for this process")?,
        rss_of: "this process, where the coordinator runs",
        drained: None,
    })
}

pub fn untraced(w: &Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let warm = seconds * WARMUP_SHARE;
    let m = match &w.served {
        Some(served) => measure_serving(w, served, seed, warm + seconds)?,
        None => measure_coord(w, warm + seconds)?,
    };
    let measured = window(&m.log, warm, seconds);
    let (rss_mb, rss_jobs) = m.rss;
    let metrics = vec![
        Metric::new("setup_s", median(&m.setups), "s")
            .note(format!("median of {SETUPS} set-ups {:.4?}", m.setups)),
        jobs_per_s(&measured, seconds, w.served.as_ref()),
        Metric::new("rss_peak_mb", rss_mb, "MB").note(format!(
            "VmHWM of {} when job {rss_jobs} was verified{}",
            m.rss_of,
            if rss_jobs < w.rss_at_jobs {
                " — the load ended before the mark"
            } else {
                ""
            }
        )),
    ];

    // Who the admission weights favour when jobs queue: the small jobs' p90
    // per tenant (one value on the one-tenant coord_protocol).
    let tenant_small_p90: Vec<Json> = (0..2)
        .map(|t| {
            measured
                .iter()
                .filter(|s| s.tenant == t && s.class == 0)
                .map(|s| s.latency_ms)
                .collect::<Vec<f64>>()
        })
        .filter(|l| !l.is_empty())
        .map(|l| Json::Num(percentile(&sorted(l), 0.90)))
        .collect();
    Ok(RunOutput {
        ops: ops_of(&m.log),
        metrics,
        informational: latency_metrics(&measured)?,
        detail: Json::obj([
            ("warmup_seconds", Json::Num(warm)),
            ("gen_late_p99_ms", Json::Num(late_p99(&m.log.late_ms))),
            ("gen_late_p50_ms", Json::Num(median(&m.log.late_ms))),
            ("tenant_small_p90_ms", Json::Arr(tenant_small_p90)),
            ("daemon", m.drained.map_or(Json::Null, drain_json)),
            ("measured_samples", samples_json(&measured)),
        ]),
    })
}

/// Every resolved job as `[done_s, latency_ms, tenant, class, ok]`, so a
/// reader of the side file can compute a statistic the run did not.
fn samples_json(samples: &[Sample]) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(s.done_s),
                    Json::Num(s.latency_ms),
                    Json::Num(s.tenant as f64),
                    Json::Num(s.class as f64),
                    Json::Bool(s.ok),
                ])
            })
            .collect(),
    )
}

fn drain_json(d: DrainReport) -> Json {
    Json::obj([
        ("served", Json::Num(d.served as f64)),
        ("rejected", Json::Num(d.rejected as f64)),
        ("orphaned", Json::Num(d.orphaned as f64)),
        ("peak_in_system", Json::Num(d.peak_in_system as f64)),
    ])
}

// ---------------------------------------------------------------------------
// Traced run: what both kinds of workload share
// ---------------------------------------------------------------------------

/// The traced run's three stretches of the workload's own load — spans
/// off, on, off — and what they yield. A daemon slows as it serves; the
/// mean of the two spans-off stretches around the spans-on one cancels
/// that drift out of `trace.overhead_share`.
struct OwnLoad {
    ops: Ops,
    /// The first spans-off stretch's measured window.
    plain: Vec<Sample>,
    metrics: Vec<Metric>,
}

fn own_load(
    phase_s: f64,
    runs_per_job: f64,
    tracer: &Tracer,
    mut stretch: impl FnMut(&Tracer, &str, f64) -> Result<LoadLog, String>,
) -> Result<OwnLoad, String> {
    let warm = phase_s * WARMUP_SHARE;
    let off = Tracer::off();
    let first = stretch(&off, "plain", warm + phase_s)?;
    let spanned = stretch(tracer, "spanned", warm + phase_s)?;
    let again = stretch(&off, "again", warm + phase_s)?;
    let mut ops = Ops::default();
    for log in [&first, &spanned, &again] {
        ops += ops_of(log);
    }
    let plain = window(&first, warm, phase_s);
    let plain_p50 = (p50(&plain)? + p50(&window(&again, warm, phase_s))?) / 2.0;
    let spanned_p50 = p50(&window(&spanned, warm, phase_s))?;
    let mut metrics = vec![
        Metric::new("gen.late_p99_ms", late_p99(&first.late_ms), "ms"),
        Metric::new(
            "trace.overhead_share",
            (spanned_p50 - plain_p50) / plain_p50,
            "ratio",
        )
        .note(format!(
            "loaded p50 with spans {spanned_p50:.3} ms vs {plain_p50:.3} ms in the stretches around it"
        )),
        Metric::new(
            "runs_per_s",
            runs_per_job * plain.len() as f64 / phase_s,
            "1/s",
        )
        .note(format!(
            "protocol runs ({runs_per_job} per job) of a {phase_s} s spans-off stretch"
        )),
    ];
    metrics.extend(latency_metrics(&plain)?);
    Ok(OwnLoad {
        ops,
        plain,
        metrics,
    })
}

/// Complete the measured per-layer metrics to BENCHMARK.json's list and
/// write the spans out.
fn traced_output(
    w: &Workload,
    tracer: &Tracer,
    epoch: Instant,
    ops: Ops,
    measured: Vec<Metric>,
    detail: Vec<(&str, Json)>,
) -> Result<RunOutput, String> {
    let trace_path = format!("benchmark/out/trace-{}.json", w.name);
    std::fs::write(&trace_path, tracer.to_json(epoch).render())
        .map_err(|e| format!("{trace_path}: {e}"))?;
    let mut fields = vec![("trace_file".to_string(), Json::Str(trace_path))];
    fields.extend(detail.into_iter().map(|(k, v)| (k.to_string(), v)));
    Ok(RunOutput {
        ops,
        metrics: layers::all_per_layer(measured)?,
        informational: Vec::new(),
        detail: Json::Obj(fields),
    })
}

pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    match &w.served {
        Some(served) => traced_serving(w, served, seed, seconds),
        None => traced_coord(w, seconds),
    }
}

// ---------------------------------------------------------------------------
// Traced run of a serving workload: the ladder
// ---------------------------------------------------------------------------

/// Over-capacity submits answered by `Reject`: frame, reactor, admission
/// and reply with no engine behind them.
fn reject_rtts(
    client: &mut TenantClient,
    class: JobClass,
    level: u32,
    n: u64,
) -> Result<Vec<f64>, String> {
    let mut rtts = Vec::with_capacity(n as usize);
    for seq in 1..=n {
        let t0 = Instant::now();
        client
            .submit(1_000_000 + seq, class.root, level, class.tol)
            .map_err(|e| format!("reject probe: {e}"))?;
        match client.recv().map_err(|e| format!("reject probe: {e}"))? {
            ServeMsg::Reject {
                reason: RejectReason::OverCapacity,
                ..
            } => rtts.push(t0.elapsed().as_secs_f64()),
            other => return Err(format!("reject probe: expected Reject, got {other:?}")),
        }
    }
    Ok(rtts)
}

fn engine_for(backend: Backend, bins: &Bins, capacity_level: u32) -> Result<Engine, String> {
    let opts = EngineOpts {
        capacity_level,
        ..EngineOpts::default()
    };
    // The same constructions mf-served makes for --backend threads|procs.
    match backend {
        Backend::Threads => Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts),
        Backend::Procs => {
            let mut pc = ProcsConfig::new(crate::workload::INSTANCES);
            pc.worker_exe = Some(bins.worker.clone());
            Engine::procs(pc, Arc::new(PaperFaithful), opts)
        }
    }
    .map_err(|e| format!("{} engine: {e}", backend.name()))
}

fn engine_job(engine: &mut Engine, oracle: &Oracle) -> Result<JobReport, String> {
    let report = engine
        .submit(AppConfig::new(oracle.class.app()))
        .map_err(|e| format!("engine admission: {e}"))?
        .wait()
        .map_err(|e| format!("engine job: {e}"))?;
    if !oracle.accepts(report.result.l2_error, &report.result.combined) {
        return Err("engine result differs from the sequential oracle".into());
    }
    Ok(report)
}

/// What the ladder measured, one entry per replayed job of the main class.
#[derive(Default)]
struct Ladder {
    unloaded: Vec<f64>,
    /// Empty on a threads workload: no process fleet on its path.
    engine_procs: Vec<f64>,
    engine_threads: Vec<f64>,
    protocol_mw: Vec<f64>,
    subsolve_sum: Vec<f64>,
    lpt_makespan: Vec<f64>,
    combine: Vec<f64>,
    /// First job on the workload's fresh fleet.
    cold_s: f64,
    /// A `JobReport` from the workload's backend.
    report: Option<JobReport>,
}

/// Replay a seeded sample of the workload's jobs down the ladder of
/// layers, within `budget` seconds (but at least three jobs). Which jobs
/// of the stream are replayed comes from the seed; their classes from the
/// same draw the generator makes. `procs` is the engine of a procs
/// workload; the threads engine is the rung below it, or the first rung of
/// a threads workload.
#[allow(clippy::too_many_arguments)]
fn climb_ladder(
    w: &Workload,
    seed: u64,
    budget: f64,
    oracles: &[Oracle],
    main_idx: usize,
    mc: &Mc,
    probe: &mut TenantClient,
    (mut procs, threads): (Option<&mut Engine>, &mut Engine),
    tracer: &Tracer,
) -> Result<Ladder, String> {
    let mut ladder = Ladder::default();
    // First job on each fresh fleet; the workload's own backend is the one kept.
    let t0 = Instant::now();
    ladder.report = Some(engine_job(threads, &oracles[main_idx])?);
    ladder.cold_s = t0.elapsed().as_secs_f64();
    if let Some(procs) = procs.as_deref_mut() {
        let t0 = Instant::now();
        ladder.report = Some(engine_job(procs, &oracles[main_idx])?);
        ladder.cold_s = t0.elapsed().as_secs_f64();
    }

    let jobs: Vec<Arc<SparseJob>> = oracles
        .iter()
        .map(|o| Arc::new(SparseJob::from_oracle(o.class, o)))
        .collect();
    let stream: Vec<usize> = ClassStream::new(seed, &w.shares()).take(1000).collect();
    let mut ws = Ros2Workspace::new();
    let started = Instant::now();
    for (n, idx) in sample_indices(seed, stream.len(), 40)
        .into_iter()
        .enumerate()
    {
        if n >= 3 && started.elapsed().as_secs_f64() > budget {
            break;
        }
        let class = stream[idx];
        let (o, job) = (&oracles[class], &jobs[class]);
        let id = idx as u64 + 1;
        let (start, end) = load::single_request(probe, id, o)?;
        let mut above = tracer.span("client.request", start, end, None, id);
        let mut procs_s = None;
        if let Some(procs) = procs.as_deref_mut() {
            let (run, secs, span) = tracer.time("engine.procs", above, id, || engine_job(procs, o));
            run?;
            (procs_s, above) = (Some(secs), span);
        }
        let (run, threads_s, below) =
            tracer.time("engine.threads", above, id, || engine_job(threads, o));
        run?;
        let (mw_ok, mw_s, _) = tracer.time("protocol.mw", below, id, || {
            coord::sparse_run(Coordinator::Native, mc, job)
        });
        if !mw_ok? {
            return Err("native protocol run returned wrong results".into());
        }
        let rung = layers::solver_rung(job, o, &mut ws, tracer, below, id)?;
        if class == main_idx {
            ladder
                .unloaded
                .push(end.duration_since(start).as_secs_f64());
            ladder.engine_procs.extend(procs_s);
            ladder.engine_threads.push(threads_s);
            ladder.protocol_mw.push(mw_s);
            ladder.subsolve_sum.push(rung.subsolve_s.iter().sum());
            ladder.lpt_makespan.push(rung.lpt_makespan_s());
            ladder.combine.push(rung.combine_s);
        }
    }
    if ladder.unloaded.len() < 3 {
        return Err("the trace sample drew fewer than three jobs of the main class".into());
    }
    Ok(ladder)
}

fn traced_serving(
    w: &Workload,
    served: &Served,
    seed: u64,
    seconds: f64,
) -> Result<RunOutput, String> {
    let epoch = Instant::now();
    let bins = Bins::locate()?;
    let tracer = Tracer::on();
    let phase_s = seconds * 0.12;
    let on_procs = served.backend == Backend::Procs;

    let Serving { daemon, oracles } = bring_up_serving(&bins, w, served)?;
    let main_idx = w
        .mix
        .iter()
        .position(|(c, _)| *c == w.main_class())
        .expect("main class is in the mix");
    let oracle = &oracles[main_idx];
    let job = Arc::new(SparseJob::from_oracle(oracle.class, oracle));
    let mc = coord::compile()?;

    let own = own_load(phase_s, 1.0, &tracer, |tracer, label, seconds| {
        serving_load(&Stretch {
            addr: &daemon.addr,
            w,
            served,
            oracles: &oracles,
            seed,
            seconds,
            tracer,
            label,
            memory: None,
        })
    })?;
    let loaded_p50 = p50(&own.plain)?;
    // How the daemon's pace holds up as it serves: completions in the last
    // fifth of the stretch over those in the first fifth.
    let fifth = |k: f64| {
        own.plain
            .iter()
            .filter(|s| s.done_s >= k * phase_s / 5.0 && s.done_s < (k + 1.0) * phase_s / 5.0)
            .count() as f64
    };
    let rate_last_over_first = fifth(4.0) / fifth(0.0).max(1.0);

    // Rung 0 and the reject probe need a session of their own.
    let mut probe = TenantClient::connect(&daemon.addr, "ladder", 0)
        .map_err(|e| format!("ladder connect: {e}"))?;
    let rejects = 200;
    let reject_s = reject_rtts(&mut probe, oracle.class, w.max_level() + 1, rejects)?;

    let mut threads = engine_for(Backend::Threads, &bins, w.max_level())?;
    let mut procs = match on_procs {
        true => Some(engine_for(Backend::Procs, &bins, w.max_level())?),
        false => None,
    };
    let ladder = climb_ladder(
        w,
        seed,
        seconds * 0.3,
        &oracles,
        main_idx,
        &mc,
        &mut probe,
        (procs.as_mut(), &mut threads),
        &tracer,
    )?;
    probe.bye().map_err(|e| format!("ladder bye: {e}"))?;
    threads.shutdown();
    if let Some(procs) = procs {
        procs.shutdown();
    }

    // Probes of the layers on this workload's path, on its main class.
    let mut metrics = own.metrics;
    metrics.extend(layers::serve_probes(oracle)?);
    metrics.extend(layers::codec_probes(&job)?);
    metrics.extend(layers::coordination_probes(&job, &mc)?);
    metrics.extend(layers::solver_probes(&job, oracle, &tracer)?);
    if served.journal {
        metrics.extend(layers::journal_probes(oracle)?);
    }
    if on_procs {
        metrics.extend(layers::wire_probes(&job)?);
    }

    let drained = daemon.drain()?;

    // Rung medians, and self times as one rung minus the rung below.
    let ms = |v: &[f64]| median(v) * 1e3;
    let unloaded_ms = ms(&ladder.unloaded);
    let threads_ms = ms(&ladder.engine_threads);
    let engine_ms = match on_procs {
        true => ms(&ladder.engine_procs),
        false => threads_ms,
    };
    let (makespan_ms, combine_ms) = (ms(&ladder.lpt_makespan), ms(&ladder.combine));
    // 0 for a probe that did not run: its layer is not on the path.
    let find = |name: &str| -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let seq_ms = find("solver.job_seq_ms");
    // What the measured leaves account for of an unloaded request: the
    // serve path without an engine (the reject round trip), the journal
    // record and Done codec where the workload has them, the wire round
    // trips on the procs backend, the native protocol, the unit codec,
    // and the solver's critical path.
    let grids = job.requests.len() as f64;
    let attributed = median(&reject_s) * 1e3
        + (find("serve.proto.encode_ns") + find("serve.proto.decode_ns")) / 1e6
        + find("serve.journal.record_us") / 1e3
        + grids * find("transport.unit_rtt_us") / 1e3
        + ms(&ladder.protocol_mw)
        + grids * find("renovation.codec.roundtrip_ns") / 1e6
        + makespan_ms
        + combine_ms;

    let report = ladder.report.as_ref().expect("the ladder ran a first job");
    let created: usize = report
        .outcome
        .pools()
        .iter()
        .map(|p| p.workers_created)
        .sum();
    let n = ladder.unloaded.len();
    metrics.extend([
        Metric::new("serve.reject_rtt_us", median(&reject_s) * 1e6, "us").note(format!(
            "over-capacity Submit to Reject, median of {rejects}"
        )),
        Metric::new("serve.unloaded_ms", unloaded_ms, "ms")
            .note(format!("window-1 submit to verified Done, median of {n}")),
        Metric::new("serve.self_ms", unloaded_ms - engine_ms, "ms")
            .note("serve.unloaded_ms - renovation.engine.job_ms"),
        Metric::new("serve.queue_wait_ms", loaded_p50 - unloaded_ms, "ms")
            .note(format!("loaded p50 {loaded_p50:.3} ms - serve.unloaded_ms")),
        Metric::new("serve.rate_last_over_first", rate_last_over_first, "ratio")
            .note(format!("fifths of a {phase_s} s loaded stretch")),
        Metric::new(
            "serve.peak_in_system",
            drained.peak_in_system as f64,
            "count",
        ),
        Metric::new(
            "serve.rejected",
            drained.rejected as f64 - rejects as f64,
            "count",
        )
        .note("daemon's count less the reject probes"),
        Metric::new("serve.orphaned", drained.orphaned as f64, "count"),
        Metric::new("renovation.engine.job_ms", engine_ms, "ms").note(format!(
            "{} backend, warm, median of {n}",
            served.backend.name()
        )),
        Metric::new("renovation.engine.cold_job_ms", ladder.cold_s * 1e3, "ms")
            .note("first job on the fresh fleet, bring-up excluded"),
        Metric::new(
            "renovation.engine.self_ms",
            threads_ms - makespan_ms - combine_ms,
            "ms",
        )
        .note("threads engine - solver.lpt_makespan_ms - solver.combine_ms"),
        Metric::new("renovation.speedup_vs_seq", seq_ms / engine_ms, "ratio")
            .note("solver.job_seq_ms / renovation.engine.job_ms"),
        Metric::new("renovation.workers_created", created as f64, "count"),
        Metric::new(
            "renovation.peak_workers",
            report.peak_concurrent_workers as f64,
            "count",
        ),
        Metric::new("renovation.losses", created as f64 - grids, "count")
            .note("workers created beyond one per grid"),
        Metric::new("solver.subsolve_ms_sum", ms(&ladder.subsolve_sum), "ms"),
        Metric::new("solver.lpt_makespan_ms", makespan_ms, "ms")
            .note("LPT of the measured subsolves over 2 workers"),
        Metric::new("solver.combine_ms", combine_ms, "ms"),
        Metric::new(
            "trace.unattributed_share",
            (unloaded_ms - attributed) / unloaded_ms,
            "ratio",
        )
        .note(format!(
            "{attributed:.3} ms of serve.unloaded_ms attributed to measured leaves"
        )),
    ]);
    if on_procs {
        metrics.push(
            Metric::new("transport.self_ms", engine_ms - threads_ms, "ms")
                .note("procs engine - threads engine, same job"),
        );
    }
    traced_output(
        w,
        &tracer,
        epoch,
        own.ops,
        metrics,
        vec![
            ("ladder_samples", Json::Num(n as f64)),
            ("daemon", drain_json(drained)),
        ],
    )
}

// ---------------------------------------------------------------------------
// Traced run of coord_protocol: compiled over native
// ---------------------------------------------------------------------------

/// `coord_protocol` has no daemon, engine, wire or solver on its path, so
/// its ladder is two rungs — a sparse-grid run on the compiled executor,
/// then the same run on the native `protocol_mw` — over the unit codec,
/// and only the `protocol`, `manifold` and codec rows are measured.
fn traced_coord(w: &Workload, seconds: f64) -> Result<RunOutput, String> {
    let epoch = Instant::now();
    let tracer = Tracer::on();
    let Coordination { mc, job } = bring_up_coordination(w.main_class())?;
    let own = own_load(seconds * 0.12, 2.0, &tracer, |tracer, _, seconds| {
        coord::protocol_loop(&mc, &job, seconds, tracer, None)
    })?;

    let (mut compiled, mut native) = (Vec::new(), Vec::new());
    for id in 1..=40 {
        let rung = |name, how, parent| {
            let (ok, secs, span) =
                tracer.time(name, parent, id, || coord::sparse_run(how, &mc, &job));
            match ok? {
                true => Ok((secs, span)),
                false => Err(format!("{name} {id}: wrong results")),
            }
        };
        let (secs, root) = rung("coord.run", Coordinator::Compiled, None)?;
        compiled.push(secs);
        native.push(rung("protocol.mw", Coordinator::Native, root)?.0);
    }

    let mut metrics = own.metrics;
    metrics.extend(layers::codec_probes(&job)?);
    metrics.extend(layers::coordination_probes(&job, &mc)?);
    // What the ladder explains of a compiled run: the language (compiled -
    // native, when it is above the noise) and the unit codec. The rest is
    // process creation, streams and events inside the MANIFOLD runtime.
    let codec_s = job.requests.len() as f64
        * metrics
            .iter()
            .find(|m| m.name == "renovation.codec.roundtrip_ns")
            .map_or(0.0, |m| m.value)
        / 1e9;
    let (compiled_s, native_s) = (median(&compiled), median(&native));
    metrics.push(
        Metric::new(
            "trace.unattributed_share",
            1.0 - ((compiled_s - native_s).max(0.0) + codec_s) / compiled_s,
            "ratio",
        )
        .note(format!(
            "sparse-grid run: compiled {:.3} ms, native {:.3} ms, unit codec {:.3} ms",
            compiled_s * 1e3,
            native_s * 1e3,
            codec_s * 1e3
        )),
    );
    traced_output(
        w,
        &tracer,
        epoch,
        own.ops,
        metrics,
        vec![("ladder_samples", Json::Num(compiled.len() as f64))],
    )
}
