//! Throughput of the persistent-fleet [`renovation::Engine`]: one fleet,
//! many jobs, and the question the one-shot entry points could never
//! answer — what does a solve cost once the pool/process/connection setup
//! is amortized away?
//!
//! ```text
//! cargo run -p bench --release --bin engine_bench \
//!     [-- --backend threads|procs|sim|all] [--jobs N] [--level N] \
//!     [--instances N] [--policy paper-faithful|bounded-reuse:N|cost-aware] \
//!     [--assert-flat] [--json PATH]
//! ```
//!
//! For each backend the bench constructs one `Engine`, submits `--jobs`
//! identical solves, and reports jobs/sec plus per-job latency (p50, p95,
//! and the cold job 1 vs warm job 2+ split). Job 1's latency deliberately
//! *includes* engine construction — fleet bring-up is exactly the cost the
//! perpetual pool exists to amortize. Every job is checked bit-for-bit
//! against the sequential oracle; a drift or a warm job that fails to beat
//! the cold one exits nonzero, so CI can run this as a smoke test.
//!
//! `--jobs 400 --assert-flat` is the long-run mode: a fleet that degrades
//! with uptime fails it. It keeps the fleet full — [`Engine::width`] jobs
//! submitted at all times, so a procs fleet runs its jobs overlapped — and
//! the median latency of the last tenth of the jobs may not exceed 1.15×
//! that of the second tenth, and the fleet may not have spawned more
//! threads than the jobs it runs together can occupy — the master and one
//! per worker each on threads; the master alone on procs, whose proxy
//! workers, like every job's coordinator, are stepped processes without a
//! thread — a thread count that follows the job count is a leak, one that
//! stops there is a warm pool.
//!
//! Every live backend also reports — nothing gates on them — how many
//! voluntary context switches this process made per job over the jobs of
//! its last lifecycle and how many `mf-pool-N` threads it ended with, read
//! from `/proc/self/task/*/{status,comm}` (zero where there is no `/proc`):
//! the hand-offs the fleet's side of a job costs.
//!
//! Threads and procs report wall-clock milliseconds; sim reports the
//! virtual-time milliseconds of the DES, where warm jobs skip the
//! application startup and the first-fork surcharge.

use std::collections::VecDeque;
use std::time::Instant;

use bench::cli::Cli;
use bench::live::field_checksum;
use renovation::{AppConfig, Engine, EngineOpts, ProcsConfig, RunMode};
use solver::sequential::SequentialApp;

const USAGE: &str = "[--backend threads|procs|sim|all] [--jobs N] [--level N] \
     [--instances N] [--reps N] [--shards N] [--steal on|off] \
     [--churn join@N,leave@M] \
     [--policy paper-faithful|bounded-reuse:N|cost-aware] [--assert-flat] [--json PATH]";

/// How much slower the last tenth of a long run may be than its second
/// tenth before `--assert-flat` calls it decay.
const FLAT_TOLERANCE: f64 = 1.15;

/// One backend's aggregate numbers.
struct BackendStats {
    backend: &'static str,
    virtual_time: bool,
    jobs: usize,
    job1_ms: f64,
    jobs2plus_mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    jobs_per_sec: f64,
    warm_speedup: f64,
    bit_identical: bool,
    checksum: u64,
    /// Median latency of jobs in the second tenth of the run.
    early_ms: f64,
    /// Median latency of jobs in the last tenth of the run.
    late_ms: f64,
    fleet: FleetCounters,
}

/// What one backend's lifecycles reported besides latencies.
#[derive(Default)]
struct FleetCounters {
    /// Jobs the fleet runs side by side ([`Engine::width`]).
    width: usize,
    /// Most threads any one job can occupy: its master, and — where
    /// workers compute in this process — one per worker.
    job_threads: usize,
    /// Fleet-lifetime counters from `EngineSummary`, worst lifecycle.
    threads_spawned: u64,
    peak_live_processes: usize,
    /// Voluntary context switches of this process per job, and its
    /// `mf-pool-N` threads at the end, over the last lifecycle's jobs.
    voluntary_switches_per_job: f64,
    pool_threads: usize,
}

/// Voluntary context switches summed over this process's threads, and how
/// many of the threads are `mf-pool-N`; `None` without a `/proc`. Threads
/// that exit between two readings take their count with them — a fleet's
/// do not exit before `shutdown`.
fn task_switches() -> Option<(u64, usize)> {
    let mut switches = 0;
    let mut pool_threads = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        let (Ok(status), Ok(comm)) = (
            std::fs::read_to_string(dir.join("status")),
            std::fs::read_to_string(dir.join("comm")),
        ) else {
            // The thread exited while we were listing.
            continue;
        };
        switches += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or(0);
        pool_threads += usize::from(comm.starts_with("mf-pool-"));
    }
    Some((switches, pool_threads))
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.50)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn summarize(
    backend: &'static str,
    virtual_time: bool,
    latencies_ms: &[f64],
    bit_identical: bool,
    checksum: u64,
    fleet: FleetCounters,
    // Jobs submitted at a time: their latencies overlap that many deep.
    depth: usize,
) -> BackendStats {
    let job1_ms = latencies_ms[0];
    let tenth = latencies_ms.len().div_ceil(10);
    let warm = &latencies_ms[1..];
    let jobs2plus_mean_ms = warm.iter().sum::<f64>() / warm.len() as f64;
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let total_s = latencies_ms.iter().sum::<f64>() / 1e3;
    BackendStats {
        backend,
        virtual_time,
        jobs: latencies_ms.len(),
        job1_ms,
        jobs2plus_mean_ms,
        p50_ms: percentile(&sorted, 0.50),
        p95_ms: percentile(&sorted, 0.95),
        jobs_per_sec: (latencies_ms.len() * depth) as f64 / total_s,
        warm_speedup: job1_ms / jobs2plus_mean_ms,
        bit_identical,
        checksum,
        early_ms: median(&latencies_ms[tenth..(2 * tenth).min(latencies_ms.len())]),
        late_ms: median(&latencies_ms[latencies_ms.len() - tenth..]),
        fleet,
    }
}

/// Drive `jobs` identical solves through one engine, `reps` lifecycles
/// over; the closure builds each engine so its construction lands inside
/// job 1's timer. With `keep_full` the fleet always has as many jobs
/// submitted as it runs side by side; otherwise one, waited for before the
/// next. Each job position reports its *minimum* across
/// lifecycles: scheduler noise only ever adds latency, so the floor
/// isolates the systematic cold-vs-warm delta (engine construction +
/// first-job instance forks) that a mean would drown at
/// millisecond job sizes.
fn bench_backend(
    backend: &'static str,
    app: SequentialApp,
    jobs: usize,
    reps: usize,
    keep_full: bool,
    build: &dyn Fn() -> Result<Engine, manifold::prelude::MfError>,
) -> BackendStats {
    let oracle = app.run().expect("sequential oracle");
    let checksum = field_checksum(&oracle.combined);
    let virtual_time = backend == "sim";
    // The DES is deterministic: one lifecycle is the whole population.
    let reps = if virtual_time { 1 } else { reps };
    let mut latencies_ms = vec![f64::INFINITY; jobs];
    let mut bit_identical = true;
    let mut fleet = FleetCounters::default();
    let mut depth = 1;

    for _ in 0..reps {
        let t0 = Instant::now();
        let mut engine = build().expect("engine construction");
        fleet.width = engine.width();
        depth = if keep_full { engine.width() } else { 1 };
        let before = task_switches();
        let mut submitted = VecDeque::new();
        // One more turn than jobs per extra job in flight: the last turns
        // only collect.
        for turn in 1..jobs + depth {
            if turn <= jobs {
                let handle = engine
                    .submit(AppConfig::new(app))
                    .expect("engine admission");
                submitted.push_back((turn, Instant::now(), handle));
            }
            if turn < depth {
                continue;
            }
            let (job, t_job, handle) = submitted.pop_front().expect("a job per turn");
            let report = handle.wait().expect("engine job");
            let wall_ms = if job == 1 {
                // Cold job: fleet bring-up + first solve.
                t0.elapsed().as_secs_f64() * 1e3
            } else {
                t_job.elapsed().as_secs_f64() * 1e3
            };
            let sample = if virtual_time {
                report.latency_s * 1e3
            } else {
                wall_ms
            };
            latencies_ms[job - 1] = latencies_ms[job - 1].min(sample);
            let worker_threads = match backend {
                "procs" => 0,
                _ => report.outcome.workers_created(),
            };
            fleet.job_threads = fleet.job_threads.max(1 + worker_threads);
            if report.result.combined != oracle.combined
                || report.result.l2_error != oracle.l2_error
            {
                eprintln!("engine_bench: {backend} job {job} drifted from the sequential oracle");
                bit_identical = false;
            }
        }
        if let (Some((before, _)), Some((after, pool_threads))) = (before, task_switches()) {
            fleet.voluntary_switches_per_job = after.saturating_sub(before) as f64 / jobs as f64;
            fleet.pool_threads = pool_threads;
        }
        let summary = engine.shutdown();
        fleet.threads_spawned = fleet.threads_spawned.max(summary.threads_spawned);
        fleet.peak_live_processes = fleet.peak_live_processes.max(summary.peak_live_processes);
    }
    summarize(
        backend,
        virtual_time,
        &latencies_ms,
        bit_identical,
        checksum,
        fleet,
        depth,
    )
}

fn render_json(level: u32, reps: usize, policy: &str, stats: &[BackendStats]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_bench\",\n");
    out.push_str(&format!("  \"level\": {level},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"policy\": \"{policy}\",\n"));
    out.push_str("  \"backends\": {\n");
    for (i, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"jobs\": {},\n      \"virtual_time\": {},\n      \
             \"jobs_per_sec\": {:.3},\n      \"job1_ms\": {:.3},\n      \
             \"jobs2plus_mean_ms\": {:.3},\n      \"p50_ms\": {:.3},\n      \
             \"p95_ms\": {:.3},\n      \"warm_speedup\": {:.2},\n      \
             \"threads_spawned\": {},\n      \"peak_live_processes\": {},\n      \
             \"voluntary_switches_per_job\": {:.2},\n      \"pool_threads\": {},\n      \
             \"bit_identical\": {},\n      \"checksum\": \"{:016x}\"\n    }}{}\n",
            s.backend,
            s.jobs,
            s.virtual_time,
            s.jobs_per_sec,
            s.job1_ms,
            s.jobs2plus_mean_ms,
            s.p50_ms,
            s.p95_ms,
            s.warm_speedup,
            s.fleet.threads_spawned,
            s.fleet.peak_live_processes,
            s.fleet.voluntary_switches_per_job,
            s.fleet.pool_threads,
            s.bit_identical,
            s.checksum,
            if i + 1 < stats.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let cli = Cli::parse("engine_bench", USAGE);
    let jobs = cli.parsed("--jobs", 8usize).max(2);
    let level = cli.parsed("--level", 4u32);
    let instances = cli.parsed("--instances", 2usize);
    let reps = cli.parsed("--reps", 5usize).max(1);
    let policy = cli.policy();
    let assert_flat = cli.flag("--assert-flat");
    let backends: Vec<&'static str> = match cli.value("--backend").unwrap_or("all") {
        "threads" => vec!["threads"],
        "procs" => vec!["procs"],
        "sim" => vec!["sim"],
        "all" => vec!["threads", "procs", "sim"],
        other => cli.usage_exit(&format!(
            "--backend: unknown backend {other:?} (expected threads, procs, sim, or all)"
        )),
    };

    let app = SequentialApp::new(2, level, 1e-3);
    let shards = cli.shards();
    let churn = cli.churn();
    let opts = || EngineOpts {
        capacity_level: level,
        shards,
        churn: churn.clone(),
        ..EngineOpts::default()
    };

    println!(
        "engine_bench — {jobs} jobs at level {level}, dispatch: {}, \
         per-position floor over {reps} fleet lifecycles (job 1 includes fleet bring-up)",
        policy.name()
    );
    println!();
    println!("| backend |  jobs/s | job1 ms | warm mean ms |  p50 ms |  p95 ms | warm speedup | identical |");
    println!("|---------|---------|---------|--------------|---------|---------|--------------|-----------|");

    let mut stats = Vec::new();
    for backend in backends {
        let s = match backend {
            // The distributed deployment: workers live in their own task
            // instances, so job 1 pays the forks and warm jobs reuse the
            // parked `{perpetual}` instances (Parallel bundles everything
            // into the startup instance — nothing to amortize).
            "threads" => bench_backend("threads", app, jobs, reps, assert_flat, &|| {
                let mode = RunMode::Distributed {
                    hosts: RunMode::paper_hosts(),
                };
                Engine::threads(mode, policy.clone(), opts())
            }),
            "procs" => bench_backend("procs", app, jobs, reps, assert_flat, &|| {
                Engine::procs(ProcsConfig::new(instances), policy.clone(), opts())
            }),
            "sim" => bench_backend("sim", app, jobs, reps, assert_flat, &|| {
                Engine::sim(None, policy.clone(), opts())
            }),
            _ => unreachable!(),
        };
        println!(
            "| {:>7} | {:>7.2} | {:>7.2} | {:>12.2} | {:>7.2} | {:>7.2} | {:>11.2}x | {:>9} |",
            s.backend,
            s.jobs_per_sec,
            s.job1_ms,
            s.jobs2plus_mean_ms,
            s.p50_ms,
            s.p95_ms,
            s.warm_speedup,
            if s.bit_identical { "yes" } else { "NO" }
        );
        stats.push(s);
    }
    println!();
    for s in stats.iter().filter(|s| !s.virtual_time) {
        println!(
            "{}: {} threads spawned, peak {} live processes ({} at a time, a job is {} \
             threads wide); second-tenth median {:.3} ms, last-tenth median {:.3} ms; \
             {:.1} voluntary switches per job, {} pool threads",
            s.backend,
            s.fleet.threads_spawned,
            s.fleet.peak_live_processes,
            s.fleet.width,
            s.fleet.job_threads,
            s.early_ms,
            s.late_ms,
            s.fleet.voluntary_switches_per_job,
            s.fleet.pool_threads
        );
    }
    println!();

    let mut failed = false;
    for s in &stats {
        if !s.bit_identical {
            eprintln!("engine_bench: {} results are not bit-identical", s.backend);
            failed = true;
        }
        if s.jobs2plus_mean_ms >= s.job1_ms {
            eprintln!(
                "engine_bench: {} warm mean {:.2} ms not below cold job 1 {:.2} ms — \
                 fleet setup was not amortized",
                s.backend, s.jobs2plus_mean_ms, s.job1_ms
            );
            failed = true;
        }
        if assert_flat && !s.virtual_time {
            if s.late_ms > FLAT_TOLERANCE * s.early_ms {
                eprintln!(
                    "engine_bench: {} slows as it serves — last tenth {:.3} ms vs second \
                     tenth {:.3} ms (limit {FLAT_TOLERANCE}x)",
                    s.backend, s.late_ms, s.early_ms
                );
                failed = true;
            }
            if s.fleet.threads_spawned as usize > s.fleet.width * s.fleet.job_threads {
                eprintln!(
                    "engine_bench: {} spawned {} threads for {} jobs at a time, {} threads \
                     each — threads are leaking",
                    s.backend, s.fleet.threads_spawned, s.fleet.width, s.fleet.job_threads
                );
                failed = true;
            }
        }
    }

    let json = render_json(level, reps, policy.name(), &stats);
    match cli.value("--json") {
        Some(path) => {
            std::fs::write(path, &json).expect("write --json file");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
    if failed {
        std::process::exit(1);
    }
}
