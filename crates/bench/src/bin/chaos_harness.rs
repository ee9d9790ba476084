//! The chaos harness: many seeded fault schedules against the live
//! backends, the supervisor, and the simulator — each under a hard
//! deadlock watchdog.
//!
//! The invariant it asserts is the renovation's robustness claim in one
//! sentence: **when the budgets suffice, a faulted run is bit-identical to
//! an undisturbed one; when they do not, it fails with a diagnosis in
//! bounded time; it never hangs.**
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin chaos_harness \
//!     [-- --seeds N] [--level L] [--instances W] [--json]
//! ```
//!
//! Scenarios, per seed `1..=N`:
//! * `threads:worker-faults` — a generated schedule (crashes, stalls)
//!   against the in-process backend;
//! * `procs:worker-faults` — the same schedule class against real worker
//!   OS processes over the transport (kills, connection drops, corrupted
//!   frames, stalls);
//! * `threads:master-kill` — a master death mid-run, recovered by the
//!   supervisor from the last checkpoint;
//! * `sim:worker-faults` — the schedule composed with the multi-user
//!   noise model in the virtual-time simulator, run twice to witness
//!   per-seed determinism.
//!
//! Plus two budget-exhaustion scenarios (procs and sim) that must end in a
//! clean diagnosed error. Every scenario runs under a [`chaos::Watchdog`]:
//! a hang aborts the whole process, so a finished harness *is* the proof
//! of `watchdog_timeouts: 0`. `--json` prints only the machine-readable
//! block (the committed `BENCH_chaos.json` is this output).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::cli::Cli;
use bench::json::{fixed, raw, Json};
use bench::live::{field_checksum, run_live, Backend};
use bench::obj;
use chaos::{FaultKind, FaultPlan, Watchdog};
use cluster::hosts::paper_cluster;
use cluster::noise::Perturbation;
use cluster::sim::{DistributedSim, SimFleet};
use protocol::PaperFaithful;
use renovation::cost::CostModel;
use renovation::{supervise, AppConfig, Engine, EngineOpts, RunMode};
use solver::sequential::SequentialApp;

/// One scenario's verdict, serialized into `BENCH_chaos.json`.
struct Verdict {
    name: &'static str,
    seed: u64,
    /// `bit-identical`, `diagnosed-failure`, or a failure description.
    outcome: String,
    ok: bool,
    losses: usize,
    redispatches: usize,
    relaunches: usize,
    wall_s: f64,
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mf-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SCENARIO_TIMEOUT: Duration = Duration::from_secs(120);

fn main() {
    let cli = Cli::parse(
        "chaos_harness",
        "[--seeds N] [--level L] [--instances W] [--json]",
    );
    let seeds: u64 = cli.parsed("--seeds", 3);
    let level: u32 = cli.parsed("--level", 2);
    let instances: usize = cli.parsed("--instances", 2);
    let json_only = cli.flag("--json");

    let app = SequentialApp::new(2, level, 1.0e-3);
    let jobs = (2 * level + 1) as u64;
    let seq = app.run().expect("sequential reference");
    let reference = field_checksum(&seq.combined);
    let mut verdicts: Vec<Verdict> = Vec::new();

    // --- Per-seed sufficiency scenarios: faulted == undisturbed, bit for
    // bit. ---
    for seed in 1..=seeds {
        let plan = FaultPlan::from_seed(seed, instances as u64, jobs);

        for (name, backend) in [
            ("threads:worker-faults", Backend::Threads),
            ("procs:worker-faults", Backend::Procs),
        ] {
            let dog = Watchdog::arm(&format!("{name} seed {seed}"), SCENARIO_TIMEOUT);
            let t0 = Instant::now();
            let opts = EngineOpts {
                faults: Some(plan.clone()),
                retry_budget: 16,
                ..EngineOpts::default()
            };
            let v = match run_live(backend, &app, Arc::new(PaperFaithful), instances, &opts) {
                Ok(r) if r.checksum == reference => Verdict {
                    name,
                    seed,
                    outcome: "bit-identical".into(),
                    ok: true,
                    losses: r.losses,
                    redispatches: 0,
                    relaunches: 0,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
                Ok(r) => Verdict {
                    name,
                    seed,
                    outcome: format!("CHECKSUM MISMATCH: {:016x} != {reference:016x}", r.checksum),
                    ok: false,
                    losses: r.losses,
                    redispatches: 0,
                    relaunches: 0,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
                Err(e) => Verdict {
                    name,
                    seed,
                    outcome: format!("UNEXPECTED FAILURE: {e}"),
                    ok: false,
                    losses: 0,
                    redispatches: 0,
                    relaunches: 0,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
            };
            dog.disarm();
            verdicts.push(v);
        }

        // Master death mid-run, recovered by the supervisor from the last
        // checkpoint.
        {
            let dog = Watchdog::arm(
                &format!("threads:master-kill seed {seed}"),
                SCENARIO_TIMEOUT,
            );
            let t0 = Instant::now();
            let dir = tmp_dir(&format!("kill-{seed}"));
            // Kill after a seed-dependent number of collected results (at
            // least one, so the checkpoint is non-trivial).
            let kill_at = 1 + seed % jobs.max(2);
            let plan = FaultPlan::new(seed).push(FaultKind::MasterKill { at_result: kill_at });
            let opts = EngineOpts {
                capacity_level: level,
                faults: Some(plan),
                checkpoint_dir: Some(dir.clone()),
                ..EngineOpts::default()
            };
            let launch_app = app;
            let sup = supervise(2, move |resume| {
                let opts = EngineOpts {
                    resume,
                    ..opts.clone()
                };
                Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts)?
                    .run_one(AppConfig::new(launch_app))
            });
            let v = match sup {
                Ok(s) if field_checksum(&s.result.result.combined) == reference => Verdict {
                    name: "threads:master-kill",
                    seed,
                    outcome: "bit-identical".into(),
                    ok: s.relaunches == 1,
                    losses: 0,
                    redispatches: 0,
                    relaunches: s.relaunches,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
                Ok(s) => Verdict {
                    name: "threads:master-kill",
                    seed,
                    outcome: "CHECKSUM MISMATCH after relaunch".into(),
                    ok: false,
                    losses: 0,
                    redispatches: 0,
                    relaunches: s.relaunches,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
                Err(e) => Verdict {
                    name: "threads:master-kill",
                    seed,
                    outcome: format!("UNEXPECTED FAILURE: {e}"),
                    ok: false,
                    losses: 0,
                    redispatches: 0,
                    relaunches: 0,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
            };
            let _ = std::fs::remove_dir_all(&dir);
            dog.disarm();
            verdicts.push(v);
        }

        // The same schedule class composed with multi-user noise in the
        // virtual-time simulator — run twice: per-seed determinism.
        {
            let dog = Watchdog::arm(&format!("sim:worker-faults seed {seed}"), SCENARIO_TIMEOUT);
            let t0 = Instant::now();
            let model = CostModel::paper_calibrated();
            let wl = model.workload(2, 13, 1.0e-3, true);
            let sim = DistributedSim::new(paper_cluster(model.ref_flops_per_sec));
            let plan = FaultPlan::from_seed(seed, 4, 27);
            let run = |s: u64| {
                SimFleet::new(sim.clone(), &plan, 16).submit(
                    &wl,
                    &mut Perturbation::overnight(s),
                    &PaperFaithful,
                )
            };
            let (a, b) = (run(seed), run(seed));
            let v = match (a, b) {
                (Ok(a), Ok(b)) if a.elapsed == b.elapsed && a.redispatches == b.redispatches => {
                    Verdict {
                        name: "sim:worker-faults",
                        seed,
                        outcome: "deterministic".into(),
                        ok: true,
                        losses: 0,
                        redispatches: a.redispatches,
                        relaunches: 0,
                        wall_s: t0.elapsed().as_secs_f64(),
                    }
                }
                (a, b) => Verdict {
                    name: "sim:worker-faults",
                    seed,
                    outcome: format!(
                        "NONDETERMINISTIC: {:?} vs {:?}",
                        a.map(|r| r.elapsed),
                        b.map(|r| r.elapsed)
                    ),
                    ok: false,
                    losses: 0,
                    redispatches: 0,
                    relaunches: 0,
                    wall_s: t0.elapsed().as_secs_f64(),
                },
            };
            dog.disarm();
            verdicts.push(v);
        }
    }

    // --- Insufficiency scenarios: budgets too small must end in a clean
    // diagnosed error, in bounded time. ---
    {
        let dog = Watchdog::arm("procs:budget-exhausted", SCENARIO_TIMEOUT);
        let t0 = Instant::now();
        // The only instance dies on its first job, every incarnation: no
        // progress is possible.
        let plan = FaultPlan::new(1).push(FaultKind::WorkerCrash {
            instance: 0,
            on_job: 1,
        });
        let opts = EngineOpts {
            faults: Some(plan),
            retry_budget: 2,
            ..EngineOpts::default()
        };
        let v = match run_live(Backend::Procs, &app, Arc::new(PaperFaithful), 1, &opts) {
            Err(e) => Verdict {
                name: "procs:budget-exhausted",
                seed: 0,
                outcome: format!("diagnosed-failure: {e}"),
                ok: true,
                losses: 0,
                redispatches: 0,
                relaunches: 0,
                wall_s: t0.elapsed().as_secs_f64(),
            },
            Ok(_) => Verdict {
                name: "procs:budget-exhausted",
                seed: 0,
                outcome: "UNEXPECTED SUCCESS with an impossible budget".into(),
                ok: false,
                losses: 0,
                redispatches: 0,
                relaunches: 0,
                wall_s: t0.elapsed().as_secs_f64(),
            },
        };
        dog.disarm();
        verdicts.push(v);
    }
    {
        let dog = Watchdog::arm("sim:budget-exhausted", SCENARIO_TIMEOUT);
        let t0 = Instant::now();
        let model = CostModel::paper_calibrated();
        let wl = model.workload(2, 13, 1.0e-3, true);
        let sim = DistributedSim::new(paper_cluster(model.ref_flops_per_sec));
        let plan = FaultPlan::new(2)
            .push(FaultKind::WorkerCrash {
                instance: 0,
                on_job: 2,
            })
            .push(FaultKind::ConnDrop {
                instance: 1,
                on_job: 3,
            });
        let v = match SimFleet::new(sim, &plan, 1).submit(
            &wl,
            &mut Perturbation::none(),
            &PaperFaithful,
        ) {
            Err(e) => Verdict {
                name: "sim:budget-exhausted",
                seed: 0,
                outcome: format!("diagnosed-failure: {e}"),
                ok: true,
                losses: 0,
                redispatches: 0,
                relaunches: 0,
                wall_s: t0.elapsed().as_secs_f64(),
            },
            Ok(_) => Verdict {
                name: "sim:budget-exhausted",
                seed: 0,
                outcome: "UNEXPECTED SUCCESS with an impossible budget".into(),
                ok: false,
                losses: 0,
                redispatches: 0,
                relaunches: 0,
                wall_s: t0.elapsed().as_secs_f64(),
            },
        };
        dog.disarm();
        verdicts.push(v);
    }

    let all_ok = verdicts.iter().all(|v| v.ok);

    if !json_only {
        println!(
            "chaos harness — level {level}, {instances} instances, seeds 1..={seeds} \
             (reference checksum {reference:016x})"
        );
        println!();
        println!("| scenario                | seed | ok  | lost | redisp | relaunch |  wall s | outcome |");
        println!("|-------------------------|------|-----|------|--------|----------|---------|---------|");
        for v in &verdicts {
            println!(
                "| {:<23} | {:>4} | {:<3} | {:>4} | {:>6} | {:>8} | {:>7.3} | {} |",
                v.name,
                v.seed,
                if v.ok { "yes" } else { "NO" },
                v.losses,
                v.redispatches,
                v.relaunches,
                v.wall_s,
                v.outcome
            );
        }
        println!();
    }

    // The machine-readable block (BENCH_chaos.json).
    let scenarios = verdicts.iter().map(|v| {
        obj! { "name": Json::Str(v.name.into()), "seed": raw(v.seed), "ok": raw(v.ok),
        "losses": raw(v.losses), "redispatches": raw(v.redispatches),
        "relaunches": raw(v.relaunches), "wall_s": fixed(v.wall_s, 3),
        "outcome": Json::Str(v.outcome.clone()) }
    });
    let json = obj! { "schema": Json::Str("chaos-harness/v1".into()), "level": raw(level),
    "instances": raw(instances), "seeds": raw(seeds),
    "reference_checksum": Json::Str(format!("{reference:016x}")),
    "watchdog_timeouts": raw(0), "all_ok": raw(all_ok),
    "scenarios": Json::Arr(scenarios.collect()) };
    print!("{}", json.render());

    if !all_ok {
        std::process::exit(1);
    }
}
