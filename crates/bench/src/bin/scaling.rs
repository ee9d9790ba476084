//! Scaling analysis beyond the paper's single 32-machine data point: how
//! does the renovated application's speedup respond to cluster size — and
//! where does the *flat* single-master dispatch spine stop scaling?
//!
//! Three experiments:
//!
//! 1. **Paper curve** (strong scaling): sweep the number of machines for a
//!    fixed workload on the paper's calibrated cluster and report speedup,
//!    peak machines, and the serial-fraction estimate
//!    `f = (w/su − 1)/(w − 1)` (Amdahl, w = machines offered). This
//!    reproduces the paper's observation that "the average speedup in a
//!    run always lags behind the average number of machines it uses", and
//!    its 32-host data point.
//! 2. **Flat-master saturation + sharded fleets** (throughput scaling):
//!    sweep a synthetic heterogeneous fleet from 32 to 10,000 hosts with a
//!    workload proportional to the fleet, and run the sharded
//!    discrete-event simulation ([`cluster::SimFleet`], the one that
//!    produces Table 1) once flat (1 shard — the paper's master) and once
//!    sharded (hierarchical shard masters with work stealing). The flat
//!    master's serial feed saturates aggregate throughput; sharding
//!    restores it.
//! 3. **Determinism witness**: the sharded run repeats with the same seed
//!    and must produce the bit-identical virtual elapsed time.
//!
//! ```text
//! cargo run -p bench --release --bin scaling \
//!     [-- --level N --tol T] [--backend sim|threads|procs] \
//!     [--shards N] [--steal on|off] [--churn join@N,leave@M] \
//!     [--faults <seed|plan>] [--checkpoint-dir DIR] [--resume] \
//!     [--out BENCH_scaling.json]
//! ```
//!
//! `--backend threads` / `--backend procs` run a *live* strong-scaling
//! sweep instead: the same workload under a bounded-reuse dispatch window
//! of 1, 2, 4, 8 (with that many worker processes for `procs`), measuring
//! wall-clock speedup and verifying the solution checksum never changes
//! with concurrency — now also under `--shards`/`--churn`, whose steal,
//! join, and leave events are counted from the trace. `--out` writes the
//! machine-readable sweep (the committed `BENCH_scaling.json`).

use std::sync::Arc;

use bench::cli::Cli;
use bench::json::{fixed, raw, Json};
use bench::live::{field_checksum, run_live, Backend};
use bench::obj;
use cluster::hosts::{paper_cluster, synthetic_cluster, ClusterSpec};
use cluster::noise::Perturbation;
use cluster::sim::DistributedSim;
use protocol::{PaperFaithful, ShardSpec};
use renovation::cost::CostModel;
use renovation::EngineOpts;

const USAGE: &str = "[--level N] [--tol T] [--backend sim|threads|procs] \
     [--shards N] [--steal on|off] [--churn join@N,leave@M] \
     [--faults <seed|plan>] [--checkpoint-dir DIR] [--resume] [--out FILE]";

fn main() {
    let cli = Cli::parse("scaling", USAGE);
    let backend = cli.backend(Backend::Sim);
    let level = cli.parsed(
        "--level",
        if backend == Backend::Sim { 13u32 } else { 6u32 },
    );
    let tol = cli.parsed("--tol", 1.0e-3f64);
    let shard_spec = cli.shards();
    let churn = cli.churn();

    if backend != Backend::Sim {
        let fault_spec = cli.fault_spec();
        let checkpoint_dir = cli.checkpoint_dir();
        let resume = cli.resume();
        let app = solver::sequential::SequentialApp::new(2, level, tol);
        let seq = app.run().expect("sequential reference");
        let reference = field_checksum(&seq.combined);
        println!(
            "live strong scaling, {backend:?} backend — level {level}, tol {tol:.0e} \
             ({} jobs), bounded-reuse window sweep{}{}",
            2 * level + 1,
            if shard_spec.is_flat() {
                String::new()
            } else {
                format!(", {} shards", shard_spec.shards)
            },
            if fault_spec.is_some() {
                ", with injected faults"
            } else {
                ""
            }
        );
        println!();
        println!("| window |  wall s |   su | peak | lost | steal | join | leave | checksum ok |");
        println!("|--------|---------|------|------|------|-------|------|-------|-------------|");
        let mut base = None;
        for window in [1usize, 2, 4, 8] {
            let policy = Arc::new(protocol::BoundedReuse::new(window));
            let faults = fault_spec
                .as_deref()
                .map(|spec| cli.fault_plan(spec, window as u64, (2 * level + 1) as u64));
            let mut opts = EngineOpts {
                faults,
                checkpoint_dir: checkpoint_dir.clone(),
                resume,
                shards: shard_spec,
                churn: churn.clone(),
                ..EngineOpts::default()
            };
            if fault_spec.is_some() {
                opts.retry_budget = 16;
            }
            let r = run_live(backend, &app, policy, window, &opts)
                .expect("live run failed (fault schedule exceeded the retry budget?)");
            let base_wall = *base.get_or_insert(r.wall_s);
            println!(
                "| {window:>6} | {:>7.3} | {:>4.2} | {:>4} | {:>4} | {:>5} | {:>4} | {:>5} | {:>11} |",
                r.wall_s,
                base_wall / r.wall_s,
                r.peak,
                r.losses,
                r.steals,
                r.joins,
                r.leaves,
                if r.checksum == reference { "yes" } else { "NO" }
            );
            assert_eq!(
                r.checksum, reference,
                "concurrency changed the bits of the solution"
            );
        }
        println!();
        println!("checksums are verified against the sequential run: same bits at every window.");
        return;
    }

    let model = CostModel::paper_calibrated();
    let wl = model.workload(2, level, tol, true);
    let full = paper_cluster(model.ref_flops_per_sec);
    let st = DistributedSim::new(full.clone()).sequential_time(&wl, &mut Perturbation::none());

    println!(
        "strong scaling at level {level}, tol {tol:.0e} \
         (w = 2·{level}+1 = {} workers; st = {st:.2} s)",
        2 * level + 1
    );
    println!();
    println!("machines      ct       su    peak   serial fraction");
    let mut paper_rows: Vec<(usize, f64, f64, i64, f64)> = Vec::new();
    for n in [2usize, 4, 8, 16, 24, 32] {
        let mut cluster = full.clone();
        cluster.hosts.truncate(n);
        let cluster = ClusterSpec::new(cluster.hosts, model.ref_flops_per_sec);
        let sim = DistributedSim::new(cluster);
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let su = st / report.elapsed;
        let w = n as f64;
        let serial = if n > 1 {
            (w / su - 1.0) / (w - 1.0)
        } else {
            1.0
        };
        println!(
            "{n:>8} {:>8.2} {:>7.2} {:>7} {:>14.3}",
            report.elapsed, su, report.peak_machines, serial
        );
        paper_rows.push((n, report.elapsed, su, report.peak_machines, serial));
    }
    println!();
    println!(
        "the speedup saturates well below the cluster size: the master's \
         serial feeding + coordination overheads are the Amdahl bottleneck \
         the paper's Table 1 exhibits."
    );

    // ---- Flat-master saturation vs sharded fleets (the 10k-host sweep) --
    //
    // Fleet-proportional workload: each host gets ~2 jobs' worth of work,
    // so a fleet that scales perfectly holds throughput per host constant.
    // The flat master's serial feed caps aggregate throughput instead;
    // shard masters (each feeding its own pool, stealing across pools)
    // lift the cap.
    let seed = 411u64;
    let base = model.workload(2, 8, tol, true);
    println!();
    println!("flat-master saturation vs sharded fleets (heterogeneous synthetic hosts, quiet)");
    println!();
    println!(
        "|  hosts |  jobs | shards | flat jobs/s | sharded jobs/s | ratio | steals | spread s |"
    );
    println!(
        "|--------|-------|--------|-------------|----------------|-------|--------|----------|"
    );
    struct SweepRow {
        hosts: usize,
        jobs: usize,
        shards: usize,
        flat_elapsed: f64,
        flat_tp: f64,
        sharded_elapsed: f64,
        sharded_tp: f64,
        steals: usize,
        spread: f64,
        deterministic: bool,
    }
    let mut sweep: Vec<SweepRow> = Vec::new();
    for hosts in [32usize, 100, 320, 1000, 3200, 10000] {
        let copies = (2 * hosts).div_ceil(base.job_count()).max(1);
        let wl = base.replicate(copies);
        let cluster = synthetic_cluster(hosts, seed, model.ref_flops_per_sec);
        // One shard master per ~64 hosts, within the fleet's clamp; an
        // explicit --shards overrides.
        let shards = if shard_spec.is_flat() {
            (hosts / 64).clamp(2, 64)
        } else {
            shard_spec.shards
        };
        let quiet = |sim: &DistributedSim| sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let flat = quiet(&DistributedSim::new(cluster.clone()));
        let sim = DistributedSim {
            shards: ShardSpec::new(shards).with_steal(shard_spec.steal),
            churn: churn.clone(),
            ..DistributedSim::new(cluster)
        };
        let sharded = quiet(&sim);
        let again = quiet(&sim);
        let jobs = wl.job_count();
        let (flat_tp, sharded_tp) = (jobs as f64 / flat.elapsed, jobs as f64 / sharded.elapsed);
        let deterministic = sharded.elapsed.to_bits() == again.elapsed.to_bits();
        assert!(
            deterministic,
            "sharded DES must be bit-deterministic at a fixed shard count and seed"
        );
        println!(
            "| {hosts:>6} | {:>5} | {:>6} | {:>11.2} | {:>14.2} | {:>5.2} | {:>6} | {:>8.1} |",
            jobs,
            sharded.per_shard_jobs.len(),
            flat_tp,
            sharded_tp,
            sharded_tp / flat_tp,
            sharded.steals,
            sharded.finish_spread(),
        );
        sweep.push(SweepRow {
            hosts,
            jobs,
            shards: sharded.per_shard_jobs.len(),
            flat_elapsed: flat.elapsed,
            flat_tp,
            sharded_elapsed: sharded.elapsed,
            sharded_tp,
            steals: sharded.steals,
            spread: sharded.finish_spread(),
            deterministic,
        });
    }
    println!();
    let sat = sweep
        .windows(2)
        .find(|w| w[1].flat_tp < w[0].flat_tp * 1.10)
        .map(|w| w[0].hosts);
    match sat {
        Some(h) => println!(
            "flat-master throughput saturates near {h} hosts (<10% gain from the next \
             fleet size); sharded masters keep scaling."
        ),
        None => println!("flat-master throughput did not saturate within the sweep."),
    }

    // ---- Machine-readable block (the committed BENCH_scaling.json). ----
    let paper_curve = paper_rows.iter().map(|&(n, ct, su, peak, serial)| {
        obj! { "machines": raw(n), "ct_s": fixed(ct, 3), "speedup": fixed(su, 3),
        "peak_machines": raw(peak), "serial_fraction": fixed(serial, 4) }
    });
    let shard_sweep = sweep.iter().map(|r| {
        obj! { "hosts": raw(r.hosts), "jobs": raw(r.jobs), "shards": raw(r.shards),
        "flat_elapsed_s": fixed(r.flat_elapsed, 3), "flat_jobs_per_s": fixed(r.flat_tp, 4),
        "sharded_elapsed_s": fixed(r.sharded_elapsed, 3),
        "sharded_jobs_per_s": fixed(r.sharded_tp, 4),
        "throughput_ratio": fixed(r.sharded_tp / r.flat_tp, 3), "steals": raw(r.steals),
        "finish_spread_s": fixed(r.spread, 3), "deterministic": raw(r.deterministic) }
    });
    let json = obj! { "level": raw(level), "tol": raw(format!("{tol:e}")), "seed": raw(seed),
    "sequential_time_s": fixed(st, 3), "paper_curve": Json::Arr(paper_curve.collect()),
    "flat_saturation_hosts": raw(sat.map_or("null".into(), |h| h.to_string())),
    "shard_sweep": Json::Arr(shard_sweep.collect()) }
    .render();
    match cli.value("--out") {
        Some(path) => {
            std::fs::write(path, &json).expect("write --out file");
            println!();
            println!("wrote {path}");
        }
        None => {
            println!();
            print!("{json}");
        }
    }
}
