//! Regenerate Table 1: average sequential time, average concurrent time,
//! weighted average machines, and speedup, for tolerances 1.0e-3 / 1.0e-4
//! and levels 0–15, five seeded runs averaged — on the simulated
//! 32-machine cluster.
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin table1 \
//!     [-- --io-workers] [--runs N] [--policy paper-faithful|bounded-reuse:N|cost-aware] \
//!     [--backend sim|threads|procs] [--max-level N] [--instances N] \
//!     [--shards N] [--steal on|off] [--churn join@N,leave@M] \
//!     [--faults <seed|plan>] [--checkpoint-dir DIR] [--resume]
//! ```
//!
//! `--backend sim` (the default) regenerates the paper's virtual-time
//! table. `--backend threads` / `--backend procs` *actually execute* the
//! renovated application — as threads of this program, or as separate
//! worker OS processes over the transport — and print per-level live
//! observables. Apart from the timing-dependent columns (peak, wall s),
//! the two live backends must print identical rows: same jobs, same L2
//! error, same solution checksum.

use bench::cli::Cli;
use bench::live::{run_live, Backend};
use renovation::{run_distributed_experiment, EngineOpts};

const USAGE: &str = "[--io-workers] [--runs N] \
     [--policy paper-faithful|bounded-reuse:N|cost-aware] \
     [--backend sim|threads|procs] [--max-level N] [--instances N] \
     [--shards N] [--steal on|off] [--churn join@N,leave@M] \
     [--faults <seed|plan>] [--checkpoint-dir DIR] [--resume]";

fn main() {
    let cli = Cli::parse("table1", USAGE);
    let io_workers = cli.flag("--io-workers");
    let runs = cli.parsed("--runs", 5usize);
    let policy = cli.policy();
    let backend = cli.backend(Backend::Sim);

    if backend != Backend::Sim {
        let max_level = cli.parsed("--max-level", 5u32);
        let instances = cli.parsed("--instances", 2usize);
        // `--faults` is either a bare u64 — a seed for a generated
        // schedule, scaled to each level's job count — or a full textual
        // chaos::FaultPlan applied verbatim.
        let fault_spec = cli.fault_spec();
        let checkpoint_dir = cli.checkpoint_dir();
        let resume = cli.resume();
        println!(
            "Table 1, live {backend:?} backend — levels 0–{max_level}, tol 1.0e-3, \
             dispatch: {}{}",
            policy.name(),
            if backend == Backend::Procs {
                format!(", {instances} worker processes")
            } else {
                String::new()
            }
        );
        println!();
        println!(
            "| level | jobs |        l2 error        |     checksum     | peak | lost |  wall s |"
        );
        println!(
            "|-------|------|------------------------|------------------|------|------|---------|"
        );
        for level in 0..=max_level {
            let app = solver::sequential::SequentialApp::new(2, level, 1.0e-3);
            let faults = fault_spec
                .as_deref()
                .map(|spec| cli.fault_plan(spec, instances as u64, (2 * level + 1) as u64));
            let mut opts = EngineOpts {
                faults,
                checkpoint_dir: checkpoint_dir.clone(),
                resume,
                shards: cli.shards(),
                churn: cli.churn(),
                ..EngineOpts::default()
            };
            if fault_spec.is_some() {
                opts.retry_budget = 16;
            }
            let r = run_live(backend, &app, policy.clone(), instances, &opts)
                .expect("live run failed (fault schedule exceeded the retry budget?)");
            println!(
                "| {level:>5} | {:>4} | {:>22.16e} | {:016x} | {:>4} | {:>4} | {:>7.3} |",
                r.jobs, r.l2_error, r.checksum, r.peak, r.losses, r.wall_s
            );
        }
        println!();
        println!(
            "jobs, l2 error and checksum are backend-invariant: rerun with the \
             other --backend and diff — with the same --faults schedule if \
             one was given, since injected losses must not change a single \
             bit. peak, lost and wall s depend on timing, not on the \
             backend's numerics."
        );
        return;
    }

    let variant = if io_workers {
        "I/O-worker ablation (§4.1 alternative: workers fetch their own input)"
    } else {
        "paper design (all data through the master)"
    };
    println!(
        "Table 1 reproduction — {variant}, {runs} runs averaged, dispatch: {}",
        policy.name()
    );
    println!();
    let points = run_distributed_experiment(
        0..=15,
        &[1.0e-3, 1.0e-4],
        runs,
        20040406,
        !io_workers,
        policy.as_ref(),
    );
    print!("{}", bench::format_table1(&points));
    println!();
    println!("paper reference (1.0e-3): su crosses 1.0 at level 10, reaches 7.8 at 15;");
    println!("paper reference (1.0e-4): su reaches 7.9 at 15; m grows to 12.2 / 13.3.");
}
