//! Ablation studies of the design choices DESIGN.md calls out — each one
//! varies a single ingredient of the distributed run and reports its effect
//! on the level-14 concurrent time and speedup:
//!
//! 1. **Data path** — all data through the master (the paper's design) vs
//!    the §4.1 I/O-worker alternative the authors "have not tried out".
//! 2. **Pool structure** — one pool for all grids vs one pool per diagonal
//!    (the "more demanding master" of §4.2).
//! 3. **Network** — the paper's 100 Mbps switched Ethernet vs 10 Mbps and
//!    1 Gbps.
//! 4. **Task-fork cost** — 2003-era rsh forking vs an (anachronistic)
//!    instant fork.
//! 5. **Cluster heterogeneity** — the paper's 1200/1400/1466 MHz mix vs a
//!    homogeneous 1200 MHz cluster.
//! 6. **Dispatch policy** — the paper's feed-all-then-collect order vs the
//!    bounded-pool and cost-aware (LPT) scheduler policies.
//!
//! ```text
//! cargo run -p bench --release --bin ablations \
//!     [-- --level N --tol T] [--policy paper-faithful|bounded-reuse:N|cost-aware]
//! ```

use bench::cli::Cli;
use cluster::hosts::{paper_cluster, ClusterSpec, Host};
use cluster::sim::DistributedSim;
use cluster::workload::Workload;
use protocol::DispatchPolicy;
use renovation::cost::CostModel;

fn measure_with_policy(
    sim: &DistributedSim,
    wl: &Workload,
    seed: u64,
    policy: &dyn DispatchPolicy,
) -> (f64, f64, f64) {
    let (st, ct, _m, _) = sim.run_averaged(wl, 5, seed, policy);
    (st, ct, st / ct)
}

fn report(name: &str, baseline: (f64, f64, f64), variant: (f64, f64, f64)) {
    println!(
        "{name:<44} ct {:>8.2} s   su {:>5.2}   (baseline ct {:.2}, su {:.2}, Δct {:+.1}%)",
        variant.1,
        variant.2,
        baseline.1,
        baseline.2,
        100.0 * (variant.1 - baseline.1) / baseline.1
    );
}

fn main() {
    let cli = Cli::parse(
        "ablations",
        "[--level N] [--tol T] [--policy paper-faithful|bounded-reuse:N|cost-aware]",
    );
    let level = cli.parsed("--level", 14u32);
    let tol = cli.parsed("--tol", 1.0e-3f64);
    let policy = cli.policy();
    let policy = policy.as_ref();

    let model = CostModel::paper_calibrated();
    let sim = DistributedSim::new(paper_cluster(model.ref_flops_per_sec));
    let wl = model.workload(2, level, tol, true);
    let measure =
        |sim: &DistributedSim, wl: &Workload, seed: u64| measure_with_policy(sim, wl, seed, policy);
    let baseline = measure(&sim, &wl, 11);

    println!(
        "ablations at level {level}, tol {tol:.0e} (5 runs averaged, dispatch: {})",
        policy.name()
    );
    println!();
    report("baseline (paper design)", baseline, baseline);

    // 1. I/O workers.
    let wl_io = model.workload(2, level, tol, false);
    report(
        "I/O workers (workers fetch own input, §4.1)",
        baseline,
        measure(&sim, &wl_io, 11),
    );

    // 2. Per-diagonal pools.
    let wl_pools = model
        .workload_per_diagonal(2, level, tol, true)
        .expect("cost-model workloads carry well-formed subsolve labels");
    report(
        "two pools, one per diagonal (§4.2 note)",
        baseline,
        measure(&sim, &wl_pools, 11),
    );

    // 3. Network sweeps.
    for (label, bw) in [("10 Mbps Ethernet", 1.1e6), ("1 Gbps Ethernet", 110.0e6)] {
        let mut slow = sim.clone();
        slow.fabric.intra.bandwidth = bw;
        report(
            &format!("network: {label}"),
            baseline,
            measure(&slow, &wl, 11),
        );
    }

    // 4. Instant task forking.
    let mut instant = sim.clone();
    instant.costs.task_fork = 0.0;
    instant.costs.first_fork_extra = 0.0;
    instant.costs.startup = 0.0;
    report(
        "instant task forks (no rsh/NFS cost)",
        baseline,
        measure(&instant, &wl, 11),
    );

    // 5. Homogeneous cluster.
    let homogeneous = ClusterSpec::new(
        (0..32)
            .map(|i| Host::new(format!("uniform{i:02}.sen.cwi.nl"), 1200.0))
            .collect(),
        model.ref_flops_per_sec,
    );
    let homo_sim = DistributedSim::new(homogeneous);
    report(
        "homogeneous 32 x 1200 MHz cluster",
        baseline,
        measure(&homo_sim, &wl, 11),
    );

    // 6. Dispatch policies against the paper's feed order.
    report(
        "dispatch: bounded-reuse pool of 4",
        baseline,
        measure_with_policy(&sim, &wl, 11, &protocol::BoundedReuse::new(4)),
    );
    report(
        "dispatch: cost-aware (LPT) order",
        baseline,
        measure_with_policy(&sim, &wl, 11, &protocol::CostAware),
    );

    println!();
    println!(
        "(the paper's three overhead categories — multi-user noise, concurrency, \
         coordination layer — correspond to the noise model, the data-path/pool \
         ablations, and the fork/startup ablation respectively)"
    );
}
