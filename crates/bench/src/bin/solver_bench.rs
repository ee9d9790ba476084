//! Solver hot-path benchmark: the SIMD `subsolve` inner loop against the
//! retained reference implementation.
//!
//! For every grid of each requested combination-technique level this runs
//! the same subsolve through [`solver::reference::subsolve_reference`]
//! (triplet assembly, full stage rebuilds, allocating BiCGSTAB, per-step
//! error vector) and through the optimized path (direct CSR assembly,
//! pattern-cached stage matrix, in-place ILU(0) refactorization, reused
//! workspaces, SIMD kernels) at each requested tier — asserting the exact
//! tier is **bitwise identical** with the same step and (re)factorization
//! counts — and reports per-grid wall times plus a per-kernel breakdown
//! (assembly, CSR matvec, ILU(0) sweep, dot product) on each level's
//! calibration grid.
//!
//! ```text
//! cargo run -p bench --release --bin solver_bench [-- --level 6 |
//!     --level-range 8..=10] [--root 2 --tol 1e-4 --reps 3
//!     --tier exact|fast|both --json --assert-zero-alloc]
//! ```
//!
//! `--json` prints only the machine-readable block (the committed
//! `BENCH_solver.json` is this output). `--assert-zero-alloc` exits
//! nonzero unless a warm-workspace integration performs **zero** heap
//! allocations at every requested tier; the
//! binary installs a counting global allocator so the claim is measured,
//! not assumed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use bench::cli::Cli;
use solver::assemble::assemble;
use solver::grid::Grid2;
use solver::linsolve::{Ilu0, Preconditioner};
use solver::problem::Problem;
use solver::reference::subsolve_reference;
use solver::rosenbrock::{integrate_with, Ros2Options, Ros2Workspace};
use solver::simd::{dot_exact, dot_fast};
use solver::subsolve::{subsolve_tiered, SubsolveRequest};
use solver::{Tier, WorkCounter};

const USAGE: &str = "[--level N | --level-range L..=M] [--root N] [--tol T] \
     [--reps N] [--tier exact|fast|both] [--json] \
     [--assert-zero-alloc]";

// ---------------------------------------------------------------------------
// Counting allocator: tallies this thread's heap allocations so the
// "zero allocations per warm step" property is a measurement.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to the system allocator; the counter is a thread-local
// side effect and `try_with` makes it safe during TLS teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC_COUNT.with(|c| c.get());
    let out = f();
    let after = ALLOC_COUNT.with(|c| c.get());
    (out, after - before)
}

// ---------------------------------------------------------------------------

struct GridReport {
    l: u32,
    m: u32,
    unknowns: usize,
    steps: usize,
    refactorizations: u64,
    flops: u64,
    ref_ms: f64,
    /// Optimized wall time per timed tier, `tier_ms[i]` matching `tiers[i]`.
    tier_ms: Vec<f64>,
}

/// Per-kernel nanoseconds per call on a level's calibration grid.
struct KernelReport {
    unknowns: usize,
    nnz: usize,
    assembly_us: f64,
    matvec_ns: f64,
    sweep_ns: f64,
    dot_exact_ns: f64,
    dot_fast_ns: f64,
}

struct LevelReport {
    level: u32,
    grids: Vec<GridReport>,
    kernels: KernelReport,
    flops_per_unknown_step: f64,
}

/// The grid used for kernel timing and the zero-alloc window: the most
/// anisotropic useful shape of the level, matching the historical
/// calibration grid.
fn calibration_grid(root: u32, level: u32) -> Grid2 {
    Grid2::new(root, level.min(2), level.saturating_sub(level.min(2)))
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn kernel_bench(root: u32, level: u32, problem: &Problem, reps: usize) -> KernelReport {
    let g = calibration_grid(root, level);
    let mut wk = WorkCounter::new();
    let assembly_s = best_of(reps, || {
        let d = assemble(&g, problem, &mut wk);
        std::hint::black_box(&d);
    });
    let disc = assemble(&g, problem, &mut wk);
    let n = disc.a.n();
    let nnz = disc.a.nnz();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    // Size the inner loop so each timed sample does ~10^6 touched entries.
    let iters = (1_000_000 / nnz.max(1)).clamp(1, 100_000);
    let matvec_s = best_of(reps, || {
        for _ in 0..iters {
            disc.a.matvec_into(std::hint::black_box(&x), &mut y);
        }
    });
    let ilu = Ilu0::new(&disc.a, &mut wk);
    let mut z = vec![0.0; n];
    let mut dummy = WorkCounter::new();
    let sweep_s = best_of(reps, || {
        for _ in 0..iters {
            ilu.apply(std::hint::black_box(&x), &mut z, &mut dummy);
        }
    });
    let dot_iters = (1_000_000 / n.max(1)).clamp(1, 100_000);
    let mut acc = 0.0;
    let de_s = best_of(reps, || {
        for _ in 0..dot_iters {
            acc += dot_exact(std::hint::black_box(&x), &y);
        }
    });
    let df_s = best_of(reps, || {
        for _ in 0..dot_iters {
            acc += dot_fast(std::hint::black_box(&x), &y);
        }
    });
    std::hint::black_box(acc);
    KernelReport {
        unknowns: n,
        nnz,
        assembly_us: assembly_s * 1e6,
        matvec_ns: matvec_s * 1e9 / iters as f64,
        sweep_ns: sweep_s * 1e9 / iters as f64,
        dot_exact_ns: de_s * 1e9 / dot_iters as f64,
        dot_fast_ns: df_s * 1e9 / dot_iters as f64,
    }
}

/// Warm-workspace allocation count of the integrate hot loop at one tier.
fn zero_alloc_window(root: u32, level: u32, problem: &Problem, tol: f64, tier: Tier) -> u64 {
    let g = calibration_grid(root, level);
    let mut wk = WorkCounter::new();
    let disc = assemble(&g, problem, &mut wk);
    let u0 = disc.exact_interior(problem.t0);
    let opts = Ros2Options::with_tol(tol).with_tier(tier);
    let mut ws = Ros2Workspace::new();
    let (u_warm, _) = integrate_with(
        &disc,
        u0.clone(),
        problem.t0,
        problem.t_end,
        &opts,
        &mut ws,
        &mut wk,
    )
    .expect("warm-up integration");
    // `u0` moves in: the state vector was allocated outside the window.
    let ((u_meas, _), allocs) = allocations_during(|| {
        integrate_with(
            &disc,
            u0,
            problem.t0,
            problem.t_end,
            &opts,
            &mut ws,
            &mut wk,
        )
        .expect("measured integration")
    });
    assert_eq!(u_warm, u_meas, "warm rerun diverged");
    allocs
}

#[allow(clippy::too_many_arguments)]
fn bench_level(
    root: u32,
    level: u32,
    tol: f64,
    reps: usize,
    tiers: &[Tier],
    problem: &Problem,
    bit_identical: &mut bool,
    counts_match: &mut bool,
) -> LevelReport {
    let mut grids = Vec::new();
    for idx in &Grid2::combination_indices(level) {
        let req = SubsolveRequest::for_grid(root, idx.l, idx.m, tol, *problem);

        let mut ref_best = f64::INFINITY;
        let mut ref_res = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = subsolve_reference(&req).expect("reference subsolve");
            ref_best = ref_best.min(t0.elapsed().as_secs_f64());
            ref_res = Some(r);
        }
        let ref_res = ref_res.unwrap();

        let mut tier_ms = Vec::new();
        let mut exact_report = None;
        for &tier in tiers {
            let mut best = f64::INFINITY;
            let mut res = None;
            let mut ws = Ros2Workspace::new();
            for _ in 0..reps {
                let t0 = Instant::now();
                let r = subsolve_tiered(&req, tier, &mut ws).expect("optimized subsolve");
                best = best.min(t0.elapsed().as_secs_f64());
                res = Some(r);
            }
            let res = res.unwrap();
            if tier == Tier::Exact {
                *bit_identical &= ref_res.values == res.values;
                *counts_match &= ref_res.steps == res.steps
                    && ref_res.rejected == res.rejected
                    && ref_res.work.flops == res.work.flops
                    && ref_res.work.factorizations
                        == res.work.factorizations + res.work.refactorizations;
            }
            if exact_report.is_none() || tier == Tier::Exact {
                exact_report = Some(res);
            }
            tier_ms.push(best * 1e3);
        }
        let opt_res = exact_report.unwrap();

        let g = req.grid();
        grids.push(GridReport {
            l: idx.l,
            m: idx.m,
            unknowns: g.interior_count(),
            steps: opt_res.steps,
            refactorizations: opt_res.work.factorizations + opt_res.work.refactorizations,
            flops: opt_res.work.flops,
            ref_ms: ref_best * 1e3,
            tier_ms,
        });
    }

    // Measured flop intensity for the dispatch cost model: the mean of
    // (counted flops) / (unknowns · steps) across the combination grids.
    let (mut fsum, mut fcnt) = (0.0, 0usize);
    for r in &grids {
        if r.unknowns > 0 && r.steps > 0 {
            fsum += r.flops as f64 / (r.unknowns as f64 * r.steps as f64);
            fcnt += 1;
        }
    }

    LevelReport {
        level,
        kernels: kernel_bench(root, level, problem, reps),
        flops_per_unknown_step: fsum / fcnt.max(1) as f64,
        grids,
    }
}

fn main() {
    let cli = Cli::parse("solver_bench", USAGE);
    let json_only = cli.flag("--json");
    let assert_zero_alloc = cli.flag("--assert-zero-alloc");
    let levels = cli.level_range(6);
    let root: u32 = cli.parsed("--root", 2);
    let tol: f64 = cli.parsed("--tol", 1e-4);
    let reps: usize = cli.parsed("--reps", 3);
    let tiers = cli.tiers();

    let problem = Problem::transport_benchmark();

    // --- Zero-allocation property at every requested tier. ---------------
    // Warm one workspace, then measure: the second, identical integration
    // must not touch the heap at all.
    let za_level = *levels.start();
    let warm_allocs = tiers
        .iter()
        .map(|&tier| zero_alloc_window(root, za_level, &problem, tol, tier))
        .max()
        .unwrap_or(0);

    // --- Per-grid reference vs. optimized timing, per level. -------------
    let mut bit_identical = true;
    let mut counts_match = true;
    let reports: Vec<LevelReport> = levels
        .clone()
        .map(|level| {
            bench_level(
                root,
                level,
                tol,
                reps,
                &tiers,
                &problem,
                &mut bit_identical,
                &mut counts_match,
            )
        })
        .collect();

    if !json_only {
        println!("solver hot-path benchmark: reference vs. SIMD subsolve");
        println!(
            "root {root}, levels {}..={}, tol {tol:.1e}, best of {reps} reps, \
             tiers [{}], backend {}",
            levels.start(),
            levels.end(),
            tiers
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(", "),
            solver::simd::backend().name(),
        );
        for lr in &reports {
            println!();
            println!("  level {}", lr.level);
            print!("  grid        n   steps  refac    ref ms");
            for t in &tiers {
                print!("  {:>6} ms  spdup", t.name());
            }
            println!();
            for r in &lr.grids {
                print!(
                    "  ({},{})  {:>7} {:>7} {:>6} {:>9.2}",
                    r.l, r.m, r.unknowns, r.steps, r.refactorizations, r.ref_ms
                );
                for ms in &r.tier_ms {
                    print!("  {:>9.2} {:>6.2}", ms, r.ref_ms / ms.max(1e-12));
                }
                println!();
            }
            let total_ref: f64 = lr.grids.iter().map(|r| r.ref_ms).sum();
            for (i, t) in tiers.iter().enumerate() {
                let total: f64 = lr.grids.iter().map(|r| r.tier_ms[i]).sum();
                println!(
                    "  total {}: {total_ref:.1} ms -> {total:.1} ms ({:.2}x)",
                    t.name(),
                    total_ref / total.max(1e-12)
                );
            }
            let k = &lr.kernels;
            println!(
                "  kernels (n {}, nnz {}): assembly {:.1} us, matvec {:.0} ns, \
                 sweep {:.0} ns, dot exact {:.0} ns / fast {:.0} ns",
                k.unknowns,
                k.nnz,
                k.assembly_us,
                k.matvec_ns,
                k.sweep_ns,
                k.dot_exact_ns,
                k.dot_fast_ns
            );
        }
        println!();
        println!("  bit-identical (exact tier): {bit_identical}, counts match: {counts_match}");
        println!("  warm-workspace integrate allocations: {warm_allocs}");
        println!();
    }

    // --- Machine-readable block (the committed BENCH_solver.json). -------
    println!("{{");
    println!("  \"root\": {root},");
    println!("  \"tol\": {tol:e},");
    println!("  \"reps\": {reps},");
    println!(
        "  \"tiers\": [{}],",
        tiers
            .iter()
            .map(|t| format!("\"{}\"", t.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  \"backend\": \"{}\",", solver::simd::backend().name());
    println!("  \"levels\": [");
    for (li, lr) in reports.iter().enumerate() {
        let lcomma = if li + 1 < reports.len() { "," } else { "" };
        println!("    {{");
        println!("      \"level\": {},", lr.level);
        println!("      \"grids\": [");
        for (i, r) in lr.grids.iter().enumerate() {
            let comma = if i + 1 < lr.grids.len() { "," } else { "" };
            let tier_fields = tiers
                .iter()
                .zip(&r.tier_ms)
                .map(|(t, ms)| {
                    format!(
                        "\"{0}_ms\": {1:.3}, \"speedup_{0}\": {2:.3}",
                        t.name(),
                        ms,
                        r.ref_ms / ms.max(1e-12)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "        {{\"l\": {}, \"m\": {}, \"unknowns\": {}, \"steps\": {}, \
                 \"refactorizations\": {}, \"flops\": {}, \"ref_ms\": {:.3}, {tier_fields}}}{comma}",
                r.l, r.m, r.unknowns, r.steps, r.refactorizations, r.flops, r.ref_ms,
            );
        }
        println!("      ],");
        let total_ref: f64 = lr.grids.iter().map(|r| r.ref_ms).sum();
        println!("      \"total_ref_ms\": {total_ref:.3},");
        for (i, t) in tiers.iter().enumerate() {
            let total: f64 = lr.grids.iter().map(|r| r.tier_ms[i]).sum();
            println!("      \"total_{}_ms\": {total:.3},", t.name());
            println!(
                "      \"overall_speedup_{}\": {:.3},",
                t.name(),
                total_ref / total.max(1e-12)
            );
        }
        let k = &lr.kernels;
        println!(
            "      \"kernels\": {{\"unknowns\": {}, \"nnz\": {}, \"assembly_us\": {:.3}, \
             \"matvec_ns\": {:.1}, \"sweep_ns\": {:.1}, \"dot_exact_ns\": {:.1}, \
             \"dot_fast_ns\": {:.1}}},",
            k.unknowns,
            k.nnz,
            k.assembly_us,
            k.matvec_ns,
            k.sweep_ns,
            k.dot_exact_ns,
            k.dot_fast_ns
        );
        println!(
            "      \"flops_per_unknown_step\": {:.3}",
            lr.flops_per_unknown_step
        );
        println!("    }}{lcomma}");
    }
    println!("  ],");
    println!("  \"bit_identical\": {bit_identical},");
    println!("  \"counts_match\": {counts_match},");
    println!("  \"warm_integrate_allocations\": {warm_allocs}");
    println!("}}");

    if !bit_identical || !counts_match {
        eprintln!("FAIL: optimized exact tier diverged from the reference");
        std::process::exit(1);
    }
    if assert_zero_alloc && warm_allocs != 0 {
        eprintln!("FAIL: warm integrate performed {warm_allocs} heap allocations (expected 0)");
        std::process::exit(1);
    }
}
