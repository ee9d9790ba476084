//! Validate the cost model's *shape* against the real solver.
//!
//! The Table 1 reproduction rests on `CostModel::paper_calibrated()`. Its
//! absolute scale is anchored to one paper cell, but its shape constants —
//! geometric work growth per level, the tolerance exponent, the anisotropy
//! spread — are claims about the solver. This binary measures them on the
//! *actual* solver (real subsolves, real work counters) at feasible levels
//! and prints model-vs-measured side by side.
//!
//! ```text
//! cargo run -p bench --release --bin validate [-- --max-level N]
//! ```

use bench::cli::Cli;
use renovation::cost::{measure_shape, CostModel, REF_TOL};
use solver::problem::Problem;

fn main() {
    let cli = Cli::parse("validate", "[--max-level N]");
    let max_level: u32 = cli.parsed("--max-level", 4);

    let model = CostModel::paper_calibrated();
    println!("cost-model shape validation against the real solver");
    println!("(root 2, levels 0..={max_level}, transport benchmark, tol {REF_TOL:.0e})");
    println!();

    let shape = measure_shape(2, max_level, REF_TOL, Problem::transport_benchmark());

    println!("per-level work growth (measured flops vs model seconds):");
    println!("level   measured Mflop   growth   per-grid growth   model growth");
    let mut prev_model = model.sequential_seconds(2, 0, REF_TOL);
    let mut prev_flops: Option<f64> = None;
    for (level, flops) in &shape.level_flops {
        let model_st = model.sequential_seconds(2, *level, REF_TOL);
        let g_meas = prev_flops.map(|p| flops / p);
        let g_model = if *level > 0 {
            model_st / prev_model
        } else {
            f64::NAN
        };
        match g_meas {
            Some(g) => {
                // Divide out the growth of the grid *count* (2l+1 vs 2l-1)
                // to isolate the per-grid cost growth the model's
                // `level_growth` constant describes.
                let count_ratio = (2 * level + 1) as f64 / (2 * level - 1).max(1) as f64;
                println!(
                    "{level:>5} {:>16.2} {:>8.2} {:>17.2} {:>14.2}",
                    flops / 1e6,
                    g,
                    g / count_ratio,
                    g_model
                );
            }
            None => println!(
                "{level:>5} {:>16.2} {:>8} {:>17} {:>14}",
                flops / 1e6,
                "-",
                "-",
                "-"
            ),
        }
        if *level > 0 {
            prev_model = model_st;
        }
        prev_flops = Some(*flops);
    }
    println!();
    println!(
        "anisotropy spread at level {max_level}: measured {:.2}x (model band up to {:.2}x)",
        shape.anisotropy_spread,
        1.0 + model.anisotropy * (max_level as f64 / (max_level + 1) as f64).powi(2)
    );
    println!(
        "tolerance ratio tol/10 vs tol:   measured {:.2}x (model {:.2}x)",
        shape.tol_ratio,
        10f64.powf(model.tol_exponent)
    );
    println!();
    println!(
        "note: the raw measured growth converges to the paper's ~2.4x from \
         above because early levels also add grids (1 -> 3 -> 5 -> ...); \
         the per-grid column isolates the ~2.3-2.7x cost growth per level \
         that the model's level_growth constant describes. The model's own \
         low-level ratios are flattened by its fixed initialization costs, \
         mirroring the overhead-dominated low levels of the paper's table."
    );
}
