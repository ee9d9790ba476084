//! The paper's application, end to end: solve the time-dependent
//! advection-diffusion problem with the sparse-grid combination technique —
//! sequentially, then concurrently through the renovated master/worker
//! structure — and verify the results are bit-identical.
//!
//! ```text
//! cargo run -p renovation --release --example sparse_grid_transport [-- <max_level>]
//! ```

use std::sync::Arc;

use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, RunMode};
use solver::SequentialApp;

fn main() {
    let max_level: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let le_tol = 1.0e-4;

    println!("sparse-grid transport problem: root 2, le_tol {le_tol:.0e}");
    println!();
    println!("level  grids  seq steps    l2 error   identical-concurrent");
    for level in 0..=max_level {
        let app = SequentialApp::new(2, level, le_tol);
        let seq = app.run().expect("sequential run failed");
        let opts = EngineOpts {
            capacity_level: level,
            ..EngineOpts::default()
        };
        let conc = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts)
            .and_then(|engine| engine.run_one(AppConfig::new(app)))
            .expect("concurrent run failed");
        let identical = conc.result.combined == seq.combined;
        let steps: usize = seq.per_grid.iter().map(|g| g.steps).sum();
        println!(
            "{level:>5} {:>6} {steps:>10} {:>11.4e}   {}",
            seq.per_grid.len(),
            seq.l2_error,
            if identical { "yes" } else { "NO!" }
        );
        assert!(identical, "concurrent result diverged from sequential");
    }
    println!();
    println!(
        "\"These are written to a file and are exactly the same as in the \
         sequential version.\" (§6) — verified."
    );
}
