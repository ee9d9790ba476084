//! Regenerate Figure 1: "The ebb & flow during a run of our restructured
//! application for level 15" — elapsed time on the x-axis, number of
//! machines in use on the y-axis.
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin figure1 [-- --level N] [--tol T] [--seed S]
//! ```

use bench::cli::Cli;
use renovation::virtualrun::figure1_run;

const USAGE: &str = "[--level N] [--tol T] [--seed S]";

fn main() {
    let cli = Cli::parse("figure1", USAGE);
    let level: u32 = cli.parsed("--level", 15);
    let tol: f64 = cli.parsed("--tol", 1.0e-4);
    let seed: u64 = cli.parsed("--seed", 1);

    let report = figure1_run(level, tol, seed);
    println!(
        "Figure 1 reproduction — level {level}, tol {tol:.0e}: run of {:.0} s, \
         peak {} machines, weighted average {:.1}",
        report.elapsed, report.peak_machines, report.weighted_avg_machines
    );
    println!("(paper: a level-15 run of 634 s, sometimes 32 machines, weighted average 11)");
    println!();

    let samples = report.busy.sample(0.0, report.elapsed, 64);
    let series: Vec<(f64, f64)> = samples.iter().map(|&(t, v)| (t, v as f64)).collect();
    print!(
        "{}",
        bench::ascii_plot(
            "machines in use vs elapsed seconds",
            &[("machines", series)],
            false
        )
    );
    println!();
    println!("step trace (time s -> machines):");
    for (t, v) in report.busy.steps() {
        println!("{t:10.2} {v:3}");
    }
}
