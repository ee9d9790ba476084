//! The numerical case for the sparse-grid method — the paper's motivation
//! quantified: "The developers of the program found their algorithms to be
//! effective (good convergence rates) but inefficient (long computing
//! times)."
//!
//! Prints, per level: the L2 error and work of the combination-technique
//! solution vs the full isotropic grid of equal finest mesh width, plus
//! the observed convergence order.
//!
//! ```text
//! cargo run -p bench --release --bin convergence [-- --max-level N --tol T]
//! ```

use bench::cli::Cli;
use solver::problem::Problem;
use solver::study::{convergence_study, format_study, observed_orders};

const USAGE: &str = "[--max-level N] [--tol T]";

fn main() {
    let cli = Cli::parse("convergence", USAGE);
    let max_level: u32 = cli.parsed("--max-level", 3);
    let tol: f64 = cli.parsed("--tol", 1.0e-5);

    for (name, problem) in [
        ("manufactured benchmark", Problem::manufactured_benchmark()),
        ("transport benchmark", Problem::transport_benchmark()),
    ] {
        println!("convergence study — {name}, root 2, le_tol {tol:.0e}");
        let rows = convergence_study(2, 0..=max_level, tol, problem).expect("study solve failed");
        print!("{}", format_study(&rows));
        let orders = observed_orders(&rows);
        println!(
            "observed combination orders per level: {:?}",
            orders
                .iter()
                .map(|o| (o * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
        println!();
    }
}
