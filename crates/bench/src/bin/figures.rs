//! Regenerate Figures 2–5: the Table 1 series, plotted.
//!
//! * Figure 2 — average sequential and concurrent times vs level, 1.0e-3
//!   runs, logarithmic y ("Because of the wide range … we use the
//!   logarithmic scale").
//! * Figure 3 — average speedup and machines vs level, 1.0e-3 runs.
//! * Figure 4 — like Figure 2 for the 1.0e-4 runs.
//! * Figure 5 — like Figure 3 for the 1.0e-4 runs.
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin figures -- <2|3|4|5> [--runs N]
//! ```
//! With no figure number, all four are printed.

use bench::cli::Cli;
use renovation::{run_distributed_experiment, ExperimentPoint};

const USAGE: &str = "[2|3|4|5] [--runs N]";

fn plot_times(points: &[ExperimentPoint], tol: f64, fig: u32) {
    let pts: Vec<&ExperimentPoint> = points.iter().filter(|p| p.tol == tol).collect();
    let st: Vec<(f64, f64)> = pts.iter().map(|p| (p.level as f64, p.st)).collect();
    let ct: Vec<(f64, f64)> = pts.iter().map(|p| (p.level as f64, p.ct)).collect();
    print!(
        "{}",
        bench::ascii_plot(
            &format!(
                "Figure {fig}: avg sequential (st) & concurrent (ct) time [s] \
                 vs level — {tol:.0e} runs, log scale"
            ),
            &[("st", st), ("ct", ct)],
            true
        )
    );
    println!();
}

fn plot_speedup(points: &[ExperimentPoint], tol: f64, fig: u32) {
    let pts: Vec<&ExperimentPoint> = points.iter().filter(|p| p.tol == tol).collect();
    let su: Vec<(f64, f64)> = pts.iter().map(|p| (p.level as f64, p.su)).collect();
    let m: Vec<(f64, f64)> = pts.iter().map(|p| (p.level as f64, p.m)).collect();
    print!(
        "{}",
        bench::ascii_plot(
            &format!(
                "Figure {fig}: avg speedup (su) & weighted avg machines (m) \
                 vs level — {tol:.0e} runs"
            ),
            &[("su", su), ("m", m)],
            false
        )
    );
    println!();
}

fn main() {
    let cli = Cli::parse("figures", USAGE);
    let which: Option<u32> = cli.positional("figure");
    if let Some(f) = which.filter(|f| !(2..=5).contains(f)) {
        cli.usage_exit(&format!("no figure {f}; choose 2..5"));
    }
    let runs = cli.parsed("--runs", 5usize);

    let points = run_distributed_experiment(
        0..=15,
        &[1.0e-3, 1.0e-4],
        runs,
        20040406,
        true,
        &protocol::PaperFaithful,
    );

    let figures: Vec<u32> = which.map(|f| vec![f]).unwrap_or_else(|| vec![2, 3, 4, 5]);
    for fig in figures {
        match fig {
            2 => plot_times(&points, 1.0e-3, 2),
            3 => plot_speedup(&points, 1.0e-3, 3),
            4 => plot_times(&points, 1.0e-4, 4),
            _ => plot_speedup(&points, 1.0e-4, 5),
        }
    }

    println!("underlying series:");
    println!("tol    level       st        ct      su      m");
    for p in &points {
        println!(
            "{:<6} {:>5} {:>9.2} {:>9.2} {:>6.2} {:>6.1}",
            format!("{:.0e}", p.tol),
            p.level,
            p.st,
            p.ct,
            p.su,
            p.m
        );
    }
}
