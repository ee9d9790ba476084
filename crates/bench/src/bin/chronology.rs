//! Reproduce the §6 chronological output: the `Welcome`/`Bye` trace of a
//! small distributed run, in the exact label format of the paper
//! (machine, task-instance id, process id, seconds+microseconds since the
//! epoch, task name, manifold name, source file, line, message).
//!
//! Two variants:
//! * default — a *live* run of the renovated application (real threads,
//!   bundled per the paper's `mainprog.mlink` + host list, real clock);
//! * `--virtual` — the simulated cluster run (virtual timestamps), which
//!   also prints the machine ebb & flow summary.
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin chronology [-- --level N] [--virtual]
//! ```

use std::sync::Arc;

use bench::cli::Cli;
use protocol::PaperFaithful;
use renovation::virtualrun::figure1_run;
use renovation::{AppConfig, Engine, EngineOpts, RunMode};
use solver::SequentialApp;

const USAGE: &str = "[--level N] [--virtual]";

fn main() {
    let cli = Cli::parse("chronology", USAGE);
    let level: u32 = cli.parsed("--level", 2);
    let virtual_run = cli.flag("--virtual");

    if virtual_run {
        let report = figure1_run(level, 1.0e-3, 7);
        for rec in &report.records {
            println!("{rec}");
        }
        println!();
        println!(
            "elapsed {:.1} s, peak {} machines, weighted average {:.1}",
            report.elapsed, report.peak_machines, report.weighted_avg_machines
        );
    } else {
        let app = SequentialApp::new(2, level, 1.0e-3);
        let mode = RunMode::Distributed {
            hosts: RunMode::paper_hosts(),
        };
        let opts = EngineOpts {
            capacity_level: level,
            ..EngineOpts::default()
        };
        let conc = Engine::threads(mode, Arc::new(PaperFaithful), opts)
            .and_then(|engine| engine.run_one(AppConfig::new(app)))
            .expect("run failed");
        for rec in conc
            .records
            .iter()
            .filter(|r| r.message == "Welcome" || r.message == "Bye")
        {
            println!("{rec}");
        }
        println!();
        println!(
            "distributed run over {} machines; l2 error {:.3e}; pools: {:?}",
            conc.machines_used,
            conc.result.l2_error,
            conc.outcome
                .pools()
                .iter()
                .map(|p| p.workers_created)
                .collect::<Vec<_>>()
        );
    }
}
