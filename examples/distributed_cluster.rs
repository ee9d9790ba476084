//! Running the concurrent version on a cluster of workstations (§6):
//! the same application, redeployed by changing only the MLINK/CONFIG
//! stages — then projected onto the simulated 32-machine cluster to show
//! the virtual wall-clock behaviour of a big run.
//!
//! ```text
//! cargo run -p renovation --release --example distributed_cluster
//! ```

use std::sync::Arc;

use protocol::PaperFaithful;
use renovation::cost::CostModel;
use renovation::virtualrun::paper_sim;
use renovation::{AppConfig, Engine, EngineOpts, RunMode};
use solver::SequentialApp;

fn main() {
    // ---- Live distributed deployment (real threads, paper host list) ----
    let app = SequentialApp::new(2, 2, 1.0e-3);
    let mode = RunMode::Distributed {
        hosts: RunMode::paper_hosts(),
    };
    let opts = EngineOpts {
        capacity_level: app.level,
        ..EngineOpts::default()
    };
    let conc = Engine::threads(mode, Arc::new(PaperFaithful), opts)
        .and_then(|engine| engine.run_one(AppConfig::new(app)))
        .expect("distributed run failed");
    println!("chronological output of the level-2 distributed run:");
    for rec in conc
        .records
        .iter()
        .filter(|r| r.message == "Welcome" || r.message == "Bye")
    {
        println!("{rec}");
    }
    println!();
    println!(
        "machines used: {}   workers: {}   l2 error: {:.3e}",
        conc.machines_used,
        conc.outcome.pools()[0].workers_created,
        conc.result.l2_error
    );

    // ---- Virtual big run on the simulated cluster --------------------
    println!();
    println!("projected level-12 run on the simulated 32-machine cluster:");
    let model = CostModel::paper_calibrated();
    let sim = paper_sim(&model);
    let wl = model.workload(2, 12, 1.0e-3, true);
    let (st, ct, m, _) = sim.run_averaged(&wl, 5, 7, &PaperFaithful);
    println!(
        "st = {st:.2} s   ct = {ct:.2} s   machines = {m:.1}   speedup = {:.1}",
        st / ct
    );
    println!("(paper, level 12, 1.0e-3: st 145.47, ct 50.79, m 7.6, su 2.9)");
}
