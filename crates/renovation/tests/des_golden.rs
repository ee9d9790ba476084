//! Golden bits of the discrete-event simulator: the f64 bit patterns of
//! the paper artifacts it produces — Table 1 (both data paths), the
//! Figure 1 run, and the chaos harness's faulted sim scenario — pinned in
//! `tests/fixtures/des_golden/*.txt`.
//!
//! `tests/experiments.rs` checks these artifacts against ranges; this file
//! makes "byte-identical" checkable. A change to the simulator that moves
//! any of them shows here as a readable diff. To regenerate after an
//! intentional change:
//!
//! ```text
//! MC_BLESS=1 cargo test -p renovation --test des_golden
//! ```

use std::fmt::Write as _;

use chaos::FaultPlan;
use cluster::{paper_cluster, DistributedSim, Perturbation, SimFleet};
use protocol::PaperFaithful;
use renovation::virtualrun::figure1_run;
use renovation::{run_distributed_experiment, CostModel};

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/des_golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("MC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with MC_BLESS=1",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "DES output drifted from {}; regenerate with MC_BLESS=1 if intentional\n\
         first differing line: {:?}",
        path.display(),
        actual.lines().zip(expected.lines()).find(|(a, e)| a != e)
    );
}

#[test]
fn table1_sweep_bits_are_pinned() {
    let mut out = String::new();
    for through_master in [true, false] {
        let points = run_distributed_experiment(
            0..=15,
            &[1.0e-3, 1.0e-4],
            5,
            20040406,
            through_master,
            &PaperFaithful,
        );
        for p in points {
            writeln!(
                out,
                "master={through_master} tol={:e} level={} st={} ct={} m={} su={} peak={} forks={}",
                p.tol,
                p.level,
                bits(p.st),
                bits(p.ct),
                bits(p.m),
                bits(p.su),
                p.peak,
                p.forks
            )
            .unwrap();
        }
    }
    check("table1", &out);
}

#[test]
fn figure1_run_bits_are_pinned() {
    let mut out = String::new();
    for seed in [1u64, 2] {
        let r = figure1_run(15, 1.0e-3, seed);
        writeln!(
            out,
            "seed={seed} elapsed={} m={} peak={} task_forks={} master={}",
            bits(r.elapsed),
            bits(r.weighted_avg_machines),
            r.peak_machines,
            r.task_forks,
            r.master_host
        )
        .unwrap();
        for (t, v) in r.busy.steps() {
            writeln!(out, "busy {} {v}", bits(t)).unwrap();
        }
        for rec in &r.records {
            writeln!(
                out,
                "record {}.{:06} {} task={} proc={} {}:{} {}",
                rec.secs,
                rec.usecs,
                rec.host,
                rec.task_uid,
                rec.proc_uid,
                rec.manifold_name,
                rec.line,
                rec.message
            )
            .unwrap();
        }
    }
    check("figure1", &out);
}

#[test]
fn chaos_sim_scenario_bits_are_pinned() {
    let model = CostModel::paper_calibrated();
    let wl = model.workload(2, 13, 1.0e-3, true);
    let sim = DistributedSim::new(paper_cluster(model.ref_flops_per_sec));
    let mut out = String::new();
    for seed in 1u64..=3 {
        let plan = FaultPlan::from_seed(seed, 4, 27);
        let r = SimFleet::new(sim.clone(), &plan, 16).submit(
            &wl,
            &mut Perturbation::overnight(seed),
            &PaperFaithful,
        );
        match r {
            Ok(r) => writeln!(
                out,
                "seed={seed} elapsed={} m={} peak={} task_forks={} redispatches={} records={}",
                bits(r.elapsed),
                bits(r.weighted_avg_machines),
                r.peak_machines,
                r.task_forks,
                r.redispatches,
                r.records.len()
            ),
            Err(e) => writeln!(out, "seed={seed} err={e}"),
        }
        .unwrap();
    }
    check("chaos", &out);
}
