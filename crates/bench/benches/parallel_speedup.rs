//! The live shared-memory variant: sequential program vs the renovated
//! parallel application (all processes as threads of one task instance —
//! the paper's `load 6` deployment) on this machine's cores.
//!
//! Also benchmarks the §4.1 I/O-worker ablation: with the initial data
//! sampled by the workers instead of shipped through the master, the
//! master's serial feeding phase shrinks.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, JobReport, RunMode};
use solver::SequentialApp;
use std::hint::black_box;

/// One job on a fresh threads fleet sized to it, bring-up included.
fn run_one(app: &SequentialApp, data_through_master: bool) -> JobReport {
    let opts = EngineOpts {
        capacity_level: app.level,
        ..EngineOpts::default()
    };
    let job = AppConfig::new(*app).with_data_through_master(data_through_master);
    Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts)
        .and_then(|engine| engine.run_one(job))
        .unwrap()
}

fn bench_sequential_vs_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_run");
    group.sample_size(10);
    for level in [2u32, 3] {
        let app = SequentialApp::new(2, level, 1.0e-3);
        group.bench_with_input(BenchmarkId::new("sequential", level), &app, |b, app| {
            b.iter(|| black_box(app.run().unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("parallel", level), &app, |b, app| {
            b.iter(|| black_box(run_one(app, true)))
        });
        group.bench_with_input(
            BenchmarkId::new("parallel_io_workers", level),
            &app,
            |b, app| b.iter(|| black_box(run_one(app, false))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sequential_vs_parallel);
criterion_main!(benches);
