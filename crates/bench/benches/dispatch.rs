//! Dispatch-policy comparison: the same live parallel run under each of
//! the three scheduler policies.
//!
//! `paper-faithful` feeds every worker before collecting (the paper's
//! verified protocol), `bounded-reuse` caps the in-flight window at a
//! small pool (backpressure: fewer threads computing at once), and
//! `cost-aware` fronts the expensive diagonal grids (LPT order from the
//! a-priori cost model). All three produce bit-identical results; this
//! bench measures what the ordering and windowing cost or buy in wall
//! clock. Also times the pure scheduling decision (order + window) on its
//! own, which must stay negligible next to a run.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protocol::{BoundedReuse, CostAware, PaperFaithful, PolicyRef};
use renovation::{AppConfig, Engine, EngineOpts, JobReport, RunMode};
use solver::SequentialApp;
use std::hint::black_box;

/// One job on a fresh threads fleet sized to it — what a one-shot run
/// costs, bring-up included.
fn run_one(app: &SequentialApp, policy: PolicyRef) -> JobReport {
    let opts = EngineOpts {
        capacity_level: app.level,
        ..EngineOpts::default()
    };
    Engine::threads(RunMode::Parallel, policy, opts)
        .and_then(|engine| engine.run_one(AppConfig::new(*app)))
        .unwrap()
}

fn policies() -> Vec<(&'static str, PolicyRef)> {
    vec![
        ("paper-faithful", Arc::new(PaperFaithful)),
        ("bounded-reuse-3", Arc::new(BoundedReuse::new(3))),
        ("cost-aware", Arc::new(CostAware)),
    ]
}

fn bench_policies_live(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_live");
    group.sample_size(10);
    for level in [2u32, 3] {
        let app = SequentialApp::new(2, level, 1.0e-3);
        for (name, policy) in policies() {
            group.bench_with_input(BenchmarkId::new(name, level), &app, |b, app| {
                b.iter(|| black_box(run_one(app, policy.clone())))
            });
        }
    }
    group.finish();
}

fn bench_decision_overhead(c: &mut Criterion) {
    // The scheduling decision itself, isolated: ordering the level-15 job
    // list (31 grids) must cost microseconds, not milliseconds.
    let costs: Vec<f64> = solver::grid::Grid2::combination_indices(15)
        .iter()
        .map(|idx| solver::work::estimate_subsolve_flops(2, idx.l, idx.m, 1.0e-3))
        .collect();
    let mut group = c.benchmark_group("dispatch_decision");
    for (name, policy) in policies() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &costs, |b, costs| {
            b.iter(|| {
                let order = policy.order(black_box(costs));
                let window = policy.window(costs.len());
                black_box((order, window))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies_live, bench_decision_overhead);
criterion_main!(benches);
