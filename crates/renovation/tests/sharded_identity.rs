//! Sharded-vs-flat identity: partitioning a job's dispatch sequence
//! across hierarchical shard masters (with or without work stealing, with
//! or without membership churn) must not change a single bit of the
//! numerical result. The shard topology is a *deployment* choice, exactly
//! as the paper's thread/process split is — the numbers must not know.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use protocol::{BoundedReuse, ChurnPlan, CostAware, PaperFaithful, PolicyRef, ShardSpec};
use renovation::{
    run_concurrent_opts, run_concurrent_procs, AppConfig, Engine, EngineOpts, ProcsConfig, RunMode,
    RunOpts,
};
use solver::sequential::SequentialApp;
use transport::BindMode;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_subsolve_worker"))
}

fn threads_run(
    app: &SequentialApp,
    policy: PolicyRef,
    opts: &RunOpts,
) -> renovation::ConcurrentResult {
    run_concurrent_opts(app, &RunMode::Parallel, true, policy, opts).unwrap()
}

/// The `dispatch subsolve(...)` trace lines, chronological.
fn dispatch_lines(records: &[manifold::trace::TraceRecord]) -> Vec<String> {
    records
        .iter()
        .filter(|r| r.message.starts_with("dispatch subsolve("))
        .map(|r| r.message.clone())
        .collect()
}

fn count_prefix(records: &[manifold::trace::TraceRecord], prefix: &str) -> usize {
    records
        .iter()
        .filter(|r| r.message.starts_with(prefix))
        .count()
}

#[test]
fn sharded_threads_runs_are_bit_identical_to_flat() {
    let app = SequentialApp::new(2, 4, 1e-3);
    let seq = app.run().unwrap();
    let flat = threads_run(&app, Arc::new(PaperFaithful), &RunOpts::default());
    assert_eq!(flat.result.combined, seq.combined);
    // The flat trace carries the original, unattributed dispatch line.
    assert!(dispatch_lines(&flat.records)
        .iter()
        .all(|l| !l.contains("[shard")));

    for shards in [2usize, 4, 8] {
        let opts = RunOpts {
            shards: ShardSpec::new(shards),
            ..RunOpts::default()
        };
        let sharded = threads_run(&app, Arc::new(PaperFaithful), &opts);
        assert_eq!(
            sharded.result.combined, seq.combined,
            "{shards}-shard combined field differs from sequential"
        );
        assert_eq!(sharded.result.l2_error, seq.l2_error);
        assert_eq!(sharded.result.per_grid.len(), flat.result.per_grid.len());
        assert_eq!(sharded.result.work, flat.result.work);

        // Every dispatch is attributed to a shard, and every shard (up to
        // the job count) issues at least one.
        let lines = dispatch_lines(&sharded.records);
        assert_eq!(lines.len(), 9, "level 4 dispatches 9 subsolves");
        let mut seen = BTreeSet::new();
        for l in &lines {
            let tag = l
                .split("[shard ")
                .nth(1)
                .unwrap_or_else(|| panic!("unattributed sharded dispatch line: {l}"));
            let id: usize = tag.trim_end_matches(']').parse().unwrap();
            seen.insert(id);
        }
        assert_eq!(
            seen.len(),
            shards.min(9),
            "idle shard masters at {shards} shards"
        );
    }
}

#[test]
fn steal_off_and_cost_aware_orders_stay_bit_identical() {
    let app = SequentialApp::new(2, 3, 1e-3);
    let seq = app.run().unwrap();
    for steal in [true, false] {
        let opts = RunOpts {
            shards: ShardSpec::new(3).with_steal(steal),
            ..RunOpts::default()
        };
        let r = threads_run(&app, Arc::new(CostAware), &opts);
        assert_eq!(r.result.combined, seq.combined, "steal={steal}");
        assert_eq!(r.result.l2_error, seq.l2_error);
    }
}

#[test]
fn work_stealing_is_attributed_in_the_live_trace() {
    // Nine level-4 jobs over four shard masters give LPT queues of
    // unequal length; the shortest drains first and steals. The steal
    // must be visible in the trace and must not perturb the numbers.
    let app = SequentialApp::new(2, 4, 1e-3);
    let seq = app.run().unwrap();
    let opts = RunOpts {
        shards: ShardSpec::new(4),
        ..RunOpts::default()
    };
    let r = threads_run(&app, Arc::new(CostAware), &opts);
    assert_eq!(r.result.combined, seq.combined);
    assert!(
        count_prefix(&r.records, "steal: shard") >= 1,
        "no steal event in the 4-shard cost-aware trace"
    );
}

#[test]
fn sharded_engine_jobs_match_flat_engine_jobs() {
    // An 8-job interleaved fleet: every job's result must be bit-identical
    // between a flat fleet and 2-/4-shard fleets.
    let levels = [2u32, 3, 4, 2, 3, 4, 2, 3];
    let run_fleet = |shards: usize| -> Vec<(u64, Vec<f64>, f64)> {
        let opts = EngineOpts {
            capacity_level: 4,
            shards: ShardSpec::new(shards),
            ..EngineOpts::default()
        };
        let mut eng = Engine::threads(RunMode::Parallel, Arc::new(PaperFaithful), opts).unwrap();
        let handles: Vec<_> = levels
            .iter()
            .map(|&lvl| {
                eng.submit(AppConfig::new(SequentialApp::new(2, lvl, 1e-3)))
                    .unwrap()
            })
            .collect();
        let reports: Vec<_> = handles
            .into_iter()
            .map(|h| {
                let r = h.wait().unwrap();
                (r.job, r.result.combined, r.result.l2_error)
            })
            .collect();
        eng.shutdown();
        reports
    };
    let flat = run_fleet(1);
    for shards in [2usize, 4] {
        let sharded = run_fleet(shards);
        assert_eq!(flat.len(), sharded.len());
        for (f, s) in flat.iter().zip(&sharded) {
            assert_eq!(f.0, s.0);
            assert_eq!(f.1, s.1, "job {} differs at {shards} shards", f.0);
            assert_eq!(f.2, s.2);
        }
    }
}

#[test]
fn sharded_sim_backend_matches_flat() {
    let run_sim = |shards: usize| {
        let opts = EngineOpts {
            capacity_level: 4,
            shards: ShardSpec::new(shards),
            ..EngineOpts::default()
        };
        let mut eng = Engine::sim(None, Arc::new(PaperFaithful), opts).unwrap();
        let h = eng
            .submit(AppConfig::new(SequentialApp::new(2, 4, 1e-3)))
            .unwrap();
        let r = h.wait().unwrap();
        eng.shutdown();
        (r.result.combined, r.result.l2_error)
    };
    let (flat, flat_l2) = run_sim(1);
    let (sharded, sharded_l2) = run_sim(4);
    assert_eq!(flat, sharded);
    assert_eq!(flat_l2, sharded_l2);
}

#[test]
fn sharded_procs_match_sharded_threads_line_for_line() {
    let app = SequentialApp::new(2, 3, 1e-3);
    let opts = RunOpts {
        shards: ShardSpec::new(2),
        ..RunOpts::default()
    };
    let threads = threads_run(&app, Arc::new(PaperFaithful), &opts);

    let mut cfg = ProcsConfig::new(2);
    cfg.bind = BindMode::Unix;
    cfg.worker_exe = Some(worker_exe());
    cfg.shards = ShardSpec::new(2);
    let procs = run_concurrent_procs(&app, &cfg, true, Arc::new(PaperFaithful)).unwrap();

    assert_eq!(threads.result.combined, procs.result.combined);
    assert_eq!(threads.result.l2_error, procs.result.l2_error);
    // Identical shard-attributed dispatch order, line for line.
    let a = dispatch_lines(&threads.records);
    let b = dispatch_lines(&procs.records);
    assert_eq!(a, b, "sharded dispatch order differs between backends");
    assert!(a.iter().all(|l| l.contains("[shard ")));
}

/// Every dispatch of a sharded master carries its shard as a placement
/// hint, and the hint belongs to *that* dispatch: the worker the
/// coordinator creates for it takes it along, whichever thread later hands
/// its job to the fleet. Four worker processes in two pools under a
/// two-job window always leave the hinted pool a free worker (two workers,
/// at most one other job in flight), so every dispatch must land in its
/// shard's pool — over several jobs, because a hint taken by the wrong
/// dispatch is a race, not a certainty.
#[test]
fn every_hinted_dispatch_lands_in_its_pool_while_the_pool_has_a_free_worker() {
    use manifold::ident::TaskInstanceId;
    use manifold::trace::TraceRecord;

    let app = SequentialApp::new(2, 3, 1e-3);
    let seq = app.run().unwrap();
    let mut cfg = ProcsConfig::new(4);
    cfg.bind = BindMode::Unix;
    cfg.worker_exe = Some(worker_exe());
    let opts = EngineOpts {
        capacity_level: 3,
        shards: ShardSpec::new(2),
        ..EngineOpts::default()
    };
    let mut engine = Engine::procs(cfg, Arc::new(BoundedReuse::new(2)), opts).unwrap();
    for job in 0..12 {
        let report = engine.submit(AppConfig::new(app)).unwrap().wait().unwrap();
        assert_eq!(report.result.combined, seq.combined);
        // The k-th dispatch is served by the k-th worker created: one
        // factory call per `request_worker`, process ids in creation order.
        let shards: Vec<u64> = dispatch_lines(&report.records)
            .iter()
            .map(|l| {
                let tag = l.split("[shard ").nth(1).expect("attributed dispatch");
                tag.trim_end_matches(']').parse().unwrap()
            })
            .collect();
        let mut welcomes: Vec<&TraceRecord> = report
            .records
            .iter()
            .filter(|r| r.manifold_name.as_str() == "Worker(event)" && r.message == "Welcome")
            .collect();
        welcomes.sort_by_key(|r| r.proc_uid);
        assert_eq!(shards.len(), 7, "level 3 dispatches 7 subsolves");
        assert_eq!(welcomes.len(), shards.len());
        for (k, (shard, welcome)) in shards.iter().zip(&welcomes).enumerate() {
            // A proxy prints under the identity of the worker process its
            // job went to: instance i is task instance i + 1, pool i % 2.
            let instance = (0..4u64)
                .find(|&i| TraceRecord::task_uid_for(TaskInstanceId(i + 1)) == welcome.task_uid)
                .expect("a worker process's task uid");
            assert_eq!(
                instance % 2,
                *shard,
                "job {job}: dispatch {k} hinted at pool {shard} ran on instance {instance}"
            );
        }
    }
    engine.shutdown();
}

/// The CI `scaling-smoke` invariant: a 2-shard procs fleet that gains one
/// worker and loses one worker mid-run finishes every job and produces
/// the same bits as the flat threads run.
#[test]
fn procs_churn_join_and_leave_loses_nothing() {
    let app = SequentialApp::new(2, 3, 1e-3);
    let seq = app.run().unwrap();

    let mut cfg = ProcsConfig::new(2);
    cfg.bind = BindMode::Unix;
    cfg.worker_exe = Some(worker_exe());
    cfg.shards = ShardSpec::new(2);
    cfg.churn = ChurnPlan::parse("join@2,leave@5").unwrap();
    let r = run_concurrent_procs(&app, &cfg, true, Arc::new(PaperFaithful)).unwrap();

    assert_eq!(r.result.combined, seq.combined, "churn changed the numbers");
    assert_eq!(r.result.l2_error, seq.l2_error);
    assert_eq!(r.result.per_grid.len(), 7, "level 3 collects 7 subsolves");
    assert_eq!(count_prefix(&r.records, "join: instance"), 1);
    assert_eq!(count_prefix(&r.records, "leave: instance"), 1);
    assert_eq!(
        count_prefix(&r.records, "worker lost"),
        0,
        "a planned retirement must not look like a loss"
    );
}

/// The chaos `poolkill@N` token drives the sharded DES through the same
/// parse path the harness uses: the sentenced shard master dies once, its
/// queue is re-homed exactly once, and no job is lost.
#[test]
fn poolkill_fault_plan_rehomes_exactly_once() {
    use cluster::{paper_cluster, Job, ShardSimOpts, ShardedSim, Workload};

    let jobs = 48usize;
    let wl = Workload {
        name: format!("{jobs} uniform jobs"),
        init_flops: 1e6,
        prolong_flops: 1e6,
        pools: vec![(0..jobs)
            .map(|i| Job::new(format!("subsolve(0, {i})"), 5e9, 64 * 1024, 64 * 1024))
            .collect()],
        feed_flops_per_byte: 2.0,
        collect_flops_per_byte: 2.0,
    };
    let sim = ShardedSim::new(paper_cluster(1e9));
    let mut opts = ShardSimOpts::new(4).quiet();
    opts.faults = chaos::FaultPlan::parse("seed:3,poolkill@2").unwrap();
    let r = sim.run(&wl, &PaperFaithful, &opts);
    assert_eq!(r.rehomes, 1, "exactly one re-home per poolkill");
    assert_eq!(
        r.per_shard_jobs.iter().sum::<usize>(),
        jobs + r.redispatches
    );
    assert!(r
        .records
        .iter()
        .any(|rec| rec.message.starts_with("poolkill: shard 2")));
}
