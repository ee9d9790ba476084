//! The Master wrapper: the original `main` minus `subsolve`, behind the
//! §4.3 master interface.
//!
//! The master performs the initialization ("the global data structure" —
//! here the per-grid initial fields), then delegates every `subsolve(l, m)`
//! of the nested loop to a worker in one pool, collects the results,
//! synchronizes through the rendezvous, and performs the prolongation
//! (combination) work itself — exactly the structure of the pseudo-program
//! in §3.
//!
//! Dispatch is *pipelined* and policy-driven: a
//! [`DispatchPolicy`](protocol::DispatchPolicy) decides the job order
//! (e.g. longest-processing-time-first from the a-priori cost model in
//! `solver::work`) and an in-flight window. The master keeps at most
//! `window` jobs outstanding, one subsolve per worker, collecting a result
//! before issuing the next job once the window is full — so a bounded
//! worker pool gets backpressure instead of an unbounded
//! feed-all-then-drain burst. The default
//! [`PaperFaithful`](protocol::PaperFaithful) policy uses natural order and
//! an unbounded window, reproducing the paper's protocol exactly. Because
//! the prolongation sorts per-grid results by index before combining,
//! *every* policy produces bit-identical output.

use std::sync::Arc;

use manifold::mes;
use manifold::prelude::*;
use protocol::{ChurnPlan, MasterHandle, PolicyRef, ShardPlan, ShardSpec, StealQueues};
use solver::grid::Grid2;
use solver::sequential::{prolongation_phase, SequentialApp, SequentialResult};
use solver::subsolve::SubsolveResult;
use solver::work::estimate_subsolve_flops;
use solver::{l2_norm, WorkCounter};

use crate::checkpoint::{Checkpoint, CheckpointStore, RunKey};
use crate::codec::{request_to_unit, result_from_unit};
use crate::procs::JobSource;

/// Master-side configuration. The engine fills it in per job.
#[derive(Clone)]
pub(crate) struct MasterConfig {
    /// The application parameters (root, level, le_tol, problem).
    pub app: SequentialApp,
    /// When true (the paper's design), the master samples each grid's
    /// initial data during initialization and passes it to the worker
    /// through its own ports. When false (the §4.1 "I/O workers"
    /// alternative the authors did not try), workers obtain their input
    /// themselves and the master only sends job parameters.
    pub data_through_master: bool,
    /// Dispatch policy: job order and in-flight window.
    pub policy: PolicyRef,
    /// How many lost-worker re-dispatches the master tolerates before
    /// giving up on the run. Only the process backend produces lost-job
    /// markers, so this is inert in a threads run.
    pub retry_budget: usize,
    /// When set, every collected result is checkpointed here, and the run
    /// can later resume bit-identically from the last snapshot.
    pub checkpoint: Option<Arc<CheckpointStore>>,
    /// A previously-saved snapshot to resume from: its results are
    /// restored (with full work accounting) and only the missing grids
    /// are dispatched.
    pub resume_from: Option<Checkpoint>,
    /// Chaos hook: abort the master (after checkpointing) once this many
    /// total results have been collected — the supervisor's relaunch path
    /// is exercised by exactly this failure.
    pub master_kill_at: Option<u64>,
    /// Sharded dispatch: partition the policy-ordered job sequence across
    /// shard masters ([`ShardPlan`]) and dispatch in their interleaved
    /// round-robin order, with pop-two-merge work stealing when a shard's
    /// queue drains first. `ShardSpec::default()` (one shard) reproduces
    /// the flat master's dispatch loop byte for byte; any fixed shard
    /// count produces bit-identical numerics (the prolongation sorts by
    /// grid index).
    pub shards: ShardSpec,
    /// Membership churn: worker joins/leaves fired at 1-based dispatch
    /// ordinals. Needs `membership` (procs); inert on backends without
    /// real membership (threads, sim).
    pub churn: ChurnPlan,
    /// This job's seam to the worker-process pool, whose slots own the
    /// fleet's membership (procs). `None` on backends whose workers are
    /// anonymous.
    pub membership: Option<Arc<JobSource>>,
}

impl MasterConfig {
    /// The identity of the run this configuration describes.
    fn run_key(&self) -> RunKey {
        RunKey::of(&self.app, self.data_through_master, self.policy.name())
    }
}

/// One planned dispatch: which job (index into the grid list), which
/// shard master issues it, and — when the shard obtained the job by
/// stealing — the steal event to attribute in the trace.
struct DispatchStep {
    job: usize,
    shard: usize,
    steal: Option<protocol::StealEvent>,
}

/// Lay out the sharded fleet's joint dispatch sequence and the per-shard
/// in-flight windows.
///
/// Each shard master drains its own queue round-robin, one job per turn;
/// a shard whose queue empties first steals from the longest queue
/// (pop-two-merge, [`StealQueues`]). The sequence this produces is the
/// same interleaved order the shard masters would jointly emit, so the
/// live master and the cluster DES agree on it by construction. With one
/// shard the sequence is exactly `order` and the per-shard window is
/// unbounded (the policy's global window alone governs), so the flat
/// dispatch loop is reproduced byte for byte.
fn plan_dispatch(
    order: &[usize],
    costs: &[f64],
    spec: &ShardSpec,
    policy: &PolicyRef,
) -> (Vec<DispatchStep>, Vec<usize>) {
    if spec.is_flat() || order.len() <= 1 {
        let steps = order
            .iter()
            .map(|&job| DispatchStep {
                job,
                shard: 0,
                steal: None,
            })
            .collect();
        return (steps, vec![usize::MAX]);
    }
    let shards = spec.shards.min(order.len());
    let seq_costs: Vec<f64> = order.iter().map(|&j| costs[j]).collect();
    let plan = ShardPlan::partition(&seq_costs, shards);
    let windows: Vec<usize> = plan
        .queues()
        .iter()
        .map(|q| policy.window(q.len()).max(1))
        .collect();
    let mut queues = StealQueues::new(&plan);
    let mut steps = Vec::with_capacity(order.len());
    let mut s = 0usize;
    while queues.total_pending() > 0 {
        if let Some(pos) = queues.pop_own(s) {
            steps.push(DispatchStep {
                job: order[pos],
                shard: s,
                steal: None,
            });
        } else if spec.steal {
            if let Some(ev) = queues.steal_into(s) {
                let pos = queues
                    .pop_own(s)
                    .expect("a steal leaves the thief's queue non-empty");
                steps.push(DispatchStep {
                    job: order[pos],
                    shard: s,
                    steal: Some(ev),
                });
            }
        }
        s = (s + 1) % shards;
    }
    debug_assert_eq!(steps.len(), order.len());
    (steps, windows)
}

/// Collect one worker's *computational* result from the dataport. A
/// lost-job marker (a proxy worker's remote instance died mid-job) is not a
/// result: the master requests a fresh worker, re-sends the recovered job,
/// and keeps collecting — so a killed worker process costs one round-trip,
/// bounded by the retry budget.
fn collect_result(h: &MasterHandle, retries_left: &mut usize) -> MfResult<SubsolveResult> {
    loop {
        let unit = h.collect()?;
        if let Some((instance, reason, job)) = protocol::as_lost_job(&unit) {
            if *retries_left == 0 {
                return Err(MfError::App(format!(
                    "worker lost (instance {instance}: {reason}); retry budget exhausted"
                )));
            }
            *retries_left -= 1;
            mes!(
                h.ctx(),
                "worker lost (instance {instance}); re-dispatching job"
            );
            let _worker = h.request_worker()?;
            h.send_work(job.clone())?;
            continue;
        }
        return result_from_unit(&unit);
    }
}

/// Run the master's life: steps 2–5 of the behavior interface. Returns the
/// full application result (identical to [`SequentialApp::run`]).
pub(crate) fn master_body(h: &MasterHandle, cfg: &MasterConfig) -> MfResult<SequentialResult> {
    let app = cfg.app;
    mes!(h.ctx(), "Welcome");

    // Step 2: initialization work — build the "global data structure".
    let grids = app.grids();
    let mut work = WorkCounter::new();
    let fine_grid = Grid2::finest(app.root, app.level);
    let problem = app.problem;
    // The legacy master's work, kept and charged; the field itself is
    // read by nothing, so it is dropped here rather than held to the end.
    std::hint::black_box(fine_grid.sample(|x, y| problem.initial(x, y)));
    work.add_vector_ops(fine_grid.node_count(), 2);

    // The policy sees the a-priori cost of each job (in natural grid
    // order) and answers with a dispatch order and an in-flight window.
    let costs: Vec<f64> = grids
        .iter()
        .map(|idx| estimate_subsolve_flops(app.root, idx.l, idx.m, app.le_tol))
        .collect();
    let order = cfg.policy.order(&costs);
    debug_assert_eq!(order.len(), grids.len());
    let window = cfg.policy.window(grids.len()).max(1);

    // Restore a snapshot before dispatching anything: the checkpoint must
    // belong to this exact run (parameters, problem, policy, and the
    // re-derived dispatch order), its results enter `per_grid` with the
    // same work accounting an uninterrupted run would have performed, and
    // the restored grids are simply never dispatched. WorkCounter adds
    // commute and the prolongation sorts by grid index, so the final
    // result is bit-identical either way.
    let key = cfg.run_key();
    let mut done = std::collections::BTreeSet::new();
    let mut per_grid: Vec<SubsolveResult> = Vec::with_capacity(grids.len());
    if let Some(ck) = &cfg.resume_from {
        ck.validate(&key, &order)?;
        for res in &ck.completed {
            if cfg.data_through_master {
                let g = Grid2::new(app.root, res.l, res.m);
                work.add_vector_ops(g.interior_count(), 2);
            }
            work.merge(&res.work);
            done.insert((res.l, res.m));
            per_grid.push(res.clone());
        }
        mes!(
            h.ctx(),
            "resume: {} of {} results restored from checkpoint",
            done.len(),
            grids.len()
        );
    }

    // Checkpoint after a freshly-collected result; then fire the injected
    // master death once the run has `kill_at` results in total. The
    // snapshot is written *before* the abort, and a resumed run restores
    // those `kill_at` results without re-collecting them — so the same
    // fault plan never kills the relaunched master a second time.
    let account = |work: &mut WorkCounter,
                   per_grid: &mut Vec<SubsolveResult>,
                   res: SubsolveResult|
     -> MfResult<()> {
        work.merge(&res.work);
        per_grid.push(res);
        if let Some(store) = &cfg.checkpoint {
            store.save(&Checkpoint {
                key: key.clone(),
                order: order.clone(),
                completed: per_grid.clone(),
            })?;
        }
        if cfg.master_kill_at == Some(per_grid.len() as u64) {
            return Err(MfError::App(format!(
                "chaos: master killed after {} results",
                per_grid.len()
            )));
        }
        Ok(())
    };

    // Step 3: one pool of workers. Pipelined dispatch: issue jobs in
    // policy order, but once `window` jobs are in flight, collect a result
    // before issuing the next — collection overlaps computation instead of
    // waiting for the full feed to finish.
    //
    // A sharded fleet dispatches the same jobs in the shard masters' joint
    // interleaved order, each shard bounded by its own window, with work
    // stealing and membership churn attributed in the trace. One shard is
    // byte-for-byte the flat loop.
    let (steps, shard_windows) = plan_dispatch(&order, &costs, &cfg.shards, &cfg.policy);
    let sharded = shard_windows.len() > 1;
    h.create_pool();
    let mut retries_left = cfg.retry_budget;
    let mut in_flight = 0usize;
    let mut shard_inflight = vec![0usize; shard_windows.len()];
    let mut shard_of: std::collections::BTreeMap<(u32, u32), usize> = Default::default();
    let mut dispatch_no: u64 = 0;
    for step in &steps {
        let idx = grids[step.job];
        if done.contains(&(idx.l, idx.m)) {
            continue;
        }
        while in_flight > 0
            && (in_flight >= window || shard_inflight[step.shard] >= shard_windows[step.shard])
        {
            // (f): collect one worker's result from our own dataport,
            // freeing a slot.
            let res = collect_result(h, &mut retries_left)?;
            if let Some(&s) = shard_of.get(&(res.l, res.m)) {
                shard_inflight[s] = shard_inflight[s].saturating_sub(1);
            }
            account(&mut work, &mut per_grid, res)?;
            in_flight -= 1;
        }
        if let Some(ev) = &step.steal {
            mes!(
                h.ctx(),
                "steal: shard {} <- shard {} ({} jobs)",
                ev.thief,
                ev.victim,
                ev.jobs.len()
            );
        }
        // The dispatch sequence is the trace-visible signature of the
        // policy: the cross-backend tests require it to match between the
        // threads and the process backends line for line.
        if sharded {
            mes!(
                h.ctx(),
                "dispatch subsolve({}, {}) [shard {}]",
                idx.l,
                idx.m,
                step.shard
            );
        } else {
            mes!(h.ctx(), "dispatch subsolve({}, {})", idx.l, idx.m);
        }
        dispatch_no += 1;
        // Build the job — with the initial data segment when the master
        // mediates all data.
        let mut req = app.request_for(idx);
        if cfg.data_through_master {
            let g = Grid2::new(app.root, idx.l, idx.m);
            let interior = g.sample_interior(|x, y| problem.initial(x, y));
            work.add_vector_ops(g.interior_count(), 2);
            // Shared buffer: codec and port transfer add no copies.
            req.initial_interior = Some(Arc::new(interior));
        }
        shard_of.insert((idx.l, idx.m), step.shard);
        shard_inflight[step.shard] += 1;
        if sharded {
            if let Some(members) = &cfg.membership {
                members.hint_pool(step.shard as u64);
            }
        }
        // (b)+(c): request a worker and activate it; (d): write the job.
        let _worker = h.request_worker()?;
        h.send_work(request_to_unit(&req))?;
        in_flight += 1;
        // Membership churn fires by dispatch ordinal, after the job that
        // reaches it: a joined worker is in the rotation from the next
        // dispatch on; a retirement waits for the job on the victim's
        // wire, so nothing is lost.
        if let Some(members) = &cfg.membership {
            if !cfg.churn.is_empty() {
                for _ in cfg.churn.joins.iter().filter(|&&at| at == dispatch_no) {
                    let inst = members.join(Some(step.shard as u64))?;
                    mes!(h.ctx(), "join: instance {} -> pool {}", inst, step.shard);
                }
                for _ in cfg.churn.leaves.iter().filter(|&&at| at == dispatch_no) {
                    if let Some(inst) = members.leave()? {
                        mes!(h.ctx(), "leave: instance {} retired", inst);
                    }
                }
            }
        }
    }
    // (f): drain the remaining in-flight results.
    for _ in 0..in_flight {
        let res = collect_result(h, &mut retries_left)?;
        account(&mut work, &mut per_grid, res)?;
    }
    // A finished run needs no snapshot; leaving one behind would make an
    // unrelated later run in the same directory refuse to start.
    if let Some(store) = &cfg.checkpoint {
        store.clear()?;
    }

    // (g)+(h): rendezvous.
    h.rendezvous()?;

    // Step 4: no more pools needed.
    h.finished();

    // Step 5: final sequential computation — the prolongation.
    // (`combine` looks grids up by index, so collection order — which
    // depends on the policy and the port merge — cannot affect the
    // result.)
    per_grid.sort_by_key(|r| (r.l + r.m, r.l));
    let combined = prolongation_phase(app.root, app.level, &per_grid, &mut work);
    let t_end = problem.t_end;
    let exact = fine_grid.sample(|x, y| problem.exact(x, y, t_end));
    let diff: Vec<f64> = combined.iter().zip(&exact).map(|(a, b)| a - b).collect();
    let l2_error = l2_norm(&diff);
    mes!(h.ctx(), "Bye");

    Ok(SequentialResult {
        combined,
        fine_grid,
        per_grid,
        work,
        l2_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::PaperFaithful;
    use std::sync::Arc;

    fn steps_of(order: &[usize], costs: &[f64], spec: &ShardSpec) -> Vec<DispatchStep> {
        let policy: PolicyRef = Arc::new(PaperFaithful);
        plan_dispatch(order, costs, spec, &policy).0
    }

    fn jobs_sorted(steps: &[DispatchStep]) -> Vec<usize> {
        let mut seen: Vec<usize> = steps.iter().map(|s| s.job).collect();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn flat_plan_reproduces_the_order_verbatim() {
        let order = [3usize, 1, 4, 0, 2];
        let costs = [1.0; 5];
        let policy: PolicyRef = Arc::new(PaperFaithful);
        let (steps, windows) = plan_dispatch(&order, &costs, &ShardSpec::default(), &policy);
        assert_eq!(windows, vec![usize::MAX]);
        let jobs: Vec<usize> = steps.iter().map(|s| s.job).collect();
        assert_eq!(jobs, order);
        assert!(steps.iter().all(|s| s.shard == 0 && s.steal.is_none()));
    }

    #[test]
    fn skewed_costs_force_a_steal_and_lose_no_jobs() {
        // LPT hands shard 0 the one huge job and shard 1 the seven small
        // ones; shard 0's queue empties on its first turn and it must
        // steal to stay busy.
        let costs = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let order: Vec<usize> = (0..costs.len()).collect();
        let steps = steps_of(&order, &costs, &ShardSpec::new(2));
        assert_eq!(
            jobs_sorted(&steps),
            order,
            "every job dispatched exactly once"
        );
        assert!(
            steps.iter().any(|s| s.steal.is_some()),
            "the starved shard stole"
        );
        for s in &steps {
            assert!(s.shard < 2);
        }
    }

    #[test]
    fn disabling_steal_still_dispatches_every_job() {
        let costs = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let order: Vec<usize> = (0..costs.len()).collect();
        let steps = steps_of(&order, &costs, &ShardSpec::new(2).with_steal(false));
        assert!(steps.iter().all(|s| s.steal.is_none()));
        assert_eq!(jobs_sorted(&steps), order);
    }

    #[test]
    fn more_shards_than_jobs_clamps_to_the_job_count() {
        let costs = [2.0, 1.0];
        let order = [0usize, 1];
        let steps = steps_of(&order, &costs, &ShardSpec::new(8));
        assert_eq!(jobs_sorted(&steps), vec![0, 1]);
        assert!(steps.iter().all(|s| s.shard < 2));
    }
}
