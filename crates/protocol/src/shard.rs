//! Sharded dispatch: partitioning one pool of jobs across a hierarchy of
//! shard masters, with work stealing and elastic membership.
//!
//! The paper's topology is one master feeding one worker pool; its §4.2
//! "more demanding master" ablation already shows that topology saturating
//! when the master's per-job feed time stops being negligible. This module
//! generalizes the dispatch spine into *S* shard masters coordinated by a
//! lightweight root:
//!
//! ```text
//!                      ┌──────┐
//!                      │ root │        partition (cost-aware, LPT)
//!                      └──┬───┘        re-home on shard-master death
//!             ┌───────────┼───────────┐
//!          ┌──┴───┐    ┌──┴───┐    ┌──┴───┐
//!          │ sm 0 │◄──►│ sm 1 │◄──►│ sm 2 │   work stealing (pop-two-merge)
//!          └──┬───┘    └──┬───┘    └──┬───┘
//!           pool 0      pool 1      pool 2    each runs DispatchPolicy
//!                                             unchanged over its slice
//! ```
//!
//! Everything here is *pure data*: the live master (`renovation::master`),
//! the procs fleet (`transport`) and the cluster DES (`cluster::SimFleet`)
//! all consume the same [`ShardPlan`] and [`StealQueues`], so the dispatch
//! sequence of a sharded run is identical across backends by construction
//! — and bit-identity of the numerical results is inherited from the flat
//! protocol (results are stored by grid index and combined in a fixed
//! order, so no topology can perturb the sum).

use std::collections::VecDeque;

/// How a run is sharded: number of shard masters and whether idle shards
/// steal queued work from loaded ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shard masters (1 = the paper's flat topology).
    pub shards: usize,
    /// Work stealing between shard queues (pop-two-merge).
    pub steal: bool,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec {
            shards: 1,
            steal: true,
        }
    }
}

impl ShardSpec {
    /// A spec with `shards` masters (clamped to ≥ 1), stealing enabled.
    pub fn new(shards: usize) -> ShardSpec {
        ShardSpec {
            shards: shards.max(1),
            steal: true,
        }
    }

    /// Disable or enable stealing.
    pub fn with_steal(mut self, steal: bool) -> ShardSpec {
        self.steal = steal;
        self
    }

    /// True for the flat (single-master) topology.
    pub fn is_flat(&self) -> bool {
        self.shards <= 1
    }
}

/// The root's initial placement: an assignment of every job to a shard,
/// cost-aware so no shard starts with a disproportionate share of work.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `assignment[j]` = shard owning job `j` (indices into the
    /// policy-ordered dispatch sequence, not the natural pool order).
    pub assignment: Vec<usize>,
    /// Number of shards planned over.
    pub shards: usize,
    /// Estimated total cost per shard after placement.
    pub shard_cost: Vec<f64>,
}

impl ShardPlan {
    /// Partition `costs` (one entry per job, in dispatch order) over
    /// `shards` shard masters with the LPT greedy rule: walk the jobs in
    /// descending cost and give each to the currently least-loaded shard.
    /// Deterministic — ties go to the lowest shard index — and for
    /// `shards == 1` every job lands on shard 0, reducing to the flat
    /// topology exactly.
    pub fn partition(costs: &[f64], shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let mut assignment = vec![0usize; costs.len()];
        let mut shard_cost = vec![0.0f64; shards];
        if shards > 1 {
            // Descending cost, stable on ties so the plan is a pure
            // function of the cost vector.
            let mut by_cost: Vec<usize> = (0..costs.len()).collect();
            by_cost.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
            for j in by_cost {
                let s = least_loaded(&shard_cost);
                assignment[j] = s;
                shard_cost[s] += costs[j];
            }
        } else {
            shard_cost[0] = costs.iter().sum();
        }
        ShardPlan {
            assignment,
            shards,
            shard_cost,
        }
    }

    /// The per-shard queues implied by this plan: job indices in dispatch
    /// order, filtered by owner.
    pub fn queues(&self) -> Vec<VecDeque<usize>> {
        let mut queues = vec![VecDeque::new(); self.shards];
        for (j, &s) in self.assignment.iter().enumerate() {
            queues[s].push_back(j);
        }
        queues
    }

    /// The global dispatch sequence of the sharded run: a round-robin
    /// interleave of the shard queues (shard 0 first). This is what both
    /// the live master and the DES walk, so traces agree line-for-line
    /// across backends; for one shard it is the identity.
    pub fn interleave(&self) -> Vec<usize> {
        let mut queues = self.queues();
        let mut out = Vec::with_capacity(self.assignment.len());
        while out.len() < self.assignment.len() {
            for q in queues.iter_mut() {
                if let Some(j) = q.pop_front() {
                    out.push(j);
                }
            }
        }
        out
    }
}

fn least_loaded(costs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &c) in costs.iter().enumerate().skip(1) {
        if c < costs[best] {
            best = i;
        }
    }
    best
}

/// One work-stealing transfer: shard `thief` took `jobs` from the tail of
/// shard `victim`'s queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StealEvent {
    /// The idle shard that initiated the steal.
    pub thief: usize,
    /// The loaded shard the work came from.
    pub victim: usize,
    /// The job indices that moved (most-recently-queued first).
    pub jobs: Vec<usize>,
}

/// The shard masters' pending-work queues with the pop-two-merge stealing
/// discipline: an idle shard pops *two* items off the tail of the most
/// loaded queue and merges them into its own — taking a pair per trip
/// halves the number of coordination round-trips a drain needs, the same
/// shape as the pop-two/push-one merge worklist in the snippet literature.
#[derive(Clone, Debug)]
pub struct StealQueues {
    queues: Vec<VecDeque<usize>>,
    steals: Vec<StealEvent>,
}

impl StealQueues {
    /// Queues as planned by the root.
    pub fn new(plan: &ShardPlan) -> StealQueues {
        StealQueues {
            queues: plan.queues(),
            steals: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Jobs still queued on shard `s`.
    pub fn pending(&self, s: usize) -> usize {
        self.queues[s].len()
    }

    /// Total jobs still queued anywhere.
    pub fn total_pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Next job for shard `s` from its own queue.
    pub fn pop_own(&mut self, s: usize) -> Option<usize> {
        self.queues[s].pop_front()
    }

    /// Shard `s` ran dry: steal up to two jobs from the tail of the most
    /// loaded other queue (ties to the lowest index). Returns the recorded
    /// [`StealEvent`], or `None` when no other shard has more than one job
    /// queued — stealing a victim's *last* queued job would just move the
    /// starvation around.
    pub fn steal_into(&mut self, s: usize) -> Option<StealEvent> {
        let victim = self
            .queues
            .iter()
            .enumerate()
            .filter(|&(i, q)| i != s && q.len() > 1)
            .max_by(|a, b| a.1.len().cmp(&b.1.len()).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)?;
        // Pop two off the victim's tail (the jobs it would reach last)...
        let mut jobs = Vec::with_capacity(2);
        for _ in 0..2 {
            if self.queues[victim].len() > 1 {
                if let Some(j) = self.queues[victim].pop_back() {
                    jobs.push(j);
                }
            }
        }
        // ...and merge them into the thief's queue in dispatch order, so
        // the thief works the earliest-planned job first.
        let mut merged: Vec<usize> = jobs.to_vec();
        merged.sort_unstable();
        for &j in merged.iter().rev() {
            self.queues[s].push_front(j);
        }
        let ev = StealEvent {
            thief: s,
            victim,
            jobs,
        };
        self.steals.push(ev.clone());
        Some(ev)
    }

    /// Re-home every job still queued on `dead` onto the surviving shards
    /// (round-robin over the least-loaded ones). Returns how many jobs
    /// moved. Used by the root when a shard master dies (`poolkill`).
    pub fn rehome(&mut self, dead: usize) -> usize {
        let orphans: Vec<usize> = self.queues[dead].drain(..).collect();
        let moved = orphans.len();
        for j in orphans {
            let target = self
                .queues
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != dead)
                .min_by(|a, b| a.1.len().cmp(&b.1.len()).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .unwrap_or(dead);
            self.queues[target].push_back(j);
        }
        moved
    }

    /// Put `job` back at the end of shard `s`'s queue — used by the root
    /// to re-dispatch work a dead shard master was holding in flight.
    pub fn requeue(&mut self, s: usize, job: usize) {
        self.queues[s].push_back(job);
    }

    /// All steals recorded so far.
    pub fn steals(&self) -> &[StealEvent] {
        &self.steals
    }
}

/// A membership churn plan for the live procs backend: worker joins and
/// leaves keyed by *dispatch ordinal* (the fleet-wide count of jobs handed
/// out), so a plan replays identically under any timing.
///
/// Grammar: comma-separated `join@N` / `leave@N` tokens, e.g.
/// `join@3,leave@6`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Dispatch ordinals at which one worker joins the fleet.
    pub joins: Vec<u64>,
    /// Dispatch ordinals at which one worker leaves the fleet.
    pub leaves: Vec<u64>,
}

impl ChurnPlan {
    /// Parse the `join@N,leave@M` grammar. Empty input is an empty plan.
    pub fn parse(spec: &str) -> Result<ChurnPlan, String> {
        let mut plan = ChurnPlan::default();
        for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let token = token.trim();
            let (kind, at) = token
                .split_once('@')
                .ok_or_else(|| format!("churn token `{token}`: expected kind@N"))?;
            let at: u64 = at
                .parse()
                .map_err(|_| format!("churn token `{token}`: `{at}` is not a count"))?;
            match kind {
                "join" => plan.joins.push(at),
                "leave" => plan.leaves.push(at),
                other => return Err(format!("churn token `{token}`: unknown kind `{other}`")),
            }
        }
        plan.joins.sort_unstable();
        plan.leaves.sort_unstable();
        Ok(plan)
    }

    /// True when no churn is scheduled.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }
}

impl std::fmt::Display for ChurnPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for &n in &self.joins {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "join@{n}")?;
            first = false;
        }
        for &n in &self.leaves {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "leave@{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Lifecycle of one fleet member, as the root sees it.
///
/// ```text
///            HelloAck{pool}            Leave/retire
///  Joining ───────────────► Active ───────────────► Left
///                              │
///                              │ shard master died (poolkill)
///                              ▼
///                           Rehomed ──► Active (new pool)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Membership {
    /// Hello received, pool assignment pending.
    Joining,
    /// Assigned to a pool and serving.
    Active {
        /// The pool (shard) this member serves.
        pool: usize,
    },
    /// Departed cleanly (Leave exchanged); never respawned.
    Left,
}

/// The root's membership directory: which worker serves which pool, with
/// balanced assignment on join and re-homing when a pool's master dies.
#[derive(Clone, Debug, Default)]
pub struct MembershipDirectory {
    pools: usize,
    members: Vec<(u64, Membership)>,
    rehomes: usize,
}

impl MembershipDirectory {
    /// A directory over `pools` shard pools.
    pub fn new(pools: usize) -> MembershipDirectory {
        MembershipDirectory {
            pools: pools.max(1),
            members: Vec::new(),
            rehomes: 0,
        }
    }

    /// Number of pools.
    pub fn pools(&self) -> usize {
        self.pools
    }

    /// Admit `member`, assigning the least-populated pool (ties to the
    /// lowest pool index). Returns the assignment. Re-joining a departed
    /// member re-admits it fresh.
    pub fn join(&mut self, member: u64) -> usize {
        let mut counts = vec![0usize; self.pools];
        for (_, m) in &self.members {
            if let Membership::Active { pool } = m {
                counts[*pool] += 1;
            }
        }
        let pool = least_loaded(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>());
        match self.members.iter_mut().find(|(id, _)| *id == member) {
            Some(entry) => entry.1 = Membership::Active { pool },
            None => self.members.push((member, Membership::Active { pool })),
        }
        pool
    }

    /// Admit `member` into a *specific* pool — used when the topology is
    /// fixed externally (the DES's contiguous host slices, or a test
    /// constructing a known-asymmetric fleet). Out-of-range pools are
    /// clamped. Re-joining a known member reassigns it.
    pub fn join_to(&mut self, member: u64, pool: usize) -> usize {
        let pool = pool.min(self.pools - 1);
        match self.members.iter_mut().find(|(id, _)| *id == member) {
            Some(entry) => entry.1 = Membership::Active { pool },
            None => self.members.push((member, Membership::Active { pool })),
        }
        pool
    }

    /// Mark `member` departed. No-op for unknown members.
    pub fn leave(&mut self, member: u64) {
        if let Some(entry) = self.members.iter_mut().find(|(id, _)| *id == member) {
            entry.1 = Membership::Left;
        }
    }

    /// The pool `member` currently serves, if active.
    pub fn pool_of(&self, member: u64) -> Option<usize> {
        self.members.iter().find_map(|(id, m)| match m {
            Membership::Active { pool } if *id == member => Some(*pool),
            _ => None,
        })
    }

    /// Active member count per pool.
    pub fn census(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.pools];
        for (_, m) in &self.members {
            if let Membership::Active { pool } = m {
                counts[*pool] += 1;
            }
        }
        counts
    }

    /// Pool `dead`'s master died: move every active member of that pool to
    /// the least-populated surviving pool. Counts as ONE re-home event
    /// regardless of the number of workers moved (the supervisor contract:
    /// a poolkill triggers exactly one re-home). Returns the number of
    /// workers moved.
    pub fn rehome_pool(&mut self, dead: usize) -> usize {
        if self.pools <= 1 {
            return 0;
        }
        let mut moved = 0;
        loop {
            let mut counts = vec![0usize; self.pools];
            for (_, m) in &self.members {
                if let Membership::Active { pool } = m {
                    counts[*pool] += 1;
                }
            }
            let target = counts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != dead)
                .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .unwrap_or(dead);
            let Some(entry) = self
                .members
                .iter_mut()
                .find(|(_, m)| matches!(m, Membership::Active { pool } if *pool == dead))
            else {
                break;
            };
            entry.1 = Membership::Active { pool: target };
            moved += 1;
        }
        if moved > 0 {
            self.rehomes += 1;
        }
        moved
    }

    /// Number of re-home events so far.
    pub fn rehomes(&self) -> usize {
        self.rehomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_plan_is_identity() {
        let plan = ShardPlan::partition(&[3.0, 1.0, 2.0], 1);
        assert_eq!(plan.assignment, vec![0, 0, 0]);
        assert_eq!(plan.interleave(), vec![0, 1, 2]);
        assert_eq!(plan.shard_cost, vec![6.0]);
    }

    #[test]
    fn lpt_partition_balances_costs() {
        // Costs 8,7,6,5,4,3,2,1 over 2 shards: LPT gives 8+5+4+1 = 18
        // and 7+6+3+2 = 18 — a perfect split.
        let costs = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let plan = ShardPlan::partition(&costs, 2);
        assert_eq!(plan.shard_cost[0], 18.0);
        assert_eq!(plan.shard_cost[1], 18.0);
        // Every job assigned exactly once.
        let mut per_shard = plan.queues();
        let mut all: Vec<usize> = per_shard.iter_mut().flat_map(|q| q.drain(..)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleave_is_deterministic_round_robin() {
        let costs = [8.0, 7.0, 6.0, 5.0];
        let plan = ShardPlan::partition(&costs, 2);
        // Shard 0 gets {0, 3}, shard 1 gets {1, 2} under LPT.
        assert_eq!(plan.assignment, vec![0, 1, 1, 0]);
        assert_eq!(plan.interleave(), vec![0, 1, 3, 2]);
    }

    #[test]
    fn steal_pops_two_off_the_loaded_tail() {
        let costs = [1.0; 8];
        let mut plan = ShardPlan::partition(&costs, 2);
        // Force an unbalanced plan: all jobs on shard 0.
        plan.assignment = vec![0; 8];
        let mut q = StealQueues::new(&plan);
        assert_eq!(q.pending(0), 8);
        assert_eq!(q.pending(1), 0);
        let ev = q.steal_into(1).expect("steal must fire");
        assert_eq!(ev.thief, 1);
        assert_eq!(ev.victim, 0);
        assert_eq!(ev.jobs, vec![7, 6]); // tail of the victim's queue
        assert_eq!(q.pending(0), 6);
        assert_eq!(q.pending(1), 2);
        // The thief dispatches the earlier-planned job first.
        assert_eq!(q.pop_own(1), Some(6));
        assert_eq!(q.pop_own(1), Some(7));
        assert_eq!(q.steals().len(), 1);
    }

    #[test]
    fn steal_never_takes_a_last_job() {
        let plan = ShardPlan::partition(&[1.0, 1.0], 2);
        let mut q = StealQueues::new(&plan);
        // Each shard has exactly one job; nothing is stealable.
        assert!(q.steal_into(0).is_none());
        assert!(q.steal_into(1).is_none());
    }

    #[test]
    fn rehome_moves_all_orphans() {
        let mut plan = ShardPlan::partition(&[1.0; 6], 3);
        plan.assignment = vec![1, 1, 1, 1, 0, 2];
        let mut q = StealQueues::new(&plan);
        let moved = q.rehome(1);
        assert_eq!(moved, 4);
        assert_eq!(q.pending(1), 0);
        assert_eq!(q.pending(0) + q.pending(2), 6);
    }

    #[test]
    fn churn_plan_parses_and_round_trips() {
        let plan = ChurnPlan::parse("join@3,leave@6,join@9").unwrap();
        assert_eq!(plan.joins, vec![3, 9]);
        assert_eq!(plan.leaves, vec![6]);
        assert_eq!(plan.to_string(), "join@3,join@9,leave@6");
        assert_eq!(ChurnPlan::parse("").unwrap(), ChurnPlan::default());
        assert!(ChurnPlan::parse("join@x").is_err());
        assert!(ChurnPlan::parse("evict@3").is_err());
        assert!(ChurnPlan::parse("join3").is_err());
    }

    #[test]
    fn membership_balances_joins_and_rehomes_once() {
        let mut dir = MembershipDirectory::new(2);
        assert_eq!(dir.join(10), 0);
        assert_eq!(dir.join(11), 1);
        assert_eq!(dir.join(12), 0);
        assert_eq!(dir.census(), vec![2, 1]);
        dir.leave(12);
        assert_eq!(dir.census(), vec![1, 1]);
        assert_eq!(dir.pool_of(12), None);
        assert_eq!(dir.pool_of(10), Some(0));
        // Kill pool 0's master: its one worker moves, one re-home event.
        let moved = dir.rehome_pool(0);
        assert_eq!(moved, 1);
        assert_eq!(dir.rehomes(), 1);
        assert_eq!(dir.census(), vec![0, 2]);
        // A second kill of an empty pool is not a re-home.
        assert_eq!(dir.rehome_pool(0), 0);
        assert_eq!(dir.rehomes(), 1);
        // Explicit placement overrides balancing (and clamps).
        assert_eq!(dir.join_to(13, 0), 0);
        assert_eq!(dir.join_to(14, 99), 1);
        assert_eq!(dir.census(), vec![1, 3]);
    }

    #[test]
    fn requeue_appends_to_the_named_shard() {
        let plan = ShardPlan::partition(&[1.0, 1.0], 2);
        let mut q = StealQueues::new(&plan);
        q.requeue(1, 7);
        assert_eq!(q.pending(1), 2);
        assert_eq!(q.pop_own(1), Some(1));
        assert_eq!(q.pop_own(1), Some(7));
    }

    #[test]
    fn shard_spec_parses_flatness() {
        assert!(ShardSpec::default().is_flat());
        assert!(ShardSpec::new(0).is_flat());
        assert!(!ShardSpec::new(4).is_flat());
        assert!(!ShardSpec::new(2).with_steal(false).steal);
    }
}
