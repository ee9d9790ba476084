//! The fleet's shard topology: which host masters which slice of the
//! fleet, and how membership moves between slices.
//!
//! [`SimFleet`](crate::SimFleet) runs one event loop for every topology;
//! this module only says who its masters are. With
//! [`DistributedSim::shards`] `= 1` the start-up machine is the paper's
//! single master and every other host is in its locus. That master's
//! serial feed saturates once the per-job dispatch time stops being
//! negligible next to the job compute divided by the fleet size — the
//! §4.2 "more demanding master" observation. With `S > 1`:
//!
//! * hosts `1..=S` are shard masters, and the remaining hosts are split
//!   contiguously over them (one edge switch each); a root on the
//!   start-up machine partitions each pool's job stream cost-aware
//!   ([`protocol::ShardPlan`]) and only coordinates;
//! * each shard master owns a [`Bundler`] over its slice, so forks, the
//!   fleet-wide first-fork surcharge, CPU queues and faults work exactly
//!   as for the flat master;
//! * an idle shard steals queued work from the most loaded one
//!   ([`protocol::StealQueues`], pop-two-merge); a stolen job's input
//!   crosses the inter-pool link of the [`FabricModel`](crate::FabricModel);
//! * a [`protocol::ChurnPlan`] joins or retires hosts at fleet-wide
//!   dispatch ordinals, and a chaos `poolkill@N` token kills shard master
//!   `N` mid-pool — its hosts and queued jobs re-home to the survivors,
//!   once.
//!
//! The dispatch bookkeeping is the same [`protocol::ShardPlan`] the live
//! master uses, so the sharded dispatch order agrees across backends by
//! construction.

use manifold::config::{ConfigSpec, HostName};
use manifold::link::{Bundler, LinkSpec, Placement};
use manifold::Name;

use crate::des::EventQueue;
use crate::sim::DistributedSim;

/// One master and the slice of the fleet it feeds.
pub(crate) struct Shard {
    /// Task instances over this shard's locus (MLINK `load 1`, perpetual).
    pub(crate) bundler: Bundler,
    /// The machines this master may fork workers on.
    pub(crate) locus: Vec<HostName>,
    /// The master's machine.
    pub(crate) master: HostName,
    /// Flop rate of the master's machine.
    pub(crate) master_speed: f64,
    /// Placed workers, keyed by the time their task instance frees up.
    pub(crate) deaths: EventQueue<Placement>,
    /// False once a `poolkill` took this master down.
    pub(crate) alive: bool,
    /// This job's master process and its trace uid.
    pub(crate) job_master: Option<(Placement, u64)>,
    /// The master's clock within the current pool.
    pub(crate) t: f64,
    /// Results in flight: `(arrival, output bytes, job)`.
    pub(crate) arrivals: Vec<(f64, usize, usize)>,
    /// Latest `death_worker` event of the current pool.
    pub(crate) last_death_event: f64,
    /// The policy's in-flight window over this shard's share.
    pub(crate) window: usize,
    /// Dispatches in the current pool.
    pub(crate) dispatched: usize,
    /// When this master last went idle (or died).
    pub(crate) finish: f64,
}

/// `mainprog.mlink` from §6.
fn link_spec() -> LinkSpec {
    LinkSpec::default()
        .task("mainprog")
        .perpetual(true)
        .load(1)
        .weight("Master", 1)
        .weight("Worker", 1)
}

/// Partition the cluster into shards: the root alone when flat, else
/// hosts `1..=S` as masters over contiguous slices of the rest. A sharded
/// fleet needs the root plus one master and one worker per shard, which
/// clamps `S`.
pub(crate) fn partition(sim: &DistributedSim) -> Vec<Shard> {
    let hosts = &sim.cluster.hosts;
    let shards = sim.shards.shards.clamp(1, (hosts.len().max(3) - 1) / 2);
    let (masters, rest) = if shards == 1 {
        (&hosts[..1], &hosts[1..])
    } else {
        (&hosts[1..=shards], &hosts[shards + 1..])
    };
    let counts: Vec<usize> = match &sim.pool_hosts {
        Some(c) => {
            assert_eq!(c.len(), shards, "pool_hosts must have one entry per shard");
            assert!(
                c.iter().sum::<usize>() <= rest.len(),
                "pool_hosts exceed fleet"
            );
            c.clone()
        }
        None => (0..shards)
            .map(|s| rest.len() / shards + usize::from(s < rest.len() % shards))
            .collect(),
    };
    let mut cursor = 0;
    masters
        .iter()
        .zip(counts)
        .map(|(master, n)| {
            let locus: Vec<HostName> = rest[cursor..cursor + n]
                .iter()
                .map(|h| h.name.clone())
                .collect();
            cursor += n;
            let names: Vec<&str> = locus.iter().map(HostName::as_str).collect();
            let config = ConfigSpec::with_startup(master.name.clone()).locus("mainprog", &names);
            Shard {
                bundler: Bundler::new(link_spec(), config),
                locus,
                master: master.name.clone(),
                master_speed: sim.cluster.flops_per_sec(&master.name),
                deaths: EventQueue::new(),
                alive: true,
                job_master: None,
                t: 0.0,
                arrivals: Vec::new(),
                last_death_event: 0.0,
                window: 1,
                dispatched: 0,
                finish: f64::INFINITY,
            }
        })
        .collect()
}

/// A fresh host joins the least-populated live shard (ties to the lowest
/// index). Returns that shard.
pub(crate) fn join(shards: &mut [Shard], worker: &Name, host: HostName) -> usize {
    let target = (0..shards.len())
        .filter(|&i| shards[i].alive)
        .min_by_key(|&i| (shards[i].locus.len(), i))
        .expect("a fleet keeps one live shard");
    shards[target].bundler.add_host(worker, host.clone());
    shards[target].locus.push(host);
    target
}

/// The most-populated live shard with more than one host retires its last
/// one (gracefully: a worker running there finishes first). Returns the
/// shard and the host, if any shard can spare one.
pub(crate) fn leave(shards: &mut [Shard]) -> Option<(usize, HostName)> {
    let target = (0..shards.len())
        .filter(|&i| shards[i].alive && shards[i].locus.len() > 1)
        .max_by_key(|&i| (shards[i].locus.len(), std::cmp::Reverse(i)))?;
    let host = shards[target].locus.pop()?;
    shards[target].bundler.remove_host(&host);
    Some((target, host))
}

/// Hand dead shard `dead`'s hosts to the survivors round-robin. Returns
/// how many moved.
pub(crate) fn rehome_hosts(shards: &mut [Shard], dead: usize, worker: &Name) -> usize {
    let survivors: Vec<usize> = (0..shards.len())
        .filter(|&i| i != dead && shards[i].alive)
        .collect();
    let hosts = std::mem::take(&mut shards[dead].locus);
    let moved = hosts.len();
    for (i, host) in hosts.into_iter().enumerate() {
        let target = survivors[i % survivors.len()];
        shards[target].bundler.add_host(worker, host.clone());
        shards[target].locus.push(host);
    }
    moved
}

#[cfg(test)]
mod tests {
    use crate::hosts::{paper_cluster, synthetic_cluster};
    use crate::noise::Perturbation;
    use crate::sim::{DistributedReport, DistributedSim, SimFleet};
    use crate::workload::{Job, Workload};
    use chaos::FaultPlan;
    use protocol::{ChurnPlan, DispatchPolicy, PaperFaithful, ShardSpec};

    fn uniform_workload(jobs: usize, flops: f64) -> Workload {
        Workload {
            name: format!("{jobs} uniform jobs"),
            init_flops: 1e6,
            prolong_flops: 1e6,
            pools: vec![(0..jobs)
                .map(|i| Job::new(format!("subsolve(0, {i})"), flops, 64 * 1024, 64 * 1024))
                .collect()],
            feed_flops_per_byte: 2.0,
            collect_flops_per_byte: 2.0,
        }
    }

    fn sharded(cluster: crate::ClusterSpec, shards: usize) -> DistributedSim {
        DistributedSim {
            shards: ShardSpec::new(shards),
            ..DistributedSim::new(cluster)
        }
    }

    fn run_with(
        sim: &DistributedSim,
        wl: &Workload,
        plan: &FaultPlan,
        policy: &dyn DispatchPolicy,
    ) -> DistributedReport {
        SimFleet::new(sim.clone(), plan, 0)
            .submit(wl, &mut Perturbation::none(), policy)
            .unwrap()
    }

    fn throughput(wl: &Workload, r: &DistributedReport) -> f64 {
        wl.job_count() as f64 / r.elapsed
    }

    fn worker_byes(r: &DistributedReport) -> usize {
        r.records
            .iter()
            .filter(|rec| rec.manifold_name.as_str() == "Worker(event)" && rec.message == "Bye")
            .count()
    }

    #[test]
    fn flat_and_sharded_complete_all_jobs() {
        let wl = uniform_workload(64, 5e9);
        for shards in [1usize, 2, 4, 8] {
            let sim = sharded(paper_cluster(1e9), shards);
            let r = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
            assert_eq!(worker_byes(&r), 64);
            assert_eq!(r.per_shard_jobs.len(), shards);
            assert_eq!(r.per_shard_jobs.iter().sum::<usize>(), 64);
            assert!(r.elapsed.is_finite() && r.elapsed > 0.0);
        }
    }

    #[test]
    fn same_seed_same_elapsed() {
        let wl = uniform_workload(48, 3e9);
        let sim = sharded(paper_cluster(1e9), 4);
        let run = || sim.run(&wl, &mut Perturbation::overnight(11), &protocol::CostAware);
        let (a, b) = (run(), run());
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.per_shard_jobs, b.per_shard_jobs);
    }

    #[test]
    fn sharding_beats_flat_on_a_large_fleet() {
        // 1,000 hosts, a job stream long enough to occupy them: the flat
        // master's serial feed saturates; 16 shard masters do not.
        let cluster = synthetic_cluster(1000, 42, 1e9);
        let wl = uniform_workload(2000, 10e9);
        let flat = sharded(cluster.clone(), 1).run(&wl, &mut Perturbation::none(), &PaperFaithful);
        let sharded = sharded(cluster, 16).run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert!(
            throughput(&wl, &sharded) >= 2.0 * throughput(&wl, &flat),
            "sharded {:.2} jobs/s vs flat {:.2} jobs/s",
            throughput(&wl, &sharded),
            throughput(&wl, &flat)
        );
    }

    #[test]
    fn work_stealing_drains_a_loaded_pool_in_bounded_time() {
        // Asymmetric pools: shard 0 has 2 workers, shard 1 has 20. The
        // LPT partition still splits the *costs* evenly, so shard 1 goes
        // idle early — stealing must drain shard 0's queue and bound the
        // finish spread.
        let wl = uniform_workload(60, 8e9);
        let mut sim = sharded(paper_cluster(1e9), 2);
        sim.pool_hosts = Some(vec![2, 20]);
        let stealing = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        sim.shards = sim.shards.with_steal(false);
        let starved = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert!(stealing.steals > 0, "the idle pool must steal");
        assert!(
            stealing.elapsed < starved.elapsed,
            "stealing {:.1}s must beat starving {:.1}s",
            stealing.elapsed,
            starved.elapsed
        );
        // Bounded starvation: the idle pool keeps the loaded pool's tail,
        // so both shards finish within a couple of job-lengths of each
        // other instead of one idling for half the run.
        let job_len = 8e9 / 1e9;
        assert!(
            stealing.finish_spread() < 4.0 * job_len,
            "finish spread {:.1}s exceeds bound",
            stealing.finish_spread()
        );
        assert!(starved.finish_spread() > stealing.finish_spread());
        // Steal events are attributed in the trace.
        assert!(stealing
            .records
            .iter()
            .any(|r| r.message.starts_with("steal: shard 1 <- shard 0")));
    }

    #[test]
    fn poolkill_rehomes_exactly_once_and_loses_nothing() {
        let wl = uniform_workload(64, 5e9);
        let sim = sharded(paper_cluster(1e9), 4);
        let plan = FaultPlan::parse("poolkill@1").unwrap();
        let r = run_with(&sim, &wl, &plan, &PaperFaithful);
        assert_eq!(r.rehomes, 1, "exactly one re-home per poolkill");
        assert_eq!(r.per_shard_jobs.iter().sum::<usize>(), 64 + r.redispatches);
        assert!(r.redispatches > 0, "the dead master held in-flight jobs");
        assert!(r
            .records
            .iter()
            .any(|r| r.message.starts_with("poolkill: shard 1")));
        assert!(r.records.iter().any(|r| r.message.starts_with("re-home:")));
        // Shard 1 stopped mid-queue; the survivors absorbed its work.
        assert!(r.per_shard_jobs[1] < 64 / 4 + 1);
        assert_eq!(worker_byes(&r), 64 + r.redispatches);
    }

    #[test]
    fn churn_joins_and_leaves_are_applied_and_attributed() {
        let wl = uniform_workload(40, 5e9);
        let sim = DistributedSim {
            churn: ChurnPlan::parse("join@5,leave@20").unwrap(),
            ..sharded(paper_cluster(1e9), 2)
        };
        let r = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert_eq!(r.joins, 1);
        assert_eq!(r.leaves, 1);
        assert_eq!(r.per_shard_jobs.iter().sum::<usize>(), 40, "no lost jobs");
        assert!(r.records.iter().any(|r| r.message.starts_with("join:")));
        assert!(r.records.iter().any(|r| r.message.starts_with("leave:")));
    }

    #[test]
    fn shard_count_is_clamped_to_the_fleet() {
        let wl = uniform_workload(8, 1e9);
        // 5 hosts: root + at most (5-1)/2 = 2 shards.
        let sim = sharded(synthetic_cluster(5, 1, 1e9), 8);
        let r = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);
        assert_eq!(r.per_shard_jobs.len(), 2);
        assert_eq!(r.per_shard_jobs.iter().sum::<usize>(), 8);
    }
}
