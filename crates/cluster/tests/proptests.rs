//! Property-based tests of the cluster simulator.

use cluster::des::EventQueue;
use cluster::hosts::paper_cluster;
use cluster::noise::Perturbation;
use cluster::sim::DistributedSim;
use cluster::timeline::StepTrace;
use cluster::workload::{Job, Workload};
use proptest::prelude::*;
use protocol::PaperFaithful;

proptest! {
    /// Events always pop in nondecreasing time order with FIFO ties.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0.0..100.0f64, 0..50)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(*t, i);
        }
        let mut last_t = f64::MIN;
        let mut seen = Vec::new();
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last_t);
            last_t = t;
            seen.push(i);
        }
        prop_assert_eq!(seen.len(), times.len());
    }

    /// Step traces built from intervals: the value is the number of
    /// intervals covering the query point; the average is within [0, n].
    #[test]
    fn step_trace_counts_cover(
        intervals in prop::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..20),
        query in 0.0..100.0f64
    ) {
        let mut trace = StepTrace::new();
        let mut norm: Vec<(f64, f64)> = Vec::new();
        for (a, b) in &intervals {
            let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
            trace.interval(lo, hi);
            norm.push((lo, hi));
        }
        let want = norm
            .iter()
            .filter(|(lo, hi)| *lo <= query && query < *hi)
            .count() as i64;
        prop_assert_eq!(trace.value_at(query), want);
        let avg = trace.weighted_average(0.0, 100.0);
        prop_assert!(avg >= 0.0 && avg <= intervals.len() as f64);
        prop_assert!(trace.peak() as usize <= intervals.len());
    }

    /// Noise factors are bounded and deterministic per seed.
    #[test]
    fn noise_bounds(seed in any::<u64>()) {
        let mut a = Perturbation::overnight(seed);
        let mut b = Perturbation::overnight(seed);
        for _ in 0..200 {
            let fa = a.factor();
            prop_assert!((1.0..1.45).contains(&fa));
            prop_assert_eq!(fa, b.factor());
        }
    }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (1e6..1e11f64, 64usize..4_000_000, 64usize..4_000_000)
        .prop_map(|(f, i, o)| Job::new("j", f, i, o));
    (prop::collection::vec(job, 1..24), 1e5..1e8f64, 1e5..1e8f64).prop_map(
        |(jobs, init, prolong)| Workload {
            name: "prop".into(),
            init_flops: init,
            prolong_flops: prolong,
            pools: vec![jobs],
            feed_flops_per_byte: 100.0,
            collect_flops_per_byte: 100.0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Simulator invariants for arbitrary workloads:
    /// * elapsed at least the biggest job's compute on the fastest host;
    /// * elapsed at most the whole sequential time plus modelled overheads;
    /// * machines within [1, min(32, jobs+1)];
    /// * one Welcome and one Bye per worker and per master.
    #[test]
    fn simulator_invariants(wl in arb_workload()) {
        let sim = DistributedSim::new(paper_cluster(1e9));
        let report = sim.run(&wl, &mut Perturbation::none(), &PaperFaithful);

        let fastest = 1e9 * (1466.0 / 1200.0);
        prop_assert!(report.elapsed >= wl.max_job_flops() / fastest);

        let seq = sim.sequential_time(&wl, &mut Perturbation::none());
        let n = wl.job_count() as f64;
        // Generous overhead bound: per-worker costs + transfers + startup.
        let byte_total: f64 = wl.pools[0]
            .iter()
            .map(|j| (j.input_bytes + j.output_bytes) as f64)
            .sum();
        let bound = seq
            + 30.0
            + n * 10.0
            + byte_total * (2.0 / 11.0e6 + 200.0 / 1e9)
            + 1.0;
        prop_assert!(
            report.elapsed <= bound,
            "elapsed {} exceeds bound {bound}",
            report.elapsed
        );

        let peak = report.peak_machines as usize;
        prop_assert!(peak >= 1);
        prop_assert!(peak <= 32);
        prop_assert!(peak <= wl.job_count() + 1);
        prop_assert!(report.weighted_avg_machines >= 0.99);

        let welcomes = report.records.iter().filter(|r| r.message == "Welcome").count();
        let byes = report.records.iter().filter(|r| r.message == "Bye").count();
        prop_assert_eq!(welcomes, wl.job_count() + 1);
        prop_assert_eq!(byes, wl.job_count() + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// More machines can only help (or tie): a cluster padded with extra
    /// hosts never yields a slower run.
    #[test]
    fn more_hosts_never_slower(
        jobs in prop::collection::vec(1e8..1e10f64, 2..12)
    ) {
        let wl = Workload {
            name: "prop".into(),
            init_flops: 1e6,
            prolong_flops: 1e6,
            pools: vec![jobs.iter().map(|f| Job::new("j", *f, 1024, 1024)).collect()],
            feed_flops_per_byte: 100.0,
            collect_flops_per_byte: 100.0,
        };
        let small = {
            let mut c = paper_cluster(1e9);
            c.hosts.truncate(3);
            DistributedSim::new(c).run(&wl, &mut Perturbation::none(), &PaperFaithful).elapsed
        };
        let big = DistributedSim::new(paper_cluster(1e9))
            .run(&wl, &mut Perturbation::none(), &PaperFaithful)
            .elapsed;
        prop_assert!(big <= small + 1e-9, "32 hosts {big} vs 3 hosts {small}");
    }
}
