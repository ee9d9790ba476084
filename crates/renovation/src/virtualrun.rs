//! The Table 1 / Figure 1 experiment driver.
//!
//! Runs the paper's full parameter sweep — root 2, additional refinement
//! levels 0 through 15, integrator tolerances 1.0e-3 and 1.0e-4, five runs
//! averaged — on the simulated 32-machine cluster, producing the same
//! four columns the paper reports: average sequential time (`st`), average
//! concurrent time (`ct`), weighted average machines (`m`), and speedup
//! (`su = st / ct`).

use cluster::hosts::paper_cluster;
use cluster::sim::{DistributedReport, DistributedSim};
use protocol::{DispatchPolicy, PaperFaithful};

use crate::cost::CostModel;

/// One cell group of Table 1.
#[derive(Clone, Debug)]
pub struct ExperimentPoint {
    /// Additional refinement level (0–15).
    pub level: u32,
    /// Integrator tolerance.
    pub tol: f64,
    /// Average sequential time (s).
    pub st: f64,
    /// Average concurrent time (s).
    pub ct: f64,
    /// Weighted average of machines used.
    pub m: f64,
    /// Average speedup `st / ct`.
    pub su: f64,
    /// Peak machines over the averaged runs.
    pub peak: i64,
    /// Task forks in the first run (diagnostic).
    pub forks: usize,
}

/// The simulator configured as in §7 (32 paper machines, 100 Mbps switched
/// Ethernet, paper-era coordination costs).
pub fn paper_sim(model: &CostModel) -> DistributedSim {
    DistributedSim::new(paper_cluster(model.ref_flops_per_sec))
}

/// Reproduce Table 1: every `(tol, level)` combination, `runs` seeded
/// repetitions averaged, under `policy` (the `--policy` flag of the
/// `table1` binary; [`PaperFaithful`] is the paper's own dispatch order).
/// `data_through_master` selects the paper's design (true) or the
/// I/O-worker ablation (false).
pub fn run_distributed_experiment(
    levels: impl IntoIterator<Item = u32>,
    tols: &[f64],
    runs: usize,
    base_seed: u64,
    data_through_master: bool,
    policy: &dyn DispatchPolicy,
) -> Vec<ExperimentPoint> {
    let model = CostModel::paper_calibrated();
    let sim = paper_sim(&model);
    let mut out = Vec::new();
    let levels: Vec<u32> = levels.into_iter().collect();
    for &tol in tols {
        for &level in &levels {
            let wl = model.workload(2, level, tol, data_through_master);
            let seed = base_seed
                .wrapping_add(level as u64)
                .wrapping_add((tol * 1e7) as u64);
            let (st, ct, m, reports) = sim.run_averaged(&wl, runs, seed, policy);
            let peak = reports.iter().map(|r| r.peak_machines).max().unwrap_or(0);
            let forks = reports.first().map_or(0, |r| r.task_forks);
            out.push(ExperimentPoint {
                level,
                tol,
                st,
                ct,
                m,
                su: st / ct,
                peak,
                forks,
            });
        }
    }
    out
}

/// One noise-free distributed run at `(level, tol)` returning the full
/// report (machine ebb & flow for Figure 1, chronological trace, …).
pub fn figure1_run(level: u32, tol: f64, seed: u64) -> DistributedReport {
    let model = CostModel::paper_calibrated();
    let sim = paper_sim(&model);
    let wl = model.workload(2, level, tol, true);
    let mut noise = cluster::noise::Perturbation::overnight(seed);
    sim.run(&wl, &mut noise, &PaperFaithful)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-table shape criteria from DESIGN.md, on a reduced sweep
    /// (full sweep in the bench binaries).
    #[test]
    fn shape_speedup_crossover_and_growth() {
        let pts =
            run_distributed_experiment([0, 4, 8, 10, 12, 15], &[1e-3], 3, 42, true, &PaperFaithful);
        let by_level = |lvl: u32| pts.iter().find(|p| p.level == lvl).unwrap();
        // Criterion 1: no gain at low levels.
        assert!(by_level(0).su < 1.0, "su(0) = {}", by_level(0).su);
        assert!(by_level(4).su < 1.0, "su(4) = {}", by_level(4).su);
        assert!(by_level(8).su < 1.0, "su(8) = {}", by_level(8).su);
        // Crossover around level 10.
        assert!(by_level(10).su > 0.8, "su(10) = {}", by_level(10).su);
        assert!(by_level(12).su > 1.5, "su(12) = {}", by_level(12).su);
        // Criterion 2: substantial speedup at level 15.
        let su15 = by_level(15).su;
        assert!((5.0..12.0).contains(&su15), "su(15) = {su15}");
        // Criterion 3: machine usage grows with level.
        assert!(by_level(15).m > by_level(10).m);
        assert!(by_level(10).m > by_level(0).m);
        assert!(by_level(0).m >= 1.0 && by_level(0).m < 4.0);
    }

    #[test]
    fn tighter_tolerance_slower_but_similar_speedup() {
        let pts = run_distributed_experiment([12], &[1e-3, 1e-4], 2, 7, true, &PaperFaithful);
        let loose = &pts[0];
        let tight = &pts[1];
        assert!(
            tight.st > 1.8 * loose.st,
            "st ratio {}",
            tight.st / loose.st
        );
        assert!(tight.ct > loose.ct);
        // Speedups of the two tolerance families are close (paper: 2.9 vs
        // 4.6 at level 12; same order).
        assert!((tight.su / loose.su) > 0.5 && (tight.su / loose.su) < 2.5);
    }

    #[test]
    fn figure1_run_reaches_peak_32() {
        // The paper's Figure 1 run: level 15, "sometimes uses 32 machines".
        // At tolerance 1.0e-4 the lm = 14 workers outlive the feeding phase
        // and all 31 workers plus the master are briefly alive together.
        let report = figure1_run(15, 1e-4, 1);
        assert!(report.elapsed > 100.0, "elapsed {}", report.elapsed);
        assert!(report.peak_machines >= 25, "peak {}", report.peak_machines);
        assert!(report.peak_machines <= 32);
    }

    #[test]
    fn figure1_run_has_ebb_and_flow() {
        // At 1.0e-3 the cheap mid-diagonal lm = 14 workers die while the
        // master is still feeding the lm = 15 diagonal: the machine count
        // dips and then grows again — the expansion/shrinking of Figure 1.
        let report = figure1_run(15, 1e-3, 1);
        let samples = report.busy.sample(0.0, report.elapsed, 400);
        let vals: Vec<i64> = samples.iter().map(|&(_, v)| v).collect();
        let mut best_dip = 0i64;
        let mut running_max = vals[0];
        let mut min_since_max = vals[0];
        for &v in &vals[1..] {
            if v > running_max {
                running_max = v;
                min_since_max = v;
            }
            min_since_max = min_since_max.min(v);
            best_dip =
                best_dip.max((running_max - min_since_max).min(v.saturating_sub(min_since_max)));
        }
        assert!(
            best_dip >= 2,
            "expected a ≥2-machine dip-then-rise, best was {best_dip}"
        );
        // And it shrinks back down after the peak.
        let peak = report.peak_machines;
        assert!(vals.last().copied().unwrap_or(0) < peak);
    }

    #[test]
    fn bounded_policy_throttles_the_sweep() {
        let paper = run_distributed_experiment([12], &[1e-3], 2, 9, true, &PaperFaithful);
        let bounded =
            run_distributed_experiment([12], &[1e-3], 2, 9, true, &protocol::BoundedReuse::new(2));
        // Two workers in flight + the master: peak machines capped at 3,
        // and the concurrent time can only grow.
        assert!(bounded[0].peak <= 3, "peak {}", bounded[0].peak);
        assert!(bounded[0].peak < paper[0].peak);
        assert!(bounded[0].ct >= paper[0].ct);
        // The sequential column does not depend on the policy.
        assert_eq!(bounded[0].st, paper[0].st);
    }

    #[test]
    fn workers_match_formula_in_reports() {
        let report = figure1_run(3, 1e-3, 2);
        // 2*3+1 workers → 7 Welcome + 7 Bye + master's pair.
        let welcomes = report
            .records
            .iter()
            .filter(|r| r.message == "Welcome")
            .count();
        assert_eq!(welcomes, 8);
    }
}
