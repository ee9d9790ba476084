//! Quantitative integration tests against the paper's Table 1.
//!
//! The sequential-time column is the calibration target and must track the
//! paper closely; the concurrent columns are *predictions* of the simulator
//! and must reproduce the paper's shape (crossover, saturation, machine
//! growth) within the documented bands. EXPERIMENTS.md discusses each.

use protocol::PaperFaithful;
use renovation::cost::{CostModel, REF_TOL};
use renovation::run_distributed_experiment;
use renovation::virtualrun::figure1_run;

/// Paper Table 1, 1.0e-3 block: (level, st, ct, m, su).
const PAPER_1E3: &[(u32, f64, f64, f64, f64)] = &[
    (8, 4.27, 30.06, 3.7, 0.1),
    (9, 10.28, 23.84, 4.1, 0.4),
    (10, 24.14, 21.82, 5.5, 1.1),
    (11, 57.91, 33.58, 6.3, 1.7),
    (12, 145.47, 50.79, 7.6, 2.9),
    (13, 337.69, 75.28, 9.8, 4.5),
    (14, 818.62, 124.20, 11.7, 6.6),
    (15, 2019.02, 259.69, 12.2, 7.8),
];

/// Paper Table 1, 1.0e-4 block (levels 10+).
const PAPER_1E4: &[(u32, f64, f64, f64, f64)] = &[
    (10, 51.64, 38.66, 5.7, 1.3),
    (11, 124.17, 46.30, 7.6, 2.7),
    (12, 301.17, 65.02, 9.9, 4.6),
    (13, 724.92, 129.28, 11.4, 5.6),
    (14, 1751.02, 227.18, 13.1, 7.7),
    (15, 4118.08, 519.15, 13.3, 7.9),
];

#[test]
fn sequential_times_track_paper_within_quarter() {
    let model = CostModel::paper_calibrated();
    for &(level, st, _, _, _) in PAPER_1E3 {
        let ours = model.sequential_seconds(2, level, REF_TOL);
        let ratio = ours / st;
        assert!(
            (0.75..1.35).contains(&ratio),
            "st({level}, 1e-3): ours {ours:.2} vs paper {st} (ratio {ratio:.2})"
        );
    }
    for &(level, st, _, _, _) in PAPER_1E4 {
        let ours = model.sequential_seconds(2, level, 1.0e-4);
        let ratio = ours / st;
        assert!(
            (0.75..1.35).contains(&ratio),
            "st({level}, 1e-4): ours {ours:.2} vs paper {st} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn concurrent_shape_matches_paper() {
    let points = run_distributed_experiment(
        [0, 5, 8, 9, 10, 11, 12, 13, 14, 15],
        &[1.0e-3, 1.0e-4],
        3,
        20040406,
        true,
        &PaperFaithful,
    );
    let get = |tol: f64, lvl: u32| {
        points
            .iter()
            .find(|p| p.tol == tol && p.level == lvl)
            .unwrap()
    };

    // Criterion 1: no speedup below level ~9-10, speedup after.
    for lvl in [0, 5, 8] {
        assert!(get(1e-3, lvl).su < 1.0, "su(1e-3, {lvl})");
    }
    assert!(get(1e-3, 10).su > 0.85, "crossover: {}", get(1e-3, 10).su);
    assert!(get(1e-3, 11).su > 1.3);

    // Criterion 2: saturation near the paper's 7.8/7.9 (documented band:
    // within ~40%).
    let su15_a = get(1e-3, 15).su;
    let su15_b = get(1e-4, 15).su;
    assert!((5.5..11.0).contains(&su15_a), "su(1e-3, 15) = {su15_a}");
    assert!((5.5..12.0).contains(&su15_b), "su(1e-4, 15) = {su15_b}");

    // Criterion 3: machine usage grows monotonically with level and lands
    // near the paper's 12-13 at level 15.
    let levels = [0u32, 5, 8, 10, 12, 15];
    for w in levels.windows(2) {
        assert!(
            get(1e-3, w[1]).m >= get(1e-3, w[0]).m - 0.2,
            "m not growing at {}",
            w[1]
        );
    }
    assert!(
        (8.0..15.0).contains(&get(1e-3, 15).m),
        "m = {}",
        get(1e-3, 15).m
    );
    assert!((8.0..15.0).contains(&get(1e-4, 15).m));

    // Criterion 4: for high levels speedup stays clearly below the machine
    // count (the paper: about half).
    for lvl in [12, 13, 14, 15] {
        let p = get(1e-3, lvl);
        assert!(
            p.su < p.m,
            "speedup {} should lag machines {} at level {lvl}",
            p.su,
            p.m
        );
    }

    // Criterion 5: sequential growth ≈ 2.4×/level; 1e-4 ≈ 2× 1e-3.
    let growth = get(1e-3, 15).st / get(1e-3, 14).st;
    assert!((2.2..2.65).contains(&growth), "growth {growth}");
    let tol_ratio = get(1e-4, 15).st / get(1e-3, 15).st;
    assert!((1.8..2.3).contains(&tol_ratio), "tol ratio {tol_ratio}");
}

#[test]
fn figure1_quantities_match_paper_scale() {
    // Paper Figure 1: a level-15 run of 634 s, peak 32 machines, weighted
    // average 11.
    let report = figure1_run(15, 1.0e-4, 1);
    assert!(
        (250.0..800.0).contains(&report.elapsed),
        "elapsed {}",
        report.elapsed
    );
    assert!(
        (20..=32).contains(&(report.peak_machines as usize)),
        "peak {}",
        report.peak_machines
    );
    assert!(
        (8.0..15.0).contains(&report.weighted_avg_machines),
        "avg {}",
        report.weighted_avg_machines
    );
}

#[test]
fn io_worker_ablation_beats_paper_design_at_high_level() {
    // The untried §4.1 alternative: workers fetch their own input, so the
    // master's serial feeding phase shrinks and the speedup grows.
    let through = run_distributed_experiment([14], &[1.0e-3], 3, 9, true, &PaperFaithful);
    let io = run_distributed_experiment([14], &[1.0e-3], 3, 9, false, &PaperFaithful);
    assert!(
        io[0].su > through[0].su,
        "io-workers {} should beat through-master {}",
        io[0].su,
        through[0].su
    );
}

#[test]
fn speedup_bounded_by_machines_and_workers() {
    let points = run_distributed_experiment([6, 10, 14], &[1.0e-3], 2, 3, true, &PaperFaithful);
    for p in &points {
        assert!(p.su <= p.m + 0.5, "su {} > m {}", p.su, p.m);
        assert!(p.peak as u32 <= 2 * p.level + 2);
        assert!(p.peak <= 32);
    }
}
