//! The calibrated cost model: from solver work to virtual seconds.
//!
//! Levels 10–15 of Table 1 are hours of 2003-era compute on grids of up to
//! half a million cells; reproducing them *live* is neither possible (no
//! 32-machine cluster) nor useful. Instead the distributed experiments run
//! in virtual time: each `subsolve(l, m)` becomes a [`Job`] whose cost
//! comes from this model.
//!
//! The model's *shape* is taken from the real solver (work grows linearly
//! in the cell count, the per-cell step/iteration count grows mildly with
//! refinement, anisotropic grids cost a little extra through their hybrid
//! upwind stencils and step-size control) and its *absolute scale* is
//! calibrated against a single anchor: the paper's measured sequential
//! time at level 15, tolerance 1.0e-3 (2019.02 s). Everything else —
//! per-level growth ≈ 2.4×, tolerance factor ≈ 2× — is then a prediction
//! that EXPERIMENTS.md compares against the remaining 31 table cells.
//!
//! The shape is cross-checked against measurement two ways: [`measure_shape`]
//! runs the real solver across levels and reports growth/anisotropy/
//! tolerance ratios from its own [`solver::WorkCounter`]s, and the solver
//! benchmark (`BENCH_solver.json`, from `solver_bench --json`) pins the
//! per-grid flop intensity at ≈302 flops per unknown per accepted step at
//! level 6 — the same constant the a-priori dispatch estimate
//! [`solver::work::estimate_subsolve_flops`] is calibrated to (its
//! `MEASURED_FLOPS_PER_UNKNOWN_STEP`). At the reference
//! rate of 10⁹ flop/s that intensity reproduces the right order for the
//! paper's low-level `st` entries without retuning the anchor.

use cluster::workload::{Job, Workload};
use solver::grid::Grid2;
use solver::problem::Problem;
use solver::subsolve::{subsolve, SubsolveRequest};

/// Reference tolerance: costs are expressed relative to `1.0e-3` runs.
pub const REF_TOL: f64 = 1.0e-3;

/// Cost model for the sparse-grid application on the simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Effective flop rate of the reference 1200 MHz machine.
    pub ref_flops_per_sec: f64,
    /// Seconds (on the reference machine) of the level-0 grid solve at the
    /// reference tolerance — the calibrated anchor scale.
    pub unit_grid_seconds: f64,
    /// Multiplicative cost growth per grid level (cells double; steps and
    /// linear iterations add another ~20%).
    pub level_growth: f64,
    /// Fixed per-grid cost (matrix setup, bookkeeping) in seconds.
    pub grid_constant_seconds: f64,
    /// Extra relative cost of anisotropic grids:
    /// `1 + anisotropy · ((l − m) / (l + m + 1))²`. Quadratic: strongly
    /// stretched stencils degrade the ILU-preconditioned iteration count
    /// much more than mildly stretched ones.
    pub anisotropy: f64,
    /// Cost scales as `(tol / REF_TOL)^(-tol_exponent)`; 0.31 reproduces
    /// the paper's ≈2.05× between 1.0e-3 and 1.0e-4.
    pub tol_exponent: f64,
    /// Fixed master initialization cost in seconds.
    pub init_constant_seconds: f64,
    /// Master flops per initial-data byte prepared (sampling + packing).
    pub feed_flops_per_byte: f64,
    /// Master flops per result byte stored back into the global structure.
    pub collect_flops_per_byte: f64,
}

impl CostModel {
    /// The model used for all Table 1 / Figure 1 reproductions: base shape
    /// constants plus the single-anchor calibration described in the
    /// module docs.
    pub fn paper_calibrated() -> CostModel {
        let mut model = CostModel {
            ref_flops_per_sec: 1.0e9,
            unit_grid_seconds: 1.0, // placeholder, calibrated below
            level_growth: 2.26,
            grid_constant_seconds: 0.02,
            anisotropy: 2.5,
            tol_exponent: 0.31,
            init_constant_seconds: 0.03,
            feed_flops_per_byte: 450.0,
            collect_flops_per_byte: 250.0,
        };
        model.calibrate_to(15, REF_TOL, 2019.02);
        model
    }

    /// Rescale `unit_grid_seconds` so the *sequential* time of the given
    /// `(level, tol)` run equals `target_seconds` on the reference machine.
    /// The sequential time is affine in the unit scale, so two probes pin
    /// it exactly.
    pub(crate) fn calibrate_to(&mut self, level: u32, tol: f64, target_seconds: f64) {
        self.unit_grid_seconds = 0.0;
        let at_zero = self.sequential_seconds(2, level, tol);
        self.unit_grid_seconds = 1.0;
        let at_one = self.sequential_seconds(2, level, tol);
        assert!(at_one > at_zero);
        assert!(
            target_seconds > at_zero,
            "target {target_seconds}s below the fixed costs {at_zero}s"
        );
        self.unit_grid_seconds = (target_seconds - at_zero) / (at_one - at_zero);
    }

    fn tol_factor(&self, tol: f64) -> f64 {
        (tol / REF_TOL).powf(-self.tol_exponent)
    }

    /// Virtual seconds of `subsolve(l, m)` at tolerance `tol` on the
    /// reference machine.
    pub(crate) fn grid_seconds(&self, l: u32, m: u32, tol: f64) -> f64 {
        let lm = (l + m) as f64;
        let stretch = (l as f64 - m as f64) / (lm + 1.0);
        let anis = 1.0 + self.anisotropy * stretch * stretch;
        self.grid_constant_seconds
            + self.unit_grid_seconds * self.level_growth.powf(lm) * anis * self.tol_factor(tol)
    }

    /// Flops of `subsolve(l, m)` (grid seconds × reference rate).
    pub(crate) fn grid_flops(&self, l: u32, m: u32, tol: f64) -> f64 {
        self.grid_seconds(l, m, tol) * self.ref_flops_per_sec
    }

    /// Bytes of a grid's full node field.
    pub(crate) fn grid_bytes(root: u32, l: u32, m: u32) -> usize {
        Grid2::new(root, l, m).node_count() * 8
    }

    /// The level-dependent but grid-cost-independent master seconds
    /// (initialization + prolongation model).
    fn fixed_seconds(&self, root: u32, level: u32) -> f64 {
        // Initialization samples the data, prolongation accumulates it into
        // the combined representation: a few flops per node each.
        self.init_constant_seconds
            + (self.init_flops(root, level) + self.prolong_flops(root, level))
                / self.ref_flops_per_sec
    }

    /// Master initialization flops (sampling every grid's initial field).
    pub fn init_flops(&self, root: u32, level: u32) -> f64 {
        let nodes: usize = Grid2::combination_indices(level)
            .iter()
            .map(|i| Grid2::new(root, i.l, i.m).node_count())
            .sum();
        25.0 * nodes as f64
    }

    /// Master prolongation flops (combining every grid into the final
    /// sparse representation).
    pub fn prolong_flops(&self, root: u32, level: u32) -> f64 {
        let nodes: usize = Grid2::combination_indices(level)
            .iter()
            .map(|i| Grid2::new(root, i.l, i.m).node_count())
            .sum();
        12.0 * nodes as f64
    }

    /// Analytic sequential seconds of a whole run on the reference machine
    /// (noise-free).
    pub fn sequential_seconds(&self, root: u32, level: u32, tol: f64) -> f64 {
        let mut t = self.fixed_seconds(root, level);
        for idx in Grid2::combination_indices(level) {
            t += self.grid_seconds(idx.l, idx.m, tol);
        }
        t
    }

    /// Build the protocol-shaped workload of a run: a single pool holding
    /// every `subsolve` of the nested loop (in the paper's visit order).
    /// `data_through_master` selects whether the initial data travels
    /// through the master (the paper's design) or workers fetch their own
    /// input (the §4.1 I/O-worker alternative).
    pub fn workload(&self, root: u32, level: u32, tol: f64, data_through_master: bool) -> Workload {
        let jobs: Vec<Job> = Grid2::combination_indices(level)
            .iter()
            .map(|idx| {
                let bytes = Self::grid_bytes(root, idx.l, idx.m);
                Job::new(
                    format!("subsolve({}, {})", idx.l, idx.m),
                    self.grid_flops(idx.l, idx.m, tol),
                    if data_through_master { bytes } else { 128 },
                    bytes,
                )
            })
            .collect();
        Workload {
            name: format!("root {root}, level {level}, tol {tol:.1e}"),
            init_flops: self.init_flops(root, level)
                + self.init_constant_seconds * self.ref_flops_per_sec,
            prolong_flops: self.prolong_flops(root, level),
            pools: vec![jobs],
            feed_flops_per_byte: self.feed_flops_per_byte,
            collect_flops_per_byte: self.collect_flops_per_byte,
        }
    }

    /// The "more demanding master" variant (§4.2 note): one pool per grid
    /// diagonal (`lm = level-1`, then `lm = level`) instead of one big
    /// pool. The rendezvous between the pools is a barrier the single-pool
    /// design does not have.
    ///
    /// Errs on a job whose label does not parse as `subsolve(l, m)` — the
    /// label is the join key between the cost model and the pools, and a
    /// workload from another source may not carry it.
    pub fn workload_per_diagonal(
        &self,
        root: u32,
        level: u32,
        tol: f64,
        data_through_master: bool,
    ) -> Result<Workload, String> {
        let mut base = self.workload(root, level, tol, data_through_master);
        let jobs = base.pools.pop().expect("workload always builds one pool");
        let mut pools: Vec<Vec<Job>> = Vec::new();
        let lo = level.saturating_sub(1);
        for lm in lo..=level {
            let mut diagonal: Vec<Job> = Vec::new();
            for j in &jobs {
                let (l, m) = parse_subsolve_label(&j.label)?;
                if l + m == lm {
                    diagonal.push(j.clone());
                }
            }
            if !diagonal.is_empty() {
                pools.push(diagonal);
            }
        }
        base.pools = pools;
        base.name = format!("{} (per-diagonal pools)", base.name);
        Ok(base)
    }
}

/// Parse a `subsolve(l, m)` job label back into its `(l, m)` indices.
///
/// A malformed label is a diagnosed error, not a panic deep inside an
/// iterator chain: the message names the label and the part that failed.
pub fn parse_subsolve_label(label: &str) -> Result<(u32, u32), String> {
    let inner = label
        .strip_prefix("subsolve(")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| format!("malformed job label {label:?}: expected `subsolve(l, m)`"))?;
    let (l, m) = inner.split_once(", ").ok_or_else(|| {
        format!("malformed job label {label:?}: expected two `, `-separated indices")
    })?;
    let index = |name: &str, s: &str| {
        s.parse::<u32>()
            .map_err(|e| format!("malformed job label {label:?}: {name} index {s:?}: {e}"))
    };
    Ok((index("l", l)?, index("m", m)?))
}

/// Empirical growth measurements from the *real* solver, used to validate
/// the model's shape constants (see EXPERIMENTS.md).
#[derive(Clone, Debug)]
pub struct MeasuredShape {
    /// Total work (flops from the solver's own counter) per level.
    pub level_flops: Vec<(u32, f64)>,
    /// Observed per-level growth ratios.
    pub growth_ratios: Vec<f64>,
    /// Max/min work ratio across the grids of the deepest measured
    /// diagonal (anisotropy spread).
    pub anisotropy_spread: f64,
    /// Work ratio between `tol/10` and `tol` at the deepest measured level.
    pub tol_ratio: f64,
}

/// Run the real solver across levels `0..=max_level` and measure how its
/// work actually scales.
pub fn measure_shape(root: u32, max_level: u32, tol: f64, problem: Problem) -> MeasuredShape {
    let mut level_flops = Vec::new();
    let mut deep_grid_flops: Vec<f64> = Vec::new();
    for level in 0..=max_level {
        let mut total = 0.0;
        for idx in Grid2::combination_indices(level) {
            let req = SubsolveRequest::for_grid(root, idx.l, idx.m, tol, problem);
            let res = subsolve(&req).expect("measurement subsolve failed");
            total += res.work.flops as f64;
            if level == max_level && idx.level() == max_level {
                deep_grid_flops.push(res.work.flops as f64);
            }
        }
        level_flops.push((level, total));
    }
    let growth_ratios = level_flops.windows(2).map(|w| w[1].1 / w[0].1).collect();
    let spread = {
        let max = deep_grid_flops.iter().copied().fold(0.0, f64::max);
        let min = deep_grid_flops.iter().copied().fold(f64::MAX, f64::min);
        max / min
    };
    let tol_ratio = {
        let total = |t: f64| -> f64 {
            Grid2::combination_indices(max_level)
                .iter()
                .map(|idx| {
                    let req = SubsolveRequest::for_grid(root, idx.l, idx.m, t, problem);
                    subsolve(&req)
                        .expect("measurement subsolve failed")
                        .work
                        .flops as f64
                })
                .sum()
        };
        total(tol / 10.0) / total(tol)
    };
    MeasuredShape {
        level_flops,
        growth_ratios,
        anisotropy_spread: spread,
        tol_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_anchor() {
        let m = CostModel::paper_calibrated();
        let st = m.sequential_seconds(2, 15, REF_TOL);
        assert!((st - 2019.02).abs() < 1e-6, "st(15) = {st}");
    }

    #[test]
    fn per_level_growth_matches_paper() {
        let m = CostModel::paper_calibrated();
        // The paper's st column grows ≈2.3–2.5× per level at high levels.
        for level in 10..15 {
            let r = m.sequential_seconds(2, level + 1, REF_TOL)
                / m.sequential_seconds(2, level, REF_TOL);
            assert!((2.2..2.65).contains(&r), "growth at {level}: {r}");
        }
    }

    #[test]
    fn tolerance_factor_matches_paper() {
        let m = CostModel::paper_calibrated();
        // st(1e-4)/st(1e-3) ≈ 2.04 in the paper at high levels.
        let r = m.sequential_seconds(2, 15, 1e-4) / m.sequential_seconds(2, 15, 1e-3);
        assert!((1.9..2.2).contains(&r), "tol ratio {r}");
    }

    #[test]
    fn low_level_sequential_times_are_small() {
        let m = CostModel::paper_calibrated();
        // Paper: st(0) = 0.02..0.03 s, st(5) ≈ 0.4..0.7 s.
        let st0 = m.sequential_seconds(2, 0, REF_TOL);
        let st5 = m.sequential_seconds(2, 5, REF_TOL);
        assert!(st0 < 0.2, "st(0) = {st0}");
        assert!((0.1..2.0).contains(&st5), "st(5) = {st5}");
    }

    #[test]
    fn anisotropic_grids_cost_more() {
        let m = CostModel::paper_calibrated();
        assert!(m.grid_seconds(10, 0, REF_TOL) > m.grid_seconds(5, 5, REF_TOL));
        // But all grids of one level stay within the anisotropy band.
        let base = m.grid_seconds(5, 5, REF_TOL);
        let worst = m.grid_seconds(10, 0, REF_TOL);
        assert!(worst / base < 1.0 + m.anisotropy + 1e-9);
    }

    #[test]
    fn workload_matches_nested_loop() {
        let m = CostModel::paper_calibrated();
        let wl = m.workload(2, 4, REF_TOL, true);
        assert_eq!(wl.pools.len(), 1);
        assert_eq!(wl.job_count(), 9); // 2*4+1
        assert!(wl.pools[0][0].label.starts_with("subsolve("));
        // Sequential flops of the workload agree with the analytic time.
        let st = m.sequential_seconds(2, 4, REF_TOL);
        let wl_secs = wl.sequential_flops() / m.ref_flops_per_sec;
        // The per-grid constant is folded into job flops? No: it is not —
        // jobs carry it via grid_flops (grid_seconds includes it).
        assert!(
            (wl_secs - st).abs() / st < 0.05,
            "workload {wl_secs} vs analytic {st}"
        );
    }

    #[test]
    fn per_diagonal_workload_splits_pools() {
        let m = CostModel::paper_calibrated();
        let single = m.workload(2, 4, REF_TOL, true);
        let split = m.workload_per_diagonal(2, 4, REF_TOL, true).unwrap();
        assert_eq!(split.pools.len(), 2);
        assert_eq!(split.pools[0].len(), 4); // lm = 3 diagonal
        assert_eq!(split.pools[1].len(), 5); // lm = 4 diagonal
        assert_eq!(split.job_count(), single.job_count());
        // Same total work, just regrouped.
        assert!(
            (split.sequential_flops() - single.sequential_flops()).abs()
                < 1e-6 * single.sequential_flops()
        );
    }

    #[test]
    fn per_diagonal_level_zero_single_pool() {
        let m = CostModel::paper_calibrated();
        let wl = m.workload_per_diagonal(2, 0, REF_TOL, true).unwrap();
        assert_eq!(wl.pools.len(), 1);
        assert_eq!(wl.job_count(), 1);
    }

    #[test]
    fn subsolve_labels_round_trip_and_malformed_ones_are_diagnosed() {
        assert_eq!(parse_subsolve_label("subsolve(7, 0)"), Ok((7, 0)));
        assert_eq!(parse_subsolve_label("subsolve(0, 12)"), Ok((0, 12)));
        for bad in [
            "",
            "subsolve",
            "subsolve()",
            "subsolve(3)",
            "subsolve(3; 4)",
            "subsolve(3, x)",
            "subsolve(-1, 4)",
            "prolong(3, 4)",
            "subsolve(3, 4",
        ] {
            let err = parse_subsolve_label(bad).unwrap_err();
            assert!(err.contains("malformed job label"), "{bad:?} → {err}");
            assert!(err.contains(bad), "message should quote the label: {err}");
        }
    }

    #[test]
    fn io_worker_variant_shrinks_inputs_only() {
        let m = CostModel::paper_calibrated();
        let through = m.workload(2, 3, REF_TOL, true);
        let io = m.workload(2, 3, REF_TOL, false);
        for (a, b) in through.pools[0].iter().zip(&io.pools[0]) {
            assert!(b.input_bytes < a.input_bytes);
            assert_eq!(a.output_bytes, b.output_bytes);
            assert_eq!(a.flops, b.flops);
        }
    }

    #[test]
    fn measured_shape_is_sane() {
        // Small real measurement: growth between levels is positive and
        // roughly geometric; anisotropy spread is modest.
        let shape = measure_shape(2, 3, 1e-3, Problem::transport_benchmark());
        assert_eq!(shape.level_flops.len(), 4);
        for r in &shape.growth_ratios {
            assert!(*r > 1.3, "growth ratio {r}");
        }
        assert!(shape.anisotropy_spread >= 1.0);
        assert!(shape.anisotropy_spread < 4.0);
        assert!(shape.tol_ratio > 1.2, "tol ratio {}", shape.tol_ratio);
    }
}
