//! Convergence studies: the quantitative case *for* the sparse-grid
//! method.
//!
//! The paper's motivation is that the developers "found their algorithms
//! to be effective (good convergence rates) but inefficient (long
//! computing times)". This module measures both halves on the benchmark
//! problems: error vs level for the combination technique against the
//! full isotropic grid of equal finest mesh width, and the corresponding
//! work, yielding the accuracy-per-flop tables quoted in EXPERIMENTS.md.

use crate::combine::combine;
use crate::grid::{Grid2, GridIndex};
use crate::l2_norm;
use crate::problem::Problem;
use crate::rosenbrock::IntegrateError;
use crate::subsolve::{subsolve, SubsolveRequest};
use crate::work::WorkCounter;

/// One row of a convergence table.
#[derive(Clone, Debug)]
pub struct ConvergenceRow {
    /// Additional refinement level.
    pub level: u32,
    /// L2 error of the combination-technique solution on the finest grid.
    pub combination_error: f64,
    /// Work (flops) of all combination member solves.
    pub combination_flops: u64,
    /// L2 error of the single full isotropic grid `(level, level)`.
    pub full_grid_error: f64,
    /// Work of the full-grid solve.
    pub full_grid_flops: u64,
}

impl ConvergenceRow {
    /// Accuracy per flop advantage of the combination technique:
    /// `(full_error / comb_error) · (full_flops / comb_flops)` — > 1 means
    /// the sparse-grid method wins.
    fn advantage(&self) -> f64 {
        (self.full_grid_error / self.combination_error.max(1e-300))
            * (self.full_grid_flops as f64 / self.combination_flops.max(1) as f64)
    }
}

/// Run the study over `levels` at tolerance `tol` on `problem`.
pub fn convergence_study(
    root: u32,
    levels: impl IntoIterator<Item = u32>,
    tol: f64,
    problem: Problem,
) -> Result<Vec<ConvergenceRow>, IntegrateError> {
    let mut rows = Vec::new();
    for level in levels {
        let fine = Grid2::finest(root, level);
        let exact = fine.sample(|x, y| problem.exact(x, y, problem.t_end));

        // Combination members (shared buffers straight from the results).
        let mut sols: Vec<(GridIndex, std::sync::Arc<Vec<f64>>)> = Vec::new();
        let mut comb_flops = 0u64;
        for idx in Grid2::combination_indices(level) {
            let res = subsolve(&SubsolveRequest::for_grid(root, idx.l, idx.m, tol, problem))?;
            comb_flops += res.work.flops;
            sols.push((idx, res.values));
        }
        let views: Vec<(GridIndex, &[f64])> =
            sols.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let mut w = WorkCounter::new();
        let combined = combine(root, level, &views, &mut w);
        let comb_err = {
            let d: Vec<f64> = combined.iter().zip(&exact).map(|(a, b)| a - b).collect();
            l2_norm(&d)
        };

        // The full isotropic grid of the same finest mesh width.
        let full = subsolve(&SubsolveRequest::for_grid(root, level, level, tol, problem))?;
        let full_err = {
            let d: Vec<f64> = full.values.iter().zip(&exact).map(|(a, b)| a - b).collect();
            l2_norm(&d)
        };

        rows.push(ConvergenceRow {
            level,
            combination_error: comb_err,
            combination_flops: comb_flops,
            full_grid_error: full_err,
            full_grid_flops: full.work.flops,
        });
    }
    Ok(rows)
}

/// Estimated order of accuracy from consecutive rows (log2 of the error
/// ratio per level).
pub fn observed_orders(rows: &[ConvergenceRow]) -> Vec<f64> {
    rows.windows(2)
        .map(|w| (w[0].combination_error / w[1].combination_error).log2())
        .collect()
}

/// Pretty-print a study as an aligned text table.
pub fn format_study(rows: &[ConvergenceRow]) -> String {
    let mut out =
        String::from("level   comb error     comb Mflop   full error     full Mflop   advantage\n");
    for r in rows {
        out.push_str(&format!(
            "{:>5}   {:>10.4e}   {:>10.2}   {:>10.4e}   {:>10.2}   {:>8.2}\n",
            r.level,
            r.combination_error,
            r.combination_flops as f64 / 1e6,
            r.full_grid_error,
            r.full_grid_flops as f64 / 1e6,
            r.advantage()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_decrease_with_level() {
        let rows = convergence_study(2, 0..=2, 1e-5, Problem::manufactured_benchmark()).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[1].combination_error < rows[0].combination_error);
        assert!(rows[2].combination_error < rows[1].combination_error);
        assert!(rows[2].full_grid_error < rows[1].full_grid_error);
    }

    #[test]
    fn combination_is_cheaper_than_full_grid() {
        let rows = convergence_study(2, 2..=3, 1e-4, Problem::manufactured_benchmark()).unwrap();
        for r in &rows {
            assert!(
                r.combination_flops < r.full_grid_flops,
                "level {}: comb {} vs full {}",
                r.level,
                r.combination_flops,
                r.full_grid_flops
            );
        }
        // The cost gap widens with level — the whole point of the method.
        let gap = |r: &ConvergenceRow| r.full_grid_flops as f64 / r.combination_flops as f64;
        assert!(gap(&rows[1]) > gap(&rows[0]));
    }

    #[test]
    fn observed_order_is_positive() {
        let rows = convergence_study(2, 1..=3, 1e-6, Problem::manufactured_benchmark()).unwrap();
        let orders = observed_orders(&rows);
        assert!(orders.iter().all(|o| *o > 0.4), "orders {orders:?}");
    }

    #[test]
    fn formatting_contains_all_levels() {
        let rows = convergence_study(2, 0..=1, 1e-4, Problem::manufactured_benchmark()).unwrap();
        let s = format_study(&rows);
        assert!(s.contains("advantage"));
        assert_eq!(s.lines().count(), 1 + rows.len());
    }
}
