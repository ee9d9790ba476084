//! Prolongation and the sparse-grid combination formula.
//!
//! After the per-grid solves, "the coarse approximations on the visited
//! grids are known and are prolongated onto the finest grid used in the
//! application to obtain a more accurate solution for it" (§3). The
//! combination technique evaluates
//!
//! ```text
//! u_c  =  Σ_{l+m = L} P u_{l,m}  −  Σ_{l+m = L−1} P u_{l,m}
//! ```
//!
//! on the isotropic finest grid `(L, L)`, where `P` is bilinear
//! prolongation. Because the grids are nested dyadic refinements, coarse
//! nodes coincide exactly with fine nodes and the interpolation is exact
//! for bilinear functions.

use crate::grid::{Grid2, GridIndex};
use crate::work::WorkCounter;

/// Bilinearly interpolate `values` (full node vector on `from`) onto the
/// nodes of `to`. Both grids span the unit square.
pub fn prolong_bilinear(from: &Grid2, values: &[f64], to: &Grid2) -> Vec<f64> {
    assert_eq!(values.len(), from.node_count());
    // Locate the cell containing coordinate `c` along an axis with `n`
    // cells of width `h`; returns (cell index, barycentric weight). Exact
    // at coinciding nodes, including the far boundary.
    fn locate(c: f64, h: f64, n: usize) -> (usize, f64) {
        let f = (c / h).max(0.0);
        let i0 = f.floor() as usize;
        if i0 >= n {
            (n - 1, 1.0)
        } else {
            (i0, f - i0 as f64)
        }
    }
    // A node's column cell depends only on its column: locate each once.
    let cols: Vec<(usize, f64)> = (0..=to.nx)
        .map(|i| locate(to.x(i), from.hx, from.nx))
        .collect();
    let mut out = Vec::with_capacity(to.node_count());
    for j in 0..=to.ny {
        let y = to.y(j);
        let (j0, ty) = locate(y, from.hy, from.ny);
        for &(i0, tx) in &cols {
            let v00 = values[from.node_idx(i0, j0)];
            let v10 = values[from.node_idx(i0 + 1, j0)];
            let v01 = values[from.node_idx(i0, j0 + 1)];
            let v11 = values[from.node_idx(i0 + 1, j0 + 1)];
            out.push(
                v00 * (1.0 - tx) * (1.0 - ty)
                    + v10 * tx * (1.0 - ty)
                    + v01 * (1.0 - tx) * ty
                    + v11 * tx * ty,
            );
        }
    }
    out
}

/// Apply the combination formula at `level` over per-grid solutions (full
/// node vectors, keyed by their grid index). Returns the combined full node
/// vector on the finest grid `(level, level)`.
///
/// Panics when a required grid of the two diagonals is missing.
///
/// Generic over the solution storage (`Vec<f64>`, `&[f64]`, …) so shared
/// buffers can be combined without first deep-copying them into owned
/// vectors.
pub fn combine<S: AsRef<[f64]>>(
    root: u32,
    level: u32,
    solutions: &[(GridIndex, S)],
    work: &mut WorkCounter,
) -> Vec<f64> {
    let fine = Grid2::finest(root, level);
    let mut acc = vec![0.0; fine.node_count()];
    let lookup = |idx: GridIndex| -> &[f64] {
        solutions
            .iter()
            .find(|(g, _)| *g == idx)
            .map(|(_, v)| v.as_ref())
            .unwrap_or_else(|| panic!("combination: missing grid {idx}"))
    };
    // Positive diagonal l+m = level.
    for l in 0..=level {
        let idx = GridIndex::new(l, level - l);
        let g = Grid2::new(root, idx.l, idx.m);
        let p = prolong_bilinear(&g, lookup(idx), &fine);
        for (a, v) in acc.iter_mut().zip(&p) {
            *a += v;
        }
        work.add_vector_ops(fine.node_count(), 5);
    }
    // Negative diagonal l+m = level-1 (absent at level 0).
    if level >= 1 {
        for l in 0..level {
            let idx = GridIndex::new(l, level - 1 - l);
            let g = Grid2::new(root, idx.l, idx.m);
            let p = prolong_bilinear(&g, lookup(idx), &fine);
            for (a, v) in acc.iter_mut().zip(&p) {
                *a -= v;
            }
            work.add_vector_ops(fine.node_count(), 5);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2_norm;
    use crate::problem::Problem;

    #[test]
    fn prolongation_is_exact_for_bilinear_functions() {
        let coarse = Grid2::new(2, 0, 1);
        let fine = Grid2::new(2, 2, 2);
        let f = |x: f64, y: f64| 2.0 + 3.0 * x - 1.5 * y + 0.25 * x * y;
        let cv = coarse.sample(f);
        let fv = prolong_bilinear(&coarse, &cv, &fine);
        let want = fine.sample(f);
        for (a, b) in fv.iter().zip(&want) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
    }

    #[test]
    fn prolongation_preserves_constants() {
        let coarse = Grid2::new(2, 1, 0);
        let fine = Grid2::new(2, 3, 3);
        let cv = coarse.sample(|_, _| 7.0);
        let fv = prolong_bilinear(&coarse, &cv, &fine);
        assert!(fv.iter().all(|v| (v - 7.0).abs() < 1e-13));
    }

    #[test]
    fn prolongation_to_same_grid_is_identity() {
        let g = Grid2::new(2, 1, 1);
        let v = g.sample(|x, y| (x * 7.0).sin() + y);
        let p = prolong_bilinear(&g, &v, &g);
        for (a, b) in p.iter().zip(&v) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn nested_coarse_nodes_coincide_with_fine() {
        let coarse = Grid2::new(2, 0, 0);
        let fine = Grid2::new(2, 1, 1);
        let v = coarse.sample(|x, y| x * x + y); // not bilinear
        let p = prolong_bilinear(&coarse, &v, &fine);
        // Every even fine node coincides with a coarse node: value must be
        // exactly the coarse one.
        for j in (0..=fine.ny).step_by(2) {
            for i in (0..=fine.nx).step_by(2) {
                let pc = v[coarse.node_idx(i / 2, j / 2)];
                let pf = p[fine.node_idx(i, j)];
                assert!((pc - pf).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn combination_weights_sum_to_one() {
        // Combining constant-1 fields must give constant 1: (level+1) - level.
        let root = 2;
        let level = 3;
        let mut sols = Vec::new();
        for idx in Grid2::combination_indices(level) {
            let g = Grid2::new(root, idx.l, idx.m);
            sols.push((idx, g.sample(|_, _| 1.0)));
        }
        let mut w = WorkCounter::new();
        let c = combine(root, level, &sols, &mut w);
        assert!(c.iter().all(|v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn combination_level_zero_is_single_grid() {
        let root = 2;
        let g = Grid2::new(root, 0, 0);
        let v = g.sample(|x, y| x + y);
        let mut w = WorkCounter::new();
        let c = combine(root, 0, &[(GridIndex::new(0, 0), v.clone())], &mut w);
        for (a, b) in c.iter().zip(&v) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn combination_beats_equal_cost_single_grids() {
        // The headline property of the combination technique: combining the
        // anisotropic level-L grids approximates the smooth field better
        // than any single member grid of the same cell count.
        let root = 2;
        let level = 3;
        let p = Problem::transport_benchmark();
        let t = 0.1;
        let f = |x: f64, y: f64| p.exact(x, y, t);
        let fine = Grid2::finest(root, level);
        let want = fine.sample(f);

        let mut sols = Vec::new();
        for idx in Grid2::combination_indices(level) {
            let g = Grid2::new(root, idx.l, idx.m);
            sols.push((idx, g.sample(f)));
        }
        let mut w = WorkCounter::new();
        let combined = combine(root, level, &sols, &mut w);
        let comb_err = {
            let d: Vec<f64> = combined.iter().zip(&want).map(|(a, b)| a - b).collect();
            l2_norm(&d)
        };
        // Worst single level-L grid error (same cell count as each member).
        let mut best_single = f64::INFINITY;
        for l in 0..=level {
            let g = Grid2::new(root, l, level - l);
            let v = prolong_bilinear(&g, &g.sample(f), &fine);
            let d: Vec<f64> = v.iter().zip(&want).map(|(a, b)| a - b).collect();
            best_single = best_single.min(l2_norm(&d));
        }
        assert!(
            comb_err < best_single,
            "combination ({comb_err:.3e}) should beat the best single \
             level-{level} grid ({best_single:.3e})"
        );
    }

    #[test]
    #[should_panic(expected = "missing grid")]
    fn combine_panics_on_missing_grid() {
        let mut w = WorkCounter::new();
        let g = Grid2::new(2, 0, 1);
        let _ = combine(
            2,
            1,
            &[(GridIndex::new(0, 1), g.sample(|_, _| 0.0))],
            &mut w,
        );
    }
}
