//! Finite-difference discretization of the advection-diffusion operator.
//!
//! On grid `(l, m)` the PDE `u_t + a·∇u = ε Δu + s` is discretized in space
//! into the linear ODE system
//!
//! ```text
//! du/dt = A u + g(t)
//! ```
//!
//! over the interior nodes, where `A` is the pentadiagonal operator matrix
//! and `g(t)` collects the source term and the (time-dependent Dirichlet)
//! boundary contributions.
//!
//! Diffusion uses second-order central differences. Advection uses a
//! per-direction **hybrid** scheme, the standard choice for transport
//! problems on possibly very anisotropic sparse-grid members: central
//! differences when the mesh Péclet number `|a|·h/(2ε)` is at most 1
//! (second-order, non-oscillatory in that regime) and first-order upwind
//! otherwise (unconditionally monotone).

use crate::grid::Grid2;
use crate::problem::Problem;
use crate::sparse::Csr;
use crate::work::WorkCounter;

/// Which advection scheme was chosen in a direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvectionScheme {
    /// Second-order central differences.
    Central,
    /// First-order upwind.
    Upwind,
}

/// The spatially discretized problem on one grid.
#[derive(Clone, Debug)]
pub struct Discretization {
    /// The grid.
    pub grid: Grid2,
    /// The problem instance.
    pub problem: Problem,
    /// Interior operator matrix (`interior_count × interior_count`).
    pub a: Csr,
    /// Advection scheme chosen in x.
    pub scheme_x: AdvectionScheme,
    /// Advection scheme chosen in y.
    pub scheme_y: AdvectionScheme,
    /// Boundary couplings: `(interior_row, boundary_i, boundary_j, coeff)` —
    /// the stencil weight with which boundary node `(i,j)` feeds interior
    /// row `row`.
    boundary: Vec<(usize, usize, usize, f64)>,
}

/// Pick the advection scheme for one direction.
pub fn choose_scheme(a: f64, h: f64, eps: f64) -> AdvectionScheme {
    let peclet = a.abs() * h / (2.0 * eps.max(1e-300));
    if peclet <= 1.0 {
        AdvectionScheme::Central
    } else {
        AdvectionScheme::Upwind
    }
}

/// One-dimensional stencil weights `(west, center, east)` for
/// `-a·d/dx + ε·d²/dx²` with mesh width `h`.
fn stencil_1d(a: f64, h: f64, eps: f64, scheme: AdvectionScheme) -> (f64, f64, f64) {
    let d = eps / (h * h);
    match scheme {
        AdvectionScheme::Central => {
            let c = a / (2.0 * h);
            (d + c, -2.0 * d, d - c)
        }
        AdvectionScheme::Upwind => {
            if a >= 0.0 {
                // -a (u_i - u_{i-1})/h
                (d + a / h, -2.0 * d - a / h, d)
            } else {
                // -a (u_{i+1} - u_i)/h
                (d, -2.0 * d + a / h, d - a / h)
            }
        }
    }
}

/// Assemble the interior operator and boundary coupling table for `problem`
/// on `grid`. Work is charged to `work`.
///
/// The 5-point stencil's sparsity pattern is known a priori, so the CSR
/// arrays are written directly in sorted-column order (south, west, center,
/// east, north — interior indices are row-major with `j` outer) with no
/// triplet buffer and no sort. The result is identical — entry for entry —
/// to the triplet path retained in [`assemble_reference`].
pub fn assemble(grid: &Grid2, problem: &Problem, work: &mut WorkCounter) -> Discretization {
    let scheme_x = choose_scheme(problem.ax, grid.hx, problem.eps);
    let scheme_y = choose_scheme(problem.ay, grid.hy, problem.eps);
    let (wx, cx, ex) = stencil_1d(problem.ax, grid.hx, problem.eps, scheme_x);
    let (wy, cy, ey) = stencil_1d(problem.ay, grid.hy, problem.eps, scheme_y);

    let n = grid.interior_count();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(5 * n);
    let mut vals = Vec::with_capacity(5 * n);
    let mut boundary = Vec::new();
    row_ptr.push(0);

    for j in 1..grid.ny {
        for i in 1..grid.nx {
            let row = grid.interior_idx(i, j);
            // Matrix entries in sorted-column order: south (row − (nx−1)),
            // west (row − 1), center, east (row + 1), north (row + (nx−1)).
            if j - 1 != 0 {
                col_idx.push(grid.interior_idx(i, j - 1));
                vals.push(wy);
            }
            if i - 1 != 0 {
                col_idx.push(grid.interior_idx(i - 1, j));
                vals.push(wx);
            }
            col_idx.push(row);
            vals.push(cx + cy);
            if i + 1 != grid.nx {
                col_idx.push(grid.interior_idx(i + 1, j));
                vals.push(ex);
            }
            if j + 1 != grid.ny {
                col_idx.push(grid.interior_idx(i, j + 1));
                vals.push(ey);
            }
            row_ptr.push(col_idx.len());
            // Boundary couplings, in the same table order as the reference
            // path (west, east, south, north) so `forcing_into` accumulates
            // Dirichlet terms in the identical sequence.
            if i - 1 == 0 {
                boundary.push((row, 0, j, wx));
            }
            if i + 1 == grid.nx {
                boundary.push((row, grid.nx, j, ex));
            }
            if j - 1 == 0 {
                boundary.push((row, i, 0, wy));
            }
            if j + 1 == grid.ny {
                boundary.push((row, i, grid.ny, ey));
            }
        }
    }

    work.add_assembly(n);
    Discretization {
        grid: grid.clone(),
        problem: *problem,
        a: Csr::from_parts(n, row_ptr, col_idx, vals),
        scheme_x,
        scheme_y,
        boundary,
    }
}

/// The pre-optimization assembly path, retained verbatim: build (row, col,
/// value) triplets in visit order and let [`Csr::from_triplets`] sort and
/// merge them. Used by `solver::reference` (the bit-identity baseline) and
/// by `bench`'s `solver_bench` to measure the assembly speedup; tests
/// assert the two paths produce equal matrices and boundary tables.
pub fn assemble_reference(
    grid: &Grid2,
    problem: &Problem,
    work: &mut WorkCounter,
) -> Discretization {
    let scheme_x = choose_scheme(problem.ax, grid.hx, problem.eps);
    let scheme_y = choose_scheme(problem.ay, grid.hy, problem.eps);
    let (wx, cx, ex) = stencil_1d(problem.ax, grid.hx, problem.eps, scheme_x);
    let (wy, cy, ey) = stencil_1d(problem.ay, grid.hy, problem.eps, scheme_y);

    let n = grid.interior_count();
    let mut triplets = Vec::with_capacity(5 * n);
    let mut boundary = Vec::new();

    for j in 1..grid.ny {
        for i in 1..grid.nx {
            let row = grid.interior_idx(i, j);
            triplets.push((row, row, cx + cy));
            // West neighbour (i-1, j).
            if i - 1 == 0 {
                boundary.push((row, 0, j, wx));
            } else {
                triplets.push((row, grid.interior_idx(i - 1, j), wx));
            }
            // East neighbour (i+1, j).
            if i + 1 == grid.nx {
                boundary.push((row, grid.nx, j, ex));
            } else {
                triplets.push((row, grid.interior_idx(i + 1, j), ex));
            }
            // South neighbour (i, j-1).
            if j - 1 == 0 {
                boundary.push((row, i, 0, wy));
            } else {
                triplets.push((row, grid.interior_idx(i, j - 1), wy));
            }
            // North neighbour (i, j+1).
            if j + 1 == grid.ny {
                boundary.push((row, i, grid.ny, ey));
            } else {
                triplets.push((row, grid.interior_idx(i, j + 1), ey));
            }
        }
    }

    work.add_assembly(n);
    Discretization {
        grid: grid.clone(),
        problem: *problem,
        a: Csr::from_triplets(n, &triplets),
        scheme_x,
        scheme_y,
        boundary,
    }
}

impl Discretization {
    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.a.n()
    }

    /// The boundary coupling table: `(interior_row, boundary_i,
    /// boundary_j, coefficient)` entries feeding Dirichlet data into the
    /// interior equations.
    pub fn boundary_couplings(&self) -> &[(usize, usize, usize, f64)] {
        &self.boundary
    }

    /// Evaluate the forcing `g(t)` (source + boundary couplings) into `out`.
    pub fn forcing_into(&self, t: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n());
        // Source term at interior nodes.
        for j in 1..self.grid.ny {
            let y = self.grid.y(j);
            for i in 1..self.grid.nx {
                out[self.grid.interior_idx(i, j)] = self.problem.source(self.grid.x(i), y, t);
            }
        }
        // Dirichlet boundary contributions.
        for &(row, bi, bj, coeff) in &self.boundary {
            out[row] += coeff * self.problem.boundary(self.grid.x(bi), self.grid.y(bj), t);
        }
    }

    /// Evaluate the semi-discrete right-hand side `f(t, u) = A u + g(t)`
    /// into `out`. Allocates forcing scratch; the integrator's hot loop
    /// uses [`Discretization::rhs_into_with`] instead.
    pub fn rhs_into(&self, t: f64, u: &[f64], out: &mut [f64], work: &mut WorkCounter) {
        let mut g = vec![0.0; self.n()];
        self.rhs_into_with(t, u, out, &mut g, work);
    }

    /// [`Discretization::rhs_into`] on a caller-owned forcing scratch `g`
    /// (fully overwritten; length `n`). Allocation-free and bit-identical
    /// to the allocating entry point.
    pub fn rhs_into_with(
        &self,
        t: f64,
        u: &[f64],
        out: &mut [f64],
        g: &mut [f64],
        work: &mut WorkCounter,
    ) {
        self.a.matvec_into(u, out);
        self.forcing_into(t, g);
        for (o, gi) in out.iter_mut().zip(g.iter()) {
            *o += gi;
        }
        work.add_matvec(self.a.nnz());
    }

    /// Interior vector of the exact solution at time `t` (for initial
    /// conditions and error measurement).
    pub fn exact_interior(&self, t: f64) -> Vec<f64> {
        self.grid
            .sample_interior(|x, y| self.problem.exact(x, y, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2_norm;

    #[test]
    fn scheme_selection_by_peclet() {
        // eps large → central; eps tiny → upwind.
        assert_eq!(choose_scheme(1.0, 0.1, 1.0), AdvectionScheme::Central);
        assert_eq!(choose_scheme(1.0, 0.1, 1e-4), AdvectionScheme::Upwind);
        assert_eq!(choose_scheme(0.0, 0.1, 1e-12), AdvectionScheme::Central);
    }

    #[test]
    fn pure_diffusion_matrix_is_laplacian() {
        // With zero velocity the operator must be the standard 5-point
        // Laplacian scaled by eps.
        let p = Problem {
            ax: 0.0,
            ay: 0.0,
            eps: 1.0,
            t0: 0.0,
            t_end: 1.0,
            kind: crate::problem::ProblemKind::Manufactured,
        };
        let g = Grid2::new(2, 0, 0); // 4x4 cells, h = 1/4
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let h2 = 16.0; // 1/h² = 16
        let row = g.interior_idx(2, 2);
        assert!((d.a.get(row, row).unwrap() + 4.0 * h2).abs() < 1e-12);
        assert!((d.a.get(row, g.interior_idx(1, 2)).unwrap() - h2).abs() < 1e-12);
        assert!((d.a.get(row, g.interior_idx(2, 1)).unwrap() - h2).abs() < 1e-12);
    }

    #[test]
    fn row_sums_vanish_for_constant_state() {
        // A·1 + (boundary couplings)·1 must be ~0 when velocity and source
        // structure allow a constant: the stencil is consistent (sums to 0).
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 1, 0);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let ones = vec![1.0; d.n()];
        let mut au = vec![0.0; d.n()];
        d.a.matvec_into(&ones, &mut au);
        // Add boundary couplings as if boundary were also 1.
        for &(row, _, _, c) in &d.boundary {
            au[row] += c;
        }
        assert!(
            l2_norm(&au) < 1e-9,
            "stencil not consistent: {}",
            l2_norm(&au)
        );
    }

    #[test]
    fn spatial_discretization_residual_is_small() {
        // For the manufactured solution, A u + g(t) should approximate u_t.
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 2, 2); // 16x16
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let t = 0.1;
        let u = d.exact_interior(t);
        let mut f = vec![0.0; d.n()];
        d.rhs_into(t, &u, &mut f, &mut w);
        // u_t = -u for the manufactured solution.
        let resid: Vec<f64> = f.iter().zip(&u).map(|(fi, ui)| fi + ui).collect();
        assert!(
            l2_norm(&resid) < 0.05,
            "spatial residual too large: {}",
            l2_norm(&resid)
        );
    }

    #[test]
    fn spatial_residual_shrinks_with_refinement() {
        let p = Problem::manufactured_benchmark();
        let mut errs = Vec::new();
        for lvl in 0..3 {
            let g = Grid2::new(2, lvl, lvl);
            let mut w = WorkCounter::new();
            let d = assemble(&g, &p, &mut w);
            let t = 0.1;
            let u = d.exact_interior(t);
            let mut f = vec![0.0; d.n()];
            d.rhs_into(t, &u, &mut f, &mut w);
            let resid: Vec<f64> = f.iter().zip(&u).map(|(fi, ui)| fi + ui).collect();
            errs.push(l2_norm(&resid));
        }
        // Second-order scheme: each refinement should cut the residual ~4x.
        assert!(errs[1] < errs[0] / 2.5);
        assert!(errs[2] < errs[1] / 2.5);
    }

    #[test]
    fn direct_assembly_equals_triplet_reference() {
        // The sorted-order direct CSR build must reproduce the triplet path
        // entry for entry — matrix (bitwise, via Csr's PartialEq), boundary
        // table, and scheme choices — on isotropic, anisotropic and
        // degenerate (nx == 2 or ny == 2) grids.
        for p in [
            Problem::manufactured_benchmark(),
            Problem::transport_benchmark(),
        ] {
            for root in [1u32, 2] {
                for l in 0..3u32 {
                    for m in 0..3u32 {
                        let g = Grid2::new(root, l, m);
                        let mut w1 = WorkCounter::new();
                        let mut w2 = WorkCounter::new();
                        let fast = assemble(&g, &p, &mut w1);
                        let slow = assemble_reference(&g, &p, &mut w2);
                        assert_eq!(fast.a, slow.a, "matrix mismatch on ({root},{l},{m})");
                        assert_eq!(
                            fast.boundary, slow.boundary,
                            "boundary mismatch on ({root},{l},{m})"
                        );
                        assert_eq!(fast.scheme_x, slow.scheme_x);
                        assert_eq!(fast.scheme_y, slow.scheme_y);
                        assert_eq!(w1.flops, w2.flops);
                    }
                }
            }
        }
    }

    #[test]
    fn rhs_into_with_matches_allocating_path() {
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 1, 2);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let u = d.exact_interior(0.2);
        let mut f1 = vec![0.0; d.n()];
        let mut f2 = vec![7.0; d.n()]; // junk: must be fully overwritten
        let mut scratch = vec![-3.0; d.n()]; // junk scratch too
        d.rhs_into(0.2, &u, &mut f1, &mut w);
        d.rhs_into_with(0.2, &u, &mut f2, &mut scratch, &mut w);
        assert_eq!(f1, f2);
    }

    #[test]
    fn boundary_couplings_count() {
        let g = Grid2::new(2, 0, 0); // 4x4: interior 3x3
        let p = Problem::transport_benchmark();
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        // Each interior node adjacent to the boundary contributes one
        // coupling per adjacent side: 3x3 interior → edge nodes: 8 have at
        // least one; corners have two. Total = 12 (3 per side).
        assert_eq!(d.boundary.len(), 12);
    }

    #[test]
    fn upwind_respects_flow_direction() {
        // Strong advection in +x with tiny eps: upwind means the east
        // neighbour coefficient carries only diffusion (≈ tiny), the west
        // neighbour carries a/h.
        let p = Problem {
            ax: 1.0,
            ay: 0.0,
            eps: 1e-8,
            t0: 0.0,
            t_end: 1.0,
            kind: crate::problem::ProblemKind::Manufactured,
        };
        let g = Grid2::new(2, 0, 0);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        assert_eq!(d.scheme_x, AdvectionScheme::Upwind);
        let row = g.interior_idx(2, 2);
        let west = d.a.get(row, g.interior_idx(1, 2)).unwrap();
        let east = d.a.get(row, g.interior_idx(3, 2)).unwrap();
        assert!(west > 3.9, "west should carry a/h = 4: {west}");
        assert!(east.abs() < 1e-3, "east should be ~0: {east}");
    }
}
