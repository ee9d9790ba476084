//! # solver — sparse-grid advection-diffusion application
//!
//! A from-scratch Rust reimplementation of the sequential ANSI C program the
//! paper renovates: a time-dependent advection-diffusion problem
//!
//! ```text
//! u_t + a·u_x + b·u_y = ε (u_xx + u_yy) + s(x, y, t)
//! ```
//!
//! on the unit square, solved with the **sparse-grid combination
//! technique**: instead of one fine isotropic grid, the problem is solved on
//! a family of cheap anisotropic grids `(l, m)` and the coarse solutions are
//! *prolongated* and *combined* on the finest grid. The time integrator is a
//! two-stage **Rosenbrock** method (ROS2) with an adaptive step controlled
//! by the tolerance the paper calls `le_tol`; each step requires assembling
//! and solving sparse linear systems, which is why `subsolve` dominates the
//! run time and is the natural "cut" line for the renovation.
//!
//! Crate layout (one module per subsystem of the original program):
//!
//! * [`grid`] — anisotropic tensor grids `(l, m)` over the unit square;
//! * [`problem`] — problem definitions with exact solutions for testing;
//! * [`sparse`] — CSR sparse matrices;
//! * [`assemble`] — finite-difference discretization (hybrid
//!   central/upwind advection, central diffusion, Dirichlet boundaries);
//! * [`linsolve`] — ILU(0)-preconditioned BiCGSTAB (plus helpers);
//! * [`rosenbrock`] — the adaptive ROS2 integrator (zero-allocation hot
//!   path after workspace warm-up);
//! * [`reference`](mod@crate::reference) — the retained pre-optimization
//!   solver path, kept as a bit-identity oracle for the optimized hot loop;
//! * [`mod subsolve`](mod@crate::subsolve) — the per-grid solve, the unit of work delegated to
//!   workers in the renovated application;
//! * [`combine`] — bilinear prolongation and the combination formula;
//! * [`sequential`] — the whole sequential program (`SeqSourceCode.c`);
//! * [`work`] — work (flop) accounting used to calibrate the cluster
//!   simulator's cost model.

// `unsafe` only at the three calls into an AVX2 kernel after the
// `simd::backend()` probe, each on a fn that allows it.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod assemble;
pub mod combine;
pub mod grid;
pub mod linsolve;
pub mod problem;
pub mod reference;
pub mod rosenbrock;
pub mod sequential;
pub mod simd;
pub mod sparse;
pub mod study;
pub mod subsolve;
pub mod work;

pub use grid::{Grid2, GridIndex};
pub use problem::Problem;
pub use sequential::{SequentialApp, SequentialResult};
pub use subsolve::{subsolve, subsolve_with, SubsolveRequest, SubsolveResult};
pub use work::WorkCounter;

/// Discrete L2 norm of a vector (RMS): `sqrt(Σ v_i² / n)`.
pub fn l2_norm(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt()
}

/// Maximum (infinity) norm.
pub fn linf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(l2_norm(&[]), 0.0);
        assert!((l2_norm(&[3.0, 4.0]) - (12.5_f64).sqrt()).abs() < 1e-14);
        assert_eq!(linf_norm(&[1.0, -5.0, 2.0]), 5.0);
        assert_eq!(linf_norm(&[]), 0.0);
    }
}
