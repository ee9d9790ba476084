//! Work accounting.
//!
//! The original program is compute-bound: "In this routine, a linear system
//! of equations (Ax = b) is solved for every time step. Moreover, this A
//! matrix must be built up in the program which takes a lot of time."
//! The [`WorkCounter`] tallies an architecture-independent flop estimate of
//! all of that. The cluster simulator divides these flops by a host's
//! effective speed to obtain virtual compute times, which is how Table 1's
//! large levels are reproduced without a 32-machine cluster.

use serde::{Deserialize, Serialize};

/// Tally of the computational work performed by solver components.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkCounter {
    /// Estimated floating-point operations.
    pub flops: u64,
    /// Accepted time steps.
    pub steps: u64,
    /// Rejected (error-controlled) time steps.
    pub rejected: u64,
    /// Linear-solver iterations.
    pub lin_iters: u64,
    /// Preconditioner factorizations built from scratch (pattern + values).
    pub factorizations: u64,
    /// In-place preconditioner refactorizations (values rewritten on the
    /// cached pattern — same float work as a factorization, no allocation).
    #[serde(default)]
    pub refactorizations: u64,
    /// Matrix assemblies.
    pub assemblies: u64,
}

impl WorkCounter {
    /// Fresh, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge a sparse matrix-vector product with `nnz` stored entries.
    pub fn add_matvec(&mut self, nnz: usize) {
        self.flops += 2 * nnz as u64;
    }

    /// Charge a triangular solve pair (ILU preconditioner application).
    pub fn add_precond_apply(&mut self, nnz: usize) {
        self.flops += 2 * nnz as u64;
    }

    /// Charge an ILU(0) factorization.
    pub fn add_factorization(&mut self, nnz: usize) {
        self.factorizations += 1;
        // Each entry participates in a few multiply-subtract updates.
        self.flops += 5 * nnz as u64;
    }

    /// Charge an in-place ILU(0) refactorization: the elimination work is
    /// the same as a full factorization (the savings are allocation and
    /// pattern discovery, which the flop model never counted), but the
    /// event is tallied separately so full vs. in-place rebuilds can be
    /// distinguished in benchmarks and cost calibration.
    pub fn add_refactorization(&mut self, nnz: usize) {
        self.refactorizations += 1;
        self.flops += 5 * nnz as u64;
    }

    /// Charge vector operations over `n` entries (`k` BLAS-1 passes).
    pub fn add_vector_ops(&mut self, n: usize, k: usize) {
        self.flops += (2 * n * k) as u64;
    }

    /// Charge a matrix assembly over `n` unknowns.
    pub fn add_assembly(&mut self, n: usize) {
        self.assemblies += 1;
        // Stencil coefficient computation + triplet handling per node.
        self.flops += 40 * n as u64;
    }

    /// Charge one linear-solver iteration.
    pub fn add_lin_iter(&mut self) {
        self.lin_iters += 1;
    }

    /// Charge an accepted step.
    pub fn add_step(&mut self) {
        self.steps += 1;
    }

    /// Charge a rejected step.
    pub fn add_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Fold another counter into this one.
    pub fn merge(&mut self, other: &WorkCounter) {
        self.flops += other.flops;
        self.steps += other.steps;
        self.rejected += other.rejected;
        self.lin_iters += other.lin_iters;
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
        self.assemblies += other.assemblies;
    }
}

/// A-priori flop estimate for `subsolve(l, m)` on a grid rooted at
/// `root` with integrator tolerance `tol` — *before* running it.
///
/// Used by cost-aware dispatch policies to order jobs longest-first. It
/// only needs to rank jobs correctly, not predict absolute cost: per
/// accepted step the solver assembles, factorizes and iterates over
/// O(unknowns) entries, and the step count grows with the sharper of the
/// two mesh widths (advection CFL-like behavior of the error controller)
/// and with tighter tolerances.
pub fn estimate_subsolve_flops(root: u32, l: u32, m: u32, tol: f64) -> f64 {
    let nx = (1u64 << (root + l)) as f64;
    let ny = (1u64 << (root + m)) as f64;
    let unknowns = (nx - 1.0).max(1.0) * (ny - 1.0).max(1.0);
    // Steps scale like the finer direction's resolution; the tolerance
    // term mirrors the ~tol^-1/3 behavior of a second-order controller.
    let steps = nx.max(ny) * (1e-3 / tol.max(1e-12)).powf(1.0 / 3.0);
    MEASURED_FLOPS_PER_UNKNOWN_STEP * unknowns * steps
}

/// Measured flop intensity of the production solver: counted flops per
/// unknown per accepted step, averaged over the combination grids of a
/// level-6 run at `tol = 1e-4` (`BENCH_solver.json`, regenerated by
/// `cargo run -p bench --release --bin solver_bench -- --json`): 301.9.
/// Level-3 runs measure ≈233 — the intensity creeps up with refinement as
/// the ILU-preconditioned BiCGSTAB iteration count grows, so a single
/// constant is an approximation; 300 keeps the a-priori estimate within a
/// few percent of the counters on the grids the dispatch policies actually
/// rank.
const MEASURED_FLOPS_PER_UNKNOWN_STEP: f64 = 300.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_ranks_grids_sensibly() {
        // Bigger grids cost more.
        assert!(estimate_subsolve_flops(2, 3, 3, 1e-3) > estimate_subsolve_flops(2, 1, 1, 1e-3));
        // The estimate is symmetric in (l, m) — both diagonals rank alike.
        assert_eq!(
            estimate_subsolve_flops(2, 4, 1, 1e-3),
            estimate_subsolve_flops(2, 1, 4, 1e-3)
        );
        // Tighter tolerance costs more.
        assert!(estimate_subsolve_flops(2, 2, 2, 1e-4) > estimate_subsolve_flops(2, 2, 2, 1e-3));
        // Same shape, one diagonal finer: the finer grid costs more, so
        // LPT ordering fronts the l+m = level diagonal.
        assert!(estimate_subsolve_flops(2, 3, 3, 1e-3) > estimate_subsolve_flops(2, 3, 2, 1e-3));
        // All estimates are positive and finite, even degenerate ones.
        let e = estimate_subsolve_flops(0, 0, 0, 1e-3);
        assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn charges_accumulate() {
        let mut w = WorkCounter::new();
        w.add_matvec(100);
        w.add_matvec(100);
        assert_eq!(w.flops, 400);
        w.add_step();
        w.add_rejected();
        w.add_lin_iter();
        assert_eq!((w.steps, w.rejected, w.lin_iters), (1, 1, 1));
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = WorkCounter::new();
        a.add_factorization(10);
        let mut b = WorkCounter::new();
        b.add_assembly(5);
        b.add_step();
        b.add_refactorization(10);
        a.merge(&b);
        assert_eq!(a.factorizations, 1);
        assert_eq!(a.refactorizations, 1);
        assert_eq!(a.assemblies, 1);
        assert_eq!(a.steps, 1);
        assert_eq!(a.flops, 50 + 200 + 50);
    }

    #[test]
    fn refactorization_charges_factorization_flops() {
        // Same float work, separate event counter: the cost model's flop
        // totals must not depend on which rebuild path ran.
        let mut full = WorkCounter::new();
        full.add_factorization(123);
        let mut inplace = WorkCounter::new();
        inplace.add_refactorization(123);
        assert_eq!(full.flops, inplace.flops);
        assert_eq!(full.factorizations, 1);
        assert_eq!(inplace.refactorizations, 1);
        assert_eq!(inplace.factorizations, 0);
    }

    #[test]
    fn default_is_zero() {
        let w = WorkCounter::default();
        assert_eq!(w.flops, 0);
        assert_eq!(w.steps, 0);
    }
}
