//! Bit-identity regression: the zero-allocation subsolve hot path against
//! the retained reference implementation (`solver::reference`).
//!
//! The optimization contract for this solver is strict: direct CSR
//! assembly, cached stage matrices, in-place ILU(0) refactorization,
//! level-scheduled triangular sweeps and workspace reuse must change *how*
//! the arithmetic is scheduled, never *what* is computed. These tests pin
//! that down — bitwise-equal solution values and identical step, rejection,
//! iteration and flop counts on a set of anisotropic and isotropic grids.
//!
//! Two roots cover every kernel route: root 2's grids are thin (3 or 7
//! wide) and wide stencils, and root 1's include the 1-D grids (one
//! interior line) that production runs on the scalar fallback. Root 4's
//! level-2 row — lines 15, 31 and 63 wide, the shapes of the `solve_heavy`
//! benchmark workload's jobs — pins the band-major matvec on the grids it
//! is claimed for.

use solver::problem::Problem;
use solver::reference::{bit_identity_grids, subsolve_reference};
use solver::rosenbrock::Ros2Workspace;
use solver::subsolve::{subsolve, subsolve_with, SubsolveRequest};

/// Roots 1 and 2 over the regression grid set.
fn regression_cases() -> Vec<(u32, u32, u32)> {
    let grids = bit_identity_grids();
    assert!(grids.len() >= 3, "need at least three regression grids");
    [1, 2]
        .into_iter()
        .flat_map(|root| grids.iter().map(move |&(l, m)| (root, l, m)))
        .collect()
}

fn assert_identical(p: Problem, tol: f64, cases: &[(u32, u32, u32)]) {
    // One shared workspace across all grids: reuse (with its pattern-cache
    // resets between differently shaped grids) must not perturb anything.
    let mut ws = Ros2Workspace::new();
    for &(root, l, m) in cases {
        let req = SubsolveRequest::for_grid(root, l, m, tol, p);
        let reference = subsolve_reference(&req).expect("reference subsolve");
        let fresh = subsolve(&req).expect("optimized subsolve");
        let warm = subsolve_with(&req, &mut ws).expect("warm-workspace subsolve");

        for res in [&fresh, &warm] {
            assert_eq!(
                reference.values, res.values,
                "root {root} grid ({l},{m}): values diverged from the reference"
            );
            assert_eq!(
                reference.steps, res.steps,
                "root {root} grid ({l},{m}): step count"
            );
            assert_eq!(
                reference.rejected, res.rejected,
                "root {root} grid ({l},{m}): rejected-step count"
            );
            assert_eq!(
                reference.work.flops, res.work.flops,
                "root {root} grid ({l},{m}): counted flops"
            );
            assert_eq!(
                reference.work.lin_iters, res.work.lin_iters,
                "root {root} grid ({l},{m}): linear iterations"
            );
            // The reference only ever performs full factorizations; the
            // optimized path splits the same events into one factorization
            // plus in-place refactorizations.
            assert_eq!(
                reference.work.factorizations,
                res.work.factorizations + res.work.refactorizations,
                "root {root} grid ({l},{m}): (re)factorization events"
            );
        }
    }
}

#[test]
fn transport_problem_is_bit_identical_to_reference() {
    assert_identical(Problem::transport_benchmark(), 1e-4, &regression_cases());
}

#[test]
fn manufactured_problem_is_bit_identical_to_reference() {
    assert_identical(Problem::manufactured_benchmark(), 1e-3, &regression_cases());
}

#[test]
fn solve_heavy_grids_are_bit_identical_to_reference() {
    let cases = [(4, 0, 2), (4, 1, 1), (4, 2, 0)];
    assert_identical(Problem::transport_benchmark(), 1e-4, &cases);
}
